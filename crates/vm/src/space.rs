//! Per-process address spaces.
//!
//! An [`AddressSpace`] owns a page table and a frame allocator and hands
//! out named virtual regions, eagerly populated by default (the paper's
//! workloads never demand-fault during the timed kernel). For hUMA-style
//! GPU page faults a region's pages can be released again with
//! [`AddressSpace::unmap_pages_where`] and faulted back in one at a time
//! with [`AddressSpace::map_page`]. Unmapping bumps a shootdown epoch
//! that TLB models observe to invalidate stale entries.

use crate::addr::{PAddr, PageSize, VAddr, Vpn, FRAMES_PER_LARGE, PAGE_BYTES};
use crate::frame::{FrameAlloc, FramePolicy};
use crate::page_table::{MapError, PageTable, Walk};

/// Configuration for a new [`AddressSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Number of 4 KiB physical frames (power of two). The default, 2^21
    /// (8 GiB), is far larger than any workload in the suite so frame
    /// exhaustion never perturbs an experiment.
    pub phys_frames: u64,
    /// Frame allocation policy.
    pub policy: FramePolicy,
    /// First virtual address handed to regions.
    pub vbase: u64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        Self {
            phys_frames: 1 << 21,
            policy: FramePolicy::Scrambled,
            // 1 GiB: keeps typical suites inside a handful of PDP entries,
            // like a real process heap.
            vbase: 0x4000_0000,
        }
    }
}

/// A named, mapped virtual region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Region {
    /// Region name (for diagnostics).
    pub name: String,
    /// First virtual address.
    pub base: VAddr,
    /// Mapped length in bytes (rounded up to the page size).
    pub bytes: u64,
    /// Page size used for the mapping.
    pub page_size: PageSize,
}

impl Region {
    /// Virtual address `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `offset` is out of bounds.
    #[inline]
    pub fn at(&self, offset: u64) -> VAddr {
        debug_assert!(offset < self.bytes, "region offset out of bounds");
        self.base.offset(offset)
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> VAddr {
        self.base.offset(self.bytes)
    }

    /// Number of 4 KiB pages the region spans.
    pub fn num_pages(&self) -> u64 {
        self.bytes / PAGE_BYTES
    }
}

/// Errors produced by address-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// Translation requested for an unmapped address.
    Unmapped(VAddr),
    /// Mapping failed structurally (overlap, misalignment).
    Map(MapError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfMemory => write!(f, "out of physical frames"),
            VmError::Unmapped(va) => write!(f, "unmapped virtual address {va}"),
            VmError::Map(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<MapError> for VmError {
    fn from(e: MapError) -> Self {
        match e {
            MapError::OutOfFrames => VmError::OutOfMemory,
            other => VmError::Map(other),
        }
    }
}

/// A process address space: page table + physical frames + regions.
///
/// # Examples
///
/// ```
/// use gmmu_vm::{AddressSpace, SpaceConfig, PageSize};
/// let mut space = AddressSpace::new(SpaceConfig::default());
/// let r = space.map_region("nodes", 64 * 1024, PageSize::Base4K)?;
/// assert_eq!(r.num_pages(), 16);
/// assert!(space.translate(r.at(1000)).is_ok());
/// # Ok::<(), gmmu_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    config: SpaceConfig,
    /// Address-space identifier. Tenant `asid` allocates frames from the
    /// physical window `asid * phys_frames ..`, so two spaces on one GPU
    /// can never alias a frame — data or page-table node.
    asid: u16,
    table: PageTable,
    frames: FrameAlloc,
    regions: Vec<Region>,
    next_vbase: u64,
    shootdown_epoch: u64,
}

impl AddressSpace {
    /// Creates an empty address space with ASID 0.
    ///
    /// # Panics
    ///
    /// Panics if `config.phys_frames` cannot even hold the page-table
    /// root; use [`AddressSpace::try_new`] to report that instead.
    pub fn new(config: SpaceConfig) -> Self {
        Self::try_new(config).expect("no frame for page-table root")
    }

    /// Creates an empty address space owning the `asid`-th physical
    /// window. ASID 0 is byte-identical to [`AddressSpace::new`].
    ///
    /// # Panics
    ///
    /// Panics on frame exhaustion, like [`AddressSpace::new`].
    pub fn with_asid(config: SpaceConfig, asid: u16) -> Self {
        Self::try_with_asid(config, asid).expect("no frame for page-table root")
    }

    /// Fallible [`AddressSpace::new`].
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when the allocator cannot provide
    /// the page-table root frame.
    pub fn try_new(config: SpaceConfig) -> Result<Self, VmError> {
        Self::try_with_asid(config, 0)
    }

    /// Fallible [`AddressSpace::with_asid`].
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when the allocator cannot provide
    /// the page-table root frame.
    pub fn try_with_asid(config: SpaceConfig, asid: u16) -> Result<Self, VmError> {
        // `phys_frames` is a power of two >= 512, so the per-tenant base
        // is always 2 MiB-aligned.
        let base = asid as u64 * config.phys_frames;
        let mut frames = FrameAlloc::with_base(config.phys_frames, config.policy, base);
        let table = PageTable::try_new(&mut frames)?;
        Ok(Self {
            config,
            asid,
            table,
            frames,
            regions: Vec::new(),
            next_vbase: config.vbase,
            shootdown_epoch: 0,
        })
    }

    /// This space's address-space identifier.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// The configuration this space was created with. A trace frontend
    /// uses this to rebuild an identically laid-out space (same frame
    /// policy, same region bases) in another process.
    pub fn config(&self) -> SpaceConfig {
        self.config
    }

    /// Maps a new region of at least `bytes` bytes with the given page
    /// size, eagerly populating every page.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when physical frames run out and
    /// [`VmError::Map`] on internal overlap (which indicates a bug).
    pub fn map_region(
        &mut self,
        name: &str,
        bytes: u64,
        page_size: PageSize,
    ) -> Result<Region, VmError> {
        let granule = page_size.bytes();
        let rounded = bytes.div_ceil(granule) * granule;
        // Regions are 2 MiB aligned with a guard gap, so large and base
        // pages never share a PD entry by accident.
        let align = crate::addr::LARGE_PAGE_BYTES;
        let base = self.next_vbase.div_ceil(align) * align;
        self.next_vbase = base + rounded + align;

        match page_size {
            PageSize::Base4K => {
                let first_vpn = base >> crate::addr::PAGE_SHIFT;
                for i in 0..rounded / PAGE_BYTES {
                    let frame = self.frames.alloc().ok_or(VmError::OutOfMemory)?;
                    self.table.map(
                        Vpn::new(first_vpn + i),
                        frame,
                        PageSize::Base4K,
                        &mut self.frames,
                    )?;
                }
            }
            PageSize::Large2M => {
                let first_vpn = base >> crate::addr::PAGE_SHIFT;
                for i in 0..rounded / crate::addr::LARGE_PAGE_BYTES {
                    let frame = self.frames.alloc_large().ok_or(VmError::OutOfMemory)?;
                    self.table.map(
                        Vpn::new(first_vpn + i * FRAMES_PER_LARGE),
                        frame,
                        PageSize::Large2M,
                        &mut self.frames,
                    )?;
                }
            }
        }
        let region = Region {
            name: name.to_owned(),
            base: VAddr::new(base),
            bytes: rounded,
            page_size,
        };
        self.regions.push(region.clone());
        Ok(region)
    }

    /// Translates a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] for addresses outside any region.
    pub fn translate(&self, va: VAddr) -> Result<(PAddr, PageSize), VmError> {
        let (ppn, size) = self
            .table
            .translate(va.vpn())
            .ok_or(VmError::Unmapped(va))?;
        Ok((ppn.base().offset(va.page_offset()), size))
    }

    /// Performs a timed page-table walk for the MMU (records PTE load
    /// addresses).
    pub fn walk(&self, vpn: Vpn) -> Walk {
        self.table.walk(vpn)
    }

    /// The regions mapped so far, in mapping order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total mapped bytes across regions.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Number of page-table node frames (a proxy for page-table memory).
    pub fn page_table_nodes(&self) -> usize {
        self.table.node_count()
    }

    /// Unmaps a whole region by name; returns `true` if it existed.
    /// Bumps the shootdown epoch so TLBs flush (Section 6.2: GPU TLBs
    /// are flushed when the owning CPU changes the page table).
    pub fn unmap_region(&mut self, name: &str) -> bool {
        let Some(pos) = self.regions.iter().position(|r| r.name == name) else {
            return false;
        };
        let region = self.regions.remove(pos);
        let step = region.page_size.bytes() / PAGE_BYTES;
        let first = region.base.vpn().raw();
        let mut vpn = first;
        while vpn < first + region.num_pages() {
            self.table.unmap(Vpn::new(vpn));
            vpn += step;
        }
        self.shootdown_epoch += 1;
        true
    }

    /// Monotonic counter incremented on every shootdown-worthy change.
    pub fn shootdown_epoch(&self) -> u64 {
        self.shootdown_epoch
    }

    /// The region containing `va`, if any.
    pub fn region_containing(&self, va: VAddr) -> Option<&Region> {
        self.regions
            .iter()
            .find(|r| r.base.raw() <= va.raw() && va.raw() < r.end().raw())
    }

    /// Releases the translations of every page for which `keep_unmapped`
    /// returns `true`, across all regions, *without* removing the regions
    /// themselves — the pages demand-fault back in via
    /// [`AddressSpace::map_page`]. Freed 4 KiB frames return to the
    /// allocator; 2 MiB frames are not reclaimed (the allocator has no
    /// large free list, and the simulator never stores page contents).
    ///
    /// Bumps the shootdown epoch once if anything was unmapped. Returns
    /// the number of translations removed.
    pub fn unmap_pages_where(&mut self, mut keep_unmapped: impl FnMut(Vpn) -> bool) -> u64 {
        let spans: Vec<(u64, u64, u64, PageSize)> = self
            .regions
            .iter()
            .map(|r| {
                let step = r.page_size.bytes() / PAGE_BYTES;
                (r.base.vpn().raw(), r.num_pages(), step, r.page_size)
            })
            .collect();
        let mut removed = 0u64;
        for (first, pages, step, size) in spans {
            let mut vpn = first;
            while vpn < first + pages {
                let v = Vpn::new(vpn);
                if keep_unmapped(v) {
                    let frame = self.table.translate(v).map(|(ppn, _)| ppn);
                    if self.table.unmap(v) {
                        removed += 1;
                        if size == PageSize::Base4K {
                            if let Some(ppn) = frame {
                                self.frames.free(ppn);
                            }
                        }
                    }
                }
                vpn += step;
            }
        }
        if removed > 0 {
            self.shootdown_epoch += 1;
        }
        removed
    }

    /// Releases every translation while keeping the regions: the fully
    /// demand-paged starting state (zero pre-mapped pages).
    pub fn unmap_all_pages(&mut self) -> u64 {
        self.unmap_pages_where(|_| true)
    }

    /// Services a page fault: installs a translation for the page of
    /// `vpn` inside an existing region. Idempotent — mapping an
    /// already-mapped page succeeds without change, so concurrent faults
    /// on the same page from several cores coalesce naturally.
    ///
    /// Does *not* bump the shootdown epoch: installing a translation
    /// cannot make a cached TLB entry stale.
    ///
    /// # Errors
    ///
    /// [`VmError::Unmapped`] if `vpn` lies outside every region,
    /// [`VmError::OutOfMemory`] on frame exhaustion.
    pub fn map_page(&mut self, vpn: Vpn) -> Result<PageSize, VmError> {
        let region = self
            .region_containing(vpn.base())
            .ok_or_else(|| VmError::Unmapped(vpn.base()))?;
        let size = region.page_size;
        if self.table.translate(vpn).is_some() {
            return Ok(size);
        }
        match size {
            PageSize::Base4K => {
                let frame = self.frames.alloc().ok_or(VmError::OutOfMemory)?;
                self.table
                    .map(vpn, frame, PageSize::Base4K, &mut self.frames)?;
            }
            PageSize::Large2M => {
                let aligned = Vpn::new(vpn.raw() & !(FRAMES_PER_LARGE - 1));
                let frame = self.frames.alloc_large().ok_or(VmError::OutOfMemory)?;
                self.table
                    .map(aligned, frame, PageSize::Large2M, &mut self.frames)?;
            }
        }
        Ok(size)
    }

    /// Remaps an existing region onto fresh physical frames in place —
    /// the mid-run `unmap`/`remap` a CPU performs when it migrates pages.
    /// Virtual addresses are unchanged; every page ends up mapped (even
    /// if the region was partially demand-paged) and the shootdown epoch
    /// is bumped so GPU TLBs flush. Returns `Ok(false)` if no region has
    /// that name.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] on frame exhaustion.
    pub fn remap_region(&mut self, name: &str) -> Result<bool, VmError> {
        let Some(region) = self.regions.iter().find(|r| r.name == name).cloned() else {
            return Ok(false);
        };
        let step = region.page_size.bytes() / PAGE_BYTES;
        let first = region.base.vpn().raw();
        let mut vpn = first;
        while vpn < first + region.num_pages() {
            let v = Vpn::new(vpn);
            let old = self.table.translate(v).map(|(ppn, _)| ppn);
            self.table.unmap(v);
            match region.page_size {
                PageSize::Base4K => {
                    // Allocate before freeing the old frame, or the LIFO
                    // free list would hand the same frame straight back.
                    let frame = self.frames.alloc().ok_or(VmError::OutOfMemory)?;
                    self.table
                        .map(v, frame, PageSize::Base4K, &mut self.frames)?;
                    if let Some(ppn) = old {
                        self.frames.free(ppn);
                    }
                }
                PageSize::Large2M => {
                    let frame = self.frames.alloc_large().ok_or(VmError::OutOfMemory)?;
                    self.table
                        .map(v, frame, PageSize::Large2M, &mut self.frames)?;
                }
            }
            vpn += step;
        }
        self.shootdown_epoch += 1;
        Ok(true)
    }
}

use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};

impl Codec for SpaceConfig {
    fn save(&self, w: &mut Saver) {
        w.u64(self.phys_frames);
        self.policy.save(w);
        w.u64(self.vbase);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.phys_frames = r.u64()?;
        self.policy.load(r)?;
        self.vbase = r.u64()?;
        Ok(())
    }
}

impl Codec for Region {
    fn save(&self, w: &mut Saver) {
        w.str(&self.name);
        self.base.save(w);
        w.u64(self.bytes);
        self.page_size.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.name = r.str()?.to_owned();
        self.base.load(r)?;
        self.bytes = r.u64()?;
        self.page_size.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(SpaceConfig::default())
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut s = space();
        let a = s.map_region("a", 10_000, PageSize::Base4K).unwrap();
        let b = s.map_region("b", 10_000, PageSize::Base4K).unwrap();
        assert!(a.end().raw() <= b.base.raw());
    }

    #[test]
    fn translation_preserves_offsets() {
        let mut s = space();
        let r = s.map_region("r", 1 << 20, PageSize::Base4K).unwrap();
        for off in [0u64, 1, 4095, 4096, 123_456] {
            let (pa, _) = s.translate(r.at(off)).unwrap();
            assert_eq!(pa.raw() & 0xfff, (r.base.raw() + off) & 0xfff);
        }
    }

    #[test]
    fn distinct_pages_map_to_distinct_frames() {
        let mut s = space();
        let r = s
            .map_region("r", 64 * PAGE_BYTES, PageSize::Base4K)
            .unwrap();
        let mut frames = std::collections::HashSet::new();
        for p in 0..r.num_pages() {
            let (pa, _) = s.translate(r.at(p * PAGE_BYTES)).unwrap();
            assert!(frames.insert(pa.ppn().raw()));
        }
    }

    #[test]
    fn unmapped_address_errors() {
        let s = space();
        let err = s.translate(VAddr::new(0x999_0000)).unwrap_err();
        assert!(matches!(err, VmError::Unmapped(_)));
    }

    #[test]
    fn large_page_region_translates_everywhere() {
        let mut s = space();
        let r = s.map_region("big", 6 << 20, PageSize::Large2M).unwrap();
        assert_eq!(r.bytes, 6 << 20);
        let (_, size) = s.translate(r.at(3 << 20)).unwrap();
        assert_eq!(size, PageSize::Large2M);
        // Walk is one level shorter.
        assert_eq!(s.walk(r.at(0).vpn()).num_refs(), 3);
    }

    #[test]
    fn large_pages_are_physically_contiguous_within() {
        let mut s = space();
        let r = s.map_region("big", 2 << 20, PageSize::Large2M).unwrap();
        let (pa0, _) = s.translate(r.at(0)).unwrap();
        let (pa1, _) = s.translate(r.at(PAGE_BYTES * 13 + 5)).unwrap();
        assert_eq!(pa1.raw() - pa0.raw(), PAGE_BYTES * 13 + 5);
    }

    #[test]
    fn unmap_region_bumps_epoch_and_removes_translations() {
        let mut s = space();
        let r = s
            .map_region("gone", 8 * PAGE_BYTES, PageSize::Base4K)
            .unwrap();
        assert_eq!(s.shootdown_epoch(), 0);
        assert!(s.unmap_region("gone"));
        assert_eq!(s.shootdown_epoch(), 1);
        assert!(s.translate(r.at(0)).is_err());
        assert!(!s.unmap_region("gone"));
    }

    #[test]
    fn rounding_covers_partial_pages() {
        let mut s = space();
        let r = s
            .map_region("odd", PAGE_BYTES + 1, PageSize::Base4K)
            .unwrap();
        assert_eq!(r.num_pages(), 2);
        assert!(s.translate(r.at(PAGE_BYTES)).is_ok());
    }

    #[test]
    fn demand_paging_roundtrip() {
        let mut s = space();
        let r = s
            .map_region("d", 16 * PAGE_BYTES, PageSize::Base4K)
            .unwrap();
        assert_eq!(s.unmap_all_pages(), 16);
        assert_eq!(s.shootdown_epoch(), 1);
        assert!(s.translate(r.at(0)).is_err());
        assert_eq!(s.regions().len(), 1, "regions persist under demand paging");
        let size = s.map_page(r.at(5 * PAGE_BYTES).vpn()).unwrap();
        assert_eq!(size, PageSize::Base4K);
        assert!(s.translate(r.at(5 * PAGE_BYTES)).is_ok());
        assert!(s.translate(r.at(6 * PAGE_BYTES)).is_err());
        // Idempotent: a second fault on the same page coalesces.
        s.map_page(r.at(5 * PAGE_BYTES).vpn()).unwrap();
        assert_eq!(s.shootdown_epoch(), 1, "map_page never bumps the epoch");
    }

    #[test]
    fn map_page_outside_regions_is_unmapped() {
        let mut s = space();
        let err = s.map_page(VAddr::new(0x999_0000).vpn()).unwrap_err();
        assert!(matches!(err, VmError::Unmapped(_)));
    }

    #[test]
    fn remap_region_moves_frames_and_bumps_epoch() {
        let mut s = space();
        let r = s.map_region("m", 8 * PAGE_BYTES, PageSize::Base4K).unwrap();
        let (pa0, _) = s.translate(r.at(0)).unwrap();
        assert!(s.remap_region("m").unwrap());
        assert_eq!(s.shootdown_epoch(), 1);
        let (pa1, _) = s.translate(r.at(0)).unwrap();
        assert_ne!(pa0.ppn().raw(), pa1.ppn().raw(), "remap must move frames");
        assert!(!s.remap_region("absent").unwrap());
    }

    #[test]
    fn demand_paged_large_region_faults_whole_large_pages() {
        let mut s = space();
        let r = s.map_region("big", 4 << 20, PageSize::Large2M).unwrap();
        assert!(s.unmap_all_pages() > 0);
        assert!(s.translate(r.at(0)).is_err());
        let size = s.map_page(r.at((1 << 20) + 123).vpn()).unwrap();
        assert_eq!(size, PageSize::Large2M);
        assert!(s.translate(r.at(0)).is_ok(), "whole 2MB page mapped");
        assert!(s.translate(r.at(2 << 20)).is_err());
    }

    #[test]
    fn tenant_spaces_never_share_frames() {
        let cfg = SpaceConfig::default();
        let mut spaces: Vec<AddressSpace> = (0..3u16)
            .map(|asid| AddressSpace::with_asid(cfg, asid))
            .collect();
        let regions: Vec<Region> = spaces
            .iter_mut()
            .map(|s| {
                s.map_region("r", 64 * PAGE_BYTES, PageSize::Base4K)
                    .unwrap()
            })
            .collect();
        let mut frames = std::collections::HashSet::new();
        for (s, r) in spaces.iter().zip(&regions) {
            let window = s.asid() as u64 * cfg.phys_frames..(s.asid() as u64 + 1) * cfg.phys_frames;
            for p in 0..r.num_pages() {
                let (pa, _) = s.translate(r.at(p * PAGE_BYTES)).unwrap();
                assert!(
                    window.contains(&pa.ppn().raw()),
                    "asid {} frame {} escaped its window",
                    s.asid(),
                    pa.ppn().raw()
                );
                assert!(frames.insert(pa.ppn().raw()), "cross-tenant frame alias");
            }
            // Page-table node frames live in the window too.
            for lvl in &s.walk(r.at(0).vpn()).levels {
                let node_frame = lvl.pte_paddr.raw() >> 12;
                assert!(
                    window.contains(&node_frame),
                    "asid {} page-table node escaped its window",
                    s.asid()
                );
            }
        }
    }

    #[test]
    fn asid_zero_space_matches_legacy_layout() {
        let mut legacy = AddressSpace::new(SpaceConfig::default());
        let mut tenant0 = AddressSpace::with_asid(SpaceConfig::default(), 0);
        let a = legacy
            .map_region("r", 32 * PAGE_BYTES, PageSize::Base4K)
            .unwrap();
        let b = tenant0
            .map_region("r", 32 * PAGE_BYTES, PageSize::Base4K)
            .unwrap();
        assert_eq!(a, b);
        for p in 0..a.num_pages() {
            assert_eq!(
                legacy.translate(a.at(p * PAGE_BYTES)).unwrap().0.raw(),
                tenant0.translate(b.at(p * PAGE_BYTES)).unwrap().0.raw(),
                "asid-0 frame sequence must be byte-identical to legacy"
            );
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut s = AddressSpace::new(SpaceConfig {
            phys_frames: 1 << 9,
            policy: FramePolicy::Sequential,
            vbase: 0x4000_0000,
        });
        let err = s.map_region("huge", 1 << 24, PageSize::Base4K).unwrap_err();
        assert_eq!(err, VmError::OutOfMemory);
    }
}
