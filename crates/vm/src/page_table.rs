//! A real x86-64 four-level radix page table.
//!
//! Every table node occupies one simulated physical frame, so a walk
//! yields the *exact physical addresses* of the PML4/PDP/PD/PT entry
//! loads. That is the raw material of the paper's page-table-walk
//! scheduler (Figures 8–9): consecutive walks share node frames (dedup)
//! and neighbouring PTEs share 128-byte cache lines (16 eight-byte PTEs
//! per line), and the walker hardware exploits both.

use crate::addr::{PAddr, PageSize, Ppn, Vpn, FRAMES_PER_LARGE};
use crate::frame::FrameAlloc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per page-table entry (x86-64).
pub const PTE_BYTES: u64 = 8;
/// Entries per page-table node (9 index bits).
pub const ENTRIES_PER_NODE: usize = 512;

/// One entry in a page-table node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Entry {
    /// Not present.
    #[default]
    None,
    /// Points at a lower-level table node.
    Table(u32),
    /// Terminal mapping. At level 1 this is a 4 KiB page; at level 2,
    /// a 2 MiB page (the PS bit set, in hardware terms).
    Page(Ppn),
}

/// One level of a page-table walk: which level was accessed and the
/// physical address of the entry that was loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkLevel {
    /// Radix level: 4 = PML4, 3 = PDP, 2 = PD, 1 = PT.
    pub level: u32,
    /// Physical address of the 8-byte entry loaded at this level.
    pub pte_paddr: PAddr,
}

const EMPTY_LEVEL: WalkLevel = WalkLevel {
    level: 0,
    pte_paddr: PAddr::new(0),
};

/// The PTE loads of one walk, stored inline. An x86-64 walk touches at
/// most four levels, so a fixed array avoids a heap allocation per walk
/// — the walker performs one of these per in-flight translation per
/// cycle. Dereferences to a slice of the live prefix, so indexing,
/// `iter()`, `len()` and friends work as they did when this was a
/// `Vec<WalkLevel>`.
#[derive(Debug, Clone, Copy)]
pub struct WalkLevels {
    buf: [WalkLevel; 4],
    len: u8,
}

impl WalkLevels {
    /// An empty level list.
    pub const fn new() -> Self {
        Self {
            buf: [EMPTY_LEVEL; 4],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, level: WalkLevel) {
        self.buf[self.len as usize] = level;
        self.len += 1;
    }

    /// The live prefix as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[WalkLevel] {
        &self.buf[..self.len as usize]
    }
}

impl Default for WalkLevels {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for WalkLevels {
    type Target = [WalkLevel];
    #[inline]
    fn deref(&self) -> &[WalkLevel] {
        self.as_slice()
    }
}

impl PartialEq for WalkLevels {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WalkLevels {}

impl<'a> IntoIterator for &'a WalkLevels {
    type Item = &'a WalkLevel;
    type IntoIter = std::slice::Iter<'a, WalkLevel>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The result of walking the table for one virtual page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// The page being translated.
    pub vpn: Vpn,
    /// The PTE loads performed, in order (PML4 first). A walk that hits
    /// a non-present entry stops early but still performed the loads up
    /// to and including the missing entry.
    pub levels: WalkLevels,
    /// The translation, if the page is mapped.
    pub result: Option<(Ppn, PageSize)>,
}

impl Walk {
    /// Number of memory references this walk performs.
    pub fn num_refs(&self) -> usize {
        self.levels.len()
    }
}

/// Errors returned by [`PageTable::map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is already mapped.
    AlreadyMapped,
    /// A 2 MiB mapping was requested at a non-2 MiB-aligned VPN.
    Misaligned,
    /// Physical memory was exhausted while allocating a table node.
    OutOfFrames,
    /// A smaller mapping already exists inside the requested large page
    /// (or a large mapping covers the requested base page).
    Overlap,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::AlreadyMapped => write!(f, "virtual page already mapped"),
            MapError::Misaligned => write!(f, "large page requires 2MB-aligned vpn"),
            MapError::OutOfFrames => write!(f, "out of physical frames"),
            MapError::Overlap => write!(f, "mapping overlaps an existing mapping"),
        }
    }
}

impl std::error::Error for MapError {}

/// `last_leaf` value meaning "no cached leaf". Valid encodings keep the
/// tag strictly below [`LEAF_TAG_LIMIT`]` - 1`, so they can never
/// collide with this sentinel.
const NO_LEAF: u64 = u64::MAX;
/// Leaf-cache node ids must fit in 21 bits (2 M page-table nodes — far
/// beyond any simulated table; larger tables simply skip the cache).
const LEAF_NODE_BITS: u32 = 21;
const LEAF_NODE_LIMIT: u32 = 1 << LEAF_NODE_BITS;
/// Leaf-cache tags (`vpn >> 9`, at most 43 bits for a 52-bit VPN) must
/// stay below this to encode alongside the node id.
const LEAF_TAG_LIMIT: u64 = (1 << (64 - LEAF_NODE_BITS)) - 1;

/// A four-level x86-64 page table rooted at a CR3 frame, stored as a
/// flat arena of nodes.
///
/// # Examples
///
/// ```
/// use gmmu_vm::page_table::PageTable;
/// use gmmu_vm::frame::{FrameAlloc, FramePolicy};
/// use gmmu_vm::addr::{PageSize, Ppn, Vpn};
///
/// let mut frames = FrameAlloc::new(1 << 16, FramePolicy::Sequential);
/// let mut pt = PageTable::new(&mut frames);
/// let data = frames.alloc().unwrap();
/// pt.map(Vpn::new(0x1234), data, PageSize::Base4K, &mut frames)?;
/// let walk = pt.walk(Vpn::new(0x1234));
/// assert_eq!(walk.num_refs(), 4);
/// assert_eq!(walk.result, Some((data, PageSize::Base4K)));
/// # Ok::<(), gmmu_vm::page_table::MapError>(())
/// ```
#[derive(Debug)]
pub struct PageTable {
    /// Physical frame of each node; index is the node id.
    node_frames: Vec<Ppn>,
    /// All node entries in one contiguous arena slab: node `i` owns
    /// `slab[i * ENTRIES_PER_NODE .. (i + 1) * ENTRIES_PER_NODE]`.
    /// Flattening the former per-node `Vec<Entry>` removes a pointer
    /// chase (and an allocation) per level per walk.
    slab: Vec<Entry>,
    mapped_pages: u64,
    /// Last level-1 (PT) node a lookup descended into, packed as
    /// `(vpn >> 9) << LEAF_NODE_BITS | node`. Table nodes are never
    /// reclaimed or re-parented, so a prefix→node association stays
    /// valid for the table's lifetime. This makes the replay/rebuild path
    /// (millions of sequential `translate` calls over warm regions) a
    /// one-load lookup. Atomic (relaxed) rather than `Cell` so shared
    /// references stay `Sync` for the parallel sweep engine; a racing
    /// store merely replaces one permanently-valid pair with another.
    last_leaf: AtomicU64,
}

impl Clone for PageTable {
    fn clone(&self) -> Self {
        Self {
            node_frames: self.node_frames.clone(),
            slab: self.slab.clone(),
            mapped_pages: self.mapped_pages,
            last_leaf: AtomicU64::new(self.last_leaf.load(Ordering::Relaxed)),
        }
    }
}

impl PageTable {
    /// Creates an empty table, allocating the root (CR3) frame.
    ///
    /// # Panics
    ///
    /// Panics if the allocator cannot provide the root frame; use
    /// [`PageTable::try_new`] to handle exhaustion as a reportable
    /// outcome instead.
    pub fn new(frames: &mut FrameAlloc) -> Self {
        Self::try_new(frames).expect("no frame for page-table root")
    }

    /// Fallible [`PageTable::new`]: returns [`MapError::OutOfFrames`]
    /// when the allocator cannot provide the root frame.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfFrames`] on frame exhaustion.
    pub fn try_new(frames: &mut FrameAlloc) -> Result<Self, MapError> {
        let root = frames.alloc().ok_or(MapError::OutOfFrames)?;
        Ok(Self {
            node_frames: vec![root],
            slab: vec![Entry::None; ENTRIES_PER_NODE],
            mapped_pages: 0,
            last_leaf: AtomicU64::new(NO_LEAF),
        })
    }

    /// Number of table nodes allocated (all levels).
    pub fn node_count(&self) -> usize {
        self.node_frames.len()
    }

    /// Number of terminal mappings installed (any page size).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    #[inline]
    fn entry(&self, node: u32, index: usize) -> Entry {
        self.slab[node as usize * ENTRIES_PER_NODE + index]
    }

    #[inline]
    fn set_entry(&mut self, node: u32, index: usize, e: Entry) {
        self.slab[node as usize * ENTRIES_PER_NODE + index] = e;
    }

    /// Appends an empty node to the arena, returning its id.
    fn push_node(&mut self, frame: Ppn) -> u32 {
        let id = self.node_frames.len() as u32;
        self.node_frames.push(frame);
        self.slab
            .resize(self.slab.len() + ENTRIES_PER_NODE, Entry::None);
        id
    }

    fn pte_paddr(&self, node: u32, index: usize) -> PAddr {
        self.node_frames[node as usize]
            .base()
            .offset(index as u64 * PTE_BYTES)
    }

    /// Installs a mapping from `vpn` to `ppn`.
    ///
    /// For [`PageSize::Large2M`], `vpn` and `ppn` must be 2 MiB aligned
    /// and the entry is installed at the PD level.
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        size: PageSize,
        frames: &mut FrameAlloc,
    ) -> Result<(), MapError> {
        let terminal_level = match size {
            PageSize::Base4K => 1,
            PageSize::Large2M => {
                if !vpn.raw().is_multiple_of(FRAMES_PER_LARGE)
                    || !ppn.raw().is_multiple_of(FRAMES_PER_LARGE)
                {
                    return Err(MapError::Misaligned);
                }
                2
            }
        };
        let mut node = 0u32;
        for level in (terminal_level + 1..=4).rev() {
            let idx = vpn.index(level);
            node = match self.entry(node, idx) {
                Entry::Table(child) => child,
                Entry::None => {
                    let frame = frames.alloc().ok_or(MapError::OutOfFrames)?;
                    let child = self.push_node(frame);
                    self.set_entry(node, idx, Entry::Table(child));
                    child
                }
                Entry::Page(_) => return Err(MapError::Overlap),
            };
        }
        let idx = vpn.index(terminal_level);
        match self.entry(node, idx) {
            Entry::None => {
                self.set_entry(node, idx, Entry::Page(ppn));
                self.mapped_pages += 1;
                Ok(())
            }
            Entry::Page(_) => Err(MapError::AlreadyMapped),
            Entry::Table(_) => Err(MapError::Overlap),
        }
    }

    /// Looks up a translation without modelling the walk.
    ///
    /// For 2 MiB mappings the returned [`Ppn`] is the *4 KiB frame within
    /// the large page* that contains `vpn`, so callers can treat both page
    /// sizes uniformly at 4 KiB granularity.
    pub fn translate(&self, vpn: Vpn) -> Option<(Ppn, PageSize)> {
        let result = self.translate_impl(vpn);
        debug_assert_eq!(
            result,
            self.walk(vpn).result,
            "translate fast path disagrees with walk for vpn {:#x}",
            vpn.raw()
        );
        result
    }

    /// The non-allocating lookup itself: a one-load fast path through
    /// the last-leaf cache, falling back to a full arena traversal.
    #[inline]
    fn translate_impl(&self, vpn: Vpn) -> Option<(Ppn, PageSize)> {
        let tag = vpn.raw() >> 9;
        let cached = self.last_leaf.load(Ordering::Relaxed);
        if cached != NO_LEAF && cached >> LEAF_NODE_BITS == tag {
            let cached_node = (cached & (LEAF_NODE_LIMIT as u64 - 1)) as u32;
            // The cached PT node covers this VPN's 2 MiB window, and
            // every interior entry above it was `Table`, so the level-1
            // entry alone decides the translation.
            return match self.entry(cached_node, vpn.index(1)) {
                Entry::Page(base) => Some((base, PageSize::Base4K)),
                Entry::None => None,
                Entry::Table(_) => unreachable!("level-1 entries are always terminal or absent"),
            };
        }
        let mut node = 0u32;
        for level in (1..=4).rev() {
            let idx = vpn.index(level);
            if level == 1 && node < LEAF_NODE_LIMIT && tag < LEAF_TAG_LIMIT {
                self.last_leaf
                    .store(tag << LEAF_NODE_BITS | node as u64, Ordering::Relaxed);
            }
            match self.entry(node, idx) {
                Entry::None => return None,
                Entry::Table(child) => node = child,
                Entry::Page(base) => {
                    return match level {
                        2 => Some((
                            Ppn::new(base.raw() + (vpn.raw() & (FRAMES_PER_LARGE - 1))),
                            PageSize::Large2M,
                        )),
                        1 => Some((base, PageSize::Base4K)),
                        _ => unreachable!("terminal entries exist only at levels 1 and 2"),
                    };
                }
            }
        }
        unreachable!("level-1 entries are always terminal or absent")
    }

    /// Performs a full walk, recording each PTE load's physical address.
    pub fn walk(&self, vpn: Vpn) -> Walk {
        let mut levels = WalkLevels::new();
        let mut node = 0u32;
        for level in (1..=4).rev() {
            let idx = vpn.index(level);
            levels.push(WalkLevel {
                level,
                pte_paddr: self.pte_paddr(node, idx),
            });
            match self.entry(node, idx) {
                Entry::None => {
                    return Walk {
                        vpn,
                        levels,
                        result: None,
                    }
                }
                Entry::Table(child) => node = child,
                Entry::Page(base) => {
                    let result = match level {
                        2 => Some((
                            Ppn::new(base.raw() + (vpn.raw() & (FRAMES_PER_LARGE - 1))),
                            PageSize::Large2M,
                        )),
                        1 => Some((base, PageSize::Base4K)),
                        _ => unreachable!(),
                    };
                    return Walk {
                        vpn,
                        levels,
                        result,
                    };
                }
            }
        }
        unreachable!("level-1 entries are always terminal or absent")
    }

    /// Removes a mapping; returns `true` if one existed. Table nodes are
    /// not reclaimed (matching typical OS behaviour under churn), which
    /// is also what keeps the last-leaf cache valid across unmaps.
    pub fn unmap(&mut self, vpn: Vpn) -> bool {
        let mut node = 0u32;
        for level in (1..=4).rev() {
            let idx = vpn.index(level);
            match self.entry(node, idx) {
                Entry::None => return false,
                Entry::Table(child) => node = child,
                Entry::Page(_) if level <= 2 => {
                    self.set_entry(node, idx, Entry::None);
                    self.mapped_pages -= 1;
                    return true;
                }
                Entry::Page(_) => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FramePolicy;

    fn setup() -> (PageTable, FrameAlloc) {
        let mut frames = FrameAlloc::new(1 << 18, FramePolicy::Sequential);
        let pt = PageTable::new(&mut frames);
        (pt, frames)
    }

    #[test]
    fn walk_of_unmapped_page_stops_at_missing_level() {
        let (pt, _) = setup();
        let walk = pt.walk(Vpn::new(0x42));
        assert_eq!(walk.num_refs(), 1); // PML4 entry missing
        assert_eq!(walk.result, None);
    }

    #[test]
    fn map_then_translate_roundtrip() {
        let (mut pt, mut frames) = setup();
        let data = frames.alloc().unwrap();
        pt.map(Vpn::new(0xabc), data, PageSize::Base4K, &mut frames)
            .unwrap();
        assert_eq!(
            pt.translate(Vpn::new(0xabc)),
            Some((data, PageSize::Base4K))
        );
        assert_eq!(pt.translate(Vpn::new(0xabd)), None);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn double_map_rejected() {
        let (mut pt, mut frames) = setup();
        let d1 = frames.alloc().unwrap();
        let d2 = frames.alloc().unwrap();
        pt.map(Vpn::new(5), d1, PageSize::Base4K, &mut frames)
            .unwrap();
        assert_eq!(
            pt.map(Vpn::new(5), d2, PageSize::Base4K, &mut frames),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn walk_visits_four_levels_for_base_pages() {
        let (mut pt, mut frames) = setup();
        let data = frames.alloc().unwrap();
        let vpn = Vpn::new((0xb9 << 27) | (0x0c << 18) | (0xac << 9) | 0x03);
        pt.map(vpn, data, PageSize::Base4K, &mut frames).unwrap();
        let walk = pt.walk(vpn);
        assert_eq!(walk.num_refs(), 4);
        let levels: Vec<u32> = walk.levels.iter().map(|l| l.level).collect();
        assert_eq!(levels, vec![4, 3, 2, 1]);
        assert_eq!(walk.result, Some((data, PageSize::Base4K)));
    }

    #[test]
    fn figure8_walks_share_upper_level_entries() {
        // The paper's Figure 8: three pages sharing PML4 and PDP entries;
        // the first two also share the PD entry.
        let (mut pt, mut frames) = setup();
        let mk =
            |l4: u64, l3: u64, l2: u64, l1: u64| Vpn::new((l4 << 27) | (l3 << 18) | (l2 << 9) | l1);
        let pages = [
            mk(0xb9, 0x0c, 0xac, 0x03),
            mk(0xb9, 0x0c, 0xac, 0x04),
            mk(0xb9, 0x0c, 0xad, 0x05),
        ];
        for p in pages {
            let f = frames.alloc().unwrap();
            pt.map(p, f, PageSize::Base4K, &mut frames).unwrap();
        }
        let walks: Vec<Walk> = pages.iter().map(|&p| pt.walk(p)).collect();
        // PML4 and PDP loads identical across all three walks.
        for lvl in 0..2 {
            assert_eq!(walks[0].levels[lvl], walks[1].levels[lvl]);
            assert_eq!(walks[1].levels[lvl], walks[2].levels[lvl]);
        }
        // First two walks share the PD *entry address region* but the PD
        // loads differ only in index (same node frame).
        let pd0 = walks[0].levels[2].pte_paddr;
        let pd2 = walks[2].levels[2].pte_paddr;
        assert_eq!(pd0.raw() >> 12, pd2.raw() >> 12, "same PD node frame");
        assert_ne!(pd0, pd2);
        // PT loads of walks 0 and 1 land on the same 128-byte line
        // (indices 0x03 and 0x04 → bytes 24 and 32).
        let l1_0 = walks[0].levels[3].pte_paddr;
        let l1_1 = walks[1].levels[3].pte_paddr;
        assert_eq!(l1_0.line(7), l1_1.line(7));
    }

    #[test]
    fn large_page_maps_at_pd_and_walks_three_levels() {
        let (mut pt, mut frames) = setup();
        let big = frames.alloc_large().unwrap();
        let vpn = Vpn::new(512 * 7);
        pt.map(vpn, big, PageSize::Large2M, &mut frames).unwrap();
        // Any base page inside the large page translates.
        let inner = Vpn::new(512 * 7 + 13);
        let (ppn, size) = pt.translate(inner).unwrap();
        assert_eq!(size, PageSize::Large2M);
        assert_eq!(ppn.raw(), big.raw() + 13);
        assert_eq!(pt.walk(inner).num_refs(), 3);
    }

    #[test]
    fn large_page_alignment_enforced() {
        let (mut pt, mut frames) = setup();
        let big = frames.alloc_large().unwrap();
        assert_eq!(
            pt.map(Vpn::new(3), big, PageSize::Large2M, &mut frames),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn base_page_inside_large_page_is_overlap() {
        let (mut pt, mut frames) = setup();
        let big = frames.alloc_large().unwrap();
        pt.map(Vpn::new(0), big, PageSize::Large2M, &mut frames)
            .unwrap();
        let f = frames.alloc().unwrap();
        assert_eq!(
            pt.map(Vpn::new(5), f, PageSize::Base4K, &mut frames),
            Err(MapError::Overlap)
        );
    }

    #[test]
    fn unmap_removes_translation() {
        let (mut pt, mut frames) = setup();
        let f = frames.alloc().unwrap();
        pt.map(Vpn::new(77), f, PageSize::Base4K, &mut frames)
            .unwrap();
        assert!(pt.unmap(Vpn::new(77)));
        assert!(!pt.unmap(Vpn::new(77)));
        assert_eq!(pt.translate(Vpn::new(77)), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn leaf_cache_tracks_unmap_and_remap() {
        let (mut pt, mut frames) = setup();
        let f1 = frames.alloc().unwrap();
        pt.map(Vpn::new(0x40), f1, PageSize::Base4K, &mut frames)
            .unwrap();
        // Prime the cache, then change the PT node underneath it.
        assert_eq!(pt.translate(Vpn::new(0x40)), Some((f1, PageSize::Base4K)));
        assert!(pt.unmap(Vpn::new(0x40)));
        assert_eq!(pt.translate(Vpn::new(0x40)), None, "stale cache hit");
        let f2 = frames.alloc().unwrap();
        pt.map(Vpn::new(0x41), f2, PageSize::Base4K, &mut frames)
            .unwrap();
        assert_eq!(pt.translate(Vpn::new(0x41)), Some((f2, PageSize::Base4K)));
    }

    #[test]
    fn leaf_cache_does_not_shadow_large_pages() {
        let (mut pt, mut frames) = setup();
        let f = frames.alloc().unwrap();
        // Base page in one 2 MiB window primes the cache...
        pt.map(Vpn::new(0), f, PageSize::Base4K, &mut frames)
            .unwrap();
        assert!(pt.translate(Vpn::new(0)).is_some());
        // ...then a large page in the *next* window must miss it.
        let big = frames.alloc_large().unwrap();
        pt.map(Vpn::new(512), big, PageSize::Large2M, &mut frames)
            .unwrap();
        let (ppn, size) = pt.translate(Vpn::new(512 + 9)).unwrap();
        assert_eq!(size, PageSize::Large2M);
        assert_eq!(ppn.raw(), big.raw() + 9);
    }

    #[test]
    // `get(0)` is the point under test: the inline `WalkLevels` must keep
    // the slice API callers used when `levels` was a `Vec`.
    #[allow(clippy::get_first)]
    fn walk_levels_deref_like_a_vec() {
        let (mut pt, mut frames) = setup();
        let f = frames.alloc().unwrap();
        pt.map(Vpn::new(0x77), f, PageSize::Base4K, &mut frames)
            .unwrap();
        let w = pt.walk(Vpn::new(0x77));
        assert_eq!(w.levels.len(), 4);
        assert_eq!(w.levels.iter().count(), 4);
        assert_eq!(w.levels[0].level, 4);
        assert_eq!(w.levels.last().unwrap().level, 1);
        assert_eq!(w.levels.first(), w.levels.get(0));
        let again = pt.walk(Vpn::new(0x77));
        assert_eq!(w, again);
    }

    #[test]
    fn root_frame_exhaustion_is_reportable() {
        let mut frames = FrameAlloc::new(1 << 9, FramePolicy::Sequential);
        while frames.alloc().is_some() {}
        assert!(matches!(
            PageTable::try_new(&mut frames),
            Err(MapError::OutOfFrames)
        ));
    }

    #[test]
    fn sixteen_ptes_share_a_cache_line() {
        // 128-byte lines hold 16 8-byte PTEs — the property the PTW
        // scheduler's same-line grouping relies on.
        let (mut pt, mut frames) = setup();
        for i in 0..16u64 {
            let f = frames.alloc().unwrap();
            pt.map(Vpn::new(i), f, PageSize::Base4K, &mut frames)
                .unwrap();
        }
        let lines: std::collections::HashSet<u64> = (0..16)
            .map(|i| pt.walk(Vpn::new(i)).levels[3].pte_paddr.line(7))
            .collect();
        assert_eq!(lines.len(), 1);
        let line17 = pt.walk(Vpn::new(0)).levels[3].pte_paddr.line(7);
        let f = frames.alloc().unwrap();
        pt.map(Vpn::new(16), f, PageSize::Base4K, &mut frames)
            .unwrap();
        assert_ne!(pt.walk(Vpn::new(16)).levels[3].pte_paddr.line(7), line17);
    }
}
