//! The memory unit's address generator and coalescer.
//!
//! Figure 5: "the memory unit's address generator calculates virtual
//! addresses, which are coalesced into unique cache line references. We
//! enhance this logic by also coalescing multiple intra-warp requests to
//! the same virtual page (and hence PTE). This reduces TLB access
//! traffic and port counts." The number of unique pages a warp requests
//! is its **page divergence** (Figure 3), the quantity that stresses the
//! TLB ports and the walker.

use gmmu_core::mmu::PageReq;
use gmmu_vm::{PageSize, VAddr, Vpn};

/// log2 of the L1 line size (128 bytes).
const LINE_SHIFT: u32 = gmmu_mem::LINE_SHIFT;

/// Lanes per warp: the most unique pages or lines one warp memory
/// instruction can coalesce to.
const WARP_LANES: usize = 32;

/// One coalesced line reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    /// Virtual line index (virtual address >> 7).
    pub vline: u64,
    /// Index into [`CoalesceBuf::pages`] of the page containing it.
    pub page_idx: u32,
    /// Home warp of the line's first referencing thread — the owner the
    /// L1 records when the line is filled. Under thread block compaction
    /// the lines of one page can have different home warps.
    pub warp: u16,
}

/// Reusable output of one warp memory instruction's coalescing.
#[derive(Debug, Clone, Default)]
pub struct CoalesceBuf {
    /// Unique cache lines.
    pub lines: Vec<LineRef>,
    /// Unique virtual pages (the warp's page divergence is
    /// `pages.len()`), each tagged with the home warp of its first
    /// referencing thread — the warp identity used for TLB history and
    /// the CPM, which track original warps rather than dynamic ones
    /// (Section 8.2).
    pub pages: Vec<PageReq>,
}

impl CoalesceBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Page divergence of the last coalesced instruction.
    pub fn page_divergence(&self) -> usize {
        self.pages.len()
    }

    /// Clears the buffer (done automatically by [`coalesce`]).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.pages.clear();
    }

    /// Keeps only the pages for which `keep` returns `true`, with their
    /// lines, in their original order, renumbering
    /// [`LineRef::page_idx`]. Pages are unique and each line lies on one
    /// page, so the result equals coalescing again only the lanes on
    /// the kept pages. The buffer must hold one warp instruction (at
    /// most 32 pages).
    ///
    /// # Examples
    ///
    /// ```
    /// use gmmu_simt::coalesce::{coalesce, CoalesceBuf};
    /// use gmmu_vm::VAddr;
    ///
    /// let mut buf = CoalesceBuf::new();
    /// let lanes = [0x1000u64, 0x2000, 0x2080].map(|a| (VAddr::new(a), 0u16));
    /// coalesce(lanes.into_iter(), &mut buf);
    /// let first = buf.pages[0].vpn;
    /// buf.retain_pages(|p| p.vpn != first);
    /// assert_eq!(buf.page_divergence(), 1);
    /// assert_eq!(buf.lines.len(), 2);
    /// assert!(buf.lines.iter().all(|l| l.page_idx == 0));
    /// ```
    pub fn retain_pages(&mut self, mut keep: impl FnMut(&PageReq) -> bool) {
        let mut remap = [u32::MAX; WARP_LANES];
        let mut kept = 0;
        for (i, to) in remap[..self.pages.len()].iter_mut().enumerate() {
            if keep(&self.pages[i]) {
                *to = kept as u32;
                self.pages[kept] = self.pages[i];
                kept += 1;
            }
        }
        if kept == self.pages.len() {
            return;
        }
        self.pages.truncate(kept);
        self.lines.retain_mut(|l| {
            l.page_idx = remap[l.page_idx as usize];
            l.page_idx != u32::MAX
        });
    }
}

/// Coalesces the active threads' addresses of one warp memory
/// instruction into unique lines and unique pages.
///
/// `accesses` yields `(address, home_warp)` for each active lane.
/// Linear-scan dedup: a warp has at most 32 lanes, so this is faster
/// than hashing. A lane on its predecessor's line adds nothing, and one
/// on its predecessor's page reuses that page's index, so the common
/// neighbouring-lane cases skip both scans.
///
/// # Examples
///
/// ```
/// use gmmu_simt::coalesce::{coalesce, CoalesceBuf};
/// use gmmu_vm::VAddr;
///
/// let mut buf = CoalesceBuf::new();
/// // Four threads touching two lines on one page.
/// let accesses = [0u64, 8, 128, 136].map(|o| (VAddr::new(0x10000 + o), 0u16));
/// coalesce(accesses.into_iter(), &mut buf);
/// assert_eq!(buf.lines.len(), 2);
/// assert_eq!(buf.page_divergence(), 1);
/// ```
pub fn coalesce(accesses: impl Iterator<Item = (VAddr, u16)>, out: &mut CoalesceBuf) {
    coalesce_granule(accesses, PageSize::Base4K, out)
}

/// Like [`coalesce`], but deduplicating pages at an explicit translation
/// granule (2 MiB for the paper's Section 9 large-page study). The
/// emitted [`PageReq::vpn`] is the granule's first 4 KiB page number, so
/// downstream page-table walks and TLB fills work unchanged.
pub fn coalesce_granule(
    accesses: impl Iterator<Item = (VAddr, u16)>,
    granule: PageSize,
    out: &mut CoalesceBuf,
) {
    let shift = granule.shift();
    out.clear();
    // The previous lane's `(line, page, page index)`: neighbouring lanes
    // mostly share a line or a page, which then needs no search.
    let mut prev: Option<(u64, Vpn, u32)> = None;
    for (va, home_warp) in accesses {
        let vline = va.line(LINE_SHIFT);
        if prev.is_some_and(|(line, ..)| line == vline) {
            continue;
        }
        let vpn = Vpn::new((va.raw() >> shift) << (shift - 12));
        let (page_idx, new_page) = match prev {
            Some((_, p, i)) if p == vpn => (i, false),
            _ => match out.pages.iter().position(|p| p.vpn == vpn) {
                Some(i) => (i as u32, false),
                None => {
                    out.pages.push(PageReq::new(vpn, home_warp));
                    ((out.pages.len() - 1) as u32, true)
                }
            },
        };
        // No line of a page seen for the first time is recorded yet.
        if new_page || !out.lines.iter().any(|l| l.vline == vline) {
            out.lines.push(LineRef {
                vline,
                page_idx,
                warp: home_warp,
            });
        }
        prev = Some((vline, vpn, page_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(addrs: &[u64]) -> CoalesceBuf {
        let mut buf = CoalesceBuf::new();
        coalesce(addrs.iter().map(|&a| (VAddr::new(a), 0)), &mut buf);
        buf
    }

    #[test]
    fn fully_coalesced_warp_is_one_line_one_page() {
        // 32 threads × 4 bytes, consecutive → one 128-byte line.
        let addrs: Vec<u64> = (0..32).map(|i| 0x40_0000 + i * 4).collect();
        let buf = run(&addrs);
        assert_eq!(buf.lines.len(), 1);
        assert_eq!(buf.page_divergence(), 1);
    }

    #[test]
    fn strided_access_spans_lines_but_one_page() {
        // 8-byte elements, stride 128 → every thread its own line.
        let addrs: Vec<u64> = (0..32).map(|i| 0x40_0000 + i * 128).collect();
        let buf = run(&addrs);
        assert_eq!(buf.lines.len(), 32);
        assert_eq!(buf.page_divergence(), 1); // 32 × 128 B = 4 KiB
    }

    #[test]
    fn pathological_warp_has_divergence_32() {
        // Each thread on its own page.
        let addrs: Vec<u64> = (0..32).map(|i| 0x40_0000 + i * 4096).collect();
        let buf = run(&addrs);
        assert_eq!(buf.page_divergence(), 32);
        assert_eq!(buf.lines.len(), 32);
    }

    #[test]
    fn duplicate_addresses_collapse() {
        let buf = run(&[0x1000, 0x1000, 0x1004, 0x1008]);
        assert_eq!(buf.lines.len(), 1);
        assert_eq!(buf.page_divergence(), 1);
    }

    #[test]
    fn lines_know_their_pages() {
        let buf = run(&[0x1000, 0x2000, 0x2080]);
        assert_eq!(buf.pages.len(), 2);
        assert_eq!(buf.lines.len(), 3);
        assert_eq!(buf.lines[0].page_idx, 0);
        assert_eq!(buf.lines[1].page_idx, 1);
        assert_eq!(buf.lines[2].page_idx, 1);
    }

    #[test]
    fn rep_warp_is_first_contributor() {
        let mut buf = CoalesceBuf::new();
        let accesses = [
            (VAddr::new(0x1000), 3u16),
            (VAddr::new(0x1008), 5),
            (VAddr::new(0x1080), 5),
            (VAddr::new(0x2000), 5),
        ];
        coalesce(accesses.into_iter(), &mut buf);
        assert_eq!(buf.pages[0].warp, 3);
        assert_eq!(buf.pages[1].warp, 5);
        // Lines record their own first contributor, so the two lines of
        // the first page belong to warps 3 and 5.
        let line_warps: Vec<u16> = buf.lines.iter().map(|l| l.warp).collect();
        assert_eq!(line_warps, [3, 5, 5]);
    }

    #[test]
    fn large_granule_merges_pages_within_two_megabytes() {
        use gmmu_vm::PageSize;
        let mut buf = CoalesceBuf::new();
        // Two addresses on different 4 KiB pages of one 2 MiB region,
        // plus one in the next region.
        let accesses = [
            (VAddr::new(0x4000_0000), 0u16),
            (VAddr::new(0x4000_0000 + 5 * 4096), 0),
            (VAddr::new(0x4000_0000 + (2 << 20)), 0),
        ];
        coalesce_granule(accesses.into_iter(), PageSize::Large2M, &mut buf);
        assert_eq!(buf.page_divergence(), 2);
        // The emitted vpn is the granule's first 4 KiB page.
        assert_eq!(buf.pages[0].vpn.raw() % 512, 0);
        assert_eq!(buf.pages[1].vpn.raw() - buf.pages[0].vpn.raw(), 512);
        // Lines are still tracked individually.
        assert_eq!(buf.lines.len(), 3);
        // With the base granule the same accesses diverge to 3 pages.
        coalesce(accesses.into_iter(), &mut buf);
        assert_eq!(buf.page_divergence(), 3);
    }

    #[test]
    fn granule_page_indices_stay_consistent() {
        use gmmu_vm::PageSize;
        let mut buf = CoalesceBuf::new();
        let accesses = (0..8u64).map(|i| (VAddr::new(0x4000_0000 + i * 300_000), 0u16));
        coalesce_granule(accesses, PageSize::Large2M, &mut buf);
        for line in &buf.lines {
            let page = &buf.pages[line.page_idx as usize];
            // The line's address lies inside its page's 2 MiB granule.
            let line_base = line.vline << 7;
            let granule_base = page.vpn.raw() << 12;
            assert!(line_base >= granule_base);
            assert!(line_base < granule_base + (2 << 20));
        }
    }

    /// The reference the neighbour shortcuts must match: pages and lines
    /// in first-seen order, each with its first lane's home warp.
    fn first_seen(lanes: &[(VAddr, u16)], granule: PageSize) -> CoalesceBuf {
        let shift = granule.shift();
        let mut out = CoalesceBuf::new();
        for &(va, warp) in lanes {
            let vpn = Vpn::new((va.raw() >> shift) << (shift - 12));
            if !out.pages.iter().any(|p| p.vpn == vpn) {
                out.pages.push(PageReq::new(vpn, warp));
            }
            let vline = va.line(LINE_SHIFT);
            if !out.lines.iter().any(|l| l.vline == vline) {
                let page_idx = out.pages.iter().position(|p| p.vpn == vpn).unwrap() as u32;
                out.lines.push(LineRef {
                    vline,
                    page_idx,
                    warp,
                });
            }
        }
        out
    }

    #[test]
    fn neighbouring_lanes_match_the_first_seen_reference() {
        let mut rng = gmmu_sim::rng::Xoshiro256::seed_from(0xc0a1);
        let mut buf = CoalesceBuf::new();
        for case in 0..2000 {
            let granule = if case % 2 == 0 {
                PageSize::Base4K
            } else {
                PageSize::Large2M
            };
            let page_bytes = 1u64 << granule.shift();
            // Runs of lanes on one line or one page, revisits of earlier
            // pages and lines, and fresh pages, as kernels generate.
            let mut lanes: Vec<(VAddr, u16)> = Vec::new();
            let mut va = 0x4000_0000u64;
            for _ in 0..rng.gen_range(1..33) {
                va = match rng.gen_range(0..5) {
                    0 => va + rng.gen_range(0..8),
                    1 => (va & !127) + 128,
                    2 => (va & !(page_bytes - 1)) + rng.gen_range(0..page_bytes),
                    3 => lanes.first().map_or(va, |l| l.0.raw()),
                    _ => 0x4000_0000 + rng.gen_range(0..6) * page_bytes + rng.gen_range(0..4096),
                };
                lanes.push((VAddr::new(va), rng.gen_range(0..4) as u16));
            }
            coalesce_granule(lanes.iter().copied(), granule, &mut buf);
            let want = first_seen(&lanes, granule);
            assert_eq!(buf.pages, want.pages, "case {case}");
            assert_eq!(buf.lines, want.lines, "case {case}");
        }
    }

    #[test]
    fn buffer_reuse_clears_previous_state() {
        let mut buf = CoalesceBuf::new();
        coalesce([(VAddr::new(0x1000), 0u16)].into_iter(), &mut buf);
        coalesce([(VAddr::new(0x9000), 0u16)].into_iter(), &mut buf);
        assert_eq!(buf.lines.len(), 1);
        assert_eq!(buf.pages[0].vpn, VAddr::new(0x9000).vpn());
    }
}
