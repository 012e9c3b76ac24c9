//! Victim tag arrays.
//!
//! CCWS keeps one small set-associative tag array per warp, recording the
//! tags of lines that warp recently had evicted from the L1 (Section 7.1).
//! A probe hit on a later miss means the warp *lost locality* — its data
//! was evicted by intervening warps. TCWS replaces cache-line tags with
//! virtual-page tags: "since TCWS VTAs maintain tags for 4KB pages, fewer
//! of them are necessary... TLB-based VTAs require half the area overhead
//! of cache line-based CCWS" (Section 7.2).

use gmmu_sim::stats::Counter;

#[derive(Debug, Clone, Copy, Default)]
struct VtaEntry {
    tag: u64,
    last_use: u64,
    valid: bool,
}

/// One warp's victim tag array: a tiny set-associative LRU tag store.
///
/// # Examples
///
/// ```
/// use gmmu_core::vta::Vta;
/// let mut vta = Vta::new(16, 8); // CCWS geometry: 16-entry, 8-way
/// vta.insert(0xdead);
/// assert!(vta.probe(0xdead));
/// assert!(!vta.probe(0xbeef));
/// ```
#[derive(Debug, Clone)]
pub struct Vta {
    ways: usize,
    set_mask: u64,
    entries: Vec<VtaEntry>,
    clock: u64,
    /// Successful probes (lost-locality detections).
    pub hits: Counter,
    /// All probes.
    pub probes: Counter,
}

impl Vta {
    /// Creates an array with `entries` total tags at associativity
    /// `ways` (clamped to `entries`). Sets must come out a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or the geometry is inconsistent.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "VTA needs at least one entry");
        let ways = ways.min(entries);
        assert!(entries.is_multiple_of(ways), "ways must divide entries");
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "VTA sets must be a power of two");
        Self {
            ways,
            set_mask: sets as u64 - 1,
            entries: vec![VtaEntry::default(); entries],
            clock: 0,
            hits: Counter::new(),
            probes: Counter::new(),
        }
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn set_range(&self, tag: u64) -> std::ops::Range<usize> {
        let set = (tag & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Records an evicted tag (LRU replacement within the set).
    pub fn insert(&mut self, tag: u64) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(tag);
        let set = &mut self.entries[range];
        // Already present: refresh.
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.last_use = clock;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_use } else { 0 })
            .expect("set is non-empty");
        *victim = VtaEntry {
            tag,
            last_use: clock,
            valid: true,
        };
    }

    /// Probes for a tag, refreshing its recency on hit.
    pub fn probe(&mut self, tag: u64) -> bool {
        self.probes.inc();
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(tag);
        if let Some(e) = self.entries[range]
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
        {
            e.last_use = clock;
            self.hits.inc();
            return true;
        }
        false
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.entries.fill(VtaEntry::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_probe() {
        let mut v = Vta::new(16, 8);
        v.insert(5);
        assert!(v.probe(5));
        assert!(!v.probe(6));
        assert_eq!(v.hits.get(), 1);
        assert_eq!(v.probes.get(), 2);
    }

    #[test]
    fn lru_within_set() {
        // 2 entries, 2 ways → 1 set.
        let mut v = Vta::new(2, 2);
        v.insert(1);
        v.insert(2);
        v.probe(1); // refresh 1 → 2 becomes LRU
        v.insert(3);
        assert!(v.probe(1));
        assert!(!v.probe(2));
        assert!(v.probe(3));
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut v = Vta::new(2, 2);
        v.insert(1);
        v.insert(1);
        v.insert(2);
        assert!(v.probe(1) && v.probe(2));
    }

    #[test]
    fn fully_associative_when_ways_exceed_entries() {
        let v = Vta::new(4, 8);
        assert_eq!(v.capacity(), 4);
    }

    #[test]
    fn clear_empties() {
        let mut v = Vta::new(8, 8);
        v.insert(1);
        v.clear();
        assert!(!v.probe(1));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Vta::new(0, 1);
    }
}
