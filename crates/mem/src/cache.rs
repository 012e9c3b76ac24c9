//! Set-associative cache state with LRU replacement and per-line metadata.
//!
//! Used for L1 data caches (32 KB, 128 B lines — Section 5.2) and the
//! shared L2 slices. The cache is a *state* model: hit/miss/victim are
//! decided here; request timing is computed by the surrounding latency
//! model. Each line carries a small metadata word — the shader core stores
//! the allocating warp id there, which CCWS reads when an eviction feeds a
//! victim tag array (Section 7.1: "the cache holds tags and data, but also
//! an identifier for the warp that allocated the cache line").

use gmmu_sim::stats::Counter;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's L1D: 32 KB, 128-byte lines, 4-way → 64 sets.
    pub fn l1_data() -> Self {
        Self { sets: 64, ways: 4 }
    }

    /// One L2 slice: 128 KB, 128-byte lines, 8-way → 128 sets.
    pub fn l2_slice() -> Self {
        Self { sets: 128, ways: 8 }
    }

    /// Total lines.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

impl gmmu_sim::codec::Codec for CacheConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.usize(self.sets);
        w.usize(self.ways);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.sets = r.usize()?;
        self.ways = r.usize()?;
        Ok(())
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line index (address >> line shift) of the evicted line.
    pub line: u64,
    /// Metadata stored with the line (allocating warp id).
    pub meta: u32,
}

/// Outcome of [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a
    /// victim.
    Miss {
        /// The line that was displaced, if the set was full.
        victim: Option<Victim>,
    },
}

impl CacheAccess {
    /// True for [`CacheAccess::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheAccess::Hit)
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    meta: u32,
    last_use: u64,
    valid: bool,
}

const INVALID: Way = Way {
    tag: 0,
    meta: 0,
    last_use: 0,
    valid: false,
};

/// A set-associative LRU cache over line indices.
///
/// # Examples
///
/// ```
/// use gmmu_mem::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2 });
/// assert!(!c.access(0x10, 0, 1).is_hit());
/// assert!(c.access(0x10, 0, 2).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    set_mask: u64,
    /// Accesses observed (hits + misses).
    pub accesses: Counter,
    /// Hits observed.
    pub hits: Counter,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "cache needs at least one way");
        Self {
            config,
            ways: vec![INVALID; config.lines()],
            set_mask: config.sets as u64 - 1,
            accesses: Counter::new(),
            hits: Counter::new(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses.get() - self.hits.get()
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses.get() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses.get() as f64
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// Accesses `line`, allocating on miss (LRU victim), tagging any fill
    /// with `meta`, and using `stamp` (any monotone value, e.g. the cycle)
    /// for recency.
    pub fn access(&mut self, line: u64, meta: u32, stamp: u64) -> CacheAccess {
        self.accesses.inc();
        let range = self.set_range(line);
        let ways = &mut self.ways[range];
        // Hit?
        for w in ways.iter_mut() {
            if w.valid && w.tag == line {
                w.last_use = stamp;
                self.hits.inc();
                return CacheAccess::Hit;
            }
        }
        // Miss: fill into invalid or LRU way.
        let mut victim_idx = 0;
        let mut oldest = u64::MAX;
        for (i, w) in ways.iter().enumerate() {
            if !w.valid {
                victim_idx = i;
                break;
            }
            if w.last_use < oldest {
                oldest = w.last_use;
                victim_idx = i;
            }
        }
        let victim = ways[victim_idx].valid.then_some(Victim {
            line: ways[victim_idx].tag,
            meta: ways[victim_idx].meta,
        });
        ways[victim_idx] = Way {
            tag: line,
            meta,
            last_use: stamp,
            valid: true,
        };
        CacheAccess::Miss { victim }
    }

    /// Checks presence without updating recency or statistics.
    pub fn probe(&self, line: u64) -> bool {
        let range = self.set_range(line);
        self.ways[range].iter().any(|w| w.valid && w.tag == line)
    }

    /// The metadata word of a resident line (the shader core's L1 stores
    /// the owning warp), without updating recency or statistics.
    pub fn meta(&self, line: u64) -> Option<u32> {
        let range = self.set_range(line);
        self.ways[range]
            .iter()
            .find(|w| w.valid && w.tag == line)
            .map(|w| w.meta)
    }

    /// Invalidates one line; returns `true` if it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line {
                w.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (e.g. a TLB-shootdown-driven flush of
    /// page-walk lines is modelled as a full flush in tests).
    pub fn flush(&mut self) {
        self.ways.fill(INVALID);
    }

    /// Registers this cache's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.accesses"), self.accesses.get());
        reg.counter(format!("{prefix}.hits"), self.hits.get());
        reg.gauge(
            format!("{prefix}.hit_rate"),
            self.hits.rate(self.accesses.get()),
        );
    }

    /// Number of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line indices).
        c.access(0, 10, 1);
        c.access(2, 11, 2);
        c.access(0, 10, 3); // touch 0 again → 2 is LRU
        let res = c.access(4, 12, 4);
        match res {
            CacheAccess::Miss { victim: Some(v) } => {
                assert_eq!(v.line, 2);
                assert_eq!(v.meta, 11);
            }
            other => panic!("expected eviction of line 2, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(2));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(0, 0, 1);
        c.access(1, 0, 2); // odd → set 1
        c.access(2, 0, 3);
        c.access(4, 0, 4); // evicts within set 0 only
        assert!(c.probe(1));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        c.access(0, 0, 1);
        c.access(0, 0, 2);
        c.access(2, 0, 3);
        assert_eq!(c.accesses.get(), 3);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = tiny();
        c.access(0, 0, 1);
        let before = c.accesses.get();
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert_eq!(c.accesses.get(), before);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.access(0, 0, 1);
        c.access(1, 0, 2);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
        assert_eq!(c.occupancy(), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn cold_miss_has_no_victim() {
        let mut c = tiny();
        match c.access(0, 0, 1) {
            CacheAccess::Miss { victim: None } => {}
            other => panic!("expected cold miss, got {other:?}"),
        }
    }

    #[test]
    fn paper_geometries() {
        let l1 = CacheConfig::l1_data();
        assert_eq!(l1.lines() as u64 * crate::LINE_BYTES, 32 * 1024);
        let l2 = CacheConfig::l2_slice();
        assert_eq!(l2.lines() as u64 * crate::LINE_BYTES, 128 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1 });
    }
}
