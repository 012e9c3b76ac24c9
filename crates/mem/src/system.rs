//! The shared memory system: interconnect + sliced L2 + DRAM channels.
//!
//! Every shader core's L1 misses and every page-table walker reference is
//! issued into one [`MemorySystem`]. The L2 is sliced by physical line
//! address across the memory channels (Section 5.2: "8 memory channels
//! with 128KB of unified L2 cache space per channel"). Page-walk
//! references are tagged so their hit rates can be reported separately —
//! the paper's PTW scheduler is evaluated by how much it raises exactly
//! that hit rate (Section 6.3).

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Channel, DramConfig};
use gmmu_sim::stats::{Counter, Summary};
use gmmu_sim::Cycle;

/// What kind of request is entering the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand data load (an L1 miss).
    Load,
    /// A store (write-through traffic; consumes bandwidth, nobody waits).
    Store,
    /// A page-table-walker PTE reference.
    PageWalk,
}

/// Result of a shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// Cycle at which data is back at the requester.
    pub complete: Cycle,
    /// Whether the request hit in the L2.
    pub l2_hit: bool,
}

/// Timing and geometry of the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Memory channels (each carries one L2 slice).
    pub channels: usize,
    /// Geometry of each L2 slice.
    pub l2_slice: CacheConfig,
    /// One-way interconnect latency between a core cluster and a
    /// memory partition.
    pub icnt_latency: u64,
    /// L2 slice access latency.
    pub l2_latency: u64,
    /// Minimum cycles between successive accesses to one L2 slice.
    pub l2_service: u64,
    /// DRAM channel timing.
    pub dram: DramConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            channels: 8,
            l2_slice: CacheConfig::l2_slice(),
            icnt_latency: 16,
            l2_latency: 24,
            l2_service: 2,
            dram: DramConfig::default(),
        }
    }
}

impl gmmu_sim::codec::Codec for MemConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.usize(self.channels);
        self.l2_slice.save(w);
        w.u64(self.icnt_latency);
        w.u64(self.l2_latency);
        w.u64(self.l2_service);
        self.dram.save(w);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.channels = r.usize()?;
        self.l2_slice.load(r)?;
        self.icnt_latency = r.u64()?;
        self.l2_latency = r.u64()?;
        self.l2_service = r.u64()?;
        self.dram.load(r)
    }
}

impl MemConfig {
    /// Latency of an L1 miss that hits in an uncontended L2.
    pub fn min_l2_hit_latency(&self) -> u64 {
        2 * self.icnt_latency + self.l2_latency
    }

    /// Latency of an L1 miss served by uncontended DRAM.
    pub fn min_dram_latency(&self) -> u64 {
        self.min_l2_hit_latency() + self.dram.latency
    }
}

/// The shared L2 + DRAM system used by all cores and walkers.
///
/// # Examples
///
/// ```
/// use gmmu_mem::system::{AccessKind, MemConfig, MemorySystem};
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let cold = mem.access(0, 0x1000, AccessKind::Load);
/// let warm = mem.access(cold.complete, 0x1000, AccessKind::Load);
/// assert!(!cold.l2_hit);
/// assert!(warm.l2_hit);
/// assert!(warm.complete - cold.complete < cold.complete);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    slices: Vec<Cache>,
    slice_next_free: Vec<Cycle>,
    channels: Vec<Channel>,
    /// Demand loads entering the system.
    pub loads: Counter,
    /// Stores entering the system.
    pub stores: Counter,
    /// Page-walk references entering the system.
    pub walk_refs: Counter,
    /// Page-walk references that hit in L2.
    pub walk_l2_hits: Counter,
    /// Observed load round-trip latency.
    pub load_latency: Summary,
    /// Observed page-walk reference round-trip latency.
    pub walk_latency: Summary,
}

impl MemorySystem {
    /// Creates an idle memory system.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(config: MemConfig) -> Self {
        assert!(config.channels > 0, "need at least one memory channel");
        Self {
            config,
            slices: (0..config.channels)
                .map(|_| Cache::new(config.l2_slice))
                .collect(),
            slice_next_free: vec![0; config.channels],
            channels: (0..config.channels)
                .map(|_| Channel::new(config.dram))
                .collect(),
            loads: Counter::new(),
            stores: Counter::new(),
            walk_refs: Counter::new(),
            walk_l2_hits: Counter::new(),
            load_latency: Summary::new(),
            walk_latency: Summary::new(),
        }
    }

    /// Configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Issues one request at cycle `now` for physical line index `line`;
    /// returns when it completes and where it hit.
    ///
    /// Page-walk references are 8-byte PTE reads: they occupy a cache
    /// line's worth of state but negligible bandwidth, and memory
    /// controllers prioritize them, so they pay latencies without
    /// consuming the slice/channel bandwidth reservations that demand
    /// traffic queues behind.
    pub fn access(&mut self, now: Cycle, line: u64, kind: AccessKind) -> MemResult {
        let slice_idx = (line % self.config.channels as u64) as usize;
        let priority = kind == AccessKind::PageWalk;
        // Cross the interconnect, then queue for the L2 slice port.
        let at_l2 = if priority {
            now + self.config.icnt_latency
        } else {
            let t = (now + self.config.icnt_latency).max(self.slice_next_free[slice_idx]);
            self.slice_next_free[slice_idx] = t + self.config.l2_service;
            t
        };
        let l2_done = at_l2 + self.config.l2_latency;
        let l2_hit = self.slices[slice_idx].access(line, 0, at_l2).is_hit();
        let data_ready = if l2_hit {
            l2_done
        } else if priority {
            l2_done + self.config.dram.latency
        } else {
            self.channels[slice_idx].request(l2_done)
        };
        let complete = data_ready + self.config.icnt_latency;
        match kind {
            AccessKind::Load => {
                self.loads.inc();
                self.load_latency.record(complete - now);
            }
            AccessKind::Store => self.stores.inc(),
            AccessKind::PageWalk => {
                self.walk_refs.inc();
                if l2_hit {
                    self.walk_l2_hits.inc();
                }
                self.walk_latency.record(complete - now);
            }
        }
        MemResult { complete, l2_hit }
    }

    /// Aggregate L2 statistics across slices: (accesses, hits).
    pub fn l2_totals(&self) -> (u64, u64) {
        let acc = self.slices.iter().map(|s| s.accesses.get()).sum();
        let hits = self.slices.iter().map(|s| s.hits.get()).sum();
        (acc, hits)
    }

    /// Total DRAM requests across channels.
    pub fn dram_requests(&self) -> u64 {
        self.channels.iter().map(|c| c.requests.get()).sum()
    }

    /// Page-walk L2 hit rate in `[0, 1]`.
    pub fn walk_l2_hit_rate(&self) -> f64 {
        self.walk_l2_hits.rate(self.walk_refs.get())
    }

    /// Flushes all L2 slices (used by shootdown tests).
    pub fn flush_l2(&mut self) {
        for s in &mut self.slices {
            s.flush();
        }
    }

    /// Registers the shared memory system's instruments under `prefix`:
    /// aggregate request/latency counters, sliced-L2 totals, and one
    /// group per DRAM channel, all in deterministic order.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.loads"), self.loads.get());
        reg.counter(format!("{prefix}.stores"), self.stores.get());
        reg.counter(format!("{prefix}.walk_refs"), self.walk_refs.get());
        reg.counter(format!("{prefix}.walk_l2_hits"), self.walk_l2_hits.get());
        reg.gauge(
            format!("{prefix}.walk_l2_hit_rate"),
            self.walk_l2_hit_rate(),
        );
        reg.gauge(
            format!("{prefix}.load_latency.mean"),
            self.load_latency.mean(),
        );
        reg.gauge(
            format!("{prefix}.walk_latency.mean"),
            self.walk_latency.mean(),
        );
        let (l2_accesses, l2_hits) = self.l2_totals();
        reg.counter(format!("{prefix}.l2.accesses"), l2_accesses);
        reg.counter(format!("{prefix}.l2.hits"), l2_hits);
        for (i, ch) in self.channels.iter().enumerate() {
            ch.register_metrics(&format!("{prefix}.dram{i}"), reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::default())
    }

    #[test]
    fn l2_hit_is_much_cheaper_than_dram() {
        let mut m = mem();
        let cfg = *m.config();
        let cold = m.access(0, 42, AccessKind::Load);
        assert!(!cold.l2_hit);
        assert_eq!(cold.complete, cfg.min_dram_latency());
        let warm = m.access(10_000, 42, AccessKind::Load);
        assert!(warm.l2_hit);
        assert_eq!(warm.complete - 10_000, cfg.min_l2_hit_latency());
    }

    #[test]
    fn lines_spread_across_slices() {
        let mut m = mem();
        for line in 0..8u64 {
            m.access(0, line, AccessKind::Load);
        }
        // Each line went to its own slice → every slice saw one access.
        for s in &m.slices {
            assert_eq!(s.accesses.get(), 1);
        }
    }

    #[test]
    fn same_slice_contention_queues() {
        let mut m = mem();
        // Warm the line first so both requests hit L2.
        let warm = m.access(0, 8, AccessKind::Load);
        let t0 = warm.complete + 1000;
        let a = m.access(t0, 8, AccessKind::Load);
        let b = m.access(t0, 8, AccessKind::Load);
        assert!(a.l2_hit && b.l2_hit);
        assert_eq!(b.complete - a.complete, m.config().l2_service);
    }

    #[test]
    fn walk_stats_tracked_separately() {
        let mut m = mem();
        m.access(0, 100, AccessKind::PageWalk);
        m.access(1000, 100, AccessKind::PageWalk);
        assert_eq!(m.walk_refs.get(), 2);
        assert_eq!(m.walk_l2_hits.get(), 1);
        assert_eq!(m.walk_l2_hit_rate(), 0.5);
        assert_eq!(m.loads.get(), 0);
    }

    #[test]
    fn stores_consume_bandwidth_but_track_separately() {
        let mut m = mem();
        m.access(0, 7, AccessKind::Store);
        assert_eq!(m.stores.get(), 1);
        assert_eq!(m.loads.get(), 0);
        let (acc, _) = m.l2_totals();
        assert_eq!(acc, 1);
    }

    #[test]
    fn flush_l2_forces_refetch() {
        let mut m = mem();
        m.access(0, 5, AccessKind::Load);
        m.flush_l2();
        let again = m.access(10_000, 5, AccessKind::Load);
        assert!(!again.l2_hit);
    }

    #[test]
    fn page_walk_requests_bypass_bandwidth_queues() {
        let mut m = mem();
        // Two demand loads to one slice queue behind each other...
        let a = m.access(0, 16, AccessKind::Load);
        let b = m.access(0, 24, AccessKind::Load);
        assert!(b.complete > a.complete);
        // ...but two PTE reads issued together are latency-only.
        let mut m2 = mem();
        let c = m2.access(0, 16, AccessKind::PageWalk);
        let d = m2.access(0, 24, AccessKind::PageWalk);
        assert_eq!(c.complete, d.complete);
        // And a PTE read does not delay later demand traffic.
        let mut m3 = mem();
        m3.access(0, 16, AccessKind::PageWalk);
        let e = m3.access(0, 24, AccessKind::Load);
        let mut m4 = mem();
        let f = m4.access(0, 24, AccessKind::Load);
        assert_eq!(e.complete, f.complete);
    }

    #[test]
    fn page_walk_fills_still_warm_the_l2() {
        let mut m = mem();
        let cold = m.access(0, 99, AccessKind::PageWalk);
        assert!(!cold.l2_hit);
        let warm = m.access(cold.complete, 99, AccessKind::Load);
        assert!(warm.l2_hit, "walk fills must be visible to demand loads");
    }

    /// A recorded deviation, not a requirement: a line's slice is
    /// `line % channels` and its set in the slice is `line & (sets - 1)`,
    /// so with a power-of-two channel count every line of a slice shares
    /// its low `log2(channels)` bits and the slice reaches only
    /// `sets / channels` of its sets. The harnesses' 2 channels (8 cores)
    /// reach half of each slice; the paper machine's 8 channels (30
    /// cores) reach 16 of 128 sets, 1/8 of the L2. Fixing the index
    /// changes every figure, so it waits with the other model fixes.
    #[test]
    fn l2_slices_reach_only_sets_matching_their_channel_bits() {
        for (channels, reached) in [(2, 64), (8, 16)] {
            let mut m = MemorySystem::new(MemConfig {
                channels,
                ..MemConfig::default()
            });
            let slice = m.config().l2_slice;
            // Four times the whole L2's capacity in distinct lines.
            for line in 0..(4 * channels * slice.lines()) as u64 {
                m.access(line, line, AccessKind::Load);
            }
            for s in &m.slices {
                assert_eq!(s.occupancy(), reached * slice.ways, "{channels} channels");
            }
        }
    }

    #[test]
    fn dram_requests_counted() {
        let mut m = mem();
        m.access(0, 1, AccessKind::Load);
        m.access(0, 2, AccessKind::Load);
        m.access(50_000, 1, AccessKind::Load); // hit, no DRAM
        assert_eq!(m.dram_requests(), 2);
    }
}
