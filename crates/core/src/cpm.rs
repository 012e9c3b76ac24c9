//! The Common Page Matrix (CPM) for TLB-aware thread block compaction.
//!
//! Section 8.2: a table with one row per static warp (48 on the paper's
//! cores) and one saturating counter per other warp. On a TLB hit, the
//! hitting warp's row is selected and the counters for the warps in the
//! entry's history list are incremented — so `cpm[w][h]` approaches its
//! maximum when warps `w` and `h` keep touching the same PTEs. The
//! thread compactor consults the matrix: a thread may join a dynamic
//! warp only if its home warp's counters against every member already
//! compacted are saturated. The table is flushed periodically (every
//! 500 cycles suffices) so it adapts to phase changes.

use gmmu_sim::stats::Counter;
use gmmu_sim::Cycle;

/// Configuration of the CPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpmConfig {
    /// Bits per saturating counter (the paper sweeps 1–3; 3 performs
    /// best, Figure 22).
    pub counter_bits: u8,
    /// Cycles between table flushes (500 in the paper).
    pub flush_interval: u64,
}

impl Default for CpmConfig {
    fn default() -> Self {
        Self {
            counter_bits: 3,
            flush_interval: 500,
        }
    }
}

impl gmmu_sim::codec::Codec for CpmConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u8(self.counter_bits);
        w.u64(self.flush_interval);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.counter_bits = r.u8()?;
        self.flush_interval = r.u64()?;
        Ok(())
    }
}

/// The warp-pair PTE-affinity matrix.
///
/// # Examples
///
/// ```
/// use gmmu_core::cpm::{CommonPageMatrix, CpmConfig};
///
/// let mut cpm = CommonPageMatrix::new(4, CpmConfig { counter_bits: 1, flush_interval: 500 });
/// // Warps 0 and 1 repeatedly hit the same TLB entries:
/// cpm.record_hit(0, &[1]);
/// cpm.record_hit(1, &[0]);
/// assert!(cpm.is_compatible(0, [1].into_iter()));
/// assert!(!cpm.is_compatible(0, [2].into_iter()));
/// ```
#[derive(Debug, Clone)]
pub struct CommonPageMatrix {
    n_warps: usize,
    max: u8,
    counters: Vec<u8>,
    config: CpmConfig,
    last_flush: Cycle,
    /// Counter updates applied.
    pub updates: Counter,
    /// Table flushes performed.
    pub flushes: Counter,
}

impl CommonPageMatrix {
    /// Creates an all-zero matrix for `n_warps` static warps.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is 0 or greater than 8, or `n_warps`
    /// is 0.
    pub fn new(n_warps: usize, config: CpmConfig) -> Self {
        assert!(n_warps > 0, "need at least one warp");
        assert!(
            (1..=8).contains(&config.counter_bits),
            "counter bits must be 1..=8"
        );
        Self {
            n_warps,
            max: ((1u16 << config.counter_bits) - 1) as u8,
            counters: vec![0; n_warps * n_warps],
            config,
            last_flush: 0,
            updates: Counter::new(),
            flushes: Counter::new(),
        }
    }

    /// Maximum (saturated) counter value.
    pub fn max_value(&self) -> u8 {
        self.max
    }

    /// Storage cost in bits (the paper's 48×47 3-bit table ≈ 0.8 KB).
    pub fn storage_bits(&self) -> usize {
        self.n_warps * (self.n_warps - 1) * self.config.counter_bits as usize
    }

    #[inline]
    fn idx(&self, row: u16, col: u16) -> usize {
        row as usize * self.n_warps + col as usize
    }

    /// Counter value for (row, col).
    pub fn counter(&self, row: u16, col: u16) -> u8 {
        self.counters[self.idx(row, col)]
    }

    /// Records that `warp` hit a TLB entry previously touched by the
    /// warps in `history` (the TLB entry's per-entry history list).
    pub fn record_hit(&mut self, warp: u16, history: &[u16]) {
        for &h in history {
            if h == warp || h as usize >= self.n_warps {
                continue;
            }
            let i = self.idx(warp, h);
            if self.counters[i] < self.max {
                self.counters[i] += 1;
            }
            self.updates.inc();
        }
    }

    /// Whether a thread whose home warp is `candidate` may be compacted
    /// into a dynamic warp already containing threads from `members`:
    /// every pairwise counter must be saturated. An empty member set is
    /// always compatible.
    pub fn is_compatible(&self, candidate: u16, members: impl IntoIterator<Item = u16>) -> bool {
        members
            .into_iter()
            .all(|m| m == candidate || self.counter(candidate, m) == self.max)
    }

    /// The cycle of the next table flush: the next multiple of the
    /// flush interval after the last one applied.
    pub fn next_event_at(&self) -> Cycle {
        self.last_flush + self.config.flush_interval.max(1)
    }

    /// Flushes the table when the flush interval has elapsed. Flush
    /// epochs are anchored at exact multiples of the interval, so the
    /// method may be called at any subset of cycles (the drive loop
    /// ticks a core only on its wake cycles): every elapsed epoch is
    /// caught up, leaving the counters and the flush count exactly as a
    /// once-per-cycle caller would.
    pub fn tick(&mut self, now: Cycle) {
        let interval = self.config.flush_interval.max(1);
        let mut flushed = false;
        while now
            .checked_sub(self.last_flush)
            .is_some_and(|d| d >= interval)
        {
            self.last_flush += interval;
            self.flushes.inc();
            flushed = true;
        }
        if flushed {
            self.counters.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpm(bits: u8) -> CommonPageMatrix {
        CommonPageMatrix::new(
            8,
            CpmConfig {
                counter_bits: bits,
                flush_interval: 500,
            },
        )
    }

    #[test]
    fn counters_saturate_at_bit_width() {
        let mut c = cpm(2);
        for _ in 0..10 {
            c.record_hit(0, &[1]);
        }
        assert_eq!(c.counter(0, 1), 3);
        assert_eq!(c.max_value(), 3);
    }

    #[test]
    fn compatibility_requires_saturation() {
        let mut c = cpm(3);
        for i in 0..7 {
            assert_eq!(c.is_compatible(0, [1]), i == 7, "after {i} hits");
            c.record_hit(0, &[1]);
        }
        assert!(c.is_compatible(0, [1]));
        // Compatibility is per the candidate's row only.
        assert!(!c.is_compatible(1, [0]));
    }

    #[test]
    fn empty_member_set_is_compatible() {
        let c = cpm(1);
        assert!(c.is_compatible(3, std::iter::empty()));
    }

    #[test]
    fn self_pairs_are_ignored() {
        let mut c = cpm(1);
        c.record_hit(2, &[2]);
        assert_eq!(c.counter(2, 2), 0);
        assert!(c.is_compatible(2, [2]));
    }

    #[test]
    fn one_bit_counters_saturate_immediately() {
        let mut c = cpm(1);
        c.record_hit(4, &[5]);
        assert!(c.is_compatible(4, [5]));
    }

    #[test]
    fn periodic_flush_resets() {
        let mut c = cpm(1);
        c.record_hit(0, &[1]);
        c.tick(499); // first tick at 499 < 0 + 500 → no flush
        assert!(c.is_compatible(0, [1]));
        c.tick(500);
        assert!(!c.is_compatible(0, [1]));
        assert_eq!(c.flushes.get(), 1);
    }

    #[test]
    fn history_of_two_updates_both() {
        let mut c = cpm(1);
        c.record_hit(0, &[1, 2]);
        assert_eq!(c.counter(0, 1), 1);
        assert_eq!(c.counter(0, 2), 1);
        assert_eq!(c.updates.get(), 2);
    }

    #[test]
    fn paper_sized_table_is_under_a_kilobyte() {
        let c = CommonPageMatrix::new(48, CpmConfig::default());
        assert!(c.storage_bits() as f64 / 8.0 / 1024.0 < 1.0);
    }
}
