//! Stall-cause attribution for idle cycles.
//!
//! The paper's Figure 10 argues about *why* cycles are lost, not just how
//! many: TLB-induced stalls versus ordinary memory latency versus
//! scheduling droughts. [`StallBreakdown`] splits the single
//! `idle_cycles` counter into an enum-indexed vector so the figure-10
//! companion table (and any debugging session) can see where a design
//! point's idle time actually goes.
//!
//! An idle cycle is attributed to the *dominant blocker*: each stalled
//! warp maps to one [`StallCause`], and the cycle is charged to the
//! highest-priority cause present. Priority is the declaration order of
//! the enum — TLB-related causes first, so a cycle where one warp waits
//! on a TLB fill and another on an ALU result counts as TLB-induced.

use gmmu_sim::stats::pct;

/// Why a live core failed to issue on a given cycle. Declaration order is
/// the attribution priority (earlier wins when several causes coexist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// A warp is parked on a page fault, waiting for the modeled CPU
    /// fault handler to map the page (demand paging).
    FaultService,
    /// A warp is asleep waiting for a page-walk to fill the TLB.
    TlbFill,
    /// The MMU rejected the access (blocking TLB busy or MSHRs full) and
    /// the warp is backing off before retrying.
    MmuReject,
    /// Waiting on a memory instruction whose data came from DRAM.
    Dram,
    /// Waiting on a memory instruction served by L1/L2 (hit latency,
    /// MSHR merge, or L2 hit).
    L1Mshr,
    /// Woken from a TLB sleep; re-presenting the remaining pages next
    /// cycle (the replay machinery's one-cycle turnaround).
    ReplayWake,
    /// A warp was ready but the scheduling policy (CCWS/TA-CCWS/TCWS)
    /// gated it.
    Throttled,
    /// Waiting on an ALU/branch pipeline latency.
    Pipeline,
    /// No runnable work: warps parked at a reconvergence barrier, or the
    /// core is between blocks (dispatch drought).
    Dispatch,
}

impl StallCause {
    /// Number of causes (the breakdown vector's length).
    pub const COUNT: usize = 9;

    /// Every cause, in priority (= display) order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::FaultService,
        StallCause::TlbFill,
        StallCause::MmuReject,
        StallCause::Dram,
        StallCause::L1Mshr,
        StallCause::ReplayWake,
        StallCause::Throttled,
        StallCause::Pipeline,
        StallCause::Dispatch,
    ];

    /// Short human-readable label (table column header).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FaultService => "fault svc",
            StallCause::TlbFill => "tlb fill",
            StallCause::MmuReject => "mmu reject",
            StallCause::Dram => "dram",
            StallCause::L1Mshr => "l1/mshr",
            StallCause::ReplayWake => "replay",
            StallCause::Throttled => "throttled",
            StallCause::Pipeline => "pipeline",
            StallCause::Dispatch => "dispatch",
        }
    }
}

/// Idle cycles split by [`StallCause`]. The sum of all entries equals the
/// `idle_cycles` counter it refines, on every run and under both loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown([u64; StallCause::COUNT]);

impl StallBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` cycles to `cause`.
    #[inline]
    pub fn add(&mut self, cause: StallCause, n: u64) {
        self.0[cause as usize] += n;
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.0[cause as usize]
    }

    /// Total cycles across all causes (equals `idle_cycles`).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(cause, cycles)` pairs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Share of `cause` as a percentage of the breakdown's total.
    pub fn share_pct(&self, cause: StallCause) -> f64 {
        pct(self.get(cause), self.total())
    }
}

use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};

impl Codec for StallBreakdown {
    fn save(&self, w: &mut Saver) {
        for v in &self.0 {
            w.u64(*v);
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        for v in &mut self.0 {
            *v = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_is_declaration_order() {
        // `min` over causes picks the dominant blocker.
        assert!(StallCause::FaultService < StallCause::TlbFill);
        assert!(StallCause::TlbFill < StallCause::Dram);
        assert!(StallCause::Dram < StallCause::Pipeline);
        assert!(StallCause::Pipeline < StallCause::Dispatch);
        assert_eq!(StallCause::ALL.len(), StallCause::COUNT);
        for pair in StallCause::ALL.windows(2) {
            assert!(pair[0] < pair[1], "ALL must be sorted by priority");
        }
    }

    #[test]
    fn breakdown_accumulates_and_merges() {
        let mut a = StallBreakdown::new();
        a.add(StallCause::TlbFill, 10);
        a.add(StallCause::Dram, 5);
        let mut b = StallBreakdown::new();
        b.add(StallCause::TlbFill, 1);
        b.add(StallCause::Dispatch, 4);
        a.merge(&b);
        assert_eq!(a.get(StallCause::TlbFill), 11);
        assert_eq!(a.get(StallCause::Dram), 5);
        assert_eq!(a.get(StallCause::Dispatch), 4);
        assert_eq!(a.total(), 20);
        assert_eq!(a.share_pct(StallCause::Dram), 25.0);
        assert_eq!(a.iter().map(|(_, n)| n).sum::<u64>(), a.total());
    }
}
