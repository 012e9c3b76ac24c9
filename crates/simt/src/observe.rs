//! Run-time observability: event tracing and interval time-series.
//!
//! An [`Observer`] travels with one simulation run ([`crate::Gpu::run_observed`])
//! and carries two optional instruments:
//!
//! * a [`Tracer`] collecting spans for a Chrome/Perfetto `trace.json`;
//! * an [`IntervalRecorder`] sampling whole-GPU counters every `stride`
//!   cycles, turning end-of-run aggregates into a time-series of IPC,
//!   TLB hit rate, walker-lane occupancy, and DRAM traffic;
//! * a [`Metrics`] channel collecting translation-lifecycle events into
//!   per-stage latency histograms and a hot-page table (see
//!   [`gmmu_sim::metrics`]).
//!
//! All default to off, in which case the run is bit-identical to an
//! unobserved one (the determinism suite asserts this).

use gmmu_sim::metrics::Metrics;
use gmmu_sim::trace::Tracer;
use gmmu_sim::Cycle;

/// Per-run observation instruments. [`Observer::off`] observes nothing.
#[derive(Debug, Default)]
pub struct Observer {
    /// Span tracer (off by default).
    pub tracer: Tracer,
    /// Interval sampler (off by default).
    pub intervals: Option<IntervalRecorder>,
    /// Translation-lifecycle metrics channel (off by default). When on,
    /// this is the run's aggregation sink; per-core staging buffers
    /// drain into it in core-index order each cycle.
    pub metrics: Metrics,
}

impl Observer {
    /// An observer that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// An observer that records a span trace only.
    pub fn tracing() -> Self {
        Observer {
            tracer: Tracer::recording(),
            intervals: None,
            metrics: Metrics::Off,
        }
    }

    /// Whether any instrument is attached.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled() || self.intervals.is_some() || self.metrics.enabled()
    }
}

/// A snapshot of the monotonically growing whole-GPU counters an
/// interval sample is derived from (by differencing two snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Instructions executed (warp-instructions, summed over cores).
    pub instructions: u64,
    /// TLB lookups.
    pub tlb_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// Walker lane-busy cycles (see `WalkerStats::lane_busy_cycles`).
    pub walker_busy_cycles: u64,
    /// Requests that reached DRAM.
    pub dram_requests: u64,
    /// Cycles translations spent queued behind busy walker lanes
    /// (metrics channel; zero when metrics are off).
    pub walk_queue_cycles: u64,
    /// Cycles translations spent in active page walks (metrics channel;
    /// zero when metrics are off).
    pub walk_active_cycles: u64,
}

/// One interval's worth of activity, as deltas over the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalSample {
    /// Cycle the interval ends at (exclusive).
    pub end_cycle: Cycle,
    /// Interval width in cycles (the final sample may be shorter).
    pub cycles: u64,
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// TLB lookups during the interval.
    pub tlb_accesses: u64,
    /// TLB hits during the interval.
    pub tlb_hits: u64,
    /// Walker lane-busy cycles accrued during the interval.
    pub walker_busy_cycles: u64,
    /// DRAM requests during the interval.
    pub dram_requests: u64,
    /// Walk queueing cycles attributed during the interval (metrics
    /// channel; zero when metrics are off).
    pub walk_queue_cycles: u64,
    /// Active page-walk cycles attributed during the interval (metrics
    /// channel; zero when metrics are off).
    pub walk_active_cycles: u64,
}

impl IntervalSample {
    /// Instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        gmmu_sim::stats::ratio(self.instructions, self.cycles)
    }

    /// TLB hit rate over the interval, in `[0, 1]` (0 when no lookups).
    pub fn tlb_hit_rate(&self) -> f64 {
        gmmu_sim::stats::ratio(self.tlb_hits, self.tlb_accesses)
    }

    /// Walker-lane occupancy over the interval given the total lane
    /// count. Busy time is attributed to the cycle a walk *starts*, so a
    /// single interval can nominally exceed 1.0 when a long walk begins
    /// near its end; consecutive intervals average out exactly.
    pub fn walker_occupancy(&self, lanes: u64) -> f64 {
        gmmu_sim::stats::ratio(self.walker_busy_cycles, self.cycles * lanes.max(1))
    }
}

/// Samples whole-GPU counters every `stride` cycles during a run.
#[derive(Debug, Clone)]
pub struct IntervalRecorder {
    stride: Cycle,
    next: Cycle,
    lanes: u64,
    last: CounterSnapshot,
    samples: Vec<IntervalSample>,
}

impl IntervalRecorder {
    /// Creates a recorder sampling every `stride` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: Cycle) -> Self {
        assert!(stride > 0, "interval stride must be positive");
        IntervalRecorder {
            stride,
            next: stride,
            lanes: 0,
            last: CounterSnapshot::default(),
            samples: Vec::new(),
        }
    }

    /// Sets the walker-lane count used for occupancy (summed over cores).
    pub fn set_lanes(&mut self, lanes: u64) {
        self.lanes = lanes;
    }

    /// Configured stride in cycles.
    pub fn stride(&self) -> Cycle {
        self.stride
    }

    /// Whether the clock has reached the next sample boundary.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next
    }

    /// Closes the interval ending at the pending boundary using the
    /// current counter snapshot. Call while [`IntervalRecorder::due`];
    /// when the clock jumps several boundaries at once, call repeatedly
    /// (the skipped epochs record zero activity).
    pub fn sample(&mut self, totals: CounterSnapshot) {
        let end = self.next;
        self.push(end, self.stride, totals);
        self.next = end + self.stride;
    }

    /// Closes the final, possibly partial interval at end of run.
    pub fn finish(&mut self, now: Cycle, totals: CounterSnapshot) {
        let start = self.next - self.stride;
        if now > start {
            self.push(now, now - start, totals);
        }
    }

    fn push(&mut self, end: Cycle, width: Cycle, totals: CounterSnapshot) {
        self.samples.push(IntervalSample {
            end_cycle: end,
            cycles: width,
            instructions: totals.instructions - self.last.instructions,
            tlb_accesses: totals.tlb_accesses - self.last.tlb_accesses,
            tlb_hits: totals.tlb_hits - self.last.tlb_hits,
            walker_busy_cycles: totals.walker_busy_cycles - self.last.walker_busy_cycles,
            dram_requests: totals.dram_requests - self.last.dram_requests,
            walk_queue_cycles: totals.walk_queue_cycles - self.last.walk_queue_cycles,
            walk_active_cycles: totals.walk_active_cycles - self.last.walk_active_cycles,
        });
        self.last = totals;
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// Renders the time-series as CSV (header + one row per interval).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str(
            "end_cycle,cycles,instructions,ipc,tlb_accesses,tlb_hits,tlb_hit_rate,\
             walker_busy_cycles,walker_occupancy,dram_requests,\
             walk_queue_cycles,walk_active_cycles\n",
        );
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{},{},{},{:.4},{},{},{:.4},{},{:.4},{},{},{}",
                s.end_cycle,
                s.cycles,
                s.instructions,
                s.ipc(),
                s.tlb_accesses,
                s.tlb_hits,
                s.tlb_hit_rate(),
                s.walker_busy_cycles,
                s.walker_occupancy(self.lanes),
                s.dram_requests,
                s.walk_queue_cycles,
                s.walk_active_cycles,
            );
        }
        out
    }

    /// Renders the time-series as JSON.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"stride\": {},\n  \"walker_lanes\": {},\n  \"samples\": [",
            self.stride, self.lanes
        );
        for (i, s) in self.samples.iter().enumerate() {
            let sep = if i + 1 == self.samples.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"end_cycle\": {}, \"cycles\": {}, \"instructions\": {}, \
                 \"ipc\": {:.4}, \"tlb_accesses\": {}, \"tlb_hits\": {}, \
                 \"tlb_hit_rate\": {:.4}, \"walker_busy_cycles\": {}, \
                 \"walker_occupancy\": {:.4}, \"dram_requests\": {}, \
                 \"walk_queue_cycles\": {}, \"walk_active_cycles\": {}}}{sep}",
                s.end_cycle,
                s.cycles,
                s.instructions,
                s.ipc(),
                s.tlb_accesses,
                s.tlb_hits,
                s.tlb_hit_rate(),
                s.walker_busy_cycles,
                s.walker_occupancy(self.lanes),
                s.dram_requests,
                s.walk_queue_cycles,
                s.walk_active_cycles,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

use gmmu_sim::ckpt::{Ckpt, CkptError, Loader, Saver};

impl Ckpt for CounterSnapshot {
    fn save(&self, w: &mut Saver) {
        w.u64(self.instructions);
        w.u64(self.tlb_accesses);
        w.u64(self.tlb_hits);
        w.u64(self.walker_busy_cycles);
        w.u64(self.dram_requests);
        w.u64(self.walk_queue_cycles);
        w.u64(self.walk_active_cycles);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.instructions = r.u64()?;
        self.tlb_accesses = r.u64()?;
        self.tlb_hits = r.u64()?;
        self.walker_busy_cycles = r.u64()?;
        self.dram_requests = r.u64()?;
        self.walk_queue_cycles = r.u64()?;
        self.walk_active_cycles = r.u64()?;
        Ok(())
    }
}

impl Ckpt for IntervalSample {
    fn save(&self, w: &mut Saver) {
        w.u64(self.end_cycle);
        w.u64(self.cycles);
        w.u64(self.instructions);
        w.u64(self.tlb_accesses);
        w.u64(self.tlb_hits);
        w.u64(self.walker_busy_cycles);
        w.u64(self.dram_requests);
        w.u64(self.walk_queue_cycles);
        w.u64(self.walk_active_cycles);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.end_cycle = r.u64()?;
        self.cycles = r.u64()?;
        self.instructions = r.u64()?;
        self.tlb_accesses = r.u64()?;
        self.tlb_hits = r.u64()?;
        self.walker_busy_cycles = r.u64()?;
        self.dram_requests = r.u64()?;
        self.walk_queue_cycles = r.u64()?;
        self.walk_active_cycles = r.u64()?;
        Ok(())
    }
}

impl Ckpt for IntervalRecorder {
    /// `stride` and `lanes` come from the run setup and are rebuilt by
    /// the caller; the stream holds the sampling cursor and the samples.
    fn save(&self, w: &mut Saver) {
        w.u64(self.next);
        self.last.save(w);
        self.samples.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.next = r.u64()?;
        self.last.load(r)?;
        self.samples.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(instructions: u64, dram: u64) -> CounterSnapshot {
        CounterSnapshot {
            instructions,
            dram_requests: dram,
            ..Default::default()
        }
    }

    #[test]
    fn samples_are_deltas() {
        let mut r = IntervalRecorder::new(100);
        assert!(!r.due(99));
        assert!(r.due(100));
        r.sample(snap(40, 3));
        r.sample(snap(90, 3)); // clock jumped two boundaries at once
        r.finish(250, snap(100, 9));
        let s = r.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].end_cycle, s[0].cycles, s[0].instructions),
            (100, 100, 40)
        );
        assert_eq!((s[1].end_cycle, s[1].instructions), (200, 50));
        assert_eq!(
            (s[2].end_cycle, s[2].cycles, s[2].instructions),
            (250, 50, 10)
        );
        assert_eq!(s[2].dram_requests, 6);
        assert_eq!(s[0].ipc(), 0.4);
        assert_eq!(s[2].ipc(), 0.2);
    }

    #[test]
    fn finish_skips_empty_tail() {
        let mut r = IntervalRecorder::new(100);
        r.sample(snap(10, 0));
        r.finish(100, snap(10, 0)); // run ended exactly on a boundary
        assert_eq!(r.samples().len(), 1);
    }

    #[test]
    fn csv_and_json_render() {
        let mut r = IntervalRecorder::new(10);
        r.set_lanes(2);
        r.sample(CounterSnapshot {
            instructions: 5,
            tlb_accesses: 4,
            tlb_hits: 2,
            walker_busy_cycles: 10,
            dram_requests: 1,
            walk_queue_cycles: 3,
            walk_active_cycles: 7,
        });
        let csv = r.to_csv();
        assert!(csv.starts_with("end_cycle,"));
        assert!(csv.contains("walk_queue_cycles,walk_active_cycles"));
        assert!(csv.contains("10,10,5,0.5000,4,2,0.5000,10,0.5000,1,3,7"));
        let json = r.to_json();
        assert!(json.contains("\"stride\": 10"));
        assert!(json.contains("\"walker_lanes\": 2"));
        assert!(json.contains("\"ipc\": 0.5000"));
        assert!(json.contains("\"walk_queue_cycles\": 3"));
        assert!(json.contains("\"walk_active_cycles\": 7"));
    }
}
