//! Run-time observability: one typed event stream and the instruments
//! that fold it.
//!
//! Every instrumented site emits one [`Event`] through
//! [`Observer::record`], passing a closure that builds it. The closure
//! runs only when the span tracer or the metrics channel is on, so an
//! instrument-off run is bit-identical to an unobserved one (the
//! determinism suite asserts this). A recorded event folds straight into
//! both instruments, in emission order:
//!
//! * the [`Tracer`] keeps the span variants for a Chrome/Perfetto
//!   `trace.json` (see [`crate::trace`]);
//! * the [`Metrics`] sink folds every variant it knows into per-stage
//!   latency histograms and a hot-page table (see [`crate::metrics`]).
//!
//! The third instrument, the [`IntervalRecorder`], samples whole-GPU
//! counters every `stride` cycles. Its two walk-stage columns read the
//! metrics sink, so they are a fold over the same stream and stay zero
//! when the metrics channel is off.

use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::Cycle;

/// One simulated fact, emitted once at the site where it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An accepted TLB lookup (metrics only).
    Lookup {
        /// Port-arbitration wait plus the access penalty.
        latency: u64,
    },
    /// A TLB miss was registered for a page. Metrics only.
    Miss {
        /// Address space of the page (0 for single-tenant runs).
        asid: u16,
        /// Virtual page number that missed.
        vpn: u64,
    },
    /// A page walk ran from `start` to `end` on walker track `track`.
    Walk {
        /// Core whose walker ran the walk.
        core: u32,
        /// Serial lane index, or batch slot for a coalesced walk.
        track: u32,
        /// Address space whose table was walked.
        asid: u16,
        /// Virtual page number walked.
        vpn: u64,
        /// Warp whose miss started the walk.
        warp: u16,
        /// Cycle a lane picked the walk up.
        start: Cycle,
        /// Cycle the walk's last reference returned.
        end: Cycle,
        /// Radix levels referenced (4 = PML4 … 1 = PTE; 0 = unused).
        levels: [u8; 4],
    },
    /// A TLB fill was applied, waking `waiters` warps.
    Fill {
        /// Core whose MMU applied the fill.
        core: u32,
        /// Address space of the filled translation.
        asid: u16,
        /// Virtual page number filled.
        vpn: u64,
        /// Warp whose miss started the walk.
        warp: u16,
        /// Cycle the miss entered the walker queue.
        enqueued: Cycle,
        /// Cycle a walker lane started the walk.
        started: Cycle,
        /// Cycle the fill was applied.
        complete: Cycle,
        /// Warps woken by the fill.
        waiters: u32,
    },
    /// A warp's TLB sleep, ended by its last page's fill (spans only).
    WarpSleep {
        /// Core the warp runs on.
        core: u32,
        /// Warp (or TBC dynamic-warp unit) index.
        warp: u16,
        /// Page whose fill woke the warp.
        vpn: u64,
        /// Cycle the warp went to sleep.
        start: Cycle,
        /// Cycle the warp woke.
        end: Cycle,
    },
    /// A thread block's residency in a slot (spans only).
    BlockRetire {
        /// Core the block ran on.
        core: u32,
        /// Block slot index.
        slot: u32,
        /// Cycle the block was dispatched.
        start: Cycle,
        /// Cycle the block retired.
        end: Cycle,
    },
}

/// Per-run observation instruments. [`Observer::off`] observes nothing.
#[derive(Debug, Default)]
pub struct Observer {
    /// Span tracer (off by default).
    pub tracer: Tracer,
    /// Interval sampler (off by default).
    pub intervals: Option<IntervalRecorder>,
    /// Translation-lifecycle metrics sink (off by default).
    pub metrics: Metrics,
    /// Index of the core whose tick is emitting events; each core sets
    /// it at the start of its tick so its MMU and walker can stamp
    /// events without knowing which core they belong to.
    pub core: u32,
}

impl Observer {
    /// An observer that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// Folds the event built by `f` into the tracer and the metrics
    /// sink. `f` runs only when one of them is on.
    #[inline(always)]
    pub fn record(&mut self, f: impl FnOnce() -> Event) {
        if !self.tracer.enabled() && !self.metrics.enabled() {
            return;
        }
        let ev = f();
        if let Tracer::Buffer(buf) = &mut self.tracer {
            buf.push(ev);
        }
        if let Metrics::On(sink) = &mut self.metrics {
            sink.apply(&ev);
        }
    }
}

/// The whole-GPU counters interval samples track: monotonic totals
/// while the run goes, per-interval deltas inside an [`IntervalSample`].
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
    /// Walk-queue cycles from the metrics sink (0 when it is off).
    pub walk_queue_cycles: u64,
    /// Active-walk cycles from the metrics sink (0 when it is off).
    pub walk_active_cycles: u64,
}

impl CounterSnapshot {
    /// Field-wise `self - earlier`.
    fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            instructions: self.instructions - earlier.instructions,
            tlb_accesses: self.tlb_accesses - earlier.tlb_accesses,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            walker_busy_cycles: self.walker_busy_cycles - earlier.walker_busy_cycles,
            dram_requests: self.dram_requests - earlier.dram_requests,
            walk_queue_cycles: self.walk_queue_cycles - earlier.walk_queue_cycles,
            walk_active_cycles: self.walk_active_cycles - earlier.walk_active_cycles,
        }
    }
}

/// One interval's worth of activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle the interval ends at (exclusive).
    pub end_cycle: Cycle,
    /// Interval width in cycles (the final sample may be shorter).
    pub cycles: u64,
    /// Counter deltas over the interval.
    pub delta: CounterSnapshot,
}

impl IntervalSample {
    /// Instructions per cycle over the interval.
    pub fn ipc(&self) -> f64 {
        crate::stats::ratio(self.delta.instructions, self.cycles)
    }

    /// TLB hit rate over the interval, in `[0, 1]` (0 when no lookups).
    pub fn tlb_hit_rate(&self) -> f64 {
        crate::stats::ratio(self.delta.tlb_hits, self.delta.tlb_accesses)
    }

    /// Walker-lane occupancy over the interval given the total lane
    /// count. Busy time is attributed to the cycle a walk *starts*, so a
    /// single interval can nominally exceed 1.0 when a long walk begins
    /// near its end; consecutive intervals average out exactly.
    pub fn walker_occupancy(&self, lanes: u64) -> f64 {
        crate::stats::ratio(self.delta.walker_busy_cycles, self.cycles * lanes.max(1))
    }
}

/// Interval columns, in CSV and JSON order.
const COLUMNS: &str = "end_cycle,cycles,instructions,ipc,tlb_accesses,tlb_hits,tlb_hit_rate,\
                       walker_busy_cycles,walker_occupancy,dram_requests,\
                       walk_queue_cycles,walk_active_cycles";

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

    /// Whether the clock has reached the next sample boundary.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next
    }

    /// The next sample boundary: the interval closing there counts the
    /// activity of the cycles before it.
    pub fn next_boundary(&self) -> Cycle {
        self.next
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
            delta: totals.since(&self.last),
        });
        self.last = totals;
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// One sample's values, rendered in [`COLUMNS`] order.
    fn values(&self, s: &IntervalSample) -> [String; 12] {
        let d = &s.delta;
        [
            s.end_cycle.to_string(),
            s.cycles.to_string(),
            d.instructions.to_string(),
            format!("{:.4}", s.ipc()),
            d.tlb_accesses.to_string(),
            d.tlb_hits.to_string(),
            format!("{:.4}", s.tlb_hit_rate()),
            d.walker_busy_cycles.to_string(),
            format!("{:.4}", s.walker_occupancy(self.lanes)),
            d.dram_requests.to_string(),
            d.walk_queue_cycles.to_string(),
            d.walk_active_cycles.to_string(),
        ]
    }

    /// Renders the time-series as CSV (header + one row per interval).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{COLUMNS}\n");
        for s in &self.samples {
            out += &self.values(s).join(",");
            out.push('\n');
        }
        out
    }

    /// Renders the time-series as JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"stride\": {},\n  \"walker_lanes\": {},\n  \"samples\": [\n",
            self.stride, self.lanes
        );
        for (i, s) in self.samples.iter().enumerate() {
            let fields: Vec<String> = COLUMNS
                .split(',')
                .zip(self.values(s))
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let sep = if i + 1 == self.samples.len() { "" } else { "," };
            out += &format!("    {{{}}}{sep}\n", fields.join(", "));
        }
        out.push_str("  ]\n}\n");
        out
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
    fn one_event_folds_into_every_instrument() {
        let mut obs = Observer {
            tracer: Tracer::recording(),
            metrics: Metrics::recording(),
            ..Observer::off()
        };
        obs.record(|| Event::Fill {
            core: 2,
            asid: 3,
            vpn: 42,
            warp: 5,
            enqueued: 100,
            started: 130,
            complete: 350,
            waiters: 4,
        });
        obs.record(|| Event::Walk {
            core: 2,
            track: 0,
            asid: 0,
            vpn: 7,
            warp: 1,
            start: 10,
            end: 90,
            levels: [4, 3, 2, 1],
        });
        obs.record(|| Event::Lookup { latency: 2 });
        let spans = obs.tracer.buffer().expect("recording").to_chrome_json();
        assert_eq!(spans.matches("\"name\":\"tlb_miss\"").count(), 1);
        assert_eq!(spans.matches("\"name\":\"page_walk\"").count(), 1);
        assert!(
            spans.contains(r#""ts":100,"dur":250,"pid":2,"tid":1000,"args":{"vpn":42,"warp":5}"#)
        );
        let sink = obs.metrics.sink().expect("recording");
        assert_eq!(sink.walk_queue.count(), 1);
        assert_eq!(sink.walk_active.count(), 1);
        assert_eq!(sink.fill_waiters.count(), 1);
        assert_eq!(sink.stage_cycles(), (30, 220));
        assert_eq!(sink.asid_stages[&3].walk_active.sum(), 220);
        assert_eq!(sink.hot_pages[&(0, 7)].level_refs, [1, 1, 1, 1]);
        // Metrics-only events never reach the span buffer.
        assert_eq!(obs.tracer.buffer().unwrap().len(), 2);

        let mut off = Observer {
            intervals: Some(IntervalRecorder::new(10)),
            ..Observer::off()
        };
        off.record(|| unreachable!("closure must not run with tracer and metrics off"));
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
            (s[0].end_cycle, s[0].cycles, s[0].delta.instructions),
            (100, 100, 40)
        );
        assert_eq!((s[1].end_cycle, s[1].delta.instructions), (200, 50));
        assert_eq!(
            (s[2].end_cycle, s[2].cycles, s[2].delta.instructions),
            (250, 50, 10)
        );
        assert_eq!(s[2].delta.dram_requests, 6);
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
