//! Translation-lifecycle telemetry: a sink that folds the observer's
//! [`Event`] stream into per-stage latency histograms and a per-VPN
//! hot-page table, and a hierarchical registry of labeled instruments
//! rendered as a versioned JSON snapshot.
//!
//! Every fold is commutative (histogram increments and hot-page counter
//! bumps), so the snapshot depends only on which events a run emitted,
//! never on the order of emission.
//!
//! # Lifecycle stages
//!
//! A translation request's life is attributed to four histograms:
//!
//! * `lookup_latency` — cycles from issue to TLB answer (port
//!   arbitration + probe penalty), recorded per lookup, hit or miss.
//! * `walk_queue` — cycles a missing translation waited in the walker's
//!   pending queue before a lane picked it up.
//! * `walk_active` — cycles from walk start to fill application
//!   (page-table memory references plus any injected walk delay).
//! * `fill_waiters` — number of warps woken by each fill (MSHR
//!   coalescing depth).
//!
//! For every applied fill, `queue + active` equals the end-to-end
//! per-miss latency the `tlb_miss_latency` aggregate records, so the
//! two stage histograms *sum exactly* to the existing aggregate
//! (squashed walks appear in neither). `tests/invariants.rs` pins this.

use crate::ckpt::{Ckpt, CkptError, Loader, Saver};
use crate::observe::Event;
use crate::stats::{HistSummary, Histogram};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Snapshot schema identifier embedded in every JSON dump.
pub const SCHEMA: &str = "gmmu-metrics";
/// Snapshot schema version. Bump when the JSON shape changes; readers
/// refuse snapshots from a different major version. Version 2 added the
/// ASID dimension: hot pages are keyed `(asid, vpn)` and a per-tenant
/// `tenants` section carries walk-stage histograms per address space.
pub const SCHEMA_VERSION: u32 = 2;
/// Number of hot pages reported in the snapshot's `hot_pages` section.
pub const HOT_PAGE_TOP_N: usize = 16;

/// Exact-count bound for the TLB lookup-latency histogram (lookups are
/// a few cycles; anything longer clamps into the last bucket).
const LOOKUP_BOUND: usize = 64;
/// Exact-count bound for the walk queue/active stage histograms.
const STAGE_BOUND: usize = 2048;
/// Exact-count bound for the fill-waiters histogram (bounded by warps).
const WAITERS_BOUND: usize = 64;

/// Per-VPN heat record: how often the page missed in the TLB and how
/// many page-table references each radix level served on its behalf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPage {
    /// TLB misses registered against this VPN.
    pub tlb_misses: u64,
    /// Page-table references per radix level; index 0 is the leaf PTE,
    /// index 3 collects level 4 and beyond.
    pub level_refs: [u64; 4],
}

impl Ckpt for HotPage {
    fn save(&self, w: &mut Saver) {
        w.u64(self.tlb_misses);
        self.level_refs.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.tlb_misses = r.u64()?;
        self.level_refs.load(r)
    }
}

/// Per-tenant slices of the walk-stage histograms: one pair per ASID,
/// folded alongside the run-wide aggregates so a multi-tenant snapshot
/// shows which address space the walker cycles went to.
#[derive(Debug, Clone, PartialEq)]
pub struct AsidStages {
    /// Queue-stage cycles for this ASID's applied fills.
    pub walk_queue: Histogram,
    /// Active-stage cycles for this ASID's applied fills.
    pub walk_active: Histogram,
}

impl Default for AsidStages {
    fn default() -> Self {
        Self {
            walk_queue: Histogram::with_bound(STAGE_BOUND),
            walk_active: Histogram::with_bound(STAGE_BOUND),
        }
    }
}

impl Ckpt for AsidStages {
    fn save(&self, w: &mut Saver) {
        self.walk_queue.save(w);
        self.walk_active.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.walk_queue.load(r)?;
        self.walk_active.load(r)
    }
}

/// Accumulated lifecycle telemetry: the four stage histograms plus the
/// hot-page table. All folds are commutative, so event order never
/// affects the final state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSink {
    /// TLB lookup latency (issue to answer), hits and misses alike.
    pub lookup_latency: Histogram,
    /// Per-applied-fill cycles spent waiting for a walker lane.
    pub walk_queue: Histogram,
    /// Per-applied-fill cycles spent walking (memory refs + delays).
    pub walk_active: Histogram,
    /// Warps woken per applied fill.
    pub fill_waiters: Histogram,
    /// Per-(ASID, VPN) miss and walk-reference heat.
    pub hot_pages: HashMap<(u16, u64), HotPage>,
    /// Walk-stage histograms sliced per tenant (ordered for rendering).
    pub asid_stages: BTreeMap<u16, AsidStages>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self {
            lookup_latency: Histogram::with_bound(LOOKUP_BOUND),
            walk_queue: Histogram::with_bound(STAGE_BOUND),
            walk_active: Histogram::with_bound(STAGE_BOUND),
            fill_waiters: Histogram::with_bound(WAITERS_BOUND),
            hot_pages: HashMap::new(),
            asid_stages: BTreeMap::new(),
        }
    }

    /// Folds one event into the sink; span-only events are ignored.
    pub fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::Lookup { latency } => self.lookup_latency.record(latency),
            Event::Miss { asid, vpn } => {
                self.hot_pages.entry((asid, vpn)).or_default().tlb_misses += 1
            }
            Event::Walk {
                asid, vpn, levels, ..
            } => {
                for level in levels.into_iter().filter(|&l| l != 0) {
                    let idx = (level as usize - 1).min(3);
                    self.hot_pages.entry((asid, vpn)).or_default().level_refs[idx] += 1;
                }
            }
            Event::Fill {
                asid,
                enqueued,
                started,
                complete,
                waiters,
                ..
            } => {
                let (queue, active) = (started - enqueued, complete - started);
                self.walk_queue.record(queue);
                self.walk_active.record(active);
                let slice = self.asid_stages.entry(asid).or_default();
                slice.walk_queue.record(queue);
                slice.walk_active.record(active);
                self.fill_waiters.record(waiters as u64);
            }
            Event::WarpSleep { .. } | Event::BlockRetire { .. } => {}
        }
    }

    /// Total cycles attributed to the queue and active walk stages so
    /// far, in that order — the interval recorder samples these.
    pub fn stage_cycles(&self) -> (u64, u64) {
        (self.walk_queue.sum(), self.walk_active.sum())
    }

    /// The `n` hottest pages, ordered by TLB misses (descending) then
    /// `(asid, vpn)` (ascending) so the report is deterministic.
    pub fn top_pages(&self, n: usize) -> Vec<((u16, u64), HotPage)> {
        let mut pages: Vec<((u16, u64), HotPage)> =
            self.hot_pages.iter().map(|(&k, &p)| (k, p)).collect();
        pages.sort_by(|a, b| b.1.tlb_misses.cmp(&a.1.tlb_misses).then(a.0.cmp(&b.0)));
        pages.truncate(n);
        pages
    }

    /// Renders the full versioned snapshot: schema header, the supplied
    /// registry of component instruments, the four lifecycle-stage
    /// summaries, and the top-N hot-page table. The output contains no
    /// wall-clock or engine-dependent fields, so identical simulations
    /// produce byte-identical snapshots on every engine.
    pub fn snapshot_json(&self, registry: &MetricsRegistry) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"registry\": [");
        for (i, (name, inst)) in registry.entries.iter().enumerate() {
            let comma = if i + 1 < registry.entries.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    {}{comma}", inst.render(name));
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"lifecycle\": {{");
        let stages = [
            ("lookup_latency", &self.lookup_latency),
            ("walk_queue", &self.walk_queue),
            ("walk_active", &self.walk_active),
            ("fill_waiters", &self.fill_waiters),
        ];
        for (i, (name, hist)) in stages.iter().enumerate() {
            let comma = if i + 1 < stages.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{name}\": {}{comma}",
                render_summary(&hist.summary())
            );
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"tenants\": [");
        let n_tenants = self.asid_stages.len();
        for (i, (asid, slice)) in self.asid_stages.iter().enumerate() {
            let comma = if i + 1 < n_tenants { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"asid\": {asid}, \"walk_queue\": {}, \"walk_active\": {}}}{comma}",
                render_summary(&slice.walk_queue.summary()),
                render_summary(&slice.walk_active.summary()),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"hot_pages\": {{");
        let _ = writeln!(s, "    \"top_n\": {HOT_PAGE_TOP_N},");
        let _ = writeln!(s, "    \"tracked\": {},", self.hot_pages.len());
        let _ = writeln!(s, "    \"pages\": [");
        let top = self.top_pages(HOT_PAGE_TOP_N);
        for (i, ((asid, vpn), page)) in top.iter().enumerate() {
            let comma = if i + 1 < top.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"asid\": {asid}, \"vpn\": {vpn}, \"tlb_misses\": {}, \"level_refs\": [{}, {}, {}, {}]}}{comma}",
                page.tlb_misses,
                page.level_refs[0],
                page.level_refs[1],
                page.level_refs[2],
                page.level_refs[3],
            );
        }
        let _ = writeln!(s, "    ]");
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }
}

impl Ckpt for MetricsSink {
    fn save(&self, w: &mut Saver) {
        self.lookup_latency.save(w);
        self.walk_queue.save(w);
        self.walk_active.save(w);
        self.fill_waiters.save(w);
        w.u64(self.hot_pages.len() as u64);
        let mut keys: Vec<(u16, u64)> = self.hot_pages.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            w.u16(key.0);
            w.u64(key.1);
            self.hot_pages[&key].save(w);
        }
        w.u64(self.asid_stages.len() as u64);
        for (asid, slice) in &self.asid_stages {
            w.u16(*asid);
            slice.save(w);
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.lookup_latency.load(r)?;
        self.walk_queue.load(r)?;
        self.walk_active.load(r)?;
        self.fill_waiters.load(r)?;
        let n = r.u64()? as usize;
        self.hot_pages.clear();
        for _ in 0..n {
            let asid = r.u16()?;
            let vpn = r.u64()?;
            let mut page = HotPage::default();
            page.load(r)?;
            self.hot_pages.insert((asid, vpn), page);
        }
        let n = r.u64()? as usize;
        self.asid_stages.clear();
        for _ in 0..n {
            let asid = r.u16()?;
            let mut slice = AsidStages::default();
            slice.load(r)?;
            self.asid_stages.insert(asid, slice);
        }
        Ok(())
    }
}

/// The metrics sink an [`crate::observe::Observer`] carries. `Off` is
/// the default; `On` folds every recorded event into its sink.
#[derive(Debug, Default)]
pub enum Metrics {
    /// Metrics disabled.
    #[default]
    Off,
    /// Fold events into a sink.
    On(Box<MetricsSink>),
}

impl Metrics {
    /// A channel that folds into a fresh sink.
    pub fn recording() -> Self {
        Metrics::On(Box::default())
    }

    /// Whether events are being captured at all.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Metrics::Off)
    }

    /// The accumulated sink, when on.
    pub fn sink(&self) -> Option<&MetricsSink> {
        match self {
            Metrics::On(sink) => Some(sink),
            Metrics::Off => None,
        }
    }
}

impl Ckpt for Metrics {
    fn save(&self, w: &mut Saver) {
        match self {
            Metrics::Off => w.u64(0),
            Metrics::On(sink) => {
                w.u64(1);
                sink.save(w);
            }
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        let tag = r.u64()?;
        match (tag, &mut *self) {
            (0, Metrics::Off) => Ok(()),
            (1, Metrics::On(sink)) => sink.load(r),
            _ => Err(CkptError::Corrupt(
                "metrics on/off state differs from the checkpoint",
            )),
        }
    }
}

/// One labeled instrument in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instrument {
    /// A monotonic event count.
    Counter(u64),
    /// A derived scalar (rates, occupancies).
    Gauge(f64),
    /// A distribution condensed to its headline statistics.
    Dist(HistSummary),
}

impl Instrument {
    fn render(&self, name: &str) -> String {
        match self {
            Instrument::Counter(v) => {
                format!("{{\"name\": \"{name}\", \"type\": \"counter\", \"value\": {v}}}")
            }
            Instrument::Gauge(v) => {
                format!("{{\"name\": \"{name}\", \"type\": \"gauge\", \"value\": {v:.4}}}")
            }
            Instrument::Dist(s) => format!(
                "{{\"name\": \"{name}\", \"type\": \"dist\", \"value\": {}}}",
                render_summary(s)
            ),
        }
    }
}

fn render_summary(s: &HistSummary) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {:.4}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        s.count, s.sum, s.mean, s.p50, s.p90, s.p99, s.max
    )
}

/// A flat, ordered registry of labeled instruments. Components register
/// under hierarchical dot-separated names (`core0.tlb.hits`,
/// `mem.dram.requests`); the registration order is the render order, so
/// building the registry deterministically yields a deterministic
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, Instrument)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monotonic counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), Instrument::Counter(value)));
    }

    /// Registers a derived scalar.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), Instrument::Gauge(value)));
    }

    /// Registers a distribution by its headline summary.
    pub fn dist(&mut self, name: impl Into<String>, summary: HistSummary) {
        self.entries.push((name.into(), Instrument::Dist(summary)));
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no instruments are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the registered `(name, instrument)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Instrument)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{Loader, Saver};
    use crate::observe::Observer;

    fn miss(asid: u16, vpn: u64) -> Event {
        Event::Miss { asid, vpn }
    }

    fn walk(asid: u16, vpn: u64, levels: [u8; 4]) -> Event {
        Event::Walk {
            core: 0,
            track: 0,
            asid,
            vpn,
            warp: 0,
            start: 0,
            end: 9,
            levels,
        }
    }

    fn fill(asid: u16, queue: u64, active: u64, waiters: u32) -> Event {
        Event::Fill {
            core: 0,
            asid,
            vpn: 1,
            warp: 0,
            enqueued: 10,
            started: 10 + queue,
            complete: 10 + queue + active,
            waiters,
        }
    }

    #[test]
    fn off_channel_never_evaluates_closure() {
        // The interval recorder alone does not make events worth building.
        let mut obs = Observer {
            intervals: Some(crate::observe::IntervalRecorder::new(100)),
            ..Observer::off()
        };
        obs.record(|| panic!("closure must not run when metrics are off"));
        assert!(!obs.metrics.enabled());
    }

    #[test]
    fn absorb_drains_buffer_into_sink() {
        // There is no staging buffer to drain: each recorded event folds
        // into the sink exactly once, at the moment it is recorded.
        let mut obs = Observer {
            metrics: Metrics::recording(),
            ..Observer::off()
        };
        obs.record(|| Event::Lookup { latency: 5 });
        obs.record(|| miss(0, 3));
        let sink = obs.metrics.sink().unwrap();
        assert_eq!(sink.lookup_latency.count(), 1);
        assert_eq!(sink.lookup_latency.sum(), 5);
        assert_eq!(sink.hot_pages[&(0, 3)].tlb_misses, 1);
        // Metrics on, tracer off: nothing lands in a span buffer.
        assert!(obs.tracer.buffer().is_none());
    }

    #[test]
    fn sink_folds_are_commutative() {
        let events = [
            Event::Lookup { latency: 2 },
            miss(0, 7),
            walk(0, 7, [4, 1, 0, 0]),
            fill(1, 3, 40, 2),
            Event::BlockRetire {
                core: 0,
                slot: 0,
                start: 0,
                end: 5,
            },
            miss(1, 9),
            Event::Lookup { latency: 1 },
        ];
        let mut fwd = MetricsSink::new();
        let mut rev = MetricsSink::new();
        for ev in &events {
            fwd.apply(ev);
        }
        for ev in events.iter().rev() {
            rev.apply(ev);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.stage_cycles(), (3, 40));
        assert_eq!(fwd.fill_waiters.sum(), 2);
        assert_eq!(fwd.hot_pages[&(0, 7)].tlb_misses, 1);
        assert_eq!(fwd.hot_pages[&(0, 7)].level_refs, [1, 0, 0, 1]);
        // The per-tenant slice only holds ASID 1's stage cycles.
        assert_eq!(fwd.asid_stages[&1].walk_queue.sum(), 3);
        assert!(!fwd.asid_stages.contains_key(&0));
    }

    #[test]
    fn top_pages_orders_by_misses_then_vpn() {
        let mut sink = MetricsSink::new();
        for (vpn, misses) in [(10u64, 2u64), (3, 5), (8, 2), (1, 1)] {
            for _ in 0..misses {
                sink.apply(&miss(0, vpn));
            }
        }
        let top: Vec<u64> = sink.top_pages(3).iter().map(|((_, v), _)| *v).collect();
        assert_eq!(top, vec![3, 8, 10]);
    }

    #[test]
    fn same_vpn_under_different_asids_is_two_pages() {
        let mut sink = MetricsSink::new();
        sink.apply(&miss(0, 5));
        sink.apply(&miss(1, 5));
        sink.apply(&miss(1, 5));
        assert_eq!(sink.hot_pages.len(), 2);
        assert_eq!(sink.hot_pages[&(0, 5)].tlb_misses, 1);
        assert_eq!(sink.hot_pages[&(1, 5)].tlb_misses, 2);
        // Ties break by (asid, vpn): ASID 1 leads on miss count.
        let top = sink.top_pages(2);
        assert_eq!(top[0].0, (1, 5));
        assert_eq!(top[1].0, (0, 5));
    }

    #[test]
    fn snapshot_json_is_deterministic_and_versioned() {
        let mut sink = MetricsSink::new();
        sink.apply(&miss(0, 42));
        sink.apply(&fill(0, 1, 9, 1));
        let mut reg = MetricsRegistry::new();
        reg.counter("core0.tlb.hits", 12);
        reg.gauge("core0.tlb.hit_rate", 0.75);
        reg.dist("mem.dram.latency", HistSummary::default());
        let a = sink.snapshot_json(&reg);
        let b = sink.snapshot_json(&reg);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"gmmu-metrics\""));
        assert!(a.contains("\"version\": 2"));
        assert!(a.contains("\"core0.tlb.hits\""));
        assert!(a.contains("\"asid\": 0, \"vpn\": 42"));
        assert!(a.contains("\"tenants\": ["));
    }

    #[test]
    fn metrics_ckpt_round_trips_and_enforces_shape() {
        let mut on = Metrics::recording();
        if let Metrics::On(sink) = &mut on {
            for ev in [
                Event::Lookup { latency: 3 },
                miss(0, 5),
                walk(0, 5, [2, 0, 0, 0]),
                fill(3, 2, 11, 1),
            ] {
                sink.apply(&ev);
            }
        }
        let mut w = Saver::new();
        on.save(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Metrics::recording();
        restored
            .load(&mut Loader::new(&bytes))
            .expect("round trip must load");
        assert_eq!(restored.sink(), on.sink());

        let mut off = Metrics::Off;
        assert!(off.load(&mut Loader::new(&bytes)).is_err());
    }
}
