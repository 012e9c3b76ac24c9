//! Zero-cost event tracing with a Chrome/Perfetto exporter.
//!
//! The simulator emits *spans* (name, track, start cycle, duration) for
//! interesting episodes: TLB miss→fill, per-lane page walks, warp TLB
//! sleeps, and block residency. All spans are recorded retrospectively at
//! the moment the episode completes — the simulator already carries the
//! start cycle (`WalkDone::enqueued`, `Pending::slept_at`, dispatch
//! stamps), so no begin/end pairing state is needed.
//!
//! Dispatch is a two-variant enum rather than a generic parameter so the
//! simulator keeps a single monomorphization. The off path costs one
//! predictable branch per *event site* (not per cycle): [`Tracer::record`]
//! takes a closure, so event construction is never executed when tracing
//! is off, and event sites only exist on miss/fill/wake/dispatch paths
//! that are already off the hot per-cycle loop.

use crate::Cycle;

/// Track id for the per-core MMU (TLB fill spans).
pub const TID_MMU: u32 = 1000;
/// Base track id for page-walker lanes; lane `i` is `TID_WALKER + i`.
pub const TID_WALKER: u32 = 1100;
/// Base track id for block slots; slot `s` is `TID_DISPATCH + s`.
pub const TID_DISPATCH: u32 = 1200;

/// One completed span. `pid` is the core id, `tid` the track within the
/// core (warp index, walker lane, block slot, ...). Fixed-size argument
/// storage keeps events `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process id in the Chrome trace model: the core index.
    pub pid: u32,
    /// Thread id in the Chrome trace model: the track within the core.
    pub tid: u32,
    /// Span name, e.g. `"tlb_miss"`.
    pub name: &'static str,
    /// Span category, e.g. `"mmu"`.
    pub cat: &'static str,
    /// Cycle the episode began.
    pub start: Cycle,
    /// Episode length in cycles.
    pub dur: Cycle,
    /// Up to two key/value arguments; only the first `n_args` are live.
    pub args: [(&'static str, u64); 2],
    /// Number of live entries in `args`.
    pub n_args: u8,
}

impl TraceEvent {
    /// A span with no arguments.
    pub fn span(
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        start: Cycle,
        dur: Cycle,
    ) -> Self {
        TraceEvent {
            pid,
            tid,
            name,
            cat,
            start,
            dur,
            args: [("", 0); 2],
            n_args: 0,
        }
    }

    /// Attaches one argument (up to two; extras are dropped).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if (self.n_args as usize) < self.args.len() {
            self.args[self.n_args as usize] = (key, value);
            self.n_args += 1;
        }
        self
    }
}

/// Anything that can receive completed spans.
pub trait TraceSink {
    /// Delivers one completed span.
    fn event(&mut self, ev: TraceEvent);
}

/// In-memory sink that can serialize to the Chrome trace-event format.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceSink for TraceBuffer {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

impl TraceBuffer {
    /// All recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the Chrome trace-event JSON array format understood
    /// by Perfetto and chrome://tracing. Cycles map 1:1 to microseconds
    /// (`ts`/`dur`), so the UI's "us" readout is really cycles.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with(&[])
    }

    /// [`TraceBuffer::to_chrome_json`] with extra pre-rendered JSON
    /// objects spliced in after the span rows — used to add `"ph":"C"`
    /// counter-track samples (e.g. per-stage walk latency from the
    /// metrics channel) to a span trace. Each element of `extra` must be
    /// one complete JSON object without a trailing comma.
    pub fn to_chrome_json_with(&self, extra: &[String]) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                ev.name, ev.cat, ev.start, ev.dur, ev.pid, ev.tid
            );
            for (j, (k, v)) in ev.args[..ev.n_args as usize].iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            let tail = if i + 1 == self.events.len() && extra.is_empty() {
                "}}"
            } else {
                "}},"
            };
            out.push_str(tail);
            out.push('\n');
        }
        for (j, row) in extra.iter().enumerate() {
            out.push_str(row);
            if j + 1 != extra.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// Writes the Chrome trace JSON to `path`.
    pub fn write_chrome_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Enum-dispatched tracer handed through the simulator. [`Tracer::Off`]
/// is the default and records nothing; the closure passed to
/// [`Tracer::record`] is never invoked in that case.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub enum Tracer {
    /// Tracing disabled; all event sites reduce to one branch.
    #[default]
    Off,
    /// Tracing into an in-memory buffer.
    Buffer(TraceBuffer),
}

impl Tracer {
    /// A tracer recording into a fresh buffer.
    pub fn recording() -> Self {
        Tracer::Buffer(TraceBuffer::default())
    }

    /// Whether events are being recorded.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Tracer::Off)
    }

    /// Records the event built by `f`, or does nothing when off. `f` is
    /// only evaluated when a sink is attached.
    #[inline(always)]
    pub fn record(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Tracer::Buffer(buf) = self {
            buf.event(f());
        }
    }

    /// The underlying buffer, if recording.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        match self {
            Tracer::Off => None,
            Tracer::Buffer(b) => Some(b),
        }
    }
}

/// The span names, categories, and argument keys the simulator emits.
/// Checkpoint restore maps serialized strings back onto these statics so
/// a restored trace compares pointer-for-pointer equal to a live one;
/// unknown strings (from a newer writer) are leaked once instead.
const INTERNED: &[&str] = &[
    "",
    "tlb_miss",
    "page_walk",
    "warp_sleep",
    "block",
    "mmu",
    "walker",
    "warp",
    "dispatch",
    "vpn",
];

fn intern(s: &str) -> &'static str {
    for &k in INTERNED {
        if k == s {
            return k;
        }
    }
    Box::leak(s.to_owned().into_boxed_str())
}

impl crate::ckpt::Ckpt for TraceEvent {
    fn save(&self, w: &mut crate::ckpt::Saver) {
        w.u32(self.pid);
        w.u32(self.tid);
        w.str(self.name);
        w.str(self.cat);
        w.u64(self.start);
        w.u64(self.dur);
        w.u8(self.n_args);
        for (k, v) in &self.args {
            w.str(k);
            w.u64(*v);
        }
    }
    fn load(&mut self, r: &mut crate::ckpt::Loader<'_>) -> Result<(), crate::ckpt::CkptError> {
        self.pid = r.u32()?;
        self.tid = r.u32()?;
        self.name = intern(r.str()?);
        self.cat = intern(r.str()?);
        self.start = r.u64()?;
        self.dur = r.u64()?;
        self.n_args = r.u8()?;
        for slot in &mut self.args {
            let k = intern(r.str()?);
            let v = r.u64()?;
            *slot = (k, v);
        }
        Ok(())
    }
}

impl crate::ckpt::Ckpt for TraceBuffer {
    fn save(&self, w: &mut crate::ckpt::Saver) {
        self.events.save(w);
    }
    fn load(&mut self, r: &mut crate::ckpt::Loader<'_>) -> Result<(), crate::ckpt::CkptError> {
        self.events.load(r)
    }
}

impl crate::ckpt::Ckpt for Tracer {
    fn save(&self, w: &mut crate::ckpt::Saver) {
        match self {
            Tracer::Off => w.u8(0),
            Tracer::Buffer(buf) => {
                w.u8(1);
                buf.save(w);
            }
        }
    }
    /// Restores into a tracer of the *same shape*: the caller attaches
    /// the instruments before loading, and a mismatch (checkpoint taken
    /// with tracing on, restored with it off, or vice versa) is an error
    /// rather than a silent divergence.
    fn load(&mut self, r: &mut crate::ckpt::Loader<'_>) -> Result<(), crate::ckpt::CkptError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, Tracer::Off) => Ok(()),
            (1, Tracer::Buffer(buf)) => buf.load(r),
            _ => Err(crate::ckpt::CkptError::Corrupt(
                "tracer on/off state differs from the checkpoint",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_round_trips_through_checkpoint() {
        use crate::ckpt::{Ckpt, Loader, Saver};
        let mut t = Tracer::recording();
        t.record(|| TraceEvent::span("tlb_miss", "mmu", 3, TID_MMU, 100, 250).arg("vpn", 42));
        t.record(|| TraceEvent::span("page_walk", "walker", 3, TID_WALKER, 110, 200));
        let mut w = Saver::new();
        t.save(&mut w);
        let bytes = w.into_bytes();

        let mut back = Tracer::recording();
        back.load(&mut Loader::new(&bytes)).unwrap();
        assert_eq!(t, back);

        // Shape mismatch is an error, not silence.
        let mut off = Tracer::Off;
        assert!(off.load(&mut Loader::new(&bytes)).is_err());
    }

    #[test]
    fn off_tracer_never_builds_events() {
        let mut t = Tracer::Off;
        t.record(|| unreachable!("closure must not run when tracing is off"));
        assert!(!t.enabled());
        assert!(t.buffer().is_none());
    }

    #[test]
    fn buffer_records_in_order() {
        let mut t = Tracer::recording();
        t.record(|| TraceEvent::span("a", "c", 0, 1, 10, 5));
        t.record(|| TraceEvent::span("b", "c", 0, 2, 12, 3).arg("vpn", 7));
        let buf = t.buffer().unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.events()[0].name, "a");
        assert_eq!(buf.events()[1].args[0], ("vpn", 7));
        assert_eq!(buf.events()[1].n_args, 1);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Tracer::recording();
        t.record(|| {
            TraceEvent::span("tlb_miss", "mmu", 3, TID_MMU, 100, 250)
                .arg("vpn", 42)
                .arg("warp", 5)
        });
        t.record(|| TraceEvent::span("page_walk", "walker", 3, TID_WALKER, 110, 200));
        let json = t.buffer().unwrap().to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(r#""name":"tlb_miss""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ts":100,"dur":250"#));
        assert!(json.contains(r#""args":{"vpn":42,"warp":5}"#));
        assert!(json.contains(r#""args":{}"#));
        // Exactly one comma-separated top-level list: last entry has no comma.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn chrome_json_with_counter_rows_stays_well_formed() {
        let mut t = Tracer::recording();
        t.record(|| TraceEvent::span("a", "c", 0, 1, 10, 5));
        let rows = vec![
            "{\"name\":\"walk_queue\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"args\":{\"cycles\":3}}"
                .to_string(),
            "{\"name\":\"walk_active\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"args\":{\"cycles\":7}}"
                .to_string(),
        ];
        let json = t.buffer().unwrap().to_chrome_json_with(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"ph\":\"C\""));
        // Span row gains a comma; the two counter rows are separated by
        // one more; the final row has none.
        assert_eq!(json.matches("},\n").count(), 2);
        // Empty extras must render byte-identically to the plain form.
        assert_eq!(
            t.buffer().unwrap().to_chrome_json(),
            t.buffer().unwrap().to_chrome_json_with(&[])
        );
    }

    #[test]
    fn extra_args_are_dropped() {
        let ev = TraceEvent::span("x", "c", 0, 0, 0, 1)
            .arg("a", 1)
            .arg("b", 2)
            .arg("c", 3);
        assert_eq!(ev.n_args, 2);
        assert_eq!(ev.args, [("a", 1), ("b", 2)]);
    }
}
