//! Span tracing with a Chrome/Perfetto exporter.
//!
//! The span buffer keeps the span variants of the one [`Event`] stream
//! (see [`crate::observe`]): TLB miss→fill, page walks, warp TLB sleeps,
//! and block residency. Each is emitted once, when its episode
//! completes, carrying its own start cycle, so no begin/end pairing
//! state is needed. Events stay typed and string-free in the buffer;
//! their names, categories, tracks and arguments exist only in the JSON
//! exporter.

use crate::ckpt::{Ckpt, CkptError, Loader, Saver};
use crate::observe::Event;

/// Track id for the per-core MMU (TLB fill spans).
const TID_MMU: u32 = 1000;
/// Base track id for page-walker tracks; track `i` is `TID_WALKER + i`.
const TID_WALKER: u32 = 1100;
/// Base track id for block slots; slot `s` is `TID_DISPATCH + s`.
const TID_DISPATCH: u32 = 1200;

/// In-memory span buffer that can serialize to the Chrome trace-event
/// format.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    events: Vec<Event>,
}

impl TraceBuffer {
    /// Appends `ev` unless it is a metrics-only event.
    pub fn push(&mut self, ev: Event) {
        if !matches!(ev, Event::Lookup { .. } | Event::Miss { .. }) {
            self.events.push(ev);
        }
    }

    /// All recorded span events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded spans.
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
    /// metrics sink) to a span trace. Each element of `extra` must be
    /// one complete JSON object without a trailing comma.
    pub fn to_chrome_json_with(&self, extra: &[String]) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            // (name, cat, pid, tid, start, end, args) of the span row.
            let (name, cat, pid, tid, start, end, args) = match *ev {
                Event::Walk {
                    core,
                    track,
                    vpn,
                    warp,
                    start,
                    end,
                    ..
                } => {
                    let args = [("vpn", vpn), ("warp", warp as u64)];
                    (
                        "page_walk",
                        "walker",
                        core,
                        TID_WALKER + track,
                        start,
                        end,
                        args,
                    )
                }
                Event::Fill {
                    core,
                    vpn,
                    warp,
                    enqueued,
                    complete,
                    ..
                } => {
                    let args = [("vpn", vpn), ("warp", warp as u64)];
                    ("tlb_miss", "mmu", core, TID_MMU, enqueued, complete, args)
                }
                Event::WarpSleep {
                    core,
                    warp,
                    vpn,
                    start,
                    end,
                } => {
                    let args = [("vpn", vpn), ("", 0)];
                    ("warp_sleep", "warp", core, warp as u32, start, end, args)
                }
                Event::BlockRetire {
                    core,
                    slot,
                    start,
                    end,
                } => {
                    let args = [("", 0); 2];
                    (
                        "block",
                        "dispatch",
                        core,
                        TID_DISPATCH + slot,
                        start,
                        end,
                        args,
                    )
                }
                Event::Lookup { .. } | Event::Miss { .. } => continue, // never buffered
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{",
                end - start
            );
            let live = args.iter().filter(|(k, _)| !k.is_empty());
            for (j, (k, v)) in live.enumerate() {
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
}

/// The span tracer an [`crate::observe::Observer`] carries.
/// [`Tracer::Off`] is the default and records nothing.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub enum Tracer {
    /// Tracing disabled.
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

    /// The underlying buffer, if recording.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        match self {
            Tracer::Off => None,
            Tracer::Buffer(b) => Some(b),
        }
    }
}

impl Ckpt for Tracer {
    fn save(&self, w: &mut Saver) {
        match self {
            Tracer::Off => w.u8(0),
            Tracer::Buffer(buf) => {
                w.u8(1);
                w.usize(buf.events.len());
                buf.events.iter().for_each(|ev| ev.save(w));
            }
        }
    }
    /// Restores into a tracer of the *same shape*: the caller attaches
    /// the instruments before loading, and a mismatch (checkpoint taken
    /// with tracing on, restored with it off, or vice versa) is an error
    /// rather than a silent divergence.
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        match (r.u8()?, self) {
            (0, Tracer::Off) => Ok(()),
            (1, Tracer::Buffer(buf)) => {
                buf.events.clear();
                for _ in 0..r.usize()? {
                    let mut ev = Event::Lookup { latency: 0 };
                    ev.load(r)?;
                    buf.events.push(ev);
                }
                Ok(())
            }
            _ => Err(CkptError::Corrupt(
                "tracer on/off state differs from the checkpoint",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILL: Event = Event::Fill {
        core: 3,
        asid: 0,
        vpn: 42,
        warp: 5,
        enqueued: 100,
        started: 110,
        complete: 350,
        waiters: 1,
    };
    const WALK: Event = Event::Walk {
        core: 3,
        track: 0,
        asid: 0,
        vpn: 42,
        warp: 5,
        start: 110,
        end: 310,
        levels: [4, 3, 2, 1],
    };
    const BLOCK: Event = Event::BlockRetire {
        core: 3,
        slot: 0,
        start: 0,
        end: 400,
    };

    fn buffer(events: &[Event]) -> TraceBuffer {
        let mut buf = TraceBuffer::default();
        events.iter().for_each(|&ev| buf.push(ev));
        buf
    }

    #[test]
    fn tracer_round_trips_through_checkpoint() {
        let t = Tracer::Buffer(buffer(&[FILL, WALK, BLOCK]));
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
        let mut obs = crate::observe::Observer::off();
        obs.record(|| unreachable!("closure must not run when tracing is off"));
        assert!(!obs.tracer.enabled());
        assert!(obs.tracer.buffer().is_none());
    }

    #[test]
    fn extra_args_are_dropped() {
        // Only vpn and warp reach a span row's args; the other fields of
        // a fill or walk (asid, waiters, levels, ...) are metrics inputs.
        let json = buffer(&[FILL, WALK]).to_chrome_json();
        assert_eq!(json.matches(r#""args":{"vpn":42,"warp":5}"#).count(), 2);
        for field in ["asid", "waiters", "levels", "enqueued", "started"] {
            assert!(!json.contains(field), "{field} leaked into span args");
        }
        let sleep = Event::WarpSleep {
            core: 3,
            warp: 5,
            vpn: 42,
            start: 0,
            end: 9,
        };
        assert!(buffer(&[sleep])
            .to_chrome_json()
            .contains(r#""args":{"vpn":42}}"#));
    }

    #[test]
    fn buffer_records_in_order() {
        let buf = buffer(&[BLOCK, Event::Miss { asid: 0, vpn: 7 }, FILL]);
        assert_eq!(buf.events(), &[BLOCK, FILL]);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let json = buffer(&[FILL, BLOCK]).to_chrome_json();
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
        let buf = buffer(&[WALK]);
        let rows = vec![
            "{\"name\":\"walk_queue\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"args\":{\"cycles\":3}}"
                .to_string(),
            "{\"name\":\"walk_active\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"args\":{\"cycles\":7}}"
                .to_string(),
        ];
        let json = buf.to_chrome_json_with(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"ph\":\"C\""));
        // Span row gains a comma; the two counter rows are separated by
        // one more; the final row has none.
        assert_eq!(json.matches("},\n").count(), 2);
        // Empty extras must render byte-identically to the plain form.
        assert_eq!(buf.to_chrome_json(), buf.to_chrome_json_with(&[]));
    }
}
