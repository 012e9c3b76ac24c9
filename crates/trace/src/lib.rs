#![warn(missing_docs)]

//! GMTR trace capture and replay.
//!
//! The simulator's kernels supply data-dependent behaviour (memory
//! addresses, branch outcomes) as pure functions of
//! `(thread, site, iteration)`. That purity makes traces trivially
//! sufficient: record every answer a kernel gives during one run
//! ([`capture::Recorder`]), and a kernel reconstructed from those
//! answers ([`replay::TraceKernel`]) is indistinguishable to the
//! simulator — either drive loop replays the captured run bit-identically,
//! which `tests/trace.rs` enforces.
//!
//! The on-disk format (`GMTR` v2, [`format`]) is self-contained: one
//! file carries the machine configuration, program, address-space
//! layout, record stream, and the captured run's statistics, and the
//! reader refuses foreign, truncated, corrupt, or future-versioned
//! files with a typed [`gmmu_sim::codec::CodecError`], never a panic.

pub mod capture;
pub mod format;
pub mod replay;

pub use capture::{assemble, capture_launch, Recorder};
pub use format::{Trace, TraceLaunch, TraceRecord, TRACE_MAGIC, TRACE_VERSION, WARP_LANES};
pub use replay::{
    rebuild_space, replay_run, replay_run_observed, snapshot_space, SpaceSnapshot, TraceKernel,
};
