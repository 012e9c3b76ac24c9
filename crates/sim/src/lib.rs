#![warn(missing_docs)]

//! Simulation substrate shared by every crate in the workspace.
//!
//! This crate deliberately has no external dependencies: everything a
//! cycle-level architecture simulator needs to be *deterministic and
//! reproducible* lives here.
//!
//! * [`codec`] — the hand-rolled binary codec (versioned, compact) that
//!   GMTR traces are written in.
//! * [`rng`] — counter-based and xoshiro PRNGs plus distributions
//!   (uniform, Zipf, permutations) that behave identically on every
//!   platform and toolchain.
//! * [`fault`] — deterministic fault injection (demand faults, delayed
//!   walks, transient rejections, shootdown storms) driven by the
//!   counter-based mixers, so fault schedules are reproducible.
//! * [`metrics`] — translation-lifecycle telemetry: a sink folding the
//!   observer's events into per-stage latency histograms and a hot-page
//!   table, and a labeled instrument registry rendered as versioned JSON.
//! * [`observe`] — the one typed event stream every instrumented site
//!   emits, the per-run `Observer` that folds it, and interval sampling.
//! * [`stats`] — counters, running means, and log-scale histograms used
//!   for every statistic the paper reports.
//! * [`table`] — plain-text/CSV table rendering for the figure harnesses.
//! * [`trace`] — the span buffer and its Chrome/Perfetto exporter.
//!
//! # Examples
//!
//! ```
//! use gmmu_sim::rng::Xoshiro256;
//! use gmmu_sim::stats::Histogram;
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let mut hist = Histogram::new();
//! for _ in 0..1000 {
//!     hist.record(rng.gen_range(0..32));
//! }
//! assert!(hist.mean() > 10.0 && hist.mean() < 21.0);
//! ```

pub mod codec;
pub mod fault;
pub mod metrics;
pub mod observe;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

/// A point in simulated time, measured in shader-core clock cycles.
///
/// All components of the simulator share one clock domain (the paper's
/// GPGPU-Sim configuration also runs the interconnect and L2 at ratios
/// we fold into fixed latencies).
pub type Cycle = u64;

/// The simulated clock never reaches this value; used as "infinitely far
/// in the future" for idle components.
pub const NEVER: Cycle = Cycle::MAX;
