#![warn(missing_docs)]

//! Cycle-level SIMT GPU timing model.
//!
//! The evaluation substrate of the reproduction: a from-scratch model of
//! the paper's GPGPU-Sim configuration (Section 5.2) — 30 SIMT cores,
//! 32-thread warps, 48 warps per core, per-core 32 KB L1 data caches, a
//! shared sliced L2 over 8 memory channels — with the paper's per-core
//! MMU (TLB + page-table walker from [`gmmu_core`]) dropped in next to
//! each L1.
//!
//! * [`program`] — the kernel IR: straight-line ops, memory sites, and
//!   structured branches executed by all threads in SIMT fashion, plus
//!   the [`program::Kernel`] trait workloads implement (addresses and
//!   branch outcomes as *pure functions* of thread/site/iteration, so
//!   dynamic warp formation can regroup threads freely).
//! * [`stack`] — per-warp SIMT reconvergence stacks (the baseline
//!   divergence mechanism).
//! * [`coalesce`] — the memory unit's address generator/coalescer,
//!   producing unique 128-byte lines *and unique virtual pages* per warp
//!   memory instruction (the pre-TLB coalescing of Figure 5).
//! * [`core`] — the shader core pipeline: warp scheduling (round robin
//!   with optional CCWS/TA-CCWS/TCWS throttling), TLB-parallel L1
//!   access, replay on TLB miss, per-warp in-order issue.
//! * [`tbc`] — thread block compaction with block-wide reconvergence
//!   stacks and lane-preserving dynamic warp formation, plus the
//!   TLB-aware variant driven by the Common Page Matrix.
//! * [`gpu`] — the whole GPU: block dispatch, the global cycle loop,
//!   aggregate statistics ([`gpu::RunStats`]).
//! * [`stall`] — idle-cycle attribution by dominant stall cause.
//! * [`observe`] — per-run observation (re-exported from
//!   [`gmmu_sim::observe`]): the one event stream folded into span
//!   traces, metrics and interval time-series, all zero-cost when off.

pub mod coalesce;
pub mod config;
pub mod core;
pub mod gpu;
pub mod program;
pub mod stack;
pub mod stall;
pub mod tbc;

pub use config::{CoreTimings, FaultConfig, GpuConfig};
pub use gmmu_sim::observe::{self, IntervalRecorder, IntervalSample, Observer};
pub use gpu::{Gpu, RunStats, TenantJob, TenantPolicy, TenantStats};
pub use program::{Kernel, MemKind, Op, Program};
pub use stack::SimtStack;
pub use stall::{StallBreakdown, StallCause};
