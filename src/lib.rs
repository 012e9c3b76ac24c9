#![warn(missing_docs)]

//! **gmmu** — a cycle-level reproduction of *Architectural Support for
//! Address Translation on GPUs: Designing Memory Management Units for
//! CPU/GPUs with Unified Address Spaces* (Pichai, Hsu, Bhattacharjee;
//! ASPLOS 2014).
//!
//! The workspace builds, from scratch, every system the paper uses:
//!
//! * a SIMT GPU timing model ([`gmmu_simt`]) in the paper's GPGPU-Sim
//!   configuration — 30 cores, 48 warps/core, 32 KB L1s, a sliced L2
//!   over 8 DRAM channels;
//! * x86-64 virtual memory ([`gmmu_vm`]) — real 4-level page tables,
//!   4 KB and 2 MB pages, frame allocation;
//! * the paper's MMU designs ([`gmmu_core`]) — per-core TLBs with
//!   blocking/non-blocking modes, serial and coalescing page-table
//!   walkers, CCWS/TA-CCWS/TCWS scheduling, and the Common Page Matrix
//!   for TLB-aware thread block compaction;
//! * the six evaluation workloads ([`gmmu_workloads`]) rebuilt as
//!   deterministic SIMT kernels.
//!
//! This crate is the front door: [`experiments`] runs design points
//! against their no-TLB baseline, and [`figures`] regenerates every
//! figure of the paper's evaluation as a printable table (this
//! package's `gmmu` binary runs them: `gmmu fig NAME`, `gmmu all`).
//!
//! # Quick start
//!
//! ```no_run
//! use gmmu::experiments::{ExperimentOpts, Runner};
//! use gmmu::prelude::*;
//!
//! let mut runner = Runner::new(ExperimentOpts::quick());
//! let naive = runner.speedup(Bench::Bfs, |cfg| cfg.mmu = MmuModel::naive());
//! let augmented = runner.speedup(Bench::Bfs, |cfg| cfg.mmu = MmuModel::augmented());
//! assert!(naive < augmented);
//! println!("bfs: naive {naive:.2}×, augmented {augmented:.2}× of the no-TLB baseline");
//! ```

pub mod experiments;
pub mod figures;

/// The names most programs need.
pub mod prelude {
    pub use gmmu_core::ccws::PolicyKind;
    pub use gmmu_core::mmu::MmuModel;
    pub use gmmu_core::tlb::{TlbConfig, TlbMode};
    pub use gmmu_core::walker::WalkerConfig;
    pub use gmmu_sim::fault::FaultInjectConfig;
    pub use gmmu_sim::table::Table;
    pub use gmmu_simt::config::TbcConfig;
    pub use gmmu_simt::{
        FaultConfig, Gpu, GpuConfig, Observer, RunStats, StallBreakdown, StallCause,
    };
    pub use gmmu_vm::PageSize;
    pub use gmmu_workloads::{build, build_demand_paged, build_paged, Bench, Scale, Workload};
}

pub use experiments::{ExperimentOpts, PointRun, Runner};
