//! Command-line front ends for the ASPLOS 2014 GPU MMU paper
//! reproduction.
//!
//! `gmmu` regenerates the paper's evaluation, one subcommand per mode:
//!
//! ```text
//! cargo run --release -p gmmu-bench --bin gmmu -- fig fig02          # Figure 2
//! cargo run --release -p gmmu-bench --bin gmmu -- all                # everything
//! cargo run --release -p gmmu-bench --bin gmmu -- fig fig06 --quick  # smoke scale
//! ```
//!
//! `fig` and `all` run the entries of [`gmmu::figures::REGISTRY`];
//! `replay` re-runs a captured GMTR trace and diffs its statistics.
//! Conformance (capture/replay, fault injection, golden fixtures) is
//! checked by `cargo test`, not by this binary. `gmmu all` also writes
//! `BENCH_all_figures.json`, the per-point wall times and sim-cycles/s
//! that CI's throughput floors read (`ci/figure_floors.txt`).
//! `EXPERIMENTS.md` in the repository root records paper-reported vs.
//! measured values.
