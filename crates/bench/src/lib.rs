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
//! `validate`, `replay` and `fault-inject` are the trace-conformance,
//! trace-replay and fault-injection harnesses. `hotpath` is a separate
//! binary: it microbenchmarks the simulator's hot paths under a counting
//! global allocator. `EXPERIMENTS.md` in the repository root records
//! paper-reported vs. measured values.
