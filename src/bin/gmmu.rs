//! `gmmu`: the paper's evaluation behind one command line.
//!
//! ```text
//! gmmu fig NAME [--csv]   one entry of gmmu::figures::REGISTRY
//! gmmu all                every figure in paper order, points batched
//! gmmu replay PATH        replay one GMTR trace and diff its stats
//! ```
//!
//! Run it from the repository root with `cargo run --release --bin
//! gmmu -- all`. Every subcommand takes the scope (`--quick`, `--full`,
//! `--jobs N`) and observability options; `gmmu --help` lists them.
//! Conformance (capture/replay, fault injection, golden tables) is
//! checked by `cargo test`, not by this binary. `gmmu all` also writes
//! `BENCH_all_figures.json`, the per-point wall times and sim-cycles/s
//! that CI's throughput floors read (`ci/figure_floors.txt`).
//! `EXPERIMENTS.md` records paper-reported vs. measured values.

use gmmu::experiments::{run_replay, Cli, Command};
use gmmu::figures::{Figure, REGISTRY};
use gmmu::prelude::*;
use gmmu::{ExperimentOpts, Runner};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    let Cli { command, opts, csv } = Cli::from_args();
    match command {
        Command::Fig(figure) => fig(figure, opts, csv),
        Command::All => all(opts, csv),
        Command::Replay(path) => run_replay(opts, path),
    }
}

fn print_tables(tables: Vec<Table>, csv: bool) {
    for table in tables {
        println!("{table}");
        if csv {
            print!("{}", table.to_csv());
            println!();
        }
    }
}

/// `gmmu fig NAME`: one registry entry, its design points swept on the
/// worker pool. A figure that simulates nothing has no point to observe,
/// so an observation output asked of it exits 1 rather than going
/// missing.
fn fig(figure: &Figure, opts: ExperimentOpts, csv: bool) {
    let started = Instant::now();
    let mut runner = Runner::new(opts);
    let tables = runner.sweep(figure.tables);
    if runner.runs == 0 && opts.observes() {
        eprintln!("[{}] has no design point to observe", figure.name);
        std::process::exit(1);
    }
    print_tables(tables, csv);
    let (name, runs, wall) = (figure.name, runner.runs, started.elapsed());
    eprintln!("[{name}] {runs} simulations in {wall:.1?}");
}

/// `gmmu all`: every registry entry `in_all`, in order, in three passes.
/// A *recording* pass asks each figure for its design points without
/// simulating anything, the union of those points (deduplicated across
/// figures) runs as one parallel batch, and a *print* pass regenerates
/// each figure from the warm memo cache. A timing report goes to
/// `BENCH_all_figures.json`.
fn all(opts: ExperimentOpts, csv: bool) {
    let mut runner = Runner::new(opts);
    let started = Instant::now();
    let figs: Vec<&Figure> = REGISTRY.iter().filter(|f| f.in_all).collect();

    // Recording pass. `sims` counts the points a figure contributes
    // beyond those already requested by an earlier figure.
    let mut union = Vec::new();
    let mut seen = HashSet::new();
    let mut sims_per_fig = Vec::new();
    for figure in &figs {
        let (_, specs) = runner.record(figure.tables);
        sims_per_fig.push(specs.iter().filter(|s| seen.insert(s.key())).count());
        union.extend(specs);
    }

    // One parallel batch over the whole evaluation.
    let t_batch = Instant::now();
    runner.run_points_parallel(union);
    let batch_wall = t_batch.elapsed();

    // Print pass: every figure from the warm cache.
    let mut figures = Vec::new();
    for (figure, sims) in figs.iter().zip(sims_per_fig) {
        let t0 = Instant::now();
        print_tables((figure.tables)(&mut runner), csv);
        let wall = t0.elapsed();
        eprintln!("[{}] done in {wall:.1?}", figure.name);
        figures.push(format!(
            "    {{\"name\": \"{}\", \"sims\": {sims}, \"replay_wall_s\": {:.3}}}",
            figure.name,
            wall.as_secs_f64()
        ));
    }

    let total_wall = started.elapsed();
    let sims_per_sec = runner.runs as f64 / batch_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "[all] {} simulations in {:.1?} ({} jobs, {:.1} sims/s)",
        runner.runs, total_wall, opts.jobs, sims_per_sec,
    );

    let points: Vec<String> = runner
        .point_log
        .iter()
        .map(|p| {
            format!(
                "    {{\"bench\": \"{}\", \"large_pages\": {}, \
                 \"fingerprint\": \"{:016x}\", \"engine\": \"{}\", \
                 \"scheduler\": \"{}\", \"tlb\": \"{}\", \
                 \"wall_s\": {:.4}, \"cycles\": {}, \
                 \"sim_cycles_per_sec\": {:.0}, \"observed\": {}}}",
                p.bench,
                p.large_pages,
                p.fingerprint,
                p.engine,
                p.scheduler,
                p.tlb,
                p.wall_s,
                p.cycles,
                p.sim_cycles_per_sec,
                p.observed,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": \"{:?}\",\n  \"jobs\": {},\n  \"total_sims\": {},\n  \
         \"batch_wall_s\": {:.3},\n  \"wall_s\": {:.3},\n  \"sims_per_sec\": {:.3},\n  \
         \"figures\": [\n{}\n  ],\n  \"points\": [\n{}\n  ]\n}}\n",
        opts.scale,
        opts.jobs,
        runner.runs,
        batch_wall.as_secs_f64(),
        total_wall.as_secs_f64(),
        sims_per_sec,
        figures.join(",\n"),
        points.join(",\n"),
    );
    match std::fs::write("BENCH_all_figures.json", &json) {
        Ok(()) => eprintln!("[all] wrote BENCH_all_figures.json"),
        Err(e) => eprintln!("[all] could not write BENCH_all_figures.json: {e}"),
    }
}
