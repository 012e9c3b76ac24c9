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
use gmmu::figures::{Figure, Source, REGISTRY};
use gmmu::prelude::*;
use gmmu::{ExperimentOpts, Runner};
use std::collections::HashSet;
use std::fmt::Write as _;
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
/// worker pool.
fn fig(figure: &Figure, opts: ExperimentOpts, csv: bool) {
    let started = Instant::now();
    let (tables, sims) = match figure.source {
        Source::Sweep(f) => {
            let mut runner = Runner::new(opts);
            let tables = runner.sweep(f);
            (tables, Some(runner.runs))
        }
        Source::Scope(f) => (f(&opts), None),
    };
    print_tables(tables, csv);
    if let (Some(path), Some(snapshot)) = (opts.metrics, figure.metrics) {
        match std::fs::write(path, snapshot(&opts)) {
            Ok(()) => eprintln!("[{}] wrote metrics to {path}", figure.name),
            Err(e) => {
                eprintln!("[{}] cannot write {path}: {e}", figure.name);
                std::process::exit(1);
            }
        }
    }
    let wall = started.elapsed();
    match sims {
        Some(n) => eprintln!("[{}] {n} simulations in {wall:.1?}", figure.name),
        None => eprintln!("[{}] done in {wall:.1?}", figure.name),
    }
}

/// `gmmu all`: every registry entry `in_all`, in order, in three passes.
/// A *recording* pass asks each swept figure for its design points
/// without simulating anything, the union of those points (deduplicated
/// across figures) runs as one parallel batch, and a *print* pass
/// regenerates each figure from the warm memo cache. Scope entries run
/// only in the print pass. A timing report goes to
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
        let mut fresh = 0;
        if let Source::Sweep(f) = figure.source {
            let (_, specs) = runner.record(f);
            fresh = specs.iter().filter(|s| seen.insert(s.key())).count();
            union.extend(specs);
        }
        sims_per_fig.push(fresh);
    }

    // One parallel batch over the whole evaluation.
    let t_batch = Instant::now();
    runner.run_points_parallel(union);
    let batch_wall = t_batch.elapsed();

    // Print pass: swept figures from the warm cache.
    let mut fig_walls = Vec::new();
    for figure in &figs {
        let t0 = Instant::now();
        let tables = match figure.source {
            Source::Sweep(f) => f(&mut runner),
            Source::Scope(f) => f(&opts),
        };
        print_tables(tables, csv);
        let wall = t0.elapsed();
        eprintln!("[{}] done in {wall:.1?}", figure.name);
        fig_walls.push(wall);
    }

    let total_wall = started.elapsed();
    let sims_per_sec = runner.runs as f64 / batch_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "[all] {} simulations in {:.1?} ({} jobs, {:.1} sims/s)",
        runner.runs, total_wall, opts.jobs, sims_per_sec,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scale\": \"{:?}\",", opts.scale);
    let _ = writeln!(json, "  \"jobs\": {},", opts.jobs);
    let _ = writeln!(json, "  \"total_sims\": {},", runner.runs);
    let _ = writeln!(json, "  \"batch_wall_s\": {:.3},", batch_wall.as_secs_f64());
    let _ = writeln!(json, "  \"wall_s\": {:.3},", total_wall.as_secs_f64());
    let _ = writeln!(json, "  \"sims_per_sec\": {sims_per_sec:.3},");
    let _ = writeln!(json, "  \"figures\": [");
    for (i, figure) in figs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"sims\": {}, \"replay_wall_s\": {:.3}}}{}",
            figure.name,
            sims_per_fig[i],
            fig_walls[i].as_secs_f64(),
            if i + 1 < figs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in runner.point_log.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"bench\": \"{:?}\", \"large_pages\": {}, \
             \"fingerprint\": \"{:016x}\", \"engine\": \"{}\", \
             \"scheduler\": \"{}\", \"tlb\": \"{}\", \
             \"wall_s\": {:.4}, \"cycles\": {}, \
             \"sim_cycles_per_sec\": {:.0}, \"observed\": {}}}{}",
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
            if i + 1 < runner.point_log.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match std::fs::write("BENCH_all_figures.json", &json) {
        Ok(()) => eprintln!("[all] wrote BENCH_all_figures.json"),
        Err(e) => eprintln!("[all] could not write BENCH_all_figures.json: {e}"),
    }
}
