//! `gmmu`: the paper's evaluation behind one command line.
//!
//! ```text
//! gmmu fig NAME [--csv]   one entry of gmmu::figures::REGISTRY
//! gmmu all                every figure in paper order, points batched
//! gmmu validate           trace capture/replay conformance matrix
//! gmmu replay PATH        replay one GMTR trace and diff its stats
//! gmmu fault-inject       demand-paged and mixed-fault runs
//! ```
//!
//! Every subcommand takes the scope (`--quick`, `--full`, `--jobs N`),
//! observability and journal options; `gmmu --help` lists them.

use gmmu::experiments::{designs, run_fault_injection, run_replay, Cli, Command};
use gmmu::figures::{Figure, Source, REGISTRY};
use gmmu::prelude::*;
use gmmu::{ExperimentOpts, Runner};
use gmmu_sim::metrics::Metrics;
use gmmu_sim::rng::fnv1a64;
use gmmu_trace::{assemble, capture_launch, replay_run_observed, Recorder, Trace};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let Cli { command, opts, csv } = Cli::from_args();
    match command {
        Command::Fig(figure) => fig(figure, opts, csv),
        Command::All => all(opts, csv),
        Command::Validate => validate(opts),
        Command::Replay(path) => run_replay(opts, path),
        Command::FaultInject => run_fault_injection(opts),
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

    // One parallel batch over the whole evaluation. With `--journal`
    // this is a restartable queue: points already journaled are skipped
    // and each fresh point is journaled the moment it completes, so a
    // killed run (or `--kill-after N`) resumes without recompute.
    let t_batch = Instant::now();
    runner.run_points_parallel(union);
    let batch_wall = t_batch.elapsed();

    // A shard worker only fills its slice of the journal; printing the
    // figures would simulate every other shard's points on demand. The
    // final merge run (same --journal, no --shard) prints.
    if let Some((i, n)) = opts.shard {
        if n > 1 {
            eprintln!(
                "[all] shard {i}/{n}: {} point(s) simulated, {} from the journal; \
                 run unsharded with the same --journal to print the figures",
                runner.runs, runner.journal_hits
            );
            return;
        }
    }

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
    let _ = writeln!(json, "  \"journal_hits\": {},", runner.journal_hits);
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
             \"wall_s\": {:.4}, \"cycles\": {}, \
             \"sim_cycles_per_sec\": {:.0}, \"observed\": {}}}{}",
            p.bench,
            p.large_pages,
            p.fingerprint,
            p.engine,
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

/// Captures `bench` under `cfg` at the harness scope, returning the
/// encoded trace.
fn capture(bench: Bench, scale: Scale, seed: u64, cfg: &GpuConfig, source: &str) -> Vec<u8> {
    let mut w = match &cfg.inject {
        Some(inj) if inj.unmap_fraction > 0.0 => build_demand_paged(bench, scale, seed, inj).0,
        _ => build(bench, scale, seed),
    };
    let launch = capture_launch(w.kernel.as_ref(), &w.space, cfg, source);
    let rec = Recorder::new(w.kernel.as_ref());
    let stats = Gpu::new(cfg.clone()).run_faulted(&rec, &mut w.space, &mut Observer::off());
    assemble(launch, rec, &stats).encode()
}

struct Row {
    bench: &'static str,
    variant: &'static str,
    drive_loop: &'static str,
    cycles: u64,
    wall_s: f64,
    diff: Vec<&'static str>,
    /// FNV-1a 64 of the replay's metrics snapshot JSON; equal across
    /// the two loops when the snapshot is loop-invariant.
    metrics_fnv: u64,
}

/// `gmmu validate`: for every benchmark, captures a GMTR trace of one
/// run and replays it under both drive loops (the idle-skipping loop and
/// the per-cycle referee), with and without deterministic fault
/// injection, metrics channel on. Every replay must reproduce the
/// captured run's statistics bit-identically (wall time excluded), and
/// the two loops' metrics snapshots must be byte-identical; any
/// difference is listed and exits 1. Writes `BENCH_validate.json`.
///
/// With `GMMU_EMIT_GOLDEN=dir` it first writes the golden fixtures
/// `tests/trace.rs` pins the byte format against ([`emit_golden`]).
fn validate(opts: ExperimentOpts) {
    if let Ok(dir) = std::env::var("GMMU_EMIT_GOLDEN") {
        emit_golden(&dir);
    }

    println!(
        "validate: capture/replay conformance at {:?} scale, seed {}",
        opts.scale, opts.seed
    );
    println!(
        "{:<14} {:<7} {:<10} {:>12} {:>8}  status",
        "bench", "run", "loop", "cycles", "wall_s"
    );

    let loops = [("skip", false), ("per-cycle", true)];
    let mut rows: Vec<Row> = Vec::new();
    let mut failures = 0u32;
    let mut metrics_failures = 0u32;
    for bench in Bench::all() {
        let plain = opts.gpu(designs::augmented());
        let mut faulted = opts.gpu(designs::augmented());
        faulted.fault = FaultConfig::demand();
        faulted.inject = Some(FaultInjectConfig::smoke(opts.fault_seed));
        for (variant, cfg) in [("plain", plain), ("fault", faulted)] {
            let source = format!("{bench} {:?} seed={} ({variant})", opts.scale, opts.seed);
            let bytes = capture(bench, opts.scale, opts.seed, &cfg, &source);
            let trace = Trace::decode(&bytes).expect("a just-captured trace must decode");
            let mut snapshots: Vec<String> = Vec::with_capacity(loops.len());
            for (loop_name, tick_every_cycle) in loops {
                let mut replay_cfg = trace.launch.config.clone();
                replay_cfg.tick_every_cycle = tick_every_cycle;
                let mut obs = Observer::off();
                obs.metrics = Metrics::recording();
                let started = Instant::now();
                let (stats, snapshot) = replay_run_observed(&trace, &replay_cfg, &mut obs)
                    .expect("a just-captured trace must replay");
                let wall_s = started.elapsed().as_secs_f64();
                let snapshot = snapshot.expect("the metrics channel was on");
                let diff = trace.stats.diff(&stats);
                let status = if diff.is_empty() {
                    "ok".to_string()
                } else {
                    failures += 1;
                    format!("DIFF {diff:?}")
                };
                println!(
                    "{:<14} {:<7} {:<10} {:>12} {:>8.2}  {status}",
                    bench.name(),
                    variant,
                    loop_name,
                    stats.cycles,
                    wall_s
                );
                rows.push(Row {
                    bench: bench.name(),
                    variant,
                    drive_loop: loop_name,
                    cycles: stats.cycles,
                    wall_s,
                    diff,
                    metrics_fnv: fnv1a64(snapshot.as_bytes()),
                });
                snapshots.push(snapshot);
            }
            // The snapshot is a pure fold of the run's metric events, so
            // both loops must render byte-identical JSON.
            if snapshots.iter().any(|s| s != &snapshots[0]) {
                metrics_failures += 1;
                eprintln!(
                    "validate: metrics snapshots diverged across loops \
                     for {} ({variant})",
                    bench.name()
                );
            }
        }
    }

    let json = to_json(&opts, &rows, failures, metrics_failures);
    match std::fs::write("BENCH_validate.json", &json) {
        Ok(()) => eprintln!("[validate] wrote BENCH_validate.json"),
        Err(e) => eprintln!("[validate] could not write BENCH_validate.json: {e}"),
    }
    if failures > 0 || metrics_failures > 0 {
        if failures > 0 {
            eprintln!("validate: {failures} replay(s) diverged from their capture");
        }
        if metrics_failures > 0 {
            eprintln!("validate: {metrics_failures} capture(s) with loop-variant metrics");
        }
        std::process::exit(1)
    }
    println!(
        "validate: {} replays, all statistics bit-identical to capture, \
         all metrics snapshots loop-invariant",
        rows.len()
    );
}

fn to_json(opts: &ExperimentOpts, rows: &[Row], failures: u32, metrics_failures: u32) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"scale\": \"{:?}\",", opts.scale);
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"failures\": {failures},");
    let _ = writeln!(s, "  \"metrics_failures\": {metrics_failures},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let diff: Vec<String> = r.diff.iter().map(|d| format!("\"{d}\"")).collect();
        let _ = writeln!(
            s,
            "    {{\"bench\": \"{}\", \"variant\": \"{}\", \"loop\": \"{}\", \
             \"cycles\": {}, \"wall_s\": {:.4}, \"ok\": {}, \"diff\": [{}], \
             \"metrics_snapshot_fnv\": \"{:016x}\"}}{}",
            r.bench,
            r.variant,
            r.drive_loop,
            r.cycles,
            r.wall_s,
            r.diff.is_empty(),
            diff.join(", "),
            r.metrics_fnv,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Writes the golden fixtures `tests/trace.rs` pins the byte format
/// against: quick scope (Tiny scale), seed 7, augmented MMU — exactly
/// the configuration the golden test re-captures under. Alongside the
/// traces it writes `metrics_pathfinder_tiny.json`, the metrics-on
/// replay snapshot of the pathfinder fixture, which pins the snapshot
/// JSON schema the same way.
fn emit_golden(dir: &str) {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    for (bench, name) in [
        (Bench::Pathfinder, "pathfinder_tiny"),
        (Bench::Kmeans, "kmeans_tiny"),
    ] {
        let source = format!("{bench} tiny seed=7");
        let bytes = capture(bench, Scale::Tiny, 7, &cfg, &source);
        let path = format!("{dir}/{name}.gmtr");
        match std::fs::write(&path, &bytes) {
            Ok(()) => eprintln!(
                "[validate] wrote golden fixture {path} ({} bytes)",
                bytes.len()
            ),
            Err(e) => {
                eprintln!("[validate] could not write {path}: {e}");
                std::process::exit(1)
            }
        }
        if bench != Bench::Pathfinder {
            continue;
        }
        let trace = Trace::decode(&bytes).expect("golden trace decodes");
        let mut obs = Observer::off();
        obs.metrics = Metrics::recording();
        let (_, snapshot) = replay_run_observed(&trace, &trace.launch.config.clone(), &mut obs)
            .expect("golden trace replays");
        let snapshot = snapshot.expect("the metrics channel was on");
        let path = format!("{dir}/metrics_{name}.json");
        match std::fs::write(&path, &snapshot) {
            Ok(()) => eprintln!(
                "[validate] wrote golden fixture {path} ({} bytes)",
                snapshot.len()
            ),
            Err(e) => {
                eprintln!("[validate] could not write {path}: {e}");
                std::process::exit(1)
            }
        }
    }
}
