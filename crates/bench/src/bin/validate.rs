//! Trace conformance harness.
//!
//! For every benchmark, captures a GMTR trace of one run and replays it
//! under both drive loops (the idle-skipping loop and the per-cycle
//! referee), with and without deterministic fault injection. Every
//! replay must reproduce the captured run's statistics bit-identically
//! (wall time excluded), and every replay runs with the metrics channel
//! on: the versioned metrics snapshots of the two loops must be
//! byte-identical too.
//! Any difference is listed and fails the harness. Results are printed
//! as a table and written to `BENCH_validate.json`.
//!
//! With `GMMU_EMIT_GOLDEN=dir` the harness additionally writes the two
//! golden fixtures (`pathfinder_tiny.gmtr`, `kmeans_tiny.gmtr`) that
//! `tests/trace.rs` pins the byte format against. The fixtures use the
//! quick scope and seed 7 regardless of command-line flags, so emission
//! is reproducible from any invocation.

use gmmu::experiments::designs;
use gmmu::prelude::*;
use gmmu::ExperimentOpts;
use gmmu_sim::metrics::Metrics;
use gmmu_sim::rng::fnv1a64;
use gmmu_trace::{assemble, capture_launch, replay_run_observed, Recorder, Trace};
use std::fmt::Write as _;
use std::time::Instant;

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

fn main() {
    let opts = ExperimentOpts::from_args();

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
