//! Runs every figure harness in paper order and prints all tables —
//! the full evaluation in one command. `--quick` for a smoke pass,
//! `--jobs N` to size the worker pool.
//!
//! The evaluation is executed in three passes: a *recording* pass asks
//! every figure function for its design points without simulating
//! anything, the union of those points (deduplicated across figures)
//! runs as one parallel batch, and a *replay* pass regenerates each
//! figure from the warm memo cache and prints it in paper order. A
//! machine-readable timing report is written to
//! `BENCH_all_figures.json`.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

type FigFn = fn(&mut gmmu::Runner) -> Vec<gmmu::prelude::Table>;

fn main() {
    let opts = gmmu::ExperimentOpts::from_args();
    let mut runner = gmmu::Runner::new(opts);
    let started = Instant::now();
    for table in gmmu::figures::table_config(opts) {
        println!("{table}");
    }
    for table in gmmu::figures::fig09() {
        println!("{table}");
    }
    let figs: [(&str, FigFn); 15] = [
        ("fig02", gmmu::figures::fig02),
        ("fig03", gmmu::figures::fig03),
        ("fig04", gmmu::figures::fig04),
        ("fig06", gmmu::figures::fig06),
        ("fig07", gmmu::figures::fig07),
        ("fig10", gmmu::figures::fig10),
        ("fig10_stalls", gmmu::figures::fig10_stalls),
        ("fig11", gmmu::figures::fig11),
        ("fig13", gmmu::figures::fig13),
        ("fig16", gmmu::figures::fig16),
        ("fig17", gmmu::figures::fig17),
        ("fig18", gmmu::figures::fig18),
        ("fig20", gmmu::figures::fig20),
        ("fig22", gmmu::figures::fig22),
        ("sec9", gmmu::figures::sec9),
    ];

    // Recording pass: collect every figure's design points. `sims`
    // counts the points a figure contributes beyond those already
    // requested by an earlier figure.
    let mut union = Vec::new();
    let mut seen = HashSet::new();
    let mut sims_per_fig = Vec::new();
    for (_, f) in figs {
        let (_, specs) = runner.record(f);
        let fresh = specs.iter().filter(|s| seen.insert(s.key())).count();
        sims_per_fig.push(fresh);
        union.extend(specs);
    }

    // One parallel batch over the whole evaluation. With `--journal`
    // this is a restartable queue: points already journaled are skipped
    // and each fresh point is journaled the moment it completes, so a
    // killed run (or `--kill-after N`) resumes without recompute.
    let t_batch = Instant::now();
    runner.run_points_parallel(union);
    let batch_wall = t_batch.elapsed();

    // A shard worker only fills its slice of the journal; replaying the
    // figures would simulate every other shard's points on-demand.
    // Print/replay happens in the final merge run (same --journal, no
    // --shard).
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

    // Replay pass: print each figure from the warm cache.
    let mut fig_walls = Vec::new();
    for (name, f) in figs {
        let t0 = Instant::now();
        for table in f(&mut runner) {
            println!("{table}");
        }
        let wall = t0.elapsed();
        eprintln!("[{name}] done in {wall:.1?}");
        fig_walls.push(wall);
    }

    // The multi-tenant study runs outside the memo cache: the journal
    // stores the pinned RunStats layout, which has no per-tenant slice.
    let t0 = Instant::now();
    for table in gmmu::figures::fig_multitenant(&opts) {
        println!("{table}");
    }
    let mt_wall = t0.elapsed();
    eprintln!("[fig_multitenant] done in {mt_wall:.1?}");

    let total_wall = started.elapsed();
    eprintln!(
        "[all] {} simulations in {:.1?} ({} jobs, {:.1} sims/s)",
        runner.runs,
        total_wall,
        opts.jobs,
        runner.runs as f64 / batch_wall.as_secs_f64().max(1e-9),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"scale\": \"{:?}\",", opts.scale);
    let _ = writeln!(json, "  \"jobs\": {},", opts.jobs);
    let _ = writeln!(json, "  \"total_sims\": {},", runner.runs);
    let _ = writeln!(json, "  \"journal_hits\": {},", runner.journal_hits);
    let _ = writeln!(json, "  \"batch_wall_s\": {:.3},", batch_wall.as_secs_f64());
    let _ = writeln!(json, "  \"wall_s\": {:.3},", total_wall.as_secs_f64());
    let _ = writeln!(
        json,
        "  \"sims_per_sec\": {:.3},",
        runner.runs as f64 / batch_wall.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(json, "  \"figures\": [");
    for (i, (name, _)) in figs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"sims\": {}, \"replay_wall_s\": {:.3}}},",
            sims_per_fig[i],
            fig_walls[i].as_secs_f64(),
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"fig_multitenant\", \"sims\": 0, \"replay_wall_s\": {:.3}}}",
        mt_wall.as_secs_f64()
    );
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
