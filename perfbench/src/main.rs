//! gmmu performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (see `README.md` in this directory) built from the
//! seed, checks every simulated result, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress and a
//! readable table go to standard error.

mod calib;
mod check;
mod plan;
mod probe;
mod replay;

use calib::{Calibration, Timed};
use check::Checker;
use gmmu_sim::metrics::Metrics as MetricsChannel;
use gmmu_simt::{Observer, RunStats, StallCause};
use plan::{Hook, Mix, Point, Scope, Setup, BENCH_SCOPE, DEFAULT_SEED, HELD_OUT_SEED, SWEEP_JOBS};
use probe::KernelClock;
use replay::{Stream, LAYERS};
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <walk_divergent|baseline_ideal|tenants_faulted|policy_sweep>
                 [--seed N] [--seconds S] [--trace 0|1]";

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// Host-time spans of the traced run: name and unit.
const SPANS: [(&str, &str); 9] = [
    ("workloads.build_s", "s"),
    ("vm.unmap_s", "s"),
    ("simt.gpu_new_s", "s"),
    ("simt.run_s", "s"),
    ("workloads.kernel_s", "s"),
    ("workloads.kernel_calls", "count"),
    ("simt.run_self_s", "s"),
    ("runner.worker_idle_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Simulated counts of the traced run (besides the stall causes).
const COUNTS: [(&str, &str); 21] = [
    ("simt.instructions", "count"),
    ("simt.idle_cycles", "cycles"),
    ("simt.replays", "count"),
    ("simt.page_divergence_mean", "pages"),
    ("simt.dwarps_formed", "count"),
    ("core.tlb.accesses", "count"),
    ("core.tlb.hit_ratio", "ratio"),
    ("core.walker.walks", "count"),
    ("core.walker.refs_issued", "count"),
    ("core.walker.refs_eliminated", "count"),
    ("core.walker.queue_cycles", "cycles"),
    ("core.walker.active_cycles", "cycles"),
    ("core.mmu.rejects", "count"),
    ("core.mmu.faults", "count"),
    ("core.mmu.shootdowns", "count"),
    ("core.mmu.squashed_walks", "count"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_ratio", "ratio"),
    ("mem.dram.requests", "count"),
    ("mem.walk_l2_hit_rate", "ratio"),
    ("core.policy.lost_locality_events", "count"),
];

/// `simt.stall.<cause>` for a stall cause.
fn stall_metric(cause: StallCause) -> String {
    format!("simt.stall.{}", cause.label().replace([' ', '/'], "_"))
}

/// Every per-layer metric (`--trace 1`), in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        SPANS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for layer in LAYERS {
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.ns_per_call"), "ns"));
        out.push((format!("{layer}.est_s"), "s"));
    }
    out.extend(COUNTS.iter().map(|&(n, u)| (n.to_string(), u)));
    out.extend(
        StallCause::ALL
            .into_iter()
            .map(|c| (stall_metric(c), "cycles")),
    );
    out
}

struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut mix, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                mix = Some(Mix::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(
        checker: &Checker,
        values: &BTreeMap<String, f64>,
        names: &[(String, &'static str)],
    ) -> Self {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let v = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name.clone(), v, *unit)
            })
            .collect();
        Self {
            attempted: checker.attempted,
            failed: checker.failed,
            metrics,
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the workload's timed code runs on (the calibration matches).
fn threads(mix: Mix) -> usize {
    if mix == Mix::PolicySweep {
        SWEEP_JOBS
    } else {
        1
    }
}

/// One timed pass: set-up time, simulation time, per-point stats.
fn pass(
    mix: Mix,
    points: &[Point],
    scope: &Scope,
    seed: u64,
    calib: &mut Calibration,
) -> (Timed, Timed, Vec<RunStats>) {
    if mix == Mix::PolicySweep {
        // The runner builds its own workloads inside the sweep; set-up is
        // timed on the same public calls outside it.
        let setup = calib.time(|| Setup::new(points, seed)).1;
        let (sweep, wall) = calib.time(|| plan::sweep(points, scope, seed));
        (setup, wall, sweep.stats)
    } else {
        let p = plan::direct_pass(points, seed, calib);
        (p.setup, p.run, p.stats)
    }
}

/// `--trace 0`: repeated passes for `seconds`, reporting medians of the
/// calibrated timings.
fn untraced(mix: Mix, scope: &Scope, seed: u64, seconds: f64) -> (Checker, BTreeMap<String, f64>) {
    let points = plan::points(mix, scope, seed);
    let mut checker = Checker::new(mix, seed, points.len());
    let mut calib = Calibration::new(threads(mix));
    let start = Instant::now();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut cycles = 0;
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (setup, wall, stats) = pass(mix, &points, scope, seed, &mut calib);
        for (i, s) in stats.iter().enumerate() {
            checker.check(i, &points[i].label, s);
        }
        cycles = stats.iter().map(|s| s.cycles).sum::<u64>();
        eprintln!(
            "[{}] pass {}: setup {:.4} s, simulate {:.3} s ({:.3} s as read), {cycles} cycles",
            mix.name(),
            walls.len() + 1,
            setup.norm_s,
            wall.norm_s,
            wall.raw_s,
        );
        walls.push(wall);
        setups.push(setup);
    }
    let norm = |v: &[Timed]| median(&v.iter().map(|t| t.norm_s).collect::<Vec<_>>());
    let raw = |v: &[Timed]| median(&v.iter().map(|t| t.raw_s).collect::<Vec<_>>());
    eprintln!(
        "[{}] as read: wall {:.3} s, setup {:.4} s; calibration kernel {:.2} ms (nominal {:.2} ms)",
        mix.name(),
        raw(&walls),
        raw(&setups),
        median(&calib.readings) * 1e3,
        calib::NOMINAL_REF_S * 1e3
    );
    let wall_s = norm(&walls);
    let resident = peak_rss_mb() - calib.resident_bytes() as f64 / (1 << 20) as f64;
    let mut m = BTreeMap::new();
    m.insert("wall_s".into(), wall_s);
    m.insert("sim_cycles_per_s".into(), cycles as f64 / wall_s);
    m.insert("setup_s".into(), norm(&setups));
    m.insert("peak_rss_mb".into(), resident);
    m.insert("sim_cycles".into(), cycles as f64);
    (checker, m)
}

/// Simulated counts summed over the points of the traced pass. Ratios
/// are summed as numerator and denominator and divided at the end.
#[derive(Debug, Default)]
struct Counts {
    values: BTreeMap<String, f64>,
}

impl Counts {
    fn add(&mut self, name: &str, v: u64) {
        self.add_f64(name, v as f64);
    }

    fn add_f64(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_default() += v;
    }

    fn point(&mut self, s: &RunStats, snapshot: &str, stages: (u64, u64)) {
        self.add("simt.instructions", s.instructions);
        self.add("simt.idle_cycles", s.idle_cycles);
        self.add("simt.replays", s.replays);
        self.add("simt.dwarps_formed", s.dwarps_formed);
        for cause in StallCause::ALL {
            self.add(&stall_metric(cause), s.stall_breakdown.get(cause));
        }
        self.add("core.tlb.accesses", s.tlb_accesses);
        self.add("core.tlb.hits", s.tlb_hits);
        self.add("core.walker.walks", s.walks);
        self.add("core.walker.refs_issued", s.walk_refs_issued);
        self.add(
            "core.walker.refs_eliminated",
            s.walk_refs_naive.saturating_sub(s.walk_refs_issued),
        );
        self.add("core.walker.queue_cycles", stages.0);
        self.add("core.walker.active_cycles", stages.1);
        self.add(
            "core.mmu.rejects",
            snapshot_counter(snapshot, ".mmu.rejects"),
        );
        self.add("core.mmu.faults", s.faults);
        self.add("core.mmu.shootdowns", s.shootdowns);
        self.add("core.mmu.squashed_walks", s.squashed_walks);
        self.add("mem.l1.accesses", s.l1_accesses);
        self.add("mem.l1.hits", s.l1_hits);
        self.add("mem.dram.requests", s.dram_requests);
        self.add(
            "core.policy.lost_locality_events",
            snapshot_counter(snapshot, ".policy.lost_locality_events"),
        );
        self.add("simt.page_divergence.sum", s.page_divergence.sum());
        self.add("simt.page_divergence.count", s.page_divergence.count());
        self.add_f64(
            "mem.walk_l2_hits",
            s.walk_l2_hit_rate * s.walk_refs_issued as f64,
        );
    }

    fn finish(mut self, out: &mut BTreeMap<String, f64>) {
        let ratios = [
            ("core.tlb.hit_ratio", "core.tlb.hits", "core.tlb.accesses"),
            ("mem.l1.hit_ratio", "mem.l1.hits", "mem.l1.accesses"),
            (
                "mem.walk_l2_hit_rate",
                "mem.walk_l2_hits",
                "core.walker.refs_issued",
            ),
            (
                "simt.page_divergence_mean",
                "simt.page_divergence.sum",
                "simt.page_divergence.count",
            ),
        ];
        let get = |k: &str| self.values.get(k).copied().unwrap_or(0.0);
        let values: Vec<(&str, f64)> = ratios
            .iter()
            .map(|&(name, num, den)| {
                let (num, den) = (get(num), get(den));
                (name, if den > 0.0 { num / den } else { 0.0 })
            })
            .collect();
        for helper in [
            "core.tlb.hits",
            "mem.l1.hits",
            "mem.walk_l2_hits",
            "simt.page_divergence.sum",
            "simt.page_divergence.count",
        ] {
            self.values.remove(helper);
        }
        out.extend(self.values);
        out.extend(values.into_iter().map(|(k, v)| (k.to_string(), v)));
    }
}

/// Sum of every counter in a metrics snapshot whose name ends with
/// `suffix` (one per core).
fn snapshot_counter(snapshot: &str, suffix: &str) -> u64 {
    snapshot
        .lines()
        .filter(|l| l.contains("\"type\": \"counter\""))
        .filter_map(|l| {
            let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
            if !name.ends_with(suffix) {
                return None;
            }
            let value = l.split("\"value\": ").nth(1)?;
            value.trim_end_matches(['}', ',', ' ']).parse::<u64>().ok()
        })
        .sum()
}

/// `--trace 1`: untraced reference passes for `seconds`, a traced pass
/// (sampled kernel timing, metrics channel on), and a captured pass whose
/// warp streams feed the layer replay.
fn traced(mix: Mix, scope: &Scope, seed: u64, seconds: f64) -> (Checker, BTreeMap<String, f64>) {
    let points = plan::points(mix, scope, seed);
    let mut checker = Checker::new(mix, seed, points.len());
    let timer_ns = probe::timer_cost_ns();
    let mut m = BTreeMap::new();

    let start = Instant::now();
    let mut calib = Calibration::new(1);
    let mut reference_s = Vec::new();
    while reference_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let reference = plan::direct_pass(&points, seed, &mut calib);
        for (i, s) in reference.stats.iter().enumerate() {
            checker.check(i, &points[i].label, s);
        }
        reference_s.push(reference.run.raw_s);
    }
    let worker_idle_s = if mix == Mix::PolicySweep {
        let sweep = plan::sweep(&points, scope, seed);
        for (i, s) in sweep.stats.iter().enumerate() {
            checker.check(i, &points[i].label, s);
        }
        SWEEP_JOBS as f64 * sweep.wall_s - sweep.point_s.iter().sum::<f64>()
    } else {
        0.0
    };

    let mut setup = Setup::new(&points, seed);
    let clock = KernelClock::default();
    let mut counts = Counts::default();
    let mut run_s = 0.0;
    let mut traced_stats = Vec::with_capacity(points.len());
    let mut l2_accesses = Vec::with_capacity(points.len());
    for i in 0..points.len() {
        let mut obs = Observer::off();
        obs.metrics = MetricsChannel::recording();
        let t = Instant::now();
        let s = plan::run_point(&points, &mut setup, i, Hook::Time(&clock), &mut obs);
        run_s += t.elapsed().as_secs_f64();
        checker.check(i, &points[i].label, &s);
        let snapshot = setup.gpu(i).metrics_snapshot(&obs).unwrap_or_default();
        let stages = obs.metrics.sink().map_or((0, 0), |k| k.stage_cycles());
        counts.point(&s, &snapshot, stages);
        l2_accesses.push(setup.gpu(i).memory().l2_totals().0);
        traced_stats.push(s);
    }
    let kernel_s = clock.estimate_s(timer_ns);
    eprintln!(
        "[{}] traced pass: {} data page(s) started unmapped",
        mix.name(),
        setup.unmapped.iter().sum::<u64>()
    );
    m.insert("workloads.build_s".into(), setup.timing.build_s);
    m.insert("vm.unmap_s".into(), setup.timing.unmap_s);
    m.insert("simt.gpu_new_s".into(), setup.timing.gpu_new_s);
    m.insert("simt.run_s".into(), run_s);
    m.insert("workloads.kernel_s".into(), kernel_s);
    m.insert("workloads.kernel_calls".into(), clock.calls() as f64);
    m.insert("simt.run_self_s".into(), run_s - kernel_s);
    m.insert("runner.worker_idle_s".into(), worker_idle_s);
    m.insert("trace.overhead_s".into(), run_s - median(&reference_s));
    counts.finish(&mut m);
    drop(setup);

    let mut setup = Setup::new(&points, seed);
    let (mut calls, mut secs, mut est) = ([0u64; 9], [0f64; 9], [0f64; 9]);
    for i in 0..points.len() {
        let mut records = Vec::new();
        let s = plan::run_point(
            &points,
            &mut setup,
            i,
            Hook::Record(&mut records),
            &mut Observer::off(),
        );
        checker.check(i, &points[i].label, &s);
        let spaces = setup.spaces(&points, i);
        let streams: Vec<Stream<'_>> = spaces
            .into_iter()
            .zip(&records)
            .enumerate()
            .map(|(t, (space, records))| Stream {
                asid: t as u16,
                records,
                space,
            })
            .collect();
        let cost = replay::replay(&points[i].cfg, &streams, s.cycles);
        let own = replay::run_calls(&points[i].cfg, &traced_stats[i], l2_accesses[i]);
        for l in 0..LAYERS.len() {
            calls[l] += cost.calls[l];
            secs[l] += cost.secs[l];
            if cost.calls[l] > 0 {
                est[l] += cost.secs[l] / cost.calls[l] as f64 * own[l] as f64;
            }
        }
        eprintln!("[{}] replayed {}", mix.name(), points[i].label);
    }
    for (l, layer) in LAYERS.iter().enumerate() {
        let ns = if calls[l] > 0 {
            secs[l] * 1e9 / calls[l] as f64
        } else {
            0.0
        };
        m.insert(format!("{layer}.calls"), calls[l] as f64);
        m.insert(format!("{layer}.ns_per_call"), ns);
        m.insert(format!("{layer}.est_s"), est[l]);
    }
    (checker, m)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\n{USAGE}\ndefault seed {DEFAULT_SEED} (digest-checked); \
                 held-out seed {HELD_OUT_SEED} (claims must also hold there)"
            );
            std::process::exit(2)
        }
    };
    let (checker, values, names) = if args.trace {
        let (c, v) = traced(args.mix, &BENCH_SCOPE, args.seed, args.seconds);
        (c, v, per_layer())
    } else {
        let (c, v) = untraced(args.mix, &BENCH_SCOPE, args.seed, args.seconds);
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (c, v, names)
    };
    let report = Report::new(&checker, &values, &names);
    for (name, v, unit) in &report.metrics {
        eprintln!("  {name:<36} {v:>18.6} {unit}");
    }
    eprintln!(
        "[{}] {} point(s) attempted, {} failed",
        args.mix.name(),
        report.attempted,
        report.failed
    );
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::digest;
    use crate::plan::Input;
    use gmmu_workloads::Scale;

    /// Tiny machines, so the tests run the workloads' real design points
    /// in seconds.
    const TEST_SCOPE: Scope = Scope {
        experiment: (Scale::Tiny, 2),
        paper: (Scale::Tiny, 2),
    };

    fn all_names() -> Vec<String> {
        END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect()
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let names = all_names();
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for name in all_names() {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for mix in Mix::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", mix.name())));
        }
    }

    #[test]
    fn digests_repeat_across_two_in_process_runs() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for mix in Mix::ALL {
                let points = plan::points(mix, &TEST_SCOPE, seed);
                let mut calib = Calibration::new(threads(mix));
                let (_, _, a) = pass(mix, &points, &TEST_SCOPE, seed, &mut calib);
                let (_, _, b) = pass(mix, &points, &TEST_SCOPE, seed, &mut calib);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    let label = &points[i].label;
                    assert_eq!(digest(x), digest(y), "{} {label}", mix.name());
                    assert_eq!(check::invariant_failure(x), None, "{} {label}", mix.name());
                }
            }
        }
    }

    #[test]
    fn tenant_mix_is_the_same_for_every_seed() {
        let mix = |seed| match &plan::points(Mix::TenantsFaulted, &BENCH_SCOPE, seed)[0].input {
            Input::Tenants { scenario, .. } => scenario
                .describe()
                .split_once(':')
                .map(|(_, m)| m.to_string()),
            Input::Bench(..) => None,
        };
        let want = mix(DEFAULT_SEED);
        assert_eq!(want.as_deref(), Some(" bfs kmeans bfs memcached*"));
        for seed in [1, 2, 3, HELD_OUT_SEED] {
            assert_eq!(mix(seed), want, "seed {seed}");
        }
    }

    #[test]
    fn the_sweep_and_direct_runs_agree() {
        let points = plan::points(Mix::PolicySweep, &TEST_SCOPE, DEFAULT_SEED);
        let direct = plan::direct_pass(&points, DEFAULT_SEED, &mut Calibration::new(1));
        let sweep = plan::sweep(&points, &TEST_SCOPE, DEFAULT_SEED);
        let d: Vec<u64> = direct.stats.iter().map(digest).collect();
        let s: Vec<u64> = sweep.stats.iter().map(digest).collect();
        assert_eq!(d, s);
    }

    #[test]
    fn split_setup_unmaps_what_build_demand_paged_does() {
        let points = plan::points(Mix::TenantsFaulted, &TEST_SCOPE, DEFAULT_SEED);
        let setup = Setup::new(&points, DEFAULT_SEED);
        let Input::Tenants {
            scenario, inject, ..
        } = &points[0].input
        else {
            panic!("tenants_faulted runs a scenario");
        };
        let (_, unmapped) = scenario.build_demand_paged(inject);
        assert_eq!(setup.unmapped[0], unmapped.iter().sum::<u64>());
        assert!(setup.unmapped[0] > 0);
    }

    fn end_to_end() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }

    #[test]
    fn every_workload_reports_every_metric_and_feeds_only_its_layers() {
        let calls = |m: &BTreeMap<String, f64>, layer: &str| m[&format!("{layer}.calls")];
        for mix in Mix::ALL {
            let (checker, m) = untraced(mix, &TEST_SCOPE, HELD_OUT_SEED, 0.0);
            assert_eq!(checker.failed, 0, "{}", mix.name());
            Report::new(&checker, &m, &end_to_end());

            let (checker, m) = traced(mix, &TEST_SCOPE, HELD_OUT_SEED, 0.0);
            assert_eq!(checker.failed, 0, "{}", mix.name());
            Report::new(&checker, &m, &per_layer());
            for layer in ["simt.coalesce", "mem.l1", "mem.system", "vm.translate"] {
                assert!(calls(&m, layer) > 0.0, "{} {layer}", mix.name());
            }
            for layer in ["core.tlb", "core.walker", "mem.mshr"] {
                let fed = calls(&m, layer) > 0.0;
                assert_eq!(fed, mix != Mix::BaselineIdeal, "{} {layer}", mix.name());
            }
            for layer in ["core.ccws", "core.cpm"] {
                let fed = calls(&m, layer) > 0.0;
                assert_eq!(fed, mix == Mix::PolicySweep, "{} {layer}", mix.name());
            }
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload policy_sweep --seed 3 --seconds 1 --trace 1").is_ok());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload walk_divergent --trace 2").is_err());
        assert!(parse("--workload walk_divergent --seconds").is_err());
    }

    #[test]
    fn report_is_one_json_line() {
        let mut checker = Checker::new(Mix::WalkDivergent, 1, 0);
        checker.attempted = 4;
        let values = BTreeMap::from([("wall_s".to_string(), 1.25)]);
        let r = Report::new(&checker, &values, &[("wall_s".to_string(), "s")]);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
