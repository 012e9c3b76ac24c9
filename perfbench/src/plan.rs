//! The benchmark's four workloads: which design points each one
//! simulates, and how a pass sets them up and runs them through the
//! simulator's public entry points (`build*`, `Gpu::new`, `Gpu::run*`,
//! `Runner::sweep`).

use crate::calib::{Calibration, Timed};
use crate::probe::{KernelClock, Probe};
use gmmu::experiments::{designs, ExperimentOpts, Runner};
use gmmu_core::ccws::PolicyKind;
use gmmu_core::mmu::MmuModel;
use gmmu_sim::fault::{FaultInjectConfig, FaultInjector};
use gmmu_simt::config::TbcConfig;
use gmmu_simt::{FaultConfig, Gpu, GpuConfig, Kernel, Observer, RunStats, TenantJob, TenantPolicy};
use gmmu_trace::{Recorder, TraceRecord};
use gmmu_vm::AddressSpace;
use gmmu_workloads::tenants::{scenario, Scenario};
use gmmu_workloads::{build, Bench, Scale, Workload};
use std::time::Instant;

/// The seed whose per-point result digests the benchmark keeps.
pub const DEFAULT_SEED: u64 = 7;

/// A seed no tuning looked at: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 1009;

/// Worker threads for the `Runner::sweep` workload (the machine budget).
pub const SWEEP_JOBS: usize = 2;

/// The fault-schedule seed derived from the workload seed. The default
/// seed maps to the repository's default fault seed (`0xfa57`).
fn fault_seed(seed: u64) -> u64 {
    seed ^ 0xfa50
}

/// Machine sizes: `experiment` is `ExperimentOpts::default()`'s machine,
/// `paper` the 30-core configuration. Tests shrink both.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Scale and core count of the experiment-scale workloads.
    pub experiment: (Scale, usize),
    /// Scale and core count of the paper-scale workload.
    pub paper: (Scale, usize),
}

/// The sizes the benchmark runs at.
pub const BENCH_SCOPE: Scope = Scope {
    experiment: (Scale::Small, 8),
    paper: (Scale::Full, 30),
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// bfs and mummergpu under the naive and augmented MMUs.
    WalkDivergent,
    /// All six benchmarks at paper scale on the ideal MMU.
    BaselineIdeal,
    /// The 4-tenant demand-paged scenario under both tenant policies.
    TenantsFaulted,
    /// Scheduler policies on memcached and bfs through `Runner::sweep`.
    PolicySweep,
}

impl Mix {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Mix; 4] = [
        Mix::WalkDivergent,
        Mix::BaselineIdeal,
        Mix::TenantsFaulted,
        Mix::PolicySweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mix::WalkDivergent => "walk_divergent",
            Mix::BaselineIdeal => "baseline_ideal",
            Mix::TenantsFaulted => "tenants_faulted",
            Mix::PolicySweep => "policy_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// What a design point runs.
#[derive(Debug, Clone)]
pub enum Input {
    /// One benchmark, fully pre-mapped, run with `Gpu::run`.
    Bench(Bench, Scale),
    /// A demand-paged multi-tenant scenario run with `Gpu::run_tenants`.
    Tenants {
        /// Tenant mix.
        scenario: Scenario,
        /// Fault schedule (demand unmapping, delays, rejects, storms).
        inject: FaultInjectConfig,
        /// ASID-tagged or flush-on-switch translation.
        policy: TenantPolicy,
    },
}

/// One simulated design point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Stable name, e.g. `bfs/naive3`.
    pub label: String,
    /// Inputs.
    pub input: Input,
    /// Complete GPU configuration.
    pub cfg: GpuConfig,
}

fn opts(scale: Scale, n_cores: usize, seed: u64) -> ExperimentOpts {
    ExperimentOpts {
        scale,
        n_cores,
        seed,
        jobs: SWEEP_JOBS,
        ..ExperimentOpts::default()
    }
}

/// A named change to a point's GPU configuration.
type Design = (&'static str, fn(&mut GpuConfig));

/// The design points of `mix` for workload seed `seed`.
pub fn points(mix: Mix, scope: &Scope, seed: u64) -> Vec<Point> {
    let (scale, cores) = scope.experiment;
    let exp = opts(scale, cores, seed);
    let bench_point = |bench: Bench, scale: Scale, design: &str, cfg: GpuConfig| Point {
        label: format!("{}/{design}", bench.name()),
        input: Input::Bench(bench, scale),
        cfg,
    };
    match mix {
        Mix::WalkDivergent => {
            let mut out = Vec::new();
            for bench in [Bench::Bfs, Bench::Mummergpu] {
                out.push(bench_point(
                    bench,
                    scale,
                    "naive3",
                    exp.gpu(designs::naive3()),
                ));
                out.push(bench_point(
                    bench,
                    scale,
                    "augmented",
                    exp.gpu(designs::augmented()),
                ));
            }
            out
        }
        Mix::BaselineIdeal => {
            let (scale, cores) = scope.paper;
            let paper = opts(scale, cores, seed);
            Bench::all()
                .into_iter()
                .map(|b| bench_point(b, scale, "ideal", paper.gpu(MmuModel::Ideal)))
                .collect()
        }
        Mix::TenantsFaulted => {
            let inject = FaultInjectConfig::smoke(fault_seed(seed));
            let mut cfg = exp.gpu(designs::augmented());
            cfg.fault = FaultConfig::demand();
            cfg.inject = Some(inject);
            let sc = tenant_scenario(scale, seed);
            [
                ("tagged", TenantPolicy::default()),
                ("flush", TenantPolicy::flush_on_switch()),
            ]
            .into_iter()
            .map(|(name, policy)| Point {
                label: format!("tenants4/{name}"),
                input: Input::Tenants {
                    scenario: sc.clone(),
                    inject,
                    policy,
                },
                cfg: cfg.clone(),
            })
            .collect()
        }
        Mix::PolicySweep => {
            let designs: [Design; 5] = [
                ("ccws", |c| c.policy = PolicyKind::Ccws),
                ("ta-ccws-4", |c| {
                    c.policy = PolicyKind::TaCcws { tlb_weight: 4 }
                }),
                ("tcws", |c| c.policy = PolicyKind::tcws_best()),
                ("tbc", |c| c.tbc = Some(TbcConfig::baseline())),
                ("tbc-tlb3", |c| c.tbc = Some(TbcConfig::tlb_aware(3))),
            ];
            let mut out = Vec::new();
            for bench in [Bench::Memcached, Bench::Bfs] {
                out.push(bench_point(bench, scale, "ideal", exp.gpu(MmuModel::Ideal)));
                for (name, apply) in designs {
                    let mut cfg = exp.gpu(designs::augmented());
                    apply(&mut cfg);
                    out.push(bench_point(bench, scale, name, cfg));
                }
            }
            out
        }
    }
}

/// The 4-tenant scenario for workload seed `seed`: the first scenario
/// seed, starting at `seed` itself, whose Zipf draw gives the tenant mix
/// of [`DEFAULT_SEED`] (`bfs kmeans bfs memcached*`). The mix sets most
/// of the run's cost, so fixing it keeps seeds comparable, while each
/// tenant's data still follows the seed. About one seed in sixty
/// matches.
fn tenant_scenario(scale: Scale, seed: u64) -> Scenario {
    let shape = |sc: &Scenario| {
        sc.tenants
            .iter()
            .map(|t| (t.bench, t.thrasher))
            .collect::<Vec<_>>()
    };
    let want = shape(&scenario(4, scale, DEFAULT_SEED, true));
    (0u64..)
        .map(|k| {
            scenario(
                4,
                scale,
                seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                true,
            )
        })
        .find(|sc| shape(sc) == want)
        .expect("the search is unbounded")
}

/// Host seconds spent setting a pass up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Workload builds (`build`, `Scenario::build`).
    pub build_s: f64,
    /// Demand unmapping of the tenants' data pages.
    pub unmap_s: f64,
    /// `Gpu::new` for every point.
    pub gpu_new_s: f64,
}

/// Everything one pass needs before its first cycle: built workloads
/// (shared by the points of one benchmark) and a fresh GPU per point.
pub struct Setup {
    benches: Vec<(Bench, Scale, Workload)>,
    /// Per point: the tenants' workloads (empty for single-bench points).
    tenants: Vec<Vec<Workload>>,
    gpus: Vec<Gpu>,
    /// Where the time went.
    pub timing: SetupTiming,
    /// Per point: data pages left unmapped for demand paging.
    pub unmapped: Vec<u64>,
}

impl Setup {
    /// Builds every input of `points` and a GPU per point, timing each
    /// step.
    pub fn new(points: &[Point], seed: u64) -> Setup {
        let mut timing = SetupTiming::default();
        let mut benches: Vec<(Bench, Scale, Workload)> = Vec::new();
        let mut tenants = Vec::with_capacity(points.len());
        let mut unmapped = Vec::with_capacity(points.len());
        for p in points {
            match &p.input {
                Input::Bench(bench, scale) => {
                    if !benches.iter().any(|(b, s, _)| b == bench && s == scale) {
                        let t = Instant::now();
                        let w = build(*bench, *scale, seed);
                        timing.build_s += t.elapsed().as_secs_f64();
                        benches.push((*bench, *scale, w));
                    }
                    tenants.push(Vec::new());
                    unmapped.push(0);
                }
                Input::Tenants {
                    scenario, inject, ..
                } => {
                    let t = Instant::now();
                    let mut built = scenario.build();
                    timing.build_s += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let pages = unmap_tenants(&mut built, inject);
                    timing.unmap_s += t.elapsed().as_secs_f64();
                    tenants.push(built);
                    unmapped.push(pages);
                }
            }
        }
        let t = Instant::now();
        let gpus = points.iter().map(|p| Gpu::new(p.cfg.clone())).collect();
        timing.gpu_new_s = t.elapsed().as_secs_f64();
        Setup {
            benches,
            tenants,
            gpus,
            timing,
            unmapped,
        }
    }

    /// The address spaces point `i` ran in, in ASID order.
    pub fn spaces(&self, points: &[Point], i: usize) -> Vec<&AddressSpace> {
        match &points[i].input {
            Input::Bench(bench, scale) => vec![&find_bench(&self.benches, *bench, *scale).space],
            Input::Tenants { .. } => self.tenants[i].iter().map(|w| &w.space).collect(),
        }
    }

    /// The GPU point `i` ran on.
    pub fn gpu(&self, i: usize) -> &Gpu {
        &self.gpus[i]
    }
}

/// Unmaps each tenant's data pages on that tenant's fault schedule —
/// the step `Scenario::build_demand_paged` performs after its build,
/// split out so the benchmark can time it on its own.
fn unmap_tenants(built: &mut [Workload], inject: &FaultInjectConfig) -> u64 {
    built
        .iter_mut()
        .enumerate()
        .map(|(t, w)| {
            let inj = FaultInjector::new(inject.for_tenant(t as u16));
            w.space.unmap_pages_where(|vpn| inj.unmap_page(vpn.raw()))
        })
        .sum()
}

/// What wraps the kernels of a run.
pub enum Hook<'a> {
    /// The bare kernels.
    Off,
    /// Sampled host timing of every kernel callback.
    Time(&'a KernelClock),
    /// GMTR capture of the warp stream: one record list per tenant.
    Record(&'a mut Vec<Vec<TraceRecord>>),
}

fn find_bench(benches: &[(Bench, Scale, Workload)], bench: Bench, scale: Scale) -> &Workload {
    let (_, _, w) = benches
        .iter()
        .find(|(b, s, _)| *b == bench && *s == scale)
        .expect("setup built every benchmark its points name");
    w
}

/// The address spaces a point runs in.
enum Spaces<'a> {
    /// One benchmark's pre-mapped space, read-only (`Gpu::run*`).
    Shared(&'a AddressSpace),
    /// Each tenant's space, in ASID order, mutable (`Gpu::run_tenants`).
    Tenants(Vec<&'a mut AddressSpace>, TenantPolicy),
}

/// Runs point `i` of a prepared pass on its own GPU, its kernels wrapped
/// as `hook` asks.
pub fn run_point(
    points: &[Point],
    setup: &mut Setup,
    i: usize,
    hook: Hook<'_>,
    obs: &mut Observer,
) -> RunStats {
    let Setup {
        benches,
        tenants,
        gpus,
        ..
    } = setup;
    // A single benchmark runs in a shared space; tenants own theirs.
    let (kernels, spaces): (Vec<&dyn Kernel>, Spaces<'_>) = match &points[i].input {
        Input::Bench(bench, scale) => {
            let w = find_bench(benches, *bench, *scale);
            (vec![w.kernel.as_ref()], Spaces::Shared(&w.space))
        }
        Input::Tenants { policy, .. } => {
            let (k, s) = tenants[i]
                .iter_mut()
                .map(|w| (w.kernel.as_ref() as &dyn Kernel, &mut w.space))
                .unzip();
            (k, Spaces::Tenants(s, *policy))
        }
    };
    let probes: Vec<Probe<'_>> = match &hook {
        Hook::Time(clock) => kernels.iter().map(|k| Probe::new(*k, clock)).collect(),
        _ => Vec::new(),
    };
    let recorders: Vec<Recorder<'_>> = match &hook {
        Hook::Record(_) => kernels.iter().map(|k| Recorder::new(*k)).collect(),
        _ => Vec::new(),
    };
    let run: Vec<&dyn Kernel> = match &hook {
        Hook::Off => kernels,
        Hook::Time(_) => probes.iter().map(|p| p as &dyn Kernel).collect(),
        Hook::Record(_) => recorders.iter().map(|r| r as &dyn Kernel).collect(),
    };
    let gpu = &mut gpus[i];
    let stats = match spaces {
        Spaces::Shared(space) => gpu.run_observed(run[0], space, obs),
        Spaces::Tenants(spaces, policy) => {
            let mut jobs: Vec<TenantJob<'_>> = run
                .iter()
                .zip(spaces)
                .map(|(kernel, space)| TenantJob {
                    kernel: *kernel,
                    space,
                })
                .collect();
            gpu.run_tenants(&mut jobs, policy, obs)
        }
    };
    drop(run);
    if let Hook::Record(out) = hook {
        out.extend(recorders.into_iter().map(Recorder::into_records));
    }
    stats
}

/// One pass over every point, each on a fresh GPU after a fresh set-up.
pub struct Pass {
    /// Set-up time.
    pub setup: Timed,
    /// Simulation time, summed over points.
    pub run: Timed,
    /// Per-point results, in point order.
    pub stats: Vec<RunStats>,
}

/// Sets up and runs every point directly, one at a time on this thread,
/// timing the set-up and each point against `calib`.
pub fn direct_pass(points: &[Point], seed: u64, calib: &mut Calibration) -> Pass {
    let (mut setup, setup_time) = calib.time(|| Setup::new(points, seed));
    let mut run = Timed::default();
    let mut stats = Vec::with_capacity(points.len());
    for i in 0..points.len() {
        let (s, t) =
            calib.time(|| run_point(points, &mut setup, i, Hook::Off, &mut Observer::off()));
        run += t;
        stats.push(s);
    }
    Pass {
        setup: setup_time,
        run,
        stats,
    }
}

/// A `Runner::sweep` over the points, the way a figure runs them.
pub struct Sweep {
    /// Host seconds from `Runner::new` to the sweep's return.
    pub wall_s: f64,
    /// Per-point results, in point order.
    pub stats: Vec<RunStats>,
    /// Host seconds each simulated point took on its worker.
    pub point_s: Vec<f64>,
}

/// Runs every (single-benchmark) point through one `Runner::sweep` on
/// [`SWEEP_JOBS`] workers. The runner builds its own workloads.
pub fn sweep(points: &[Point], scope: &Scope, seed: u64) -> Sweep {
    let t = Instant::now();
    let (scale, cores) = scope.experiment;
    let mut runner = Runner::new(opts(scale, cores, seed));
    let stats = runner.sweep(|r| {
        points
            .iter()
            .map(|p| match &p.input {
                Input::Bench(bench, _) => r.run(*bench, |c| *c = p.cfg.clone()),
                Input::Tenants { .. } => unreachable!("sweeps run single-benchmark points"),
            })
            .collect::<Vec<RunStats>>()
    });
    let wall_s = t.elapsed().as_secs_f64();
    Sweep {
        wall_s,
        stats,
        point_s: runner.point_log.iter().map(|p| p.wall_s).collect(),
    }
}
