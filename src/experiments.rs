//! Experiment plumbing shared by every figure harness.
//!
//! The paper reports each design point as a *speedup over the same GPU
//! without TLBs* (perfect, free translation). A [`Runner`] owns the
//! built workloads and memoizes every design point it has simulated, so
//! a figure sweep pays for workload construction and each distinct
//! configuration once. A point runs one workload build or several
//! co-running tenants ([`Input`]); both kinds are memoized and batched
//! alike.
//!
//! Design points are independent simulations, so a sweep can execute
//! them on a pool of worker threads. [`Runner::sweep`] does this
//! without changing any figure code: it runs the figure function once
//! in a *recording* pass that captures every design point it asks for
//! (returning placeholder stats), executes the distinct points on
//! [`Runner::run_points_parallel`], then replays the figure function
//! against the now-warm memo cache. Workloads and results are shared
//! immutably across workers (a co-run builds its own tenant workloads);
//! every simulation still starts from its own freshly-built [`Gpu`], so
//! results are bit-identical to a serial sweep in any thread count.

use crate::figures::Figure;
use crate::prelude::*;
use gmmu_sim::metrics::Metrics;
use gmmu_sim::rng::fnv1a64;
use gmmu_sim::trace::Tracer;
use gmmu_simt::{IntervalRecorder, Observer, TenantJob, TenantPolicy};
use gmmu_trace::{assemble, capture_launch, replay_run_observed, Recorder, Trace};
use gmmu_workloads::build_tenant_paged;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const USAGE: &str = "usage: gmmu <command> [options]
commands:
  fig NAME      print one figure's tables; NAME is one of table_config,
                fig09, fig02, fig03, fig04, fig06, fig07, fig10, fig11,
                fig13, fig16, fig17, fig18, fig20, fig22, sec9,
                multitenant, ablations
  all           every figure in paper order (all but ablations), its
                design points run as one deduplicated batch; writes
                BENCH_all_figures.json
  replay PATH   replay a GMTR trace: rebuild the captured machine, drive
                it from the recorded behaviour, and diff the result
                against the stats embedded in the trace; exits non-zero
                on any difference
options (every option also takes the form --flag=value):
  --quick    tiny workloads on a 2-core machine (CI/smoke scope)
  --full     the paper's full 30-core machine (slow; final numbers)
  --csv      also print each table as CSV
  --jobs N   worker threads for design-point sweeps
             (default: the machine's available parallelism)
  --trace PATH
             write a Chrome/Perfetto trace.json of the first design
             point simulated (load at ui.perfetto.dev)
  --intervals PATH
             write that point's interval time-series to PATH
             (.json extension for JSON, otherwise CSV)
  --interval-stride N
             interval sample stride in cycles (default 10000)
  --metrics PATH
             write the first design point's versioned metrics snapshot
             (instrument registry, per-stage walk latency histograms,
             hot-page table; per-tenant sections for a co-run) to
             PATH as JSON; snapshots do not depend on the drive loop.
             Under `replay`: diff the replayed snapshot against PATH
             when the file exists (exit non-zero on any difference),
             write it otherwise
  --capture-trace PATH
             record the first simulated design point, which must run
             one workload, to a GMTR trace file: the kernel's full
             data-dependent behaviour plus the machine configuration
             and final stats. Recording does not perturb the run
  table_config and fig09 simulate nothing, so --trace, --intervals,
  --metrics and --capture-trace make them exit 1
environment:
  GMMU_TICK_EVERY_CYCLE
             when set, visit every cycle instead of skipping idle
             spans (the per-cycle referee; results are identical)";

/// What a `gmmu` invocation asks for.
#[derive(Clone, Copy)]
pub enum Command {
    /// `fig NAME`: one registry entry.
    Fig(&'static Figure),
    /// `all`: every registry entry `gmmu all` prints.
    All,
    /// `replay PATH`: replay and verify one GMTR trace ([`run_replay`]).
    Replay(&'static str),
}

/// A parsed command line: the subcommand, the experiment scope every
/// subcommand shares, and the `--csv` presentation flag.
#[derive(Clone, Copy)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Scope and observability options.
    pub opts: ExperimentOpts,
    /// Print each table again as CSV (`--csv`).
    pub csv: bool,
}

/// Why [`Cli::parse`] refused a command line.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` / `-h`: print the usage text and succeed.
    Help,
    /// A malformed command line, with the reason.
    Usage(String),
}

impl Cli {
    /// Parses a command line (without the program name): one
    /// subcommand with its positional arguments, plus options anywhere.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let bad = ArgError::Usage;
        let mut opts = ExperimentOpts::default();
        let mut csv = false;
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                positional.push(arg);
                continue;
            }
            let (flag, mut inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            if inline.is_some() && matches!(flag, "--quick" | "--full" | "--csv" | "--help" | "-h")
            {
                return Err(bad(format!("`{flag}` takes no value")));
            }
            let mut value = || {
                inline
                    .take()
                    .or_else(|| args.next())
                    .ok_or_else(|| bad(format!("`{flag}` needs a value")))
            };
            match flag {
                "--quick" => {
                    opts = ExperimentOpts {
                        scale: Scale::Tiny,
                        n_cores: 2,
                        ..opts
                    }
                }
                "--full" => {
                    opts = ExperimentOpts {
                        scale: Scale::Full,
                        n_cores: 30,
                        ..opts
                    }
                }
                "--csv" => csv = true,
                "--jobs" => opts.jobs = positive(flag, &value()?)?,
                "--trace" => opts.trace = Some(leak_path(value()?)),
                "--intervals" => opts.intervals = Some(leak_path(value()?)),
                "--interval-stride" => opts.interval_stride = positive(flag, &value()?)?,
                "--metrics" => opts.metrics = Some(leak_path(value()?)),
                "--capture-trace" => opts.capture_trace = Some(leak_path(value()?)),
                "--help" | "-h" => return Err(ArgError::Help),
                _ => return Err(bad(format!("unknown argument `{arg}`"))),
            }
        }
        let mut positional = positional.into_iter();
        let command = match positional.next().as_deref() {
            Some("fig") => {
                let name = positional
                    .next()
                    .ok_or_else(|| bad("`fig` needs a figure name".into()))?;
                Command::Fig(
                    crate::figures::lookup(&name)
                        .ok_or_else(|| bad(format!("unknown figure `{name}`")))?,
                )
            }
            Some("all") => Command::All,
            Some("replay") => Command::Replay(leak_path(
                positional
                    .next()
                    .ok_or_else(|| bad("`replay` needs a trace path".into()))?,
            )),
            Some(other) => return Err(bad(format!("unknown command `{other}`"))),
            None => return Err(bad("missing command".into())),
        };
        if let Some(extra) = positional.next() {
            return Err(bad(format!("unexpected argument `{extra}`")));
        }
        Ok(Self { command, opts, csv })
    }

    /// [`Cli::parse`] over the process arguments. `--help` prints the
    /// usage text and exits 0; a malformed command line prints the
    /// reason and the usage text and exits with status 2.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(ArgError::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0)
            }
            Err(ArgError::Usage(msg)) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2)
            }
        }
    }
}

/// Default sweep parallelism: the machine's available parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scope of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOpts {
    /// Workload scale.
    pub scale: Scale,
    /// Shader cores (the memory system keeps the paper's ~4:1
    /// core-to-channel ratio).
    pub n_cores: usize,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads used by [`Runner::run_points_parallel`].
    pub jobs: usize,
    /// Write a Chrome/Perfetto trace of the first design point
    /// simulated to this path (`--trace`).
    pub trace: Option<&'static str>,
    /// Write that point's interval time-series to this path
    /// (`--intervals`; `.json` extension selects JSON, otherwise CSV).
    pub intervals: Option<&'static str>,
    /// Interval sample stride in cycles (`--interval-stride`).
    pub interval_stride: u64,
    /// Write the first design point's metrics snapshot to this path
    /// (`--metrics`); under `gmmu replay`, diff against the file when it
    /// exists and write it otherwise.
    pub metrics: Option<&'static str>,
    /// Record the first simulated design point to this GMTR trace file
    /// (`--capture-trace`).
    pub capture_trace: Option<&'static str>,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            n_cores: 8,
            seed: 7,
            jobs: default_jobs(),
            trace: None,
            intervals: None,
            interval_stride: 10_000,
            metrics: None,
            capture_trace: None,
        }
    }
}

impl ExperimentOpts {
    /// CI/smoke scope: tiny workloads on a 2-core machine.
    pub fn quick() -> Self {
        Self {
            scale: Scale::Tiny,
            n_cores: 2,
            ..Self::default()
        }
    }

    /// The paper's full 30-core machine (slow; for final numbers).
    pub fn full() -> Self {
        Self {
            scale: Scale::Full,
            n_cores: 30,
            ..Self::default()
        }
    }

    /// The GPU configuration for this scope with the given MMU, before
    /// figure-specific adjustments. The `GMMU_TICK_EVERY_CYCLE`
    /// environment variable is read here and nowhere else: when set,
    /// every configuration the harnesses build runs the per-cycle loop.
    pub fn gpu(&self, mmu: MmuModel) -> GpuConfig {
        let mut cfg = GpuConfig::experiment_scale(mmu);
        cfg.n_cores = self.n_cores;
        // Keep the paper's 30-core : 8-channel balance at any size.
        cfg.mem.channels = ((self.n_cores * 8 + 15) / 30).max(1);
        cfg.seed = self.seed;
        cfg.tick_every_cycle = std::env::var_os("GMMU_TICK_EVERY_CYCLE").is_some();
        cfg
    }

    /// Whether any observation output (`--trace` / `--intervals` /
    /// `--metrics` / `--capture-trace`) was requested.
    pub fn observes(&self) -> bool {
        [self.trace, self.intervals, self.metrics, self.capture_trace]
            .iter()
            .any(Option::is_some)
    }
}

/// A positive integer option value.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    v: &str,
) -> Result<T, ArgError> {
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(ArgError::Usage(format!(
            "`{flag}` needs a positive integer, got `{v}`"
        ))),
    }
}

/// Output paths live for the whole process (they came from argv), which
/// keeps [`ExperimentOpts`] `Copy` — one leaked allocation per flag.
fn leak_path(v: String) -> &'static str {
    Box::leak(v.into_boxed_str())
}

/// The inputs of one workload build: benchmark, scale, data seed and
/// page size. A build is a pure function of them, so a [`Runner`] builds
/// each single-workload input once and shares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Build {
    /// Benchmark to build.
    pub bench: Bench,
    /// Scale to build it at.
    pub scale: Scale,
    /// Data seed of the build.
    pub seed: u64,
    /// Page size of its mappings (2 MB in Section 9).
    pub pages: PageSize,
}

impl Build {
    /// The workload, its address space owning the `asid`-th physical
    /// window (ASID 0 is the plain single-workload build).
    fn workload(&self, asid: u16) -> Workload {
        build_tenant_paged(self.bench, self.scale, self.seed, self.pages, asid)
    }
}

/// What a design point runs.
#[derive(Debug, Clone)]
pub enum Input {
    /// One workload on its shared, prebuilt address space.
    Workload(Build),
    /// Co-running tenants in ASID order under a tenant policy
    /// ([`Gpu::run_tenants`]). Each run builds its tenants' workloads
    /// itself, because a tenant run mutates their address spaces.
    Tenants(Vec<Build>, TenantPolicy),
}

/// One design point a sweep will simulate: what it runs and the full
/// GPU configuration to run it under.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// The workload build or co-running tenants to run.
    pub input: Input,
    /// Complete GPU configuration (figure adjustments already applied).
    pub cfg: GpuConfig,
}

impl PointSpec {
    /// Memo-cache key. `GpuConfig`'s `Debug` output covers every field
    /// (all plain integers/enums), as does the input's, so two points
    /// with equal keys are the same simulation.
    pub fn key(&self) -> String {
        let mut key = format!("{:?}:{:?}", self.input, self.cfg);
        // Keys live as long as the runner: drop `format!`'s growth slack.
        key.shrink_to_fit();
        key
    }
}

/// Run metadata for one executed design point (cache hits excluded),
/// folded into `BENCH_all_figures.json` alongside the tables.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Workload simulated: the benchmark (`Bfs`, ...) or `Tenants` for a
    /// co-run.
    pub bench: String,
    /// Whether a 2 MB-page workload build ran.
    pub large_pages: bool,
    /// FNV-1a 64 hash of the full memo key (input + complete
    /// `GpuConfig`): a stable fingerprint of the configuration.
    pub fingerprint: u64,
    /// Drive loop that executed the point: `event_skip` or
    /// `tick_every_cycle`.
    pub engine: &'static str,
    /// Scheduler of the point: `baseline` (per-warp stacks, under any
    /// locality policy), `tbc` or `tbc-tlb-aware`.
    pub scheduler: &'static str,
    /// TLB of the point: `ideal` (no TLB), `blocking` or `nonblocking`.
    pub tlb: &'static str,
    /// Wall-clock seconds the simulation took.
    pub wall_s: f64,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second
    /// ([`RunStats::cycles_per_sec`]), the throughput metric.
    pub sim_cycles_per_sec: f64,
    /// Whether this was the observed run (`--trace` / `--intervals` /
    /// `--metrics` / `--capture-trace`).
    pub observed: bool,
}

impl PointRun {
    /// Metadata for `spec`, simulated from `started` until now.
    fn simulated(
        key: &str,
        spec: &PointSpec,
        started: Instant,
        stats: &RunStats,
        observed: bool,
    ) -> Self {
        Self {
            bench: match &spec.input {
                Input::Workload(b) => format!("{:?}", b.bench),
                Input::Tenants(..) => "Tenants".into(),
            },
            large_pages: matches!(spec.input, Input::Workload(b) if b.pages == PageSize::Large2M),
            fingerprint: fnv1a64(key.as_bytes()),
            engine: if spec.cfg.tick_every_cycle {
                "tick_every_cycle"
            } else {
                "event_skip"
            },
            scheduler: match spec.cfg.tbc {
                None => "baseline",
                Some(t) if t.tlb_aware => "tbc-tlb-aware",
                Some(_) => "tbc",
            },
            tlb: match spec.cfg.mmu {
                MmuModel::Ideal => "ideal",
                MmuModel::Real { tlb, .. } if tlb.mode.hits_under_miss() => "nonblocking",
                MmuModel::Real { .. } => "blocking",
            },
            wall_s: started.elapsed().as_secs_f64(),
            cycles: stats.cycles,
            sim_cycles_per_sec: stats.cycles_per_sec(),
            observed,
        }
    }
}

/// Runs workload `w` (build `b`) on `gpu` with its kernel wrapped in a
/// GMTR recorder and writes the trace to `path`. The launch is
/// snapshotted *before* the run, so a replay rebuilds the same initial
/// address space; recording every kernel answer does not perturb the
/// simulation (the recorder delegates to the pure kernel).
fn capture_run(path: &str, gpu: &mut Gpu, b: &Build, w: &Workload, obs: &mut Observer) -> RunStats {
    let source = format!("{:?} {:?} seed={}", b.bench, b.scale, b.seed);
    let launch = capture_launch(w.kernel.as_ref(), &w.space, gpu.config(), &source);
    let recorder = Recorder::new(w.kernel.as_ref());
    let stats = gpu.run_observed(&recorder, &w.space, obs);
    let trace = assemble(launch, recorder, &stats);
    let bytes = trace.encode();
    write_or_exit("capture", path, &bytes);
    eprintln!(
        "capture: {} record(s) from {:?} written to {path} ({} bytes)",
        trace.records.len(),
        b.bench,
        bytes.len()
    );
    stats
}

/// Writes the trace / interval / metrics files the options ask for from
/// an observed run of `label` on `gpu`.
fn write_observations(opts: ExperimentOpts, label: &str, gpu: &Gpu, obs: &Observer) {
    if let (Some(path), Some(buf)) = (opts.trace, obs.tracer.buffer()) {
        // With the metrics channel and interval recorder both on, the
        // span trace gains a counter track of per-stage walk cycles.
        let counters = metrics_counter_rows(obs);
        write_or_exit("trace", path, buf.to_chrome_json_with(&counters));
        eprintln!("trace: {} events from {label} written to {path}", buf.len());
    }
    if let (Some(path), Some(rec)) = (opts.intervals, obs.intervals.as_ref()) {
        let body = if path.ends_with(".json") {
            rec.to_json()
        } else {
            rec.to_csv()
        };
        write_or_exit("intervals", path, body);
        eprintln!(
            "intervals: {} samples from {label} written to {path}",
            rec.samples().len()
        );
    }
    if let (Some(path), Some(body)) = (opts.metrics, gpu.metrics_snapshot(obs)) {
        write_or_exit("metrics", path, &body);
        eprintln!(
            "metrics: snapshot from {label} written to {path} ({} bytes)",
            body.len()
        );
    }
}

/// Writes one output file the command line asked for. A requested file
/// that cannot be written ends the process with status 1, so a run never
/// succeeds with one of its outputs missing.
fn write_or_exit(what: &str, path: &str, body: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("{what}: failed to write {path}: {e}");
        std::process::exit(1)
    }
}

/// Renders the interval time-series' per-stage walk columns as Chrome
/// `"ph":"C"` counter rows for [`TraceBuffer::to_chrome_json_with`]:
/// one `walk_stage_cycles` sample per interval boundary carrying the
/// queued and active walk cycles attributed during that interval.
/// Empty unless both the metrics channel and the interval recorder ran.
///
/// [`TraceBuffer::to_chrome_json_with`]: gmmu_sim::trace::TraceBuffer::to_chrome_json_with
pub fn metrics_counter_rows(obs: &Observer) -> Vec<String> {
    if !obs.metrics.enabled() {
        return Vec::new();
    }
    let Some(rec) = obs.intervals.as_ref() else {
        return Vec::new();
    };
    rec.samples()
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"walk_stage_cycles\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"queue\":{},\"active\":{}}}}}",
                s.end_cycle, s.delta.walk_queue_cycles, s.delta.walk_active_cycles
            )
        })
        .collect()
}

/// Runs design points against cached workloads and memoized results.
pub struct Runner {
    opts: ExperimentOpts,
    /// Every single-workload input's build, made once and shared.
    workloads: HashMap<Build, Workload>,
    cache: HashMap<String, RunStats>,
    recorded: Vec<PointSpec>,
    /// Inside [`Runner::record`]: design points are captured and answered
    /// with placeholder stats. Otherwise each point is served from the
    /// memo cache, or simulated on the calling thread and memoized.
    recording: bool,
    /// The first fresh simulation still owes the `--trace`/`--intervals`/
    /// `--metrics` outputs and/or the `--capture-trace` recording.
    observe_pending: bool,
    /// Simulations executed (diagnostics; cache hits don't count).
    pub runs: usize,
    /// Metadata for every simulation executed, in a deterministic order
    /// (spec order for parallel sweeps, execution order otherwise).
    pub point_log: Vec<PointRun>,
}

impl Runner {
    /// Creates an empty runner.
    pub fn new(opts: ExperimentOpts) -> Self {
        Self {
            opts,
            workloads: HashMap::new(),
            cache: HashMap::new(),
            recorded: Vec::new(),
            recording: false,
            observe_pending: opts.observes(),
            runs: 0,
            point_log: Vec::new(),
        }
    }

    /// The scope this runner executes at.
    pub fn opts(&self) -> ExperimentOpts {
        self.opts
    }

    fn ensure_workload(&mut self, spec: &PointSpec) {
        if let Input::Workload(b) = spec.input {
            self.workloads.entry(b).or_insert_with(|| b.workload(0));
        }
    }

    /// The one simulate step of [`Runner::point`] and of the workers of
    /// [`Runner::run_points_parallel`]: simulates `spec` on a fresh
    /// [`Gpu`] and times it. A single workload runs on its shared build
    /// (after [`Runner::ensure_workload`]); a co-run builds its tenants'
    /// workloads here. With `observe` set (the first fresh point), the
    /// run carries the instruments the options ask for and writes their
    /// files; results are bit-identical to the unobserved run.
    fn execute(&self, key: &str, spec: &PointSpec, observe: bool) -> (PointRun, RunStats) {
        let started = Instant::now();
        let opts = self.opts;
        let mut obs = Observer::off();
        if observe && opts.trace.is_some() {
            obs.tracer = Tracer::recording();
        }
        if observe && opts.intervals.is_some() {
            obs.intervals = Some(IntervalRecorder::new(opts.interval_stride));
        }
        if observe && opts.metrics.is_some() {
            obs.metrics = Metrics::recording();
        }
        let capture = opts.capture_trace.filter(|_| observe);
        let mut gpu = Gpu::new(spec.cfg.clone());
        let stats = match &spec.input {
            Input::Workload(b) => {
                let w = &self.workloads[b];
                match capture {
                    Some(path) => capture_run(path, &mut gpu, b, w, &mut obs),
                    None => gpu.run_observed(w.kernel.as_ref(), &w.space, &mut obs),
                }
            }
            Input::Tenants(builds, policy) => {
                if let Some(path) = capture {
                    eprintln!("capture: {path}: GMTR records one workload, not a co-run");
                    std::process::exit(1)
                }
                let mut built: Vec<Workload> = builds
                    .iter()
                    .zip(0..)
                    .map(|(b, asid)| b.workload(asid))
                    .collect();
                let mut jobs: Vec<TenantJob<'_>> = built
                    .iter_mut()
                    .map(|w| TenantJob {
                        kernel: w.kernel.as_ref(),
                        space: &mut w.space,
                    })
                    .collect();
                gpu.run_tenants(&mut jobs, *policy, &mut obs)
            }
        };
        let run = PointRun::simulated(key, spec, started, &stats, observe);
        if observe {
            write_observations(opts, &run.bench, &gpu, &obs);
        }
        (run, stats)
    }

    /// Serves one design point: recorded inside [`Runner::record`],
    /// otherwise answered from the memo cache or simulated and memoized.
    /// Figures call it directly for points other than the scope's own
    /// workload builds, such as co-runs and their tenants run alone.
    pub fn point(&mut self, spec: PointSpec) -> RunStats {
        if self.recording {
            self.recorded.push(spec);
            return RunStats::zeroed();
        }
        let key = spec.key();
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        self.simulate(key, spec)
    }

    /// Simulates an uncached point whose memo key is `key`, serially,
    /// observing it if it is the first fresh point, and memoizes it.
    fn simulate(&mut self, key: String, spec: PointSpec) -> RunStats {
        self.ensure_workload(&spec);
        let observe = std::mem::take(&mut self.observe_pending);
        let (run, stats) = self.execute(&key, &spec, observe);
        self.runs += 1;
        self.point_log.push(run);
        self.cache.insert(key, stats.clone());
        stats
    }

    /// Runs one design point: the base configuration is the scope's GPU
    /// with an ideal MMU; `configure` applies the figure's changes.
    pub fn run(&mut self, bench: Bench, configure: impl FnOnce(&mut GpuConfig)) -> RunStats {
        self.run_paged(bench, PageSize::Base4K, configure)
    }

    /// [`Runner::run`] on the scope's build of `bench` with `pages`-sized
    /// pages, translated at that granule (2 MB pages in Section 9).
    pub fn run_paged(
        &mut self,
        bench: Bench,
        pages: PageSize,
        configure: impl FnOnce(&mut GpuConfig),
    ) -> RunStats {
        let ExperimentOpts { scale, seed, .. } = self.opts;
        let mut cfg = self.opts.gpu(MmuModel::Ideal);
        cfg.granule = pages;
        configure(&mut cfg);
        let build = Build {
            bench,
            scale,
            seed,
            pages,
        };
        let input = Input::Workload(build);
        self.point(PointSpec { input, cfg })
    }

    /// The plain no-TLB baseline every figure normalizes against
    /// (round-robin scheduling, no CCWS/TBC, ideal MMU).
    pub fn baseline(&mut self, bench: Bench) -> RunStats {
        self.run(bench, |_| {})
    }

    /// Speedup of a design point over the no-TLB baseline (the paper's
    /// y-axis).
    pub fn speedup(&mut self, bench: Bench, configure: impl FnOnce(&mut GpuConfig)) -> f64 {
        let base = self.baseline(bench);
        self.run(bench, configure).speedup_vs(&base)
    }

    /// Runs a figure function with its design points executed in
    /// parallel.
    ///
    /// `f` is called twice: a recording pass that captures every design
    /// point (simulating nothing and returning zeroed placeholder
    /// stats), then — after [`Runner::run_points_parallel`] has filled
    /// the memo cache — a replay pass whose output is returned. Since
    /// figure functions are pure table builders over the stats, the
    /// replay output is identical to running `f` serially, and any
    /// point the recording pass somehow missed is simply simulated
    /// on-demand during replay.
    pub fn sweep<T>(&mut self, f: impl Fn(&mut Runner) -> T) -> T {
        let (_, specs) = self.record(&f);
        self.run_points_parallel(specs);
        f(self)
    }

    /// Runs `f` in recording mode: every design point it asks for is
    /// captured and returned instead of simulated (`f` sees zeroed
    /// placeholder stats). Lets a caller batch the points of several
    /// figure functions into one [`Runner::run_points_parallel`] call.
    pub fn record<T>(&mut self, f: impl FnOnce(&mut Runner) -> T) -> (T, Vec<PointSpec>) {
        self.recording = true;
        self.recorded.clear();
        let out = f(self);
        self.recording = false;
        (out, std::mem::take(&mut self.recorded))
    }

    /// Simulates every not-yet-cached design point in `specs` on a pool
    /// of `opts.jobs` worker threads and memoizes the results.
    ///
    /// Single-workload builds are made once, serially, and shared
    /// immutably across the workers; each worker picks the next point off
    /// a shared atomic index. Scheduling order cannot affect results: a
    /// design point's simulation reads only its own `GpuConfig` and
    /// immutable workloads, or tenant workloads it builds itself.
    pub fn run_points_parallel(&mut self, specs: Vec<PointSpec>) {
        // Each key is formatted once and kept once: the first spec of
        // each uncached key stays, in spec order.
        let mut todo: Vec<(String, PointSpec)> = specs
            .into_iter()
            .map(|spec| (spec.key(), spec))
            .filter(|(key, _)| !self.cache.contains_key(key))
            .collect();
        let mut seen = HashSet::new();
        let first: Vec<bool> = todo
            .iter()
            .map(|(key, _)| seen.insert(key.as_str()))
            .collect();
        let mut first = first.into_iter();
        todo.retain(|_| first.next() == Some(true));
        if todo.is_empty() {
            return;
        }
        for (_, spec) in &todo {
            self.ensure_workload(spec);
        }
        if self.observe_pending {
            // The observed/captured point runs serially (its file
            // writes must not interleave with workers) and first, so
            // `--trace` or `--capture-trace` on a sweep applies to
            // the sweep's first design point.
            let (key, spec) = todo.remove(0);
            self.simulate(key, spec);
            if todo.is_empty() {
                return;
            }
        }
        let runner = &*self;
        let jobs = self.opts.jobs.clamp(1, todo.len());
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, PointRun, RunStats)>> =
            Mutex::new(Vec::with_capacity(todo.len()));
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((key, spec)) = todo.get(i) else {
                        break;
                    };
                    let (run, stats) = runner.execute(key, spec, false);
                    done.lock().unwrap().push((i, run, stats));
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|&(i, _, _)| i); // spec order, not completion order
        self.runs += done.len();
        // Every point ran once, so `done[i]` is `todo[i]`'s.
        for ((key, _), (_, run, stats)) in todo.into_iter().zip(done) {
            self.point_log.push(run);
            self.cache.insert(key, stats);
        }
    }
}

/// `gmmu replay`: replays a GMTR trace captured with `--capture-trace`.
/// Rebuilds the captured machine and address space, drives the cores
/// from the recorded kernel behaviour, and diffs every statistic
/// (except wall time) against the stats embedded in the trace. Exits 0 on an exact match, 1 on any difference or on a
/// refused file.
pub fn run_replay(opts: ExperimentOpts, path: &str) -> ! {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay: cannot read {path}: {e}");
            std::process::exit(1)
        }
    };
    let trace = match Trace::decode(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: {path} refused: {e:?}");
            std::process::exit(1)
        }
    };
    let cfg = trace.launch.config.clone();
    println!(
        "replay: {path}: kernel `{}` ({} threads), captured from `{}`, {} record(s)",
        trace.launch.kernel_name,
        trace.launch.num_threads,
        trace.launch.source,
        trace.records.len()
    );
    let started = Instant::now();
    let mut obs = Observer::off();
    if opts.metrics.is_some() {
        obs.metrics = Metrics::recording();
    }
    let (stats, snapshot) = match replay_run_observed(&trace, &cfg, &mut obs) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("replay: {path} refused: {e:?}");
            std::process::exit(1)
        }
    };
    println!(
        "replay: finished in {:.2}s: {} cycles, {} instructions, {} faults",
        started.elapsed().as_secs_f64(),
        stats.cycles,
        stats.instructions,
        stats.faults
    );
    // `--metrics` on a replay is a conformance check of its own: the
    // snapshot does not depend on the drive loop, so a file written by
    // the capturing run must match any replay byte-for-byte.
    if let (Some(metrics_path), Some(body)) = (opts.metrics, snapshot.as_deref()) {
        match std::fs::read_to_string(metrics_path) {
            Ok(golden) if golden == body => {
                println!("replay: metrics snapshot matches {metrics_path}");
            }
            Ok(_) => {
                eprintln!("replay: metrics snapshot diverged from {metrics_path}");
                std::process::exit(1)
            }
            Err(_) => match std::fs::write(metrics_path, body) {
                Ok(()) => println!("replay: metrics snapshot written to {metrics_path}"),
                Err(e) => {
                    eprintln!("replay: cannot write {metrics_path}: {e}");
                    std::process::exit(1)
                }
            },
        }
    }
    let diff = trace.stats.diff(&stats);
    if diff.is_empty() {
        println!("replay: statistics match the capture exactly");
        std::process::exit(0)
    }
    eprintln!(
        "replay: {} statistic(s) diverged from the capture:",
        diff.len()
    );
    for field in &diff {
        eprintln!("  {field}");
    }
    std::process::exit(1)
}

/// TLB geometry helper used by the design-space figures.
pub fn tlb(entries: usize, ports: usize, mode: TlbMode) -> TlbConfig {
    TlbConfig {
        entries,
        ports,
        mode,
        ..TlbConfig::naive()
    }
}

/// `MmuModel` helper.
pub fn mmu(tlb: TlbConfig, walker: WalkerConfig) -> MmuModel {
    MmuModel::Real { tlb, walker }
}

/// The paper's named design points.
pub mod designs {
    use super::*;

    /// Figure 2's strawman: 128-entry, 3-port, blocking, serial walker.
    pub fn naive3() -> MmuModel {
        mmu(tlb(128, 3, TlbMode::Blocking), WalkerConfig::serial())
    }

    /// 4-ported naive TLB (the Section 6.3 port fix alone).
    pub fn naive4() -> MmuModel {
        mmu(tlb(128, 4, TlbMode::Blocking), WalkerConfig::serial())
    }

    /// + hits under misses.
    pub fn hum() -> MmuModel {
        mmu(tlb(128, 4, TlbMode::HitUnderMiss), WalkerConfig::serial())
    }

    /// + overlapped cache access for TLB-hit threads.
    pub fn overlap() -> MmuModel {
        mmu(
            tlb(128, 4, TlbMode::HitUnderMissOverlap),
            WalkerConfig::serial(),
        )
    }

    /// + page-table-walk scheduling: the fully augmented design.
    pub fn augmented() -> MmuModel {
        MmuModel::augmented()
    }

    /// The impractical ideal: 512 entries, 32 ports, no latency.
    pub fn ideal_tlb() -> MmuModel {
        MmuModel::ideal_large_tlb()
    }

    /// Naive blocking TLB with `n` serial walkers (Figure 11).
    pub fn naive_multi_ptw(n: usize) -> MmuModel {
        mmu(tlb(128, 4, TlbMode::Blocking), WalkerConfig::serial_n(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, ArgError> {
        Cli::parse(line.split_whitespace().map(String::from))
    }

    fn refused(line: &str) -> String {
        match parse(line) {
            Err(ArgError::Usage(msg)) => msg,
            Err(ArgError::Help) => panic!("`{line}` asked for help"),
            Ok(_) => panic!("`{line}` was accepted"),
        }
    }

    #[test]
    fn flag_values_parse_inline_or_separate() {
        let spaced = parse("all --jobs 4 --interval-stride 3").unwrap();
        let inline = parse("all --jobs=4 --interval-stride=3").unwrap();
        assert_eq!(spaced.opts, inline.opts);
        assert_eq!(inline.opts.jobs, 4);
        assert_eq!(inline.opts.interval_stride, 3);
        // A path may itself contain `=`; only the first one splits.
        let cli = parse("replay t.gmtr --metrics=a=b.json").unwrap();
        assert_eq!(cli.opts.metrics, Some("a=b.json"));
        assert!(matches!(cli.command, Command::Replay("t.gmtr")));
    }

    #[test]
    fn subcommands_and_scope_parse() {
        let cli = parse("fig fig10 --quick --csv").unwrap();
        assert!(matches!(cli.command, Command::Fig(f) if f.name == "fig10"));
        assert!(cli.csv);
        assert_eq!(cli.opts, ExperimentOpts::quick());
        let cli = parse("--full all").unwrap();
        assert!(matches!(cli.command, Command::All));
        assert_eq!((cli.opts.scale, cli.opts.n_cores), (Scale::Full, 30));
        assert_eq!(parse("all --help").err(), Some(ArgError::Help));
    }

    /// The usage text is where `gmmu --help` readers find the figure
    /// names.
    #[test]
    fn usage_lists_every_registered_figure() {
        let listed = USAGE.split_once("is one of").unwrap().1;
        let listed = listed.split_once("\n  all").unwrap().0;
        let listed: Vec<&str> = listed
            .split([',', ' ', '\n'])
            .filter(|n| !n.is_empty())
            .collect();
        let registered: Vec<&str> = crate::figures::REGISTRY.iter().map(|f| f.name).collect();
        assert_eq!(listed, registered);
    }

    #[test]
    fn bad_command_lines_are_refused_not_exited() {
        assert!(refused("all --jobs 0").contains("--jobs"));
        assert!(refused("all --shard 0/1").contains("--shard"));
        assert!(refused("validate").contains("validate"));
        assert!(refused("fault-inject").contains("fault-inject"));
        assert!(refused("all --jobs").contains("needs a value"));
        assert!(refused("all --bogus").contains("--bogus"));
        assert!(refused("all --quick=1").contains("takes no value"));
        assert!(refused("plot").contains("plot"));
        assert!(refused("fig fig99").contains("fig99"));
        assert!(refused("fig").contains("figure name"));
        assert!(refused("replay").contains("trace path"));
        assert!(refused("all extra").contains("extra"));
        assert!(refused("--quick").contains("missing command"));
    }

    #[test]
    fn quick_runner_reproduces_the_headline_ordering() {
        let mut r = Runner::new(ExperimentOpts::quick());
        let naive = r.speedup(Bench::Memcached, |c| c.mmu = designs::naive3());
        let aug = r.speedup(Bench::Memcached, |c| c.mmu = designs::augmented());
        assert!(naive < 1.0, "naive TLBs must degrade: {naive}");
        assert!(aug > naive, "augmentation must recover: {aug} vs {naive}");
        assert!(aug > 0.8, "augmented should be near-ideal: {aug}");
        // Baseline and workload are cached: 3 runs total.
        assert_eq!(r.runs, 3);
    }

    #[test]
    fn baseline_is_cached_and_stable() {
        let mut r = Runner::new(ExperimentOpts::quick());
        let a = r.baseline(Bench::Kmeans);
        let b = r.baseline(Bench::Kmeans);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(r.runs, 1);
    }

    #[test]
    fn opts_scale_machine_consistently() {
        let q = ExperimentOpts::quick().gpu(MmuModel::Ideal);
        assert_eq!(q.mem.channels, 1);
        let f = ExperimentOpts::full().gpu(MmuModel::Ideal);
        assert_eq!(f.n_cores, 30);
        assert_eq!(f.mem.channels, 8, "the paper's full machine");
        let d = ExperimentOpts::default().gpu(MmuModel::Ideal);
        assert_eq!(d.mem.channels, 2);
    }

    /// A parallel sweep must be invisible: same tables, and the same
    /// stats for any point asked for afterwards, co-runs' per-tenant
    /// slices included. The serial runner also observes its first point,
    /// a co-run, which must not perturb it either.
    #[test]
    fn sweep_matches_serial_execution() {
        let points = |r: &mut Runner| {
            let cfg = r.opts().gpu(designs::augmented());
            let tiny = |bench, seed| Build {
                bench,
                scale: Scale::Tiny,
                seed,
                pages: PageSize::Base4K,
            };
            let builds = vec![tiny(Bench::Bfs, 3), tiny(Bench::Kmeans, 5)];
            let co_run = r.point(PointSpec {
                input: Input::Tenants(builds.clone(), TenantPolicy::default()),
                cfg: cfg.clone(),
            });
            let solo = r.point(PointSpec {
                input: Input::Workload(builds[0]),
                cfg,
            });
            let mut out = Vec::new();
            for bench in [Bench::Bfs, Bench::Memcached] {
                out.push(r.speedup(bench, |c| c.mmu = designs::naive3()));
                out.push(r.speedup(bench, |c| c.mmu = designs::augmented()));
            }
            (out, [co_run, solo])
        };
        let path = std::env::temp_dir().join(format!("gmmu-co-run-{}.json", std::process::id()));
        let mut serial = Runner::new(ExperimentOpts {
            jobs: 1,
            metrics: Some(leak_path(path.to_str().unwrap().into())),
            ..ExperimentOpts::quick()
        });
        let (a, a_stats) = points(&mut serial);
        let snapshot = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        let mut parallel = Runner::new(ExperimentOpts {
            jobs: 4,
            ..ExperimentOpts::quick()
        });
        let (b, b_stats) = parallel.sweep(points);
        assert_eq!(a, b);
        for (x, y) in a_stats.iter().zip(&b_stats) {
            assert!(x.diff(y).is_empty(), "fields differ: {:?}", x.diff(y));
            assert_eq!(x.tenants, y.tenants);
        }
        assert_eq!(b_stats[0].tenants.len(), 2, "a co-run reports each tenant");
        // A co-run, a solo run and 2 benches x (baseline + 2 designs),
        // each simulated once.
        assert_eq!(serial.runs, 8);
        assert_eq!(parallel.runs, 8);
        let observed = &serial.point_log[0];
        assert!(observed.observed && observed.bench == "Tenants");
        let snapshot = snapshot.expect("the co-run's snapshot was written");
        assert!(snapshot.contains("\"asid\": 1"), "no per-tenant section");
    }

    #[test]
    fn sweep_memoizes_across_calls() {
        let mut r = Runner::new(ExperimentOpts::quick());
        let f = |r: &mut Runner| r.speedup(Bench::Kmeans, |c| c.mmu = designs::augmented());
        let a = r.sweep(f);
        let executed = r.runs;
        let b = r.sweep(f);
        assert_eq!(a, b);
        assert_eq!(r.runs, executed, "second sweep must be all cache hits");
    }
}
