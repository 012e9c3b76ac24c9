//! Experiment plumbing shared by every figure harness.
//!
//! The paper reports each design point as a *speedup over the same GPU
//! without TLBs* (perfect, free translation). A [`Runner`] owns the
//! built workloads and memoizes every design point it has simulated, so
//! a figure sweep pays for workload construction and each distinct
//! configuration once.
//!
//! Design points are independent simulations, so a sweep can execute
//! them on a pool of worker threads. [`Runner::sweep`] does this
//! without changing any figure code: it runs the figure function once
//! in a *recording* pass that captures every design point it asks for
//! (returning placeholder stats), executes the distinct points on
//! [`Runner::run_points_parallel`], then replays the figure function
//! against the now-warm memo cache. Workloads and results are shared
//! immutably across workers; every simulation still starts from its
//! own freshly-built [`Gpu`], so results are bit-identical to a serial
//! sweep in any thread count.

use crate::figures::Figure;
use crate::prelude::*;
use gmmu_sim::ckpt::{Ckpt, Loader, Saver};
use gmmu_sim::metrics::Metrics;
use gmmu_sim::rng::fnv1a64;
use gmmu_sim::trace::Tracer;
use gmmu_simt::gpu::run_kernel;
use gmmu_simt::{IntervalRecorder, Kernel, Observer};
use gmmu_trace::{assemble, capture_launch, replay_run_observed, Recorder, Trace};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
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
  validate      capture/replay conformance matrix: six workloads x
                skip/per-cycle loop x plain/fault-injected; writes
                BENCH_validate.json
  replay PATH   replay a GMTR trace: rebuild the captured machine, drive
                it from the recorded behaviour, and diff the result
                against the stats embedded in the trace; exits non-zero
                on any difference
  fault-inject  every workload executes a fully demand-paged run (zero
                pre-mapped pages) and a mixed-fault run (partial unmap,
                delayed walks, transient rejects, shootdown storms);
                exits non-zero if any run panics, hangs, or trips the
                forward-progress watchdog
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
             hot-page table) to PATH as JSON; snapshots do not
             depend on the drive loop. Under `fig multitenant`: the
             4-tenant mixed-fault snapshot with per-tenant sections.
             Under `replay`: diff the replayed snapshot against PATH
             when the file exists (exit non-zero on any difference),
             write it otherwise
  --fault-seed N
             seed for the deterministic fault schedules (default 0xfa57)
  --journal PATH
             restartable sweeps: append every completed design point
             (key, wall time, full stats) to PATH and, on start, serve
             points already journaled from PATH without recompute — a
             killed sweep resumes where it left off
  --shard I/N
             run only every N-th design point starting at I (0-based)
             of the deduplicated sweep; combine with a shared --journal
             to split one sweep across N processes or machines, then
             merge with a final unsharded run on the same journal
  --kill-after N
             stop after N freshly simulated design points with exit
             status 3, journal intact (exercises the resume path)
  --capture-trace PATH
             record the first simulated design point to a GMTR trace
             file: the kernel's full data-dependent behaviour plus the
             machine configuration and final stats. Recording does not
             perturb the run
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
    /// `validate`: the capture/replay conformance matrix.
    Validate,
    /// `replay PATH`: replay and verify one GMTR trace ([`run_replay`]).
    Replay(&'static str),
    /// `fault-inject`: the fault-injection harness
    /// ([`run_fault_injection`]).
    FaultInject,
}

/// A parsed command line: the subcommand, the experiment scope every
/// subcommand shares, and the `--csv` presentation flag.
#[derive(Clone, Copy)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Scope, observability and journal options.
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
                "--fault-seed" => opts.fault_seed = parse_seed(&value()?)?,
                "--journal" => opts.journal = Some(leak_path(value()?)),
                "--shard" => opts.shard = Some(parse_shard(&value()?)?),
                "--kill-after" => opts.kill_after = Some(positive(flag, &value()?)?),
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
            Some("validate") => Command::Validate,
            Some("replay") => Command::Replay(leak_path(
                positional
                    .next()
                    .ok_or_else(|| bad("`replay` needs a trace path".into()))?,
            )),
            Some("fault-inject") => Command::FaultInject,
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
    /// Seed for the deterministic fault schedules (`--fault-seed`).
    pub fault_seed: u64,
    /// Journal completed design points to this path and replay it on
    /// start (`--journal`): the restartable-sweep mechanism.
    pub journal: Option<&'static str>,
    /// Run only design points `i % n == shard.0` of the deduplicated
    /// sweep (`--shard I/N`).
    pub shard: Option<(usize, usize)>,
    /// Exit with status 3 after this many freshly simulated points
    /// (`--kill-after`; exercises journal resume).
    pub kill_after: Option<usize>,
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
            fault_seed: 0xfa57,
            journal: None,
            shard: None,
            kill_after: None,
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
    /// `--metrics`) was requested.
    pub fn observes(&self) -> bool {
        self.trace.is_some() || self.intervals.is_some() || self.metrics.is_some()
    }

    /// Whether trace capture (`--capture-trace`) was requested.
    pub fn captures(&self) -> bool {
        self.capture_trace.is_some()
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

fn parse_shard(v: &str) -> Result<(usize, usize), ArgError> {
    v.split_once('/')
        .and_then(|(i, n)| {
            let i = i.parse::<usize>().ok()?;
            let n = n.parse::<usize>().ok()?;
            (n >= 1 && i < n).then_some((i, n))
        })
        .ok_or_else(|| ArgError::Usage(format!("`--shard` needs I/N with 0 <= I < N, got `{v}`")))
}

fn parse_seed(v: &str) -> Result<u64, ArgError> {
    v.strip_prefix("0x")
        .map_or_else(|| v.parse::<u64>(), |h| u64::from_str_radix(h, 16))
        .map_err(|_| ArgError::Usage(format!("`--fault-seed` needs an integer, got `{v}`")))
}

/// Output paths live for the whole process (they came from argv), which
/// keeps [`ExperimentOpts`] `Copy` — one leaked allocation per flag.
fn leak_path(v: String) -> &'static str {
    Box::leak(v.into_boxed_str())
}

/// One design point a sweep will simulate: which workload build and the
/// full GPU configuration to run it under.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Workload to run.
    pub bench: Bench,
    /// Use the 2 MB-page build of the workload (Section 9).
    pub large_pages: bool,
    /// Complete GPU configuration (figure adjustments already applied).
    pub cfg: GpuConfig,
}

impl PointSpec {
    /// Memo-cache key. `GpuConfig`'s `Debug` output covers every field
    /// (all plain integers/enums), so two points with equal keys are
    /// the same simulation.
    pub fn key(&self) -> String {
        format!("{}:{:?}:{:?}", self.large_pages, self.bench, self.cfg)
    }
}

/// Run metadata for one executed design point (cache hits excluded),
/// folded into `BENCH_all_figures.json` alongside the tables.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Workload simulated.
    pub bench: Bench,
    /// Whether the 2 MB-page workload build ran.
    pub large_pages: bool,
    /// FNV-1a 64 hash of the full memo key (bench + complete
    /// `GpuConfig`): a stable fingerprint of the configuration.
    pub fingerprint: u64,
    /// Drive loop that executed the point: `event_skip` or
    /// `tick_every_cycle`.
    pub engine: &'static str,
    /// Wall-clock seconds the simulation took.
    pub wall_s: f64,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second
    /// ([`RunStats::cycles_per_sec`]), the throughput metric.
    pub sim_cycles_per_sec: f64,
    /// Whether this was the observed run (`--trace` / `--intervals`).
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
            bench: spec.bench,
            large_pages: spec.large_pages,
            fingerprint: fnv1a64(key.as_bytes()),
            engine: engine_label(&spec.cfg),
            wall_s: started.elapsed().as_secs_f64(),
            cycles: stats.cycles,
            sim_cycles_per_sec: stats.cycles_per_sec(),
            observed,
        }
    }
}

/// Drive-loop label for run metadata.
fn engine_label(cfg: &GpuConfig) -> &'static str {
    if cfg.tick_every_cycle {
        "tick_every_cycle"
    } else {
        "event_skip"
    }
}

/// Maps a journaled loop label back to the static string
/// [`engine_label`] would have produced.
fn engine_label_from_journal(v: &str) -> &'static str {
    match v {
        "tick_every_cycle" => "tick_every_cycle",
        "event_skip" => "event_skip",
        _ => "journal",
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex_encode`]. Works on bytes, so a damaged field with
/// non-ASCII text is refused rather than sliced mid-character.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi << 4 | lo) as u8)
        })
        .collect()
}

/// Simulates one design point with the observation instruments the
/// options ask for, writing the trace / interval / GMTR capture files
/// as a side effect. Results are bit-identical to the unobserved run.
fn observed_run(opts: ExperimentOpts, spec: &PointSpec, w: &Workload) -> RunStats {
    let mut obs = Observer::off();
    if opts.trace.is_some() {
        obs.tracer = Tracer::recording();
    }
    if opts.intervals.is_some() {
        obs.intervals = Some(IntervalRecorder::new(opts.interval_stride));
    }
    if opts.metrics.is_some() {
        obs.metrics = Metrics::recording();
    }
    // Trace capture wraps the kernel in a recorder and snapshots the
    // launch *before* the run, so a replay rebuilds the same initial
    // address space. Recording every kernel answer does not perturb the
    // simulation (the recorder delegates to the pure kernel).
    let launch = opts.capture_trace.map(|_| {
        let source = format!("{:?} {:?} seed={}", spec.bench, opts.scale, opts.seed);
        capture_launch(w.kernel.as_ref(), &w.space, &spec.cfg, &source)
    });
    let recorder = opts.capture_trace.map(|_| Recorder::new(w.kernel.as_ref()));
    let kernel: &dyn Kernel = match &recorder {
        Some(rec) => rec,
        None => w.kernel.as_ref(),
    };
    let mut gpu = Gpu::new(spec.cfg.clone());
    let stats = gpu.run_observed(kernel, &w.space, &mut obs);
    let snapshot = gpu.metrics_snapshot(&obs);
    if let (Some(path), Some(launch), Some(rec)) = (opts.capture_trace, launch, recorder) {
        let trace = assemble(launch, rec, &stats);
        let bytes = trace.encode();
        match std::fs::write(path, &bytes) {
            Ok(()) => eprintln!(
                "capture: {} record(s) from {:?} written to {path} ({} bytes)",
                trace.records.len(),
                spec.bench,
                bytes.len()
            ),
            Err(e) => eprintln!("capture: failed to write {path}: {e}"),
        }
    }
    if let (Some(path), Some(buf)) = (opts.trace, obs.tracer.buffer()) {
        // With the metrics channel and interval recorder both on, the
        // span trace gains a counter track of per-stage walk cycles.
        let counters = metrics_counter_rows(&obs);
        match std::fs::write(path, buf.to_chrome_json_with(&counters)) {
            Ok(()) => eprintln!(
                "trace: {} events from {:?} written to {path}",
                buf.len(),
                spec.bench
            ),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
    if let (Some(path), Some(rec)) = (opts.intervals, obs.intervals.as_ref()) {
        let body = if path.ends_with(".json") {
            rec.to_json()
        } else {
            rec.to_csv()
        };
        match std::fs::write(path, body) {
            Ok(()) => eprintln!(
                "intervals: {} samples from {:?} written to {path}",
                rec.samples().len(),
                spec.bench
            ),
            Err(e) => eprintln!("intervals: failed to write {path}: {e}"),
        }
    }
    if let (Some(path), Some(body)) = (opts.metrics, snapshot) {
        match std::fs::write(path, &body) {
            Ok(()) => eprintln!(
                "metrics: snapshot from {:?} written to {path} ({} bytes)",
                spec.bench,
                body.len()
            ),
            Err(e) => eprintln!("metrics: failed to write {path}: {e}"),
        }
    }
    stats
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

/// Renders one completed design point as a sweep-journal line: version
/// tag, key fingerprint, engine label, wall seconds, the full
/// [`RunStats`] as hex-encoded codec bytes, and the memo key itself.
fn journal_line(key: &str, run: &PointRun, stats: &RunStats) -> String {
    let mut w = Saver::new();
    stats.save(&mut w);
    format!(
        "v1\t{:016x}\t{}\t{:.6}\t{}\t{}\n",
        run.fingerprint,
        run.engine,
        run.wall_s,
        hex_encode(&w.into_bytes()),
        key
    )
}

/// Appends [`journal_line`] to the sweep journal. One line per point; a
/// line is only ever appended after its stats are final, so a killed
/// sweep leaves a valid journal.
fn journal_append(
    journal: &Option<Mutex<std::fs::File>>,
    key: &str,
    run: &PointRun,
    stats: &RunStats,
) {
    let Some(file) = journal else { return };
    let line = journal_line(key, run, stats);
    use std::io::Write as _;
    let mut f = file.lock().unwrap();
    if f.write_all(line.as_bytes())
        .and_then(|()| f.flush())
        .is_err()
    {
        eprintln!("journal: append failed for {:016x}", run.fingerprint);
    }
}

/// Parses one journal line back into the point it recorded. Returns
/// `None` (the caller skips the line) on any malformed field, a
/// fingerprint that does not match the key, or stats bytes that do not
/// decode exactly.
fn parse_journal_line(line: &str) -> Option<(String, PointRun, RunStats)> {
    let mut fields = line.splitn(6, '\t');
    if fields.next()? != "v1" {
        return None;
    }
    let fingerprint = u64::from_str_radix(fields.next()?, 16).ok()?;
    let engine = engine_label_from_journal(fields.next()?);
    let wall_s = fields.next()?.parse::<f64>().ok()?;
    let bytes = hex_decode(fields.next()?)?;
    let key = fields.next()?.to_string();
    if fnv1a64(key.as_bytes()) != fingerprint {
        return None;
    }
    let mut r = Loader::new(&bytes);
    let mut stats = RunStats::zeroed();
    stats.load(&mut r).ok()?;
    if r.remaining() != 0 {
        return None;
    }
    // The key is `{large_pages}:{bench:?}:{cfg:?}`.
    let (large, rest) = key.split_once(':')?;
    let (bench, _) = rest.split_once(':')?;
    let large_pages = large.parse::<bool>().ok()?;
    let bench = Bench::all()
        .into_iter()
        .find(|b| format!("{b:?}") == bench)?;
    let run = PointRun {
        bench,
        large_pages,
        fingerprint,
        engine,
        wall_s,
        cycles: stats.cycles,
        sim_cycles_per_sec: stats.cycles_per_sec(),
        observed: false,
    };
    Some((key, run, stats))
}

/// How [`Runner::run`] services a design point (see [`Runner::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Simulate on the calling thread (memoized).
    Direct,
    /// Record the point and return placeholder stats.
    Record,
    /// Serve from the memo cache (falling back to direct execution for
    /// any point the recording pass did not see).
    Replay,
}

/// Runs design points against cached workloads and memoized results.
pub struct Runner {
    opts: ExperimentOpts,
    workloads: HashMap<Bench, Workload>,
    large_page_workloads: HashMap<Bench, Workload>,
    cache: HashMap<String, RunStats>,
    recorded: Vec<PointSpec>,
    mode: Mode,
    /// The first fresh simulation still owes the `--trace`/`--intervals`/
    /// `--metrics` outputs and/or the `--capture-trace` recording.
    observe_pending: bool,
    /// Open journal (`--journal`); completed points append here.
    journal_file: Option<Mutex<std::fs::File>>,
    /// Simulations executed (diagnostics; cache hits don't count).
    pub runs: usize,
    /// Design points served from the journal without recompute.
    pub journal_hits: usize,
    /// Metadata for every simulation executed, in a deterministic order
    /// (spec order for parallel sweeps, execution order otherwise;
    /// journal-replayed points lead in journal order).
    pub point_log: Vec<PointRun>,
}

impl Runner {
    /// Creates an empty runner. With `opts.journal` set, the journal is
    /// opened for append and every point it already records is loaded
    /// into the memo cache — those points replay without recompute.
    pub fn new(opts: ExperimentOpts) -> Self {
        let journal_file = opts.journal.map(|path| {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path);
            match file {
                Ok(f) => Mutex::new(f),
                Err(e) => {
                    eprintln!("journal: cannot open {path}: {e}");
                    std::process::exit(2)
                }
            }
        });
        let mut runner = Self {
            opts,
            workloads: HashMap::new(),
            large_page_workloads: HashMap::new(),
            cache: HashMap::new(),
            recorded: Vec::new(),
            mode: Mode::Direct,
            observe_pending: opts.observes() || opts.captures(),
            journal_file,
            runs: 0,
            journal_hits: 0,
            point_log: Vec::new(),
        };
        runner.load_journal();
        runner
    }

    /// Replays every valid line of the journal into the memo cache and
    /// the point log; malformed or stale lines are skipped with a note.
    fn load_journal(&mut self) {
        let Some(path) = self.opts.journal else {
            return;
        };
        let Ok(body) = std::fs::read(path) else {
            return; // fresh journal: nothing to replay
        };
        // Lines are decoded one at a time, so a damaged byte costs its
        // own line rather than the whole journal.
        for line in body.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line).ok().and_then(parse_journal_line);
            let Some((key, run, stats)) = parsed else {
                eprintln!("journal: skipping a malformed line in {path}");
                continue;
            };
            if self.cache.contains_key(&key) {
                continue; // duplicate point (e.g. overlapping shards)
            }
            self.journal_hits += 1;
            self.point_log.push(run);
            self.cache.insert(key, stats);
        }
        if self.journal_hits > 0 {
            eprintln!(
                "[journal] {} point(s) replayed from {path}",
                self.journal_hits
            );
        }
    }

    /// The scope this runner executes at.
    pub fn opts(&self) -> ExperimentOpts {
        self.opts
    }

    fn ensure_workload(&mut self, bench: Bench, large_pages: bool) {
        let opts = self.opts;
        if large_pages {
            self.large_page_workloads
                .entry(bench)
                .or_insert_with(|| build_paged(bench, opts.scale, opts.seed, PageSize::Large2M));
        } else {
            self.workloads
                .entry(bench)
                .or_insert_with(|| build(bench, opts.scale, opts.seed));
        }
    }

    /// The built workload `spec` runs on (after [`Runner::ensure_workload`]).
    fn workload(&self, spec: &PointSpec) -> &Workload {
        if spec.large_pages {
            &self.large_page_workloads[&spec.bench]
        } else {
            &self.workloads[&spec.bench]
        }
    }

    fn point(&mut self, spec: PointSpec) -> RunStats {
        if self.mode == Mode::Record {
            self.recorded.push(spec);
            return RunStats::zeroed();
        }
        let key = spec.key();
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        self.ensure_workload(spec.bench, spec.large_pages);
        let observe = self.observe_pending;
        self.observe_pending = false;
        let opts = self.opts;
        let started = Instant::now();
        let w = self.workload(&spec);
        let stats = if observe {
            observed_run(opts, &spec, w)
        } else {
            run_kernel(spec.cfg.clone(), w.kernel.as_ref(), &w.space)
        };
        self.runs += 1;
        let run = PointRun::simulated(&key, &spec, started, &stats, observe && opts.observes());
        journal_append(&self.journal_file, &key, &run, &stats);
        self.point_log.push(run);
        self.cache.insert(key, stats.clone());
        stats
    }

    /// Runs one design point: the base configuration is the scope's GPU
    /// with an ideal MMU; `configure` applies the figure's changes.
    pub fn run(&mut self, bench: Bench, configure: impl FnOnce(&mut GpuConfig)) -> RunStats {
        let mut cfg = self.opts.gpu(MmuModel::Ideal);
        configure(&mut cfg);
        self.point(PointSpec {
            bench,
            large_pages: false,
            cfg,
        })
    }

    /// Same as [`Runner::run`] but on the 2 MB-page build of the
    /// workload (Section 9); sets the 2 MB translation granule.
    pub fn run_large_pages(
        &mut self,
        bench: Bench,
        configure: impl FnOnce(&mut GpuConfig),
    ) -> RunStats {
        let mut cfg = self.opts.gpu(MmuModel::Ideal);
        cfg.granule = PageSize::Large2M;
        configure(&mut cfg);
        self.point(PointSpec {
            bench,
            large_pages: true,
            cfg,
        })
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
        self.mode = Mode::Replay;
        let out = f(self);
        self.mode = Mode::Direct;
        out
    }

    /// Runs `f` in recording mode: every design point it asks for is
    /// captured and returned instead of simulated (`f` sees zeroed
    /// placeholder stats). Lets a caller batch the points of several
    /// figure functions into one [`Runner::run_points_parallel`] call.
    pub fn record<T>(&mut self, f: impl FnOnce(&mut Runner) -> T) -> (T, Vec<PointSpec>) {
        self.mode = Mode::Record;
        self.recorded.clear();
        let out = f(self);
        self.mode = Mode::Direct;
        (out, std::mem::take(&mut self.recorded))
    }

    /// Simulates every not-yet-cached design point in `specs` on a pool
    /// of `opts.jobs` worker threads and memoizes the results.
    ///
    /// Workloads are built once (serially, so construction order and
    /// RNG streams match the serial path) and shared immutably across
    /// the workers; each worker picks the next point off a shared
    /// atomic index. Scheduling order cannot affect results: a design
    /// point's simulation reads only its own `GpuConfig` and the
    /// immutable workload.
    pub fn run_points_parallel(&mut self, specs: Vec<PointSpec>) {
        let mut seen = HashSet::new();
        let mut todo: Vec<(String, PointSpec)> = Vec::new();
        for spec in specs {
            let key = spec.key();
            if !self.cache.contains_key(&key) && seen.insert(key.clone()) {
                todo.push((key, spec));
            }
        }
        // Shard the deduplicated, deterministically ordered queue:
        // worker `i` of `n` takes every n-th point. Journaled points
        // were already dropped above, so resumed shards skip straight
        // to their remaining work.
        if let Some((shard, n)) = self.opts.shard {
            if n > 1 {
                let mut i = 0usize;
                todo.retain(|_| {
                    let keep = i % n == shard;
                    i += 1;
                    keep
                });
            }
        }
        // `--kill-after N`: simulate a mid-sweep kill at a clean point
        // boundary — run N fresh points, journal them, exit(3).
        let mut kill = false;
        if let Some(n) = self.opts.kill_after {
            if todo.len() > n {
                todo.truncate(n);
                kill = true;
            }
        }
        if todo.is_empty() {
            return;
        }
        for (_, spec) in &todo {
            self.ensure_workload(spec.bench, spec.large_pages);
        }
        if self.observe_pending {
            // The observed/captured point runs serially (its file
            // writes must not interleave with workers) and first, so
            // `--trace` or `--capture-trace` on a sweep applies to
            // the sweep's first design point.
            let (_, spec) = todo.remove(0);
            self.point(spec);
            if todo.is_empty() {
                self.exit_if_killed(kill);
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
                    let started = Instant::now();
                    let w = runner.workload(spec);
                    let stats = run_kernel(spec.cfg.clone(), w.kernel.as_ref(), &w.space);
                    let run = PointRun::simulated(key, spec, started, &stats, false);
                    // Journaled the moment it completes, so a real kill
                    // loses at most the in-flight points.
                    journal_append(&runner.journal_file, key, &run, &stats);
                    done.lock().unwrap().push((i, run, stats));
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|&(i, _, _)| i); // spec order, not completion order
        self.runs += done.len();
        for (i, run, stats) in done {
            let (key, _) = &todo[i];
            self.point_log.push(run);
            self.cache.insert(key.clone(), stats);
        }
        self.exit_if_killed(kill);
    }

    /// Terminates a `--kill-after` run once its point budget is spent:
    /// the journal already holds every completed point, so the next run
    /// with the same `--journal` resumes without recompute.
    fn exit_if_killed(&self, kill: bool) {
        if kill {
            eprintln!(
                "[journal] stopping after {} fresh point(s) (--kill-after); \
                 rerun with the same --journal to resume",
                self.runs
            );
            std::process::exit(3)
        }
    }
}

/// `gmmu fault-inject`: proves every recovery path survives on all six
/// workloads, then exits. Each benchmark executes twice —
///
/// 1. **demand-paged**: every data page starts unmapped, so the whole
///    footprint arrives through page faults serviced by the modeled CPU
///    fault handler;
/// 2. **mixed-fault**: [`FaultInjectConfig::smoke`] — a quarter of the
///    pages unmapped plus delayed walks, transient rejections, and
///    TLB-shootdown storms that remap live regions mid-run.
///
/// The forward-progress watchdog is armed throughout; any panic, hang,
/// watchdog trip, or fault-free demand-paged run exits non-zero.
pub fn run_fault_injection(opts: ExperimentOpts) -> ! {
    println!(
        "fault-injection harness: seed {:#x}, {:?} scale, augmented MMU",
        opts.fault_seed, opts.scale
    );
    println!(
        "{:<14} {:<13} {:>12} {:>8} {:>10} {:>9}  status",
        "bench", "run", "cycles", "faults", "shootdowns", "squashed"
    );
    let mut failures = 0u32;
    for bench in Bench::all() {
        for (label, inject) in [
            (
                "demand-paged",
                FaultInjectConfig::demand_paged(opts.fault_seed),
            ),
            ("mixed-fault", FaultInjectConfig::smoke(opts.fault_seed)),
        ] {
            let (mut w, unmapped) = build_demand_paged(bench, opts.scale, opts.seed, &inject);
            let mut cfg = opts.gpu(designs::augmented());
            cfg.fault = FaultConfig::demand();
            cfg.inject = Some(inject);
            let stats =
                Gpu::new(cfg).run_faulted(w.kernel.as_ref(), &mut w.space, &mut Observer::off());
            let ok = stats.completed && (unmapped == 0 || stats.faults > 0);
            let status = if stats.watchdog_fired {
                "WATCHDOG"
            } else if !ok {
                "FAILED"
            } else {
                "ok"
            };
            if !ok {
                failures += 1;
            }
            println!(
                "{:<14} {:<13} {:>12} {:>8} {:>10} {:>9}  {status}",
                bench.name(),
                label,
                stats.cycles,
                stats.faults,
                stats.shootdowns,
                stats.squashed_walks
            );
        }
    }
    if failures > 0 {
        eprintln!("fault injection: {failures} run(s) failed");
        std::process::exit(1)
    }
    std::process::exit(0)
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
        let spaced = parse("all --jobs 4 --shard 1/2 --fault-seed 0x10").unwrap();
        let inline = parse("all --jobs=4 --shard=1/2 --fault-seed=0x10").unwrap();
        assert_eq!(spaced.opts, inline.opts);
        assert_eq!(inline.opts.jobs, 4);
        assert_eq!(inline.opts.shard, Some((1, 2)));
        assert_eq!(inline.opts.fault_seed, 16);
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
        let cli = parse("--full fault-inject").unwrap();
        assert!(matches!(cli.command, Command::FaultInject));
        assert_eq!((cli.opts.scale, cli.opts.n_cores), (Scale::Full, 30));
        assert!(matches!(
            parse("validate").unwrap().command,
            Command::Validate
        ));
        assert_eq!(parse("all --help").err(), Some(ArgError::Help));
    }

    /// The usage text is where `gmmu --help` readers (and the CI slice
    /// check) find the figure names.
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
        assert!(refused("all --shard 2/2").contains("--shard"));
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
    /// stats for any point asked for afterwards.
    #[test]
    fn sweep_matches_serial_execution() {
        let points = |r: &mut Runner| {
            let mut out = Vec::new();
            for bench in [Bench::Bfs, Bench::Memcached] {
                out.push(r.speedup(bench, |c| c.mmu = designs::naive3()));
                out.push(r.speedup(bench, |c| c.mmu = designs::augmented()));
            }
            out
        };
        let mut serial = Runner::new(ExperimentOpts {
            jobs: 1,
            ..ExperimentOpts::quick()
        });
        let a = points(&mut serial);
        let mut parallel = Runner::new(ExperimentOpts {
            jobs: 4,
            ..ExperimentOpts::quick()
        });
        let b = parallel.sweep(points);
        assert_eq!(a, b);
        // 2 benches x (baseline + 2 designs), each simulated once.
        assert_eq!(serial.runs, 6);
        assert_eq!(parallel.runs, 6);
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

    /// One real design point, as the journal would record it: its memo
    /// key, run metadata (wall time pinned to a value the journal's
    /// six-decimal field holds exactly) and stats.
    fn real_point() -> (String, PointRun, RunStats) {
        let mut r = Runner::new(ExperimentOpts::quick());
        r.run(Bench::Kmeans, |c| c.mmu = designs::naive3());
        let (key, stats) = r.cache.drain().next().expect("one simulated point");
        let mut run = r.point_log.pop().expect("one logged point");
        run.wall_s = 0.125;
        (key, run, stats)
    }

    #[test]
    fn journal_line_parses_back_to_the_same_point() {
        let (key, run, stats) = real_point();
        let line = journal_line(&key, &run, &stats);
        let (k, back_run, back) = parse_journal_line(line.trim_end()).expect("line parses");
        assert_eq!(k, key);
        assert!(back.diff(&stats).is_empty(), "{:?}", back.diff(&stats));
        assert_eq!(back.wall_s.to_bits(), stats.wall_s.to_bits());
        assert_eq!(
            (back_run.bench, back_run.large_pages, back_run.fingerprint),
            (run.bench, run.large_pages, run.fingerprint)
        );
        assert_eq!((back_run.engine, back_run.wall_s), (run.engine, run.wall_s));
        assert_eq!(back_run.cycles, stats.cycles);
    }

    #[test]
    fn journal_refuses_damaged_lines() {
        let (key, run, stats) = real_point();
        let line = journal_line(&key, &run, &stats);
        let line = line.trim_end();
        let fields: Vec<&str> = line.splitn(6, '\t').collect();
        let with = |i: usize, v: &str| {
            let mut f = fields.clone();
            f[i] = v;
            f.join("\t")
        };
        let other_fp = format!("{:016x}", run.fingerprint ^ 1);
        let hex = fields[4];
        let damaged = [
            ("version tag", with(0, "v2")),
            ("fingerprint", with(1, &other_fp)),
            ("odd-length stats", with(4, &hex[1..])),
            ("non-hex stats", with(4, &format!("zz{}", &hex[2..]))),
            ("trailing stats bytes", with(4, &format!("{hex}00"))),
        ];
        for (what, bad) in &damaged {
            assert!(parse_journal_line(bad).is_none(), "{what} was accepted");
        }
        // A writer killed mid-append leaves a strict prefix of the line.
        for cut in 0..line.len() {
            assert!(
                parse_journal_line(&line[..cut]).is_none(),
                "a line cut at byte {cut} was accepted"
            );
        }
    }

    /// A journal byte that is not UTF-8 costs only its own line: the
    /// intact line after it still replays.
    #[test]
    fn journal_keeps_good_lines_around_a_damaged_one() {
        let (key, run, stats) = real_point();
        let mut body = b"v1\t\xff damaged\n".to_vec();
        body.extend_from_slice(journal_line(&key, &run, &stats).as_bytes());
        let path = std::env::temp_dir().join(format!("gmmu-journal-{}", std::process::id()));
        std::fs::write(&path, &body).expect("write journal");
        let r = Runner::new(ExperimentOpts {
            journal: Some(leak_path(path.display().to_string())),
            ..ExperimentOpts::quick()
        });
        let _ = std::fs::remove_file(&path);
        assert_eq!(r.journal_hits, 1);
        assert!(r.cache.contains_key(&key));
    }

    /// A damaged line whose stats field holds a multi-byte character at
    /// an even length once sliced the hex decoder mid-character.
    #[test]
    fn journal_refuses_non_ascii_stats_without_panicking() {
        let line = include_str!("../tests/fixtures/journal_line_non_ascii_stats.txt");
        assert!(!line.is_ascii());
        assert!(parse_journal_line(line).is_none());
    }

    /// Seeded single-byte damage and truncation of a real journal line:
    /// the parser may refuse it or (for a damaged wall time or engine
    /// label) accept it, but never panics. Damaged bytes are read back
    /// lossily, so non-ASCII text reaches the parser too.
    #[test]
    fn journal_parser_survives_seeded_byte_mutations() {
        use gmmu_sim::rng::Xoshiro256;
        let (key, run, stats) = real_point();
        let line = journal_line(&key, &run, &stats)
            .trim_end()
            .as_bytes()
            .to_vec();
        let mut rng = Xoshiro256::seed_from(0x6a6f_7572);
        let mut inputs: Vec<Vec<u8>> = (0..1_200)
            .map(|_| {
                let mut m = line.clone();
                let at = rng.gen_range(0..line.len() as u64) as usize;
                m[at] ^= rng.gen_range(1..256) as u8;
                m
            })
            .collect();
        inputs.extend((0..200).map(|_| {
            let cut = rng.gen_range(0..line.len() as u64) as usize;
            line[..cut].to_vec()
        }));
        for (i, bytes) in inputs.iter().enumerate() {
            let text = String::from_utf8_lossy(bytes);
            let parsed = std::panic::catch_unwind(|| parse_journal_line(&text).is_some());
            assert!(parsed.is_ok(), "input {i} panicked the journal parser");
        }
    }
}
