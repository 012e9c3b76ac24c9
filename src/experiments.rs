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

use crate::prelude::*;
use gmmu_sim::ckpt::{Ckpt, Loader, Saver};
use gmmu_sim::metrics::Metrics;
use gmmu_sim::rng::fnv1a64;
use gmmu_sim::trace::Tracer;
use gmmu_simt::gpu::{run_kernel, CheckpointOpts};
use gmmu_simt::{IntervalRecorder, Kernel, Observer};
use gmmu_trace::{assemble, capture_launch, replay_run_observed, Recorder, Trace};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const USAGE: &str = "usage: harness [--quick | --full] [--csv] [--jobs N]
               [--trace PATH] [--intervals PATH] [--interval-stride N]
               [--metrics PATH]
               [--fault-inject] [--fault-seed N]
               [--journal PATH] [--shard I/N] [--kill-after N]
               [--checkpoint-every N] [--checkpoint-path PATH]
               [--resume PATH] [--capture-trace PATH] [--replay PATH]
  --quick    tiny workloads on a 2-core machine (CI/smoke scope)
  --full     the paper's full 30-core machine (slow; final numbers)
  --csv      also print each table as CSV
  --jobs N   worker threads for design-point sweeps
             (default: GMMU_JOBS or the machine's available parallelism)
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
             depend on the drive loop. Under --replay: diff the replayed
             snapshot against PATH when the file exists (exit non-zero
             on any difference), write it otherwise
  --fault-inject
             run the fault-injection harness instead of the figure:
             every workload executes a fully demand-paged run (zero
             pre-mapped pages) and a mixed-fault run (partial unmap,
             delayed walks, transient rejects, shootdown storms);
             exits non-zero if any run panics, hangs, or trips the
             forward-progress watchdog
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
  --checkpoint-every N
             snapshot the first simulated design point every N cycles
             to --checkpoint-path (atomic overwrite, latest image wins)
  --checkpoint-path PATH
             where --checkpoint-every writes (default gmmu.ckpt)
  --resume PATH
             resume the first simulated design point from a checkpoint
             image written by --checkpoint-every (the configuration and
             instruments must match the snapshotting run)
  --capture-trace PATH
             record the first simulated design point to a GMTR trace
             file: the kernel's full data-dependent behaviour plus the
             machine configuration and final stats. Recording does not
             perturb the run. Incompatible with --resume (a resumed run
             only exercises the tail of the kernel)
  --replay PATH
             replay a GMTR trace instead of running the figure: rebuild
             the captured machine, drive it from the recorded behaviour,
             and diff the result against the stats embedded in the
             trace; exits non-zero on any difference
environment:
  GMMU_TICK_EVERY_CYCLE
             when set, visit every cycle instead of skipping idle
             spans (the per-cycle referee; results are identical)";

/// Default sweep parallelism: the `GMMU_JOBS` environment variable when
/// set, otherwise the machine's available parallelism.
fn default_jobs() -> usize {
    if let Some(v) = std::env::var_os("GMMU_JOBS") {
        if let Some(n) = v.to_str().and_then(|s| s.parse::<usize>().ok()) {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
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
    /// (`--metrics`); under `--replay`, diff against the file when it
    /// exists and write it otherwise.
    pub metrics: Option<&'static str>,
    /// Run the fault-injection harness instead of the figure
    /// (`--fault-inject`).
    pub fault_inject: bool,
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
    /// Snapshot the first simulated design point every N cycles
    /// (`--checkpoint-every`; 0 = off).
    pub checkpoint_every: u64,
    /// Where `--checkpoint-every` writes its image
    /// (`--checkpoint-path`).
    pub checkpoint_path: &'static str,
    /// Resume the first simulated design point from this checkpoint
    /// image (`--resume`).
    pub resume: Option<&'static str>,
    /// Record the first simulated design point to this GMTR trace file
    /// (`--capture-trace`).
    pub capture_trace: Option<&'static str>,
    /// Replay a GMTR trace instead of running the figure (`--replay`).
    pub replay: Option<&'static str>,
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
            fault_inject: false,
            fault_seed: 0xfa57,
            journal: None,
            shard: None,
            kill_after: None,
            checkpoint_every: 0,
            checkpoint_path: "gmmu.ckpt",
            resume: None,
            capture_trace: None,
            replay: None,
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

    /// Parses harness arguments: `--quick`, `--full` (default: the
    /// standard experiment scope), `--csv`, and `--jobs N`.
    ///
    /// Unknown arguments print the usage text and exit with status 2.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    opts = Self {
                        scale: Scale::Tiny,
                        n_cores: 2,
                        ..opts
                    }
                }
                "--full" => {
                    opts = Self {
                        scale: Scale::Full,
                        n_cores: 30,
                        ..opts
                    }
                }
                "--csv" => {} // presentation flag, handled by the binary
                "--jobs" => match args.next() {
                    Some(v) => opts.jobs = parse_jobs(&v),
                    None => bad_usage("--jobs needs a value"),
                },
                "--trace" => match args.next() {
                    Some(v) => opts.trace = Some(leak_path(v)),
                    None => bad_usage("--trace needs a path"),
                },
                "--intervals" => match args.next() {
                    Some(v) => opts.intervals = Some(leak_path(v)),
                    None => bad_usage("--intervals needs a path"),
                },
                "--interval-stride" => match args.next() {
                    Some(v) => opts.interval_stride = parse_stride(&v),
                    None => bad_usage("--interval-stride needs a value"),
                },
                "--metrics" => match args.next() {
                    Some(v) => opts.metrics = Some(leak_path(v)),
                    None => bad_usage("--metrics needs a path"),
                },
                "--fault-inject" => opts.fault_inject = true,
                "--fault-seed" => match args.next() {
                    Some(v) => opts.fault_seed = parse_seed(&v),
                    None => bad_usage("--fault-seed needs a value"),
                },
                "--journal" => match args.next() {
                    Some(v) => opts.journal = Some(leak_path(v)),
                    None => bad_usage("--journal needs a path"),
                },
                "--shard" => match args.next() {
                    Some(v) => opts.shard = Some(parse_shard(&v)),
                    None => bad_usage("--shard needs I/N"),
                },
                "--kill-after" => match args.next() {
                    Some(v) => opts.kill_after = Some(parse_kill_after(&v)),
                    None => bad_usage("--kill-after needs a value"),
                },
                "--checkpoint-every" => match args.next() {
                    Some(v) => opts.checkpoint_every = parse_every(&v),
                    None => bad_usage("--checkpoint-every needs a value"),
                },
                "--checkpoint-path" => match args.next() {
                    Some(v) => opts.checkpoint_path = leak_path(v),
                    None => bad_usage("--checkpoint-path needs a path"),
                },
                "--resume" => match args.next() {
                    Some(v) => opts.resume = Some(leak_path(v)),
                    None => bad_usage("--resume needs a path"),
                },
                "--capture-trace" => match args.next() {
                    Some(v) => opts.capture_trace = Some(leak_path(v)),
                    None => bad_usage("--capture-trace needs a path"),
                },
                "--replay" => match args.next() {
                    Some(v) => opts.replay = Some(leak_path(v)),
                    None => bad_usage("--replay needs a path"),
                },
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0)
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        opts.jobs = parse_jobs(v)
                    } else if let Some(v) = other.strip_prefix("--trace=") {
                        opts.trace = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--intervals=") {
                        opts.intervals = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--interval-stride=") {
                        opts.interval_stride = parse_stride(v)
                    } else if let Some(v) = other.strip_prefix("--metrics=") {
                        opts.metrics = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--fault-seed=") {
                        opts.fault_seed = parse_seed(v)
                    } else if let Some(v) = other.strip_prefix("--journal=") {
                        opts.journal = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--shard=") {
                        opts.shard = Some(parse_shard(v))
                    } else if let Some(v) = other.strip_prefix("--kill-after=") {
                        opts.kill_after = Some(parse_kill_after(v))
                    } else if let Some(v) = other.strip_prefix("--checkpoint-every=") {
                        opts.checkpoint_every = parse_every(v)
                    } else if let Some(v) = other.strip_prefix("--checkpoint-path=") {
                        opts.checkpoint_path = leak_path(v.to_string())
                    } else if let Some(v) = other.strip_prefix("--resume=") {
                        opts.resume = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--capture-trace=") {
                        opts.capture_trace = Some(leak_path(v.to_string()))
                    } else if let Some(v) = other.strip_prefix("--replay=") {
                        opts.replay = Some(leak_path(v.to_string()))
                    } else {
                        bad_usage(&format!("unknown argument `{other}`"))
                    }
                }
            }
        }
        if opts.capture_trace.is_some() && opts.resume.is_some() {
            // A resumed run only exercises the kernel's tail, so the
            // recorded behaviour tables would be incomplete.
            bad_usage("--capture-trace cannot be combined with --resume")
        }
        if let Some(path) = opts.replay {
            // Replay replaces the figure: every binary that parses its
            // arguments here can replay any GMTR trace.
            run_replay(opts, path)
        }
        if opts.fault_inject {
            // The harness replaces the figure: every binary that parses
            // its arguments here gains the fault-injection mode.
            run_fault_injection(opts)
        }
        opts
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

    /// Whether checkpointing (`--checkpoint-every` / `--resume`) was
    /// requested.
    pub fn checkpoints(&self) -> bool {
        self.checkpoint_every > 0 || self.resume.is_some()
    }

    /// Whether trace capture (`--capture-trace`) was requested.
    pub fn captures(&self) -> bool {
        self.capture_trace.is_some()
    }
}

fn parse_jobs(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => bad_usage(&format!("--jobs needs a positive integer, got `{v}`")),
    }
}

fn parse_shard(v: &str) -> (usize, usize) {
    let parsed = v.split_once('/').and_then(|(i, n)| {
        let i = i.parse::<usize>().ok()?;
        let n = n.parse::<usize>().ok()?;
        (n >= 1 && i < n).then_some((i, n))
    });
    match parsed {
        Some(s) => s,
        None => bad_usage(&format!("--shard needs I/N with 0 <= I < N, got `{v}`")),
    }
}

fn parse_kill_after(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => bad_usage(&format!("--kill-after needs a positive integer, got `{v}`")),
    }
}

fn parse_every(v: &str) -> u64 {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => bad_usage(&format!(
            "--checkpoint-every needs a positive cycle count, got `{v}`"
        )),
    }
}

fn parse_stride(v: &str) -> u64 {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => bad_usage(&format!(
            "--interval-stride needs a positive integer, got `{v}`"
        )),
    }
}

fn parse_seed(v: &str) -> u64 {
    let parsed = v
        .strip_prefix("0x")
        .map_or_else(|| v.parse::<u64>(), |h| u64::from_str_radix(h, 16));
    match parsed {
        Ok(n) => n,
        _ => bad_usage(&format!("--fault-seed needs an integer, got `{v}`")),
    }
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

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
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
    let (stats, snapshot) = if opts.checkpoints() {
        checkpointed_run(opts, spec, kernel, w, &mut obs)
    } else {
        let mut gpu = Gpu::new(spec.cfg.clone());
        let stats = gpu.run_observed(kernel, &w.space, &mut obs);
        let snapshot = gpu.metrics_snapshot(&obs);
        (stats, snapshot)
    };
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

/// Runs one design point with checkpointing: the run is
/// snapshotted every `--checkpoint-every` cycles to `--checkpoint-path`
/// (written atomically, latest image wins) and optionally resumed from
/// a `--resume` image. Checkpointed runs own a clone of the shared
/// workload address space (demand state must be restorable), and they
/// are bit-identical to the unobserved run.
fn checkpointed_run(
    opts: ExperimentOpts,
    spec: &PointSpec,
    kernel: &dyn Kernel,
    w: &Workload,
    obs: &mut Observer,
) -> (RunStats, Option<String>) {
    let resume_bytes = opts.resume.map(|path| match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("checkpoint: cannot read --resume {path}: {e}");
            std::process::exit(1)
        }
    });
    let path = opts.checkpoint_path;
    let tmp = format!("{path}.tmp");
    let mut sink = |img: &[u8]| {
        let write = std::fs::write(&tmp, img).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("checkpoint: cannot write {path}: {e}");
        }
    };
    let mut space = w.space.clone();
    let mut gpu = Gpu::new(spec.cfg.clone());
    let run = gpu.run_checkpointed(
        kernel,
        &mut space,
        obs,
        CheckpointOpts {
            every: opts.checkpoint_every,
            sink: &mut sink,
            resume: resume_bytes.as_deref(),
        },
    );
    match run {
        Ok(stats) => {
            let snapshot = gpu.metrics_snapshot(obs);
            (stats, snapshot)
        }
        Err(e) => {
            eprintln!("checkpoint: resume refused: {e:?}");
            std::process::exit(1)
        }
    }
}

/// Appends one completed design point to the sweep journal: version
/// tag, key fingerprint, engine label, wall seconds, the full
/// [`RunStats`] as hex-encoded checkpoint bytes, and the memo key
/// itself. One line per point; a line is only ever appended after its
/// stats are final, so a killed sweep leaves a valid journal.
fn journal_append(
    journal: &Option<Mutex<std::fs::File>>,
    key: &str,
    run: &PointRun,
    stats: &RunStats,
) {
    let Some(file) = journal else { return };
    let mut w = Saver::new();
    stats.save(&mut w);
    let line = format!(
        "v1\t{:016x}\t{}\t{:.6}\t{}\t{}\n",
        run.fingerprint,
        run.engine,
        run.wall_s,
        hex_encode(&w.into_bytes()),
        key
    );
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
    /// The first fresh simulation still owes the `--trace`/`--intervals`
    /// outputs and/or the `--checkpoint-every`/`--resume` handling.
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
            observe_pending: opts.observes() || opts.checkpoints() || opts.captures(),
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
        let Ok(body) = std::fs::read_to_string(path) else {
            return; // fresh journal: nothing to replay
        };
        for line in body.lines() {
            if line.is_empty() {
                continue;
            }
            let Some((key, run, stats)) = parse_journal_line(line) else {
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
        let w = if spec.large_pages {
            &self.large_page_workloads[&spec.bench]
        } else {
            &self.workloads[&spec.bench]
        };
        let stats = if observe {
            observed_run(opts, &spec, w)
        } else {
            run_kernel(spec.cfg.clone(), w.kernel.as_ref(), &w.space)
        };
        self.runs += 1;
        let run = PointRun {
            bench: spec.bench,
            large_pages: spec.large_pages,
            fingerprint: fnv1a64(key.as_bytes()),
            engine: engine_label(&spec.cfg),
            wall_s: started.elapsed().as_secs_f64(),
            cycles: stats.cycles,
            sim_cycles_per_sec: stats.cycles_per_sec(),
            observed: observe && opts.observes(),
        };
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
            // The observed/checkpointed point runs serially (its file
            // writes must not interleave with workers) and first, so
            // `--trace` or `--resume` on a sweep binary applies to the
            // sweep's first design point.
            let (key, spec) = todo.remove(0);
            self.observe_pending = false;
            let opts = self.opts;
            let started = Instant::now();
            let w = if spec.large_pages {
                &self.large_page_workloads[&spec.bench]
            } else {
                &self.workloads[&spec.bench]
            };
            let stats = observed_run(opts, &spec, w);
            self.runs += 1;
            let run = PointRun {
                bench: spec.bench,
                large_pages: spec.large_pages,
                fingerprint: fnv1a64(key.as_bytes()),
                engine: engine_label(&spec.cfg),
                wall_s: started.elapsed().as_secs_f64(),
                cycles: stats.cycles,
                sim_cycles_per_sec: stats.cycles_per_sec(),
                observed: opts.observes(),
            };
            journal_append(&self.journal_file, &key, &run, &stats);
            self.point_log.push(run);
            self.cache.insert(key, stats);
            if todo.is_empty() {
                self.exit_if_killed(kill);
                return;
            }
        }
        let workloads = &self.workloads;
        let large_page_workloads = &self.large_page_workloads;
        let journal = &self.journal_file;
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
                    let w = if spec.large_pages {
                        &large_page_workloads[&spec.bench]
                    } else {
                        &workloads[&spec.bench]
                    };
                    let stats = run_kernel(spec.cfg.clone(), w.kernel.as_ref(), &w.space);
                    let run = PointRun {
                        bench: spec.bench,
                        large_pages: spec.large_pages,
                        fingerprint: fnv1a64(key.as_bytes()),
                        engine: engine_label(&spec.cfg),
                        wall_s: started.elapsed().as_secs_f64(),
                        cycles: stats.cycles,
                        sim_cycles_per_sec: stats.cycles_per_sec(),
                        observed: false,
                    };
                    // Journaled the moment it completes, so a real kill
                    // loses at most the in-flight points.
                    journal_append(journal, key, &run, &stats);
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

/// The `--fault-inject` harness: proves every recovery path survives on
/// all six workloads, then exits. Each benchmark executes twice —
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

/// Replays a GMTR trace captured with `--capture-trace`: rebuilds the
/// captured machine and address space, drives the cores from the
/// recorded kernel behaviour, and diffs every
/// statistic (except wall time) against the stats embedded in the
/// trace. Exits 0 on an exact match, 1 on any difference or on a
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
}
