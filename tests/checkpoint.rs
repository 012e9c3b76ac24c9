//! Deterministic checkpoint/restore of full simulation state: a run
//! snapshotted mid-flight and resumed in a fresh process-equivalent
//! (new `Gpu`, new workload build, new observer) must finish
//! bit-identical to an uninterrupted run — same `RunStats`, same span
//! trace, same interval time-series — across the workload matrix, under
//! both drive loops (snapshots live in the loop they share), and under
//! demand paging, shootdown storms, and the mixed fault soup.

use gmmu::experiments::{designs, ExperimentOpts};
use gmmu::prelude::*;
use gmmu_sim::ckpt::CkptError;
use gmmu_sim::metrics::Metrics;
use gmmu_sim::trace::Tracer;
use gmmu_simt::gpu::CheckpointOpts;
use gmmu_simt::IntervalRecorder;

fn assert_same(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(
        a.mem_instructions, b.mem_instructions,
        "{what}: mem_instructions"
    );
    assert_eq!(a.idle_cycles, b.idle_cycles, "{what}: idle_cycles");
    assert_eq!(
        a.stall_breakdown, b.stall_breakdown,
        "{what}: stall_breakdown"
    );
    assert_eq!(a.live_cycles, b.live_cycles, "{what}: live_cycles");
    assert_eq!(
        a.page_divergence, b.page_divergence,
        "{what}: page_divergence"
    );
    assert_eq!(
        a.l1_miss_latency, b.l1_miss_latency,
        "{what}: l1_miss_latency"
    );
    assert_eq!(
        a.tlb_miss_latency, b.tlb_miss_latency,
        "{what}: tlb_miss_latency"
    );
    assert_eq!(a.tlb_accesses, b.tlb_accesses, "{what}: tlb_accesses");
    assert_eq!(a.tlb_hits, b.tlb_hits, "{what}: tlb_hits");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: l1_accesses");
    assert_eq!(a.l1_hits, b.l1_hits, "{what}: l1_hits");
    assert_eq!(
        a.walk_refs_issued, b.walk_refs_issued,
        "{what}: walk_refs_issued"
    );
    assert_eq!(
        a.walk_refs_naive, b.walk_refs_naive,
        "{what}: walk_refs_naive"
    );
    assert_eq!(a.walks, b.walks, "{what}: walks");
    assert_eq!(
        a.walk_l2_hit_rate, b.walk_l2_hit_rate,
        "{what}: walk_l2_hit_rate"
    );
    assert_eq!(a.dram_requests, b.dram_requests, "{what}: dram_requests");
    assert_eq!(a.replays, b.replays, "{what}: replays");
    assert_eq!(a.dwarps_formed, b.dwarps_formed, "{what}: dwarps_formed");
    assert_eq!(a.blocks_done, b.blocks_done, "{what}: blocks_done");
    assert_eq!(a.faults, b.faults, "{what}: faults");
    assert_eq!(a.shootdowns, b.shootdowns, "{what}: shootdowns");
    assert_eq!(a.squashed_walks, b.squashed_walks, "{what}: squashed_walks");
    assert_eq!(a.watchdog_fired, b.watchdog_fired, "{what}: watchdog_fired");
}

fn observer() -> Observer {
    Observer {
        tracer: Tracer::recording(),
        intervals: Some(IntervalRecorder::new(1_000)),
        metrics: Metrics::recording(),
        ..Observer::off()
    }
}

/// Runs `bench` under `cfg` with checkpointing; returns the stats, the
/// observer, and every emitted checkpoint image.
fn run_ckpt(
    bench: Bench,
    cfg: &GpuConfig,
    inject: Option<&FaultInjectConfig>,
    every: u64,
    resume: Option<&[u8]>,
) -> (RunStats, Observer, Vec<Vec<u8>>) {
    let mut w = match inject {
        Some(inj) => build_demand_paged(bench, Scale::Tiny, 7, inj).0,
        None => build(bench, Scale::Tiny, 7),
    };
    let mut obs = observer();
    let mut images: Vec<Vec<u8>> = Vec::new();
    let mut sink = |b: &[u8]| images.push(b.to_vec());
    let stats = Gpu::new(cfg.clone())
        .run_checkpointed(
            w.kernel.as_ref(),
            &mut w.space,
            &mut obs,
            CheckpointOpts {
                every,
                sink: &mut sink,
                resume,
            },
        )
        .expect("checkpointed run failed");
    (stats, obs, images)
}

fn assert_observers_same(a: &Observer, b: &Observer, what: &str) {
    assert_eq!(
        a.tracer.buffer(),
        b.tracer.buffer(),
        "{what}: trace differs"
    );
    assert_eq!(
        a.intervals.as_ref().unwrap().samples(),
        b.intervals.as_ref().unwrap().samples(),
        "{what}: interval series differs"
    );
    assert_eq!(
        a.metrics.sink(),
        b.metrics.sink(),
        "{what}: metrics sink differs"
    );
}

/// Snapshot/restore across the six-workload matrix under both drive
/// loops: resume from a mid-run image and from the last image, with
/// tracing and interval sampling attached, and require byte-identical
/// results.
#[test]
fn checkpoint_roundtrip_is_bit_identical_across_the_matrix() {
    type Configure = fn(&mut GpuConfig);
    let matrix: [(Bench, &str, Configure); 6] = [
        (Bench::Memcached, "naive", |c| c.mmu = designs::naive3()),
        (Bench::Memcached, "augmented", |c| {
            c.mmu = designs::augmented()
        }),
        (Bench::Bfs, "naive", |c| c.mmu = designs::naive3()),
        (Bench::Bfs, "augmented", |c| c.mmu = designs::augmented()),
        (Bench::Streamcluster, "ta-ccws", |c| {
            c.mmu = designs::augmented();
            c.policy = PolicyKind::TaCcws { tlb_weight: 4 };
        }),
        (Bench::Mummergpu, "tbc", |c| {
            c.mmu = designs::augmented();
            c.tbc = Some(TbcConfig::tlb_aware(3));
        }),
    ];
    for ((bench, name, configure), tick_every_cycle) in matrix
        .into_iter()
        .flat_map(|case| [(case, false), (case, true)])
    {
        let mut cfg = ExperimentOpts::quick().gpu(MmuModel::Ideal);
        configure(&mut cfg);
        cfg.tick_every_cycle = tick_every_cycle;
        let name = format!("{name}/tick_every_cycle={tick_every_cycle}");

        // Uninterrupted reference (emission off: `every == 0`).
        let (reference, obs_ref, none) = run_ckpt(bench, &cfg, None, 0, None);
        assert!(none.is_empty(), "{bench}/{name}: emitted without a period");
        assert!(reference.completed, "{bench}/{name} hit the cycle cap");

        // Checkpointing run: ~3 images across the run. Emission must
        // not perturb the run itself.
        let every = (reference.cycles / 3).max(1);
        let (ckpt_stats, obs_ckpt, images) = run_ckpt(bench, &cfg, None, every, None);
        assert_same(
            &reference,
            &ckpt_stats,
            &format!("{bench}/{name} emitting-vs-plain"),
        );
        assert_observers_same(
            &obs_ref,
            &obs_ckpt,
            &format!("{bench}/{name} emitting-vs-plain"),
        );
        assert!(!images.is_empty(), "{bench}/{name}: no checkpoints emitted");

        // Resume from a mid-run image and from the last image.
        for (tag, img) in [
            ("mid", &images[images.len() / 2]),
            ("last", images.last().unwrap()),
        ] {
            let (resumed, obs_res, _) = run_ckpt(bench, &cfg, None, 0, Some(img));
            assert_same(
                &reference,
                &resumed,
                &format!("{bench}/{name} resumed-from-{tag}"),
            );
            assert_observers_same(
                &obs_ref,
                &obs_res,
                &format!("{bench}/{name} resumed-from-{tag}"),
            );
        }
    }
}

/// Snapshots taken while cores sleep: at 8 cores under the naive
/// blocking TLB most cores wait on a walk while others issue, so a
/// small prime cadence lands many snapshots between a sleeping core's
/// ticks. Each image must carry that core's idle cycles up to the
/// snapshot cycle (a resumed run ticks every core from there), so
/// every resume must finish with the uninterrupted run's stats.
#[test]
fn checkpoint_taken_while_cores_sleep_resumes_bit_identically() {
    let opts = ExperimentOpts {
        n_cores: 8,
        ..ExperimentOpts::quick()
    };
    let mut cfg = opts.gpu(designs::naive3());
    cfg.policy = PolicyKind::Ccws;
    let (reference, obs_ref, _) = run_ckpt(Bench::Bfs, &cfg, None, 0, None);
    assert!(reference.completed, "bfs hit the cycle cap");
    let (ckpt_stats, _, images) = run_ckpt(Bench::Bfs, &cfg, None, 4_999, None);
    assert_same(&reference, &ckpt_stats, "sleeping emitting-vs-plain");
    assert!(images.len() >= 4, "too few snapshots: {}", images.len());
    for i in [0, images.len() / 3, 2 * images.len() / 3, images.len() - 1] {
        let (resumed, obs_res, _) = run_ckpt(Bench::Bfs, &cfg, None, 0, Some(&images[i]));
        assert_same(&reference, &resumed, &format!("sleeping image {i}"));
        assert_observers_same(&obs_ref, &obs_res, &format!("sleeping image {i}"));
    }
}

/// Snapshot/restore while the fault machinery is hot: demand-paged
/// first-touch faults, periodic shootdown storms, and the mixed smoke
/// soup. Every emitted image must resume to the identical end state —
/// including images taken while pages sit in the CPU fault queue or a
/// storm remap is pending.
#[test]
fn checkpoint_roundtrip_mid_fault_storm() {
    let cases: [(&str, Bench, FaultInjectConfig); 3] = [
        (
            "demand-paged",
            Bench::Bfs,
            FaultInjectConfig::demand_paged(0xfa57),
        ),
        (
            "storm",
            Bench::Kmeans,
            FaultInjectConfig::storm(0xfa57, 8_000, 3),
        ),
        ("smoke", Bench::Pathfinder, FaultInjectConfig::smoke(0xfa57)),
    ];
    for (name, bench, inject) in cases {
        let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
        cfg.fault = FaultConfig::demand();
        cfg.inject = Some(inject);
        // Storms remap fully-mapped regions; the other cases start
        // demand-paged with first-touch faults.
        let demand = name != "storm";
        let inj = demand.then_some(&inject);

        let (reference, obs_ref, _) = run_ckpt(bench, &cfg, inj, 0, None);
        assert!(reference.completed, "{name} reference hit the cycle cap");
        if demand {
            assert!(reference.faults > 0, "{name}: nothing faulted");
        } else {
            assert!(reference.shootdowns > 0, "{name}: no storms landed");
        }

        let every = (reference.cycles / 4).max(1);
        let (ckpt_stats, _, images) = run_ckpt(bench, &cfg, inj, every, None);
        assert_same(&reference, &ckpt_stats, &format!("{name} emitting"));
        assert!(!images.is_empty(), "{name}: no checkpoints emitted");
        for (i, img) in images.iter().enumerate() {
            let (resumed, obs_res, _) = run_ckpt(bench, &cfg, inj, 0, Some(img));
            assert_same(&reference, &resumed, &format!("{name} image {i}"));
            assert_observers_same(&obs_ref, &obs_res, &format!("{name} image {i}"));
        }
    }
}

/// A replayed trace is checkpointable like any other run: snapshot the
/// replay mid-flight, resume from the image in a
/// fresh process-equivalent (new trace kernel, freshly rebuilt address
/// space, new observer), and the end state must still match the stats
/// embedded in the trace bit-identically.
#[test]
fn checkpoint_mid_replay_resumes_bit_identically() {
    use gmmu_trace::{assemble, capture_launch, rebuild_space, Recorder, Trace, TraceKernel};

    // Capture a trace of a plain run.
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    let mut w = build(Bench::Bfs, Scale::Tiny, 7);
    let launch = capture_launch(w.kernel.as_ref(), &w.space, &cfg, "bfs tiny seed=7");
    let rec = Recorder::new(w.kernel.as_ref());
    let stats = Gpu::new(cfg.clone()).run_faulted(&rec, &mut w.space, &mut Observer::off());
    let bytes = assemble(launch, rec, &stats).encode();
    let trace = Trace::decode(&bytes).expect("trace decodes");

    // Replay with checkpointing, emitting ~3 images.
    let replay_cfg = trace.launch.config.clone();
    let run = |every: u64, resume: Option<&[u8]>| -> (RunStats, Observer, Vec<Vec<u8>>) {
        let kernel = TraceKernel::from_trace(&trace).expect("records expand");
        let mut space = rebuild_space(&trace.launch).expect("space rebuilds");
        let mut obs = observer();
        let mut images: Vec<Vec<u8>> = Vec::new();
        let mut sink = |b: &[u8]| images.push(b.to_vec());
        let stats = Gpu::new(replay_cfg.clone())
            .run_checkpointed(
                &kernel,
                &mut space,
                &mut obs,
                CheckpointOpts {
                    every,
                    sink: &mut sink,
                    resume,
                },
            )
            .expect("checkpointed replay failed");
        (stats, obs, images)
    };
    let every = (trace.stats.cycles / 3).max(1);
    let (replayed, obs_ref, images) = run(every, None);
    assert_same(&trace.stats, &replayed, "checkpointed replay vs capture");
    assert!(!images.is_empty(), "no checkpoints emitted during replay");

    // Resume from a mid-run image in a fresh process-equivalent.
    let (resumed, obs_res, _) = run(0, Some(&images[images.len() / 2]));
    assert_same(&trace.stats, &resumed, "resumed replay vs capture");
    assert_observers_same(&obs_ref, &obs_res, "resumed replay");
}

/// A checkpoint must only load into the machine that wrote it: a
/// different configuration is a fingerprint mismatch, a truncated image
/// is refused, garbage is rejected by magic, and an image of another
/// format version — including a GMCK v4 image, which still stored spans
/// as strings — is a typed version refusal.
#[test]
fn checkpoint_refuses_foreign_or_corrupt_images() {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    let (reference, _, _) = run_ckpt(Bench::Bfs, &cfg, None, 0, None);
    let every = (reference.cycles / 2).max(1);
    let (_, _, images) = run_ckpt(Bench::Bfs, &cfg, None, every, None);
    let img = images.first().expect("one checkpoint");

    let resume = |cfg: &GpuConfig, bytes: &[u8]| -> Result<RunStats, CkptError> {
        let mut w = build(Bench::Bfs, Scale::Tiny, 7);
        let mut obs = observer();
        let mut sink = |_: &[u8]| {};
        Gpu::new(cfg.clone()).run_checkpointed(
            w.kernel.as_ref(),
            &mut w.space,
            &mut obs,
            CheckpointOpts {
                every: 0,
                sink: &mut sink,
                resume: Some(bytes),
            },
        )
    };

    // Differently shaped machine.
    let mut other = cfg.clone();
    other.n_cores += 1;
    assert!(
        matches!(resume(&other, img), Err(CkptError::ConfigMismatch { .. })),
        "a foreign config must be a fingerprint mismatch"
    );

    // Truncated payload.
    assert!(
        resume(&cfg, &img[..img.len() / 2]).is_err(),
        "a truncated image must be refused"
    );

    // Garbage magic.
    let mut garbage = img.clone();
    garbage[0] ^= 0xff;
    assert!(
        matches!(resume(&cfg, &garbage), Err(CkptError::BadMagic)),
        "bad magic must be rejected"
    );

    // Other format versions: the version is the single varint byte
    // after the magic.
    assert_eq!(img[4] as u32, gmmu_simt::gpu::CKPT_VERSION);
    for version in [5u8, 7] {
        let mut other = img.clone();
        other[4] = version;
        assert_eq!(
            resume(&cfg, &other).unwrap_err(),
            CkptError::BadVersion(version as u32),
            "a v{version} image must be refused by version"
        );
    }

    // Instruments must match the snapshotting run: the image carries a
    // recorded trace, so resuming into a disabled observer is refused.
    {
        let mut w = build(Bench::Bfs, Scale::Tiny, 7);
        let mut obs = Observer::off();
        let mut sink = |_: &[u8]| {};
        let err = Gpu::new(cfg.clone())
            .run_checkpointed(
                w.kernel.as_ref(),
                &mut w.space,
                &mut obs,
                CheckpointOpts {
                    every: 0,
                    sink: &mut sink,
                    resume: Some(img),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, CkptError::Corrupt(_)),
            "resuming without the snapshot's instruments must be refused"
        );
    }

    // The pristine image still loads (the helpers above didn't consume it).
    let resumed = resume(&cfg, img).expect("pristine image resumes");
    assert_same(&reference, &resumed, "pristine resume");
}

/// A checkpoint whose span trace holds an event with an unknown tag is
/// refused with a typed error, never a panic. The trace section is
/// located by decoding: it is the only offset from which the tracer,
/// interval recorder and metrics sink load back-to-back and consume the
/// image exactly.
#[test]
fn checkpoint_refuses_unknown_trace_event_tag() {
    use gmmu_sim::ckpt::{Ckpt, Loader, Saver};
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    let (reference, _, _) = run_ckpt(Bench::Bfs, &cfg, None, 0, None);
    let every = (reference.cycles / 2).max(1);
    let (_, _, images) = run_ckpt(Bench::Bfs, &cfg, None, every, None);
    let img = images.first().expect("one checkpoint");

    let tracer_at = (0..img.len())
        .find(|&at| {
            let mut obs = observer();
            let mut r = Loader::new(&img[at..]);
            obs.tracer.load(&mut r).is_ok()
                && obs.intervals.as_mut().unwrap().load(&mut r).is_ok()
                && obs.metrics.load(&mut r).is_ok()
                && r.remaining() == 0
                && obs.tracer.buffer().is_some_and(|b| !b.is_empty())
        })
        .expect("the image ends with a non-empty trace and the other instruments");
    // Tracer tag (1 byte), then the event count, then the first event's tag.
    let mut obs = observer();
    obs.tracer
        .load(&mut Loader::new(&img[tracer_at..]))
        .expect("located above");
    let mut count = Saver::new();
    count.usize(obs.tracer.buffer().unwrap().len());
    let tag_at = tracer_at + 1 + count.len();

    let mut bad = img.clone();
    bad[tag_at] = 0xee;
    let mut w = build(Bench::Bfs, Scale::Tiny, 7);
    let mut obs = observer();
    let mut sink = |_: &[u8]| {};
    let err = Gpu::new(cfg.clone())
        .run_checkpointed(
            w.kernel.as_ref(),
            &mut w.space,
            &mut obs,
            CheckpointOpts {
                every: 0,
                sink: &mut sink,
                resume: Some(&bad),
            },
        )
        .unwrap_err();
    assert_eq!(err, CkptError::Corrupt("unknown trace event tag"));
}

/// Multi-tenant snapshot/restore with the storm machinery hot: a
/// 2-tenant scenario under the mixed fault soup, checkpointed under
/// either drive loop, must resume from every emitted image — including
/// images taken mid-storm with cross-tenant faults queued — to the
/// identical end state, per-tenant slice included.
#[test]
fn multitenant_checkpoint_mid_storm_kill_and_resume() {
    for tick_every_cycle in [false, true] {
        multitenant_kill_and_resume(tick_every_cycle);
    }
}

fn multitenant_kill_and_resume(tick_every_cycle: bool) {
    use gmmu_simt::{TenantJob, TenantPolicy};
    use gmmu_workloads::tenants::scenario;

    let inject = FaultInjectConfig::smoke(0xfa57);
    let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
    cfg.fault = FaultConfig::demand();
    cfg.inject = Some(inject);
    cfg.tick_every_cycle = tick_every_cycle;
    let policy = TenantPolicy {
        watchdog: 2_000_000,
        ..TenantPolicy::default()
    };

    let run = |every: u64, resume: Option<&[u8]>| -> (RunStats, Observer, Vec<Vec<u8>>) {
        let sc = scenario(2, Scale::Tiny, 7, true);
        let (mut built, _) = sc.build_demand_paged(&inject);
        let mut jobs: Vec<TenantJob<'_>> = built
            .iter_mut()
            .map(|w| TenantJob {
                kernel: w.kernel.as_ref(),
                space: &mut w.space,
            })
            .collect();
        let mut obs = observer();
        let mut images: Vec<Vec<u8>> = Vec::new();
        let mut sink = |b: &[u8]| images.push(b.to_vec());
        let stats = Gpu::new(cfg.clone())
            .run_tenants_checkpointed(
                &mut jobs,
                policy,
                &mut obs,
                CheckpointOpts {
                    every,
                    sink: &mut sink,
                    resume,
                },
            )
            .expect("multi-tenant checkpointed run failed");
        (stats, obs, images)
    };

    let (reference, obs_ref, none) = run(0, None);
    assert!(none.is_empty(), "emitted without a period");
    assert!(reference.completed, "reference hit the cycle cap");
    assert!(!reference.watchdog_fired);
    assert!(reference.shootdowns > 0, "no storms landed");
    assert!(reference.faults > 0, "nothing faulted");
    assert_eq!(reference.tenants.len(), 2);

    let every = (reference.cycles / 4).max(1);
    let (ckpt_stats, _, images) = run(every, None);
    assert_same(
        &reference,
        &ckpt_stats,
        &format!("mt tick_every_cycle={tick_every_cycle} emitting-vs-plain"),
    );
    assert_eq!(reference.tenants, ckpt_stats.tenants);
    assert!(!images.is_empty(), "no checkpoints emitted");

    for (i, img) in images.iter().enumerate() {
        let (resumed, obs_res, _) = run(0, Some(img));
        assert_same(
            &reference,
            &resumed,
            &format!("mt tick_every_cycle={tick_every_cycle} image {i}"),
        );
        assert_eq!(
            reference.tenants, resumed.tenants,
            "image {i}: per-tenant slice diverged after resume"
        );
        assert_observers_same(
            &obs_ref,
            &obs_res,
            &format!("mt tick_every_cycle={tick_every_cycle} image {i}"),
        );
    }
}
