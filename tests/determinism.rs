//! Reproducibility: identical configurations must produce identical
//! results, and the knobs that should matter must matter.

use gmmu::experiments::{designs, ExperimentOpts, Runner};
use gmmu::prelude::*;
use gmmu_sim::metrics::Metrics;
use gmmu_sim::observe::Event;
use gmmu_sim::trace::Tracer;
use gmmu_simt::gpu::run_kernel;
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

#[test]
fn identical_configs_are_bit_identical() {
    for b in [Bench::Bfs, Bench::Memcached, Bench::Streamcluster] {
        let mut r1 = Runner::new(ExperimentOpts::quick());
        let mut r2 = Runner::new(ExperimentOpts::quick());
        let a = r1.run(b, |c| c.mmu = designs::augmented());
        let c = r2.run(b, |c| c.mmu = designs::augmented());
        assert_eq!(a.cycles, c.cycles, "{b} cycles differ");
        assert_eq!(a.instructions, c.instructions);
        assert_eq!(a.tlb_accesses, c.tlb_accesses);
        assert_eq!(a.tlb_hits, c.tlb_hits);
        assert_eq!(a.l1_accesses, c.l1_accesses);
        assert_eq!(a.dram_requests, c.dram_requests);
        assert_eq!(a.walks, c.walks);
    }
}

#[test]
fn seeds_change_workloads() {
    let w1 = build(Bench::Memcached, Scale::Tiny, 1);
    let w2 = build(Bench::Memcached, Scale::Tiny, 2);
    let cfg = || {
        let mut c = GpuConfig::experiment_scale(MmuModel::naive());
        c.n_cores = 2;
        c.mem.channels = 1;
        c
    };
    let a = run_kernel(cfg(), w1.kernel.as_ref(), &w1.space);
    let b = run_kernel(cfg(), w2.kernel.as_ref(), &w2.space);
    assert_ne!(a.cycles, b.cycles, "seed had no effect");
}

#[test]
fn policies_are_deterministic_too() {
    for policy in [
        PolicyKind::Ccws,
        PolicyKind::TaCcws { tlb_weight: 4 },
        PolicyKind::tcws_best(),
    ] {
        let mut r1 = Runner::new(ExperimentOpts::quick());
        let mut r2 = Runner::new(ExperimentOpts::quick());
        let mk = |c: &mut GpuConfig| {
            c.policy = policy;
            c.mmu = designs::augmented();
        };
        let a = r1.run(Bench::Streamcluster, mk);
        let b = r2.run(Bench::Streamcluster, mk);
        assert_eq!(a.cycles, b.cycles, "{policy:?} nondeterministic");
    }
}

#[test]
fn tbc_is_deterministic() {
    let mut r1 = Runner::new(ExperimentOpts::quick());
    let mut r2 = Runner::new(ExperimentOpts::quick());
    let mk = |c: &mut GpuConfig| {
        c.tbc = Some(TbcConfig::tlb_aware(3));
        c.mmu = designs::augmented();
    };
    let a = r1.run(Bench::Mummergpu, mk);
    let b = r2.run(Bench::Mummergpu, mk);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.dwarps_formed, b.dwarps_formed);
}

/// Full-stats equality for the drive-loop matrix: {one point at a
/// time, parallel sweep} x {tick-every-cycle, idle-cycle skipping} must
/// be observably equivalent — identical cycles, idle/live accounting,
/// distributions, and every event counter — across benchmarks, MMU
/// models, a throttling scheduler, and TBC. The per-cycle loop is the
/// referee.
#[test]
fn execution_engines_are_observably_equivalent() {
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

    // Referee: tick-every-cycle, one point at a time.
    let mut reference = Vec::new();
    {
        let mut r = Runner::new(ExperimentOpts {
            jobs: 1,
            ..ExperimentOpts::quick()
        });
        for (bench, _, configure) in matrix {
            reference.push(r.run(bench, |c| {
                configure(c);
                c.tick_every_cycle = true;
            }));
        }
    }

    // Idle-cycle skipping, one point at a time.
    {
        let mut r = Runner::new(ExperimentOpts {
            jobs: 1,
            ..ExperimentOpts::quick()
        });
        for (i, (bench, name, configure)) in matrix.iter().enumerate() {
            let s = r.run(*bench, configure);
            assert_same(&reference[i], &s, &format!("{bench}/{name} serial+skip"));
        }
    }

    // Parallel sweep, both loops.
    for legacy in [false, true] {
        let mut r = Runner::new(ExperimentOpts {
            jobs: 4,
            ..ExperimentOpts::quick()
        });
        let stats = r.sweep(|r| {
            matrix
                .map(|(bench, _, configure)| {
                    r.run(bench, |c| {
                        configure(c);
                        c.tick_every_cycle = legacy;
                    })
                })
                .to_vec()
        });
        for (i, (bench, name, _)) in matrix.iter().enumerate() {
            let mode = if legacy { "tick-every-cycle" } else { "skip" };
            assert_same(
                &reference[i],
                &stats[i],
                &format!("{bench}/{name} sweep+{mode}"),
            );
        }
    }
}

/// The per-cycle referee at 8 cores under the naive blocking TLB, one
/// point per scheduling-policy family, plus one point each on the ideal
/// and the augmented MMU. With 8 cores most of them sleep on a fill, a
/// replay timer or a decay epoch while others issue: the case per-core
/// wake cycles exist for, which the 2-core `ExperimentOpts::quick()`
/// matrix above rarely reaches. On the ideal MMU a core most often
/// sleeps straight after an issue, since every issued warp waits out a
/// pipeline or memory timer while no other warp is due. The CCWS and
/// TA-CCWS points run at experiment scale: tiny memcached finishes
/// before a core ever wakes on a fill past a decay epoch, so only there
/// would a decay applied after the fill's score bump show. The
/// no-policy mummergpu points carry the longest runs of MMU rejects a
/// core runs ahead through (`ShaderCore::run_ahead`); the capped one
/// stops on cycle 40,119, inside a core's bounce storm, so both loops
/// must also agree on a run the cap cuts short. Three ideal-MMU points
/// cover windows of ALU and branch issues: memcached on the paper's
/// 30-core, 8-channel machine, where windows cross idle gaps; bfs under
/// CCWS, where decay epochs cut windows; and kmeans capped on cycle
/// 5,363, whose core 3 runs ahead from 5,156 issuing through 5,362, so
/// the cap cuts a window of ALU issues. The TBC points cover
/// thread block compaction on the same machinery: bfs and memcached
/// bounce storms on the blocking TLB (plain and TLB-aware compaction),
/// streamcluster on the augmented MMU, where a TBC core most often
/// sleeps straight after an issue, and a mummergpu run capped on cycle
/// 40,342, inside a TBC core's bounce storm.
#[test]
fn sleeping_cores_match_the_per_cycle_referee() {
    type Configure = fn(&mut GpuConfig);
    let matrix: [(Bench, Scale, &str, Configure); 15] = [
        (Bench::Memcached, Scale::Small, "ccws", |c| {
            c.policy = PolicyKind::Ccws
        }),
        (Bench::Memcached, Scale::Small, "ta-ccws", |c| {
            c.policy = PolicyKind::TaCcws { tlb_weight: 4 }
        }),
        (Bench::Bfs, Scale::Tiny, "tcws", |c| {
            c.policy = PolicyKind::tcws_best()
        }),
        (Bench::Mummergpu, Scale::Tiny, "tbc", |c| {
            c.tbc = Some(TbcConfig::tlb_aware(3))
        }),
        (Bench::Mummergpu, Scale::Small, "no policy", |_| {}),
        (Bench::Mummergpu, Scale::Tiny, "capped", |c| {
            c.max_cycles = 40_119
        }),
        (Bench::Streamcluster, Scale::Small, "ideal", |c| {
            c.mmu = MmuModel::Ideal
        }),
        (Bench::Memcached, Scale::Small, "ideal 30 cores", |c| {
            c.mmu = MmuModel::Ideal;
            c.n_cores = 30;
            c.mem.channels = 8;
        }),
        (Bench::Bfs, Scale::Tiny, "ideal ccws", |c| {
            c.mmu = MmuModel::Ideal;
            c.policy = PolicyKind::Ccws;
        }),
        (Bench::Kmeans, Scale::Tiny, "capped ideal", |c| {
            c.mmu = MmuModel::Ideal;
            c.max_cycles = 5_363;
        }),
        (Bench::Bfs, Scale::Small, "augmented", |c| {
            c.mmu = designs::augmented()
        }),
        (Bench::Bfs, Scale::Small, "tbc", |c| {
            c.tbc = Some(TbcConfig::baseline())
        }),
        (Bench::Memcached, Scale::Small, "tlb-aware tbc", |c| {
            c.tbc = Some(TbcConfig::tlb_aware(3))
        }),
        (Bench::Streamcluster, Scale::Small, "augmented tbc", |c| {
            c.mmu = designs::augmented();
            c.tbc = Some(TbcConfig::baseline());
        }),
        (Bench::Mummergpu, Scale::Tiny, "capped tbc", |c| {
            c.tbc = Some(TbcConfig::baseline());
            c.max_cycles = 40_342;
        }),
    ];
    let opts = ExperimentOpts {
        n_cores: 8,
        ..ExperimentOpts::default()
    };
    let uncapped = opts.gpu(designs::naive3()).max_cycles;
    for (bench, scale, name, configure) in matrix {
        let w = build(bench, scale, opts.seed);
        let run = |tick_every_cycle: bool| {
            let mut cfg = opts.gpu(designs::naive3());
            configure(&mut cfg);
            cfg.tick_every_cycle = tick_every_cycle;
            let cap = cfg.max_cycles;
            (run_kernel(cfg, w.kernel.as_ref(), &w.space), cap)
        };
        let (referee, cap) = run(true);
        if cap < uncapped {
            assert!(!referee.completed, "{bench}/{name} finished before the cap");
            assert_eq!(referee.cycles, cap, "{bench}/{name} stopped off the cap");
        } else {
            assert!(referee.completed, "{bench}/{name} hit the cycle cap");
        }
        let (skip, _) = run(false);
        assert_same(&referee, &skip, &format!("{bench}/{name} 8 cores"));
    }
}

/// Regression: a core that sleeps across a policy decay epoch must
/// apply that epoch's decay before the MMU events of the cycle it
/// wakes on raise its scores, as ticking every cycle does. Memcached
/// under CCWS and the naive blocking TLB on one core wakes on walk
/// fills past decay boundaries.
#[test]
fn decay_epochs_catch_up_before_a_waking_core_bumps_scores() {
    let opts = ExperimentOpts {
        n_cores: 1,
        ..ExperimentOpts::default()
    };
    let w = build(Bench::Memcached, opts.scale, opts.seed);
    let run = |tick_every_cycle: bool| {
        let mut cfg = opts.gpu(designs::naive3());
        cfg.policy = PolicyKind::Ccws;
        cfg.tick_every_cycle = tick_every_cycle;
        run_kernel(cfg, w.kernel.as_ref(), &w.space)
    };
    let referee = run(true);
    assert!(referee.completed, "memcached/ccws hit the cycle cap");
    assert_same(&referee, &run(false), "memcached/ccws 1 core");
}

/// Attaching the observation instruments must not perturb a run: full
/// `RunStats` (stall breakdown included) bit-identical with tracing and
/// interval sampling on versus off, the emitted trace and time-series
/// identical across the per-cycle and idle-skip loops, and the trace
/// non-empty with the spans the MMU work cares about.
#[test]
fn observation_is_invisible_and_engine_independent() {
    type Configure = fn(&mut GpuConfig);
    let matrix: [(Bench, &str, Configure); 3] = [
        (Bench::Memcached, "naive", |c| c.mmu = designs::naive3()),
        (Bench::Bfs, "augmented", |c| c.mmu = designs::augmented()),
        (Bench::Mummergpu, "tbc", |c| {
            c.mmu = designs::augmented();
            c.tbc = Some(TbcConfig::tlb_aware(3));
        }),
    ];
    let opts = ExperimentOpts::quick();
    let observer = || Observer {
        tracer: Tracer::recording(),
        intervals: Some(IntervalRecorder::new(1_000)),
        metrics: Metrics::Off,
        ..Observer::off()
    };
    for (bench, name, configure) in matrix {
        let w = build(bench, opts.scale, opts.seed);
        let mut cfg = opts.gpu(MmuModel::Ideal);
        configure(&mut cfg);

        let plain = Gpu::new(cfg.clone()).run(w.kernel.as_ref(), &w.space);
        assert_eq!(
            plain.stall_breakdown.total(),
            plain.idle_cycles,
            "{bench}/{name}: breakdown must sum to idle_cycles"
        );

        let mut obs = observer();
        let observed = Gpu::new(cfg.clone()).run_observed(w.kernel.as_ref(), &w.space, &mut obs);
        assert_same(
            &plain,
            &observed,
            &format!("{bench}/{name} observed-vs-plain"),
        );

        let buf = obs.tracer.buffer().expect("recording tracer");
        assert!(!buf.is_empty(), "{bench}/{name}: trace is empty");
        assert!(
            buf.events().iter().any(|e| matches!(e, Event::Fill { .. })),
            "{bench}/{name}: no tlb_miss spans"
        );
        assert!(
            buf.events().iter().any(|e| matches!(e, Event::Walk { .. })),
            "{bench}/{name}: no page_walk spans"
        );
        let rec = obs.intervals.as_ref().expect("interval recorder");
        assert!(
            !rec.samples().is_empty(),
            "{bench}/{name}: no interval samples"
        );
        let insns: u64 = rec.samples().iter().map(|s| s.delta.instructions).sum();
        assert_eq!(
            insns, observed.instructions,
            "{bench}/{name}: intervals lose instructions"
        );

        let mut legacy_cfg = cfg.clone();
        legacy_cfg.tick_every_cycle = true;
        let mut obs_legacy = observer();
        let legacy =
            Gpu::new(legacy_cfg).run_observed(w.kernel.as_ref(), &w.space, &mut obs_legacy);
        assert_same(
            &observed,
            &legacy,
            &format!("{bench}/{name} skip-vs-legacy observed"),
        );
        assert_eq!(
            obs.tracer.buffer(),
            obs_legacy.tracer.buffer(),
            "{bench}/{name}: trace differs across loops"
        );
        assert_eq!(
            obs.intervals.as_ref().unwrap().samples(),
            obs_legacy.intervals.as_ref().unwrap().samples(),
            "{bench}/{name}: interval series differs across loops"
        );
    }
}

/// The metrics channel must be invisible to the simulation — full
/// `RunStats` bit-identical with metrics on versus an unobserved run
/// under both loops — and the versioned snapshot it renders must be
/// byte-identical across the skip and per-cycle loops (the sink folds
/// are commutative, so event order cannot leak through).
#[test]
fn metrics_channel_is_invisible_and_snapshots_are_engine_invariant() {
    type Configure = fn(&mut GpuConfig);
    let matrix: [(Bench, &str, Configure); 2] = [
        (Bench::Memcached, "naive", |c| c.mmu = designs::naive3()),
        (Bench::Bfs, "augmented", |c| c.mmu = designs::augmented()),
    ];
    let opts = ExperimentOpts::quick();
    for (bench, name, configure) in matrix {
        let w = build(bench, opts.scale, opts.seed);
        let mut cfg = opts.gpu(MmuModel::Ideal);
        configure(&mut cfg);
        let plain = Gpu::new(cfg.clone()).run(w.kernel.as_ref(), &w.space);

        let mut snapshots: Vec<String> = Vec::new();
        for (label, tick_every_cycle) in [("skip", false), ("per-cycle", true)] {
            let mut e_cfg = cfg.clone();
            e_cfg.tick_every_cycle = tick_every_cycle;
            let mut obs = Observer::off();
            obs.metrics = Metrics::recording();
            let mut gpu = Gpu::new(e_cfg);
            let s = gpu.run_observed(w.kernel.as_ref(), &w.space, &mut obs);
            assert_same(&plain, &s, &format!("{bench}/{name} metrics-on {label}"));

            let sink = obs.metrics.sink().expect("metrics were on");
            assert!(
                sink.lookup_latency.count() > 0,
                "{bench}/{name} {label}: no lookups recorded"
            );
            assert_eq!(
                sink.walk_queue.count(),
                sink.walk_active.count(),
                "{bench}/{name} {label}: stage histograms disagree on fills"
            );
            assert!(
                !sink.hot_pages.is_empty(),
                "{bench}/{name} {label}: hot-page table is empty"
            );
            snapshots.push(gpu.metrics_snapshot(&obs).expect("metrics were on"));
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "{bench}/{name}: per-cycle snapshot differs from skip"
        );
        assert!(
            snapshots[0].contains("\"schema\": \"gmmu-metrics\""),
            "{bench}/{name}: snapshot lost its schema header"
        );
    }
}

#[test]
fn core_count_scales_throughput() {
    let w = build(Bench::Kmeans, Scale::Tiny, 7);
    let run_with = |cores: usize, channels: usize| {
        let mut c = GpuConfig::experiment_scale(MmuModel::Ideal);
        c.n_cores = cores;
        c.mem.channels = channels;
        run_kernel(c, w.kernel.as_ref(), &w.space)
    };
    let two = run_with(2, 1);
    let eight = run_with(8, 4);
    assert!(
        eight.cycles < two.cycles,
        "more cores+channels should finish sooner ({} vs {})",
        eight.cycles,
        two.cycles
    );
}

/// A multi-tenant run is as reproducible as a single-tenant one: the
/// same 4-tenant Zipf scenario under the mixed fault soup, run twice
/// from scratch, produces bit-identical combined stats and an identical
/// per-tenant slice.
#[test]
fn multitenant_runs_are_bit_identical_across_repeats() {
    use gmmu_simt::{TenantJob, TenantPolicy};
    use gmmu_workloads::tenants::scenario;

    let run_once = || {
        let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
        cfg.fault = FaultConfig::demand();
        let inject = FaultInjectConfig::smoke(0xfa57);
        cfg.inject = Some(inject);
        let sc = scenario(4, Scale::Tiny, 7, true);
        let (mut built, _) = sc.build_demand_paged(&inject);
        let mut jobs: Vec<TenantJob<'_>> = built
            .iter_mut()
            .map(|w| TenantJob {
                kernel: w.kernel.as_ref(),
                space: &mut w.space,
            })
            .collect();
        let policy = TenantPolicy {
            watchdog: 2_000_000,
            ..TenantPolicy::default()
        };
        Gpu::new(cfg).run_tenants(&mut jobs, policy, &mut Observer::off())
    };
    let a = run_once();
    let b = run_once();
    assert!(a.completed, "scenario hit the cycle cap");
    assert_same(&a, &b, "multi-tenant repeat");
    assert_eq!(a.tenants, b.tenants, "per-tenant slice differs on repeat");
}
