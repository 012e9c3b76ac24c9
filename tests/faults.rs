//! The fault-and-recovery pipeline end-to-end: demand paging with the
//! modeled CPU fault handler, TLB-shootdown storms with squash-and-replay,
//! the forward-progress watchdog, and the bit-identity of it all when
//! nothing actually faults.

use gmmu::experiments::{designs, ExperimentOpts};
use gmmu::prelude::*;

/// The harness configuration: quick-scope machine, augmented MMU,
/// demand paging on with the watchdog armed.
fn faulting_cfg(inject: Option<FaultInjectConfig>) -> GpuConfig {
    let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
    cfg.fault = FaultConfig::demand();
    cfg.inject = inject;
    cfg
}

fn run_faulted(mut w: Workload, cfg: GpuConfig) -> RunStats {
    Gpu::new(cfg).run_faulted(w.kernel.as_ref(), &mut w.space, &mut Observer::off())
}

/// Every workload must finish a run that starts with *zero* pre-mapped
/// data pages: each first touch faults, parks its warps, and resumes
/// once the modeled CPU handler maps the page. The fault model changes
/// timing only — committed work is identical to the pre-mapped run.
#[test]
fn all_benches_complete_fully_demand_paged() {
    let inject = FaultInjectConfig::demand_paged(0xfa57);
    for bench in Bench::all() {
        let (w, unmapped) = build_demand_paged(bench, Scale::Tiny, 7, &inject);
        assert!(unmapped > 0, "{bench}: nothing was unmapped");
        let faulted = run_faulted(w, faulting_cfg(Some(inject)));
        assert!(faulted.completed, "{bench} hit the cycle cap");
        assert!(!faulted.watchdog_fired, "{bench} tripped the watchdog");
        assert!(faulted.faults > 0, "{bench} never faulted");

        let clean = {
            let w = build(bench, Scale::Tiny, 7);
            let cfg = ExperimentOpts::quick().gpu(designs::augmented());
            Gpu::new(cfg).run(w.kernel.as_ref(), &w.space)
        };
        assert_eq!(
            clean.instructions, faulted.instructions,
            "{bench}: demand paging changed the committed work"
        );
        assert_eq!(
            clean.mem_instructions, faulted.mem_instructions,
            "{bench}: demand paging changed the memory work"
        );
        assert!(
            faulted.cycles > clean.cycles,
            "{bench}: servicing {} faults cannot be free",
            faulted.faults
        );
    }
}

/// Demand-paged runs are deterministic and loop-independent: the
/// idle-cycle-skipping loop services the same fault schedule on the
/// same cycles as the tick-every-cycle referee.
#[test]
fn demand_paged_runs_agree_across_engines() {
    let inject = FaultInjectConfig::demand_paged(0xfa57);
    for bench in [Bench::Bfs, Bench::Kmeans] {
        let run_with = |legacy: bool| {
            let (w, _) = build_demand_paged(bench, Scale::Tiny, 7, &inject);
            let mut cfg = faulting_cfg(Some(inject));
            cfg.tick_every_cycle = legacy;
            run_faulted(w, cfg)
        };
        let skip = run_with(false);
        let tick = run_with(true);
        let diff = skip.diff(&tick);
        assert!(
            diff.is_empty(),
            "{bench}: per-cycle loop disagrees in {diff:?}"
        );
        assert!(
            skip.stall_breakdown.get(StallCause::FaultService) > 0,
            "{bench}: parked warps must be attributed to fault service"
        );
    }
}

/// Injected shootdown storms remap live regions mid-run; every core
/// observes the epoch bump, flushes its TLB, squashes in-flight walks,
/// and the squashed warps replay. The run still commits exactly the
/// pre-storm work. Each storm run's `(cycles, shootdowns,
/// squashed_walks, replays)` is pinned: both drive loops share the
/// shootdown code, so only a recorded figure catches a change in how a
/// single-tenant storm is serviced. The kmeans storms land between
/// walks; the bfs storms squash seven.
#[test]
fn shootdown_storms_flush_and_replay() {
    let inject = FaultInjectConfig::storm(0xfa57, 8_000, 3);
    for (bench, pinned) in [
        (Bench::Kmeans, (25_982, 6, 0, 0)),
        (Bench::Bfs, (43_253, 6, 7, 6)),
    ] {
        let cfg = faulting_cfg(Some(inject));
        let n_cores = cfg.n_cores as u64;
        let stats = run_faulted(build(bench, Scale::Tiny, 7), cfg.clone());
        assert_eq!(
            (
                stats.cycles,
                stats.shootdowns,
                stats.squashed_walks,
                stats.replays
            ),
            pinned,
            "{bench}: storm run moved off its pinned figures"
        );

        // The skip loop folds the storm schedule into its jump target;
        // the squash/flush/replay cascade must land on the same cycles
        // as under the per-cycle referee.
        let tick = {
            let mut cfg = cfg;
            cfg.tick_every_cycle = true;
            run_faulted(build(bench, Scale::Tiny, 7), cfg)
        };
        let diff = stats.diff(&tick);
        assert!(
            diff.is_empty(),
            "{bench}: per-cycle loop disagrees on storms in {diff:?}"
        );
        assert!(stats.completed, "{bench}: storm run hit the cycle cap");
        assert!(!stats.watchdog_fired);
        assert_eq!(
            stats.shootdowns % n_cores,
            0,
            "{bench}: every core must observe every epoch bump"
        );

        let clean = {
            let w = build(bench, Scale::Tiny, 7);
            let cfg = ExperimentOpts::quick().gpu(designs::augmented());
            Gpu::new(cfg).run(w.kernel.as_ref(), &w.space)
        };
        assert_eq!(
            clean.instructions, stats.instructions,
            "{bench}: storms changed the committed work"
        );
        assert_eq!(clean.mem_instructions, stats.mem_instructions);
    }
}

/// TLB-aware thread block compaction parks, squashes and replays its
/// dynamic warps through the same fault path as baseline warps: a
/// mixed-fault bfs run (demand faults, rejects, storms) and a
/// demand-only mummergpu run complete on the naive MMU, agree with the
/// per-cycle referee, and keep their pinned `(cycles, faults,
/// shootdowns, squashed_walks, replays)`. Committed work is not
/// compared with a fault-free run: TLB-aware compaction forms dynamic
/// warps from timing-dependent CPM counters.
#[test]
fn tbc_units_fault_squash_and_replay() {
    for (bench, inject, pinned) in [
        (
            Bench::Bfs,
            FaultInjectConfig::smoke(0xfa57),
            (326_896, 144, 8, 3, 4_814),
        ),
        (
            Bench::Mummergpu,
            FaultInjectConfig::demand_paged(0xfa57),
            (939_791, 796, 0, 0, 5_670),
        ),
    ] {
        let run_with = |legacy: bool| {
            let (w, unmapped) = build_demand_paged(bench, Scale::Tiny, 7, &inject);
            assert!(unmapped > 0, "{bench}: nothing was unmapped");
            let mut cfg = ExperimentOpts::quick().gpu(designs::naive3());
            cfg.fault = FaultConfig::demand();
            cfg.inject = Some(inject);
            cfg.tbc = Some(TbcConfig::tlb_aware(3));
            cfg.tick_every_cycle = legacy;
            run_faulted(w, cfg)
        };
        let stats = run_with(false);
        assert!(stats.completed, "{bench}: TBC fault run hit the cycle cap");
        assert!(!stats.watchdog_fired, "{bench}: TBC tripped the watchdog");
        assert_eq!(
            (
                stats.cycles,
                stats.faults,
                stats.shootdowns,
                stats.squashed_walks,
                stats.replays
            ),
            pinned,
            "{bench}: TBC fault run moved off its pinned figures"
        );
        let diff = stats.diff(&run_with(true));
        assert!(
            diff.is_empty(),
            "{bench}: per-cycle loop disagrees on TBC faults in {diff:?}"
        );
    }
}

/// The mixed smoke configuration — demand faults, delayed walks,
/// transient rejections, and storms at once — completes and exercises
/// the demand-fault path on every benchmark, under the augmented MMU and
/// under the naive blocking TLB. On the naive TLB an injected reject
/// retries at `now + 8`, so a warp bounces again inside the storm a core
/// runs ahead through; and a resolved fault wakes a core that slept
/// straight after an issue. The per-cycle referee must see the same.
#[test]
fn mixed_fault_smoke_completes() {
    let inject = FaultInjectConfig::smoke(0xfa57);
    for (bench, design, mmu) in Bench::all().into_iter().flat_map(|b| {
        [
            (b, "augmented", designs::augmented()),
            (b, "naive3", designs::naive3()),
        ]
    }) {
        let name = format!("{bench}/{design}");
        let run_with = |legacy: bool| {
            let (w, unmapped) = build_demand_paged(bench, Scale::Tiny, 7, &inject);
            assert!(unmapped > 0, "{name}: nothing was unmapped");
            let mut cfg = faulting_cfg(Some(inject));
            cfg.mmu = mmu;
            cfg.tick_every_cycle = legacy;
            run_faulted(w, cfg)
        };
        let stats = run_with(false);
        assert!(stats.completed, "{name}: smoke hit the cycle cap");
        assert!(!stats.watchdog_fired, "{name}: smoke tripped the watchdog");
        assert!(stats.faults > 0, "{name}: nothing faulted");

        // Same mixed-fault soup under the per-cycle referee.
        let tick = run_with(true);
        let diff = stats.diff(&tick);
        assert!(
            diff.is_empty(),
            "{name}: per-cycle loop disagrees on smoke in {diff:?}"
        );
    }
}

/// When a fault can never resolve — here, a read-only space the handler
/// cannot map into — the run must not hang: warps stay parked, the
/// watchdog detects the lack of forward progress, and the run fails
/// with `watchdog_fired` at the same cycle under both loops.
#[test]
fn watchdog_fires_when_faults_cannot_resolve() {
    let inject = FaultInjectConfig::demand_paged(0xfa57);
    let run_with = |legacy: bool| {
        let (w, unmapped) = build_demand_paged(Bench::Bfs, Scale::Tiny, 7, &inject);
        assert!(unmapped > 0);
        let mut cfg = faulting_cfg(Some(inject));
        cfg.fault.watchdog = 50_000;
        cfg.tick_every_cycle = legacy;
        // Shared space: demand paging is on, but the handler has nothing
        // it may map into.
        Gpu::new(cfg).run(w.kernel.as_ref(), &w.space)
    };
    let skip = run_with(false);
    assert!(skip.watchdog_fired, "watchdog never fired");
    assert!(!skip.completed, "a watchdog kill is not a completion");
    assert!(
        skip.stall_breakdown.get(StallCause::FaultService) > 0,
        "the stalled tail must be attributed to fault service"
    );
    let tick = run_with(true);
    assert_eq!(skip.cycles, tick.cycles, "loops disagree on the kill cycle");
    assert!(tick.watchdog_fired);
    assert_eq!(skip.stall_breakdown, tick.stall_breakdown);
}

/// A global watchdog shorter than a DRAM round trip kills a healthy
/// run on the ideal MMU at its first long all-core stall. A core that
/// issued just before it runs ahead into that stall's idle gap, which
/// must stop where the watchdog fires: both loops agree on every
/// statistic of the killed run.
#[test]
fn short_watchdog_stops_both_loops_inside_an_idle_gap() {
    let w = build(Bench::Kmeans, Scale::Tiny, 7);
    let run_with = |legacy: bool| {
        let mut cfg = ExperimentOpts::quick().gpu(MmuModel::Ideal);
        cfg.fault.watchdog = 100;
        cfg.tick_every_cycle = legacy;
        Gpu::new(cfg).run(w.kernel.as_ref(), &w.space)
    };
    let skip = run_with(false);
    assert!(skip.watchdog_fired, "watchdog never fired");
    assert!(skip.stall_breakdown.get(StallCause::Dram) > 0);
    let tick = run_with(true);
    let diff = skip.diff(&tick);
    assert!(diff.is_empty(), "loops disagree on {diff:?}");
}

/// Arming the fault model without any injection must be invisible: a
/// `run_faulted` on a fully-mapped space is bit-identical to the plain
/// historical `run`.
#[test]
fn armed_but_fault_free_is_bit_identical() {
    let plain = {
        let w = build(Bench::Streamcluster, Scale::Tiny, 7);
        let cfg = ExperimentOpts::quick().gpu(designs::augmented());
        Gpu::new(cfg).run(w.kernel.as_ref(), &w.space)
    };
    let armed = {
        let w = build(Bench::Streamcluster, Scale::Tiny, 7);
        run_faulted(w, faulting_cfg(Some(FaultInjectConfig::off())))
    };
    assert_eq!(plain.cycles, armed.cycles, "arming the model cost cycles");
    assert_eq!(plain.instructions, armed.instructions);
    assert_eq!(plain.idle_cycles, armed.idle_cycles);
    assert_eq!(plain.stall_breakdown, armed.stall_breakdown);
    assert_eq!(plain.tlb_accesses, armed.tlb_accesses);
    assert_eq!(plain.tlb_hits, armed.tlb_hits);
    assert_eq!(plain.l1_accesses, armed.l1_accesses);
    assert_eq!(plain.dram_requests, armed.dram_requests);
    assert_eq!(plain.replays, armed.replays);
    assert_eq!(armed.faults, 0);
    assert_eq!(armed.shootdowns, 0);
    assert_eq!(armed.squashed_walks, 0);
    assert!(!armed.watchdog_fired);
}

/// Cross-tenant shootdown storms: storms raised against one tenant's
/// address space squash in-flight walks and flush only that ASID's
/// entries, every tenant still commits exactly its storm-free work, and
/// the skip and per-cycle loops agree on the whole cascade.
#[test]
fn cross_tenant_storms_squash_and_replay() {
    use gmmu_simt::{TenantJob, TenantPolicy};
    use gmmu_workloads::tenants::scenario;

    let inject = FaultInjectConfig::storm(0xfa57, 8_000, 3);
    let policy = TenantPolicy {
        watchdog: 2_000_000,
        ..TenantPolicy::default()
    };
    let run_with = |inject: Option<FaultInjectConfig>, legacy: bool| {
        let mut cfg = faulting_cfg(inject);
        cfg.tick_every_cycle = legacy;
        let mut built = scenario(2, Scale::Tiny, 7, true).build();
        let mut jobs: Vec<TenantJob<'_>> = built
            .iter_mut()
            .map(|w| TenantJob {
                kernel: w.kernel.as_ref(),
                space: &mut w.space,
            })
            .collect();
        Gpu::new(cfg).run_tenants(&mut jobs, policy, &mut Observer::off())
    };

    let stats = run_with(Some(inject), false);
    assert!(stats.completed, "storm scenario hit the cycle cap");
    assert!(!stats.watchdog_fired);
    assert!(stats.shootdowns > 0, "no core observed a shootdown");
    assert!(stats.squashed_walks > 0, "no walk was squashed");
    assert_eq!(stats.tenants.len(), 2);

    let tick = run_with(Some(inject), true);
    let diff = stats.diff(&tick);
    assert!(
        diff.is_empty(),
        "per-cycle loop disagrees on cross-tenant storms in {diff:?}"
    );

    // Storms perturb timing only: each tenant's committed work matches
    // the storm-free run of the same scenario.
    let clean = run_with(None, false);
    assert!(clean.completed);
    for (s, c) in stats.tenants.iter().zip(clean.tenants.iter()) {
        assert_eq!(
            s.instructions, c.instructions,
            "tenant {}: storms changed the committed work",
            s.asid
        );
        assert_eq!(s.blocks_done, c.blocks_done);
    }
}
