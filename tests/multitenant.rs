//! Multi-tenant robustness end-to-end: N concurrent address spaces on
//! one GPU, bit-identical across the skip and per-cycle loops under
//! adversarial fault and
//! shootdown schedules, with per-tenant accounting, fairness, and the
//! starvation watchdog (DESIGN.md §13).

use gmmu::experiments::{designs, ExperimentOpts};
use gmmu::prelude::*;
use gmmu_sim::metrics::Metrics;
use gmmu_simt::{TenantJob, TenantPolicy};
use gmmu_workloads::tenants::scenario;

fn assert_same(a: &RunStats, b: &RunStats, what: &str) {
    let diff = a.diff(b);
    assert!(diff.is_empty(), "{what}: fields differ: {diff:?}");
    assert_eq!(a.tenants, b.tenants, "{what}: per-tenant stats differ");
}

/// Quick-scope machine with the augmented MMU, demand paging armed.
fn mt_cfg(inject: Option<FaultInjectConfig>) -> GpuConfig {
    let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
    cfg.fault = FaultConfig::demand();
    cfg.inject = inject;
    cfg
}

/// Generous per-tenant watchdog: longer than any fault-service chain in
/// these runs, so it arms without ever firing.
fn generous_policy() -> TenantPolicy {
    TenantPolicy {
        watchdog: 2_000_000,
        ..TenantPolicy::default()
    }
}

/// Builds the scenario fresh and runs it under `cfg`/`policy`; the
/// spaces are rebuilt per call so demand-paging mutations never leak
/// between runs.
fn run_scenario(
    n_tenants: usize,
    seed: u64,
    cfg: &GpuConfig,
    policy: TenantPolicy,
) -> (RunStats, Option<String>) {
    let sc = scenario(n_tenants, Scale::Tiny, seed, n_tenants > 1);
    let mut built = match &cfg.inject {
        Some(inj) if inj.unmap_fraction > 0.0 => sc.build_demand_paged(inj).0,
        _ => sc.build(),
    };
    let mut jobs: Vec<TenantJob<'_>> = built
        .iter_mut()
        .map(|w| TenantJob {
            kernel: w.kernel.as_ref(),
            space: &mut w.space,
        })
        .collect();
    let mut obs = Observer::off();
    obs.metrics = Metrics::recording();
    let mut gpu = Gpu::new(cfg.clone());
    let stats = gpu.run_tenants(&mut jobs, policy, &mut obs);
    let snapshot = gpu.metrics_snapshot(&obs);
    (stats, snapshot)
}

/// The acceptance scenario: a 4-tenant Zipf mix with a thrashing
/// memcached tenant, demand paging, walk delays, rejections, and
/// cross-tenant shootdown storms — completing under both loops
/// bit-identically (stats, per-tenant slice, and metrics snapshot) with
/// no watchdog kill. A 2-tenant mix rides the same matrix, once more on
/// the naive blocking TLB with flush-on-switch: there a core runs ahead
/// only through one tenant's bounces, since another tenant's request
/// would flush the untagged TLB.
#[test]
fn tenant_storms_bit_identical_across_engines() {
    let flush_on_switch = TenantPolicy {
        watchdog: generous_policy().watchdog,
        ..TenantPolicy::flush_on_switch()
    };
    for (n_tenants, mmu, policy) in [
        (2usize, designs::augmented(), generous_policy()),
        (4, designs::augmented(), generous_policy()),
        (2, designs::naive3(), flush_on_switch),
    ] {
        let run_with = |legacy: bool| {
            let mut cfg = mt_cfg(Some(FaultInjectConfig::smoke(0xfa57)));
            cfg.mmu = mmu;
            cfg.tick_every_cycle = legacy;
            run_scenario(n_tenants, 7, &cfg, policy)
        };
        let what = format!("{n_tenants}T tagged={}", policy.tagged);
        let (skip, snap_skip) = run_with(false);
        assert!(skip.completed, "{what} hit the cycle cap");
        assert!(!skip.watchdog_fired, "{what} tripped the watchdog");
        assert_eq!(skip.tenants.len(), n_tenants);
        assert!(skip.shootdowns > 0, "{what}: no storms landed");
        assert!(skip.faults > 0, "{what}: nothing demand-faulted");
        // `RunStats::faults` counts raised fault events per core;
        // `TenantStats::faults` counts pages the handler mapped (shared
        // pages dedup across cores), so mapped <= raised.
        let mapped: u64 = skip.tenants.iter().map(|t| t.faults).sum();
        assert!(mapped > 0, "{what}: no fault was attributed");
        assert!(mapped <= skip.faults, "{what}: attribution overflow");
        for t in &skip.tenants {
            assert!(
                t.instructions > 0 && t.blocks_done > 0,
                "{what}: tenant {} did no work",
                t.asid
            );
            assert!(t.finished_at <= skip.cycles);
        }

        let (tick, snap_tick) = run_with(true);
        assert_same(&skip, &tick, &format!("{what} tick-every-cycle"));
        assert_eq!(
            snap_skip, snap_tick,
            "{what} tick-every-cycle: metrics snapshot diverged"
        );
    }
}

/// `run_tenants` with a single job is the legacy single-tenant path:
/// bit-identical to `run_faulted` on the same workload, with no
/// per-tenant slice.
#[test]
fn single_tenant_run_tenants_matches_legacy() {
    let cfg = mt_cfg(Some(FaultInjectConfig::storm(0xfa57, 8_000, 3)));
    let legacy = {
        let mut w = build(Bench::Kmeans, Scale::Tiny, 7);
        Gpu::new(cfg.clone()).run_faulted(w.kernel.as_ref(), &mut w.space, &mut Observer::off())
    };
    let via_tenants = {
        let mut w = build(Bench::Kmeans, Scale::Tiny, 7);
        let mut jobs = [TenantJob {
            kernel: w.kernel.as_ref(),
            space: &mut w.space,
        }];
        Gpu::new(cfg).run_tenants(&mut jobs, TenantPolicy::default(), &mut Observer::off())
    };
    let diff = legacy.diff(&via_tenants);
    assert!(diff.is_empty(), "single-tenant path diverged: {diff:?}");
    assert!(
        via_tenants.tenants.is_empty(),
        "single-tenant runs must not grow a per-tenant slice"
    );
}

/// ASID-tagged translation must be no less fair than the
/// flush-on-switch baseline on the same scenario, and per-tenant
/// slowdown helpers must be well-formed.
#[test]
fn tagged_is_fairer_than_flush_on_switch() {
    let cfg = mt_cfg(None);
    let sc = scenario(2, Scale::Tiny, 7, true);
    let solos: Vec<RunStats> = sc
        .tenants
        .iter()
        .map(|spec| {
            let mut w = gmmu_workloads::build_tenant_paged(
                spec.bench,
                spec.scale,
                spec.seed,
                PageSize::Base4K,
                0,
            );
            Gpu::new(cfg.clone()).run_faulted(w.kernel.as_ref(), &mut w.space, &mut Observer::off())
        })
        .collect();
    let (tagged, _) = run_scenario(2, 7, &cfg, TenantPolicy::default());
    let (flush, _) = run_scenario(2, 7, &cfg, TenantPolicy::flush_on_switch());
    assert!(tagged.completed && flush.completed);
    let ut = tagged.unfairness(&solos);
    let uf = flush.unfairness(&solos);
    assert!(ut >= 1.0 && uf >= 1.0, "unfairness is a max/min ratio");
    assert!(
        ut <= uf,
        "ASID tagging must not be less fair than flush-on-switch \
         (tagged {ut:.3} vs flush {uf:.3})"
    );
    for s in tagged.tenant_slowdowns(&solos) {
        assert!(s.is_finite() && s > 0.0);
    }
}

/// When a tenant's faults outlast the per-tenant deadline, the
/// starvation watchdog kills the run — on the same cycle under both
/// loops — and the kill is not a completion.
#[test]
fn per_tenant_watchdog_kills_deterministically() {
    let run_with = |legacy: bool| {
        let mut cfg = mt_cfg(Some(FaultInjectConfig::demand_paged(0xfa57)));
        cfg.tick_every_cycle = legacy;
        // Major faults take 30k cycles; a 5k-cycle per-tenant deadline
        // must catch a tenant parked on one.
        let policy = TenantPolicy {
            watchdog: 5_000,
            ..TenantPolicy::default()
        };
        let sc = scenario(2, Scale::Tiny, 7, true);
        let inj = gmmu_sim::fault::FaultInjector::new(FaultInjectConfig::demand_paged(0xfa57));
        let mut built: Vec<Workload> = sc
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let mut w = gmmu_workloads::build_tenant_paged(
                    spec.bench,
                    spec.scale,
                    spec.seed,
                    PageSize::Base4K,
                    t as u16,
                );
                let unmapped = w.space.unmap_pages_where(|vpn| inj.unmap_page(vpn.raw()));
                assert!(unmapped > 0, "tenant {t}: nothing was unmapped");
                w
            })
            .collect();
        let mut jobs: Vec<TenantJob<'_>> = built
            .iter_mut()
            .map(|w| TenantJob {
                kernel: w.kernel.as_ref(),
                space: &mut w.space,
            })
            .collect();
        Gpu::new(cfg).run_tenants(&mut jobs, policy, &mut Observer::off())
    };
    let skip = run_with(false);
    assert!(skip.watchdog_fired, "per-tenant watchdog never fired");
    assert!(!skip.completed, "a watchdog kill is not a completion");
    let tick = run_with(true);
    assert_same(&skip, &tick, "tick-every-cycle kill");
}

/// Satellite 1: the metrics snapshot of a multi-tenant run carries the
/// per-tenant dimension — a `tenants` section with one row per ASID —
/// and per-ASID hot-page keys.
#[test]
fn metrics_snapshot_has_per_tenant_dimensions() {
    let cfg = mt_cfg(Some(FaultInjectConfig::smoke(0xfa57)));
    let (stats, snapshot) = run_scenario(2, 7, &cfg, generous_policy());
    assert!(stats.completed);
    let snap = snapshot.expect("metrics channel was on");
    assert!(
        snap.contains("\"tenants\""),
        "snapshot has no tenants section"
    );
    assert!(
        snap.contains("\"asid\": 1"),
        "snapshot never mentions ASID 1"
    );
}

/// The 4-tenant mixed-fault snapshot `gmmu fig multitenant --metrics`
/// writes lists every tenant in its `tenants` section, and its hot-page
/// table reaches past ASID 0.
#[test]
fn multitenant_snapshot_lists_every_tenant() {
    let snap = gmmu::figures::multitenant_metrics_snapshot(&ExperimentOpts::quick());
    let asids = |section: &str| -> Vec<u64> {
        section
            .split("\"asid\": ")
            .skip(1)
            .map(|s| {
                s[..s.find(|c: char| !c.is_ascii_digit()).unwrap()]
                    .parse()
                    .unwrap()
            })
            .collect()
    };
    let (_, rest) = snap
        .split_once("\"tenants\": [")
        .expect("no tenants section");
    let (tenants, rest) = rest.split_once(']').expect("unterminated tenants section");
    assert_eq!(asids(tenants), [0, 1, 2, 3]);
    let (_, hot) = rest.split_once("\"pages\": [").expect("no hot-page table");
    assert!(
        asids(hot).iter().any(|&a| a > 0),
        "hot pages never left ASID 0"
    );
}
