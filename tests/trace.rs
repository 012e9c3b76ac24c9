//! Trace capture/replay conformance: a run recorded to a GMTR trace and
//! replayed under either drive loop (idle-skipping or per-cycle) must
//! reproduce the captured run's statistics bit-identically — with and
//! without fault injection — and the format must refuse foreign,
//! truncated, tampered, or other-versioned files. Committed golden fixtures pin the byte format
//! itself: re-capturing a replayed golden run must reproduce the
//! committed file byte for byte.

use gmmu::experiments::{designs, ExperimentOpts};
use gmmu::prelude::*;
use gmmu_sim::ckpt::CkptError;
use gmmu_sim::metrics::Metrics;
use gmmu_trace::{
    assemble, capture_launch, rebuild_space, replay_run, replay_run_observed, Recorder, Trace,
    TraceKernel,
};

/// Captures `bench` (Tiny scale, seed 7) under `cfg`, returning the
/// encoded trace and the capture run's stats.
fn capture(bench: Bench, cfg: &GpuConfig) -> (Vec<u8>, RunStats) {
    let mut w = match &cfg.inject {
        Some(inj) if inj.unmap_fraction > 0.0 => build_demand_paged(bench, Scale::Tiny, 7, inj).0,
        _ => build(bench, Scale::Tiny, 7),
    };
    let source = format!("{bench} tiny seed=7");
    let launch = capture_launch(w.kernel.as_ref(), &w.space, cfg, &source);
    let rec = Recorder::new(w.kernel.as_ref());
    let stats = Gpu::new(cfg.clone()).run_faulted(&rec, &mut w.space, &mut Observer::off());
    let trace = assemble(launch, rec, &stats);
    (trace.encode(), stats)
}

/// The two drive loops every replay runs under.
const LOOPS: [(&str, bool); 2] = [("skip", false), ("per-cycle", true)];

/// Replays `bytes` under each drive loop; every replay must match the
/// stats embedded in the trace exactly (ignoring `wall_s`).
fn assert_replays_match(bytes: &[u8], what: &str) {
    let trace = Trace::decode(bytes).expect("trace decodes");
    for (name, tick_every_cycle) in LOOPS {
        let mut cfg = trace.launch.config.clone();
        cfg.tick_every_cycle = tick_every_cycle;
        let replayed = replay_run(&trace, &cfg).expect("replay runs");
        let diff = trace.stats.diff(&replayed);
        assert!(
            diff.is_empty(),
            "{what}/{name}: replay diverged from capture in {diff:?}"
        );
    }
}

#[test]
fn capture_replay_round_trips_on_every_bench_and_engine() {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    for bench in Bench::all() {
        let (bytes, stats) = capture(bench, &cfg);
        assert!(stats.completed, "{bench} capture hit the cycle cap");
        assert_replays_match(&bytes, &format!("{bench}"));
    }
}

#[test]
fn capture_does_not_perturb_the_run() {
    let cfg = ExperimentOpts::quick().gpu(designs::naive3());
    let w = build(Bench::Bfs, Scale::Tiny, 7);
    let plain = Gpu::new(cfg.clone()).run(w.kernel.as_ref(), &w.space);
    let (_, captured) = capture(Bench::Bfs, &cfg);
    let diff = plain.diff(&captured);
    assert!(diff.is_empty(), "recording changed the run: {diff:?}");
}

/// Replaying a trace while recording it again must reproduce the
/// original file byte for byte: the canonical record order is loop-
/// independent and the launch section survives the round trip.
#[test]
fn recapturing_a_replay_is_byte_identical() {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    let (bytes, _) = capture(Bench::Pathfinder, &cfg);
    let trace = Trace::decode(&bytes).expect("trace decodes");

    let kernel = TraceKernel::from_trace(&trace).expect("records expand");
    let mut space = rebuild_space(&trace.launch).expect("space rebuilds");
    let relaunch = capture_launch(&kernel, &space, &trace.launch.config, &trace.launch.source);
    let rec = Recorder::new(&kernel);
    let stats =
        Gpu::new(trace.launch.config.clone()).run_faulted(&rec, &mut space, &mut Observer::off());
    let again = assemble(relaunch, rec, &stats).encode();
    assert_eq!(again, bytes, "re-capture is not byte-identical");
}

#[test]
fn replay_under_fault_injection_matches_capture() {
    let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
    cfg.fault = FaultConfig::demand();
    cfg.inject = Some(FaultInjectConfig::smoke(0xfa57));
    let (bytes, stats) = capture(Bench::Bfs, &cfg);
    assert!(stats.completed, "faulted capture hit the cycle cap");
    assert!(stats.faults > 0, "nothing demand-faulted");
    assert_replays_match(&bytes, "bfs/smoke");
}

#[test]
fn trace_refuses_foreign_truncated_or_tampered_files() {
    let cfg = ExperimentOpts::quick().gpu(designs::naive3());
    let (bytes, _) = capture(Bench::Kmeans, &cfg);

    // Foreign magic.
    let mut foreign = bytes.clone();
    foreign[..4].copy_from_slice(b"GMCK");
    assert_eq!(Trace::decode(&foreign).unwrap_err(), CkptError::BadMagic);

    // Any other format version is refused before the payload is read
    // (the version is the single varint byte at offset 4): a GMTR v1
    // file, whose launch configuration still carried the engine
    // fields, and a future version.
    assert_eq!(bytes[4], 2);
    for version in [1u8, 3] {
        let mut other = bytes.clone();
        other[4] = version;
        assert_eq!(
            Trace::decode(&other).unwrap_err(),
            CkptError::BadVersion(version as u32)
        );
    }

    // Any flipped bit in the launch section is a fingerprint mismatch.
    let mut tampered = bytes.clone();
    tampered[40] ^= 0x01;
    assert!(matches!(
        Trace::decode(&tampered).unwrap_err(),
        CkptError::ConfigMismatch { .. }
    ));

    // Truncation anywhere in the body.
    for frac in [4, 2] {
        let cut = bytes.len() / frac;
        assert!(
            Trace::decode(&bytes[..cut]).is_err(),
            "truncated at {cut} must be refused"
        );
    }
}

/// The committed golden fixtures decode, re-encode byte-identically,
/// replay to their embedded stats under both loops, and re-capture to
/// the committed bytes. This pins the GMTR v2 byte format: an
/// accidental layout change fails here even if round-trip tests still
/// pass against the changed code.
#[test]
fn golden_fixtures_replay_and_recapture_byte_identically() {
    for name in ["pathfinder_tiny", "kmeans_tiny"] {
        let path = format!("{}/tests/fixtures/{name}.gmtr", env!("CARGO_MANIFEST_DIR"));
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
        let trace = Trace::decode(&bytes).expect("golden fixture decodes");
        assert_eq!(
            trace.encode(),
            bytes,
            "{name}: re-encode is not byte-identical"
        );
        assert_replays_match(&bytes, name);

        // Re-capture the replayed run and require the committed bytes.
        let kernel = TraceKernel::from_trace(&trace).expect("records expand");
        let mut space = rebuild_space(&trace.launch).expect("space rebuilds");
        let relaunch = capture_launch(&kernel, &space, &trace.launch.config, &trace.launch.source);
        let rec = Recorder::new(&kernel);
        let stats = Gpu::new(trace.launch.config.clone()).run_faulted(
            &rec,
            &mut space,
            &mut Observer::off(),
        );
        let again = assemble(relaunch, rec, &stats).encode();
        assert_eq!(again, bytes, "{name}: golden re-capture diverged");
    }
}

/// The committed metrics snapshot fixture pins the snapshot JSON schema:
/// replaying the golden pathfinder trace with the metrics channel on
/// must reproduce `metrics_pathfinder_tiny.json` byte for byte, under
/// both loops. A schema change (new field, renamed instrument, different
/// float formatting) fails here and forces a deliberate fixture bump via
/// `GMMU_EMIT_GOLDEN`.
#[test]
fn golden_metrics_snapshot_matches_committed_fixture() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let bytes = std::fs::read(format!("{dir}/pathfinder_tiny.gmtr"))
        .expect("missing golden fixture pathfinder_tiny.gmtr");
    let golden = std::fs::read_to_string(format!("{dir}/metrics_pathfinder_tiny.json"))
        .expect("missing golden fixture metrics_pathfinder_tiny.json");
    let trace = Trace::decode(&bytes).expect("golden fixture decodes");
    for (name, tick_every_cycle) in LOOPS {
        let mut cfg = trace.launch.config.clone();
        cfg.tick_every_cycle = tick_every_cycle;
        let mut obs = Observer::off();
        obs.metrics = Metrics::recording();
        let (_, snapshot) = replay_run_observed(&trace, &cfg, &mut obs).expect("replay runs");
        let snapshot = snapshot.expect("the metrics channel was on");
        assert_eq!(
            snapshot, golden,
            "{name}: metrics snapshot diverged from the committed fixture"
        );
    }
}

/// Multi-tenant capture/replay conformance: a 2-tenant Zipf scenario
/// under the mixed fault soup, captured to a GMTM container, must
/// replay bit-identically (combined stats *and* per-tenant slice) under
/// both loops, and re-encoding the decoded trace reproduces the bytes.
/// A GMTM v1 container is refused by version.
#[test]
fn multitenant_capture_replay_round_trips() {
    use gmmu_simt::TenantPolicy;
    use gmmu_trace::{capture_tenants, replay_tenants, MultiTrace};
    use gmmu_workloads::tenants::scenario;

    let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
    cfg.fault = FaultConfig::demand();
    cfg.inject = Some(FaultInjectConfig::smoke(0xfa57));
    let policy = TenantPolicy {
        watchdog: 2_000_000,
        ..TenantPolicy::default()
    };

    let sc = scenario(2, Scale::Tiny, 7, true);
    let (built, unmapped) = sc.build_demand_paged(cfg.inject.as_ref().unwrap());
    assert!(
        unmapped.iter().all(|&u| u > 0),
        "a tenant started fully mapped"
    );
    let (owned, mut spaces): (Vec<_>, Vec<_>) =
        built.into_iter().map(|w| (w.kernel, w.space)).unzip();
    let kernels: Vec<&dyn gmmu_simt::Kernel> = owned
        .iter()
        .map(|k| k.as_ref() as &dyn gmmu_simt::Kernel)
        .collect();
    let (trace, stats) = capture_tenants(&kernels, &mut spaces, &cfg, policy, "mt conformance");
    assert!(stats.completed, "capture hit the cycle cap");
    assert!(!stats.watchdog_fired);
    assert_eq!(stats.tenants.len(), 2);

    let bytes = trace.encode();
    let back = MultiTrace::decode(&bytes).expect("GMTM decodes");
    assert_eq!(back.encode(), bytes, "re-encode is not byte-identical");
    assert_eq!(back.stats.tenants, stats.tenants);
    let mut v1 = bytes.clone();
    assert_eq!(v1[4], 2);
    v1[4] = 1;
    assert_eq!(
        MultiTrace::decode(&v1).unwrap_err(),
        CkptError::BadVersion(1)
    );

    for (name, tick_every_cycle) in LOOPS {
        let mut rcfg = back.tenants[0].launch.config.clone();
        rcfg.tick_every_cycle = tick_every_cycle;
        let (replayed, _) =
            replay_tenants(&back, &rcfg, &mut Observer::off()).expect("GMTM replays");
        let diff = back.stats.diff(&replayed);
        assert!(diff.is_empty(), "{name}: replay diverged in {diff:?}");
        assert_eq!(
            back.stats.tenants, replayed.tenants,
            "{name}: per-tenant slice diverged"
        );
    }
}
