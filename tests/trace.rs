//! Trace capture/replay conformance: a run recorded to a GMTR trace and
//! replayed under either drive loop (idle-skipping or per-cycle) must
//! reproduce the captured run's statistics bit-identically — with and
//! without fault injection — with the two loops' metrics snapshots
//! byte-identical, and the format must refuse foreign, truncated,
//! tampered, or other-versioned files. Committed golden fixtures pin the
//! byte format itself: a fresh capture from the workload builders, and a
//! re-capture of a replayed golden run, must both reproduce the
//! committed file byte for byte. `emit_golden_fixtures` (ignored by
//! default) re-records them after a deliberate change:
//!
//! ```text
//! cargo test --test trace -- --ignored emit_golden_fixtures
//! ```

use gmmu::experiments::{designs, ExperimentOpts};
use gmmu::prelude::*;
use gmmu_sim::codec::CodecError;
use gmmu_sim::metrics::Metrics;
use gmmu_trace::{
    assemble, capture_launch, rebuild_space, replay_run_observed, Recorder, Trace, TraceKernel,
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

/// Where the golden fixtures live.
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// The committed golden traces: quick scope (Tiny scale), seed 7,
/// augmented MMU, captured by [`capture`].
const GOLDEN: [(Bench, &str); 2] = [
    (Bench::Pathfinder, "pathfinder_tiny"),
    (Bench::Kmeans, "kmeans_tiny"),
];

/// Replays `bytes` under each drive loop with the metrics channel on.
/// Every replay must match the stats embedded in the trace exactly
/// (ignoring `wall_s`), and the two loops must render byte-identical
/// metrics snapshots: the snapshot is a pure fold of the run's events.
/// Returns that snapshot.
fn assert_replays_match(bytes: &[u8], what: &str) -> String {
    let trace = Trace::decode(bytes).expect("trace decodes");
    let mut snapshots = Vec::with_capacity(LOOPS.len());
    for (name, tick_every_cycle) in LOOPS {
        let mut cfg = trace.launch.config.clone();
        cfg.tick_every_cycle = tick_every_cycle;
        let mut obs = Observer::off();
        obs.metrics = Metrics::recording();
        let (replayed, snapshot) =
            replay_run_observed(&trace, &cfg, &mut obs).expect("replay runs");
        let diff = trace.stats.diff(&replayed);
        assert!(
            diff.is_empty(),
            "{what}/{name}: replay diverged from capture in {diff:?}"
        );
        snapshots.push(snapshot.expect("the metrics channel was on"));
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "{what}: metrics snapshots diverged across loops"
    );
    snapshots.swap_remove(0)
}

/// Every benchmark, plain and under demand paging with the mixed fault
/// soup, round-trips through a trace under both loops.
#[test]
fn capture_replay_round_trips_on_every_bench_and_engine() {
    let plain = ExperimentOpts::quick().gpu(designs::augmented());
    let mut faulted = plain.clone();
    faulted.fault = FaultConfig::demand();
    faulted.inject = Some(FaultInjectConfig::smoke(0xfa57));
    for bench in Bench::all() {
        for (variant, cfg) in [("plain", &plain), ("fault", &faulted)] {
            let what = format!("{bench}/{variant}");
            let (bytes, stats) = capture(bench, cfg);
            assert!(stats.completed, "{what}: capture hit the cycle cap");
            assert!(
                !stats.watchdog_fired,
                "{what}: capture tripped the watchdog"
            );
            if cfg.inject.is_some() {
                assert!(stats.faults > 0, "{what}: nothing demand-faulted");
            }
            assert_replays_match(&bytes, &what);
        }
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
fn trace_refuses_foreign_truncated_or_tampered_files() {
    let cfg = ExperimentOpts::quick().gpu(designs::naive3());
    let (bytes, _) = capture(Bench::Kmeans, &cfg);

    // Foreign magic.
    let mut foreign = bytes.clone();
    foreign[..4].copy_from_slice(b"GMCK");
    assert_eq!(Trace::decode(&foreign).unwrap_err(), CodecError::BadMagic);

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
            CodecError::BadVersion(version as u32)
        );
    }

    // Any flipped bit in the launch section is a fingerprint mismatch.
    let mut tampered = bytes.clone();
    tampered[40] ^= 0x01;
    assert!(matches!(
        Trace::decode(&tampered).unwrap_err(),
        CodecError::ConfigMismatch { .. }
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
    for (_, name) in GOLDEN {
        let path = format!("{FIXTURES}/{name}.gmtr");
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

/// The committed traces equal a fresh capture from the workload
/// builders. Re-capturing a replay (above) drives the kernel from the
/// fixture's own records, so only this test sees a change in how a
/// workload is built.
#[test]
fn golden_fixtures_match_a_fresh_capture() {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    for (bench, name) in GOLDEN {
        let path = format!("{FIXTURES}/{name}.gmtr");
        let golden =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
        let (fresh, _) = capture(bench, &cfg);
        assert!(
            fresh == golden,
            "{name}: a fresh capture ({} bytes) differs from the committed fixture ({} bytes)",
            fresh.len(),
            golden.len()
        );
    }
}

/// Re-records the golden traces and `metrics_pathfinder_tiny.json` (the
/// metrics-on replay snapshot of the pathfinder trace) into
/// `tests/fixtures/`. Run it by hand after a deliberate format, schema
/// or model change, and commit the result.
#[test]
#[ignore = "rewrites tests/fixtures"]
fn emit_golden_fixtures() {
    let cfg = ExperimentOpts::quick().gpu(designs::augmented());
    for (bench, name) in GOLDEN {
        let (bytes, _) = capture(bench, &cfg);
        let path = format!("{FIXTURES}/{name}.gmtr");
        std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        if bench == Bench::Pathfinder {
            let snapshot = assert_replays_match(&bytes, name);
            let path = format!("{FIXTURES}/metrics_{name}.json");
            std::fs::write(&path, snapshot).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
}

/// The committed metrics snapshot fixture pins the snapshot JSON schema:
/// replaying the golden pathfinder trace with the metrics channel on
/// must reproduce `metrics_pathfinder_tiny.json` byte for byte, under
/// both loops. A schema change (new field, renamed instrument, different
/// float formatting) fails here and forces a deliberate fixture bump via
/// `emit_golden_fixtures`.
#[test]
fn golden_metrics_snapshot_matches_committed_fixture() {
    let bytes = std::fs::read(format!("{FIXTURES}/pathfinder_tiny.gmtr"))
        .expect("missing golden fixture pathfinder_tiny.gmtr");
    let golden = std::fs::read_to_string(format!("{FIXTURES}/metrics_pathfinder_tiny.json"))
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

/// Pins the Perfetto and interval bytes across commits: replaying the
/// golden pathfinder trace with the tracer, a 1000-cycle interval
/// recorder and the metrics channel all on must reproduce the committed
/// FNV-1a64 digests of the Chrome JSON (spans plus the
/// `walk_stage_cycles` counter rows the harness splices in) and of the
/// interval CSV, under both loops.
#[test]
fn golden_trace_and_interval_bytes_match_pinned_digests() {
    use gmmu::experiments::metrics_counter_rows;
    use gmmu_sim::rng::fnv1a64;
    use gmmu_sim::trace::Tracer;
    use gmmu_simt::IntervalRecorder;
    const CHROME_FNV: u64 = 0x1cdc_829a_4e6a_0a45;
    const INTERVALS_FNV: u64 = 0x0919_ee11_473e_e705;

    let bytes = std::fs::read(format!("{FIXTURES}/pathfinder_tiny.gmtr"))
        .expect("missing golden fixture pathfinder_tiny.gmtr");
    let trace = Trace::decode(&bytes).expect("golden fixture decodes");
    for (name, tick_every_cycle) in LOOPS {
        let mut cfg = trace.launch.config.clone();
        cfg.tick_every_cycle = tick_every_cycle;
        let mut obs = Observer::off();
        obs.tracer = Tracer::recording();
        obs.intervals = Some(IntervalRecorder::new(1_000));
        obs.metrics = Metrics::recording();
        replay_run_observed(&trace, &cfg, &mut obs).expect("replay runs");
        let rows = metrics_counter_rows(&obs);
        assert!(!rows.is_empty(), "{name}: no walk_stage_cycles rows");
        let json = obs
            .tracer
            .buffer()
            .expect("recording")
            .to_chrome_json_with(&rows);
        let csv = obs.intervals.as_ref().expect("recording").to_csv();
        for span in ["tlb_miss", "page_walk", "warp_sleep", "block"] {
            assert!(
                json.contains(&format!("\"name\":\"{span}\"")),
                "{name}: the golden run emits no {span} span"
            );
        }
        assert_eq!(
            (fnv1a64(json.as_bytes()), fnv1a64(csv.as_bytes())),
            (CHROME_FNV, INTERVALS_FNV),
            "{name}: trace/interval bytes diverged from the pinned digests"
        );
    }
}

/// Seeded single-byte corruptions: each mutant XORs a nonzero byte into
/// one position drawn uniformly from `range`.
fn byte_mutants(
    bytes: &[u8],
    range: std::ops::Range<usize>,
    n: usize,
    rng: &mut gmmu_sim::rng::Xoshiro256,
) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut m = bytes.to_vec();
            let at = rng.gen_range(range.start as u64..range.end as u64) as usize;
            m[at] ^= rng.gen_range(1..256) as u8;
            m
        })
        .collect()
}

/// Seeded strict prefixes of `bytes`, including the last 16 cut points.
fn truncations<'a>(
    bytes: &'a [u8],
    n: usize,
    rng: &mut gmmu_sim::rng::Xoshiro256,
) -> Vec<&'a [u8]> {
    let len = bytes.len();
    (0..n)
        .map(|_| rng.gen_range(0..len as u64) as usize)
        .chain(len - 16..len)
        .map(|cut| &bytes[..cut])
        .collect()
}

/// Runs `decode` over every input under `catch_unwind`: a damaged file
/// may decode or be refused, but must never panic. Returns how many
/// inputs were refused.
fn refusals<T, E>(what: &str, inputs: &[&[u8]], decode: fn(&[u8]) -> Result<T, E>) -> usize {
    let mut refused = 0;
    for (i, input) in inputs.iter().enumerate() {
        match std::panic::catch_unwind(|| decode(input).is_err()) {
            Ok(err) => refused += err as usize,
            Err(_) => panic!(
                "{what}: input {i} ({} bytes) panicked the loader",
                input.len()
            ),
        }
    }
    refused
}

/// Byte-level damage anywhere in a GMTR file — header, launch section,
/// record stream, stats — is a typed refusal or a clean decode, never a
/// panic. Header and launch damage hits the committed fixtures as they
/// are. Record and stats damage hits each fixture re-encoded with its
/// first 300 records: the record decoder is position-independent, and
/// a short stream keeps the sweep fast. Launch damage is also re-sealed
/// with a matching fingerprint, so the launch decoder itself sees the
/// corrupt bytes.
#[test]
fn gmtr_loader_survives_seeded_byte_mutations() {
    use gmmu_sim::codec::{Loader, Saver};
    use gmmu_sim::rng::{fnv1a64, Xoshiro256};
    use gmmu_trace::{TRACE_MAGIC, TRACE_VERSION};

    /// Offset and length of the launch section's bytes.
    fn launch_span(bytes: &[u8]) -> (usize, usize) {
        let mut r = Loader::new(bytes);
        r.header(&TRACE_MAGIC, TRACE_VERSION).expect("header");
        let len = r.bytes().expect("launch section").len();
        (bytes.len() - r.remaining() - len, len)
    }

    let mut rng = Xoshiro256::seed_from(0x6d75_7461);
    let mut mutations = 0;
    for name in ["pathfinder_tiny", "kmeans_tiny"] {
        let full = std::fs::read(format!("{FIXTURES}/{name}.gmtr")).expect("golden fixture");
        let trace = Trace::decode(&full).expect("golden fixture decodes");
        let short = Trace {
            records: trace.records[..300].to_vec(),
            ..trace
        }
        .encode();
        let (at, len) = launch_span(&short);
        let body = at + len;

        // Same launch, so the same span in both encodings.
        assert_eq!(launch_span(&full), (at, len));
        let mut mutants = byte_mutants(&full, 0..body, 250, &mut rng);
        mutants.extend(byte_mutants(&short, 0..short.len(), 150, &mut rng));
        mutants.extend(byte_mutants(&short, body..short.len(), 150, &mut rng));
        mutants.extend(byte_mutants(
            &short,
            short.len() - 256..short.len(),
            150,
            &mut rng,
        ));
        for bad in byte_mutants(&short[at..body], 0..len, 150, &mut rng) {
            let mut w = Saver::new();
            w.header(&TRACE_MAGIC, TRACE_VERSION, fnv1a64(&bad));
            w.bytes(&bad);
            let mut sealed = w.into_bytes();
            sealed.extend_from_slice(&short[body..]);
            mutants.push(sealed);
        }
        mutations += mutants.len();
        let inputs: Vec<&[u8]> = mutants.iter().map(Vec::as_slice).collect();
        assert!(refusals(name, &inputs, Trace::decode) > 0);

        let mut cuts = truncations(&short, 200, &mut rng);
        cuts.extend((full.len() - 8..full.len()).map(|cut| &full[..cut]));
        assert_eq!(
            refusals(name, &cuts, Trace::decode),
            cuts.len(),
            "{name}: a truncated trace decoded"
        );
    }
    assert!(mutations >= 1_000, "only {mutations} mutations");
}
