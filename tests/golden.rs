//! Golden figure tables: the `gmmu` binary's `--quick` output must equal
//! the committed fixtures byte for byte. `gmmu all` is checked under both
//! drive loops, and every other figure run alone must print a contiguous
//! slice of it, so batching points across figures changes no table. The
//! default-scale fixture takes too long for a test run; CI's
//! `golden-default` job diffs it.

use gmmu::figures::REGISTRY;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const ALL_QUICK: &str = include_str!("fixtures/all_figures_quick.txt");
const ABLATIONS_QUICK: &str = include_str!("fixtures/ablations_quick.txt");

/// The per-cycle referee's switch, read by `ExperimentOpts::gpu`.
const TICK_EVERY_CYCLE: &str = "GMMU_TICK_EVERY_CYCLE";

/// Runs `gmmu ARGS --quick` and returns its stdout. The child runs in a
/// fresh scratch directory, because `gmmu all` writes
/// `BENCH_all_figures.json` into its working directory, and it ticks
/// every cycle only when `tick_every_cycle` is set: the switch is set
/// or cleared on the child, never on this process.
fn gmmu_quick(args: &[&str], tick_every_cycle: bool) -> String {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gmmu-golden-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gmmu"));
    cmd.args(args).arg("--quick").current_dir(&dir);
    if tick_every_cycle {
        cmd.env(TICK_EVERY_CYCLE, "1");
    } else {
        cmd.env_remove(TICK_EVERY_CYCLE);
    }
    let out = cmd.output().expect("spawn gmmu");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "gmmu {args:?} --quick exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

/// Panics with the first differing line (1-based) and both versions of
/// it unless `actual` equals `expected`.
fn assert_tables_eq(what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        if w != g || w.is_none() {
            panic!("{what}: first difference at line {line}\n  fixture: {w:?}\n  output:  {g:?}");
        }
    }
}

#[test]
fn all_quick_matches_the_golden_tables() {
    let out = gmmu_quick(&["all"], false);
    assert_tables_eq("gmmu all --quick", ALL_QUICK, &out);
}

#[test]
fn all_quick_per_cycle_matches_the_golden_tables() {
    let out = gmmu_quick(&["all"], true);
    assert_tables_eq("gmmu all --quick (per-cycle loop)", ALL_QUICK, &out);
}

#[test]
fn ablations_quick_match_the_golden_tables() {
    let out = gmmu_quick(&["fig", "ablations"], false);
    assert_tables_eq("gmmu fig ablations --quick", ABLATIONS_QUICK, &out);
}

/// A figure run alone prints exactly the tables `gmmu all` prints for
/// it. On a mismatch the output is compared against the fixture from
/// the first occurrence of its first line.
#[test]
fn each_figure_alone_prints_a_slice_of_the_golden_tables() {
    for figure in REGISTRY.iter().filter(|f| f.name != "ablations") {
        let what = format!("gmmu fig {} --quick", figure.name);
        let out = gmmu_quick(&["fig", figure.name], false);
        assert!(!out.is_empty(), "{what} printed nothing");
        if ALL_QUICK.contains(&out) {
            continue;
        }
        let first = out.lines().next().unwrap_or_default();
        let start = ALL_QUICK.find(first).unwrap_or(0);
        let expected: String = ALL_QUICK[start..]
            .split_inclusive('\n')
            .take(out.split_inclusive('\n').count())
            .collect();
        assert_tables_eq(&what, &expected, &out);
    }
}
