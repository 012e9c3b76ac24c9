//! Correctness of the simulated results: a digest of every point's
//! `RunStats`, compared with the digests kept for [`DEFAULT_SEED`], and
//! invariants that hold for any seed.

use crate::plan::{Mix, DEFAULT_SEED};
use gmmu_sim::rng::fnv1a64;
use gmmu_simt::{RunStats, StallCause};

/// `<workload> <point> <digest>` lines for [`DEFAULT_SEED`].
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// FNV-1a over every field `RunStats::diff` compares (all but the host
/// wall time), read through public accessors, plus the per-tenant slice.
pub fn digest(s: &RunStats) -> u64 {
    let mut b: Vec<u8> = Vec::with_capacity(1024);
    let mut u = |v: u64| b.extend_from_slice(&v.to_le_bytes());
    u(s.cycles);
    u(s.completed as u64);
    u(s.instructions);
    u(s.mem_instructions);
    u(s.idle_cycles);
    for cause in StallCause::ALL {
        u(s.stall_breakdown.get(cause));
    }
    u(s.live_cycles);
    let h = &s.page_divergence;
    u(h.count());
    u(h.sum());
    u(h.max());
    for v in 0..=h.max().min(64) as usize {
        u(h.bucket(v));
    }
    for m in [&s.l1_miss_latency, &s.tlb_miss_latency] {
        u(m.count());
        u(m.sum());
        u(m.min());
        u(m.max());
        u(m.stddev().to_bits());
    }
    u(s.tlb_accesses);
    u(s.tlb_hits);
    u(s.l1_accesses);
    u(s.l1_hits);
    u(s.walk_refs_issued);
    u(s.walk_refs_naive);
    u(s.walks);
    u(s.walk_l2_hit_rate.to_bits());
    u(s.dram_requests);
    u(s.replays);
    u(s.dwarps_formed);
    u(s.blocks_done);
    u(s.faults);
    u(s.shootdowns);
    u(s.squashed_walks);
    u(s.watchdog_fired as u64);
    u(s.tenants.len() as u64);
    for t in &s.tenants {
        u(u64::from(t.asid));
        u(t.instructions);
        u(t.blocks_done);
        u(t.finished_at);
        u(t.faults);
    }
    fnv1a64(&b)
}

/// Why a result is wrong for any seed, or `None` when it is sound: the
/// run completed without the watchdog, its stall breakdown accounts for
/// every idle cycle, and no tenant had more pages mapped than faults
/// were raised.
pub fn invariant_failure(s: &RunStats) -> Option<&'static str> {
    if s.watchdog_fired {
        Some("the forward-progress watchdog fired")
    } else if !s.completed {
        Some("the run hit its cycle cap")
    } else if s.stall_breakdown.total() != s.idle_cycles {
        Some("the stall breakdown does not sum to idle_cycles")
    } else if s.tenants.iter().map(|t| t.faults).sum::<u64>() > s.faults {
        Some("tenants had more faults mapped than were raised")
    } else {
        None
    }
}

/// The digest kept for `point` of `mix` at [`DEFAULT_SEED`].
pub fn expected_digest(mix: Mix, point: &str) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (m, p, d) = (f.next()?, f.next()?, f.next()?);
        (m == mix.name() && p == point)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks results as they arrive and counts the points that failed.
#[derive(Debug)]
pub struct Checker {
    mix: Mix,
    seed: u64,
    /// First digest seen per point: later passes must repeat it.
    seen: Vec<Option<u64>>,
    /// Points checked.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
}

impl Checker {
    /// A checker for `points` point labels of `mix` at `seed`.
    pub fn new(mix: Mix, seed: u64, points: usize) -> Self {
        Self {
            mix,
            seed,
            seen: vec![None; points],
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks point `i` (named `label`); reports a failure on stderr.
    pub fn check(&mut self, i: usize, label: &str, s: &RunStats) {
        self.attempted += 1;
        let d = digest(s);
        let problem = if let Some(why) = invariant_failure(s) {
            Some(why.to_string())
        } else if self.seen[i].is_some_and(|first| first != d) {
            Some(format!("digest {d:016x} differs from an earlier pass"))
        } else if self.seed == DEFAULT_SEED {
            match expected_digest(self.mix, label) {
                Some(want) if want == d => None,
                Some(want) => Some(format!("digest {d:016x}, expected {want:016x}")),
                None => Some(format!("no expected digest kept (got {d:016x})")),
            }
        } else {
            None
        };
        self.seen[i].get_or_insert(d);
        if let Some(why) = problem {
            self.failed += 1;
            eprintln!("FAILED {} {label}: {why}", self.mix.name());
        }
    }
}
