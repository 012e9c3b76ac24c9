//! Cross-crate integration tests: full-system runs at smoke scale with
//! the invariants the paper's conclusions rest on.

use gmmu::experiments::{designs, ExperimentOpts, Runner};
use gmmu::prelude::*;

fn quick() -> Runner {
    Runner::new(ExperimentOpts::quick())
}

/// The drive loop is presentation, not machine: every figure invariant
/// holds under `GMMU_TICK_EVERY_CYCLE` because the per-cycle referee
/// reproduces the idle-skipping loop bit for bit — checked here across
/// every workload, the naive and augmented MMUs, and the TBC / TA-CCWS
/// features.
#[test]
fn per_cycle_loop_reproduces_skip_results_end_to_end() {
    let mut r = quick();
    for b in Bench::all() {
        for (name, model) in [
            ("naive3", designs::naive3()),
            ("augmented", designs::augmented()),
        ] {
            let s = r.run(b, |c| c.mmu = model);
            let t = r.run(b, |c| {
                c.mmu = model;
                c.tick_every_cycle = true;
            });
            let diff = s.diff(&t);
            assert!(
                diff.is_empty(),
                "{b}/{name}: per-cycle loop diverged from skip in {diff:?}"
            );
        }
    }
    type Configure = fn(&mut GpuConfig);
    let features: [(&str, Configure); 2] = [
        ("ta-ccws", |c| {
            c.mmu = designs::augmented();
            c.policy = PolicyKind::TaCcws { tlb_weight: 4 };
        }),
        ("tbc", |c| {
            c.mmu = designs::augmented();
            c.tbc = Some(TbcConfig::tlb_aware(3));
        }),
    ];
    for (name, configure) in features {
        let s = r.run(Bench::Mummergpu, configure);
        let t = r.run(Bench::Mummergpu, |c| {
            configure(c);
            c.tick_every_cycle = true;
        });
        let diff = s.diff(&t);
        assert!(
            diff.is_empty(),
            "mummergpu/{name}: per-cycle loop diverged from skip in {diff:?}"
        );
    }
}

#[test]
fn naive_tlbs_degrade_every_benchmark() {
    let mut r = quick();
    for b in Bench::all() {
        let sp = r.speedup(b, |c| c.mmu = designs::naive3());
        assert!(sp < 1.0, "{b}: naive TLBs should degrade, got {sp:.3}");
        assert!(
            sp > 0.02,
            "{b}: naive TLBs should not deadlock, got {sp:.3}"
        );
    }
}

#[test]
fn augmentation_ladder_is_monotone_enough() {
    // Each augmentation step should help (small tolerance for
    // scheduling noise), and the full design must approach the ideal.
    let mut r = quick();
    for b in [Bench::Bfs, Bench::Memcached, Bench::Mummergpu] {
        let naive = r.speedup(b, |c| c.mmu = designs::naive4());
        let hum = r.speedup(b, |c| c.mmu = designs::hum());
        let aug = r.speedup(b, |c| c.mmu = designs::augmented());
        let ideal_tlb = r.speedup(b, |c| c.mmu = designs::ideal_tlb());
        assert!(
            hum >= naive * 0.98,
            "{b}: hit-under-miss regressed ({hum} vs {naive})"
        );
        assert!(
            aug >= hum * 0.98,
            "{b}: PTW scheduling regressed ({aug} vs {hum})"
        );
        assert!(aug > 0.75, "{b}: augmented design too slow ({aug})");
        assert!(
            (aug - ideal_tlb).abs() < 0.15,
            "{b}: augmented should approach the impractical ideal ({aug} vs {ideal_tlb})"
        );
    }
}

#[test]
fn augmented_single_walker_beats_eight_naive_walkers() {
    // Figure 11's headline.
    let mut r = quick();
    for b in [Bench::Bfs, Bench::Mummergpu] {
        let aug = r.speedup(b, |c| c.mmu = designs::augmented());
        let eight = r.speedup(b, |c| c.mmu = designs::naive_multi_ptw(8));
        assert!(
            aug > eight,
            "{b}: augmented 1-PTW {aug:.3} should beat 8 naive PTWs {eight:.3}"
        );
    }
}

#[test]
fn more_walkers_help_naive_designs() {
    let mut r = quick();
    let one = r.speedup(Bench::Mummergpu, |c| c.mmu = designs::naive_multi_ptw(1));
    let eight = r.speedup(Bench::Mummergpu, |c| c.mmu = designs::naive_multi_ptw(8));
    assert!(eight > one, "8 walkers {eight:.3} !> 1 walker {one:.3}");
}

#[test]
fn mmu_models_never_change_the_work() {
    let mut r = quick();
    for b in Bench::all() {
        let base = r.baseline(b);
        for model in [designs::naive3(), designs::hum(), designs::augmented()] {
            let s = r.run(b, |c| c.mmu = model);
            assert!(s.completed, "{b} hit the cycle cap");
            assert_eq!(
                s.mem_instructions, base.mem_instructions,
                "{b}: the MMU changed committed memory instructions"
            );
            assert_eq!(s.blocks_done, base.blocks_done, "{b}: lost blocks");
        }
    }
}

#[test]
fn tlb_miss_penalty_exceeds_l1_miss_penalty() {
    // Figure 4's shape: a TLB miss costs more than an L1 miss (about
    // 2× in the paper).
    // The streaming benchmarks' L1 misses queue behind saturated DRAM
    // while their rare walks ride the priority path, so the published
    // ratio holds for the translation-stressed benchmarks.
    let mut r = quick();
    for b in [Bench::Bfs, Bench::Mummergpu, Bench::Memcached] {
        let s = r.run(b, |c| c.mmu = designs::naive3());
        if s.tlb_miss_latency.count() < 50 {
            continue; // not enough misses to compare at smoke scale
        }
        assert!(
            s.tlb_miss_latency.mean() > s.l1_miss_latency.mean() * 0.8,
            "{b}: TLB miss {:.0} vs L1 miss {:.0}",
            s.tlb_miss_latency.mean(),
            s.l1_miss_latency.mean()
        );
    }
}

#[test]
fn page_divergence_figure3_shape() {
    let mut r = quick();
    let bfs = r.run(Bench::Bfs, |c| c.mmu = designs::naive3());
    let mummer = r.run(Bench::Mummergpu, |c| c.mmu = designs::naive3());
    let kmeans = r.run(Bench::Kmeans, |c| c.mmu = designs::naive3());
    assert!(mummer.page_divergence.mean() > bfs.page_divergence.mean());
    assert!(bfs.page_divergence.mean() > kmeans.page_divergence.mean());
    assert!(kmeans.page_divergence.mean() < 1.5);
    assert!(mummer.page_divergence.max() >= 16);
    for s in [&bfs, &mummer, &kmeans] {
        assert!(s.mem_insn_fraction() < 0.30, "mem fraction out of band");
    }
}

#[test]
fn tbc_interacts_with_translation_as_published() {
    let mut r = quick();
    for b in [Bench::Bfs, Bench::Mummergpu] {
        let tbc = r.run(b, |c| {
            c.tbc = Some(TbcConfig::baseline());
            c.mmu = designs::augmented();
        });
        let aware = r.run(b, |c| {
            c.tbc = Some(TbcConfig::tlb_aware(3));
            c.mmu = designs::augmented();
        });
        let plain = r.run(b, |c| c.mmu = designs::augmented());
        // TBC raises page divergence; the CPM pulls it back down.
        assert!(
            tbc.page_divergence.mean() > plain.page_divergence.mean(),
            "{b}: TBC should raise divergence"
        );
        assert!(
            aware.page_divergence.mean() < tbc.page_divergence.mean(),
            "{b}: TLB-aware TBC should reduce divergence"
        );
        // The CPM constraint can only split compaction groups.
        assert!(aware.dwarps_formed >= tbc.dwarps_formed);
    }
}

#[test]
fn large_pages_collapse_divergence_for_coalesced_kernels() {
    let mut r = quick();
    for b in [Bench::Kmeans, Bench::Pathfinder] {
        let small = r.run(b, |c| c.mmu = designs::naive4());
        let large = r.run_paged(b, PageSize::Large2M, |c| c.mmu = designs::naive4());
        assert!(large.page_divergence.mean() <= small.page_divergence.mean());
        assert!(
            large.page_divergence.mean() < 1.2,
            "{b} still diverges at 2MB"
        );
        assert!(large.tlb_miss_rate() < small.tlb_miss_rate());
    }
    // The far-flung pair keeps residual divergence even at 2 MB
    // (Section 9's observation).
    let mummer = r.run_paged(Bench::Mummergpu, PageSize::Large2M, |c| {
        c.mmu = designs::naive4()
    });
    assert!(
        mummer.page_divergence.mean() > 1.5,
        "mummergpu should keep 2MB divergence, got {:.2}",
        mummer.page_divergence.mean()
    );
}
