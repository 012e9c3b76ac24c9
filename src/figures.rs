//! One function per figure of the paper's evaluation.
//!
//! Each function reruns the figure's design points through a [`Runner`]
//! and returns the same rows/series the paper plots, as printable
//! tables. [`REGISTRY`] lists them in paper order under the names
//! `gmmu fig NAME` takes; `gmmu all` runs all but the ablations.
//! `EXPERIMENTS.md` records paper-reported vs. measured values.
//!
//! All speedups are normalized to the same machine with an ideal
//! (no-TLB) MMU and plain round-robin scheduling, exactly as the paper
//! normalizes its bars.
//!
//! Figure functions must stay *pure table builders*: ask the runner for
//! design points, turn the stats into rows, no other side effects, and
//! no choosing design points based on earlier results. The harnesses
//! execute them through [`Runner::sweep`], which calls a figure
//! function twice — once to record its design points (against
//! placeholder stats) so they can run on a worker pool, and once to
//! build the real tables from the memoized results.

use crate::experiments::{designs, mmu, tlb, Build, Input, PointSpec, Runner};
use crate::prelude::*;
use gmmu_sim::table::Table;

fn bench_cell(b: Bench) -> gmmu_sim::table::Cell {
    b.name().into()
}

/// Figure 2: naive 3-ported TLBs, alone and under CCWS / TBC, all vs.
/// the no-TLB baseline.
pub fn fig02(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 2 — speedup of naive 3-port TLBs, with/without CCWS and TBC (vs no-TLB baseline)",
        &[
            "bench",
            "naive TLB",
            "CCWS (no TLB)",
            "CCWS + naive TLB",
            "TBC (no TLB)",
            "TBC + naive TLB",
        ],
    );
    for b in Bench::all() {
        let naive = r.speedup(b, |c| c.mmu = designs::naive3());
        let ccws = r.speedup(b, |c| c.policy = PolicyKind::Ccws);
        let ccws_tlb = r.speedup(b, |c| {
            c.policy = PolicyKind::Ccws;
            c.mmu = designs::naive3();
        });
        let tbc = r.speedup(b, |c| c.tbc = Some(TbcConfig::baseline()));
        let tbc_tlb = r.speedup(b, |c| {
            c.tbc = Some(TbcConfig::baseline());
            c.mmu = designs::naive3();
        });
        t.row(vec![
            bench_cell(b),
            naive.into(),
            ccws.into(),
            ccws_tlb.into(),
            tbc.into(),
            tbc_tlb.into(),
        ]);
    }
    vec![t]
}

/// Figure 3: memory-instruction share and 128-entry TLB miss rates
/// (left); average and maximum warp page divergence (right).
pub fn fig03(r: &mut Runner) -> Vec<Table> {
    let mut left = Table::new(
        "Figure 3 (left) — memory instructions and TLB miss rate",
        &["bench", "mem insn %", "TLB miss %"],
    );
    let mut right = Table::new(
        "Figure 3 (right) — page divergence per warp memory instruction \
         (headline distribution statistics)",
        &["bench", "count", "mean", "p50", "p90", "p99", "max"],
    );
    for b in Bench::all() {
        let s = r.run(b, |c| c.mmu = designs::naive3());
        left.row(vec![
            bench_cell(b),
            (100.0 * s.mem_insn_fraction()).into(),
            (100.0 * s.tlb_miss_rate()).into(),
        ]);
        let d = s.page_divergence.summary();
        right.row(vec![
            bench_cell(b),
            d.count.into(),
            d.mean.into(),
            d.p50.into(),
            d.p90.into(),
            d.p99.into(),
            d.max.into(),
        ]);
    }
    vec![left, right]
}

/// Figure 4: average cycles per TLB miss vs per L1 miss (naive MMU).
pub fn fig04(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 4 — average cycles per TLB miss vs per L1 cache miss",
        &["bench", "L1 miss cycles", "TLB miss cycles", "ratio"],
    );
    for b in Bench::all() {
        let s = r.run(b, |c| c.mmu = designs::naive3());
        let l1 = s.l1_miss_latency.mean();
        let tlb_lat = s.tlb_miss_latency.mean();
        t.row(vec![
            bench_cell(b),
            l1.into(),
            tlb_lat.into(),
            (tlb_lat / l1.max(1.0)).into(),
        ]);
    }
    vec![t]
}

/// Figure 6: TLB size × port count, first with fixed (free) access
/// times, then with CACTI-style access latencies.
pub fn fig06(r: &mut Runner) -> Vec<Table> {
    let sizes = [64usize, 128, 256, 512];
    let ports = [3usize, 4, 8, 32];
    let mut fixed = Table::new(
        "Figure 6 — blocking TLB size × ports, fixed access time (speedup vs no TLB)",
        &["bench", "size", "3 ports", "4 ports", "8 ports", "32 ports"],
    );
    for b in Bench::all() {
        for &size in &sizes {
            let mut row = vec![bench_cell(b), (size as u64).into()];
            for &p in &ports {
                let sp = r.speedup(b, |c| {
                    let mut t = tlb(size, p, TlbMode::Blocking);
                    t.ideal_latency = true;
                    c.mmu = mmu(t, WalkerConfig::serial());
                });
                row.push(sp.into());
            }
            fixed.row(row);
        }
    }
    let mut real = Table::new(
        "Figure 6 (note) — same sizes at 4 ports with real access latencies",
        &["bench", "64", "128", "256", "512"],
    );
    for b in Bench::all() {
        let mut row = vec![bench_cell(b)];
        for &size in &sizes {
            let sp = r.speedup(b, |c| {
                c.mmu = mmu(tlb(size, 4, TlbMode::Blocking), WalkerConfig::serial());
            });
            row.push(sp.into());
        }
        real.row(row);
    }
    vec![fixed, real]
}

/// Figure 7: non-blocking support on a 128-entry 4-port TLB vs the
/// impractical ideal TLB.
pub fn fig07(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 7 — non-blocking TLB support (speedup vs no TLB)",
        &[
            "bench",
            "blocking",
            "+hits under miss",
            "+cache overlap",
            "ideal 512e/32p",
        ],
    );
    for b in Bench::all() {
        t.row(vec![
            bench_cell(b),
            r.speedup(b, |c| c.mmu = designs::naive4()).into(),
            r.speedup(b, |c| c.mmu = designs::hum()).into(),
            r.speedup(b, |c| c.mmu = designs::overlap()).into(),
            r.speedup(b, |c| c.mmu = designs::ideal_tlb()).into(),
        ]);
    }
    vec![t]
}

/// Figures 8/9: the worked page-walk example — three concurrent walks
/// whose 12 serial PTE loads the coalescing scheduler reduces to 7.
pub fn fig09() -> Vec<Table> {
    use gmmu_core::walker::{Walker, WalkerConfig};
    use gmmu_mem::{MemConfig, MemorySystem};
    use gmmu_vm::{AddressSpace, SpaceConfig, Vpn};

    let mut space = AddressSpace::new(SpaceConfig::default());
    let region = space
        .map_region("fig8", 8 << 20, PageSize::Base4K)
        .expect("map");
    let base = region.base.vpn().raw();
    // The paper's three pages: two sharing a PT cache line, one in a
    // sibling page table.
    let pages = [
        Vpn::new(base + 3),
        Vpn::new(base + 4),
        Vpn::new(base + 512 + 5),
    ];
    let mut t = Table::new(
        "Figures 8/9 — PTE loads for three concurrent walks",
        &["walker", "loads issued", "loads naive", "finish cycle"],
    );
    for (name, cfg) in [
        ("serial", WalkerConfig::serial()),
        ("coalesced", WalkerConfig::coalesced()),
    ] {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut w = Walker::new(cfg);
        for p in pages {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < 3 {
            w.advance(now, &mut mem, &space, &mut done);
            now += 1;
        }
        let finish = done.iter().map(|d| d.complete).max().unwrap_or(0);
        t.row(vec![
            name.into(),
            w.stats.refs_issued.get().into(),
            w.stats.refs_naive.get().into(),
            finish.into(),
        ]);
    }
    vec![t]
}

/// Figure 10: adding PTW scheduling approaches the ideal TLB; plus the
/// in-text statistics (references eliminated, walk L2 hit rate, idle
/// cycles).
pub fn fig10(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10 — non-blocking + PTW scheduling (speedup vs no TLB)",
        &[
            "bench",
            "blocking",
            "+non-blocking",
            "+PTW sched",
            "ideal 512e/32p",
        ],
    );
    let mut stats = Table::new(
        "Figure 10 (text) — PTW scheduling internals",
        &[
            "bench",
            "refs eliminated %",
            "walk L2 hit % (serial)",
            "walk L2 hit % (sched)",
            "idle % (naive)",
            "idle % (sched)",
        ],
    );
    for b in Bench::all() {
        let naive = r.run(b, |c| c.mmu = designs::naive4());
        let over = r.run(b, |c| c.mmu = designs::overlap());
        let sched = r.run(b, |c| c.mmu = designs::augmented());
        let ideal = r.run(b, |c| c.mmu = designs::ideal_tlb());
        let base = r.baseline(b);
        t.row(vec![
            bench_cell(b),
            naive.speedup_vs(&base).into(),
            over.speedup_vs(&base).into(),
            sched.speedup_vs(&base).into(),
            ideal.speedup_vs(&base).into(),
        ]);
        stats.row(vec![
            bench_cell(b),
            (100.0 * sched.walk_refs_eliminated()).into(),
            (100.0 * over.walk_l2_hit_rate).into(),
            (100.0 * sched.walk_l2_hit_rate).into(),
            (100.0 * naive.idle_fraction()).into(),
            (100.0 * sched.idle_fraction()).into(),
        ]);
    }
    vec![t, stats]
}

/// Figure 10 companion: *where* the idle cycles of Figure 10's naive
/// and scheduled design points go, split by dominant stall cause. Each
/// cause column is its share of the row's idle cycles; the breakdown
/// sums exactly to `idle_cycles` by construction.
pub fn fig10_stalls(r: &mut Runner) -> Vec<Table> {
    let mut headers: Vec<&str> = vec!["bench", "design", "idle %"];
    headers.extend(StallCause::ALL.iter().map(|c| c.label()));
    let mut t = Table::new(
        "Figure 10 (companion) — idle-cycle attribution (cause columns: % of idle)",
        &headers,
    );
    for b in Bench::all() {
        for (name, model) in [
            ("naive", designs::naive4()),
            ("+PTW sched", designs::augmented()),
        ] {
            let s = r.run(b, |c| c.mmu = model);
            let mut row = vec![
                bench_cell(b),
                name.into(),
                (100.0 * s.idle_fraction()).into(),
            ];
            for cause in StallCause::ALL {
                row.push(s.stall_breakdown.share_pct(cause).into());
            }
            t.row(row);
        }
    }
    vec![t]
}

/// Figure 11: one augmented walker vs many naive serial walkers.
pub fn fig11(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 11 — augmented 1 PTW vs naive multi-PTW (speedup vs no TLB)",
        &[
            "bench",
            "augmented 1 PTW",
            "1 PTW",
            "2 PTW",
            "4 PTW",
            "8 PTW",
        ],
    );
    for b in Bench::all() {
        let mut row = vec![
            bench_cell(b),
            r.speedup(b, |c| c.mmu = designs::augmented()).into(),
        ];
        for n in [1usize, 2, 4, 8] {
            row.push(r.speedup(b, |c| c.mmu = designs::naive_multi_ptw(n)).into());
        }
        t.row(row);
    }
    vec![t]
}

/// Figure 13: CCWS with and without TLBs.
pub fn fig13(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 13 — CCWS × MMU design (speedup vs no TLB)",
        &[
            "bench",
            "naive TLB",
            "augmented TLB",
            "CCWS (no TLB)",
            "CCWS + naive",
            "CCWS + augmented",
        ],
    );
    for b in Bench::all() {
        t.row(vec![
            bench_cell(b),
            r.speedup(b, |c| c.mmu = designs::naive4()).into(),
            r.speedup(b, |c| c.mmu = designs::augmented()).into(),
            r.speedup(b, |c| c.policy = PolicyKind::Ccws).into(),
            r.speedup(b, |c| {
                c.policy = PolicyKind::Ccws;
                c.mmu = designs::naive4();
            })
            .into(),
            r.speedup(b, |c| {
                c.policy = PolicyKind::Ccws;
                c.mmu = designs::augmented();
            })
            .into(),
        ]);
    }
    vec![t]
}

/// Figure 16: TA-CCWS weight sweep (TLB miss weighted x:1 vs cache
/// miss), on the augmented MMU.
pub fn fig16(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 16 — TA-CCWS TLB-miss weights (speedup vs no TLB)",
        &[
            "bench",
            "CCWS (no TLB)",
            "CCWS + aug",
            "TA-CCWS 1:1",
            "TA-CCWS 2:1",
            "TA-CCWS 4:1",
            "TA-CCWS 8:1",
        ],
    );
    for b in Bench::all() {
        let mut row = vec![
            bench_cell(b),
            r.speedup(b, |c| c.policy = PolicyKind::Ccws).into(),
            r.speedup(b, |c| {
                c.policy = PolicyKind::Ccws;
                c.mmu = designs::augmented();
            })
            .into(),
        ];
        for w in [1u32, 2, 4, 8] {
            row.push(
                r.speedup(b, |c| {
                    c.policy = PolicyKind::TaCcws { tlb_weight: w };
                    c.mmu = designs::augmented();
                })
                .into(),
            );
        }
        t.row(row);
    }
    vec![t]
}

/// Figure 17: TCWS victim-tag-array entries-per-warp sweep (no LRU
/// depth weighting), on the augmented MMU.
pub fn fig17(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 17 — TCWS entries per warp (speedup vs no TLB)",
        &[
            "bench",
            "CCWS (no TLB)",
            "TA-CCWS 4:1",
            "TCWS 2 EPW",
            "TCWS 4 EPW",
            "TCWS 8 EPW",
            "TCWS 16 EPW",
        ],
    );
    for b in Bench::all() {
        let mut row = vec![
            bench_cell(b),
            r.speedup(b, |c| c.policy = PolicyKind::Ccws).into(),
            r.speedup(b, |c| {
                c.policy = PolicyKind::TaCcws { tlb_weight: 4 };
                c.mmu = designs::augmented();
            })
            .into(),
        ];
        for epw in [2usize, 4, 8, 16] {
            row.push(
                r.speedup(b, |c| {
                    c.policy = PolicyKind::Tcws {
                        entries_per_warp: epw,
                        lru_weights: [0, 0, 0, 0],
                    };
                    c.mmu = designs::augmented();
                })
                .into(),
            );
        }
        t.row(row);
    }
    vec![t]
}

/// Figure 18: TCWS with LRU-depth score weights, on the augmented MMU.
pub fn fig18(r: &mut Runner) -> Vec<Table> {
    let weight_sets: [(&str, [u32; 4]); 3] = [
        ("LRU(1,2,3,4)", [1, 2, 3, 4]),
        ("LRU(1,2,4,8)", [1, 2, 4, 8]),
        ("LRU(1,3,6,9)", [1, 3, 6, 9]),
    ];
    let mut t = Table::new(
        "Figure 18 — TCWS LRU-depth weighting (speedup vs no TLB)",
        &[
            "bench",
            "CCWS (no TLB)",
            "LRU(1,2,3,4)",
            "LRU(1,2,4,8)",
            "LRU(1,3,6,9)",
        ],
    );
    for b in Bench::all() {
        let mut row = vec![
            bench_cell(b),
            r.speedup(b, |c| c.policy = PolicyKind::Ccws).into(),
        ];
        for (_, w) in weight_sets {
            row.push(
                r.speedup(b, |c| {
                    c.policy = PolicyKind::Tcws {
                        entries_per_warp: 8,
                        lru_weights: w,
                    };
                    c.mmu = designs::augmented();
                })
                .into(),
            );
        }
        t.row(row);
    }
    vec![t]
}

/// Figure 20: TBC with and without TLBs.
pub fn fig20(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 20 — TBC × MMU design (speedup vs no TLB)",
        &[
            "bench",
            "naive TLB",
            "augmented TLB",
            "TBC (no TLB)",
            "TBC + naive",
            "TBC + augmented",
        ],
    );
    for b in Bench::all() {
        t.row(vec![
            bench_cell(b),
            r.speedup(b, |c| c.mmu = designs::naive4()).into(),
            r.speedup(b, |c| c.mmu = designs::augmented()).into(),
            r.speedup(b, |c| c.tbc = Some(TbcConfig::baseline())).into(),
            r.speedup(b, |c| {
                c.tbc = Some(TbcConfig::baseline());
                c.mmu = designs::naive4();
            })
            .into(),
            r.speedup(b, |c| {
                c.tbc = Some(TbcConfig::baseline());
                c.mmu = designs::augmented();
            })
            .into(),
        ]);
    }
    vec![t]
}

/// Figure 22: TLB-aware TBC with 1/2/3-bit CPM counters, plus the page
/// divergence it removes.
pub fn fig22(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 22 — TLB-aware TBC CPM counter width (speedup vs no TLB)",
        &[
            "bench",
            "TBC (no TLB)",
            "TBC + naive",
            "TLB-TBC 3-bit + naive",
            "TBC + aug",
            "TLB-TBC 1-bit",
            "TLB-TBC 2-bit",
            "TLB-TBC 3-bit",
        ],
    );
    let mut div = Table::new(
        "Figure 22 (divergence) — average page divergence under TBC",
        &["bench", "no TBC", "TBC", "TLB-aware TBC (3-bit)"],
    );
    for b in Bench::all() {
        let plain = r.run(b, |c| c.mmu = designs::augmented());
        let tbc = r.run(b, |c| {
            c.tbc = Some(TbcConfig::baseline());
            c.mmu = designs::augmented();
        });
        let base = r.baseline(b);
        let mut row = vec![
            bench_cell(b),
            r.speedup(b, |c| c.tbc = Some(TbcConfig::baseline())).into(),
            r.speedup(b, |c| {
                c.tbc = Some(TbcConfig::baseline());
                c.mmu = designs::naive4();
            })
            .into(),
            r.speedup(b, |c| {
                c.tbc = Some(TbcConfig::tlb_aware(3));
                c.mmu = designs::naive4();
            })
            .into(),
            tbc.speedup_vs(&base).into(),
        ];
        let mut aware3 = None;
        for bits in [1u8, 2, 3] {
            let s = r.run(b, |c| {
                c.tbc = Some(TbcConfig::tlb_aware(bits));
                c.mmu = designs::augmented();
            });
            row.push(s.speedup_vs(&base).into());
            if bits == 3 {
                aware3 = Some(s);
            }
        }
        t.row(row);
        div.row(vec![
            bench_cell(b),
            plain.page_divergence.mean().into(),
            tbc.page_divergence.mean().into(),
            aware3.expect("ran 3-bit").page_divergence.mean().into(),
        ]);
    }
    vec![t, div]
}

/// Section 9: 2 MB pages — page divergence mostly collapses, but the
/// far-flung benchmarks keep residual divergence.
pub fn sec9(r: &mut Runner) -> Vec<Table> {
    let mut t = Table::new(
        "Section 9 — 4 KB vs 2 MB pages (naive MMU)",
        &[
            "bench",
            "div avg 4K",
            "div max 4K",
            "div avg 2M",
            "div max 2M",
            "miss % 4K",
            "miss % 2M",
        ],
    );
    for b in Bench::all() {
        let small = r.run(b, |c| c.mmu = designs::naive4());
        let large = r.run_paged(b, PageSize::Large2M, |c| c.mmu = designs::naive4());
        t.row(vec![
            bench_cell(b),
            small.page_divergence.mean().into(),
            small.page_divergence.max().into(),
            large.page_divergence.mean().into(),
            large.page_divergence.max().into(),
            (100.0 * small.tlb_miss_rate()).into(),
            (100.0 * large.tlb_miss_rate()).into(),
        ]);
    }
    vec![t]
}

/// Section 5.2: the methodology configuration, as a table.
pub fn table_config(opts: crate::ExperimentOpts) -> Vec<Table> {
    let cfg = opts.gpu(MmuModel::Ideal);
    let mut t = Table::new(
        "Section 5.2 — machine configuration (paper value / this run)",
        &["parameter", "paper", "this run"],
    );
    let rows: [(&str, String, String); 8] = [
        ("SIMT cores", "30".into(), cfg.n_cores.to_string()),
        (
            "warps per core",
            "48".into(),
            cfg.warps_per_core.to_string(),
        ),
        ("warp size", "32".into(), "32".into()),
        (
            "L1 data cache",
            "32KB, 128B lines, LRU".into(),
            format!("{}KB, 128B lines, LRU", cfg.l1.lines() * 128 / 1024),
        ),
        ("memory channels", "8".into(), cfg.mem.channels.to_string()),
        (
            "L2 per channel",
            "128KB".into(),
            format!("{}KB", cfg.mem.l2_slice.lines() * 128 / 1024),
        ),
        (
            "page size",
            "4KB (2MB in §9)".into(),
            format!("{}", cfg.granule),
        ),
        (
            "TLB (baseline)",
            "128-entry, 3-port, blocking".into(),
            "128-entry, 3-port, blocking".into(),
        ),
    ];
    for (k, p, v) in rows {
        t.row(vec![k.into(), p.into(), v.into()]);
    }
    vec![t]
}

/// Ablations beyond the paper's figures: design choices DESIGN.md calls
/// out, exercised on the translation-sensitive benchmarks.
pub fn ablations(r: &mut Runner) -> Vec<Table> {
    use gmmu_core::cpm::CpmConfig;
    let benches = [Bench::Bfs, Bench::Mummergpu, Bench::Memcached];

    // 1. Walker organization, isolated on a hit-under-miss TLB.
    let mut walkers = Table::new(
        "Ablation — walker organization on a 128e/4p hit-under-miss TLB (speedup vs no TLB)",
        &[
            "bench",
            "software (200cy trap)",
            "serial",
            "serial + PWC16",
            "coalesced",
            "coalesced + PWC16",
        ],
    );
    for b in benches {
        let with_walker = |r: &mut Runner, w: WalkerConfig| {
            r.speedup(b, |c| {
                c.mmu = mmu(tlb(128, 4, TlbMode::HitUnderMissOverlap), w)
            })
        };
        walkers.row(vec![
            bench_cell(b),
            with_walker(r, WalkerConfig::software(200)).into(),
            with_walker(r, WalkerConfig::serial()).into(),
            with_walker(r, WalkerConfig::serial().with_pwc(16)).into(),
            with_walker(r, WalkerConfig::coalesced()).into(),
            with_walker(r, WalkerConfig::coalesced().with_pwc(16)).into(),
        ]);
    }

    // 2. TLB associativity and MSHR depth on the augmented design.
    let mut geometry = Table::new(
        "Ablation — TLB associativity / MSHR depth on the augmented design",
        &[
            "bench", "2-way", "4-way", "8-way", "8 MSHRs", "16 MSHRs", "32 MSHRs",
        ],
    );
    for b in benches {
        let mut row = vec![bench_cell(b)];
        for ways in [2usize, 4, 8] {
            row.push(
                r.speedup(b, |c| {
                    c.mmu = mmu(
                        TlbConfig {
                            ways,
                            ..tlb(128, 4, TlbMode::HitUnderMissOverlap)
                        },
                        WalkerConfig::coalesced(),
                    )
                })
                .into(),
            );
        }
        for mshrs in [8usize, 16, 32] {
            row.push(
                r.speedup(b, |c| {
                    c.mmu = mmu(
                        TlbConfig {
                            mshrs,
                            ..tlb(128, 4, TlbMode::HitUnderMissOverlap)
                        },
                        WalkerConfig::coalesced(),
                    )
                })
                .into(),
            );
        }
        geometry.row(row);
    }

    // 3. CPM flush interval for TLB-aware TBC (the paper: "a flush
    // every 500 cycles suffices").
    let mut cpm = Table::new(
        "Ablation — CPM flush interval for TLB-aware TBC (naive MMU)",
        &["bench", "100 cy", "500 cy", "2000 cy", "never"],
    );
    for b in benches {
        let mut row = vec![bench_cell(b)];
        for flush in [100u64, 500, 2000, u64::MAX / 2] {
            row.push(
                r.speedup(b, |c| {
                    c.tbc = Some(TbcConfig {
                        tlb_aware: true,
                        cpm: CpmConfig {
                            counter_bits: 3,
                            flush_interval: flush,
                        },
                    });
                    c.mmu = designs::naive4();
                })
                .into(),
            );
        }
        cpm.row(row);
    }
    vec![walkers, geometry, cpm]
}

/// Multi-tenant robustness study (no paper counterpart; see DESIGN.md
/// §13): per-tenant slowdown and unfairness as co-runner count grows,
/// ASID-tagged translation vs the flush-on-switch baseline.
///
/// Each scenario's tenants run alone first (single-workload points on
/// their own builds, so a tenant shared by two scenarios runs once),
/// then together as co-run points under each policy. Asking for the solo
/// runs first makes the figure's first point, the one `--trace` or
/// `--capture-trace` observes, a single-workload run.
pub fn fig_multitenant(r: &mut Runner) -> Vec<Table> {
    use gmmu_simt::TenantPolicy;
    use gmmu_workloads::tenants::scenario;

    let opts = r.opts();
    let cfg = opts.gpu(designs::augmented());
    let mut t = Table::new(
        "Multi-tenant — slowdown vs co-runner count (augmented MMU, Zipf tenant mix \
         with thrasher; ASID-tagged vs flush-on-switch)",
        &[
            "tenants",
            "policy",
            "mix",
            "worst slowdown",
            "mean slowdown",
            "unfairness",
        ],
    );
    for n in [2usize, 4] {
        let sc = scenario(n, opts.scale, opts.seed, true);
        let builds: Vec<Build> = sc
            .tenants
            .iter()
            .map(|spec| Build {
                bench: spec.bench,
                scale: spec.scale,
                seed: spec.seed,
                pages: PageSize::Base4K,
            })
            .collect();
        let point = |input| PointSpec {
            input,
            cfg: cfg.clone(),
        };
        let solos: Vec<RunStats> = builds
            .iter()
            .map(|&b| r.point(point(Input::Workload(b))))
            .collect();
        for (name, policy) in [
            ("asid-tagged", TenantPolicy::default()),
            ("flush-on-switch", TenantPolicy::flush_on_switch()),
        ] {
            let stats = r.point(point(Input::Tenants(builds.clone(), policy)));
            let slow = stats.tenant_slowdowns(&solos);
            let worst = slow.iter().copied().fold(0.0f64, f64::max);
            let mean = if slow.is_empty() {
                0.0
            } else {
                slow.iter().sum::<f64>() / slow.len() as f64
            };
            t.row(vec![
                (n as u64).into(),
                name.into(),
                sc.describe().into(),
                worst.into(),
                mean.into(),
                stats.unfairness(&solos).into(),
            ]);
        }
    }
    vec![t]
}

/// One named entry of [`REGISTRY`].
pub struct Figure {
    /// Name `gmmu fig NAME` looks up.
    pub name: &'static str,
    /// The figure's tables, built from design points the [`Runner`]
    /// serves: `gmmu fig` sweeps them, `gmmu all` records them and runs
    /// the union of every entry's points as one batch.
    pub tables: fn(&mut Runner) -> Vec<Table>,
    /// Whether `gmmu all` prints this entry.
    pub in_all: bool,
}

const fn figure(name: &'static str, tables: fn(&mut Runner) -> Vec<Table>) -> Figure {
    Figure {
        name,
        tables,
        in_all: true,
    }
}

/// Every figure and table of the evaluation, in the order `gmmu all`
/// prints them, followed by the ablations (`gmmu fig ablations` only).
/// `table_config` and `fig09` simulate nothing.
pub const REGISTRY: &[Figure] = &[
    figure("table_config", |r| table_config(r.opts())),
    figure("fig09", |_| fig09()),
    figure("fig02", fig02),
    figure("fig03", fig03),
    figure("fig04", fig04),
    figure("fig06", fig06),
    figure("fig07", fig07),
    figure("fig10", |r| [fig10(r), fig10_stalls(r)].concat()),
    figure("fig11", fig11),
    figure("fig13", fig13),
    figure("fig16", fig16),
    figure("fig17", fig17),
    figure("fig18", fig18),
    figure("fig20", fig20),
    figure("fig22", fig22),
    figure("sec9", sec9),
    figure("multitenant", fig_multitenant),
    Figure {
        in_all: false,
        ..figure("ablations", ablations)
    },
];

/// The registry entry named `name`.
pub fn lookup(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentOpts;

    #[test]
    fn fig09_matches_the_papers_worked_example() {
        let tables = fig09();
        let t = &tables[0];
        // serial: 12 issued of 12; coalesced: 7 of 12.
        assert_eq!(t.cell(0, 1), t.cell(0, 2));
        let issued = match t.cell(1, 1).unwrap() {
            gmmu_sim::table::Cell::Num(v, _) => *v,
            other => panic!("unexpected cell {other:?}"),
        };
        assert_eq!(issued, 7.0);
    }

    #[test]
    fn quick_fig03_produces_all_benchmarks() {
        let mut r = Runner::new(ExperimentOpts::quick());
        let tables = fig03(&mut r);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 6);
        assert_eq!(tables[1].len(), 6);
    }

    /// The study's 6 solo runs and 4 co-runs are 9 distinct points (its
    /// 2- and 4-tenant mixes share their first tenant), all memoized.
    #[test]
    fn multitenant_points_are_memoized() {
        let mut r = Runner::new(ExperimentOpts::quick());
        let tables = r.sweep(fig_multitenant);
        assert_eq!(r.runs, 9);
        assert_eq!(r.sweep(fig_multitenant), tables);
        assert_eq!(r.runs, 9, "second sweep must be all cache hits");
    }

    #[test]
    fn config_table_reports_paper_values() {
        let tables = table_config(ExperimentOpts::full());
        let text = tables[0].to_string();
        assert!(text.contains("30"));
        assert!(text.contains("128KB"));
    }
}
