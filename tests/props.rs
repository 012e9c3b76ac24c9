//! Randomized property tests over the core data structures and
//! cross-crate invariants.
//!
//! These used to be `proptest` properties; they are now driven by the
//! in-tree deterministic [`Xoshiro256`] generator so the workspace has
//! zero external dependencies (the build environment has no network
//! access to a crates registry). Each property runs 64 seeded cases,
//! and a failure message carries the case seed for replay.

use gmmu_core::mmu::{Mmu, MmuEvent, MmuModel, PageReq, TranslateBuf, TranslateOutcome};
use gmmu_core::walker::{Walker, WalkerConfig};
use gmmu_mem::{Cache, CacheConfig, MemConfig, MemorySystem};
use gmmu_sim::rng::Xoshiro256;
use gmmu_simt::coalesce::{coalesce, coalesce_granule, CoalesceBuf};
use gmmu_simt::stack::SimtStack;
use gmmu_vm::{AddressSpace, PageSize, SpaceConfig, VAddr, Vpn};
use std::collections::{HashMap, HashSet};

const CASES: u64 = 64;

/// Runs `f` once per case with a per-case RNG; panics mention the case
/// number so failures can be replayed.
fn for_each_case(test: &str, f: impl Fn(&mut Xoshiro256)) {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x9_e77 ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            panic!("{test}: case {case} failed: {e:?}");
        }
    }
}

fn vec_u64(
    rng: &mut Xoshiro256,
    len: std::ops::Range<u64>,
    each: std::ops::Range<u64>,
) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(each.clone())).collect()
}

/// Address-space translation round-trips for arbitrary offsets into
/// arbitrary regions, and never invents mappings outside them.
#[test]
fn translation_roundtrip() {
    for_each_case("translation_roundtrip", |rng| {
        let sizes = vec_u64(rng, 1..5, 1..200_000);
        let probes: Vec<(usize, u64)> = (0..rng.gen_range(1..50))
            .map(|_| (rng.gen_range(0..5) as usize, rng.gen_range(0..400_000)))
            .collect();
        let mut space = AddressSpace::new(SpaceConfig::default());
        let regions: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                space
                    .map_region(&format!("r{i}"), s, PageSize::Base4K)
                    .unwrap()
            })
            .collect();
        for (ri, off) in probes {
            let region = &regions[ri % regions.len()];
            let inside = off % region.bytes;
            let va = region.base.offset(inside);
            let (pa, _) = space.translate(va).expect("mapped offset must translate");
            assert_eq!(pa.raw() & 0xfff, va.raw() & 0xfff, "page offset preserved");
        }
        // Unmapped gaps stay unmapped (the guard gap after the last region).
        let last = regions.last().unwrap();
        assert!(space.translate(last.end().offset(1 << 21)).is_err());
    });
}

/// Distinct mapped pages never alias the same physical frame.
#[test]
fn no_frame_aliasing() {
    for_each_case("no_frame_aliasing", |rng| {
        let pages = rng.gen_range(1..600);
        let mut space = AddressSpace::new(SpaceConfig::default());
        let r = space
            .map_region("r", pages * 4096, PageSize::Base4K)
            .unwrap();
        let mut seen = HashSet::new();
        for p in 0..r.num_pages() {
            let (pa, _) = space.translate(r.at(p * 4096)).unwrap();
            assert!(seen.insert(pa.ppn().raw()), "frame aliased");
        }
    });
}

/// Removing pages from a coalesced instruction equals coalescing again
/// only the lanes on the kept pages — pages, lines, `page_idx` and each
/// line's home warp — so a pending instruction can be coalesced once
/// and then shrink as its pages are served.
#[test]
fn retain_pages_equals_recoalescing_survivors() {
    for_each_case("retain_pages_equals_recoalescing_survivors", |rng| {
        let granule = if rng.gen_bool(0.5) {
            PageSize::Base4K
        } else {
            PageSize::Large2M
        };
        let page_bytes = 1u64 << granule.shift();
        // A few pages with a few lines each, so lanes share both.
        let pages = rng.gen_range(1..9);
        let lines = rng.gen_range(1..9);
        let lanes: Vec<(VAddr, u16)> = (0..rng.gen_range(1..33))
            .map(|_| {
                let page = rng.gen_range(0..pages);
                let line = rng.gen_range(0..lines);
                let byte = rng.gen_range(0..128);
                let va = 0x4000_0000 + page * page_bytes + line * (page_bytes / 32) + byte;
                (VAddr::new(va), rng.gen_range(0..4) as u16)
            })
            .collect();
        let page_of = |va: VAddr| {
            let shift = granule.shift();
            Vpn::new((va.raw() >> shift) << (shift - 12))
        };
        let mut buf = CoalesceBuf::new();
        coalesce_granule(lanes.iter().copied(), granule, &mut buf);
        let mut kept: Vec<Vpn> = buf.pages.iter().map(|p| p.vpn).collect();
        // Two rounds of removal, as a hit filter then a fill bypass would.
        for _ in 0..2 {
            kept.retain(|_| rng.gen_bool(0.7));
            buf.retain_pages(|p| kept.contains(&p.vpn));
            let mut expected = CoalesceBuf::new();
            coalesce_granule(
                lanes
                    .iter()
                    .copied()
                    .filter(|&(va, _)| kept.contains(&page_of(va))),
                granule,
                &mut expected,
            );
            assert_eq!(buf.pages, expected.pages);
            assert_eq!(buf.lines, expected.lines);
        }
    });
}

/// The coalescer covers every active access with exactly the right
/// page, never duplicates a line, and bounds divergence by the lane
/// count.
#[test]
fn coalescer_covers_all_lanes() {
    for_each_case("coalescer_covers_all_lanes", |rng| {
        let addrs = vec_u64(rng, 1..32, 0..1u64 << 30);
        let mut buf = CoalesceBuf::new();
        coalesce(addrs.iter().map(|&a| (VAddr::new(a), 0u16)), &mut buf);
        assert!(buf.pages.len() <= addrs.len());
        assert!(buf.lines.len() <= addrs.len());
        // No duplicate lines or pages.
        let lines: HashSet<u64> = buf.lines.iter().map(|l| l.vline).collect();
        assert_eq!(lines.len(), buf.lines.len());
        let pages: HashSet<u64> = buf.pages.iter().map(|p| p.vpn.raw()).collect();
        assert_eq!(pages.len(), buf.pages.len());
        // Every address's line and page are present and agree.
        for &a in &addrs {
            let va = VAddr::new(a);
            let line = buf
                .lines
                .iter()
                .find(|l| l.vline == va.line(7))
                .expect("line covered");
            assert_eq!(
                buf.pages[line.page_idx as usize].vpn,
                va.vpn(),
                "line mapped to wrong page"
            );
        }
    });
}

/// SIMT stack: for a divergent loop, every lane executes the body
/// exactly its own trip count and the tail executes once with the
/// full mask — regardless of the trip distribution.
#[test]
fn simt_stack_loops_execute_exact_trip_counts() {
    for_each_case("simt_stack_loops_execute_exact_trip_counts", |rng| {
        let trips: Vec<u32> = (0..rng.gen_range(1..32))
            .map(|_| rng.gen_range(1..9) as u32)
            .collect();
        let n = trips.len();
        let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        let mut stack = SimtStack::new(full, 3);
        let mut body = vec![0u32; n];
        let mut tail_mask = 0u32;
        let mut steps = 0;
        while !stack.is_done() {
            steps += 1;
            assert!(steps < 10_000, "stack failed to converge");
            let (pc, mask) = stack.current().unwrap();
            match pc {
                0 => {
                    for (lane, b) in body.iter_mut().enumerate() {
                        if mask & (1 << lane) != 0 {
                            *b += 1;
                        }
                    }
                    stack.advance(1);
                }
                1 => {
                    let mut taken = 0;
                    for lane in 0..n {
                        if mask & (1 << lane) != 0 && body[lane] < trips[lane] {
                            taken |= 1 << lane;
                        }
                    }
                    stack.branch(taken, 0, 2, 2);
                }
                2 => {
                    tail_mask |= mask;
                    stack.advance(3);
                }
                other => panic!("unexpected pc {other}"),
            }
            assert!(stack.depth() <= 2, "loop grew the stack");
        }
        assert_eq!(body, trips);
        assert_eq!(tail_mask, full);
    });
}

/// SIMT stack: an if/else partitions the lanes exactly.
#[test]
fn simt_stack_if_else_partitions() {
    for_each_case("simt_stack_if_else_partitions", |rng| {
        let mask_bits = rng.gen_range(0..u32::MAX as u64) as u32;
        let lanes = rng.gen_range(2..33) as u32;
        let full = if lanes == 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        let taken = mask_bits & full;
        // 0: branch(t→2, r=3); 1: else; 2: then; 3: join
        let mut stack = SimtStack::new(full, 4);
        stack.branch(taken, 2, 1, 3);
        let mut then_mask = 0;
        let mut else_mask = 0;
        let mut join_mask = 0;
        while !stack.is_done() {
            let (pc, m) = stack.current().unwrap();
            match pc {
                1 => {
                    else_mask |= m;
                    stack.advance(3);
                }
                2 => {
                    then_mask |= m;
                    stack.advance(3);
                }
                3 => {
                    join_mask |= m;
                    stack.advance(4);
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(then_mask, taken);
        assert_eq!(else_mask, full & !taken);
        assert_eq!(join_mask, full);
        assert_eq!(then_mask & else_mask, 0);
    });
}

/// Serial and coalesced walkers are functionally equivalent: same
/// translations, and the coalesced walker never issues more PTE
/// loads than the serial one.
#[test]
fn walker_equivalence() {
    for_each_case("walker_equivalence", |rng| {
        let page_offsets = vec_u64(rng, 1..16, 0..2048);
        let mut space = AddressSpace::new(SpaceConfig::default());
        let region = space
            .map_region("w", 2048 * 4096, PageSize::Base4K)
            .unwrap();
        let base = region.base.vpn().raw();
        let vpns: Vec<Vpn> = page_offsets.iter().map(|&o| Vpn::new(base + o)).collect();

        let mut results: Vec<HashMap<u64, u64>> = Vec::new();
        let mut issued = Vec::new();
        for cfg in [WalkerConfig::serial(), WalkerConfig::coalesced()] {
            let mut mem = MemorySystem::new(MemConfig::default());
            let mut walker = Walker::new(cfg);
            for &v in &vpns {
                walker.enqueue(v, 0, 0);
            }
            let mut done = Vec::new();
            let mut now = 0;
            while done.len() < vpns.len() {
                walker.advance(now, &mut mem, &space, &mut done);
                now += 100;
                assert!(now < 10_000_000, "walker stalled");
            }
            results.push(
                done.iter()
                    .map(|d| (d.vpn.raw(), d.translation.unwrap().0.raw()))
                    .collect(),
            );
            issued.push(walker.stats.refs_issued.get());
        }
        assert_eq!(&results[0], &results[1], "walkers disagree on translations");
        assert!(issued[1] <= issued[0], "coalescing increased references");
        // And both agree with the functional translation.
        for (&vpn, &ppn) in &results[0] {
            let expect = space.translate(Vpn::new(vpn).base()).unwrap().0.ppn().raw();
            assert_eq!(ppn, expect);
        }
    });
}

/// Drives `mmu` until `vpn` translates, returning the physical frame it
/// delivered (from a TLB hit or a walk-completion wake).
fn resolve(
    mmu: &mut Mmu,
    mem: &mut MemorySystem,
    space: &AddressSpace,
    vpn: Vpn,
    now: &mut u64,
    buf: &mut TranslateBuf,
) -> u64 {
    loop {
        mmu.advance(*now, mem, space);
        mmu.events().for_each(drop);
        match mmu.translate(*now, 0, &[PageReq::new(vpn, 0)], space, buf) {
            TranslateOutcome::AllHit { .. } => return buf.hits[0].ppn.raw(),
            TranslateOutcome::Reject { retry_at } => *now = retry_at.max(*now + 1),
            TranslateOutcome::Miss { .. } => loop {
                *now += 1;
                assert!(*now < 10_000_000, "walk for {vpn} never completed");
                mmu.advance(*now, mem, space);
                let mut delivered = None;
                for ev in mmu.events() {
                    if let MmuEvent::Wake { vpn: v, ppn, .. } = ev {
                        if v == vpn {
                            delivered = Some(ppn.raw());
                        }
                    }
                }
                if let Some(ppn) = delivered {
                    return ppn;
                }
            },
        }
    }
}

/// After any unmap → epoch bump → remap sequence, a shootdown-serviced
/// MMU never yields a stale translation: every translation it delivers
/// — whether a TLB hit or a completed walk — matches the page table as
/// it stands at delivery time, for arbitrary touch patterns and remap
/// rounds.
#[test]
fn shootdown_replay_never_yields_stale_translations() {
    for_each_case("shootdown_replay_never_yields_stale_translations", |rng| {
        let pages = rng.gen_range(4..48);
        let mut space = AddressSpace::new(SpaceConfig::default());
        let r = space
            .map_region("r", pages * 4096, PageSize::Base4K)
            .unwrap();
        let base = r.base.vpn().raw();
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut mmu = Mmu::new(MmuModel::augmented());
        let mut buf = TranslateBuf::new();
        let mut now = 0u64;
        for round in 0..3 {
            for p in vec_u64(rng, 1..20, 0..pages) {
                let vpn = Vpn::new(base + p);
                let got = resolve(&mut mmu, &mut mem, &space, vpn, &mut now, &mut buf);
                let expect = space.translate(vpn.base()).unwrap().0.ppn().raw();
                assert_eq!(
                    got, expect,
                    "stale frame for page {p} after {round} remap(s)"
                );
            }
            let epoch = space.shootdown_epoch();
            assert!(space.remap_region("r").unwrap(), "remap moved nothing");
            assert!(
                space.shootdown_epoch() > epoch,
                "remap must bump the shootdown epoch"
            );
            mmu.shootdown(0);
            now += 1;
        }
    });
}

/// End-to-end storm replay: mid-run unmap/remap storms leave both
/// execution engines in full agreement — same cycles, same fault and
/// shootdown counts — and the run still completes.
#[test]
fn storm_replay_agrees_across_engines() {
    use gmmu::experiments::{designs, ExperimentOpts};
    use gmmu::prelude::*;
    for seed in [1u64, 7, 23] {
        let run_with = |legacy: bool| {
            let mut w = build(Bench::Kmeans, Scale::Tiny, 7);
            let mut cfg = ExperimentOpts::quick().gpu(designs::augmented());
            cfg.fault = FaultConfig::demand();
            cfg.inject = Some(FaultInjectConfig::storm(seed, 8_000, 3));
            cfg.tick_every_cycle = legacy;
            Gpu::new(cfg).run_faulted(w.kernel.as_ref(), &mut w.space, &mut Observer::off())
        };
        let skip = run_with(false);
        let tick = run_with(true);
        assert!(skip.completed, "seed {seed}: storm run hit the cycle cap");
        assert_eq!(skip.cycles, tick.cycles, "seed {seed}: engines disagree");
        assert_eq!(skip.instructions, tick.instructions);
        assert_eq!(skip.shootdowns, tick.shootdowns);
        assert_eq!(skip.squashed_walks, tick.squashed_walks);
        assert_eq!(skip.faults, tick.faults);
    }
}

/// A cache never "remembers" an invalidated line, and probing after
/// an access always hits.
#[test]
fn cache_probe_consistency() {
    for_each_case("cache_probe_consistency", |rng| {
        let ops: Vec<(u64, bool)> = (0..rng.gen_range(1..200))
            .map(|_| (rng.gen_range(0..256), rng.gen_bool(0.5)))
            .collect();
        let mut cache = Cache::new(CacheConfig { sets: 8, ways: 2 });
        let mut stamp = 0;
        for (line, invalidate) in ops {
            if invalidate {
                cache.invalidate(line);
                assert!(!cache.probe(line));
            } else {
                stamp += 1;
                cache.access(line, 0, stamp);
                assert!(cache.probe(line), "just-accessed line missing");
            }
            assert!(cache.occupancy() <= 16);
        }
    });
}

/// Zipf sampling is always in range and deterministic per index.
#[test]
fn zipf_bounds() {
    for_each_case("zipf_bounds", |rng| {
        let n = rng.gen_range(1..5000) as usize;
        let idx = rng.gen_range(0..10_000);
        let z = gmmu_sim::rng::Zipf::new(n, 0.99);
        let a = z.sample_at(42, idx);
        assert!(a < n);
        assert_eq!(a, z.sample_at(42, idx));
    });
}

/// The non-allocating `translate` fast path agrees with the full
/// `walk` on every probe — mapped or not, 4 KiB or 2 MiB, before and
/// after unmaps and remaps. `translate` caches the last PT node it
/// descended into, so the probe sequence deliberately mixes repeats
/// (cache hits), neighbours in the same 2 MiB prefix (tag hits on a
/// different slot), and far jumps (tag misses).
#[test]
fn translate_agrees_with_walk() {
    for_each_case("translate_agrees_with_walk", |rng| {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let small = space
            .map_region("small", rng.gen_range(1..64) * 4096, PageSize::Base4K)
            .unwrap();
        let large = space
            .map_region("large", 2 << 20, PageSize::Large2M)
            .unwrap();
        let check = |space: &AddressSpace, vpn: Vpn| {
            let walk = space.walk(vpn);
            let translated = space
                .translate(VAddr::new(vpn.raw() << 12))
                .ok()
                .map(|(pa, size)| (pa.ppn(), size));
            // Both paths refine a large-page hit to the exact 4 KiB
            // frame, so results compare directly at every page size.
            assert_eq!(
                translated,
                walk.result,
                "translate/walk disagree at vpn {:#x}",
                vpn.raw()
            );
        };
        let small_base = small.base.vpn().raw();
        let large_base = large.base.vpn().raw();
        let small_pages = small.num_pages();
        let probe = |rng: &mut Xoshiro256| {
            match rng.gen_range(0..4) {
                // Inside the 4 KiB region (including repeats).
                0 => small_base + rng.gen_range(0..small_pages),
                // Inside the 2 MiB region.
                1 => large_base + rng.gen_range(0..512),
                // The guard gap right after a region: never mapped.
                2 => small_base + small_pages + rng.gen_range(0..8),
                // Far away: forces a leaf-cache tag miss.
                _ => rng.gen_range(0..1 << 27),
            }
        };
        for _ in 0..rng.gen_range(20..200) {
            let vpn = probe(rng);
            check(&space, Vpn::new(vpn));
        }
        // Unmap a random subset of the 4 KiB pages and re-probe: the
        // fast path must observe the cleared entries immediately.
        let salt = rng.gen_range(0..1 << 30);
        space.unmap_pages_where(|v| (v.raw() ^ salt) % 3 == 0);
        for _ in 0..rng.gen_range(20..100) {
            let vpn = probe(rng);
            check(&space, Vpn::new(vpn));
        }
        // Remap the small region (fresh frames, same VAs) and re-probe.
        space.remap_region("small").unwrap();
        for _ in 0..rng.gen_range(20..100) {
            let vpn = probe(rng);
            check(&space, Vpn::new(vpn));
        }
    });
}

/// ASID-scoped shootdowns are perfectly isolated at the TLB: flushing
/// one tenant's entries never evicts another ASID's, for arbitrary
/// interleavings of fills across tenants.
#[test]
fn scoped_shootdown_never_evicts_other_asids() {
    use gmmu_core::tlb::{Tlb, TlbConfig};
    use gmmu_vm::Ppn;
    for_each_case("scoped_shootdown_never_evicts_other_asids", |rng| {
        let mut tlb = Tlb::new(TlbConfig::augmented());
        let n_tenants = rng.gen_range(2..5) as u16;
        // Few distinct pages per tenant so fills never exceed capacity:
        // any eviction observed below must come from the flush itself.
        let mut live: HashMap<u16, HashSet<u64>> = HashMap::new();
        for stamp in 0..rng.gen_range(16..64) {
            let asid = rng.gen_range(0..n_tenants as u64) as u16;
            let vpn = rng.gen_range(0..8);
            tlb.fill_asid(asid, Vpn::new(vpn), Ppn::new(vpn + 100), 0, stamp);
            live.entry(asid).or_default().insert(vpn);
        }
        let victim = rng.gen_range(0..n_tenants as u64) as u16;
        // Evictions by capacity pressure are legal before the flush;
        // record which entries are actually resident now.
        let resident: HashMap<u16, Vec<u64>> = live
            .iter()
            .map(|(&asid, vpns)| {
                let r = vpns
                    .iter()
                    .copied()
                    .filter(|&v| tlb.probe_asid(asid, Vpn::new(v)))
                    .collect();
                (asid, r)
            })
            .collect();
        tlb.flush_asid(victim);
        assert_eq!(
            tlb.occupancy_asid(victim),
            0,
            "victim ASID {victim} survived its own shootdown"
        );
        for (&asid, vpns) in &resident {
            if asid == victim {
                continue;
            }
            for &v in vpns {
                assert!(
                    tlb.probe_asid(asid, Vpn::new(v)),
                    "ASID {victim}'s shootdown evicted ASID {asid}'s page {v}"
                );
            }
        }
    });
}
