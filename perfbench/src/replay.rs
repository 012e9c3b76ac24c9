//! Per-layer host cost from a replay of one point's warp stream.
//!
//! The stream is the point's GMTR capture: one `TraceRecord::Mem` per
//! warp memory instruction, holding the lanes' addresses. A functional
//! pass pushes it through the layers' public types the way a shader
//! core does — coalesce, TLB lookup, walk on a miss, TLB fill, L1, the
//! memory system — with one set of per-core structures per simulated
//! core, and logs every call each layer receives. Each layer's log is
//! then re-executed on fresh state under one timer, so a layer's
//! nanoseconds per call carry no per-call clock reads and no cost of
//! its neighbours. Only the layers the point's design uses receive
//! calls: the ideal MMU has no TLB, walker or translation MSHRs, and
//! only scheduler-policy and TLB-aware TBC points feed the policy and
//! the Common Page Matrix.

use gmmu_core::ccws::{LocalityPolicy, PolicyKind};
use gmmu_core::cpm::CommonPageMatrix;
use gmmu_core::mmu::MmuModel;
use gmmu_core::tlb::{Tlb, TlbHit};
use gmmu_core::walker::Walker;
use gmmu_mem::cache::{Cache, CacheAccess};
use gmmu_mem::mshr::{tenant_key, MshrFile, MshrOutcome};
use gmmu_mem::system::{AccessKind, MemorySystem};
use gmmu_mem::LINE_SHIFT;
use gmmu_simt::coalesce::{coalesce, CoalesceBuf};
use gmmu_simt::{GpuConfig, RunStats};
use gmmu_trace::TraceRecord;
use gmmu_vm::{AddressSpace, Ppn, VAddr, Vpn};
use std::hint::black_box;
use std::time::Instant;

/// The replayed layers, in report order.
pub const LAYERS: [&str; 9] = [
    "simt.coalesce",
    "core.tlb",
    "core.walker",
    "mem.l1",
    "mem.mshr",
    "mem.system",
    "vm.translate",
    "core.ccws",
    "core.cpm",
];

const COALESCE: usize = 0;
const TLB: usize = 1;
const WALKER: usize = 2;
const L1: usize = 3;
const MSHR: usize = 4;
const SYSTEM: usize = 5;
const TRANSLATE: usize = 6;
const CCWS: usize = 7;
const CPM: usize = 8;

/// Lines per 4 KiB page.
const PAGE_LINES: u64 = 1 << (12 - LINE_SHIFT);

/// Re-executions per layer; the fastest is kept.
const REPS: usize = 3;

/// Calls each layer received in a replay and the host seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Calls per layer, indexed like [`LAYERS`].
    pub calls: [u64; 9],
    /// Host seconds per layer, indexed like [`LAYERS`].
    pub secs: [f64; 9],
}

/// One tenant's warp stream and the address space it ran in.
pub struct Stream<'a> {
    /// The tenant's ASID.
    pub asid: u16,
    /// The captured records.
    pub records: &'a [TraceRecord],
    /// The tenant's address space after the run.
    pub space: &'a AddressSpace,
}

/// How many calls each layer received in the simulated run itself,
/// derived from its statistics (`l2_accesses` from the GPU's memory
/// system); multiplied by a replay's time per call this estimates the
/// layer's share of the run's host time.
pub fn run_calls(cfg: &GpuConfig, s: &RunStats, l2_accesses: u64) -> [u64; 9] {
    let real = !cfg.mmu.is_ideal();
    let mut c = [0; 9];
    c[COALESCE] = s.mem_instructions + s.replays;
    c[L1] = s.l1_accesses;
    c[SYSTEM] = l2_accesses;
    // The ideal MMU translates every coalesced page through the address
    // space; a real one resolves each TLB miss with a page-table walk.
    c[TRANSLATE] = if real {
        s.walks
    } else {
        s.page_divergence.sum()
    };
    if real {
        c[TLB] = s.tlb_accesses + s.walks;
        c[WALKER] = s.walks;
        c[MSHR] = s.tlb_accesses - s.tlb_hits;
    }
    if cfg.policy != PolicyKind::None {
        c[CCWS] = (s.l1_accesses - s.l1_hits) + s.tlb_accesses;
    }
    if cfg.tbc.is_some_and(|t| t.tlb_aware) {
        c[CPM] = s.tlb_hits;
    }
    c
}

enum TlbOp {
    Lookup {
        core: usize,
        asid: u16,
        vpn: Vpn,
        warp: u16,
        stamp: u64,
    },
    Fill {
        core: usize,
        asid: u16,
        vpn: Vpn,
        ppn: Ppn,
        warp: u16,
        stamp: u64,
    },
}

enum WalkOp {
    Enqueue {
        walker: usize,
        vpn: Vpn,
        warp: u16,
        now: u64,
    },
    Advance {
        walker: usize,
        now: u64,
    },
}

enum MshrOp {
    Expire { core: usize, now: u64 },
    Allocate { core: usize, key: u64 },
    Complete { core: usize, key: u64, done: u64 },
}

enum PolicyOp {
    L1Evict {
        core: usize,
        owner: u16,
        line: u64,
    },
    L1Miss {
        core: usize,
        warp: u16,
        line: u64,
        tlb_missed: bool,
    },
    TlbEvict {
        core: usize,
        owner: u16,
        vpn: Vpn,
    },
    TlbMiss {
        core: usize,
        warp: u16,
        vpn: Vpn,
    },
    TlbHit {
        core: usize,
        warp: u16,
        depth: u8,
    },
}

/// Every call each layer received in the functional pass.
#[derive(Default)]
struct Log {
    coalesce: Vec<(usize, usize, u16)>,
    tlb: Vec<TlbOp>,
    walk: Vec<WalkOp>,
    l1: Vec<(usize, u64, u32, u64)>,
    mshr: Vec<MshrOp>,
    system: Vec<(u64, u64)>,
    translate: Vec<(usize, VAddr)>,
    policy: Vec<PolicyOp>,
    cpm: Vec<(usize, u16, TlbHit)>,
}

/// Record order for the replay: `(stream, record index)` of every memory
/// record, taking one instruction from each warp in turn (the capture
/// stores them warp by warp).
fn interleave(streams: &[Stream<'_>]) -> Vec<(usize, usize)> {
    let mut warps: Vec<Vec<(usize, usize)>> = Vec::new();
    for (s, stream) in streams.iter().enumerate() {
        let mut current = None;
        for (i, rec) in stream.records.iter().enumerate() {
            if let TraceRecord::Mem { warp, .. } = rec {
                if current != Some(*warp) {
                    current = Some(*warp);
                    warps.push(Vec::new());
                }
                warps.last_mut().expect("pushed above").push((s, i));
            }
        }
    }
    let mut out = Vec::with_capacity(warps.iter().map(Vec::len).sum());
    let mut round = 0;
    loop {
        let before = out.len();
        out.extend(warps.iter().filter_map(|w| w.get(round).copied()));
        if out.len() == before {
            return out;
        }
        round += 1;
    }
}

/// Replays `streams` (one per tenant, in ASID order) through the layers
/// of design `cfg`; `run_cycles` paces the replay clock at the run's own
/// rate of memory instructions per cycle.
pub fn replay(cfg: &GpuConfig, streams: &[Stream<'_>], run_cycles: u64) -> LayerCost {
    let log = functional_pass(cfg, streams, run_cycles);
    timed_pass(cfg, streams, &log)
}

fn functional_pass(cfg: &GpuConfig, streams: &[Stream<'_>], run_cycles: u64) -> Log {
    let n_cores = cfg.n_cores.max(1);
    let wpc = cfg.warps_per_core.max(1);
    let wpb = cfg.warps_per_block.max(1);
    let n_streams = streams.len();
    let real = match cfg.mmu {
        MmuModel::Real { tlb, walker } => Some((tlb, walker)),
        MmuModel::Ideal => None,
    };
    let policy_on = cfg.policy != PolicyKind::None;
    let order = interleave(streams);
    let step = (run_cycles / order.len().max(1) as u64).max(1);

    let mut tlbs: Vec<Tlb> = Vec::new();
    let mut walkers: Vec<Walker> = Vec::new();
    let mut mshrs: Vec<MshrFile> = Vec::new();
    if let Some((tlb, walker)) = real {
        tlbs = (0..n_cores).map(|_| Tlb::new(tlb)).collect();
        walkers = (0..n_cores * n_streams)
            .map(|_| Walker::new(walker))
            .collect();
        mshrs = (0..n_cores).map(|_| MshrFile::new(tlb.mshrs)).collect();
    }
    let mut l1s: Vec<Cache> = (0..n_cores).map(|_| Cache::new(cfg.l1)).collect();
    let mut policies: Vec<LocalityPolicy> = if policy_on {
        (0..n_cores)
            .map(|_| LocalityPolicy::new(cfg.policy, wpc, cfg.policy_config))
            .collect()
    } else {
        Vec::new()
    };
    let mut cpms: Vec<CommonPageMatrix> = match cfg.tbc {
        Some(t) if t.tlb_aware => (0..n_cores)
            .map(|_| CommonPageMatrix::new(wpc, t.cpm))
            .collect(),
        _ => Vec::new(),
    };
    let mut mem = MemorySystem::new(cfg.mem);
    let mut walk_mem = MemorySystem::new(cfg.mem);

    let mut log = Log::default();
    let mut buf = CoalesceBuf::new();
    let mut page_lines: Vec<Option<u64>> = Vec::new();
    let mut done = Vec::new();
    let mut now = 0u64;
    for &(s, idx) in &order {
        let TraceRecord::Mem { warp, addrs, .. } = &streams[s].records[idx] else {
            continue;
        };
        now += step;
        let stream = &streams[s];
        // Blocks go round-robin over the cores, tenants interleaved.
        let core = ((*warp as usize / wpb) * n_streams + s) % n_cores;
        let lw = (*warp as usize % wpc) as u16;
        log.coalesce.push((s, idx, lw));
        coalesce(addrs.iter().map(|&a| (VAddr::new(a), lw)), &mut buf);

        let mut tlb_missed = false;
        if real.is_some() {
            log.mshr.push(MshrOp::Expire { core, now });
            mshrs[core].expire(now);
            for page in &buf.pages {
                let vpn = page.vpn;
                log.tlb.push(TlbOp::Lookup {
                    core,
                    asid: stream.asid,
                    vpn,
                    warp: lw,
                    stamp: now,
                });
                if let Some(hit) = tlbs[core].lookup_asid(stream.asid, vpn, lw, now) {
                    if policy_on {
                        log.policy.push(PolicyOp::TlbHit {
                            core,
                            warp: lw,
                            depth: hit.lru_depth,
                        });
                        policies[core].on_tlb_hit(lw, hit.lru_depth);
                    }
                    if !cpms.is_empty() && hit.hist_len > 0 {
                        log.cpm.push((core, lw, hit));
                        cpms[core].record_hit(lw, &hit.history[..hit.hist_len as usize]);
                    }
                    continue;
                }
                tlb_missed = true;
                if policy_on {
                    log.policy.push(PolicyOp::TlbMiss {
                        core,
                        warp: lw,
                        vpn,
                    });
                    policies[core].on_tlb_miss(lw, vpn);
                }
                let key = tenant_key(stream.asid, vpn.raw());
                log.mshr.push(MshrOp::Allocate { core, key });
                if mshrs[core].allocate(key) == MshrOutcome::Allocated {
                    let walker = core * n_streams + s;
                    log.walk.push(WalkOp::Enqueue {
                        walker,
                        vpn,
                        warp: lw,
                        now,
                    });
                    walkers[walker].enqueue(vpn, lw, now);
                }
            }
        }

        page_lines.clear();
        for page in &buf.pages {
            let va = page.vpn.base();
            log.translate.push((s, va));
            page_lines.push(
                stream
                    .space
                    .translate(va)
                    .ok()
                    .map(|(pa, _)| pa.line(LINE_SHIFT)),
            );
        }
        for line in &buf.lines {
            // Pages a demand-paged tenant never faulted in have no frame.
            let Some(base) = page_lines[line.page_idx as usize] else {
                continue;
            };
            let pline = base | (line.vline % PAGE_LINES);
            log.l1.push((core, pline, u32::from(lw), now));
            if let CacheAccess::Miss { victim } = l1s[core].access(pline, u32::from(lw), now) {
                if policy_on {
                    if let Some(v) = victim {
                        let owner = v.meta as u16;
                        log.policy.push(PolicyOp::L1Evict {
                            core,
                            owner,
                            line: v.line,
                        });
                        policies[core].on_l1_evict(owner, v.line);
                    }
                    log.policy.push(PolicyOp::L1Miss {
                        core,
                        warp: lw,
                        line: pline,
                        tlb_missed,
                    });
                    policies[core].on_l1_miss(lw, pline, tlb_missed);
                }
                log.system.push((now, pline));
                mem.access(now, pline, AccessKind::Load);
            }
        }

        if real.is_some() {
            for walker in core * n_streams..(core + 1) * n_streams {
                if walkers[walker].queue_len() == 0 {
                    continue;
                }
                let tenant = &streams[walker % n_streams];
                log.walk.push(WalkOp::Advance { walker, now });
                walkers[walker].advance(now, &mut walk_mem, tenant.space, &mut done);
                for d in done.drain(..) {
                    let key = tenant_key(tenant.asid, d.vpn.raw());
                    log.mshr.push(MshrOp::Complete {
                        core,
                        key,
                        done: d.complete,
                    });
                    mshrs[core].set_completion(key, d.complete);
                    let Some((ppn, _)) = d.translation else {
                        continue;
                    };
                    log.tlb.push(TlbOp::Fill {
                        core,
                        asid: tenant.asid,
                        vpn: d.vpn,
                        ppn,
                        warp: d.warp,
                        stamp: now,
                    });
                    let victim = tlbs[core].fill_asid(tenant.asid, d.vpn, ppn, d.warp, now);
                    if let (Some(v), true) = (victim, policy_on) {
                        log.policy.push(PolicyOp::TlbEvict {
                            core,
                            owner: v.owner,
                            vpn: v.vpn,
                        });
                        policies[core].on_tlb_evict(v.owner, v.vpn);
                    }
                }
            }
        }
    }
    log
}

/// Fastest of [`REPS`] runs of `run` on state fresh from `make`.
fn best_of<S>(mut make: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> f64 {
    (0..REPS)
        .map(|_| {
            let mut state = make();
            let t = Instant::now();
            run(&mut state);
            let secs = t.elapsed().as_secs_f64();
            black_box(&state);
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

fn timed_pass(cfg: &GpuConfig, streams: &[Stream<'_>], log: &Log) -> LayerCost {
    let n_cores = cfg.n_cores.max(1);
    let n_streams = streams.len();
    let wpc = cfg.warps_per_core.max(1);
    let mut cost = LayerCost::default();
    let mut time = |layer: usize, calls: usize, secs: &mut dyn FnMut() -> f64| {
        if calls > 0 {
            cost.calls[layer] = calls as u64;
            cost.secs[layer] = secs();
        }
    };

    time(COALESCE, log.coalesce.len(), &mut || {
        best_of(CoalesceBuf::new, |buf| {
            for &(s, idx, lw) in &log.coalesce {
                if let TraceRecord::Mem { addrs, .. } = &streams[s].records[idx] {
                    coalesce(addrs.iter().map(|&a| (VAddr::new(a), lw)), buf);
                    black_box(&*buf);
                }
            }
        })
    });

    if let MmuModel::Real { tlb, walker } = cfg.mmu {
        time(TLB, log.tlb.len(), &mut || {
            best_of(
                || (0..n_cores).map(|_| Tlb::new(tlb)).collect::<Vec<_>>(),
                |tlbs| {
                    for op in &log.tlb {
                        match *op {
                            TlbOp::Lookup {
                                core,
                                asid,
                                vpn,
                                warp,
                                stamp,
                            } => {
                                black_box(tlbs[core].lookup_asid(asid, vpn, warp, stamp));
                            }
                            TlbOp::Fill {
                                core,
                                asid,
                                vpn,
                                ppn,
                                warp,
                                stamp,
                            } => {
                                black_box(tlbs[core].fill_asid(asid, vpn, ppn, warp, stamp));
                            }
                        }
                    }
                },
            )
        });

        let walks = log
            .walk
            .iter()
            .filter(|op| matches!(op, WalkOp::Enqueue { .. }))
            .count();
        time(WALKER, walks, &mut || {
            best_of(
                || {
                    let walkers: Vec<Walker> = (0..n_cores * n_streams)
                        .map(|_| Walker::new(walker))
                        .collect();
                    (walkers, MemorySystem::new(cfg.mem), Vec::new())
                },
                |(walkers, mem, done)| {
                    for op in &log.walk {
                        match *op {
                            WalkOp::Enqueue {
                                walker,
                                vpn,
                                warp,
                                now,
                            } => walkers[walker].enqueue(vpn, warp, now),
                            WalkOp::Advance { walker, now } => {
                                let space = streams[walker % n_streams].space;
                                walkers[walker].advance(now, mem, space, done);
                                black_box(&*done);
                                done.clear();
                            }
                        }
                    }
                },
            )
        });

        let allocations = log
            .mshr
            .iter()
            .filter(|op| matches!(op, MshrOp::Allocate { .. }))
            .count();
        time(MSHR, allocations, &mut || {
            best_of(
                || {
                    (0..n_cores)
                        .map(|_| MshrFile::new(tlb.mshrs))
                        .collect::<Vec<_>>()
                },
                |mshrs| {
                    for op in &log.mshr {
                        match *op {
                            MshrOp::Expire { core, now } => mshrs[core].expire(now),
                            MshrOp::Allocate { core, key } => {
                                black_box(mshrs[core].allocate(key));
                            }
                            MshrOp::Complete { core, key, done } => {
                                mshrs[core].set_completion(key, done)
                            }
                        }
                    }
                },
            )
        });
    }

    time(L1, log.l1.len(), &mut || {
        best_of(
            || (0..n_cores).map(|_| Cache::new(cfg.l1)).collect::<Vec<_>>(),
            |l1s| {
                for &(core, line, meta, stamp) in &log.l1 {
                    black_box(l1s[core].access(line, meta, stamp));
                }
            },
        )
    });

    time(SYSTEM, log.system.len(), &mut || {
        best_of(
            || MemorySystem::new(cfg.mem),
            |mem| {
                for &(now, line) in &log.system {
                    black_box(mem.access(now, line, AccessKind::Load));
                }
            },
        )
    });

    time(TRANSLATE, log.translate.len(), &mut || {
        best_of(
            || (),
            |_| {
                for &(s, va) in &log.translate {
                    let _ = black_box(streams[s].space.translate(va));
                }
            },
        )
    });

    time(CCWS, log.policy.len(), &mut || {
        best_of(
            || {
                (0..n_cores)
                    .map(|_| LocalityPolicy::new(cfg.policy, wpc, cfg.policy_config))
                    .collect::<Vec<_>>()
            },
            |policies| {
                for op in &log.policy {
                    match *op {
                        PolicyOp::L1Evict { core, owner, line } => {
                            policies[core].on_l1_evict(owner, line)
                        }
                        PolicyOp::L1Miss {
                            core,
                            warp,
                            line,
                            tlb_missed,
                        } => policies[core].on_l1_miss(warp, line, tlb_missed),
                        PolicyOp::TlbEvict { core, owner, vpn } => {
                            policies[core].on_tlb_evict(owner, vpn)
                        }
                        PolicyOp::TlbMiss { core, warp, vpn } => {
                            policies[core].on_tlb_miss(warp, vpn)
                        }
                        PolicyOp::TlbHit { core, warp, depth } => {
                            policies[core].on_tlb_hit(warp, depth)
                        }
                    }
                }
            },
        )
    });

    if let Some(tbc) = cfg.tbc {
        time(CPM, log.cpm.len(), &mut || {
            best_of(
                || {
                    (0..n_cores)
                        .map(|_| CommonPageMatrix::new(wpc, tbc.cpm))
                        .collect::<Vec<_>>()
                },
                |cpms| {
                    for (core, warp, hit) in &log.cpm {
                        cpms[*core].record_hit(*warp, &hit.history[..hit.hist_len as usize]);
                    }
                },
            )
        });
    }
    cost
}
