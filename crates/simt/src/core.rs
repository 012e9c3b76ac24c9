//! The shader core pipeline.
//!
//! One [`ShaderCore`] models a SIMT core of the paper's GPU (Figure 5):
//! warps issue in-order, one warp instruction per cycle, selected by a
//! loose round-robin scheduler optionally filtered by a CCWS-family
//! locality policy. Memory instructions flow through the address
//! generator/coalescer, present their unique pages to the per-core MMU
//! *in parallel* with L1 access, and replay after TLB misses resolve.
//! With thread block compaction enabled, scheduling units are dynamic
//! warps managed by [`crate::tbc`].

use crate::coalesce::{coalesce_granule, CoalesceBuf};
use crate::config::{CoreTimings, FaultConfig, GpuConfig, TbcConfig};
use crate::program::{Kernel, MemKind, Op, ThreadId};
use crate::stack::SimtStack;
use crate::stall::{StallBreakdown, StallCause};
use crate::tbc::TbcState;
use gmmu_core::ccws::LocalityPolicy;
use gmmu_core::cpm::CommonPageMatrix;
use gmmu_core::mmu::{Mmu, MmuEvent, TranslateBuf, TranslateOutcome};
use gmmu_mem::mshr::{MshrFile, MshrOutcome};
use gmmu_mem::{AccessKind, Cache, CacheAccess, MemorySystem};
use gmmu_sim::metrics::MetricsRegistry;
use gmmu_sim::observe::{Event, Observer};
use gmmu_sim::stats::{Counter, Histogram, Summary};
use gmmu_sim::Cycle;
use gmmu_vm::{AddressSpace, PageSize, Ppn, VAddr, Vpn};
use std::cell::Cell;

/// Statistics gathered by one shader core.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Warp instructions committed (TBC: dynamic-warp instructions).
    pub instructions: Counter,
    /// Memory instructions committed.
    pub mem_instructions: Counter,
    /// Cycles with live warps but no issue (stalls — Figure 10's idle
    /// cycles).
    pub idle_cycles: Counter,
    /// The same idle cycles, attributed to their dominant stall cause;
    /// sums exactly to `idle_cycles`.
    pub stall_breakdown: StallBreakdown,
    /// Cycles with at least one live warp.
    pub live_cycles: Counter,
    /// Page divergence per memory instruction (Figure 3 right).
    pub page_divergence: Histogram,
    /// L1 miss service latency (Figure 4's comparison point).
    pub l1_miss_latency: Summary,
    /// Memory instructions re-issued after TLB-miss wakes or rejects.
    pub replays: Counter,
    /// Dynamic warps formed by compaction (TBC only).
    pub dwarps_formed: Counter,
    /// Thread blocks completed.
    pub blocks_done: Counter,
    /// Per-ASID slice of `instructions` (index = ASID, grown on
    /// demand). Feeds the per-tenant watchdog and slowdown accounting.
    /// TBC runs are single-tenant and leave these empty.
    pub tenant_instructions: Vec<Counter>,
    /// Per-ASID slice of `blocks_done` (index = ASID).
    pub tenant_blocks_done: Vec<Counter>,
}

impl CoreStats {
    fn tenant_counter(v: &mut Vec<Counter>, asid: u16) -> &mut Counter {
        let i = asid as usize;
        if v.len() <= i {
            v.resize_with(i + 1, Counter::default);
        }
        &mut v[i]
    }
}

/// A memory instruction in flight for one warp (generated once; replays
/// reuse the stored addresses so TLB-miss retries are idempotent).
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    pub kind: MemKind,
    /// `(address, home static warp)` per active lane; lanes whose pages
    /// were serviced by cache overlap are removed.
    pub accesses: Vec<(VAddr, u16)>,
    /// Whether this instruction has taken a TLB miss (TA-CCWS weighting).
    pub tlb_missed: bool,
    /// Completion of overlap-issued L1 accesses.
    pub overlap_done_at: Cycle,
    /// Page divergence was recorded (first issue only).
    pub diverge_recorded: bool,
    /// Whether any access of this instruction missed L2 and went to DRAM
    /// (stall attribution).
    pub touched_dram: bool,
    /// Cycle the owning unit last went to sleep on TLB misses (the
    /// `warp_sleep` trace span's start).
    pub slept_at: Cycle,
}

/// Why a scheduling unit's issue timer is armed. Written wherever
/// `ready_at` is set; read by stall attribution to name the blocker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum WaitKind {
    /// ALU/branch pipeline latency (also the fresh-unit default).
    #[default]
    Pipeline,
    /// Data return from the memory hierarchy.
    MemData {
        /// Whether the slowest access went to DRAM.
        dram: bool,
    },
    /// Backing off after an MMU reject.
    Reject,
    /// Woken from a TLB sleep; re-presents remaining pages next cycle.
    Replay,
}

impl WaitKind {
    pub(crate) fn cause(self) -> StallCause {
        match self {
            WaitKind::Pipeline => StallCause::Pipeline,
            WaitKind::MemData { dram: true } => StallCause::Dram,
            WaitKind::MemData { dram: false } => StallCause::L1Mshr,
            WaitKind::Reject => StallCause::MmuReject,
            WaitKind::Replay => StallCause::ReplayWake,
        }
    }
}

/// Result of trying to issue a pending memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemIssue {
    /// The instruction completed; the warp may issue again at the given
    /// cycle.
    Done(Cycle),
    /// TLB misses are in flight; sleep until that many wakes arrive.
    WaitTlb(usize),
    /// The MMU rejected the access; retry at the given cycle.
    Retry(Cycle),
}

/// A baseline (non-TBC) warp context.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// The tenant this warp's block belongs to (selects the address
    /// space, kernel, and iteration-slot base in the [`RunCtx`]).
    pub asid: u16,
    pub first_tid: ThreadId,
    pub stack: Option<SimtStack>,
    pub ready_at: Cycle,
    pub pending: Option<Pending>,
    pub waiting_pages: usize,
    /// Pages whose walks ended in a page fault; the warp is parked until
    /// the modeled CPU fault handler maps them all.
    pub faulted_pages: usize,
    pub wait: WaitKind,
}

impl Warp {
    fn empty() -> Self {
        Self {
            asid: 0,
            first_tid: 0,
            stack: None,
            ready_at: 0,
            pending: None,
            waiting_pages: 0,
            faulted_pages: 0,
            wait: WaitKind::default(),
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.stack.as_ref().is_none_or(|s| s.is_done())
    }

    fn schedulable(&self, now: Cycle) -> bool {
        !self.is_done()
            && self.waiting_pages == 0
            && self.faulted_pages == 0
            && self.ready_at <= now
    }
}

impl Default for Warp {
    fn default() -> Self {
        Warp::empty()
    }
}

/// Execution mode: per-warp stacks or thread block compaction.
//
// `TbcState` dwarfs the baseline variant, but there is exactly one
// `ExecMode` per shader core and it is matched on every cycle — boxing
// the TBC side would trade a few hundred idle bytes per core for a
// pointer chase on the hot tick path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ExecMode {
    Baseline { warps: Vec<Warp> },
    Tbc(TbcState),
}

/// Everything the executors need to run warps from several tenants in
/// one tick: the address space and kernel of each ASID (index = ASID)
/// plus each tenant's base offset into the shared branch/mem
/// iteration-counter array. Single-tenant callers wrap their one space
/// and kernel with base 0 ([`ShaderCore::tick`]).
pub struct RunCtx<'a, 'b> {
    /// Address space per ASID.
    pub spaces: &'a [&'a AddressSpace],
    /// Kernel per ASID.
    pub kernels: &'a [&'a dyn Kernel],
    /// Per-thread, per-site iteration counters for all tenants.
    pub iters: &'b mut [u32],
    /// Each tenant's first slot in `iters`.
    pub iters_base: &'a [usize],
}

/// The pieces of a core that the memory path needs; split out so the
/// baseline and TBC executors can borrow them while iterating their own
/// unit containers.
#[derive(Debug)]
pub(crate) struct MemPath {
    pub granule: PageSize,
    pub mmu: Mmu,
    pub l1: Cache,
    pub l1_mshrs: MshrFile,
    pub policy: LocalityPolicy,
    pub cpm: Option<CommonPageMatrix>,
    pub stats: CoreStats,
    pub timings: CoreTimings,
    pub cbuf: CoalesceBuf,
    pub tbuf: TranslateBuf,
    /// Scratch for [`MemPath::service_page`]'s line dedup; kept across
    /// calls so the steady state allocates nothing.
    seen_lines: Vec<u64>,
    /// Scratch for [`MemPath::issue_mem`]'s hit-page retain filter.
    hit_pages: Vec<Vpn>,
    /// Recycled [`Pending::accesses`] allocations: every committed
    /// memory instruction parks its address list here for the next one,
    /// so the issue path stops allocating per instruction.
    access_pool: Vec<Vec<(VAddr, u16)>>,
}

impl MemPath {
    /// Takes a recycled access-list allocation (or a fresh one).
    pub(crate) fn grab_accesses(&mut self) -> Vec<(VAddr, u16)> {
        self.access_pool.pop().unwrap_or_default()
    }

    /// Parks a committed instruction's access list for reuse.
    pub(crate) fn stash_accesses(&mut self, mut v: Vec<(VAddr, u16)>) {
        v.clear();
        self.access_pool.push(v);
    }

    /// Accesses the L1 (and below) for one physical line; returns the
    /// cycle the data is usable and whether the request went to DRAM.
    fn access_line(
        &mut self,
        at: Cycle,
        phys_line: u64,
        warp: u16,
        tlb_missed: bool,
        mem: &mut MemorySystem,
    ) -> (Cycle, bool) {
        // A line already being fetched merges into the outstanding miss.
        if let Some(done) = self.l1_mshrs.lookup(phys_line) {
            return (done.max(at + self.timings.l1_hit_latency), false);
        }
        match self.l1.access(phys_line, warp as u32, at) {
            CacheAccess::Hit => (at + self.timings.l1_hit_latency, false),
            CacheAccess::Miss { victim } => {
                if let Some(v) = victim {
                    self.policy.on_l1_evict(v.meta as u16, v.line);
                }
                self.policy.on_l1_miss(warp, phys_line, tlb_missed);
                let res = mem.access(at, phys_line, AccessKind::Load);
                let done = res.complete;
                self.stats.l1_miss_latency.record(done - at);
                match self.l1_mshrs.allocate(phys_line) {
                    MshrOutcome::Allocated => self.l1_mshrs.set_completion(phys_line, done),
                    // MSHR pressure beyond capacity still costs the
                    // memory-system bandwidth charged above.
                    MshrOutcome::Merged(_) | MshrOutcome::Full => {}
                }
                (done, !res.l2_hit)
            }
        }
    }

    /// Delivers a completed walk's translation straight to a waiting
    /// instruction: the accesses on `vpn` run against the memory
    /// hierarchy now and are removed from the pending set. This is the
    /// hardware fill-bypass path — the translation is consumed even if
    /// the TLB entry is evicted before the warp is scheduled again.
    pub(crate) fn service_page(
        &mut self,
        now: Cycle,
        pending: &mut Pending,
        vpn: gmmu_vm::Vpn,
        ppn: Ppn,
        mem: &mut MemorySystem,
    ) -> Cycle {
        let mut done = now;
        let granule = self.granule;
        let mut dram_seen = false;
        let mut seen_lines = std::mem::take(&mut self.seen_lines);
        seen_lines.clear();
        for &(va, home) in pending
            .accesses
            .iter()
            .filter(|(va, _)| granule_vpn(*va, granule) == vpn)
        {
            let vline = va.line(gmmu_mem::LINE_SHIFT);
            if seen_lines.contains(&vline) {
                continue;
            }
            seen_lines.push(vline);
            let pl = phys_line(ppn, vline, granule);
            match pending.kind {
                MemKind::Load => {
                    let (c, dram) = self.access_line(now, pl, home, pending.tlb_missed, mem);
                    dram_seen |= dram;
                    done = done.max(c);
                }
                MemKind::Store => {
                    let res = mem.access(now, pl, gmmu_mem::AccessKind::Store);
                    dram_seen |= !res.l2_hit;
                    let backpressure = res.complete.saturating_sub(self.timings.store_window);
                    done = done.max(now + self.timings.store_issue).max(backpressure);
                }
            }
        }
        self.seen_lines = seen_lines;
        pending.touched_dram |= dram_seen;
        pending
            .accesses
            .retain(|(va, _)| granule_vpn(*va, granule) != vpn);
        pending.overlap_done_at = pending.overlap_done_at.max(done);
        done
    }

    /// Issues (or replays) a pending memory instruction for scheduling
    /// unit `requester` on behalf of tenant `asid`. The unit's home
    /// pages carry their own static warp ids (TBC).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_mem(
        &mut self,
        now: Cycle,
        requester: u16,
        asid: u16,
        pending: &mut Pending,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        obs: &mut Observer,
    ) -> MemIssue {
        debug_assert!(!pending.accesses.is_empty());
        let mut cbuf = std::mem::take(&mut self.cbuf);
        coalesce_granule(pending.accesses.iter().copied(), self.granule, &mut cbuf);
        if !pending.diverge_recorded {
            pending.diverge_recorded = true;
            self.stats
                .page_divergence
                .record(cbuf.page_divergence() as u64);
        }
        let mut tbuf = std::mem::take(&mut self.tbuf);
        let outcome =
            self.mmu
                .translate_tenant(now, requester, asid, &cbuf.pages, space, &mut tbuf, obs);
        let result = match outcome {
            TranslateOutcome::Reject { retry_at } => MemIssue::Retry(retry_at.max(now + 1)),
            TranslateOutcome::AllHit { ready_at } => {
                self.note_hits(&tbuf, &cbuf);
                let done = self.run_accesses(ready_at, &cbuf, &tbuf, pending, mem, None);
                MemIssue::Done(done.max(pending.overlap_done_at))
            }
            TranslateOutcome::Miss { ready_at, misses } => {
                let replay = pending.tlb_missed;
                pending.tlb_missed = true;
                for &vpn in &tbuf.misses {
                    let home = cbuf
                        .pages
                        .iter()
                        .find(|p| p.vpn == vpn)
                        .map_or(requester, |p| p.warp);
                    self.policy.on_tlb_miss(home, vpn);
                }
                self.note_hits(&tbuf, &cbuf);
                // Hit pages proceed to the cache either when the TLB
                // supports cache overlap (Section 6.3), or on a replay —
                // a replay's hits were delivered by the warp's own walks
                // (MSHR fills), so they complete even if a page has
                // since been evicted; this keeps wide-divergence warps
                // making monotonic progress.
                if (self.mmu.cache_overlap() || replay) && !tbuf.hits.is_empty() {
                    let done =
                        self.run_accesses(ready_at, &cbuf, &tbuf, pending, mem, Some(&tbuf.hits));
                    pending.overlap_done_at = pending.overlap_done_at.max(done);
                    let mut hit_pages = std::mem::take(&mut self.hit_pages);
                    hit_pages.clear();
                    hit_pages.extend(tbuf.hits.iter().map(|t| t.vpn));
                    let granule = self.granule;
                    pending
                        .accesses
                        .retain(|(va, _)| !hit_pages.contains(&granule_vpn(*va, granule)));
                    self.hit_pages = hit_pages;
                }
                MemIssue::WaitTlb(misses)
            }
        };
        self.cbuf = cbuf;
        self.tbuf = tbuf;
        result
    }

    /// Forwards TLB-hit information to the policy and the CPM.
    fn note_hits(&mut self, tbuf: &TranslateBuf, cbuf: &CoalesceBuf) {
        for (t, info) in tbuf.hits.iter().zip(&tbuf.hit_info) {
            let home = cbuf
                .pages
                .iter()
                .find(|p| p.vpn == t.vpn)
                .map_or(0, |p| p.warp);
            self.policy.on_tlb_hit(home, info.lru_depth);
            if let Some(cpm) = self.cpm.as_mut() {
                if info.hist_len > 0 {
                    cpm.record_hit(home, &info.history[..info.hist_len as usize]);
                }
            }
        }
    }

    /// Runs the L1/store accesses for the lines whose pages are in
    /// `only` (or all lines when `only` is `None`); returns the cycle
    /// the last one completes.
    fn run_accesses(
        &mut self,
        at: Cycle,
        cbuf: &CoalesceBuf,
        tbuf: &TranslateBuf,
        pending: &mut Pending,
        mem: &mut MemorySystem,
        only: Option<&[gmmu_core::mmu::Translation]>,
    ) -> Cycle {
        let translations = only.unwrap_or(&tbuf.hits);
        let mut done = at;
        let mut dram_seen = false;
        for line in &cbuf.lines {
            let page = &cbuf.pages[line.page_idx as usize];
            let Some(t) = translations.iter().find(|t| t.vpn == page.vpn) else {
                continue; // page missed: handled on replay
            };
            let phys_line = phys_line(t.ppn, line.vline, self.granule);
            match pending.kind {
                MemKind::Load => {
                    let (c, dram) =
                        self.access_line(at, phys_line, page.warp, pending.tlb_missed, mem);
                    dram_seen |= dram;
                    done = done.max(c);
                }
                MemKind::Store => {
                    // Write-through, no-allocate; fire-and-forget until
                    // the write buffer runs too far ahead.
                    let res = mem.access(at, phys_line, AccessKind::Store);
                    dram_seen |= !res.l2_hit;
                    let backpressure = res.complete.saturating_sub(self.timings.store_window);
                    done = done.max(at + self.timings.store_issue).max(backpressure);
                }
            }
        }
        pending.touched_dram |= dram_seen;
        done
    }
}

/// Physical line index of virtual line `vline` inside the translation
/// granule whose first frame is `ppn` (4 KiB pages hold 32 lines of
/// 128 bytes; a 2 MiB granule is physically contiguous, so offsetting
/// from its first frame is exact).
#[inline]
pub(crate) fn phys_line(ppn: Ppn, vline: u64, granule: PageSize) -> u64 {
    let mask = (1u64 << (granule.shift() - gmmu_mem::LINE_SHIFT)) - 1;
    (ppn.raw() << 5) + (vline & mask)
}

/// The granule-base 4 KiB page number containing `va` at `granule`.
#[inline]
pub(crate) fn granule_vpn(va: VAddr, granule: PageSize) -> Vpn {
    let shift = granule.shift();
    Vpn::new((va.raw() >> shift) << (shift - 12))
}

/// A block of threads waiting to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BlockWork {
    /// The tenant the block belongs to.
    pub asid: u16,
    pub first_tid: ThreadId,
    pub n_threads: u32,
}

/// One SIMT core.
#[derive(Debug)]
pub struct ShaderCore {
    /// Core id (diagnostics).
    pub id: usize,
    warps_per_block: usize,
    pub(crate) path: MemPath,
    pub(crate) exec: ExecMode,
    rr_ptr: usize,
    pub(crate) block_queue: std::collections::VecDeque<BlockWork>,
    /// Baseline mode: which block slots currently hold a live block.
    slot_occupied: Vec<bool>,
    /// Baseline mode: cycle each occupied slot's block was dispatched
    /// (the `block` trace span's start).
    slot_started: Vec<Cycle>,
    /// Baseline mode: the tenant of each occupied slot's block.
    slot_asid: Vec<u16>,
    /// Scratch for MMU event draining.
    events: Vec<MmuEvent>,
    /// Fault-and-recovery model knobs (copied from the GPU config).
    pub(crate) fault: FaultConfig,
    /// Units parked on each faulted page, keyed by the ASID-tagged VPN
    /// ([`gmmu_mem::mshr::tenant_key`]; identity for ASID 0).
    fault_waiters: std::collections::HashMap<u64, Vec<u16>>,
    /// Faulted `(asid, page)` pairs not yet reported to the GPU's fault
    /// handler.
    pub(crate) pending_faults: Vec<(u16, Vpn)>,
    /// Memoized [`ShaderCore::next_event_at`] result (`None` = invalid;
    /// `Some(inner)` = the last computed answer). [`ShaderCore::tick`]
    /// keeps it across *quiet* ticks — cycles that provably changed no
    /// state the computation reads — and drops it otherwise, so the
    /// idle-skip loop stops rescanning every warp of every core per
    /// jump. External timer sources ([`ShaderCore::push_block`],
    /// [`ShaderCore::resolve_fault`], [`ShaderCore::shootdown`]) drop it
    /// too.
    next_event_cache: Cell<Option<Option<Cycle>>>,
    /// Memoized core-local timer scan (the non-MMU half of
    /// [`ShaderCore::next_event_at`]): `None` = invalid, `Some(inner)`
    /// = the last computed answer, where `inner` is `None` for a core
    /// with no work and otherwise the earliest core timer (possibly
    /// `Cycle::MAX` when only the MMU can wake it). Unlike
    /// `next_event_cache` it survives ticks where only the MMU was
    /// busy: in-flight walks advance without touching unit state until
    /// an event drains, and drained events drop this cache. A cached
    /// timer at or before `now` forces a recompute (the unit it named
    /// became schedulable).
    core_timer_cache: Cell<Option<Option<Cycle>>>,
    /// Memoized idle verdict from the last full no-issue warp scan:
    /// `(next_ready, live)` — no baseline warp can become schedulable
    /// before `next_ready` (the earliest armed timer among units that
    /// are neither waiting on pages nor faulted), and `live` is whether
    /// any warp was live at all. While `now < next_ready` and nothing
    /// external intervened (no dispatch, no drained event — both of
    /// which run before the scan and refresh it), the round-robin issue
    /// scan is provably a no-op and the tick skips it. Never set when a
    /// schedulable (even policy-gated) warp exists: gated warps must
    /// re-consult `issue_allowed` every cycle, as `policy.tick` can
    /// open the gate.
    idle_cache: Cell<Option<(Cycle, bool)>>,
    /// Memoized stall classification: `(cause, valid_until)`. On a quiet
    /// tick no unit state changes, so the classification from the last
    /// idle cycle still holds — until `now` reaches `valid_until`, the
    /// earliest `ready_at` that could flip a sleeping unit's cause. Any
    /// tick that mutates unit state drops it (same discipline as
    /// `next_event_cache`), so re-scanning every warp per idle cycle is
    /// replaced by a `Cell` read on the common path.
    stall_cache: Cell<Option<(StallCause, Cycle)>>,
}

impl ShaderCore {
    /// Builds a core from the GPU configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        let cpm = cfg.tbc.as_ref().and_then(|t: &TbcConfig| {
            t.tlb_aware
                .then(|| CommonPageMatrix::new(cfg.warps_per_core, t.cpm))
        });
        let exec = match &cfg.tbc {
            None => ExecMode::Baseline {
                warps: (0..cfg.warps_per_core).map(|_| Warp::empty()).collect(),
            },
            Some(t) => ExecMode::Tbc(TbcState::new(cfg, *t)),
        };
        let mut mmu = Mmu::new(cfg.mmu);
        mmu.set_injection(cfg.inject.filter(|i| i.enabled()));
        Self {
            id,
            warps_per_block: cfg.warps_per_block,
            path: MemPath {
                granule: cfg.granule,
                mmu,
                l1: Cache::new(cfg.l1),
                l1_mshrs: MshrFile::new(cfg.l1_mshrs),
                policy: LocalityPolicy::new(cfg.policy, cfg.warps_per_core, cfg.policy_config),
                cpm,
                stats: CoreStats::default(),
                timings: cfg.timings,
                cbuf: CoalesceBuf::new(),
                tbuf: TranslateBuf::new(),
                seen_lines: Vec::new(),
                hit_pages: Vec::new(),
                access_pool: Vec::new(),
            },
            exec,
            rr_ptr: 0,
            block_queue: std::collections::VecDeque::new(),
            slot_occupied: vec![false; cfg.warps_per_core / cfg.warps_per_block],
            slot_started: vec![0; cfg.warps_per_core / cfg.warps_per_block],
            slot_asid: vec![0; cfg.warps_per_core / cfg.warps_per_block],
            events: Vec::new(),
            fault: cfg.fault,
            fault_waiters: std::collections::HashMap::new(),
            pending_faults: Vec::new(),
            next_event_cache: Cell::new(None),
            idle_cache: Cell::new(None),
            core_timer_cache: Cell::new(None),
            stall_cache: Cell::new(None),
        }
    }

    /// Queues a thread block for execution on this core.
    pub fn push_block(&mut self, first_tid: ThreadId, n_threads: u32) {
        self.push_block_asid(0, first_tid, n_threads);
    }

    /// Queues tenant `asid`'s thread block for execution on this core.
    pub fn push_block_asid(&mut self, asid: u16, first_tid: ThreadId, n_threads: u32) {
        self.drop_timer_caches();
        self.block_queue.push_back(BlockWork {
            asid,
            first_tid,
            n_threads,
        });
    }

    /// Statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.path.stats
    }

    /// The core's MMU (TLB/walker statistics).
    pub fn mmu(&self) -> &Mmu {
        &self.path.mmu
    }

    /// The core's L1 data cache.
    pub fn l1(&self) -> &Cache {
        &self.path.l1
    }

    /// Registers this core's instruments (pipeline counters, stall
    /// breakdown, coalescer, L1, policy, and the MMU tree) under
    /// `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let s = &self.path.stats;
        reg.counter(format!("{prefix}.instructions"), s.instructions.get());
        reg.counter(
            format!("{prefix}.mem_instructions"),
            s.mem_instructions.get(),
        );
        reg.counter(format!("{prefix}.live_cycles"), s.live_cycles.get());
        reg.counter(format!("{prefix}.idle_cycles"), s.idle_cycles.get());
        reg.counter(format!("{prefix}.replays"), s.replays.get());
        reg.counter(format!("{prefix}.dwarps_formed"), s.dwarps_formed.get());
        reg.counter(format!("{prefix}.blocks_done"), s.blocks_done.get());
        for (cause, cycles) in s.stall_breakdown.iter() {
            let slug = cause.label().replace([' ', '/'], "_");
            reg.counter(format!("{prefix}.stall.{slug}"), cycles);
        }
        reg.dist(
            format!("{prefix}.coalescer.page_divergence"),
            s.page_divergence.summary(),
        );
        reg.gauge(
            format!("{prefix}.l1_miss_latency.mean"),
            s.l1_miss_latency.mean(),
        );
        self.path.l1.register_metrics(&format!("{prefix}.l1"), reg);
        self.path
            .l1_mshrs
            .register_metrics(&format!("{prefix}.l1_mshr"), reg);
        self.path
            .policy
            .register_metrics(&format!("{prefix}.policy"), reg);
        self.path
            .mmu
            .register_metrics(&format!("{prefix}.mmu"), reg);
    }

    /// The locality policy (CCWS-family diagnostics).
    pub fn policy(&mut self) -> &mut LocalityPolicy {
        &mut self.path.policy
    }

    /// Read-only access to the locality policy.
    pub fn policy_ref(&self) -> &LocalityPolicy {
        &self.path.policy
    }

    /// Whether the core still has work (live units or queued blocks).
    pub fn has_work(&self) -> bool {
        if !self.block_queue.is_empty() {
            return true;
        }
        match &self.exec {
            ExecMode::Baseline { warps } => warps.iter().any(|w| !w.is_done()),
            ExecMode::Tbc(t) => t.has_work(),
        }
    }

    /// Marks finished baseline block slots as free and counts them.
    fn reap_blocks(&mut self, now: Cycle, obs: &mut Observer) {
        if let ExecMode::Baseline { warps } = &self.exec {
            let wpb = self.warps_per_block;
            let core = self.id as u32;
            for slot in 0..warps.len() / wpb {
                if self.slot_occupied[slot]
                    && warps[slot * wpb..(slot + 1) * wpb]
                        .iter()
                        .all(|w| w.is_done())
                {
                    self.slot_occupied[slot] = false;
                    self.path.stats.blocks_done.inc();
                    CoreStats::tenant_counter(
                        &mut self.path.stats.tenant_blocks_done,
                        self.slot_asid[slot],
                    )
                    .inc();
                    let started = self.slot_started[slot];
                    obs.record(|| Event::BlockRetire {
                        core,
                        slot: slot as u32,
                        start: started,
                        end: now,
                    });
                }
            }
        }
    }

    /// Fills free block slots from the queue; returns whether any block
    /// was dispatched. `kernels` is indexed by each queued block's ASID.
    fn dispatch_blocks(&mut self, kernels: &[&dyn Kernel], now: Cycle) -> bool {
        // Finished slots were reaped at the end of the tick that retired
        // them (nothing changes between ticks), so dispatch only needs
        // to scan for free slots when there is something to place.
        if self.block_queue.is_empty() {
            return false;
        }
        let mut dispatched = false;
        match &mut self.exec {
            ExecMode::Baseline { warps } => {
                let wpb = self.warps_per_block;
                for slot in 0..warps.len() / wpb {
                    let group = slot * wpb..(slot + 1) * wpb;
                    if warps[group.clone()].iter().all(|w| w.is_done()) {
                        let Some(block) = self.block_queue.pop_front() else {
                            continue;
                        };
                        let end_pc = kernels[block.asid as usize].program().end_pc();
                        dispatched = true;
                        self.slot_occupied[slot] = true;
                        self.slot_started[slot] = now;
                        self.slot_asid[slot] = block.asid;
                        for (i, w) in warps[group].iter_mut().enumerate() {
                            let first = block.first_tid + (i as u32) * 32;
                            let in_block = block.n_threads.saturating_sub((i as u32) * 32).min(32);
                            *w = Warp {
                                asid: block.asid,
                                first_tid: first,
                                stack: (in_block > 0).then(|| {
                                    let mask = if in_block == 32 {
                                        u32::MAX
                                    } else {
                                        (1u32 << in_block) - 1
                                    };
                                    SimtStack::new(mask, end_pc)
                                }),
                                ready_at: 0,
                                pending: None,
                                waiting_pages: 0,
                                faulted_pages: 0,
                                wait: WaitKind::default(),
                            };
                        }
                    }
                }
            }
            ExecMode::Tbc(tbc) => {
                // Thread block compaction schedules across a single
                // kernel's blocks; multi-tenant runs use baseline mode.
                debug_assert!(
                    self.block_queue.iter().all(|b| b.asid == 0),
                    "TBC is single-tenant"
                );
                let end_pc = kernels[0].program().end_pc();
                dispatched = tbc.dispatch_blocks(&mut self.block_queue, end_pc, now);
            }
        }
        dispatched
    }

    /// The earliest cycle after `now` (the cycle just ticked) at which
    /// this core could make progress, or `None` when it has no work.
    ///
    /// Sources, mirroring exactly what [`ShaderCore::tick`] reacts to:
    /// walk completions and freed walker lanes (the MMU), sleeping
    /// warps' `ready_at` timers, the policy's next score-decay epoch
    /// (which can release throttled warps), and block dispatch into a
    /// free slot. Warps waiting on pages carry no timer of their own —
    /// the MMU fill that wakes them is already a candidate.
    ///
    /// The answer is memoized: a cached future value is reused as long
    /// as every tick since it was computed was *quiet* (see
    /// [`ShaderCore::tick`]), because a quiet tick arms no timer and
    /// the clamp terms (`now + 1` floors) only ever rise with `now`. A
    /// cached value at or before `now`, or any non-quiet activity,
    /// forces a recompute.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if let Some(cached) = self.next_event_cache.get() {
            match cached {
                None => return None,
                Some(c) if c > now => return Some(c),
                Some(_) => {}
            }
        }
        let fresh = self.compute_next_event_at(now);
        self.next_event_cache.set(Some(fresh));
        fresh
    }

    /// Drops the memoized next-event value, forcing the next
    /// [`ShaderCore::next_event_at`] call to recompute. The core does
    /// this itself wherever state changes; the public entry point exists
    /// so the hot-path microbenchmark can measure the uncached scan.
    pub fn invalidate_next_event_cache(&self) {
        self.next_event_cache.set(None);
    }

    /// Drops both per-tick memoizations (next-event and stall cause);
    /// called wherever unit state changes outside a quiet tick.
    fn drop_timer_caches(&self) {
        self.next_event_cache.set(None);
        self.idle_cache.set(None);
        self.core_timer_cache.set(None);
        self.stall_cache.set(None);
    }

    /// The scan behind [`ShaderCore::next_event_at`]: the MMU's next
    /// timer is read fresh (walks in flight move it every cycle), the
    /// core-local half comes from `core_timer_cache` when still valid.
    fn compute_next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let core_part = match self.core_timer_cache.get() {
            Some(inner) if inner.is_none_or(|c| c > now) => inner,
            _ => {
                let fresh = self.compute_core_timers(now);
                // TBC timers fold tick-local state the cache discipline
                // does not track; only the baseline scan is memoized.
                if matches!(self.exec, ExecMode::Baseline { .. }) {
                    self.core_timer_cache.set(Some(fresh));
                }
                fresh
            }
        };
        let mut next = core_part?;
        if let Some(c) = self.path.mmu.next_event_at() {
            next = next.min(c.max(now + 1));
        }
        // A live core with no discernible timer must not be skipped
        // past (defensive: guarantees forward progress).
        Some(if next == Cycle::MAX { now + 1 } else { next })
    }

    /// The core-local timer sources: unit `ready_at` timers, the policy
    /// decay epoch that may release a throttled unit, and dispatch into
    /// a free slot. `None` when the core has no work at all. Every
    /// returned cycle exceeds `now` (timers beyond `now`, `now + 1`
    /// floors), which is what lets the memoized value's staleness be
    /// detected by comparison against the current cycle alone.
    fn compute_core_timers(&self, now: Cycle) -> Option<Cycle> {
        if !self.has_work() {
            return None;
        }
        let mut next = Cycle::MAX;
        match &self.exec {
            ExecMode::Baseline { warps } => {
                let mut throttled = false;
                for w in warps {
                    if w.is_done() || w.waiting_pages > 0 || w.faulted_pages > 0 {
                        continue;
                    }
                    if w.ready_at > now {
                        next = next.min(w.ready_at);
                    } else {
                        // Schedulable yet nothing issued: the locality
                        // policy gated it; the next decay epoch may
                        // release it.
                        throttled = true;
                    }
                }
                if throttled {
                    let decay = self.path.policy.next_event_at().unwrap_or(now + 1);
                    next = next.min(decay.max(now + 1));
                }
                if !self.block_queue.is_empty() {
                    let wpb = self.warps_per_block;
                    let free = (0..warps.len() / wpb).any(|slot| {
                        warps[slot * wpb..(slot + 1) * wpb]
                            .iter()
                            .all(|w| w.is_done())
                    });
                    if free {
                        next = next.min(now + 1);
                    }
                }
            }
            ExecMode::Tbc(t) => {
                if let Some(c) = t.next_event_at(now) {
                    next = next.min(c);
                }
                if !self.block_queue.is_empty() && t.has_free_slot() {
                    next = next.min(now + 1);
                }
            }
        }
        Some(next)
    }

    /// Accounts `skipped` elided cycles exactly as per-cycle ticking
    /// would have: every skipped cycle is, by construction of the skip
    /// bound, a live-but-idle cycle (liveness cannot change without an
    /// event, and events bound the skip). `now` is the first skipped
    /// cycle; the stall cause classified there holds for the whole span
    /// — no unit's timer expires inside it, no fill or wake lands, and
    /// a policy gate stays closed until at least the bounding decay
    /// epoch — so charging the span to one cause matches what per-cycle
    /// ticking would have recorded.
    pub fn note_idle_skip(&mut self, now: Cycle, skipped: u64) {
        let live = match &self.exec {
            ExecMode::Baseline { warps } => warps.iter().any(|w| !w.is_done()),
            ExecMode::Tbc(t) => t.has_work(),
        };
        if live {
            let cause = match self.stall_cache.get() {
                Some((cause, valid_until)) if now < valid_until => cause,
                _ => {
                    let fresh = classify_stall(&self.exec, now);
                    self.stall_cache.set(Some(fresh));
                    fresh.0
                }
            };
            self.path.stats.live_cycles.add(skipped);
            self.path.stats.idle_cycles.add(skipped);
            self.path.stats.stall_breakdown.add(cause, skipped);
        }
    }

    /// Squashes in-flight walks and flushes the TLB in response to a
    /// shootdown epoch bump; the resulting [`MmuEvent::Squashed`] events
    /// drain on this core's next tick.
    pub fn shootdown(&mut self, now: Cycle) {
        self.drop_timer_caches();
        self.path.mmu.shootdown(now);
    }

    /// Scoped shootdown: squashes tenant `asid`'s in-flight walks and
    /// flushes only its TLB entries (or, in flush-on-switch mode, the
    /// whole TLB when the victim is resident).
    pub fn shootdown_asid(&mut self, now: Cycle, asid: u16) {
        self.drop_timer_caches();
        self.path.mmu.shootdown_asid(now, asid);
    }

    /// Selects ASID-tagged TLB entries (`true`, the default) or the
    /// flush-on-switch fallback (`false`).
    pub fn set_tagging(&mut self, tagged: bool) {
        self.path.mmu.set_tagging(tagged);
    }

    /// Arms the walker's per-ASID fairness scheduler (no-op with
    /// `n_asids <= 1`).
    pub fn set_walker_fairness(&mut self, n_asids: usize, tokens: u32, max_age: u64) {
        self.path.mmu.set_walker_fairness(n_asids, tokens, max_age);
    }

    /// Moves faulted pages not yet reported to the fault handler into
    /// `out` (the GPU drains these each cycle).
    pub(crate) fn drain_faults(&mut self, out: &mut Vec<(u16, Vpn)>) {
        out.append(&mut self.pending_faults);
    }

    /// The CPU fault handler finished mapping `vpn` for tenant `asid`:
    /// release every unit parked on it; units with no other outstanding
    /// pages replay their access next cycle.
    pub(crate) fn resolve_fault(&mut self, asid: u16, vpn: Vpn, now: Cycle) {
        let Some(waiters) = self
            .fault_waiters
            .remove(&gmmu_mem::mshr::tenant_key(asid, vpn.raw()))
        else {
            return;
        };
        // This arms `ready_at` timers outside of a tick: the cached
        // next-event value could otherwise skip straight past the wake.
        self.drop_timer_caches();
        for unit in waiters {
            match &mut self.exec {
                ExecMode::Baseline { warps } => {
                    let w = &mut warps[unit as usize];
                    debug_assert!(w.faulted_pages > 0);
                    w.faulted_pages = w.faulted_pages.saturating_sub(1);
                    if w.faulted_pages == 0 && w.waiting_pages == 0 {
                        w.ready_at = now + 1;
                        w.wait = WaitKind::Replay;
                    }
                }
                ExecMode::Tbc(t) => t.resolve_fault(unit, now),
            }
        }
    }

    /// A human-readable dump of everything that could explain a stuck
    /// core, for the forward-progress watchdog's failure report:
    /// overall and per-ASID in-flight walk counts, each parked page
    /// with its tenant and the warps waiting on it, and every live
    /// unit's wait state.
    pub fn stall_diagnostics(&self, now: Cycle) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "core {}: outstanding_walks={} walker_queue={} unreported_faults={}",
            self.id,
            self.path.mmu.outstanding_walks(),
            self.path.mmu.walker().map_or(0, |w| w.queue_len()),
            self.pending_faults.len(),
        );
        // The tenants with any presence on this core, in ASID order.
        let mut asids: Vec<u16> = match &self.exec {
            ExecMode::Baseline { warps } => warps
                .iter()
                .filter(|w| !w.is_done())
                .map(|w| w.asid)
                .collect(),
            ExecMode::Tbc(_) => vec![0],
        };
        asids.extend(
            self.fault_waiters
                .keys()
                .map(|k| (k >> gmmu_mem::mshr::TENANT_KEY_SHIFT) as u16),
        );
        asids.sort_unstable();
        asids.dedup();
        if asids.len() > 1 {
            for &a in &asids {
                let _ = writeln!(
                    s,
                    "  asid {a}: in_flight_walks={} queued_walks={} instructions={}",
                    self.path.mmu.outstanding_walks_asid(a),
                    self.path.mmu.queued_walks_asid(a),
                    self.path
                        .stats
                        .tenant_instructions
                        .get(a as usize)
                        .map_or(0, |c| c.get()),
                );
            }
        }
        let mut parked: Vec<(&u64, &Vec<u16>)> = self.fault_waiters.iter().collect();
        parked.sort_unstable_by_key(|(k, _)| **k);
        for (key, warps) in parked {
            let _ = writeln!(
                s,
                "  faulted page: asid={} vpn={:#x} waiting_warps={warps:?}",
                (key >> gmmu_mem::mshr::TENANT_KEY_SHIFT) as u16,
                key & ((1u64 << gmmu_mem::mshr::TENANT_KEY_SHIFT) - 1),
            );
        }
        match &self.exec {
            ExecMode::Baseline { warps } => {
                for (i, w) in warps.iter().enumerate() {
                    if w.is_done() {
                        continue;
                    }
                    let _ = writeln!(
                        s,
                        "  warp {i} (asid {}): waiting_pages={} faulted_pages={} ready_at={} \
                         (now {now}) wait={:?} pending_accesses={}",
                        w.asid,
                        w.waiting_pages,
                        w.faulted_pages,
                        w.ready_at,
                        w.wait,
                        w.pending.as_ref().map_or(0, |p| p.accesses.len()),
                    );
                }
            }
            ExecMode::Tbc(t) => t.stall_diagnostics(&mut s, now),
        }
        s
    }

    /// Advances the core by one cycle. Returns `true` if it issued an
    /// instruction.
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        kernel: &dyn Kernel,
        iters: &mut [u32],
        obs: &mut Observer,
    ) -> bool {
        let spaces = [space];
        let kernels = [kernel];
        let mut ctx = RunCtx {
            spaces: &spaces,
            kernels: &kernels,
            iters,
            iters_base: &[0],
        };
        self.tick_tenants(now, mem, &mut ctx, obs) != 0
    }

    /// Advances the core by one cycle under a multi-tenant context.
    /// Returns a bitmask with bit `asid` set for each tenant that
    /// issued an instruction this cycle (the per-tenant watchdog's
    /// progress signal; ASIDs are capped at 64 by the GPU driver).
    /// Events emitted during the tick are stamped with this core's id.
    pub fn tick_tenants(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        ctx: &mut RunCtx<'_, '_>,
        obs: &mut Observer,
    ) -> u64 {
        obs.core = self.id as u32;
        let dispatched = self.dispatch_blocks(ctx.kernels, now);
        let core = obs.core;
        let path = &mut self.path;
        path.l1_mshrs.expire(now);
        let mmu_was_idle = path.mmu.is_idle();
        path.mmu.advance_tenants(now, mem, ctx.spaces, obs);
        self.events.clear();
        self.events.extend(path.mmu.events());
        for ev in &self.events {
            match *ev {
                MmuEvent::Evicted { vpn, owner, .. } => path.policy.on_tlb_evict(owner, vpn),
                MmuEvent::Wake { warp, vpn, ppn, .. } => match &mut self.exec {
                    ExecMode::Baseline { warps } => {
                        let w = &mut warps[warp as usize];
                        debug_assert!(w.waiting_pages > 0);
                        if let Some(pending) = w.pending.as_mut() {
                            path.service_page(now, pending, vpn, ppn, mem);
                        }
                        w.waiting_pages = w.waiting_pages.saturating_sub(1);
                        if w.waiting_pages == 0 {
                            let slept = w.pending.as_ref().map_or(now, |p| p.slept_at);
                            obs.record(|| Event::WarpSleep {
                                core,
                                warp,
                                vpn: vpn.raw(),
                                start: slept,
                                end: now,
                            });
                            let all_serviced =
                                w.pending.as_ref().is_some_and(|p| p.accesses.is_empty());
                            if all_serviced {
                                // Instruction complete: commit it.
                                let p = w.pending.take().expect("checked");
                                w.ready_at = p.overlap_done_at.max(now + 1);
                                w.wait = WaitKind::MemData {
                                    dram: p.touched_dram,
                                };
                                path.stash_accesses(p.accesses);
                                let stack = w.stack.as_mut().expect("waiting warp is live");
                                let (pc, _) = stack.current().expect("live");
                                stack.advance(pc + 1);
                            } else {
                                // Re-present the remaining (TLB-hit)
                                // pages.
                                w.ready_at = now + 1;
                                w.wait = WaitKind::Replay;
                            }
                        }
                    }
                    ExecMode::Tbc(t) => t.wake(warp, vpn, ppn, path, now, mem, obs),
                },
                MmuEvent::Fault { asid, vpn, warp } => {
                    if !self.fault.demand_paging {
                        panic!("GPU page fault on {vpn}: workloads must pre-map their regions")
                    }
                    // Park the unit: the walk concluded (without a
                    // translation), so the page moves from the waiting
                    // count to the faulted count and the warp sleeps
                    // until the CPU fault handler maps it.
                    match &mut self.exec {
                        ExecMode::Baseline { warps } => {
                            let w = &mut warps[warp as usize];
                            debug_assert!(w.waiting_pages > 0);
                            w.waiting_pages = w.waiting_pages.saturating_sub(1);
                            w.faulted_pages += 1;
                        }
                        ExecMode::Tbc(t) => t.fault(warp),
                    }
                    let waiters = self
                        .fault_waiters
                        .entry(gmmu_mem::mshr::tenant_key(asid, vpn.raw()))
                        .or_default();
                    if waiters.is_empty() {
                        self.pending_faults.push((asid, vpn));
                    }
                    waiters.push(warp);
                }
                MmuEvent::Squashed { warp, .. } => match &mut self.exec {
                    ExecMode::Baseline { warps } => {
                        let w = &mut warps[warp as usize];
                        w.waiting_pages = w.waiting_pages.saturating_sub(1);
                        if w.waiting_pages == 0 && w.faulted_pages == 0 {
                            // Retained accesses re-present against the
                            // flushed TLB after a bounded backoff.
                            w.ready_at = now + self.fault.shootdown_backoff.max(1);
                            w.wait = WaitKind::Reject;
                        }
                    }
                    ExecMode::Tbc(t) => t.squash(warp, now, self.fault.shootdown_backoff),
                },
            }
        }
        path.policy.tick(now);
        if let Some(cpm) = path.cpm.as_mut() {
            cpm.tick(now);
        }

        // One scan both issues and observes: `could_issue` is whether
        // any unit could act this cycle (captured against pre-issue
        // state — a schedulable-but-gated warp counts, as
        // `issue_allowed` perturbs policy state even when it denies),
        // and on a no-issue scan — which visited every warp anyway —
        // liveness falls out for free. Only an issuing tick (where the
        // executed instruction may have retired its warp) re-checks
        // liveness, and that `any` scan short-circuits at the first
        // live warp.
        // Skip the scan outright when the last full scan proved no unit
        // can become schedulable before `now` absent a dispatch or a
        // drained event (both of which refresh the verdict below).
        let idle_verdict = match self.idle_cache.get() {
            Some((until, live)) if !dispatched && self.events.is_empty() && now < until => {
                Some(live)
            }
            _ => None,
        };
        let (issued, could_issue, live): (u64, bool, bool) = match &mut self.exec {
            ExecMode::Baseline { .. } if idle_verdict.is_some() => {
                (0, false, idle_verdict.expect("checked"))
            }
            ExecMode::Baseline { warps } => {
                let scan = baseline_issue(path, warps, &mut self.rr_ptr, now, mem, ctx, obs);
                let issued = scan
                    .issued_asid
                    .map_or(0, |asid| 1u64 << (asid as u32 & 63));
                let live = match scan.live_if_unissued {
                    Some(live) => live,
                    None => warps.iter().any(|w| !w.is_done()),
                };
                // Every real scan refreshes the idle verdict: valid only
                // when not even a policy-gated unit was schedulable.
                self.idle_cache.set(match scan.live_if_unissued {
                    Some(l) if !scan.saw_schedulable => Some((scan.next_ready, l)),
                    _ => None,
                });
                (issued, scan.saw_schedulable, live)
            }
            ExecMode::Tbc(t) => {
                debug_assert_eq!(ctx.spaces.len(), 1, "TBC is single-tenant");
                let could = t.has_ready_work(now);
                let issued = u64::from(t.issue(
                    path,
                    now,
                    mem,
                    ctx.spaces[0],
                    ctx.kernels[0],
                    ctx.iters,
                    obs,
                ));
                (issued, could, t.has_work())
            }
        };
        // A quiet tick touched nothing `next_event_at` or the stall
        // classifier reads: no block dispatched, the MMU had nothing to
        // advance, no events drained, and no unit could issue (so no
        // executor or policy mutation either). Only then may the
        // memoized values survive into this cycle's classification.
        let quiet = !dispatched && mmu_was_idle && self.events.is_empty() && !could_issue;
        if !quiet {
            self.next_event_cache.set(None);
        }
        // Unit state (what the stall classifier and the core-timer scan
        // read) is untouched by a busy-but-eventless MMU: walks advance
        // internally and only a drained event wakes a unit. So these
        // two caches survive MMU-busy cycles that `next_event_cache`
        // (which folds MMU timers) cannot.
        if dispatched || !self.events.is_empty() || could_issue {
            self.core_timer_cache.set(None);
            self.stall_cache.set(None);
        }
        if live {
            path.stats.live_cycles.inc();
            if issued == 0 {
                let cause = match self.stall_cache.get() {
                    Some((cause, valid_until)) if now < valid_until => cause,
                    _ => {
                        let fresh = classify_stall(&self.exec, now);
                        self.stall_cache.set(Some(fresh));
                        fresh.0
                    }
                };
                path.stats.idle_cycles.inc();
                path.stats.stall_breakdown.add(cause, 1);
            }
        }
        // Blocks can only finish on a tick that mutated unit state, so
        // a quiet tick has nothing to reap.
        if !quiet {
            self.reap_blocks(now, obs);
        }
        issued
    }
}

/// Names the dominant blocker of a live-but-idle cycle: every non-done
/// unit maps to one [`StallCause`] from its wait state, and the
/// highest-priority cause present wins ([`StallCause`] declaration
/// order). A schedulable-yet-unissued baseline warp can only have been
/// gated by the locality policy — `baseline_issue` issues the first
/// schedulable non-gated warp — so it classifies as `Throttled` without
/// consulting (and perturbing) the policy.
fn classify_stall(exec: &ExecMode, now: Cycle) -> (StallCause, Cycle) {
    let mut best: Option<StallCause> = None;
    let mut note = |c: StallCause| best = Some(best.map_or(c, |b| b.min(c)));
    // How long the classification stays valid absent state changes: the
    // earliest armed `ready_at` beyond `now`. Waiting/faulted units only
    // change cause via an event or fault resolution, both of which drop
    // the cache; a timer expiry alone can flip a sleeping unit to
    // schedulable, so the cache must not outlive the nearest one.
    let mut valid_until = Cycle::MAX;
    match exec {
        ExecMode::Baseline { warps } => {
            for w in warps {
                if w.is_done() {
                    continue;
                }
                if w.faulted_pages > 0 {
                    note(StallCause::FaultService);
                } else if w.waiting_pages > 0 {
                    note(StallCause::TlbFill);
                } else if w.ready_at > now {
                    valid_until = valid_until.min(w.ready_at);
                    note(w.wait.cause());
                } else {
                    note(StallCause::Throttled);
                }
            }
        }
        ExecMode::Tbc(t) => {
            // TBC unit state is not scanned for a bound; the cache is
            // simply never reused (valid only at the computing cycle).
            valid_until = now;
            t.classify_stall(now, &mut note);
        }
    }
    // No live unit at all (work still queued behind full slots or an
    // empty pipeline between blocks): a dispatch drought.
    (best.unwrap_or(StallCause::Dispatch), valid_until)
}

/// What one round-robin pass over the baseline warps establishes.
struct IssueScan {
    /// The issuing warp's ASID, when one issued.
    issued_asid: Option<u16>,
    /// Whether any warp was schedulable at scan time (a policy-gated
    /// warp counts; this is the pre-issue `could_issue` predicate).
    saw_schedulable: bool,
    /// Liveness observed by the scan — `Some` only when nothing issued,
    /// in which case every warp was visited and no state changed, so
    /// the answer is exact. An issuing scan stops early (and the issued
    /// instruction may retire its warp), so the caller re-checks.
    live_if_unissued: Option<bool>,
    /// Earliest `ready_at` beyond `now` among units that only a timer
    /// (not a fill or fault resolution) keeps from issuing; `Cycle::MAX`
    /// when none. Meaningful only on a no-issue scan.
    next_ready: Cycle,
}

/// Picks and executes one instruction from the baseline warps. The same
/// pass records the schedulability and liveness facts the tick needs,
/// so idle cycles cost one warp scan instead of three.
fn baseline_issue(
    path: &mut MemPath,
    warps: &mut [Warp],
    rr_ptr: &mut usize,
    now: Cycle,
    mem: &mut MemorySystem,
    ctx: &mut RunCtx<'_, '_>,
    obs: &mut Observer,
) -> IssueScan {
    let n = warps.len();
    let mut saw_schedulable = false;
    let mut any_live = false;
    let mut next_ready = Cycle::MAX;
    for off in 0..n {
        let w = (*rr_ptr + off) % n;
        if !warps[w].schedulable(now) {
            let wp = &warps[w];
            if !wp.is_done() {
                any_live = true;
                if wp.waiting_pages == 0 && wp.faulted_pages == 0 && wp.ready_at > now {
                    next_ready = next_ready.min(wp.ready_at);
                }
            }
            continue;
        }
        saw_schedulable = true;
        // CCWS-style throttling gates *memory* instructions: throttled
        // warps may still run ALU/branch work, and a warp with a pending
        // memory instruction replays regardless (it holds MSHRs).
        if warps[w].pending.is_none() && !path.policy.issue_allowed(w as u16) {
            let (pc, _) = warps[w]
                .stack
                .as_ref()
                .and_then(|s| s.current())
                .expect("schedulable implies live");
            if matches!(
                ctx.kernels[warps[w].asid as usize].program().op(pc),
                Op::Mem { .. }
            ) {
                any_live = true;
                continue;
            }
        }
        let asid = warps[w].asid;
        exec_one(path, warps, w, now, mem, ctx, obs);
        *rr_ptr = (w + 1) % n;
        return IssueScan {
            issued_asid: Some(asid),
            saw_schedulable: true,
            live_if_unissued: None,
            next_ready: Cycle::MAX,
        };
    }
    IssueScan {
        issued_asid: None,
        saw_schedulable,
        live_if_unissued: Some(any_live),
        next_ready,
    }
}

/// Executes the next instruction of baseline warp `w` against its
/// tenant's kernel, address space, and iteration-counter slice.
fn exec_one(
    path: &mut MemPath,
    warps: &mut [Warp],
    w: usize,
    now: Cycle,
    mem: &mut MemorySystem,
    ctx: &mut RunCtx<'_, '_>,
    obs: &mut Observer,
) {
    let asid = warps[w].asid;
    let kernel = ctx.kernels[asid as usize];
    let space = ctx.spaces[asid as usize];
    let base = ctx.iters_base[asid as usize];
    let iters = &mut *ctx.iters;
    let num_sites = kernel.program().num_sites().max(1);
    let warp = &mut warps[w];
    let stack = warp.stack.as_mut().expect("schedulable implies live");
    let (pc, mask) = stack.current().expect("schedulable implies live");
    match kernel.program().op(pc) {
        Op::Alu { cycles } => {
            warp.ready_at = now + cycles as u64;
            warp.wait = WaitKind::Pipeline;
            stack.advance(pc + 1);
            path.stats.instructions.inc();
            CoreStats::tenant_counter(&mut path.stats.tenant_instructions, asid).inc();
        }
        Op::Branch {
            site,
            taken_pc,
            reconv_pc,
        } => {
            let mut taken = 0u32;
            for lane in 0..32 {
                if mask & (1 << lane) != 0 {
                    let tid = warp.first_tid + lane;
                    let slot = base + tid as usize * num_sites + site as usize;
                    let iter = iters[slot];
                    iters[slot] += 1;
                    if kernel.branch_taken(tid, site, iter) {
                        taken |= 1 << lane;
                    }
                }
            }
            stack.branch(taken, taken_pc, pc + 1, reconv_pc);
            warp.ready_at = now + path.timings.branch_latency;
            warp.wait = WaitKind::Pipeline;
            path.stats.instructions.inc();
            CoreStats::tenant_counter(&mut path.stats.tenant_instructions, asid).inc();
        }
        Op::Mem { site, kind } => {
            if warp.pending.is_none() {
                let mut accesses = path.grab_accesses();
                for lane in 0..32 {
                    if mask & (1 << lane) != 0 {
                        let tid = warp.first_tid + lane;
                        let slot = base + tid as usize * num_sites + site as usize;
                        let iter = iters[slot];
                        iters[slot] += 1;
                        accesses.push((kernel.mem_addr(tid, site, iter), w as u16));
                    }
                }
                warp.pending = Some(Pending {
                    kind,
                    accesses,
                    tlb_missed: false,
                    overlap_done_at: 0,
                    diverge_recorded: false,
                    touched_dram: false,
                    slept_at: 0,
                });
                path.stats.instructions.inc();
                CoreStats::tenant_counter(&mut path.stats.tenant_instructions, asid).inc();
                path.stats.mem_instructions.inc();
            } else {
                path.stats.replays.inc();
            }
            let mut pending = warp.pending.take().expect("just set");
            match path.issue_mem(now, w as u16, asid, &mut pending, mem, space, obs) {
                MemIssue::Done(ready) => {
                    warp.ready_at = ready;
                    warp.wait = WaitKind::MemData {
                        dram: pending.touched_dram,
                    };
                    warp.stack.as_mut().expect("live warp").advance(pc + 1);
                    path.stash_accesses(pending.accesses);
                }
                MemIssue::WaitTlb(misses) => {
                    warp.waiting_pages = misses;
                    pending.slept_at = now;
                    warp.pending = Some(pending);
                }
                MemIssue::Retry(at) => {
                    warp.ready_at = at;
                    warp.wait = WaitKind::Reject;
                    warp.pending = Some(pending);
                }
            }
        }
    }
}

use gmmu_sim::ckpt::{Ckpt, CkptError, Loader, Saver};

impl Ckpt for MemKind {
    fn save(&self, w: &mut Saver) {
        w.u8(match self {
            MemKind::Load => 0,
            MemKind::Store => 1,
        });
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        *self = match r.u8()? {
            0 => MemKind::Load,
            1 => MemKind::Store,
            _ => return Err(CkptError::Corrupt("unknown memory-op tag")),
        };
        Ok(())
    }
}

impl Ckpt for WaitKind {
    fn save(&self, w: &mut Saver) {
        match self {
            WaitKind::Pipeline => w.u8(0),
            WaitKind::MemData { dram } => {
                w.u8(1);
                w.bool(*dram);
            }
            WaitKind::Reject => w.u8(2),
            WaitKind::Replay => w.u8(3),
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        *self = match r.u8()? {
            0 => WaitKind::Pipeline,
            1 => WaitKind::MemData { dram: r.bool()? },
            2 => WaitKind::Reject,
            3 => WaitKind::Replay,
            _ => return Err(CkptError::Corrupt("unknown wait-kind tag")),
        };
        Ok(())
    }
}

impl Ckpt for Pending {
    fn save(&self, w: &mut Saver) {
        self.kind.save(w);
        self.accesses.save(w);
        w.bool(self.tlb_missed);
        w.u64(self.overlap_done_at);
        w.bool(self.diverge_recorded);
        w.bool(self.touched_dram);
        w.u64(self.slept_at);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.kind.load(r)?;
        self.accesses.load(r)?;
        self.tlb_missed = r.bool()?;
        self.overlap_done_at = r.u64()?;
        self.diverge_recorded = r.bool()?;
        self.touched_dram = r.bool()?;
        self.slept_at = r.u64()?;
        Ok(())
    }
}

impl Ckpt for Warp {
    fn save(&self, w: &mut Saver) {
        w.u16(self.asid);
        w.u32(self.first_tid);
        self.stack.save(w);
        w.u64(self.ready_at);
        self.pending.save(w);
        w.usize(self.waiting_pages);
        w.usize(self.faulted_pages);
        self.wait.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.asid = r.u16()?;
        self.first_tid = r.u32()?;
        self.stack.load(r)?;
        self.ready_at = r.u64()?;
        self.pending.load(r)?;
        self.waiting_pages = r.usize()?;
        self.faulted_pages = r.usize()?;
        self.wait.load(r)
    }
}

impl Ckpt for BlockWork {
    fn save(&self, w: &mut Saver) {
        w.u16(self.asid);
        w.u32(self.first_tid);
        w.u32(self.n_threads);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.asid = r.u16()?;
        self.first_tid = r.u32()?;
        self.n_threads = r.u32()?;
        Ok(())
    }
}

impl Ckpt for CoreStats {
    fn save(&self, w: &mut Saver) {
        self.instructions.save(w);
        self.mem_instructions.save(w);
        self.idle_cycles.save(w);
        self.stall_breakdown.save(w);
        self.live_cycles.save(w);
        self.page_divergence.save(w);
        self.l1_miss_latency.save(w);
        self.replays.save(w);
        self.dwarps_formed.save(w);
        self.blocks_done.save(w);
        self.tenant_instructions.save(w);
        self.tenant_blocks_done.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.instructions.load(r)?;
        self.mem_instructions.load(r)?;
        self.idle_cycles.load(r)?;
        self.stall_breakdown.load(r)?;
        self.live_cycles.load(r)?;
        self.page_divergence.load(r)?;
        self.l1_miss_latency.load(r)?;
        self.replays.load(r)?;
        self.dwarps_formed.load(r)?;
        self.blocks_done.load(r)?;
        self.tenant_instructions.load(r)?;
        self.tenant_blocks_done.load(r)
    }
}

impl Ckpt for MemPath {
    /// `granule` and `timings` are configuration; whether a CPM exists is
    /// too, so its contents appear in the stream only when present. The
    /// coalesce and translate buffers are scratch within one memory issue
    /// and are reset instead of saved.
    fn save(&self, w: &mut Saver) {
        self.mmu.save(w);
        self.l1.save(w);
        self.l1_mshrs.save(w);
        self.policy.save(w);
        if let Some(cpm) = &self.cpm {
            cpm.save(w);
        }
        self.stats.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.mmu.load(r)?;
        self.l1.load(r)?;
        self.l1_mshrs.load(r)?;
        self.policy.load(r)?;
        if let Some(cpm) = &mut self.cpm {
            cpm.load(r)?;
        }
        self.stats.load(r)?;
        self.cbuf.clear();
        self.tbuf = TranslateBuf::new();
        Ok(())
    }
}

impl Ckpt for ShaderCore {
    /// The execution mode's *variant* is configuration (TBC on or off),
    /// so only the active variant's state is serialized. The fault-waiter
    /// map is written sorted by page so hash iteration order never leaks
    /// into the byte stream; the MMU-event drain buffer is transient
    /// within one tick and the next-event memo is a cache, so both are
    /// reset on load.
    fn save(&self, w: &mut Saver) {
        self.path.save(w);
        match &self.exec {
            ExecMode::Baseline { warps } => warps.save(w),
            ExecMode::Tbc(t) => t.save(w),
        }
        w.usize(self.rr_ptr);
        self.block_queue.save(w);
        self.slot_occupied.save(w);
        self.slot_started.save(w);
        self.slot_asid.save(w);
        let mut waiters: Vec<(u64, Vec<u16>)> = self
            .fault_waiters
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        waiters.sort_unstable_by_key(|(k, _)| *k);
        waiters.save(w);
        self.pending_faults.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.path.load(r)?;
        match &mut self.exec {
            ExecMode::Baseline { warps } => warps.load(r)?,
            ExecMode::Tbc(t) => t.load(r)?,
        }
        self.rr_ptr = r.usize()?;
        self.block_queue.load(r)?;
        self.slot_occupied.load(r)?;
        self.slot_started.load(r)?;
        self.slot_asid.load(r)?;
        let mut waiters: Vec<(u64, Vec<u16>)> = Vec::new();
        waiters.load(r)?;
        self.fault_waiters = waiters.into_iter().collect();
        self.pending_faults.load(r)?;
        self.events.clear();
        self.drop_timer_caches();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use gmmu_core::mmu::MmuModel;
    use gmmu_mem::{MemConfig, MemorySystem};
    use gmmu_vm::{PageSize, Region, SpaceConfig};

    /// A trivial streaming kernel: each thread loads 8 bytes from its
    /// own slot, twice, with one ALU op between.
    struct StreamKernel {
        program: Program,
        region: Region,
        threads: u32,
    }

    impl StreamKernel {
        fn new(space: &mut AddressSpace, threads: u32) -> Self {
            let region = space
                .map_region("stream", threads as u64 * 16, PageSize::Base4K)
                .unwrap();
            Self {
                program: Program::new(vec![
                    Op::Mem {
                        site: 0,
                        kind: MemKind::Load,
                    },
                    Op::Alu { cycles: 4 },
                    Op::Mem {
                        site: 1,
                        kind: MemKind::Store,
                    },
                ]),
                region,
                threads,
            }
        }
    }

    impl Kernel for StreamKernel {
        fn name(&self) -> &str {
            "stream-test"
        }
        fn program(&self) -> &Program {
            &self.program
        }
        fn num_threads(&self) -> u32 {
            self.threads
        }
        fn block_threads(&self) -> u32 {
            64
        }
        fn mem_addr(&self, tid: ThreadId, site: u16, _iter: u32) -> VAddr {
            self.region.at(tid as u64 * 16 + site as u64 * 8)
        }
        fn branch_taken(&self, _: ThreadId, _: u16, _: u32) -> bool {
            false
        }
    }

    fn run_core(mmu: MmuModel, threads: u32) -> (ShaderCore, Cycle) {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let kernel = StreamKernel::new(&mut space, threads);
        let mut mem = MemorySystem::new(MemConfig::default());
        let cfg = GpuConfig {
            n_cores: 1,
            warps_per_core: 8,
            warps_per_block: 2,
            mmu,
            ..GpuConfig::default()
        };
        let mut core = ShaderCore::new(0, &cfg);
        let mut iters = vec![0u32; threads as usize * kernel.program().num_sites()];
        for b in 0..threads.div_ceil(64) {
            core.push_block(b * 64, (threads - b * 64).min(64));
        }
        let mut now = 0;
        let mut obs = Observer::off();
        while core.has_work() {
            core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
            now += 1;
            assert!(now < 1_000_000, "core never finished");
        }
        (core, now)
    }

    #[test]
    fn ideal_core_executes_every_instruction() {
        let threads = 256u32;
        let (core, _) = run_core(MmuModel::Ideal, threads);
        // 3 instructions per warp × 8 warps-worth of threads.
        let warps = threads / 32;
        assert_eq!(core.stats().instructions.get(), (warps * 3) as u64);
        assert_eq!(core.stats().mem_instructions.get(), (warps * 2) as u64);
        assert_eq!(core.stats().blocks_done.get(), 4);
    }

    #[test]
    fn real_mmu_is_slower_than_ideal_but_equivalent() {
        let (ideal, t_ideal) = run_core(MmuModel::Ideal, 256);
        let (real, t_real) = run_core(MmuModel::naive(), 256);
        assert_eq!(
            ideal.stats().instructions.get(),
            real.stats().instructions.get(),
            "MMU model must not change the work done"
        );
        assert!(t_real > t_ideal, "TLB misses must cost time");
        let tlb = real.mmu().tlb().unwrap();
        assert!(tlb.misses() > 0);
    }

    #[test]
    fn partial_blocks_execute_partially() {
        let (core, _) = run_core(MmuModel::Ideal, 40); // 1 full warp + 8 threads
        assert_eq!(core.stats().instructions.get(), 2 * 3);
    }

    #[test]
    fn page_divergence_of_streaming_kernel_is_low() {
        let (core, _) = run_core(MmuModel::Ideal, 256);
        // 32 threads × 16 B = 512 B per warp access → 1 page (2 at a
        // boundary).
        assert!(core.stats().page_divergence.mean() <= 2.0);
        assert!(core.stats().page_divergence.max() <= 2);
    }

    #[test]
    fn stall_breakdown_sums_to_idle_cycles() {
        for mmu in [MmuModel::Ideal, MmuModel::naive()] {
            let (core, _) = run_core(mmu, 256);
            let stats = core.stats();
            assert_eq!(
                stats.stall_breakdown.total(),
                stats.idle_cycles.get(),
                "breakdown must refine idle_cycles exactly"
            );
        }
        let (real, _) = run_core(MmuModel::naive(), 256);
        assert!(
            real.stats().stall_breakdown.get(StallCause::TlbFill) > 0,
            "a naive MMU must show TLB-fill stalls"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, ta) = run_core(MmuModel::naive(), 128);
        let (b, tb) = run_core(MmuModel::naive(), 128);
        assert_eq!(ta, tb);
        assert_eq!(a.stats().instructions.get(), b.stats().instructions.get());
        assert_eq!(
            a.mmu().tlb().unwrap().misses(),
            b.mmu().tlb().unwrap().misses()
        );
    }
}
