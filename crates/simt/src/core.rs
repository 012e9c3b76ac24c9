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
use crate::config::{CoreTimings, FaultConfig, GpuConfig, TbcConfig, MAX_WARPS_PER_CORE};
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
    /// demand). Feeds the per-tenant watchdog and slowdown accounting,
    /// which only multi-tenant runs read; a (single-tenant) TBC core
    /// counts everything under ASID 0.
    pub tenant_instructions: Vec<Counter>,
    /// Per-ASID slice of `blocks_done` (index = ASID); TBC cores leave
    /// it empty.
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

    /// Counts `n` live cycles that issued nothing, all held by `cause`.
    fn add_idle(&mut self, cause: StallCause, n: u64) {
        self.live_cycles.add(n);
        self.idle_cycles.add(n);
        self.stall_breakdown.add(cause, n);
    }
}

/// A memory instruction in flight for one warp. It is coalesced once,
/// when generated; rejects and replays re-present its remaining pages,
/// so TLB-miss retries are idempotent.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    pub kind: MemKind,
    /// The instruction's unique pages and lines still to be serviced;
    /// pages served by cache overlap or a fill bypass are removed.
    pub refs: CoalesceBuf,
    /// Whether this instruction has taken a TLB miss (TA-CCWS weighting).
    pub tlb_missed: bool,
    /// Completion of overlap-issued L1 accesses.
    pub overlap_done_at: Cycle,
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

/// The wait state of one scheduling unit — a baseline warp or a TBC
/// dynamic warp. Both modes present pages to the MMU and react to its
/// events through these fields and the transitions below; each mode
/// only adds how its unit steps past a committed instruction.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitState {
    pub ready_at: Cycle,
    pub pending: Option<Pending>,
    /// Pages whose walks are in flight; the unit sleeps until each wakes
    /// it (or faults, or is squashed).
    pub waiting_pages: usize,
    /// Pages whose walks ended in a page fault; the unit is parked until
    /// the modeled CPU fault handler maps them all.
    pub faulted_pages: usize,
    pub wait: WaitKind,
}

impl UnitState {
    /// Arms the issue timer: the unit may issue again at `at`, and until
    /// then `wait` names what holds it.
    pub(crate) fn arm(&mut self, at: Cycle, wait: WaitKind) {
        self.ready_at = at;
        self.wait = wait;
    }

    /// Whether the unit waits on pages (walks or faults), which carry no
    /// timer of their own.
    pub(crate) fn on_pages(&self) -> bool {
        self.waiting_pages > 0 || self.faulted_pages > 0
    }

    /// Whether the unit's own wait state lets it issue at `now`.
    #[cfg(any(test, debug_assertions))]
    fn runnable(&self, now: Cycle) -> bool {
        !self.on_pages() && self.ready_at <= now
    }

    /// Builds (or, on a replay, reuses) the pending memory instruction
    /// of unit `requester`, presents it to the MMU and applies the
    /// outcome. `lanes` — `(address, home static warp)` per active lane,
    /// in lane order — is only drawn on first presentation, which also
    /// counts the instruction. On [`MemIssue::Done`] the caller steps
    /// past the instruction; a [`MemIssue::Retry`] is a bounce.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_mem(
        &mut self,
        path: &mut MemPath,
        now: Cycle,
        kind: MemKind,
        lanes: impl Iterator<Item = (VAddr, u16)>,
        requester: u16,
        asid: u16,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        obs: &mut Observer,
    ) -> MemIssue {
        let mut pending = match self.pending.take() {
            Some(p) => {
                path.stats.replays.inc();
                p
            }
            None => {
                path.count_instruction(asid);
                path.stats.mem_instructions.inc();
                Pending {
                    kind,
                    refs: path.coalesce_new(lanes),
                    ..Pending::default()
                }
            }
        };
        let issue = path.issue_mem(now, requester, asid, &mut pending, mem, space, obs);
        match issue {
            MemIssue::Done(ready) => {
                let dram = pending.touched_dram;
                self.arm(ready, WaitKind::MemData { dram });
                path.stash_refs(pending.refs);
            }
            MemIssue::WaitTlb(misses) => {
                self.waiting_pages = misses;
                pending.slept_at = now;
                self.pending = Some(pending);
            }
            MemIssue::Retry(at) => {
                self.arm(at, WaitKind::Reject);
                self.pending = Some(pending);
            }
        }
        issue
    }

    /// The walk for `vpn` delivered `ppn` to unit `unit`: its lines run
    /// now (fill bypass). Once no page is outstanding the instruction
    /// either commits — `true`, and the caller steps past it — or
    /// re-presents its remaining (TLB-hit) pages next cycle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wake(
        &mut self,
        unit: u16,
        vpn: Vpn,
        ppn: Ppn,
        path: &mut MemPath,
        now: Cycle,
        mem: &mut MemorySystem,
        obs: &mut Observer,
    ) -> bool {
        debug_assert!(self.waiting_pages > 0);
        if let Some(pending) = self.pending.as_mut() {
            path.service_page(now, pending, vpn, ppn, mem);
        }
        self.waiting_pages = self.waiting_pages.saturating_sub(1);
        if self.waiting_pages > 0 {
            return false;
        }
        let core = obs.core;
        let slept = self.pending.as_ref().map_or(now, |p| p.slept_at);
        obs.record(|| Event::WarpSleep {
            core,
            warp: unit,
            vpn: vpn.raw(),
            start: slept,
            end: now,
        });
        match self.pending.take_if(|p| p.refs.pages.is_empty()) {
            Some(p) => {
                let dram = p.touched_dram;
                self.arm(p.overlap_done_at.max(now + 1), WaitKind::MemData { dram });
                path.stash_refs(p.refs);
                true
            }
            None => {
                self.arm(now + 1, WaitKind::Replay);
                false
            }
        }
    }

    /// A walk ended in a page fault: the page moves from the waiting
    /// count to the faulted count, parking the unit until the CPU fault
    /// handler maps it.
    pub(crate) fn fault(&mut self) {
        debug_assert!(self.waiting_pages > 0);
        self.waiting_pages = self.waiting_pages.saturating_sub(1);
        self.faulted_pages += 1;
    }

    /// A TLB shootdown squashed one in-flight walk; with nothing else
    /// outstanding the retained accesses re-present against the flushed
    /// TLB after `backoff`.
    pub(crate) fn squash(&mut self, now: Cycle, backoff: Cycle) {
        self.waiting_pages = self.waiting_pages.saturating_sub(1);
        if !self.on_pages() {
            self.arm(now + backoff.max(1), WaitKind::Reject);
        }
    }

    /// The CPU fault handler mapped one faulted page; with nothing else
    /// outstanding the unit replays its access next cycle.
    pub(crate) fn resolve_fault(&mut self, now: Cycle) {
        debug_assert!(self.faulted_pages > 0);
        self.faulted_pages = self.faulted_pages.saturating_sub(1);
        if !self.on_pages() {
            self.arm(now + 1, WaitKind::Replay);
        }
    }

    /// The wait-state part of the watchdog's per-unit diagnostics line.
    pub(crate) fn describe(&self, now: Cycle) -> String {
        format!(
            "waiting_pages={} faulted_pages={} ready_at={} (now {now}) wait={:?} \
             pending_lines={}",
            self.waiting_pages,
            self.faulted_pages,
            self.ready_at,
            self.wait,
            self.pending.as_ref().map_or(0, |p| p.refs.lines.len()),
        )
    }
}

/// A baseline (non-TBC) warp context.
#[derive(Debug, Clone, Default)]
pub(crate) struct Warp {
    /// The tenant this warp's block belongs to (selects the address
    /// space, kernel, and iteration-slot base in the [`RunCtx`]).
    pub asid: u16,
    pub first_tid: ThreadId,
    pub stack: Option<SimtStack>,
    pub state: UnitState,
}

impl Warp {
    pub(crate) fn is_done(&self) -> bool {
        self.stack.as_ref().is_none_or(|s| s.is_done())
    }

    /// The warp's wait state while it is live.
    fn live_state(&self) -> Option<&UnitState> {
        (!self.is_done()).then_some(&self.state)
    }

    /// The set a from-scratch scan of `warps` at `now` yields.
    #[cfg(any(test, debug_assertions))]
    fn scan(warps: &[Warp], now: Cycle) -> WarpSet {
        WarpSet::recompute(
            warps
                .iter()
                .enumerate()
                .filter_map(|(i, w)| Some((i, w.live_state()?))),
            now,
        )
    }
}

/// The scheduling state of a core's units as `u64` bitsets over slots,
/// so the issue, stall and timer queries of a tick are bit operations
/// instead of scans over the units. A baseline core's slot `i` is warp
/// `i`; a TBC core's slot `b * warps_per_block + p` is the `p`-th unit
/// of block `b`'s top level ([`crate::tbc`]). In both, ascending slot
/// order is issue order. [`WarpSet::sync`] re-reads one slot and must
/// run wherever its unit's liveness, page counts, wait kind or
/// `ready_at` change: block dispatch, the issue step, the MMU's
/// `Wake`/`Fault`/`Squashed` events and fault resolution (TBC also
/// re-reads a block's slots when compaction or a pop changes its top
/// level).
///
/// Runnable units (live, not waiting on a fill, not faulted) split into
/// `due` (`ready_at` reached) and `sleeping`; a sleeper moves to `due`
/// when [`WarpSet::advance`] passes its `ready_at`, and `next_wake` is
/// the earliest sleeper's `ready_at` (`Cycle::MAX` with none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarpSet {
    live: u64,
    /// Waiting on TLB fills.
    waiting: u64,
    /// Parked on page faults.
    faulted: u64,
    pub(crate) due: u64,
    sleeping: u64,
    next_wake: Cycle,
    /// Live units by [`WaitKind`], indexed by the [`StallCause`] each
    /// kind maps to.
    wait: [u64; StallCause::COUNT],
    /// Each live unit's `ready_at`, as of its last sync (0 for a slot
    /// holding no live unit).
    ready_at: [Cycle; MAX_WARPS_PER_CORE],
}

impl WarpSet {
    pub(crate) fn new() -> Self {
        Self {
            live: 0,
            waiting: 0,
            faulted: 0,
            due: 0,
            sleeping: 0,
            next_wake: Cycle::MAX,
            wait: [0; StallCause::COUNT],
            ready_at: [0; MAX_WARPS_PER_CORE],
        }
    }

    /// Re-reads slot `i` at cycle `now`: `unit` is the wait state of
    /// its live unit, `None` when the slot holds none.
    pub(crate) fn sync(&mut self, i: usize, unit: Option<&UnitState>, now: Cycle) {
        let bit = 1u64 << i;
        let was_earliest = self.sleeping & bit != 0 && self.ready_at[i] == self.next_wake;
        self.live &= !bit;
        self.waiting &= !bit;
        self.faulted &= !bit;
        self.due &= !bit;
        self.sleeping &= !bit;
        for m in &mut self.wait {
            *m &= !bit;
        }
        self.ready_at[i] = unit.map_or(0, |st| st.ready_at);
        if let Some(st) = unit {
            self.live |= bit;
            self.wait[st.wait.cause() as usize] |= bit;
            if st.waiting_pages > 0 {
                self.waiting |= bit;
            }
            if st.faulted_pages > 0 {
                self.faulted |= bit;
            }
            if !st.on_pages() {
                if st.ready_at <= now {
                    self.due |= bit;
                } else {
                    self.sleeping |= bit;
                    self.next_wake = self.next_wake.min(st.ready_at);
                }
            }
        }
        if was_earliest {
            self.next_wake = self.earliest(self.sleeping);
        }
    }

    /// The earliest `ready_at` among the warps in `mask`.
    fn earliest(&self, mask: u64) -> Cycle {
        Bits(mask)
            .map(|i| self.ready_at[i])
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// `(due, sleeping, next_wake)` as of cycle `now`, which must not
    /// precede the last sync or advance. Sleepers whose timers expired
    /// by `now` count as due; only then are the sleepers scanned, once,
    /// splitting them into the woken and the earliest still asleep.
    pub(crate) fn at(&self, now: Cycle) -> (u64, u64, Cycle) {
        if self.next_wake > now {
            return (self.due, self.sleeping, self.next_wake);
        }
        let mut woke = 0u64;
        let mut next_wake = Cycle::MAX;
        for i in Bits(self.sleeping) {
            let at = self.ready_at[i];
            if at <= now {
                woke |= 1 << i;
            } else {
                next_wake = next_wake.min(at);
            }
        }
        (self.due | woke, self.sleeping & !woke, next_wake)
    }

    /// Moves every sleeper whose timer expired by `now` to `due`.
    pub(crate) fn advance(&mut self, now: Cycle) {
        (self.due, self.sleeping, self.next_wake) = self.at(now);
    }

    /// The dominant stall cause at `now` of a core that issued nothing
    /// (see [`classify_stall`]): the highest-priority [`StallCause`]
    /// present among the live units. A due warp can only have been
    /// gated by the locality policy, since `baseline_issue` issues the
    /// first due warp that passes the gate; TBC has no gate, so a TBC
    /// core that issued nothing has no due unit.
    pub(crate) fn classify(&self, now: Cycle) -> StallCause {
        let (due, sleeping, _) = self.at(now);
        let by = |c: StallCause| self.wait[c as usize] & sleeping;
        let present = [
            (self.faulted, StallCause::FaultService),
            (self.waiting, StallCause::TlbFill),
            (by(StallCause::MmuReject), StallCause::MmuReject),
            (by(StallCause::Dram), StallCause::Dram),
            (by(StallCause::L1Mshr), StallCause::L1Mshr),
            (by(StallCause::ReplayWake), StallCause::ReplayWake),
            (due, StallCause::Throttled),
            (by(StallCause::Pipeline), StallCause::Pipeline),
        ];
        // No live warp at all (work still queued behind full slots, or
        // an empty pipeline between blocks): a dispatch drought.
        present
            .into_iter()
            .find(|&(mask, _)| mask != 0)
            .map_or(StallCause::Dispatch, |(_, cause)| cause)
    }

    /// The block slots (`wpb` warps each, `n_slots` of them) holding no
    /// live warp, as a slot bitmask.
    fn free_slots(&self, wpb: usize, n_slots: usize) -> u64 {
        let group = low_bits(wpb);
        (0..n_slots)
            .filter(|&s| self.live & (group << (s * wpb)) == 0)
            .fold(0, |m, s| m | 1 << s)
    }

    /// The set a from-scratch scan of the live units — `(slot, wait
    /// state)` each — at `now` yields; the debug-build referee for the
    /// incremental [`WarpSet::sync`].
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn recompute<'a>(
        units: impl Iterator<Item = (usize, &'a UnitState)>,
        now: Cycle,
    ) -> Self {
        let mut s = Self::new();
        for (i, st) in units {
            s.ready_at[i] = st.ready_at;
            let bit = 1u64 << i;
            s.live |= bit;
            s.wait[st.wait.cause() as usize] |= bit;
            if st.faulted_pages > 0 {
                s.faulted |= bit;
            }
            if st.waiting_pages > 0 {
                s.waiting |= bit;
            }
            if st.runnable(now) {
                s.due |= bit;
            } else if !st.on_pages() {
                s.sleeping |= bit;
                s.next_wake = s.next_wake.min(st.ready_at);
            }
        }
        s
    }
}

/// The low `n` bits set (`n <= 64`).
pub(crate) fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The indices of a bitmask's set bits, ascending.
pub(crate) struct Bits(pub(crate) u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// The set bits of `mask` in round-robin order from bit `start`: those
/// at or above `start` ascending, then those below it.
fn rr_order(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    let from = low_bits(start);
    Bits(mask & !from).chain(Bits(mask & from))
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
    Baseline { warps: Vec<Warp>, set: WarpSet },
    Tbc(TbcState),
}

impl ExecMode {
    /// Applies an MMU-driven transition to unit `i`'s wait state at
    /// `now` and re-syncs the unit's slot in its mode's [`WarpSet`].
    fn with_unit(&mut self, i: u16, now: Cycle, f: impl FnOnce(&mut UnitState)) {
        match self {
            ExecMode::Baseline { warps, set } => {
                let w = &mut warps[i as usize];
                f(&mut w.state);
                set.sync(i as usize, w.live_state(), now);
            }
            ExecMode::Tbc(t) => {
                f(&mut t.units[i as usize].state);
                t.sync_unit(i, now);
            }
        }
    }
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

impl RunCtx<'_, '_> {
    /// The index in `iters` of thread `tid`'s counter for site `site`
    /// of tenant `asid`'s kernel.
    fn iter_slot(&self, asid: u16, tid: ThreadId, site: u16) -> usize {
        let num_sites = self.kernels[asid as usize].program().num_sites().max(1);
        self.iters_base[asid as usize] + tid as usize * num_sites + site as usize
    }
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
    pub tbuf: TranslateBuf,
    /// Recycled [`Pending::refs`] allocations: every committed memory
    /// instruction parks its buffer here for the next one, so the issue
    /// path stops allocating per instruction.
    refs_pool: Vec<CoalesceBuf>,
}

impl MemPath {
    /// Coalesces a new memory instruction's lanes — `(address, home
    /// static warp)` each, generated in lane order — into a pooled
    /// buffer and records its page divergence.
    pub(crate) fn coalesce_new(
        &mut self,
        lanes: impl Iterator<Item = (VAddr, u16)>,
    ) -> CoalesceBuf {
        let mut refs = self.refs_pool.pop().unwrap_or_default();
        coalesce_granule(lanes, self.granule, &mut refs);
        self.stats
            .page_divergence
            .record(refs.page_divergence() as u64);
        refs
    }

    /// Parks a committed instruction's buffer for reuse.
    pub(crate) fn stash_refs(&mut self, refs: CoalesceBuf) {
        self.refs_pool.push(refs);
    }

    /// Counts one committed instruction of tenant `asid`.
    pub(crate) fn count_instruction(&mut self, asid: u16) {
        self.stats.instructions.inc();
        CoreStats::tenant_counter(&mut self.stats.tenant_instructions, asid).inc();
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
    /// instruction: the lines on `vpn` run against the memory hierarchy
    /// now and the page is removed from the pending set. This is the
    /// hardware fill-bypass path — the translation is consumed even if
    /// the TLB entry is evicted before the warp is scheduled again.
    pub(crate) fn service_page(
        &mut self,
        now: Cycle,
        pending: &mut Pending,
        vpn: Vpn,
        ppn: Ppn,
        mem: &mut MemorySystem,
    ) -> Cycle {
        let mut done = now;
        let mut dram_seen = false;
        let refs = &pending.refs;
        let page = refs.pages.iter().position(|p| p.vpn == vpn);
        for line in refs
            .lines
            .iter()
            .filter(|l| Some(l.page_idx as usize) == page)
        {
            let pl = phys_line(ppn, line.vline, self.granule);
            match pending.kind {
                MemKind::Load => {
                    let (c, dram) = self.access_line(now, pl, line.warp, pending.tlb_missed, mem);
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
        pending.touched_dram |= dram_seen;
        pending.refs.retain_pages(|p| p.vpn != vpn);
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
        debug_assert!(!pending.refs.pages.is_empty());
        let mut tbuf = std::mem::take(&mut self.tbuf);
        let outcome = self.mmu.translate_tenant(
            now,
            requester,
            asid,
            &pending.refs.pages,
            space,
            &mut tbuf,
            obs,
        );
        let result = match outcome {
            TranslateOutcome::Reject { retry_at } => MemIssue::Retry(retry_at.max(now + 1)),
            TranslateOutcome::AllHit { ready_at } => {
                self.note_hits(&tbuf, &pending.refs);
                let done = self.run_accesses(ready_at, &tbuf, pending, mem, None);
                MemIssue::Done(done.max(pending.overlap_done_at))
            }
            TranslateOutcome::Miss { ready_at, misses } => {
                let replay = pending.tlb_missed;
                pending.tlb_missed = true;
                for &vpn in &tbuf.misses {
                    let home = pending
                        .refs
                        .pages
                        .iter()
                        .find(|p| p.vpn == vpn)
                        .map_or(requester, |p| p.warp);
                    self.policy.on_tlb_miss(home, vpn);
                }
                self.note_hits(&tbuf, &pending.refs);
                // Hit pages proceed to the cache either when the TLB
                // supports cache overlap (Section 6.3), or on a replay —
                // a replay's hits were delivered by the warp's own walks
                // (MSHR fills), so they complete even if a page has
                // since been evicted; this keeps wide-divergence warps
                // making monotonic progress.
                if (self.mmu.cache_overlap() || replay) && !tbuf.hits.is_empty() {
                    let done = self.run_accesses(ready_at, &tbuf, pending, mem, Some(&tbuf.hits));
                    pending.overlap_done_at = pending.overlap_done_at.max(done);
                    pending
                        .refs
                        .retain_pages(|p| !tbuf.hits.iter().any(|t| t.vpn == p.vpn));
                }
                MemIssue::WaitTlb(misses)
            }
        };
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

    /// Runs the L1/store accesses for the pending lines whose pages are
    /// in `only` (or all lines when `only` is `None`); returns the cycle
    /// the last one completes.
    fn run_accesses(
        &mut self,
        at: Cycle,
        tbuf: &TranslateBuf,
        pending: &mut Pending,
        mem: &mut MemorySystem,
        only: Option<&[gmmu_core::mmu::Translation]>,
    ) -> Cycle {
        let translations = only.unwrap_or(&tbuf.hits);
        let mut done = at;
        let mut dram_seen = false;
        let refs = &pending.refs;
        for line in &refs.lines {
            let page = &refs.pages[line.page_idx as usize];
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

/// A block of threads waiting to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Baseline mode: which block slots currently hold a live block
    /// (bit = slot).
    slot_occupied: u64,
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
    /// The last tick's issue: the issuing unit's ASID (0 on a TBC core)
    /// and whether the MMU rejected its access; `None` when it issued
    /// nothing. [`ShaderCore::run_ahead`] starts only after an issue,
    /// and [`ShaderCore::next_event_at`] reads whether one happened.
    last_issue: Option<(u16, bool)>,
    /// Baseline mode: the warps live at the last reap plus every warp of
    /// a block dispatched since. A slot can only have retired if one of
    /// these is no longer live.
    live_at_reap: u64,
}

impl ShaderCore {
    /// Builds a core from the GPU configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        assert!(
            (1..=MAX_WARPS_PER_CORE).contains(&cfg.warps_per_core),
            "warps_per_core = {} is outside 1..={MAX_WARPS_PER_CORE}: the warp scheduler \
             keeps a core's warps in u64 bitsets",
            cfg.warps_per_core
        );
        let cpm = cfg.tbc.as_ref().and_then(|t: &TbcConfig| {
            t.tlb_aware
                .then(|| CommonPageMatrix::new(cfg.warps_per_core, t.cpm))
        });
        let exec = match &cfg.tbc {
            None => ExecMode::Baseline {
                warps: vec![Warp::default(); cfg.warps_per_core],
                set: WarpSet::new(),
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
                tbuf: TranslateBuf::new(),
                refs_pool: Vec::new(),
            },
            exec,
            rr_ptr: 0,
            block_queue: std::collections::VecDeque::new(),
            slot_occupied: 0,
            slot_started: vec![0; cfg.warps_per_core / cfg.warps_per_block],
            slot_asid: vec![0; cfg.warps_per_core / cfg.warps_per_block],
            events: Vec::new(),
            fault: cfg.fault,
            fault_waiters: std::collections::HashMap::new(),
            pending_faults: Vec::new(),
            last_issue: None,
            live_at_reap: 0,
        }
    }

    /// Queues a thread block for execution on this core.
    pub fn push_block(&mut self, first_tid: ThreadId, n_threads: u32) {
        self.push_block_asid(0, first_tid, n_threads);
    }

    /// Queues tenant `asid`'s thread block for execution on this core.
    pub fn push_block_asid(&mut self, asid: u16, first_tid: ThreadId, n_threads: u32) {
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

    /// Whether the core still has work (live units or queued blocks).
    pub fn has_work(&self) -> bool {
        if !self.block_queue.is_empty() {
            return true;
        }
        self.has_live_units()
    }

    /// Whether any warp (TBC: any block) is still live.
    fn has_live_units(&self) -> bool {
        match &self.exec {
            ExecMode::Baseline { set, .. } => set.live != 0,
            ExecMode::Tbc(t) => t.has_work(),
        }
    }

    /// Baseline mode: the block slots holding no block. Between ticks
    /// these are exactly the slots with no live warp: a warp comes alive
    /// only when its block is dispatched into an unoccupied slot, and the
    /// tick that retires a slot's last warp reaps the slot.
    fn free_slots(&self) -> u64 {
        low_bits(self.slot_started.len()) & !self.slot_occupied
    }

    /// Marks finished baseline block slots as free and counts them. Only
    /// a tick that retired a warp (or dispatched a block) can free one.
    fn reap_blocks(&mut self, now: Cycle, obs: &mut Observer) {
        if let ExecMode::Baseline { set, .. } = &self.exec {
            let lost = self.live_at_reap & !set.live;
            self.live_at_reap = set.live;
            if lost == 0 {
                return;
            }
            let wpb = self.warps_per_block;
            let retired = set.free_slots(wpb, self.slot_started.len()) & self.slot_occupied;
            let core = self.id as u32;
            for slot in Bits(retired) {
                self.slot_occupied &= !(1 << slot);
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

    /// Whether a queued block has a free slot to go to: the next tick
    /// dispatches it.
    fn can_dispatch(&self) -> bool {
        !self.block_queue.is_empty()
            && match &self.exec {
                ExecMode::Baseline { .. } => self.free_slots() != 0,
                ExecMode::Tbc(t) => t.has_free_slot(),
            }
    }

    /// Fills free block slots from the queue. `kernels` is indexed by
    /// each queued block's ASID.
    fn dispatch_blocks(&mut self, kernels: &[&dyn Kernel], now: Cycle) {
        // Finished slots were reaped at the end of the tick that retired
        // them (nothing changes between ticks), so dispatch only needs
        // to look for free slots when there is something to place.
        if self.block_queue.is_empty() {
            return;
        }
        let free = self.free_slots();
        match &mut self.exec {
            ExecMode::Baseline { warps, set } => {
                let wpb = self.warps_per_block;
                debug_assert_eq!(free, set.free_slots(wpb, warps.len() / wpb));
                for slot in Bits(free) {
                    let Some(block) = self.block_queue.pop_front() else {
                        break;
                    };
                    let end_pc = kernels[block.asid as usize].program().end_pc();
                    self.slot_occupied |= 1 << slot;
                    self.live_at_reap |= low_bits(wpb) << (slot * wpb);
                    self.slot_started[slot] = now;
                    self.slot_asid[slot] = block.asid;
                    for i in 0..wpb {
                        let first = block.first_tid + (i as u32) * 32;
                        let in_block = block.n_threads.saturating_sub((i as u32) * 32).min(32);
                        let w = Warp {
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
                            state: UnitState::default(),
                        };
                        set.sync(slot * wpb + i, w.live_state(), now);
                        warps[slot * wpb + i] = w;
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
                tbc.dispatch_blocks(&mut self.block_queue, end_pc, now);
            }
        }
    }

    /// The earliest cycle after `now` (the cycle just ticked) at which
    /// this core could make progress, or `None` when it has no work.
    ///
    /// Sources, mirroring exactly what [`ShaderCore::tick`] reacts to:
    /// walk completions and freed walker lanes (the MMU), sleeping
    /// warps' `ready_at` timers, the policy's next score-decay epoch
    /// (which can release throttled warps), and block dispatch into a
    /// free slot. Warps waiting on pages carry no timer of their own —
    /// the MMU fill that wakes them is already a candidate. A tick that
    /// issued leaves a core due again at `now + 1` only while a unit is
    /// still due, or, on a TBC core, while a block's maintenance would
    /// pop or compact on the next tick.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut next = self.compute_core_timers(now)?;
        if let Some(c) = self.path.mmu.next_event_at() {
            next = next.min(c.max(now + 1));
        }
        // A live core with no discernible timer must not be skipped
        // past (defensive: guarantees forward progress).
        Some(if next == Cycle::MAX { now + 1 } else { next })
    }

    /// The core-local timer sources: unit `ready_at` timers, the policy
    /// decay epoch that may release a throttled unit, TBC block
    /// maintenance, and dispatch into a free slot. `None` when the core
    /// has no work at all. Every returned cycle exceeds `now` (timers
    /// beyond `now`, `now + 1` floors).
    ///
    /// A TBC core that issued sleeps like a baseline core: its issue
    /// changed one unit, which its slot mirrors, and marked that unit's
    /// block dirty. Maintenance state changes only in an issuing tick or
    /// a `Wake` step, and a tick handles its wakes before it maintains,
    /// so unless the dirty block would pop or compact on the next tick,
    /// no tick before the next unit or MMU timer can act.
    fn compute_core_timers(&self, now: Cycle) -> Option<Cycle> {
        if !self.has_work() {
            return None;
        }
        let mut next = match &self.exec {
            ExecMode::Baseline { set, .. } => {
                let (due, _, next_wake) = set.at(now);
                if due == 0 {
                    next_wake
                } else if self.last_issue.is_some() {
                    // A due warp lost the one issue slot, or the issue
                    // may have opened the policy gate.
                    now + 1
                } else {
                    // Schedulable yet nothing issued: the locality
                    // policy gated it; the next decay epoch may release
                    // it.
                    let decay = self.path.policy.next_event_at().unwrap_or(now + 1);
                    next_wake.min(decay.max(now + 1))
                }
            }
            ExecMode::Tbc(t) => {
                let (due, _, next_wake) = t.set.at(now);
                // A due unit lost the one issue slot, or a dirty block
                // pops or compacts on the next tick.
                if due != 0 || t.upkeep_due() {
                    now + 1
                } else {
                    next_wake
                }
            }
        };
        if self.can_dispatch() {
            next = now + 1;
        }
        Some(next)
    }

    /// Accounts `skipped` cycles this core slept through exactly as
    /// per-cycle ticking would have: every such cycle is, because the
    /// core's wake cycle bounds its sleep, a live-but-idle cycle
    /// (liveness cannot change without an event, and events bound the
    /// sleep). `now` is the first skipped cycle; the stall cause
    /// classified there holds for the whole span — no unit's timer
    /// expires inside it, no fill or wake lands, and a policy gate
    /// stays closed until at least the bounding decay epoch — so
    /// charging the span to one cause matches what per-cycle ticking
    /// would have recorded.
    pub fn note_idle_skip(&mut self, now: Cycle, skipped: u64) {
        if self.has_live_units() {
            let cause = classify_stall(&self.exec, now);
            self.path.stats.add_idle(cause, skipped);
        }
    }

    /// Squashes tenant `asid`'s in-flight walks and flushes its TLB
    /// entries (or, in flush-on-switch mode, the whole TLB when the
    /// victim is resident) in response to a shootdown epoch bump; the
    /// resulting [`MmuEvent::Squashed`] events drain on this core's next
    /// tick.
    pub fn shootdown(&mut self, asid: u16) {
        self.path.mmu.shootdown(asid);
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
    /// pages replay their access next cycle. Returns whether any unit
    /// was parked on the page (the core must then be ticked at `now`).
    pub(crate) fn resolve_fault(&mut self, asid: u16, vpn: Vpn, now: Cycle) -> bool {
        let Some(waiters) = self
            .fault_waiters
            .remove(&gmmu_mem::mshr::tenant_key(asid, vpn.raw()))
        else {
            return false;
        };
        for unit in waiters {
            self.exec.with_unit(unit, now, |u| u.resolve_fault(now));
        }
        #[cfg(debug_assertions)]
        self.check_warp_set(now);
        true
    }

    /// Debug builds: asserts the incremental [`WarpSet`], advanced to
    /// `now`, equals a from-scratch scan of the units at `now` (TBC:
    /// of the blocks' top levels, with every clean block needing no
    /// maintenance). The per-cycle referee shares the set with the skip
    /// loop, so loop agreement alone cannot catch a stale bit.
    #[cfg(debug_assertions)]
    fn check_warp_set(&self, now: Cycle) {
        let (set, scan) = match &self.exec {
            ExecMode::Baseline { warps, set } => (set, Warp::scan(warps, now)),
            ExecMode::Tbc(t) => (&t.set, t.scan(now)),
        };
        let mut advanced = set.clone();
        advanced.advance(now);
        assert_eq!(
            advanced, scan,
            "core {}: warp-set mirror went stale at cycle {now}",
            self.id
        );
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
            ExecMode::Baseline { warps, .. } => warps
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
            ExecMode::Baseline { warps, .. } => {
                for (i, w) in warps.iter().enumerate() {
                    if w.is_done() {
                        continue;
                    }
                    let _ = writeln!(s, "  warp {i} (asid {}): {}", w.asid, w.state.describe(now));
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
        self.dispatch_blocks(ctx.kernels, now);
        let path = &mut self.path;
        // Catch up the decay epochs strictly before `now` first: a core
        // that slept across an epoch must decay its scores before this
        // cycle's MMU events bump them, as ticking every cycle does.
        path.policy.tick(now.saturating_sub(1));
        if let Some(cpm) = path.cpm.as_mut() {
            cpm.tick(now.saturating_sub(1));
        }
        path.l1_mshrs.expire(now);
        path.mmu.advance_tenants(now, mem, ctx.spaces, obs);
        self.events.clear();
        self.events.extend(path.mmu.events());
        for ev in &self.events {
            match *ev {
                MmuEvent::Evicted { vpn, owner, .. } => path.policy.on_tlb_evict(owner, vpn),
                MmuEvent::Wake { warp, vpn, ppn, .. } => match &mut self.exec {
                    ExecMode::Baseline { warps, set } => {
                        let w = &mut warps[warp as usize];
                        if w.state.wake(warp, vpn, ppn, path, now, mem, obs) {
                            let stack = w.stack.as_mut().expect("waiting warp is live");
                            let (pc, _) = stack.current().expect("live");
                            stack.advance(pc + 1);
                        }
                        set.sync(warp as usize, w.live_state(), now);
                    }
                    ExecMode::Tbc(t) => {
                        let u = &mut t.units[warp as usize];
                        if u.state.wake(warp, vpn, ppn, path, now, mem, obs) {
                            t.step_woken(warp);
                        }
                        t.sync_unit(warp, now);
                    }
                },
                MmuEvent::Fault { asid, vpn, warp } => {
                    if !self.fault.demand_paging {
                        panic!("GPU page fault on {vpn}: workloads must pre-map their regions")
                    }
                    self.exec.with_unit(warp, now, UnitState::fault);
                    let waiters = self
                        .fault_waiters
                        .entry(gmmu_mem::mshr::tenant_key(asid, vpn.raw()))
                        .or_default();
                    if waiters.is_empty() {
                        self.pending_faults.push((asid, vpn));
                    }
                    waiters.push(warp);
                }
                MmuEvent::Squashed { warp, .. } => {
                    let backoff = self.fault.shootdown_backoff;
                    self.exec.with_unit(warp, now, |u| u.squash(now, backoff));
                }
            }
        }
        path.policy.tick(now);
        if let Some(cpm) = path.cpm.as_mut() {
            cpm.tick(now);
        }

        let (issued, live) = match &mut self.exec {
            ExecMode::Baseline { warps, set } => {
                set.advance(now);
                let issue = baseline_issue(path, warps, set, &mut self.rr_ptr, now, mem, ctx, obs);
                self.last_issue = issue;
                let issued = issue.map_or(0, |(asid, _)| 1u64 << (asid as u32 & 63));
                (issued, set.live != 0)
            }
            ExecMode::Tbc(t) => {
                debug_assert_eq!(ctx.spaces.len(), 1, "TBC is single-tenant");
                let bounced = t.issue(
                    path,
                    now,
                    mem,
                    ctx.spaces[0],
                    ctx.kernels[0],
                    ctx.iters,
                    obs,
                );
                self.last_issue = bounced.map(|b| (0, b));
                (u64::from(bounced.is_some()), t.has_work())
            }
        };
        if live {
            if issued == 0 {
                path.stats.add_idle(classify_stall(&self.exec, now), 1);
            } else {
                path.stats.live_cycles.inc();
            }
        }
        self.reap_blocks(now, obs);
        #[cfg(debug_assertions)]
        self.check_warp_set(now);
        issued
    }

    /// Runs the core ahead after a tick at `now` that issued: commits in
    /// place each following cycle whose tick would touch no shared
    /// state, and returns the last cycle committed and the last that
    /// issued (both `now` when none). The drive loop then counts the
    /// core as ticked through the first and as issuing through the
    /// second.
    ///
    /// A baseline core commits each cycle whose tick would
    /// - bounce: the warp it picks (the first due warp in round-robin
    ///   order that the policy lets issue) holds a pending access that
    ///   [`Mmu::probe_reject`] rejects — a replay, a live cycle, the
    ///   reject count, the backoff timer;
    /// - issue an ALU or branch instruction that leaves its warp live;
    /// - issue nothing, in a gap up to the next sleeper's `ready_at`,
    ///   charged to the stall cause classified at its first cycle as
    ///   [`ShaderCore::note_idle_skip`] does.
    ///
    /// Every committed issue is one of the tenant that issued at `now`,
    /// so the per-tenant progress clocks stay exact. It stops at the
    /// first cycle whose tick would issue a memory instruction or a
    /// replay the MMU accepts, or retire a warp (so reaping, dispatch
    /// and block-retire events stay in regular ticks). A TBC core only
    /// commits the bounces of a tick that bounced
    /// (`TbcState::bounce_ahead`). Either run stops before `limit` (the
    /// drive loop's global timers), before the MMU's next fill or walk
    /// start and before the next policy decay or CPM flush epoch. It
    /// does not start while a queued block has a free slot or, on a TBC
    /// core, while a dirty block would pop or compact: nothing else a
    /// tick reacts to can change inside it.
    pub fn run_ahead(
        &mut self,
        now: Cycle,
        limit: Cycle,
        ctx: &mut RunCtx<'_, '_>,
    ) -> (Cycle, Cycle) {
        let Some((asid, bounced)) = self.last_issue else {
            return (now, now);
        };
        if self.can_dispatch() {
            return (now, now);
        }
        let path = &mut self.path;
        let end = [
            path.mmu.next_event_at(),
            path.policy.next_event_at(),
            path.cpm.as_ref().map(CommonPageMatrix::next_event_at),
        ]
        .into_iter()
        .flatten()
        .fold(limit, Cycle::min);
        let (last, issued) = match &mut self.exec {
            ExecMode::Baseline { warps, set } => {
                baseline_run_ahead(path, warps, set, &mut self.rr_ptr, asid, now, end, ctx)
            }
            ExecMode::Tbc(t) if bounced => {
                let last = t.bounce_ahead(path, now, end);
                (last, last)
            }
            ExecMode::Tbc(_) => (now, now),
        };
        // The set stands advanced to `last + 1`, the cycle the core
        // ticks next.
        #[cfg(debug_assertions)]
        self.check_warp_set(last + 1);
        (last, issued)
    }
}

/// Names the dominant blocker of a live-but-idle cycle: every non-done
/// unit maps to one [`StallCause`] from its wait state, and the
/// highest-priority cause present wins ([`StallCause`] declaration
/// order). A schedulable-yet-unissued unit can only have been gated by
/// the locality policy, so it classifies as `Throttled` without
/// consulting (and perturbing) the policy.
fn classify_stall(exec: &ExecMode, now: Cycle) -> StallCause {
    match exec {
        ExecMode::Baseline { set, .. } => set.classify(now),
        ExecMode::Tbc(t) => {
            debug_assert_eq!(t.set.at(now).0, 0, "a due TBC unit always issues");
            t.set.classify(now)
        }
    }
}

/// The warp a baseline tick issues from: the first due warp in
/// round-robin order from `rr_ptr` that the locality policy lets issue.
/// CCWS-style throttling gates *memory* instructions: throttled warps
/// may still run ALU/branch work, and a warp with a pending memory
/// instruction replays regardless (it holds MSHRs).
fn baseline_pick(
    path: &mut MemPath,
    warps: &[Warp],
    due: u64,
    rr_ptr: usize,
    kernels: &[&dyn Kernel],
) -> Option<usize> {
    rr_order(due, rr_ptr).find(|&w| {
        warps[w].state.pending.is_some()
            || path.policy.issue_allowed(w as u16)
            || !matches!(next_op(&warps[w], kernels).2, Op::Mem { .. })
    })
}

/// Picks and executes one instruction from the baseline warps
/// ([`baseline_pick`]). Returns the issuing warp's ASID and whether the
/// MMU rejected its access.
#[allow(clippy::too_many_arguments)]
fn baseline_issue(
    path: &mut MemPath,
    warps: &mut [Warp],
    set: &mut WarpSet,
    rr_ptr: &mut usize,
    now: Cycle,
    mem: &mut MemorySystem,
    ctx: &mut RunCtx<'_, '_>,
    obs: &mut Observer,
) -> Option<(u16, bool)> {
    let w = baseline_pick(path, warps, set.due, *rr_ptr, ctx.kernels)?;
    let asid = warps[w].asid;
    let bounced = exec_one(path, warps, w, now, mem, ctx, obs);
    set.sync(w, warps[w].live_state(), now);
    *rr_ptr = (w + 1) % warps.len();
    Some((asid, bounced))
}

/// The baseline half of [`ShaderCore::run_ahead`]: from `now + 1` up to
/// `end`, commits each cycle that bounces, issues an ALU or branch
/// instruction of tenant `asid` that leaves its warp live, or issues
/// nothing. Returns the last cycle committed and the last that issued.
#[allow(clippy::too_many_arguments)]
fn baseline_run_ahead(
    path: &mut MemPath,
    warps: &mut [Warp],
    set: &mut WarpSet,
    rr_ptr: &mut usize,
    asid: u16,
    now: Cycle,
    end: Cycle,
    ctx: &mut RunCtx<'_, '_>,
) -> (Cycle, Cycle) {
    if set.live == 0 {
        return (now, now);
    }
    let mut issued = now;
    let mut c = now + 1;
    while c < end {
        set.advance(c);
        let Some(w) = baseline_pick(path, warps, set.due, *rr_ptr, ctx.kernels) else {
            // Nothing issues until a sleeper wakes, and nothing else a
            // tick reacts to changes before `end`.
            let to = set.next_wake.min(end);
            path.stats.add_idle(set.classify(c), to - c);
            c = to;
            continue;
        };
        let warp = &mut warps[w];
        if warp.asid != asid {
            break;
        }
        if let Some(pending) = &warp.state.pending {
            let Some(retry_at) = path
                .mmu
                .probe_reject(c, w as u16, asid, &pending.refs.pages)
            else {
                break;
            };
            path.stats.replays.inc();
            warp.state.arm(retry_at.max(c + 1), WaitKind::Reject);
        } else {
            let (pc, mask, op) = next_op(warp, ctx.kernels);
            let taken = branch_outcome(warp, mask, op, ctx);
            let stack = warp.stack.as_ref().expect("due implies live");
            let retires = match op {
                Op::Mem { .. } => break,
                Op::Alu { .. } => stack.advance_finishes(pc + 1),
                Op::Branch {
                    taken_pc,
                    reconv_pc,
                    ..
                } => stack.branch_finishes(taken, taken_pc, pc + 1, reconv_pc),
            };
            if retires {
                break;
            }
            commit_compute(path, warp, pc, mask, op, taken, c, ctx);
        }
        path.stats.live_cycles.inc();
        set.sync(w, warp.live_state(), c);
        *rr_ptr = (w + 1) % warps.len();
        issued = c;
        c += 1;
    }
    (c - 1, issued)
}

/// The pc, active mask and instruction a live baseline warp executes
/// next.
fn next_op(warp: &Warp, kernels: &[&dyn Kernel]) -> (u32, u32, Op) {
    let (pc, mask) = warp
        .stack
        .as_ref()
        .and_then(SimtStack::current)
        .expect("due implies live");
    (pc, mask, kernels[warp.asid as usize].program().op(pc))
}

/// The lanes of `mask` that take `op` when it is a branch of `warp`
/// (0 for any other instruction), read at each lane's current iteration
/// without advancing it.
fn branch_outcome(warp: &Warp, mask: u32, op: Op, ctx: &RunCtx<'_, '_>) -> u32 {
    let Op::Branch { site, .. } = op else {
        return 0;
    };
    let kernel = ctx.kernels[warp.asid as usize];
    Bits(mask as u64)
        .filter(|&lane| {
            let tid = warp.first_tid + lane as u32;
            let iter = ctx.iters[ctx.iter_slot(warp.asid, tid, site)];
            kernel.branch_taken(tid, site, iter)
        })
        .fold(0, |taken, lane| taken | 1 << lane)
}

/// Commits ALU or branch instruction `op` at `pc` of `warp` at `now`: a
/// branch sends the lanes in `taken` to its target and advances each
/// active lane's iteration counter for its site; either arms the
/// pipeline timer and counts the instruction.
#[allow(clippy::too_many_arguments)]
fn commit_compute(
    path: &mut MemPath,
    warp: &mut Warp,
    pc: u32,
    mask: u32,
    op: Op,
    taken: u32,
    now: Cycle,
    ctx: &mut RunCtx<'_, '_>,
) {
    let stack = warp.stack.as_mut().expect("due implies live");
    let latency = match op {
        Op::Alu { cycles } => {
            stack.advance(pc + 1);
            cycles as Cycle
        }
        Op::Branch {
            site,
            taken_pc,
            reconv_pc,
        } => {
            for lane in Bits(mask as u64) {
                let slot = ctx.iter_slot(warp.asid, warp.first_tid + lane as u32, site);
                ctx.iters[slot] += 1;
            }
            stack.branch(taken, taken_pc, pc + 1, reconv_pc);
            path.timings.branch_latency
        }
        Op::Mem { .. } => unreachable!("a memory instruction is not committed here"),
    };
    warp.state.arm(now + latency, WaitKind::Pipeline);
    path.count_instruction(warp.asid);
}

/// Executes the next instruction of baseline warp `w` against its
/// tenant's kernel, address space, and iteration-counter slice.
/// Returns whether the MMU rejected (bounced) a memory access.
fn exec_one(
    path: &mut MemPath,
    warps: &mut [Warp],
    w: usize,
    now: Cycle,
    mem: &mut MemorySystem,
    ctx: &mut RunCtx<'_, '_>,
    obs: &mut Observer,
) -> bool {
    let warp = &mut warps[w];
    let (pc, mask, op) = next_op(warp, ctx.kernels);
    let Op::Mem { site, kind } = op else {
        let taken = branch_outcome(warp, mask, op, ctx);
        commit_compute(path, warp, pc, mask, op, taken, now, ctx);
        return false;
    };
    let asid = warp.asid;
    let kernel = ctx.kernels[asid as usize];
    let space = ctx.spaces[asid as usize];
    let base = ctx.iters_base[asid as usize];
    let num_sites = kernel.program().num_sites().max(1);
    let iters = &mut *ctx.iters;
    let first_tid = warp.first_tid;
    let lanes = Bits(mask as u64).map(|lane| {
        let tid = first_tid + lane as u32;
        let slot = base + tid as usize * num_sites + site as usize;
        let iter = iters[slot];
        iters[slot] += 1;
        (kernel.mem_addr(tid, site, iter), w as u16)
    });
    let issue = warp
        .state
        .issue_mem(path, now, kind, lanes, w as u16, asid, mem, space, obs);
    if let MemIssue::Done(_) = issue {
        let stack = warp.stack.as_mut().expect("schedulable implies live");
        stack.advance(pc + 1);
    }
    matches!(issue, MemIssue::Retry(_))
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

    /// A compute kernel whose warps end on an ALU instruction: each lane
    /// loops `tid % 3` extra times over an ALU op and a branch, so the
    /// loop branch diverges, then runs one ALU op (the retiring one).
    struct LoopKernel {
        program: Program,
    }

    impl Kernel for LoopKernel {
        fn name(&self) -> &str {
            "loop-test"
        }
        fn program(&self) -> &Program {
            &self.program
        }
        fn num_threads(&self) -> u32 {
            256
        }
        fn block_threads(&self) -> u32 {
            64
        }
        fn mem_addr(&self, _: ThreadId, site: u16, _: u32) -> VAddr {
            unreachable!("loop-test has no memory site {site}")
        }
        fn branch_taken(&self, tid: ThreadId, _: u16, iter: u32) -> bool {
            iter < tid % 3
        }
    }

    /// Runs `LoopKernel` on one ideal core, ticking every cycle and, when
    /// `ahead` is set, running the core ahead after each issue with a
    /// limit a few cycles out. Checks that every run stops before its
    /// limit and retires no warp, and returns the core and its finish
    /// cycle.
    fn run_loop_core(ahead: bool) -> (ShaderCore, Cycle) {
        let kernel = LoopKernel {
            program: Program::new(vec![
                Op::Alu { cycles: 3 },
                Op::Branch {
                    site: 0,
                    taken_pc: 0,
                    reconv_pc: 2,
                },
                Op::Alu { cycles: 1 },
            ]),
        };
        let space = AddressSpace::new(SpaceConfig::default());
        let mut mem = MemorySystem::new(MemConfig::default());
        let cfg = GpuConfig {
            n_cores: 1,
            warps_per_core: 8,
            warps_per_block: 2,
            ..GpuConfig::default()
        };
        let mut core = ShaderCore::new(0, &cfg);
        for b in 0..4 {
            core.push_block(b * 64, 64);
        }
        let mut iters = vec![0u32; 256];
        let mut obs = Observer::off();
        let (mut now, mut runs) = (0, 0);
        while core.has_work() {
            let issued = core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
            if ahead && issued {
                let live = |core: &ShaderCore| match &core.exec {
                    ExecMode::Baseline { set, .. } => set.live,
                    ExecMode::Tbc(_) => unreachable!("baseline core"),
                };
                let before = live(&core);
                let limit = now + 2 + now % 11;
                let mut ctx = RunCtx {
                    spaces: &[&space],
                    kernels: &[&kernel],
                    iters: &mut iters,
                    iters_base: &[0],
                };
                let (last, issued_at) = core.run_ahead(now, limit, &mut ctx);
                assert!(last < limit, "ran to {last} past limit {limit}");
                assert!(issued_at <= last);
                assert_eq!(live(&core), before, "a warp retired ahead of {last}");
                runs += u64::from(last > now);
                now = last;
            }
            now += 1;
            assert!(now < 100_000, "core never finished");
        }
        assert!(!ahead || runs > 0, "the core never ran ahead");
        (core, now)
    }

    #[test]
    fn running_ahead_matches_ticking_and_stops_at_limits_and_retires() {
        let (reference, t_ref) = run_loop_core(false);
        let (ahead, t_ahead) = run_loop_core(true);
        assert_eq!(t_ahead, t_ref);
        let (a, r) = (ahead.stats(), reference.stats());
        assert_eq!(a.instructions.get(), r.instructions.get());
        assert_eq!(a.live_cycles.get(), r.live_cycles.get());
        assert_eq!(a.idle_cycles.get(), r.idle_cycles.get());
        assert_eq!(a.stall_breakdown, r.stall_breakdown);
        assert_eq!(a.blocks_done.get(), 4);
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
    fn round_robin_bit_order_wraps_at_rr_ptr() {
        let n = 48;
        let reference = |mask: u64, start: usize| -> Vec<usize> {
            (0..n)
                .map(|off| (start + off) % n)
                .filter(|&w| mask & (1 << w) != 0)
                .collect()
        };
        let sparse = 1 << 0 | 1 << 5 | 1 << 20 | 1 << 47;
        assert_eq!(rr_order(sparse, 21).collect::<Vec<_>>(), [47, 0, 5, 20]);
        assert_eq!(rr_order(sparse, 47).collect::<Vec<_>>(), [47, 0, 5, 20]);
        assert_eq!(rr_order(sparse, 5).collect::<Vec<_>>(), [5, 20, 47, 0]);
        let all = low_bits(n);
        let from_30: Vec<usize> = (30..48).chain(0..30).collect();
        assert_eq!(rr_order(all, 30).collect::<Vec<_>>(), from_30);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for start in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mask = x & all;
            assert_eq!(
                rr_order(mask, start).collect::<Vec<_>>(),
                reference(mask, start)
            );
        }
    }

    fn live_warp(ready_at: Cycle) -> Warp {
        Warp {
            stack: Some(SimtStack::new(u32::MAX, 4)),
            state: UnitState {
                ready_at,
                ..UnitState::default()
            },
            ..Warp::default()
        }
    }

    #[test]
    fn next_wake_follows_the_earliest_sleeper() {
        let mut warps: Vec<Warp> = vec![Warp::default(); 48];
        let mut set = WarpSet::new();
        for (i, at) in [(3, 10), (17, 20), (40, 30)] {
            warps[i] = live_warp(at);
            set.sync(i, warps[i].live_state(), 0);
        }
        assert_eq!(set, Warp::scan(&warps, 0));
        assert_eq!(set.next_wake, 10);

        // The earliest sleeper wakes.
        set.advance(10);
        assert_eq!(set.due, 1 << 3);
        assert_eq!(set.next_wake, 20);
        assert_eq!(set, Warp::scan(&warps, 10));

        // The earliest sleeper is re-armed past the next one.
        warps[17].state.ready_at = 50;
        set.sync(17, warps[17].live_state(), 11);
        assert_eq!(set.next_wake, 30);
        assert_eq!(set, Warp::scan(&warps, 11));

        // The earliest sleeper retires.
        warps[40].stack = None;
        set.sync(40, warps[40].live_state(), 12);
        assert_eq!(set.next_wake, 50);
        assert_eq!(set.live, 1 << 3 | 1 << 17);
        assert_eq!(set, Warp::scan(&warps, 12));

        // The earliest sleeper starts waiting on a fill; none is left.
        warps[17].state.waiting_pages = 1;
        set.sync(17, warps[17].live_state(), 13);
        assert_eq!(set.next_wake, Cycle::MAX);
        assert_eq!(set, Warp::scan(&warps, 13));
        assert_eq!(set.classify(13), StallCause::TlbFill);
    }

    #[test]
    fn oversized_warp_count_is_refused_with_a_clear_message() {
        for bad in [0, MAX_WARPS_PER_CORE + 1] {
            let cfg = GpuConfig {
                n_cores: 1,
                warps_per_core: bad,
                ..GpuConfig::default()
            };
            let err =
                std::panic::catch_unwind(|| ShaderCore::new(0, &cfg)).expect_err("must refuse");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("warps_per_core"), "unclear panic: {msg:?}");
        }
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
