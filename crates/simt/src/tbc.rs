//! Thread block compaction (Section 8).
//!
//! TBC [18] exploits control-flow locality within a thread block: at a
//! (potentially) divergent branch all dynamic warps of the block
//! synchronize, threads are partitioned by branch outcome, and each side
//! is *compacted* into fresh dynamic warps — preserving each thread's
//! home lane, since the register file is banked by lane. A block-wide
//! reconvergence stack tracks the paths; when both sides finish, the
//! pre-branch warps resume at the reconvergence point.
//!
//! **TLB-aware TBC** (Section 8.2) threads the Common Page Matrix into
//! the compactor: a thread joins a dynamic warp only if its home warp's
//! CPM counters against every member already compacted are saturated —
//! grouping threads that have historically shared PTEs, which lowers
//! page divergence at a possible cost of more dynamic warps (Figure 19).

use crate::config::{GpuConfig, TbcConfig};
use crate::core::{BlockWork, MemIssue, MemPath, Pending, WaitKind};
use crate::program::{Kernel, Op, ThreadId};
use crate::stall::StallCause;
use gmmu_mem::MemorySystem;
use gmmu_sim::observe::{Event, Observer};
use gmmu_sim::Cycle;
use gmmu_vm::AddressSpace;
use std::collections::VecDeque;

/// A dynamic warp: up to 32 threads, one per home lane.
#[derive(Debug, Clone)]
pub(crate) struct Dwarp {
    pub lanes: [Option<ThreadId>; 32],
    pub block: u16,
    pub pc: u32,
    pub ready_at: Cycle,
    pub pending: Option<Pending>,
    pub waiting_pages: usize,
    /// Pages whose walks ended in a page fault; the unit is parked until
    /// the modeled CPU fault handler maps them all.
    pub faulted_pages: usize,
    pub at_branch: bool,
    pub done_at_rpc: bool,
    pub alive: bool,
    pub wait: WaitKind,
}

impl Dwarp {
    fn dead() -> Self {
        Self {
            lanes: [None; 32],
            block: 0,
            pc: 0,
            ready_at: 0,
            pending: None,
            waiting_pages: 0,
            faulted_pages: 0,
            at_branch: false,
            done_at_rpc: false,
            alive: false,
            wait: WaitKind::default(),
        }
    }

    fn schedulable(&self, now: Cycle) -> bool {
        self.alive
            && !self.at_branch
            && !self.done_at_rpc
            && self.waiting_pages == 0
            && self.faulted_pages == 0
            && self.ready_at <= now
    }
}

impl Default for Dwarp {
    fn default() -> Self {
        Dwarp::dead()
    }
}

/// One level of a block-wide reconvergence stack.
#[derive(Debug, Clone, Default)]
struct TbcLevel {
    /// Pc at which this level's units are done.
    rpc: u32,
    /// Dynamic warps executing (top level) or paused (lower levels).
    units: Vec<u16>,
    /// Where the paused units resume once the levels above pop.
    resume_pc: Option<u32>,
}

/// Per-block compaction state.
#[derive(Debug, Clone)]
struct TbcBlock {
    active: bool,
    first_tid: ThreadId,
    /// Core-local static warp id of the block's first warp.
    base_warp: u16,
    levels: Vec<TbcLevel>,
    /// Cycle the block was dispatched (the `block` trace span's start).
    started: Cycle,
}

/// A dynamic warp being assembled by [`TbcState::compact_threads`].
#[derive(Debug)]
struct Building {
    lanes: [Option<ThreadId>; 32],
    homes: Vec<u16>,
}

/// The TBC executor of one shader core.
#[derive(Debug)]
pub(crate) struct TbcState {
    cfg: TbcConfig,
    warps_per_block: usize,
    blocks: Vec<TbcBlock>,
    units: Vec<Dwarp>,
    free_units: Vec<u16>,
    rr: usize,
    cand_scratch: Vec<u16>,
    /// Recycled unit-list allocations: retired [`TbcLevel::units`]
    /// vectors parked here for the next dispatch or compaction, so
    /// block/branch events stop heap-allocating in steady state.
    u16_pool: Vec<Vec<u16>>,
    /// Branch-evaluation scratch: taken/fall-through thread sets and a
    /// copy of the level's units, reused across branch events.
    taken_scratch: Vec<ThreadId>,
    fall_scratch: Vec<ThreadId>,
    old_units_scratch: Vec<u16>,
    /// Compaction scratch: dynamic warps under construction, reused via
    /// a live-prefix convention (entries beyond the current call's
    /// count are stale but keep their `homes` allocations).
    building_scratch: Vec<Building>,
}

impl TbcState {
    pub(crate) fn new(cfg: &GpuConfig, tbc: TbcConfig) -> Self {
        let slots = cfg.warps_per_core / cfg.warps_per_block;
        Self {
            cfg: tbc,
            warps_per_block: cfg.warps_per_block,
            blocks: (0..slots)
                .map(|s| TbcBlock {
                    active: false,
                    first_tid: 0,
                    base_warp: (s * cfg.warps_per_block) as u16,
                    levels: Vec::new(),
                    started: 0,
                })
                .collect(),
            units: Vec::new(),
            free_units: Vec::new(),
            rr: 0,
            cand_scratch: Vec::new(),
            u16_pool: Vec::new(),
            taken_scratch: Vec::new(),
            fall_scratch: Vec::new(),
            old_units_scratch: Vec::new(),
            building_scratch: Vec::new(),
        }
    }

    pub(crate) fn has_work(&self) -> bool {
        self.blocks.iter().any(|b| b.active)
    }

    /// Whether an inactive block slot could accept a queued block.
    pub(crate) fn has_free_slot(&self) -> bool {
        self.blocks.iter().any(|b| !b.active)
    }

    /// The earliest cycle after `now` at which a currently-idle dynamic
    /// warp could issue. Only top-of-stack units can be scheduled;
    /// units at a branch or done at their reconvergence point wait on
    /// siblings (whose own timers, or the MMU's, bound the skip), and
    /// page-waiting units are woken by MMU fills.
    pub(crate) fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut next = Cycle::MAX;
        for block in &self.blocks {
            if !block.active {
                continue;
            }
            if let Some(top) = block.levels.last() {
                for &u in &top.units {
                    let unit = &self.units[u as usize];
                    if unit.alive
                        && !unit.at_branch
                        && !unit.done_at_rpc
                        && unit.waiting_pages == 0
                        && unit.faulted_pages == 0
                    {
                        next = next.min(unit.ready_at.max(now + 1));
                    }
                }
            }
        }
        (next != Cycle::MAX).then_some(next)
    }

    /// Whether an [`TbcState::issue`] call at `now` would do anything:
    /// some unit is schedulable, or barrier/completion maintenance is
    /// pending on a block (a level whose units are all done or all at a
    /// branch — popping or compacting arms new timers even though
    /// nothing issues). The core's next-event cache treats a tick as
    /// quiet only when this is false, so state the cache depends on
    /// cannot change behind its back.
    pub(crate) fn has_ready_work(&self, now: Cycle) -> bool {
        for block in &self.blocks {
            if !block.active {
                continue;
            }
            let Some(top) = block.levels.last() else {
                return true; // empty stack: the block finishes this tick
            };
            let mut all_done = true;
            let mut all_at_branch = !top.units.is_empty();
            let mut any_at_branch = false;
            for &u in &top.units {
                let unit = &self.units[u as usize];
                if unit.schedulable(now) {
                    return true;
                }
                all_done &= unit.done_at_rpc;
                any_at_branch |= unit.at_branch;
                all_at_branch &= unit.at_branch || unit.done_at_rpc;
            }
            if all_done || (all_at_branch && any_at_branch) {
                return true;
            }
        }
        false
    }

    /// Maximum dynamic-warp contexts ever live (diagnostics).
    #[allow(dead_code)]
    pub(crate) fn peak_units(&self) -> usize {
        self.units.len()
    }

    /// Reports one [`StallCause`] per live unit to `note` (stall
    /// attribution; see `core::classify_stall`). Units parked at a
    /// branch barrier, done at their reconvergence point, or buried
    /// below the top of their block's stack are dispatch/barrier
    /// droughts; top-level units waiting on pages or timers report
    /// their wait kind.
    pub(crate) fn classify_stall(&self, now: Cycle, note: &mut dyn FnMut(StallCause)) {
        for block in &self.blocks {
            if !block.active {
                continue;
            }
            let n_levels = block.levels.len();
            for (li, level) in block.levels.iter().enumerate() {
                let top = li + 1 == n_levels;
                for &u in &level.units {
                    let unit = &self.units[u as usize];
                    if !unit.alive {
                        continue;
                    }
                    if !top || unit.at_branch || unit.done_at_rpc {
                        note(StallCause::Dispatch);
                    } else if unit.faulted_pages > 0 {
                        note(StallCause::FaultService);
                    } else if unit.waiting_pages > 0 {
                        note(StallCause::TlbFill);
                    } else if unit.ready_at > now {
                        note(unit.wait.cause());
                    } else {
                        // Schedulable yet nothing issued anywhere: only
                        // possible transiently; count as a drought.
                        note(StallCause::Dispatch);
                    }
                }
            }
        }
    }

    fn alloc_unit(&mut self, d: Dwarp) -> u16 {
        if let Some(id) = self.free_units.pop() {
            self.units[id as usize] = d;
            id
        } else {
            self.units.push(d);
            (self.units.len() - 1) as u16
        }
    }

    fn free_unit(&mut self, id: u16) {
        self.units[id as usize] = Dwarp::dead();
        self.free_units.push(id);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wake(
        &mut self,
        unit: u16,
        vpn: gmmu_vm::Vpn,
        ppn: gmmu_vm::Ppn,
        path: &mut MemPath,
        now: Cycle,
        mem: &mut MemorySystem,
        obs: &mut Observer,
    ) {
        let u = &mut self.units[unit as usize];
        debug_assert!(u.alive && u.waiting_pages > 0);
        if let Some(pending) = u.pending.as_mut() {
            path.service_page(now, pending, vpn, ppn, mem);
        }
        u.waiting_pages = u.waiting_pages.saturating_sub(1);
        if u.waiting_pages == 0 {
            let slept = u.pending.as_ref().map_or(now, |p| p.slept_at);
            let core = obs.core;
            obs.record(|| Event::WarpSleep {
                core,
                warp: unit,
                vpn: vpn.raw(),
                start: slept,
                end: now,
            });
            let all_serviced = u.pending.as_ref().is_some_and(|p| p.accesses.is_empty());
            if all_serviced {
                let p = u.pending.take().expect("checked");
                u.ready_at = p.overlap_done_at.max(now + 1);
                u.wait = WaitKind::MemData {
                    dram: p.touched_dram,
                };
                path.stash_accesses(p.accesses);
                u.pc += 1;
                // done_at_rpc is fixed up against the unit's level by
                // maintain_block via the rpc check below.
                u.done_at_rpc = false;
                self.fixup_done(unit);
            } else {
                u.ready_at = now + 1;
                u.wait = WaitKind::Replay;
            }
        }
    }

    /// A walk for one of `unit`'s pages ended in a page fault: move the
    /// page from the waiting count to the faulted count (the core tracks
    /// which units each faulted page parks).
    pub(crate) fn fault(&mut self, unit: u16) {
        let u = &mut self.units[unit as usize];
        debug_assert!(u.alive && u.waiting_pages > 0);
        u.waiting_pages = u.waiting_pages.saturating_sub(1);
        u.faulted_pages += 1;
    }

    /// One of `unit`'s in-flight walks was squashed by a TLB shootdown;
    /// with nothing else outstanding the unit retries after `backoff`.
    pub(crate) fn squash(&mut self, unit: u16, now: Cycle, backoff: Cycle) {
        let u = &mut self.units[unit as usize];
        u.waiting_pages = u.waiting_pages.saturating_sub(1);
        if u.waiting_pages == 0 && u.faulted_pages == 0 {
            u.ready_at = now + backoff.max(1);
            u.wait = WaitKind::Reject;
        }
    }

    /// The CPU fault handler mapped one of `unit`'s faulted pages; with
    /// nothing else outstanding the unit replays next cycle.
    pub(crate) fn resolve_fault(&mut self, unit: u16, now: Cycle) {
        let u = &mut self.units[unit as usize];
        debug_assert!(u.faulted_pages > 0);
        u.faulted_pages = u.faulted_pages.saturating_sub(1);
        if u.faulted_pages == 0 && u.waiting_pages == 0 {
            u.ready_at = now + 1;
            u.wait = WaitKind::Replay;
        }
    }

    /// Appends per-unit state to the watchdog's diagnostic dump.
    pub(crate) fn stall_diagnostics(&self, s: &mut String, now: Cycle) {
        use std::fmt::Write as _;
        for (i, u) in self.units.iter().enumerate() {
            if !u.alive {
                continue;
            }
            let _ = writeln!(
                s,
                "  dwarp {i}: block={} pc={} waiting_pages={} faulted_pages={} ready_at={} \
                 (now {now}) wait={:?} at_branch={} done_at_rpc={} pending_accesses={}",
                u.block,
                u.pc,
                u.waiting_pages,
                u.faulted_pages,
                u.ready_at,
                u.wait,
                u.at_branch,
                u.done_at_rpc,
                u.pending.as_ref().map_or(0, |p| p.accesses.len()),
            );
        }
    }

    /// After a wake-completed instruction advanced a unit's pc, check it
    /// against its level's rpc.
    fn fixup_done(&mut self, unit: u16) {
        let b = self.units[unit as usize].block as usize;
        if let Some(top) = self.blocks[b].levels.last() {
            if top.units.contains(&unit) {
                let rpc = top.rpc;
                let u = &mut self.units[unit as usize];
                u.done_at_rpc = u.pc == rpc;
            }
        }
    }

    /// Fills idle block slots from the queue; returns whether any block
    /// was dispatched.
    pub(crate) fn dispatch_blocks(
        &mut self,
        queue: &mut VecDeque<BlockWork>,
        end_pc: u32,
        now: Cycle,
    ) -> bool {
        let mut dispatched = false;
        for b in 0..self.blocks.len() {
            if self.blocks[b].active {
                continue;
            }
            let Some(work) = queue.pop_front() else {
                return dispatched;
            };
            dispatched = true;
            let mut units = self.grab_units();
            for w in 0..self.warps_per_block {
                let first = work.first_tid + (w as u32) * 32;
                let in_block = work.n_threads.saturating_sub((w as u32) * 32).min(32);
                if in_block == 0 {
                    break;
                }
                let mut lanes = [None; 32];
                for l in 0..in_block {
                    lanes[l as usize] = Some(first + l);
                }
                let id = self.alloc_unit(Dwarp {
                    lanes,
                    block: b as u16,
                    pc: 0,
                    alive: true,
                    ..Dwarp::dead()
                });
                units.push(id);
            }
            let block = &mut self.blocks[b];
            block.active = true;
            block.first_tid = work.first_tid;
            block.started = now;
            block.levels.clear();
            block.levels.push(TbcLevel {
                rpc: end_pc,
                units,
                resume_pc: None,
            });
        }
        dispatched
    }

    /// One issue attempt: barrier/completion maintenance, then execute
    /// one instruction from a schedulable dynamic warp.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue(
        &mut self,
        path: &mut MemPath,
        now: Cycle,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        kernel: &dyn Kernel,
        iters: &mut [u32],
        obs: &mut Observer,
    ) -> bool {
        for b in 0..self.blocks.len() {
            self.maintain_block(b, path, now, kernel, iters, obs);
        }
        // Collect schedulable units (top level of each active block).
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        for block in &self.blocks {
            if !block.active {
                continue;
            }
            if let Some(top) = block.levels.last() {
                for &u in &top.units {
                    if self.units[u as usize].schedulable(now) {
                        cands.push(u);
                    }
                }
            }
        }
        let issued = if cands.is_empty() {
            false
        } else {
            let pick = cands[self.rr % cands.len()];
            self.rr = self.rr.wrapping_add(1);
            self.exec_unit(pick, path, now, mem, space, kernel, iters, obs);
            true
        };
        self.cand_scratch = cands;
        issued
    }

    /// Handles barrier-complete (compaction) and level-complete (pop)
    /// conditions for one block.
    fn maintain_block(
        &mut self,
        b: usize,
        path: &mut MemPath,
        now: Cycle,
        kernel: &dyn Kernel,
        iters: &mut [u32],
        obs: &mut Observer,
    ) {
        loop {
            if !self.blocks[b].active {
                return;
            }
            let Some(top) = self.blocks[b].levels.last() else {
                // Block finished.
                self.blocks[b].active = false;
                path.stats.blocks_done.inc();
                let started = self.blocks[b].started;
                let core = obs.core;
                obs.record(|| Event::BlockRetire {
                    core,
                    slot: b as u32,
                    start: started,
                    end: now,
                });
                return;
            };
            let all_done = top
                .units
                .iter()
                .all(|&u| self.units[u as usize].done_at_rpc);
            if all_done {
                self.pop_level(b, now);
                continue;
            }
            let all_at_branch = !top.units.is_empty()
                && top.units.iter().all(|&u| {
                    self.units[u as usize].at_branch || self.units[u as usize].done_at_rpc
                });
            let any_at_branch = top.units.iter().any(|&u| self.units[u as usize].at_branch);
            if all_at_branch && any_at_branch {
                self.compact_at_branch(b, path, now, kernel, iters);
                continue;
            }
            return;
        }
    }

    /// Takes a recycled unit-list allocation (or a fresh one).
    fn grab_units(&mut self) -> Vec<u16> {
        self.u16_pool.pop().unwrap_or_default()
    }

    /// Parks a retired unit-list allocation for reuse.
    fn stash_units(&mut self, mut v: Vec<u16>) {
        v.clear();
        self.u16_pool.push(v);
    }

    fn pop_level(&mut self, b: usize, now: Cycle) {
        let level = self.blocks[b].levels.pop().expect("pop on empty stack");
        for &u in &level.units {
            self.free_unit(u);
        }
        self.stash_units(level.units);
        // If the new top is a paused parent, its children have all
        // popped (children always sit above their parent): resume it.
        let Some(top) = self.blocks[b].levels.last_mut() else {
            return; // maintain_block notices the empty stack
        };
        if let Some(resume) = top.resume_pc.take() {
            let rpc = top.rpc;
            for &u in &top.units {
                let unit = &mut self.units[u as usize];
                unit.pc = resume;
                unit.at_branch = false;
                unit.done_at_rpc = resume == rpc;
                unit.ready_at = now + 1;
                unit.wait = WaitKind::Pipeline;
            }
        }
    }

    /// All units of the top level reached the same branch: synchronize,
    /// partition by outcome, compact.
    fn compact_at_branch(
        &mut self,
        b: usize,
        path: &mut MemPath,
        now: Cycle,
        kernel: &dyn Kernel,
        iters: &mut [u32],
    ) {
        let num_sites = kernel.program().num_sites().max(1);
        let top = self.blocks[b].levels.last().expect("compact needs a level");
        let level_rpc = top.rpc;
        // All branch-waiting units sit at the same pc (same entry pc,
        // straight-line segment).
        let branch_pc = top
            .units
            .iter()
            .map(|&u| &self.units[u as usize])
            .find(|u| u.at_branch)
            .expect("compaction requires a unit at the branch")
            .pc;
        let Op::Branch {
            site,
            taken_pc,
            reconv_pc,
        } = kernel.program().op(branch_pc)
        else {
            panic!("unit at_branch on a non-branch op");
        };
        let fall_pc = branch_pc + 1;
        // Evaluate outcomes; threads in units already done-at-rpc do not
        // participate (they exited this level earlier). All three
        // buffers are pooled scratch, handed back on every exit path.
        let mut taken_threads = std::mem::take(&mut self.taken_scratch);
        taken_threads.clear();
        let mut fall_threads = std::mem::take(&mut self.fall_scratch);
        fall_threads.clear();
        let mut old_units = std::mem::take(&mut self.old_units_scratch);
        old_units.clone_from(&self.blocks[b].levels.last().expect("non-empty").units);
        for &u in &old_units {
            let unit = &self.units[u as usize];
            if !unit.at_branch {
                continue;
            }
            for lane in unit.lanes.iter().flatten() {
                let tid = *lane;
                let slot = tid as usize * num_sites + site as usize;
                let iter = iters[slot];
                iters[slot] += 1;
                if kernel.branch_taken(tid, site, iter) {
                    taken_threads.push(tid);
                } else {
                    fall_threads.push(tid);
                }
            }
        }
        taken_threads.sort_unstable();
        fall_threads.sort_unstable();

        if taken_threads.is_empty() || fall_threads.is_empty() {
            // Uniform outcome: recompact everyone onto the single target.
            let (threads, pc) = if fall_threads.is_empty() {
                (&taken_threads, taken_pc)
            } else {
                (&fall_threads, fall_pc)
            };
            self.retarget_level(b, threads, pc, now, path);
            self.taken_scratch = taken_threads;
            self.fall_scratch = fall_threads;
            self.old_units_scratch = old_units;
            return;
        }

        // Divergent. Loop-style when one side's target is this level's
        // own rpc (== reconv): exiting threads just drop out (an
        // ancestor level holds them), the other side continues in place.
        if reconv_pc == level_rpc && (taken_pc == reconv_pc) != (fall_pc == reconv_pc) {
            let (cont, cont_pc) = if taken_pc == reconv_pc {
                (&fall_threads, fall_pc)
            } else {
                (&taken_threads, taken_pc)
            };
            self.retarget_level(b, cont, cont_pc, now, path);
            self.taken_scratch = taken_threads;
            self.fall_scratch = fall_threads;
            self.old_units_scratch = old_units;
            return;
        }

        // General case: pause this level, push one child level per
        // non-trivial side (sides targeting the reconvergence point just
        // wait in the paused parent).
        {
            let top = self.blocks[b].levels.last_mut().expect("non-empty");
            top.resume_pc = Some(reconv_pc);
            for &u in &top.units {
                self.units[u as usize].at_branch = false;
            }
        }
        if fall_pc != reconv_pc {
            let units = self.compact_threads(b, &fall_threads, fall_pc, now, path);
            self.blocks[b].levels.push(TbcLevel {
                rpc: reconv_pc,
                units,
                resume_pc: None,
            });
        }
        if taken_pc != reconv_pc {
            let units = self.compact_threads(b, &taken_threads, taken_pc, now, path);
            self.blocks[b].levels.push(TbcLevel {
                rpc: reconv_pc,
                units,
                resume_pc: None,
            });
        }
        // Degenerate branch with both targets at the reconvergence
        // point: no children were pushed, so resume immediately.
        if fall_pc == reconv_pc && taken_pc == reconv_pc {
            let top = self.blocks[b].levels.last_mut().expect("non-empty");
            if let Some(resume) = top.resume_pc.take() {
                let rpc = top.rpc;
                for &u in &top.units {
                    let unit = &mut self.units[u as usize];
                    unit.pc = resume;
                    unit.done_at_rpc = resume == rpc;
                    unit.ready_at = now + path.timings.branch_latency;
                    unit.wait = WaitKind::Pipeline;
                }
            }
        }
        self.taken_scratch = taken_threads;
        self.fall_scratch = fall_threads;
        self.old_units_scratch = old_units;
    }

    /// Replaces the top level's units with a fresh compaction of
    /// `threads` starting at `pc`.
    fn retarget_level(
        &mut self,
        b: usize,
        threads: &[ThreadId],
        pc: u32,
        now: Cycle,
        path: &mut MemPath,
    ) {
        let old = std::mem::take(
            &mut self.blocks[b]
                .levels
                .last_mut()
                .expect("retarget needs a level")
                .units,
        );
        for &u in &old {
            self.free_unit(u);
        }
        self.stash_units(old);
        let units = self.compact_threads(b, threads, pc, now, path);
        let top = self.blocks[b].levels.last_mut().expect("non-empty");
        let rpc = top.rpc;
        top.units = units;
        for &u in &self.blocks[b].levels.last().expect("non-empty").units {
            let unit = &mut self.units[u as usize];
            unit.done_at_rpc = unit.pc == rpc;
        }
    }

    /// Lane-preserving compaction, optionally constrained by the CPM.
    fn compact_threads(
        &mut self,
        b: usize,
        threads: &[ThreadId],
        pc: u32,
        now: Cycle,
        path: &mut MemPath,
    ) -> Vec<u16> {
        let block_first = self.blocks[b].first_tid;
        let base_warp = self.blocks[b].base_warp;
        let tlb_aware = self.cfg.tlb_aware;
        // Live-prefix scratch: `building[..n_build]` are this call's
        // warps; stale entries beyond keep their `homes` allocations.
        let mut building = std::mem::take(&mut self.building_scratch);
        let mut n_build = 0usize;
        for &tid in threads {
            let lane = ((tid - block_first) % 32) as usize;
            let home = base_warp + ((tid - block_first) / 32) as u16;
            let slot = building[..n_build].iter_mut().find(|d| {
                d.lanes[lane].is_none()
                    && (!tlb_aware
                        || path
                            .cpm
                            .as_ref()
                            .is_none_or(|c| c.is_compatible(home, d.homes.iter().copied())))
            });
            match slot {
                Some(d) => {
                    d.lanes[lane] = Some(tid);
                    if !d.homes.contains(&home) {
                        d.homes.push(home);
                    }
                }
                None => {
                    let mut lanes = [None; 32];
                    lanes[lane] = Some(tid);
                    if n_build < building.len() {
                        let d = &mut building[n_build];
                        d.lanes = lanes;
                        d.homes.clear();
                        d.homes.push(home);
                    } else {
                        building.push(Building {
                            lanes,
                            homes: vec![home],
                        });
                    }
                    n_build += 1;
                }
            }
        }
        let ready = now + path.timings.branch_latency;
        let mut out = self.grab_units();
        for built in building.iter().take(n_build) {
            path.stats.dwarps_formed.inc();
            let lanes = built.lanes;
            let id = self.alloc_unit(Dwarp {
                lanes,
                block: b as u16,
                pc,
                ready_at: ready,
                alive: true,
                ..Dwarp::dead()
            });
            out.push(id);
        }
        self.building_scratch = building;
        out
    }

    /// Executes one instruction of dynamic warp `u`.
    #[allow(clippy::too_many_arguments)]
    fn exec_unit(
        &mut self,
        u: u16,
        path: &mut MemPath,
        now: Cycle,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        kernel: &dyn Kernel,
        iters: &mut [u32],
        obs: &mut Observer,
    ) {
        let num_sites = kernel.program().num_sites().max(1);
        let block_idx = self.units[u as usize].block as usize;
        let level_rpc = self.blocks[block_idx]
            .levels
            .last()
            .expect("scheduled unit has a level")
            .rpc;
        let pc = self.units[u as usize].pc;
        debug_assert!(pc != level_rpc, "done unit scheduled");
        match kernel.program().op(pc) {
            Op::Alu { cycles } => {
                let unit = &mut self.units[u as usize];
                unit.ready_at = now + cycles as u64;
                unit.wait = WaitKind::Pipeline;
                unit.pc = pc + 1;
                unit.done_at_rpc = unit.pc == level_rpc;
                path.stats.instructions.inc();
            }
            Op::Branch { .. } => {
                let unit = &mut self.units[u as usize];
                unit.at_branch = true;
                unit.ready_at = now + path.timings.branch_latency;
                unit.wait = WaitKind::Pipeline;
                path.stats.instructions.inc();
            }
            Op::Mem { site, kind } => {
                let block_first = self.blocks[block_idx].first_tid;
                let base_warp = self.blocks[block_idx].base_warp;
                if self.units[u as usize].pending.is_none() {
                    let mut accesses = path.grab_accesses();
                    let unit = &self.units[u as usize];
                    for tid in unit.lanes.iter().flatten() {
                        let slot = *tid as usize * num_sites + site as usize;
                        let iter = iters[slot];
                        iters[slot] += 1;
                        let home = base_warp + ((*tid - block_first) / 32) as u16;
                        accesses.push((kernel.mem_addr(*tid, site, iter), home));
                    }
                    self.units[u as usize].pending = Some(Pending {
                        kind,
                        accesses,
                        tlb_missed: false,
                        overlap_done_at: 0,
                        diverge_recorded: false,
                        touched_dram: false,
                        slept_at: 0,
                    });
                    path.stats.instructions.inc();
                    path.stats.mem_instructions.inc();
                } else {
                    path.stats.replays.inc();
                }
                let mut pending = self.units[u as usize].pending.take().expect("just set");
                match path.issue_mem(now, u, 0, &mut pending, mem, space, obs) {
                    MemIssue::Done(ready) => {
                        let unit = &mut self.units[u as usize];
                        unit.ready_at = ready;
                        unit.wait = WaitKind::MemData {
                            dram: pending.touched_dram,
                        };
                        unit.pc = pc + 1;
                        unit.done_at_rpc = unit.pc == level_rpc;
                        path.stash_accesses(pending.accesses);
                    }
                    MemIssue::WaitTlb(misses) => {
                        let unit = &mut self.units[u as usize];
                        unit.waiting_pages = misses;
                        pending.slept_at = now;
                        unit.pending = Some(pending);
                    }
                    MemIssue::Retry(at) => {
                        let unit = &mut self.units[u as usize];
                        unit.ready_at = at;
                        unit.wait = WaitKind::Reject;
                        unit.pending = Some(pending);
                    }
                }
            }
        }
    }
}

use gmmu_sim::ckpt::{Ckpt, CkptError, Loader, Saver};

impl Ckpt for Dwarp {
    /// The lane array is fixed-width (32), so each slot is written in
    /// index order without a length.
    fn save(&self, w: &mut Saver) {
        for lane in &self.lanes {
            lane.save(w);
        }
        w.u16(self.block);
        w.u32(self.pc);
        w.u64(self.ready_at);
        self.pending.save(w);
        w.usize(self.waiting_pages);
        w.usize(self.faulted_pages);
        w.bool(self.at_branch);
        w.bool(self.done_at_rpc);
        w.bool(self.alive);
        self.wait.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        for lane in &mut self.lanes {
            lane.load(r)?;
        }
        self.block = r.u16()?;
        self.pc = r.u32()?;
        self.ready_at = r.u64()?;
        self.pending.load(r)?;
        self.waiting_pages = r.usize()?;
        self.faulted_pages = r.usize()?;
        self.at_branch = r.bool()?;
        self.done_at_rpc = r.bool()?;
        self.alive = r.bool()?;
        self.wait.load(r)
    }
}

impl Ckpt for TbcLevel {
    fn save(&self, w: &mut Saver) {
        w.u32(self.rpc);
        self.units.save(w);
        self.resume_pc.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.rpc = r.u32()?;
        self.units.load(r)?;
        self.resume_pc.load(r)
    }
}

impl Ckpt for TbcBlock {
    /// `base_warp` is derived from the slot index at construction and is
    /// not part of the stream.
    fn save(&self, w: &mut Saver) {
        w.bool(self.active);
        w.u32(self.first_tid);
        self.levels.save(w);
        w.u64(self.started);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.active = r.bool()?;
        self.first_tid = r.u32()?;
        self.levels.load(r)?;
        self.started = r.u64()?;
        Ok(())
    }
}

impl Ckpt for TbcState {
    /// `cfg` and `warps_per_block` are configuration, and the block-slot
    /// count is config-derived, so block slots are written per element
    /// without a length. `cand_scratch` is transient within one `issue`
    /// call and is cleared instead of saved.
    fn save(&self, w: &mut Saver) {
        for b in &self.blocks {
            b.save(w);
        }
        self.units.save(w);
        self.free_units.save(w);
        w.usize(self.rr);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        for b in &mut self.blocks {
            b.load(r)?;
        }
        self.units.load(r)?;
        self.free_units.load(r)?;
        self.rr = r.usize()?;
        self.cand_scratch.clear();
        self.taken_scratch.clear();
        self.fall_scratch.clear();
        self.old_units_scratch.clear();
        self.building_scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GpuConfig, TbcConfig};
    use crate::gpu::run_kernel;
    use crate::program::{Kernel, MemKind, Op, Program, ThreadId};
    use gmmu_core::mmu::MmuModel;
    use gmmu_vm::{AddressSpace, PageSize, Region, SpaceConfig, VAddr};

    /// Which lanes take the branch.
    #[derive(Clone, Copy)]
    enum Pattern {
        /// `lane % 2 == 0` in every warp: taken lanes collide across
        /// warps, so lane-preserving compaction cannot merge anything.
        Parity,
        /// `(lane + warp) % 2 == 0`: adjacent warps take complementary
        /// lanes, the best case for compaction.
        Xor,
        /// Everyone takes: no divergence at all.
        Uniform,
    }

    /// One if-then over a load, so divergence affects both instruction
    /// counts and memory behaviour.
    struct BranchKernel {
        program: Program,
        region: Region,
        threads: u32,
        pattern: Pattern,
    }

    impl BranchKernel {
        fn new(space: &mut AddressSpace, threads: u32, pattern: Pattern) -> Self {
            let region = space
                .map_region("bk", threads as u64 * 8, PageSize::Base4K)
                .unwrap();
            Self {
                program: Program::new(vec![
                    Op::Mem {
                        site: 0,
                        kind: MemKind::Load,
                    },
                    // taken → skip the extra work at pc 2.
                    Op::Branch {
                        site: 1,
                        taken_pc: 3,
                        reconv_pc: 3,
                    },
                    Op::Alu { cycles: 4 },
                    Op::Alu { cycles: 4 },
                ]),
                region,
                threads,
                pattern,
            }
        }
    }

    impl Kernel for BranchKernel {
        fn name(&self) -> &str {
            "branch-test"
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
        fn mem_addr(&self, tid: ThreadId, _site: u16, _iter: u32) -> VAddr {
            self.region.at(tid as u64 * 8)
        }
        fn branch_taken(&self, tid: ThreadId, _site: u16, _iter: u32) -> bool {
            let lane = tid % 32;
            let warp = tid / 32;
            match self.pattern {
                Pattern::Parity => lane.is_multiple_of(2),
                Pattern::Xor => (lane + warp).is_multiple_of(2),
                Pattern::Uniform => true,
            }
        }
    }

    fn run(pattern: Pattern, tbc: Option<TbcConfig>) -> crate::gpu::RunStats {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let kernel = BranchKernel::new(&mut space, 128, pattern);
        let cfg = GpuConfig {
            n_cores: 1,
            warps_per_core: 4,
            warps_per_block: 2,
            mmu: MmuModel::Ideal,
            tbc,
            max_cycles: 1_000_000,
            ..GpuConfig::default()
        };
        run_kernel(cfg, &kernel, &space)
    }

    #[test]
    fn complementary_lanes_compact_but_colliding_lanes_cannot() {
        let xor = run(Pattern::Xor, Some(TbcConfig::baseline()));
        let parity = run(Pattern::Parity, Some(TbcConfig::baseline()));
        assert!(xor.completed && parity.completed);
        // Identical thread-level work either way.
        assert_eq!(xor.mem_instructions, parity.mem_instructions);
        // Complementary lanes merge the else-side of two warps into one
        // dynamic warp; colliding lanes cannot merge anything.
        assert!(
            xor.instructions < parity.instructions,
            "xor {} !< parity {}",
            xor.instructions,
            parity.instructions
        );
    }

    #[test]
    fn parity_compaction_matches_per_warp_stacks() {
        // When lane collisions forbid merging, TBC degenerates to the
        // baseline instruction count.
        let tbc = run(Pattern::Parity, Some(TbcConfig::baseline()));
        let base = run(Pattern::Parity, None);
        assert_eq!(tbc.instructions, base.instructions);
    }

    #[test]
    fn uniform_branches_form_no_extra_warps() {
        let tbc = run(Pattern::Uniform, Some(TbcConfig::baseline()));
        let base = run(Pattern::Uniform, None);
        assert!(tbc.completed);
        assert_eq!(tbc.instructions, base.instructions);
        assert_eq!(tbc.blocks_done, base.blocks_done);
    }

    #[test]
    fn cold_cpm_restricts_compaction_to_home_warps() {
        // With an ideal MMU there are no TLB hits, so the CPM never
        // saturates and TLB-aware compaction cannot mix home warps: it
        // forms at least as many dynamic warps as TLB-agnostic TBC.
        let plain = run(Pattern::Xor, Some(TbcConfig::baseline()));
        let aware = run(Pattern::Xor, Some(TbcConfig::tlb_aware(1)));
        assert!(aware.completed);
        assert_eq!(aware.mem_instructions, plain.mem_instructions);
        assert!(aware.dwarps_formed >= plain.dwarps_formed);
        assert!(aware.instructions >= plain.instructions);
    }
}
