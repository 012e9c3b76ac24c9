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
use crate::core::{low_bits, Bits, BlockWork, MemIssue, MemPath, UnitState, WaitKind, WarpSet};
use crate::program::{Kernel, Op, ThreadId};
use gmmu_mem::MemorySystem;
use gmmu_sim::observe::{Event, Observer};
use gmmu_sim::Cycle;
use gmmu_vm::AddressSpace;
use std::collections::VecDeque;

/// A dynamic warp: up to 32 threads, one per home lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dwarp {
    pub lanes: [Option<ThreadId>; 32],
    pub block: u16,
    pub pc: u32,
    pub at_branch: bool,
    pub done_at_rpc: bool,
    pub alive: bool,
    pub state: UnitState,
}

impl Dwarp {
    /// The unit's wait state while it takes part in scheduling: alive,
    /// and neither parked at a branch barrier nor done at its
    /// reconvergence point.
    fn live_state(&self) -> Option<&UnitState> {
        (self.alive && !self.at_branch && !self.done_at_rpc).then_some(&self.state)
    }
}

/// One level of a block-wide reconvergence stack.
#[derive(Debug, Clone)]
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
    first_tid: ThreadId,
    /// Core-local static warp id of the block's first warp.
    base_warp: u16,
    levels: Vec<TbcLevel>,
    /// Cycle the block was dispatched (the `block` trace span's start).
    started: Cycle,
}

/// What a block's maintenance does next.
#[derive(Debug, Clone, Copy)]
enum Upkeep {
    /// The stack is empty: the block is finished.
    Retire,
    /// Every top-level unit is done at the level's rpc.
    Pop,
    /// Every top-level unit not done at the rpc waits at the branch.
    Compact,
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
    pub(crate) units: Vec<Dwarp>,
    free_units: Vec<u16>,
    rr: usize,
    /// The top-level units' scheduling state. Slot
    /// `b * warps_per_block + p` mirrors the `p`-th unit of block `b`'s
    /// top level, so ascending slot order is issue order. A level holds
    /// at most `warps_per_block` units: lane-preserving compaction
    /// starts a new dynamic warp only for a thread no earlier one takes,
    /// and each home warp starts at most one, since its threads arrive
    /// together in thread order, one per lane, and the warp it starts
    /// takes the rest of them (with the CPM or without, cold or warm).
    pub(crate) set: WarpSet,
    /// Blocks holding work (bit = block slot).
    active: u64,
    /// Blocks whose top level changed since their last maintenance. A
    /// clean block's maintenance has nothing to do.
    dirty: u64,
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
                    first_tid: 0,
                    base_warp: (s * cfg.warps_per_block) as u16,
                    levels: Vec::new(),
                    started: 0,
                })
                .collect(),
            units: Vec::new(),
            free_units: Vec::new(),
            rr: 0,
            set: WarpSet::new(),
            active: 0,
            dirty: 0,
            u16_pool: Vec::new(),
            taken_scratch: Vec::new(),
            fall_scratch: Vec::new(),
            old_units_scratch: Vec::new(),
            building_scratch: Vec::new(),
        }
    }

    pub(crate) fn has_work(&self) -> bool {
        self.active != 0
    }

    /// Whether an inactive block slot could accept a queued block.
    pub(crate) fn has_free_slot(&self) -> bool {
        self.active != low_bits(self.blocks.len())
    }

    /// The top-level unit in slot `slot` of the set.
    fn slot_unit(&self, slot: usize) -> u16 {
        let top = self.blocks[slot / self.warps_per_block]
            .levels
            .last()
            .expect("a live slot's block has a level");
        top.units[slot % self.warps_per_block]
    }

    /// The slot of `unit` if it is in its block's top level.
    fn top_slot(&self, unit: u16) -> Option<usize> {
        let b = self.units[unit as usize].block as usize;
        let top = self.blocks[b].levels.last()?;
        let p = top.units.iter().position(|&u| u == unit)?;
        Some(b * self.warps_per_block + p)
    }

    /// Re-reads `unit`'s slot (if it is a top-level unit) at `now`.
    pub(crate) fn sync_unit(&mut self, unit: u16, now: Cycle) {
        if let Some(slot) = self.top_slot(unit) {
            self.set
                .sync(slot, self.units[unit as usize].live_state(), now);
        }
    }

    /// Re-reads all of block `b`'s slots at `now`, after its top level
    /// changed.
    fn sync_block(&mut self, b: usize, now: Cycle) {
        let wpb = self.warps_per_block;
        // A retired block's stack is empty, so its slots all clear.
        let top = self.blocks[b].levels.last().map_or(&[][..], |l| &l.units);
        debug_assert!(
            top.len() <= wpb,
            "a top level of {} units overflows its block's {wpb} slots",
            top.len()
        );
        for p in 0..wpb {
            let unit = top.get(p).map(|&u| &self.units[u as usize]);
            self.set
                .sync(b * wpb + p, unit.and_then(Dwarp::live_state), now);
        }
    }

    /// The set a from-scratch scan of the blocks' top levels at `now`
    /// yields; the debug-build referee for the incremental syncs. It
    /// also asserts that every clean block needs no maintenance.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn scan(&self, now: Cycle) -> WarpSet {
        for b in Bits(self.active & !self.dirty) {
            assert!(self.upkeep(b).is_none(), "clean block {b} needs upkeep");
        }
        let wpb = self.warps_per_block;
        WarpSet::recompute(
            Bits(self.active).flat_map(|b| {
                let top = self.blocks[b].levels.last().map_or(&[][..], |l| &l.units);
                top.iter().enumerate().filter_map(move |(p, &u)| {
                    Some((b * wpb + p, self.units[u as usize].live_state()?))
                })
            }),
            now,
        )
    }

    /// The slot round-robin issues from at the set's current cycle: the
    /// `rr`-th due slot (modulo their count) in ascending order.
    fn pick(&self) -> Option<usize> {
        let due = self.set.due;
        let n = due.count_ones() as usize;
        (n > 0).then(|| Bits(due).nth(self.rr % n).expect("rr % n < n"))
    }

    /// What block `b`'s maintenance would do now, if anything.
    fn upkeep(&self, b: usize) -> Option<Upkeep> {
        if self.active & (1 << b) == 0 {
            return None;
        }
        let Some(top) = self.blocks[b].levels.last() else {
            return Some(Upkeep::Retire);
        };
        let units = || top.units.iter().map(|&u| &self.units[u as usize]);
        if units().all(|d| d.done_at_rpc) {
            Some(Upkeep::Pop)
        } else if units().all(|d| d.at_branch || d.done_at_rpc) {
            // Not all done, so at least one unit is at the branch.
            Some(Upkeep::Compact)
        } else {
            None
        }
    }

    /// Whether a dirty block's maintenance would act on the next tick.
    pub(crate) fn upkeep_due(&self) -> bool {
        Bits(self.dirty).any(|b| self.upkeep(b).is_some())
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
        self.units[id as usize] = Dwarp::default();
        self.free_units.push(id);
    }

    /// Appends per-unit state to the watchdog's diagnostic dump.
    pub(crate) fn stall_diagnostics(&self, s: &mut String, now: Cycle) {
        use std::fmt::Write as _;
        for (i, u) in self.units.iter().enumerate().filter(|(_, u)| u.alive) {
            let _ = writeln!(
                s,
                "  dwarp {i}: block={} pc={} at_branch={} done_at_rpc={} {}",
                u.block,
                u.pc,
                u.at_branch,
                u.done_at_rpc,
                u.state.describe(now),
            );
        }
    }

    /// A woken unit's memory instruction committed: step past it, and
    /// mark the unit done if that reaches its level's rpc.
    pub(crate) fn step_woken(&mut self, unit: u16) {
        let u = &mut self.units[unit as usize];
        u.pc += 1;
        u.done_at_rpc = false;
        let b = u.block as usize;
        self.dirty |= 1 << b;
        if let Some(top) = self.blocks[b].levels.last() {
            if top.units.contains(&unit) {
                let rpc = top.rpc;
                let u = &mut self.units[unit as usize];
                u.done_at_rpc = u.pc == rpc;
            }
        }
    }

    /// Fills idle block slots from the queue.
    pub(crate) fn dispatch_blocks(
        &mut self,
        queue: &mut VecDeque<BlockWork>,
        end_pc: u32,
        now: Cycle,
    ) {
        for b in Bits(low_bits(self.blocks.len()) & !self.active) {
            let Some(work) = queue.pop_front() else {
                return;
            };
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
                    alive: true,
                    ..Dwarp::default()
                });
                units.push(id);
            }
            let block = &mut self.blocks[b];
            block.first_tid = work.first_tid;
            block.started = now;
            block.levels.clear();
            block.levels.push(TbcLevel {
                rpc: end_pc,
                units,
                resume_pc: None,
            });
            self.active |= 1 << b;
            self.dirty |= 1 << b;
            self.sync_block(b, now);
        }
    }

    /// One issue attempt: maintenance of the dirty blocks, then execute
    /// one instruction from the round-robin pick among the due units.
    /// Returns whether the MMU rejected (bounced) the issue, or `None`
    /// when nothing issued.
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
    ) -> Option<bool> {
        for b in Bits(std::mem::take(&mut self.dirty)) {
            self.maintain_block(b, path, now, kernel, iters, obs);
        }
        self.set.advance(now);
        let slot = self.pick()?;
        self.rr = self.rr.wrapping_add(1);
        let unit = self.slot_unit(slot);
        let bounced = self.exec_unit(unit, path, now, mem, space, kernel, iters, obs);
        self.set
            .sync(slot, self.units[unit as usize].live_state(), now);
        self.dirty |= 1 << (slot / self.warps_per_block);
        Some(bounced)
    }

    /// Runs a bounce storm ahead after a tick at `now` whose issue the
    /// MMU rejected (see `ShaderCore::run_ahead`): commits each cycle
    /// before `end` whose round-robin pick holds a pending access that
    /// [`gmmu_core::mmu::Mmu::probe_reject`] rejects, and returns the
    /// last cycle committed (`now` when none). A dirty block that would
    /// pop or compact on the next tick stops it before it starts; the
    /// bounces themselves change no maintenance state.
    pub(crate) fn bounce_ahead(&mut self, path: &mut MemPath, now: Cycle, end: Cycle) -> Cycle {
        if self.upkeep_due() {
            return now;
        }
        let mut c = now + 1;
        while c < end {
            self.set.advance(c);
            let Some(slot) = self.pick() else {
                break;
            };
            let unit = self.slot_unit(slot);
            let d = &mut self.units[unit as usize];
            let Some(pending) = d.state.pending.as_ref() else {
                break;
            };
            let Some(retry_at) = path.mmu.probe_reject(c, unit, 0, &pending.refs.pages) else {
                break;
            };
            path.stats.replays.inc();
            path.stats.live_cycles.inc();
            d.state.arm(retry_at.max(c + 1), WaitKind::Reject);
            self.set.sync(slot, d.live_state(), c);
            self.rr = self.rr.wrapping_add(1);
            c += 1;
        }
        c - 1
    }

    /// Handles barrier-complete (compaction), level-complete (pop) and
    /// block-complete (retire) conditions for one block, then re-reads
    /// its slots if anything changed.
    fn maintain_block(
        &mut self,
        b: usize,
        path: &mut MemPath,
        now: Cycle,
        kernel: &dyn Kernel,
        iters: &mut [u32],
        obs: &mut Observer,
    ) {
        let mut acted = false;
        while let Some(step) = self.upkeep(b) {
            acted = true;
            match step {
                Upkeep::Retire => {
                    self.active &= !(1 << b);
                    path.stats.blocks_done.inc();
                    let started = self.blocks[b].started;
                    let core = obs.core;
                    obs.record(|| Event::BlockRetire {
                        core,
                        slot: b as u32,
                        start: started,
                        end: now,
                    });
                }
                Upkeep::Pop => self.pop_level(b, now),
                Upkeep::Compact => self.compact_at_branch(b, path, now, kernel, iters),
            }
        }
        if acted {
            self.sync_block(b, now);
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
        // An empty stack is left for maintain_block to notice.
        self.resume_top(b, now + 1);
    }

    /// Resumes the top level of block `b` at its reconvergence point if
    /// it is paused; its units may issue again at `at`.
    fn resume_top(&mut self, b: usize, at: Cycle) {
        let Some(top) = self.blocks[b].levels.last_mut() else {
            return;
        };
        if let Some(resume) = top.resume_pc.take() {
            for &u in &top.units {
                let unit = &mut self.units[u as usize];
                unit.pc = resume;
                unit.at_branch = false;
                unit.done_at_rpc = resume == top.rpc;
                unit.state.arm(at, WaitKind::Pipeline);
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
            self.resume_top(b, now + path.timings.branch_latency);
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
                alive: true,
                state: UnitState {
                    ready_at: ready,
                    ..UnitState::default()
                },
                ..Dwarp::default()
            });
            out.push(id);
        }
        self.building_scratch = building;
        out
    }

    /// Executes one instruction of dynamic warp `u`. Returns whether the
    /// MMU rejected (bounced) a memory access.
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
    ) -> bool {
        let num_sites = kernel.program().num_sites().max(1);
        let block_idx = self.units[u as usize].block as usize;
        let level_rpc = self.blocks[block_idx]
            .levels
            .last()
            .expect("scheduled unit has a level")
            .rpc;
        let pc = self.units[u as usize].pc;
        debug_assert!(pc != level_rpc, "done unit scheduled");
        let unit = &mut self.units[u as usize];
        match kernel.program().op(pc) {
            Op::Alu { cycles } => {
                unit.state.arm(now + cycles as u64, WaitKind::Pipeline);
                unit.pc = pc + 1;
                unit.done_at_rpc = unit.pc == level_rpc;
                path.count_instruction(0);
                false
            }
            Op::Branch { .. } => {
                unit.at_branch = true;
                unit.state
                    .arm(now + path.timings.branch_latency, WaitKind::Pipeline);
                path.count_instruction(0);
                false
            }
            Op::Mem { site, kind } => {
                let block = &self.blocks[block_idx];
                let (block_first, base_warp) = (block.first_tid, block.base_warp);
                let lanes = unit.lanes.iter().flatten().map(|&tid| {
                    let slot = tid as usize * num_sites + site as usize;
                    let iter = iters[slot];
                    iters[slot] += 1;
                    let home = base_warp + ((tid - block_first) / 32) as u16;
                    (kernel.mem_addr(tid, site, iter), home)
                });
                let issue = unit
                    .state
                    .issue_mem(path, now, kind, lanes, u, 0, mem, space, obs);
                if let MemIssue::Done(_) = issue {
                    unit.pc = pc + 1;
                    unit.done_at_rpc = unit.pc == level_rpc;
                }
                matches!(issue, MemIssue::Retry(_))
            }
        }
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

    /// A dynamic warp mixes home warps, so the lines of one page can
    /// belong to different home warps. The fill-bypass wake must give
    /// the L1 each line's own first-lane home warp, not the page's.
    #[test]
    fn fill_bypass_hands_each_line_its_home_warp() {
        use crate::core::{phys_line, ExecMode, Pending, ShaderCore, UnitState};
        use gmmu_mem::{MemConfig, MemorySystem};
        use gmmu_sim::observe::Observer;
        use gmmu_vm::Ppn;

        let cfg = GpuConfig {
            n_cores: 1,
            warps_per_core: 8,
            warps_per_block: 2,
            tbc: Some(TbcConfig::baseline()),
            ..GpuConfig::default()
        };
        let mut core = ShaderCore::new(0, &cfg);
        let page = 0x40_0000u64;
        // Line 0 is first touched by home warp 3, line 1 by home warp 5;
        // the page's own home warp is 3. A second page keeps the unit
        // asleep after the first page's wake.
        let lanes = [
            (page, 3u16),
            (page + 0x80, 5),
            (page + 0x84, 3),
            (page + 0x4, 5),
            (page + 0x10_0000, 3),
        ];
        let refs = core
            .path
            .coalesce_new(lanes.iter().map(|&(a, w)| (VAddr::new(a), w)));
        assert_eq!(refs.pages[0].warp, 3);
        let ExecMode::Tbc(tbc) = &mut core.exec else {
            panic!("TBC core");
        };
        tbc.units.push(super::Dwarp {
            alive: true,
            state: UnitState {
                waiting_pages: 2,
                pending: Some(Pending {
                    kind: MemKind::Load,
                    refs,
                    ..Pending::default()
                }),
                ..UnitState::default()
            },
            ..super::Dwarp::default()
        });
        let unit = (tbc.units.len() - 1) as u16;
        let mut mem = MemorySystem::new(MemConfig::default());
        let vpn = VAddr::new(page).vpn();
        let ppn = Ppn::new(0x77);
        let u = &mut tbc.units[unit as usize];
        let committed = u.state.wake(
            unit,
            vpn,
            ppn,
            &mut core.path,
            10,
            &mut mem,
            &mut Observer::off(),
        );
        assert!(!committed, "the other page is still in flight");

        let owner = |va: u64| {
            let pl = phys_line(ppn, VAddr::new(va).line(7), PageSize::Base4K);
            core.path.l1.meta(pl)
        };
        assert_eq!(owner(page), Some(3));
        assert_eq!(owner(page + 0x80), Some(5));
        // Only the other page is left pending.
        let u = &tbc.units[unit as usize].state;
        assert_eq!(u.waiting_pages, 1);
        let refs = &u.pending.as_ref().expect("still pending").refs;
        assert_eq!(refs.pages.len(), 1);
        assert_eq!(refs.lines.len(), 1);
        assert_eq!(refs.lines[0].page_idx, 0);
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
