//! Hardware page-table walkers.
//!
//! The paper evaluates three walker organizations (Sections 6.2–6.3):
//!
//! * **Serial** — the naive CPU-like design: one walk at a time, four
//!   dependent PTE loads each, misses queued FIFO behind it. This is the
//!   walker that makes TLB misses twice as expensive as L1 misses
//!   (Figure 4).
//! * **Multiple serial walkers** — 2–8 lanes draining the same queue
//!   (Figure 11's comparison point).
//! * **Coalesced** ("PTW scheduling", Figures 8–9) — drains the whole
//!   miss queue as a batch and walks all pages level-by-level:
//!   duplicate PTE loads at a level are issued once (upper levels
//!   rarely change across pages), and distinct PTEs on one 128-byte
//!   cache line are issued back-to-back so the trailing ones hit in the
//!   shared L2. The hardware is an MSHR-scanning comparator tree; here
//!   we model its function and timing.

use gmmu_mem::cache::{Cache, CacheConfig};
use gmmu_mem::{AccessKind, MemorySystem, LINE_SHIFT};
use gmmu_sim::observe::{Event, Observer};
use gmmu_sim::stats::{Counter, Summary};
use gmmu_sim::Cycle;
use gmmu_vm::{AddressSpace, PageSize, Ppn, Vpn, Walk};
use std::collections::VecDeque;

/// Which walker microarchitecture to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkerKind {
    /// `count` independent serial walkers sharing one miss queue.
    Serial {
        /// Number of walker lanes (the paper's baseline has 1).
        count: usize,
    },
    /// The proposed coalescing walk scheduler (single lane, batched).
    Coalesced,
    /// A software-managed TLB refill (Section 6.1 cites Jacob & Mudge
    /// [27]): every miss traps to an interrupt handler that performs
    /// the walk in instructions. Strictly worse than hardware walking —
    /// the reason the paper assumes hardware PTWs — and kept here as an
    /// ablation point.
    Software {
        /// Cycles to enter and leave the handler per walk.
        trap_cycles: u64,
    },
}

/// Walker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerConfig {
    /// Microarchitecture.
    pub kind: WalkerKind,
    /// Issue spacing between back-to-back PTE loads in one batch level
    /// (cycles); models the comparator-tree scan rate.
    pub issue_spacing: u64,
    /// Optional page-walk cache: a small walker-private cache of
    /// upper-level (PML4/PDP/PD) entries, the mechanism the concurrent
    /// Power–Hill–Wood design leans on (Section 9). Entries give the
    /// number of cached upper-level PTEs; hits skip the memory
    /// reference entirely.
    pub pwc_entries: usize,
}

impl WalkerConfig {
    /// The paper's naive baseline: one serial walker.
    pub fn serial() -> Self {
        Self {
            kind: WalkerKind::Serial { count: 1 },
            issue_spacing: 1,
            pwc_entries: 0,
        }
    }

    /// `n` naive serial walkers (Figure 11).
    pub fn serial_n(n: usize) -> Self {
        Self {
            kind: WalkerKind::Serial { count: n },
            ..Self::serial()
        }
    }

    /// The proposed coalescing walk scheduler.
    pub fn coalesced() -> Self {
        Self {
            kind: WalkerKind::Coalesced,
            ..Self::serial()
        }
    }

    /// A software-managed TLB refill with the given trap overhead.
    pub fn software(trap_cycles: u64) -> Self {
        Self {
            kind: WalkerKind::Software { trap_cycles },
            ..Self::serial()
        }
    }

    /// Adds a page-walk cache of `entries` upper-level PTEs.
    pub fn with_pwc(mut self, entries: usize) -> Self {
        self.pwc_entries = entries;
        self
    }
}

impl gmmu_sim::ckpt::Ckpt for WalkerKind {
    fn save(&self, w: &mut gmmu_sim::ckpt::Saver) {
        match *self {
            WalkerKind::Serial { count } => {
                w.u8(0);
                w.usize(count);
            }
            WalkerKind::Coalesced => w.u8(1),
            WalkerKind::Software { trap_cycles } => {
                w.u8(2);
                w.u64(trap_cycles);
            }
        }
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::ckpt::Loader<'_>,
    ) -> Result<(), gmmu_sim::ckpt::CkptError> {
        *self = match r.u8()? {
            0 => WalkerKind::Serial { count: r.usize()? },
            1 => WalkerKind::Coalesced,
            2 => WalkerKind::Software {
                trap_cycles: r.u64()?,
            },
            _ => return Err(gmmu_sim::ckpt::CkptError::Corrupt("unknown walker kind")),
        };
        Ok(())
    }
}

impl gmmu_sim::ckpt::Ckpt for WalkerConfig {
    fn save(&self, w: &mut gmmu_sim::ckpt::Saver) {
        self.kind.save(w);
        w.u64(self.issue_spacing);
        w.usize(self.pwc_entries);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::ckpt::Loader<'_>,
    ) -> Result<(), gmmu_sim::ckpt::CkptError> {
        self.kind.load(r)?;
        self.issue_spacing = r.u64()?;
        self.pwc_entries = r.usize()?;
        Ok(())
    }
}

/// A queued walk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkRequest {
    /// Address space whose page table must be walked.
    pub asid: u16,
    /// Page to translate.
    pub vpn: Vpn,
    /// Warp that missed (diagnostics).
    pub warp: u16,
    /// Cycle the TLB miss was detected.
    pub enqueued: Cycle,
}

/// A finished walk, ready to fill the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkDone {
    /// Address space the translation belongs to.
    pub asid: u16,
    /// Page that was walked.
    pub vpn: Vpn,
    /// Warp that missed (becomes the TLB entry's owner).
    pub warp: u16,
    /// Translation, or `None` for a page fault (unmapped).
    pub translation: Option<(Ppn, PageSize)>,
    /// Cycle the walk's last PTE load returned.
    pub complete: Cycle,
    /// Cycle the miss was originally enqueued.
    pub enqueued: Cycle,
    /// Cycle a walker lane picked the request up (stage attribution:
    /// `started - enqueued` is queueing, `complete - started` is the
    /// active walk).
    pub started: Cycle,
}

/// Per-ASID fairness state for the walk scheduler (MASK-style): each
/// tenant holds `tokens` grants per round, refilled when every tenant
/// with queued work has spent its credits, and any request older than
/// `max_age` cycles is served unconditionally, oldest first. Disabled
/// (`Walker::set_fairness` with one tenant) the scheduler degenerates to
/// the exact legacy FIFO, byte for byte.
#[derive(Debug, Clone)]
pub struct FairState {
    /// Number of tenants sharing this walker.
    n_asids: usize,
    /// Grants per tenant per refill round.
    tokens: u32,
    /// Queue age (cycles) beyond which a request bypasses the token
    /// scheduler entirely — the starvation-proofness bound.
    max_age: u64,
    /// Remaining grants this round, indexed by ASID.
    credits: Vec<u32>,
    /// ASID after the last one served (round-robin scan start).
    rr: usize,
}

/// Statistics shared by all walker kinds.
#[derive(Debug, Clone, Default)]
pub struct WalkerStats {
    /// Completed walks.
    pub walks: Counter,
    /// PTE loads actually sent to the memory system.
    pub refs_issued: Counter,
    /// PTE loads a naive serial walker would have sent (4 per 4 KiB
    /// walk); `refs_issued / refs_naive` is the Figure 10 "10–20% of
    /// references eliminated" statistic.
    pub refs_naive: Counter,
    /// End-to-end walk latency (enqueue → last load back), i.e. the
    /// per-TLB-miss penalty of Figure 4.
    pub walk_latency: Summary,
    /// Batch sizes drained by the coalesced walker.
    pub batch_size: Summary,
    /// Upper-level loads served by the page-walk cache.
    pub pwc_hits: Counter,
    /// Cycles any lane spent occupied by a walk, summed over lanes;
    /// divide by `lanes x elapsed cycles` for walker occupancy.
    pub lane_busy_cycles: Counter,
}

impl WalkerStats {
    /// Fraction of naive PTE loads eliminated by scheduling, in `[0, 1]`.
    pub fn refs_eliminated(&self) -> f64 {
        let naive = self.refs_naive.get();
        if naive == 0 {
            0.0
        } else {
            1.0 - self.refs_issued.get() as f64 / naive as f64
        }
    }
}

/// Reusable buffers for the coalesced walker's batch machinery. Owned
/// by the walker, cleared (not dropped) at the start of every batch, so
/// the steady state performs no heap allocation: capacities grow to the
/// high-water mark of the run and stay there. Never serialized — the
/// contents are dead between `advance` calls.
#[derive(Debug, Clone, Default)]
struct WalkScratch {
    /// Requests drained from `pending` for the current batch.
    batch: Vec<WalkRequest>,
    /// Requests held back by the fairness cap (swapped with `pending`).
    rest: VecDeque<WalkRequest>,
    /// Per-ASID requests taken this batch (fairness accounting).
    taken: Vec<u32>,
    /// One page-table walk per batched request.
    walks: Vec<gmmu_vm::Walk>,
    /// Completion cycle per batched request.
    walk_complete: Vec<Cycle>,
    /// Unique PTE loads at the current level with their user walks. The
    /// inner `Vec`s are recycled slot-by-slot (only a live prefix is
    /// meaningful each level) so their capacity survives across levels.
    level_refs: Vec<(u64, Vec<usize>)>,
}

/// A page-table walker attached to one shader core's TLB.
///
/// Drive it by calling [`Walker::enqueue`] on TLB misses and
/// [`Walker::advance`] every core cycle; finished walks appear in the
/// output vector passed to `advance`.
///
/// # Examples
///
/// ```
/// use gmmu_core::walker::{Walker, WalkerConfig};
/// use gmmu_mem::{MemConfig, MemorySystem};
/// use gmmu_vm::{AddressSpace, PageSize, SpaceConfig};
///
/// let mut space = AddressSpace::new(SpaceConfig::default());
/// let region = space.map_region("d", 1 << 16, PageSize::Base4K)?;
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let mut walker = Walker::new(WalkerConfig::serial());
///
/// walker.enqueue(region.base.vpn(), 0, 100);
/// let mut done = Vec::new();
/// walker.advance(100, &mut mem, &space, &mut done);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].complete > 100);
/// # Ok::<(), gmmu_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Walker {
    config: WalkerConfig,
    /// Per-lane busy-until reservation (serial); the coalesced walker
    /// uses exactly one lane.
    lanes: Vec<Cycle>,
    pending: VecDeque<WalkRequest>,
    /// Optional page-walk cache over upper-level PTE addresses.
    pwc: Option<Cache>,
    /// Per-ASID fairness scheduler; `None` is the exact legacy FIFO.
    fair: Option<FairState>,
    /// Reusable batch buffers (see [`WalkScratch`]); not serialized.
    scratch: WalkScratch,
    /// Statistics.
    pub stats: WalkerStats,
}

impl Walker {
    /// Creates an idle walker.
    ///
    /// # Panics
    ///
    /// Panics if a serial walker is configured with zero lanes.
    pub fn new(config: WalkerConfig) -> Self {
        let lanes = match config.kind {
            WalkerKind::Serial { count } => {
                assert!(count > 0, "serial walker needs at least one lane");
                count
            }
            WalkerKind::Coalesced => 1,
            WalkerKind::Software { .. } => 1,
        };
        let pwc = (config.pwc_entries > 0).then(|| {
            let entries = config.pwc_entries.next_power_of_two();
            Cache::new(CacheConfig {
                sets: (entries / 4).max(1),
                ways: entries.min(4),
            })
        });
        Self {
            config,
            lanes: vec![0; lanes],
            pending: VecDeque::new(),
            pwc,
            fair: None,
            scratch: WalkScratch::default(),
            stats: WalkerStats::default(),
        }
    }

    /// Arms (or, with `n_asids <= 1`, disarms) the per-ASID fairness
    /// scheduler: each tenant gets `tokens` walk grants per round and any
    /// request queued longer than `max_age` cycles is served first,
    /// oldest first, regardless of tokens. With fairness disarmed the
    /// walker is bit-identical to the legacy FIFO.
    pub fn set_fairness(&mut self, n_asids: usize, tokens: u32, max_age: u64) {
        self.fair = (n_asids > 1).then(|| FairState {
            n_asids,
            tokens: tokens.max(1),
            max_age: max_age.max(1),
            credits: vec![tokens.max(1); n_asids],
            rr: 0,
        });
    }

    /// Whether the per-ASID fairness scheduler is armed.
    pub fn fairness_armed(&self) -> bool {
        self.fair.is_some()
    }

    /// Picks the next request to walk. Without fairness this is the FIFO
    /// head. With fairness: any request older than `max_age` is served
    /// oldest-first (queue order breaks enqueue-cycle ties); otherwise a
    /// round-robin scan from `rr` picks the first ASID that still holds
    /// credits and has queued work. When no credited ASID has work the
    /// round's credits refill and the FIFO head is served.
    fn pick(&mut self, now: Cycle) -> Option<WalkRequest> {
        let Some(fair) = self.fair.as_mut() else {
            return self.pending.pop_front();
        };
        if self.pending.is_empty() {
            return None;
        }
        let aged = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, r)| now.saturating_sub(r.enqueued) >= fair.max_age)
            .min_by_key(|(i, r)| (r.enqueued, *i))
            .map(|(i, _)| i);
        if let Some(i) = aged {
            return self.pending.remove(i);
        }
        for step in 0..fair.n_asids {
            let a = (fair.rr + step) % fair.n_asids;
            if fair.credits[a] == 0 {
                continue;
            }
            if let Some(i) = self.pending.iter().position(|r| r.asid as usize == a) {
                fair.credits[a] -= 1;
                fair.rr = (a + 1) % fair.n_asids;
                return self.pending.remove(i);
            }
        }
        // Every ASID with queued work is out of credits: new round.
        for c in &mut fair.credits {
            *c = fair.tokens;
        }
        let head = self.pending.pop_front();
        if let Some(r) = &head {
            let a = r.asid as usize;
            fair.credits[a] -= 1;
            fair.rr = (a + 1) % fair.n_asids;
        }
        head
    }

    /// Serves one PTE load, consulting the page-walk cache for
    /// upper-level entries; returns the completion cycle.
    fn pte_load(
        pwc: &mut Option<Cache>,
        stats: &mut WalkerStats,
        at: Cycle,
        level: u32,
        pte_paddr: u64,
        mem: &mut MemorySystem,
    ) -> Cycle {
        if level > 1 {
            if let Some(pwc) = pwc.as_mut() {
                // The PWC caches individual upper-level PTEs.
                if pwc.access(pte_paddr >> 3, 0, at).is_hit() {
                    stats.pwc_hits.inc();
                    return at + 1;
                }
            }
        }
        stats.refs_issued.inc();
        mem.access(at, pte_paddr >> LINE_SHIFT, AccessKind::PageWalk)
            .complete
    }

    /// Configuration.
    pub fn config(&self) -> &WalkerConfig {
        &self.config
    }

    /// Registers this walker's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.lanes"), self.lanes.len() as u64);
        reg.counter(format!("{prefix}.walks"), self.stats.walks.get());
        reg.counter(
            format!("{prefix}.refs_issued"),
            self.stats.refs_issued.get(),
        );
        reg.counter(format!("{prefix}.refs_naive"), self.stats.refs_naive.get());
        reg.counter(format!("{prefix}.pwc_hits"), self.stats.pwc_hits.get());
        reg.counter(
            format!("{prefix}.lane_busy_cycles"),
            self.stats.lane_busy_cycles.get(),
        );
        reg.gauge(
            format!("{prefix}.walk_latency.mean"),
            self.stats.walk_latency.mean(),
        );
        reg.gauge(
            format!("{prefix}.batch_size.mean"),
            self.stats.batch_size.mean(),
        );
    }

    /// Queues a walk for `vpn` missed by `warp` at cycle `now`, in the
    /// default address space (ASID 0).
    pub fn enqueue(&mut self, vpn: Vpn, warp: u16, now: Cycle) {
        self.enqueue_asid(0, vpn, warp, now);
    }

    /// Queues a walk for `vpn` in the address space tagged `asid`.
    pub fn enqueue_asid(&mut self, asid: u16, vpn: Vpn, warp: u16, now: Cycle) {
        self.pending.push_back(WalkRequest {
            asid,
            vpn,
            warp,
            enqueued: now,
        });
    }

    /// Walks waiting to start (not counting in-flight ones).
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Queued walks belonging to `asid` (watchdog diagnostics).
    pub fn queue_len_asid(&self, asid: u16) -> usize {
        self.pending.iter().filter(|r| r.asid == asid).count()
    }

    /// The per-walker half of a TLB shootdown: squashes every queued
    /// (not yet started) walk and flushes the page-walk cache, whose
    /// cached upper-level PTEs may now be stale. Lanes keep their busy
    /// reservations — hardware lanes finish the PTE loads they already
    /// issued; the MMU drops the results. Returns the squashed requests
    /// so the MMU can re-disposition their waiters.
    pub fn shootdown(&mut self) -> Vec<WalkRequest> {
        if let Some(pwc) = self.pwc.as_mut() {
            pwc.flush();
        }
        // `Vec::from` rotates the deque's buffer in place — the queue's
        // allocation is handed to the caller rather than copied.
        Vec::from(std::mem::take(&mut self.pending))
    }

    /// ASID-scoped shootdown: squashes only the queued walks belonging
    /// to `asid`, leaving other tenants' requests queued in order. The
    /// page-walk cache is still flushed — its entries are tagged by
    /// physical PTE address only, and a conservative full flush is what
    /// the hardware would do (it costs refetches, never correctness).
    /// On single-tenant state `shootdown_asid(0)` is byte-identical to
    /// [`Walker::shootdown`].
    pub fn shootdown_asid(&mut self, asid: u16) -> Vec<WalkRequest> {
        if let Some(pwc) = self.pwc.as_mut() {
            pwc.flush();
        }
        let mut squashed = Vec::new();
        self.pending.retain(|r| {
            if r.asid == asid {
                squashed.push(*r);
                false
            } else {
                true
            }
        });
        squashed
    }

    /// Number of walk lanes (1 for coalesced/software walkers).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The earliest cycle at which [`Walker::advance`] can make progress,
    /// or `None` when nothing is queued. After an `advance(now)` the
    /// queue is non-empty only if every lane is busy past `now`, so the
    /// earliest-free lane is exactly when the next queued walk starts.
    /// (A request enqueued *after* this cycle's `advance` can start at
    /// the very next cycle; callers clamp accordingly.)
    pub fn next_event_at(&self) -> Option<Cycle> {
        if self.pending.is_empty() {
            None
        } else {
            self.lanes.iter().copied().min()
        }
    }

    /// Services the queue up to cycle `now`, pushing finished walks into
    /// `done`. Completion cycles may lie in the future — the MMU applies
    /// the TLB fills when the clock reaches them.
    pub fn advance(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        space: &AddressSpace,
        done: &mut Vec<WalkDone>,
    ) {
        self.advance_tenants(now, mem, &[space], done, &mut Observer::off());
    }

    /// The multi-tenant, observed [`Walker::advance`]: each request's
    /// page table is `spaces[request.asid]`, and every walk emits one
    /// [`Event::Walk`] (track = serial lane or coalesced batch slot).
    /// Single-space callers pass a one-element slice and every request
    /// must carry ASID 0.
    ///
    /// # Panics
    ///
    /// Panics if a queued request's ASID has no matching space.
    pub fn advance_tenants(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        spaces: &[&AddressSpace],
        done: &mut Vec<WalkDone>,
        obs: &mut Observer,
    ) {
        match self.config.kind {
            WalkerKind::Serial { .. } => self.advance_serial(now, mem, spaces, done, 0, obs),
            WalkerKind::Coalesced => self.advance_coalesced(now, mem, spaces, done, obs),
            WalkerKind::Software { trap_cycles } => {
                self.advance_serial(now, mem, spaces, done, trap_cycles, obs)
            }
        }
    }

    fn advance_serial(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        spaces: &[&AddressSpace],
        done: &mut Vec<WalkDone>,
        trap_cycles: u64,
        obs: &mut Observer,
    ) {
        loop {
            if self.pending.is_empty() {
                return;
            }
            // Earliest-free lane.
            let (lane_idx, &lane_free) = self
                .lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .expect("walker has at least one lane");
            if lane_free > now {
                return;
            }
            let req = self.pick(now).expect("checked non-empty");
            let walk = spaces[req.asid as usize].walk(req.vpn);
            // A software handler pays the trap on entry and exit.
            let mut t = now + trap_cycles;
            for level in &walk.levels {
                t = Self::pte_load(
                    &mut self.pwc,
                    &mut self.stats,
                    t,
                    level.level,
                    level.pte_paddr.raw(),
                    mem,
                );
            }
            t += trap_cycles;
            self.stats.refs_naive.add(walk.levels.len() as u64);
            self.stats.walks.inc();
            self.stats.walk_latency.record(t - req.enqueued);
            self.stats.lane_busy_cycles.add(t - now);
            self.lanes[lane_idx] = t;
            let core = obs.core;
            obs.record(|| Event::Walk {
                core,
                track: lane_idx as u32,
                asid: req.asid,
                vpn: req.vpn.raw(),
                warp: req.warp,
                start: now,
                end: t,
                levels: level_list(&walk),
            });
            done.push(WalkDone {
                asid: req.asid,
                vpn: req.vpn,
                warp: req.warp,
                translation: walk.result,
                complete: t,
                enqueued: req.enqueued,
                started: now,
            });
        }
    }

    fn advance_coalesced(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        spaces: &[&AddressSpace],
        done: &mut Vec<WalkDone>,
        obs: &mut Observer,
    ) {
        if self.pending.is_empty() || self.lanes[0] > now {
            return;
        }
        // Drain the queue into one batch: the hardware scans all
        // allocated MSHRs with its comparator tree. Without fairness the
        // whole queue goes (legacy behaviour); with fairness each ASID
        // contributes at most `tokens` requests per batch — except aged
        // ones, which always board — so one thrashing tenant cannot
        // stretch every batch (and every co-tenant's walk) on its own.
        // All batch buffers come from the walker's scratch pool: cleared
        // here, returned at the end, never reallocated in steady state.
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        match &self.fair {
            None => batch.extend(self.pending.drain(..)),
            Some(fair) => {
                let (tokens, max_age, n_asids) = (fair.tokens, fair.max_age, fair.n_asids);
                let taken = &mut self.scratch.taken;
                taken.clear();
                taken.resize(n_asids, 0);
                let mut rest = std::mem::take(&mut self.scratch.rest);
                rest.clear();
                for r in self.pending.drain(..) {
                    let aged = now.saturating_sub(r.enqueued) >= max_age;
                    let a = r.asid as usize;
                    if aged || taken[a] < tokens {
                        taken[a] += 1;
                        batch.push(r);
                    } else {
                        rest.push_back(r);
                    }
                }
                // The drained queue becomes next batch's `rest` buffer.
                std::mem::swap(&mut self.pending, &mut rest);
                self.scratch.rest = rest;
            }
        }
        self.stats.batch_size.record(batch.len() as u64);
        let mut walks = std::mem::take(&mut self.scratch.walks);
        walks.clear();
        walks.extend(batch.iter().map(|r| spaces[r.asid as usize].walk(r.vpn)));
        let max_levels = walks.iter().map(|w| w.levels.len()).max().unwrap_or(0);
        let mut walk_complete = std::mem::take(&mut self.scratch.walk_complete);
        walk_complete.clear();
        walk_complete.resize(walks.len(), now);
        let mut level_refs = std::mem::take(&mut self.scratch.level_refs);
        let mut t = now;
        for li in 0..max_levels {
            // Unique PTE loads at this level, preserving first-seen order
            // and grouping same-line loads adjacently (sort by line then
            // address; batches are small, so this is cheap). Only the
            // first `n_refs` slots of `level_refs` are live; dead slots
            // keep their inner `Vec` capacity for recycling.
            let mut n_refs = 0usize;
            for (wi, w) in walks.iter().enumerate() {
                let Some(level) = w.levels.get(li) else {
                    continue;
                };
                let pa = level.pte_paddr.raw();
                match level_refs[..n_refs].iter_mut().find(|(a, _)| *a == pa) {
                    Some((_, users)) => users.push(wi), // duplicate: eliminated
                    None => {
                        if let Some(slot) = level_refs.get_mut(n_refs) {
                            slot.0 = pa;
                            slot.1.clear();
                            slot.1.push(wi);
                        } else {
                            level_refs.push((pa, vec![wi]));
                        }
                        n_refs += 1;
                    }
                }
            }
            if n_refs == 0 {
                break;
            }
            // Unstable sort: keys are unique (entries were deduplicated
            // by address), so the order is identical to a stable sort —
            // without the stable sort's temporary heap buffer.
            level_refs[..n_refs].sort_unstable_by_key(|(a, _)| (*a >> LINE_SHIFT, *a));
            let naive_refs: usize = level_refs[..n_refs].iter().map(|(_, u)| u.len()).sum();
            self.stats.refs_naive.add(naive_refs as u64);
            // Issue the unique loads back-to-back; the level's loads are
            // independent, so their latencies overlap. The next level
            // depends on this one, so it starts when the slowest returns.
            let level = walks
                .iter()
                .filter_map(|w| w.levels.get(li))
                .map(|l| l.level)
                .next()
                .expect("non-empty level");
            let mut level_done = t;
            for (i, (pa, users)) in level_refs[..n_refs].iter().enumerate() {
                let issue = t + i as u64 * self.config.issue_spacing;
                let complete =
                    Self::pte_load(&mut self.pwc, &mut self.stats, issue, level, *pa, mem);
                level_done = level_done.max(complete);
                for &wi in users {
                    walk_complete[wi] = walk_complete[wi].max(complete);
                }
            }
            t = level_done;
        }
        for (wi, req) in batch.iter().enumerate() {
            let complete = walk_complete[wi];
            self.stats.walks.inc();
            self.stats.walk_latency.record(complete - req.enqueued);
            // One event per walk in the batch; tracks fan out by batch
            // index so concurrent walks render as parallel rows. Level
            // attribution is per walk, not per issued load: each walk
            // charges every level it needs even when the scheduler
            // deduplicated the memory reference.
            let core = obs.core;
            obs.record(|| Event::Walk {
                core,
                track: wi as u32,
                asid: req.asid,
                vpn: req.vpn.raw(),
                warp: req.warp,
                start: now,
                end: complete,
                levels: level_list(&walks[wi]),
            });
            done.push(WalkDone {
                asid: req.asid,
                vpn: req.vpn,
                warp: req.warp,
                translation: walks[wi].result,
                complete,
                enqueued: req.enqueued,
                started: now,
            });
        }
        self.stats.lane_busy_cycles.add(t - now);
        self.lanes[0] = t;
        // Hand every buffer back for the next batch.
        self.scratch.batch = batch;
        self.scratch.walks = walks;
        self.scratch.walk_complete = walk_complete;
        self.scratch.level_refs = level_refs;
    }
}

/// The radix levels `walk` referenced, in [`Event::Walk`] form.
fn level_list(walk: &Walk) -> [u8; 4] {
    let mut levels = [0u8; 4];
    for (slot, l) in levels.iter_mut().zip(walk.levels.iter()) {
        *slot = l.level as u8;
    }
    levels
}

use gmmu_sim::ckpt::{Ckpt, CkptError, Loader, Saver};

impl Ckpt for WalkRequest {
    fn save(&self, w: &mut Saver) {
        w.u16(self.asid);
        self.vpn.save(w);
        w.u16(self.warp);
        w.u64(self.enqueued);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.asid = r.u16()?;
        self.vpn.load(r)?;
        self.warp = r.u16()?;
        self.enqueued = r.u64()?;
        Ok(())
    }
}

impl Ckpt for WalkDone {
    fn save(&self, w: &mut Saver) {
        w.u16(self.asid);
        self.vpn.save(w);
        w.u16(self.warp);
        self.translation.save(w);
        w.u64(self.complete);
        w.u64(self.enqueued);
        w.u64(self.started);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.asid = r.u16()?;
        self.vpn.load(r)?;
        self.warp = r.u16()?;
        self.translation.load(r)?;
        self.complete = r.u64()?;
        self.enqueued = r.u64()?;
        self.started = r.u64()?;
        Ok(())
    }
}

impl Ckpt for WalkerStats {
    fn save(&self, w: &mut Saver) {
        self.walks.save(w);
        self.refs_issued.save(w);
        self.refs_naive.save(w);
        self.walk_latency.save(w);
        self.batch_size.save(w);
        self.pwc_hits.save(w);
        self.lane_busy_cycles.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.walks.load(r)?;
        self.refs_issued.load(r)?;
        self.refs_naive.load(r)?;
        self.walk_latency.load(r)?;
        self.batch_size.load(r)?;
        self.pwc_hits.load(r)?;
        self.lane_busy_cycles.load(r)
    }
}

impl Ckpt for Walker {
    /// Whether a page-walk cache or fairness scheduler exists is
    /// config-derived geometry, so the stream holds their contents only
    /// when the walker has them.
    fn save(&self, w: &mut Saver) {
        self.lanes.save(w);
        self.pending.save(w);
        if let Some(pwc) = &self.pwc {
            pwc.save(w);
        }
        if let Some(fair) = &self.fair {
            fair.credits.save(w);
            w.usize(fair.rr);
        }
        self.stats.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        self.lanes.load(r)?;
        self.pending.load(r)?;
        if let Some(pwc) = &mut self.pwc {
            pwc.load(r)?;
        }
        if let Some(fair) = &mut self.fair {
            fair.credits.load(r)?;
            fair.rr = r.usize()?;
        }
        self.stats.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmmu_mem::{MemConfig, MemorySystem};
    use gmmu_vm::SpaceConfig;

    fn setup() -> (AddressSpace, MemorySystem) {
        let mut space = AddressSpace::new(SpaceConfig::default());
        space
            .map_region("data", 8 << 20, PageSize::Base4K)
            .expect("map");
        (space, MemorySystem::new(MemConfig::default()))
    }

    /// The Figure 8 pages: (0xb9,0x0c,0xac,0x03), (…,0x04), (…,0xad,0x05)
    /// relative to a region base; we synthesize equivalent locality by
    /// picking pages 3, 4 and 512+5 of a region (same PML4/PDP, first two
    /// share a PT cache line, third in a sibling PT).
    fn figure8_pages(space: &AddressSpace) -> [Vpn; 3] {
        let base = space.regions()[0].base.vpn().raw();
        [
            Vpn::new(base + 3),
            Vpn::new(base + 4),
            Vpn::new(base + 512 + 5),
        ]
    }

    #[test]
    fn serial_walker_walks_one_at_a_time() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::serial());
        let pages = figure8_pages(&space);
        for p in pages {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        // Only the first walk starts at cycle 0; the lane is now busy.
        assert_eq!(done.len(), 1);
        let first_done = done[0].complete;
        w.advance(first_done, &mut mem, &space, &mut done);
        assert_eq!(done.len(), 2);
        assert!(done[1].complete > first_done);
        assert_eq!(w.stats.refs_issued.get(), 8); // 4 + 4
    }

    #[test]
    fn coalesced_walker_issues_figure8_reference_count() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::coalesced());
        for p in figure8_pages(&space) {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        assert_eq!(done.len(), 3);
        // Paper, Figure 8: 12 naive loads reduced to 7 (1 PML4, 1 PDP,
        // 2 PD, 3 PT).
        assert_eq!(w.stats.refs_naive.get(), 12);
        assert_eq!(w.stats.refs_issued.get(), 7);
        assert!((w.stats.refs_eliminated() - 5.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn coalesced_batch_is_faster_than_serial_walks() {
        let (space, mut mem_a) = setup();
        let mut mem_b = MemorySystem::new(MemConfig::default());
        let pages = figure8_pages(&space);

        let mut serial = Walker::new(WalkerConfig::serial());
        let mut done = Vec::new();
        for p in pages {
            serial.enqueue(p, 0, 0);
        }
        let mut t = 0;
        while done.len() < 3 {
            serial.advance(t, &mut mem_a, &space, &mut done);
            t = done.last().map_or(t + 1, |d| d.complete);
        }
        let serial_finish = done.iter().map(|d| d.complete).max().unwrap();

        let mut coal = Walker::new(WalkerConfig::coalesced());
        let mut done_c = Vec::new();
        for p in pages {
            coal.enqueue(p, 0, 0);
        }
        coal.advance(0, &mut mem_b, &space, &mut done_c);
        let coal_finish = done_c.iter().map(|d| d.complete).max().unwrap();
        assert!(
            coal_finish < serial_finish,
            "coalesced {coal_finish} !< serial {serial_finish}"
        );
    }

    #[test]
    fn walk_results_match_translation() {
        let (space, mut mem) = setup();
        for cfg in [WalkerConfig::serial(), WalkerConfig::coalesced()] {
            let mut w = Walker::new(cfg);
            let pages = figure8_pages(&space);
            for p in pages {
                w.enqueue(p, 0, 0);
            }
            let mut done = Vec::new();
            let mut t = 0;
            for _ in 0..10 {
                w.advance(t, &mut mem, &space, &mut done);
                t += 10_000;
            }
            assert_eq!(done.len(), 3);
            for d in &done {
                let expect = space.translate(d.vpn.base()).expect("mapped").0.ppn();
                assert_eq!(d.translation.expect("mapped").0, expect);
            }
        }
    }

    #[test]
    fn unmapped_walk_reports_fault() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::serial());
        w.enqueue(Vpn::new(1), 0, 0);
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].translation, None);
        // A truncated walk still issued at least one load.
        assert!(w.stats.refs_issued.get() >= 1);
    }

    #[test]
    fn multiple_serial_lanes_overlap() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::serial_n(2));
        let pages = figure8_pages(&space);
        for p in pages {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        // Two lanes start immediately.
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn large_page_walks_are_shorter() {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let r = space.map_region("big", 4 << 20, PageSize::Large2M).unwrap();
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut w = Walker::new(WalkerConfig::serial());
        w.enqueue(r.base.vpn(), 0, 0);
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        assert_eq!(w.stats.refs_issued.get(), 3);
        assert_eq!(done[0].translation.unwrap().1, PageSize::Large2M);
    }

    #[test]
    fn software_walker_pays_trap_overhead() {
        let (space, mut mem) = setup();
        let page = figure8_pages(&space)[0];
        let run = |cfg, mem: &mut MemorySystem| {
            let mut w = Walker::new(cfg);
            w.enqueue(page, 0, 0);
            let mut done = Vec::new();
            w.advance(0, mem, &space, &mut done);
            done[0].complete
        };
        let hw = run(WalkerConfig::serial(), &mut mem);
        let mut mem2 = MemorySystem::new(MemConfig::default());
        let sw = run(WalkerConfig::software(200), &mut mem2);
        assert!(
            sw >= hw + 2 * 200,
            "software walk {sw} should pay two traps over hardware {hw}"
        );
    }

    #[test]
    fn page_walk_cache_skips_warm_upper_levels() {
        let (space, mut mem) = setup();
        let base = space.regions()[0].base.vpn().raw();
        let mut w = Walker::new(WalkerConfig::serial().with_pwc(16));
        let mut done = Vec::new();
        // First walk warms PML4/PDP/PD entries.
        w.enqueue(Vpn::new(base), 0, 0);
        w.advance(0, &mut mem, &space, &mut done);
        assert_eq!(w.stats.refs_issued.get(), 4);
        // A neighbouring page shares all three upper levels: only the
        // leaf PTE goes to memory.
        w.enqueue(Vpn::new(base + 1), 0, 1_000_000);
        w.advance(1_000_000, &mut mem, &space, &mut done);
        assert_eq!(w.stats.refs_issued.get(), 5);
        assert_eq!(w.stats.pwc_hits.get(), 3);
        // The second walk is also much faster.
        let first = done[0].complete - done[0].enqueued;
        let second = done[1].complete - done[1].enqueued;
        assert!(second < first / 2, "PWC walk {second} !< {first}/2");
    }

    #[test]
    fn pwc_composes_with_the_coalescing_walker() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::coalesced().with_pwc(16));
        for p in figure8_pages(&space) {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        w.advance(0, &mut mem, &space, &mut done);
        assert_eq!(done.len(), 3);
        // Dedup already removes repeats within the batch; the PWC only
        // helps across batches.
        assert_eq!(w.stats.refs_issued.get(), 7);
        // A second batch of neighbours now hits the PWC for all three
        // upper levels.
        let base = space.regions()[0].base.vpn().raw();
        w.enqueue(Vpn::new(base + 6), 0, 1_000_000);
        w.advance(1_000_000, &mut mem, &space, &mut done);
        assert!(w.stats.pwc_hits.get() >= 3);
    }

    fn two_tenant_setup() -> (AddressSpace, AddressSpace, MemorySystem) {
        let mut s0 = AddressSpace::with_asid(SpaceConfig::default(), 0);
        let mut s1 = AddressSpace::with_asid(SpaceConfig::default(), 1);
        s0.map_region("d", 8 << 20, PageSize::Base4K).expect("map");
        s1.map_region("d", 8 << 20, PageSize::Base4K).expect("map");
        (s0, s1, MemorySystem::new(MemConfig::default()))
    }

    #[test]
    fn walks_use_each_tenants_own_table() {
        let (s0, s1, mut mem) = two_tenant_setup();
        let mut w = Walker::new(WalkerConfig::coalesced());
        let v0 = s0.regions()[0].base.vpn();
        let v1 = s1.regions()[0].base.vpn();
        w.enqueue_asid(0, v0, 0, 0);
        w.enqueue_asid(1, v1, 0, 0);
        let mut done = Vec::new();
        w.advance_tenants(0, &mut mem, &[&s0, &s1], &mut done, &mut Observer::off());
        assert_eq!(done.len(), 2);
        for d in &done {
            let space = if d.asid == 0 { &s0 } else { &s1 };
            let expect = space.translate(d.vpn.base()).expect("mapped").0.ppn();
            assert_eq!(d.translation.expect("mapped").0, expect);
        }
        // Disjoint physical windows: the two tenants' frames never match.
        assert_ne!(done[0].translation, done[1].translation);
    }

    #[test]
    fn fairness_caps_a_thrashing_tenants_batch_share() {
        let (s0, s1, mut mem) = two_tenant_setup();
        let base0 = s0.regions()[0].base.vpn().raw();
        let v1 = s1.regions()[0].base.vpn();
        let mut w = Walker::new(WalkerConfig::coalesced());
        w.set_fairness(2, 2, 10_000);
        // Tenant 0 floods the queue; tenant 1 queues one walk last.
        for i in 0..32 {
            w.enqueue_asid(0, Vpn::new(base0 + i), 0, 0);
        }
        w.enqueue_asid(1, v1, 0, 0);
        let mut done = Vec::new();
        w.advance_tenants(0, &mut mem, &[&s0, &s1], &mut done, &mut Observer::off());
        // First batch: 2 of tenant 0's walks plus tenant 1's — not all 33.
        assert_eq!(done.len(), 3);
        assert!(done.iter().any(|d| d.asid == 1));
        assert_eq!(w.queue_len(), 30);
        assert_eq!(w.queue_len_asid(0), 30);
        assert_eq!(w.queue_len_asid(1), 0);
    }

    #[test]
    fn serial_fairness_serves_starved_tenant_within_max_age() {
        let (s0, s1, mut mem) = two_tenant_setup();
        let base0 = s0.regions()[0].base.vpn().raw();
        let v1 = s1.regions()[0].base.vpn();
        let mut w = Walker::new(WalkerConfig::serial());
        // max_age larger than the run so the round-robin token path (not
        // the aged-first path, which ties back to FIFO here because every
        // request is enqueued at cycle 0) decides the order.
        w.set_fairness(2, 1, 1_000_000);
        for i in 0..64 {
            w.enqueue_asid(0, Vpn::new(base0 + i), 0, 0);
        }
        w.enqueue_asid(1, v1, 7, 0);
        let mut done: Vec<WalkDone> = Vec::new();
        let mut t = 0;
        while !done.iter().any(|d| d.asid == 1) {
            w.advance_tenants(t, &mut mem, &[&s0, &s1], &mut done, &mut Observer::off());
            t += 1;
            assert!(t < 5_000, "tenant 1 starved behind tenant 0's flood");
        }
        // Despite being enqueued 65th, tenant 1 finishes near the front:
        // round-robin tokens alternate ASIDs, so it is picked second.
        let served = done.iter().position(|d| d.asid == 1).unwrap();
        assert!(served <= 2, "tenant 1 served {served}th");
    }

    #[test]
    fn fairness_off_is_legacy_fifo() {
        let (s0, s1, mut mem) = two_tenant_setup();
        let mut mem2 = MemorySystem::new(MemConfig::default());
        let base0 = s0.regions()[0].base.vpn().raw();
        let run = |w: &mut Walker, mem: &mut MemorySystem| {
            for i in 0..8 {
                w.enqueue_asid(0, Vpn::new(base0 + i), 0, 0);
            }
            let mut done = Vec::new();
            let mut t = 0;
            while done.len() < 8 {
                w.advance_tenants(t, mem, &[&s0, &s1], &mut done, &mut Observer::off());
                t += 1;
            }
            done
        };
        let mut plain = Walker::new(WalkerConfig::serial());
        let mut armed = Walker::new(WalkerConfig::serial());
        // One tenant: set_fairness disarms, so both are the legacy FIFO.
        armed.set_fairness(1, 4, 100);
        assert!(!armed.fairness_armed());
        assert_eq!(run(&mut plain, &mut mem), run(&mut armed, &mut mem2));
    }

    #[test]
    fn shootdown_asid_squashes_only_that_tenant() {
        let (s0, s1, _mem) = two_tenant_setup();
        let base0 = s0.regions()[0].base.vpn().raw();
        let base1 = s1.regions()[0].base.vpn().raw();
        let mut w = Walker::new(WalkerConfig::serial());
        for i in 0..4 {
            w.enqueue_asid(0, Vpn::new(base0 + i), 0, 0);
            w.enqueue_asid(1, Vpn::new(base1 + i), 0, 0);
        }
        let squashed = w.shootdown_asid(0);
        assert_eq!(squashed.len(), 4);
        assert!(squashed.iter().all(|r| r.asid == 0));
        assert_eq!(w.queue_len(), 4);
        assert_eq!(w.queue_len_asid(1), 4);
        // Scoped shootdown of the only tenant == the legacy full one.
        let rest = w.shootdown_asid(1);
        assert_eq!(rest.len(), 4);
        assert_eq!(w.queue_len(), 0);
    }

    #[test]
    fn walk_latency_counts_queueing() {
        let (space, mut mem) = setup();
        let mut w = Walker::new(WalkerConfig::serial());
        let pages = figure8_pages(&space);
        for p in pages {
            w.enqueue(p, 0, 0);
        }
        let mut done = Vec::new();
        let mut t = 0;
        while done.len() < 3 {
            w.advance(t, &mut mem, &space, &mut done);
            t += 1;
        }
        // The last walk's latency includes waiting behind two walks.
        let last = &done[2];
        assert!(last.complete - last.enqueued > done[0].complete - done[0].enqueued);
    }
}
