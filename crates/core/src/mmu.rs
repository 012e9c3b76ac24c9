//! The per-shader-core memory management unit.
//!
//! One [`Mmu`] sits next to each shader core's L1 (Figure 1): the memory
//! unit coalesces a warp's accesses into unique cache lines *and unique
//! virtual pages*, presents the pages here, and overlaps the lookup with
//! L1 access (virtually-indexed physically-tagged caches). The MMU owns
//! the TLB, its MSHRs (one per warp thread), and the page-table walker,
//! and implements the paper's blocking and non-blocking semantics:
//!
//! * blocking TLB — while any walk is outstanding, no memory instruction
//!   may access the TLB (swapped-in warps with memory references stall);
//! * hit-under-miss — other warps' TLB hits proceed; further misses swap
//!   their warps out and queue behind the walker;
//! * cache overlap — a partially missing warp's hit pages return
//!   translations immediately so their L1 accesses launch under the walk.
//!
//! The [`MmuModel::Ideal`] variant translates instantly and is the
//! no-TLB baseline every figure normalizes against.

use crate::tlb::{Tlb, TlbConfig};
use crate::walker::{WalkDone, Walker, WalkerConfig};
use gmmu_mem::mshr::{MshrFile, MshrOutcome};
use gmmu_mem::MemorySystem;
use gmmu_sim::fault::{FaultInjectConfig, FaultInjector};
use gmmu_sim::metrics::MetricsRegistry;
use gmmu_sim::observe::{Event, Observer};
use gmmu_sim::stats::{Counter, Summary};
use gmmu_sim::Cycle;
use gmmu_vm::{AddressSpace, Ppn, Vpn};
use std::collections::HashMap;

/// Which address-translation hardware a shader core has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuModel {
    /// Perfect translation at zero cost — the paper's baseline GPU
    /// "without TLBs" that all speedups are normalized to.
    Ideal,
    /// A real per-core TLB + page-table walker.
    Real {
        /// TLB geometry and non-blocking mode.
        tlb: TlbConfig,
        /// Walker microarchitecture.
        walker: WalkerConfig,
    },
}

impl gmmu_sim::ckpt::Ckpt for MmuModel {
    fn save(&self, w: &mut gmmu_sim::ckpt::Saver) {
        match self {
            MmuModel::Ideal => w.u8(0),
            MmuModel::Real { tlb, walker } => {
                w.u8(1);
                tlb.save(w);
                walker.save(w);
            }
        }
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::ckpt::Loader<'_>,
    ) -> Result<(), gmmu_sim::ckpt::CkptError> {
        *self = match r.u8()? {
            0 => MmuModel::Ideal,
            1 => {
                let mut tlb = TlbConfig::default();
                tlb.load(r)?;
                let mut walker = WalkerConfig::serial();
                walker.load(r)?;
                MmuModel::Real { tlb, walker }
            }
            _ => return Err(gmmu_sim::ckpt::CkptError::Corrupt("unknown MMU model")),
        };
        Ok(())
    }
}

impl MmuModel {
    /// The naive Figure 2 design: 128-entry 3-port blocking TLB, one
    /// serial walker.
    pub fn naive() -> Self {
        MmuModel::Real {
            tlb: TlbConfig::naive(),
            walker: WalkerConfig::serial(),
        }
    }

    /// The fully augmented design (Section 6.3): 4 ports, hit-under-miss
    /// with cache overlap, coalesced walk scheduling.
    pub fn augmented() -> Self {
        MmuModel::Real {
            tlb: TlbConfig::augmented(),
            walker: WalkerConfig::coalesced(),
        }
    }

    /// The impractical ideal TLB of Figures 7/10 (512 entries, 32 ports,
    /// no latency penalty) with the coalesced walker.
    pub fn ideal_large_tlb() -> Self {
        MmuModel::Real {
            tlb: TlbConfig::ideal_large(),
            walker: WalkerConfig::coalesced(),
        }
    }

    /// True for [`MmuModel::Ideal`].
    pub fn is_ideal(&self) -> bool {
        matches!(self, MmuModel::Ideal)
    }
}

/// One page of a warp memory instruction presented for translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReq {
    /// Virtual page (from the pre-TLB coalescer).
    pub vpn: Vpn,
    /// Home (static) warp of the threads referencing the page — recorded
    /// in TLB entry history/ownership for TCWS and the CPM. Under
    /// dynamic warp formation this differs from the requesting unit.
    pub warp: u16,
}

impl PageReq {
    /// Convenience constructor.
    pub fn new(vpn: Vpn, warp: u16) -> Self {
        Self { vpn, warp }
    }
}

/// One translated page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Virtual page.
    pub vpn: Vpn,
    /// Physical frame (4 KiB granular even for large pages).
    pub ppn: Ppn,
}

/// Per-hit scheduler information (consumed by TCWS and the CPM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// LRU depth of the entry before the hit (0 = MRU).
    pub lru_depth: u8,
    /// Previous warps that hit the entry, most recent first.
    pub history: [u16; crate::tlb::WARP_HISTORY],
    /// Valid prefix of `history`.
    pub hist_len: u8,
}

/// Reusable output buffer for [`Mmu::translate`] (hot path: avoids
/// per-instruction allocation).
#[derive(Debug, Clone, Default)]
pub struct TranslateBuf {
    /// Pages that hit, with their translations.
    pub hits: Vec<Translation>,
    /// Scheduler info parallel to `hits`.
    pub hit_info: Vec<HitInfo>,
    /// Pages that missed (walks queued).
    pub misses: Vec<Vpn>,
}

impl TranslateBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.hits.clear();
        self.hit_info.clear();
        self.misses.clear();
    }
}

/// Outcome of presenting a warp's coalesced pages to the MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateOutcome {
    /// Every page hit. Translations are usable at `ready_at`.
    AllHit {
        /// Cycle the lookup completes (ports + access penalty).
        ready_at: Cycle,
    },
    /// At least one page missed; walks are queued and the warp must
    /// sleep until [`MmuEvent::Wake`] events arrive for it. Pages that
    /// hit are in the buffer — usable at `ready_at`, but only if the TLB
    /// mode supports cache overlap.
    Miss {
        /// Cycle the lookup (for the hit pages) completes.
        ready_at: Cycle,
        /// Number of pages that missed.
        misses: usize,
    },
    /// The MMU cannot accept the request this cycle (blocking TLB with
    /// an outstanding walk, or MSHRs exhausted). Retry at `retry_at`.
    Reject {
        /// Earliest cycle worth retrying.
        retry_at: Cycle,
    },
}

/// Events the shader core drains from the MMU each cycle and forwards to
/// its scheduler policy / sleeping warps. Every event carries the ASID
/// of the address space it belongs to (0 in single-tenant runs) so the
/// core can attribute wakes, faults, and squashes to the right tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuEvent {
    /// A TLB fill displaced an entry (TCWS inserts it into the owner's
    /// victim tag array).
    Evicted {
        /// Address space of the displaced entry.
        asid: u16,
        /// Displaced page.
        vpn: Vpn,
        /// Warp that allocated the displaced entry.
        owner: u16,
    },
    /// A page walk finished: its translation is delivered directly to
    /// the waiting warp (hardware forwards the fill to the memory
    /// unit's MSHR, so the access proceeds even if the TLB entry is
    /// evicted before the warp next runs).
    Wake {
        /// Address space the translation belongs to.
        asid: u16,
        /// Warp to wake.
        warp: u16,
        /// Page whose translation arrived.
        vpn: Vpn,
        /// The translation (4 KiB granular).
        ppn: Ppn,
    },
    /// A walk found the page unmapped (page fault — the paper interrupts
    /// a CPU to service it). One event is emitted *per waiting warp*, so
    /// coalesced waiters all learn about the fault; the core parks them
    /// until the modeled CPU handler maps the page (or aborts the run if
    /// demand paging is disabled).
    Fault {
        /// Address space whose table lacks the page.
        asid: u16,
        /// Faulting page.
        vpn: Vpn,
        /// Waiting warp (scheduling unit) to park.
        warp: u16,
    },
    /// An in-flight walk was squashed by a TLB shootdown before its fill
    /// applied. One event per waiting warp; the core retries the access
    /// after a bounded backoff, re-walking against the updated table.
    Squashed {
        /// Address space whose walk was squashed.
        asid: u16,
        /// Waiting warp (scheduling unit) to retry.
        warp: u16,
        /// Page whose walk was squashed.
        vpn: Vpn,
    },
}

/// The per-core MMU.
///
/// Drive it with [`Mmu::advance`] once per core cycle (before issuing),
/// then call [`Mmu::translate`] for each memory instruction and drain
/// [`Mmu::events`].
///
/// # Examples
///
/// ```
/// use gmmu_core::mmu::{Mmu, MmuModel, TranslateBuf, TranslateOutcome};
/// use gmmu_mem::{MemConfig, MemorySystem};
/// use gmmu_vm::{AddressSpace, PageSize, SpaceConfig};
///
/// let mut space = AddressSpace::new(SpaceConfig::default());
/// let r = space.map_region("d", 1 << 20, PageSize::Base4K)?;
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let mut mmu = Mmu::new(MmuModel::naive());
/// let mut buf = TranslateBuf::new();
///
/// mmu.advance(0, &mut mem, &space);
/// let page = gmmu_core::mmu::PageReq::new(r.base.vpn(), 0);
/// let out = mmu.translate(0, 0, &[page], &space, &mut buf);
/// assert!(matches!(out, TranslateOutcome::Miss { misses: 1, .. }));
/// # Ok::<(), gmmu_vm::VmError>(())
/// ```
#[derive(Debug)]
pub struct Mmu {
    model: MmuModel,
    tlb: Option<Tlb>,
    walker: Option<Walker>,
    mshrs: MshrFile,
    /// Warps waiting on each in-flight page, keyed by
    /// [`gmmu_mem::mshr::tenant_key`] so pages never alias across ASIDs.
    waiters: HashMap<u64, Vec<u16>>,
    /// Retired waiter lists, recycled by the next miss so steady-state
    /// fills never allocate. Bounded by the MSHR count. Not serialized —
    /// contents are dead (always cleared before reuse).
    waiter_pool: Vec<Vec<u16>>,
    /// Finished walks not yet applied (completion in the future).
    pending_fills: Vec<WalkDone>,
    done_scratch: Vec<WalkDone>,
    /// Events for the shader core to drain.
    events: Vec<MmuEvent>,
    /// Lookup-port reservation.
    lookup_next_free: Cycle,
    /// Monotonic stamp for TLB LRU.
    stamp: u64,
    /// Deterministic fault injector (`None` = no perturbation at all).
    inject: Option<FaultInjector>,
    /// ASID-tagged TLB entries (the default). When `false` the MMU
    /// models a legacy untagged TLB: entries implicitly belong to
    /// `current_asid`, and presenting a different tenant flushes the
    /// whole TLB (the flush-on-switch fallback the figures compare
    /// against).
    tagged: bool,
    /// Tenant the untagged TLB's entries currently belong to.
    current_asid: u16,
    /// Requests rejected (blocking / MSHR-full).
    pub rejects: Counter,
    /// Per-miss resolution latency: miss detection → TLB fill applied
    /// (the Figure 4 "cycles per TLB miss").
    pub miss_latency: Summary,
    /// Page faults observed.
    pub faults: Counter,
    /// TLB shootdowns observed (epoch bumps serviced).
    pub shootdowns: Counter,
    /// In-flight walks squashed by shootdowns.
    pub squashed_walks: Counter,
    /// Whole-TLB flushes taken by the untagged fallback on tenant switch.
    pub switch_flushes: Counter,
}

/// Composite key for MSHRs and waiter lists: identity for ASID 0.
#[inline]
fn tkey(asid: u16, vpn: Vpn) -> u64 {
    gmmu_mem::mshr::tenant_key(asid, vpn.raw())
}

impl Mmu {
    /// Creates an MMU of the given model.
    pub fn new(model: MmuModel) -> Self {
        let (tlb, walker, mshrs) = match model {
            MmuModel::Ideal => (None, None, MshrFile::new(1)),
            MmuModel::Real { tlb, walker } => (
                Some(Tlb::new(tlb)),
                Some(Walker::new(walker)),
                MshrFile::new(tlb.mshrs),
            ),
        };
        // Waiter lists exist only for in-flight walks, so occupancy is
        // bounded by the MSHR capacity; double it so tombstone-driven
        // rehashes stay in place instead of allocating (see
        // `MshrFile::new`).
        let waiters = HashMap::with_capacity(2 * mshrs.capacity());
        Self {
            model,
            tlb,
            walker,
            mshrs,
            waiters,
            waiter_pool: Vec::new(),
            pending_fills: Vec::new(),
            done_scratch: Vec::new(),
            events: Vec::new(),
            lookup_next_free: 0,
            stamp: 0,
            inject: None,
            tagged: true,
            current_asid: 0,
            rejects: Counter::new(),
            miss_latency: Summary::new(),
            faults: Counter::new(),
            shootdowns: Counter::new(),
            squashed_walks: Counter::new(),
            switch_flushes: Counter::new(),
        }
    }

    /// Selects ASID-tagged TLB entries (`true`, the default) or the
    /// flush-on-switch fallback (`false`): an untagged TLB whose entire
    /// contents are flushed whenever a different tenant presents a
    /// request. Single-tenant runs never switch, so both settings are
    /// bit-identical there.
    pub fn set_tagging(&mut self, tagged: bool) {
        self.tagged = tagged;
    }

    /// Whether TLB entries are ASID-tagged.
    pub fn tagged(&self) -> bool {
        self.tagged
    }

    /// Arms the walker's per-ASID fairness scheduler (no-op for models
    /// without a walker or with `n_asids <= 1`).
    pub fn set_walker_fairness(&mut self, n_asids: usize, tokens: u32, max_age: u64) {
        if let Some(walker) = self.walker.as_mut() {
            walker.set_fairness(n_asids, tokens, max_age);
        }
    }

    /// Arms (or disarms, with `None`) deterministic fault injection:
    /// delayed walk fills and transient rejections. With `None` the MMU
    /// behaves bit-identically to a build without the harness.
    pub fn set_injection(&mut self, cfg: Option<FaultInjectConfig>) {
        self.inject = cfg.map(FaultInjector::new);
    }

    /// Registers this MMU's instruments (TLB, walker, MSHRs, fault
    /// counters) under `prefix` in deterministic order.
    pub fn register_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        if let Some(tlb) = &self.tlb {
            tlb.register_metrics(&format!("{prefix}.tlb"), reg);
        }
        if let Some(walker) = &self.walker {
            walker.register_metrics(&format!("{prefix}.walker"), reg);
        }
        self.mshrs.register_metrics(&format!("{prefix}.mshr"), reg);
        reg.counter(format!("{prefix}.rejects"), self.rejects.get());
        reg.counter(format!("{prefix}.faults"), self.faults.get());
        reg.counter(format!("{prefix}.shootdowns"), self.shootdowns.get());
        reg.counter(
            format!("{prefix}.squashed_walks"),
            self.squashed_walks.get(),
        );
        reg.counter(
            format!("{prefix}.switch_flushes"),
            self.switch_flushes.get(),
        );
        reg.counter(
            format!("{prefix}.miss_latency.count"),
            self.miss_latency.count(),
        );
        reg.gauge(
            format!("{prefix}.miss_latency.mean"),
            self.miss_latency.mean(),
        );
    }

    /// The model this MMU implements.
    pub fn model(&self) -> MmuModel {
        self.model
    }

    /// The TLB, when the model has one.
    pub fn tlb(&self) -> Option<&Tlb> {
        self.tlb.as_ref()
    }

    /// The walker, when the model has one.
    pub fn walker(&self) -> Option<&Walker> {
        self.walker.as_ref()
    }

    /// Whether cache overlap is enabled (hit pages of a missing warp may
    /// access the L1 immediately).
    pub fn cache_overlap(&self) -> bool {
        match self.model {
            MmuModel::Ideal => true,
            MmuModel::Real { tlb, .. } => tlb.mode.cache_overlap(),
        }
    }

    /// Walks in flight (queued or awaiting fill).
    pub fn outstanding_walks(&self) -> usize {
        self.mshrs.len()
    }

    /// True when [`Mmu::advance`] would be a no-op this cycle: no
    /// finished walk is waiting to fill and nothing is queued at the
    /// walker. Walks only enter via [`Mmu::translate`] (an issue, hence
    /// a non-quiet core cycle), so an idle MMU stays idle until the core
    /// does something — which is what lets the core keep its cached
    /// next-event value across quiet ticks.
    pub fn is_idle(&self) -> bool {
        self.pending_fills.is_empty() && self.walker.as_ref().is_none_or(|w| w.queue_len() == 0)
    }

    /// Services the walker and applies due TLB fills. Call once per core
    /// cycle before translating.
    pub fn advance(&mut self, now: Cycle, mem: &mut MemorySystem, space: &AddressSpace) {
        self.advance_tenants(now, mem, &[space], &mut Observer::off());
    }

    /// The multi-tenant, observed [`Mmu::advance`]: each in-flight walk
    /// is resolved against `spaces[walk.asid]`, every walk emits one
    /// [`Event::Walk`] and every applied fill one [`Event::Fill`].
    /// Single-space callers pass a one-element slice.
    pub fn advance_tenants(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        spaces: &[&AddressSpace],
        obs: &mut Observer,
    ) {
        let Some(walker) = self.walker.as_mut() else {
            return;
        };
        self.done_scratch.clear();
        walker.advance_tenants(now, mem, spaces, &mut self.done_scratch, obs);
        for mut done in self.done_scratch.drain(..) {
            if let Some(inj) = &self.inject {
                done.complete += inj.walk_delay_t(done.asid, done.vpn.raw(), done.enqueued);
            }
            self.mshrs
                .set_completion(tkey(done.asid, done.vpn), done.complete);
            self.pending_fills.push(done);
        }
        // Apply fills whose data has returned.
        let mut i = 0;
        while i < self.pending_fills.len() {
            if self.pending_fills[i].complete <= now {
                let done = self.pending_fills.swap_remove(i);
                self.apply_fill(done, obs);
            } else {
                i += 1;
            }
        }
    }

    fn apply_fill(&mut self, done: WalkDone, obs: &mut Observer) {
        self.miss_latency.record(done.complete - done.enqueued);
        self.mshrs.release(tkey(done.asid, done.vpn));
        let waiters = self
            .waiters
            .remove(&tkey(done.asid, done.vpn))
            .unwrap_or_default();
        // Stage attribution: queueing before a lane picked the walk up,
        // then active walking (memory references plus injected delays,
        // which `advance_tenants` folded into `complete`). The two stages
        // sum exactly to the `miss_latency` sample recorded above.
        let core = obs.core;
        obs.record(|| Event::Fill {
            core,
            asid: done.asid,
            vpn: done.vpn.raw(),
            warp: done.warp,
            enqueued: done.enqueued,
            started: done.started,
            complete: done.complete,
            waiters: waiters.len() as u32,
        });
        match done.translation {
            Some((ppn, _size)) => {
                let owner = done.warp;
                self.stamp += 1;
                let tlb = self.tlb.as_mut().expect("fills only occur with a TLB");
                // Untagged fallback: a fill for a tenant other than the
                // one the TLB currently holds must not enter it — the
                // translation still reaches its waiters directly (the
                // MSHR forwards it), exactly like a fill whose entry is
                // evicted before the warp next runs.
                if self.tagged || done.asid == self.current_asid {
                    let fill_tag = if self.tagged { done.asid } else { 0 };
                    if let Some(victim) = tlb.fill_asid(fill_tag, done.vpn, ppn, owner, self.stamp)
                    {
                        self.events.push(MmuEvent::Evicted {
                            asid: if self.tagged {
                                victim.asid
                            } else {
                                self.current_asid
                            },
                            vpn: victim.vpn,
                            owner: victim.owner,
                        });
                    }
                }
                for &warp in &waiters {
                    self.events.push(MmuEvent::Wake {
                        asid: done.asid,
                        warp,
                        vpn: done.vpn,
                        ppn,
                    });
                }
            }
            None => {
                self.faults.inc();
                if waiters.is_empty() {
                    // Defensive: a faulting walk always has at least its
                    // original requester waiting, but never drop a fault.
                    self.events.push(MmuEvent::Fault {
                        asid: done.asid,
                        vpn: done.vpn,
                        warp: done.warp,
                    });
                } else {
                    // One event per coalesced waiter — a single
                    // unattributed fault would leave merged warps asleep
                    // forever.
                    for &warp in &waiters {
                        self.events.push(MmuEvent::Fault {
                            asid: done.asid,
                            vpn: done.vpn,
                            warp,
                        });
                    }
                }
            }
        }
        self.recycle_waiters(waiters);
    }

    /// Returns a drained waiter list to the pool for the next miss.
    fn recycle_waiters(&mut self, mut list: Vec<u16>) {
        list.clear();
        self.waiter_pool.push(list);
    }

    /// Drains pending events.
    pub fn events(&mut self) -> std::vec::Drain<'_, MmuEvent> {
        self.events.drain(..)
    }

    /// The earliest future cycle at which [`Mmu::advance`] will do
    /// something: apply a finished walk's fill, or start a queued walk
    /// on a freed walker lane. Returns `None` when the MMU is quiescent
    /// (ideal model, or no walks in flight). Used by the event-skipping
    /// engine to bound how far the clock may jump.
    pub fn next_event_at(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut fold = |c: Cycle| next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        for fill in &self.pending_fills {
            fold(fill.complete);
        }
        if let Some(walker) = self.walker.as_ref() {
            if let Some(c) = walker.next_event_at() {
                fold(c);
            }
        }
        next
    }

    /// Presents a warp's coalesced pages for translation at cycle `now`.
    ///
    /// `pages` must be the deduplicated virtual pages of one memory
    /// instruction (the pre-TLB coalescer's output). Results land in
    /// `buf`; the return value says how to proceed.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty, or (for the ideal model) if a page is
    /// unmapped.
    pub fn translate(
        &mut self,
        now: Cycle,
        requester: u16,
        pages: &[PageReq],
        space: &AddressSpace,
        buf: &mut TranslateBuf,
    ) -> TranslateOutcome {
        self.translate_tenant(now, requester, 0, pages, space, buf, &mut Observer::off())
    }

    /// [`Mmu::translate`] for tenant `asid`: lookups, fills, MSHRs, and
    /// walks are all tagged with the ASID, and `space` must be that
    /// tenant's address space. With tagging disabled, presenting an ASID
    /// other than the TLB's current tenant flushes the whole TLB first
    /// (the flush-on-switch fallback). Each accepted probe emits one
    /// [`Event::Lookup`] and each registered miss one [`Event::Miss`].
    #[allow(clippy::too_many_arguments)]
    pub fn translate_tenant(
        &mut self,
        now: Cycle,
        requester: u16,
        asid: u16,
        pages: &[PageReq],
        space: &AddressSpace,
        buf: &mut TranslateBuf,
        obs: &mut Observer,
    ) -> TranslateOutcome {
        assert!(!pages.is_empty(), "translate needs at least one page");
        buf.clear();
        if !self.tagged && asid != self.current_asid {
            self.switch_flushes.inc();
            self.current_asid = asid;
            if let Some(tlb) = self.tlb.as_mut() {
                tlb.flush();
            }
        }
        // Under tagging entries carry their true ASID; untagged entries
        // all carry tag 0 and implicitly belong to `current_asid`.
        let tag = if self.tagged { asid } else { 0 };
        let MmuModel::Real { tlb: tlb_cfg, .. } = self.model else {
            // Ideal: perfect translation, no cost.
            for req in pages {
                let (pa, _) = space
                    .translate(req.vpn.base())
                    .expect("ideal MMU requires pre-mapped pages");
                buf.hits.push(Translation {
                    vpn: req.vpn,
                    ppn: pa.ppn(),
                });
                buf.hit_info.push(HitInfo {
                    lru_depth: 0,
                    history: [0; crate::tlb::WARP_HISTORY],
                    hist_len: 0,
                });
            }
            return TranslateOutcome::AllHit { ready_at: now };
        };

        // Injected transient queue-full rejection: the request bounces
        // exactly as if an internal buffer were momentarily full. Drawn
        // from the tenant's own stream (identical to the legacy stream
        // for ASID 0).
        if let Some(inj) = &self.inject {
            if inj.reject_t(asid, now, requester as u64) {
                self.rejects.inc();
                return TranslateOutcome::Reject { retry_at: now + 8 };
            }
        }

        // Blocking TLB: any outstanding walk blocks all memory
        // instructions (Section 6.2).
        if !tlb_cfg.mode.hits_under_miss() && !self.mshrs.is_empty() {
            self.rejects.inc();
            let earliest = self.mshrs.earliest_completion();
            let retry_at = if earliest == gmmu_sim::NEVER {
                now + 8
            } else {
                earliest.max(now + 1)
            };
            return TranslateOutcome::Reject { retry_at };
        }

        // If the MSHR file is completely full and this request needs a
        // fresh walk, nothing can be registered: reject (probe-only, so
        // no side effects). Partially free files accept what they can —
        // the remaining pages stay pending and re-present on replay,
        // like hardware splitting a wide request.
        let tlb = self.tlb.as_ref().expect("real model has a TLB");
        if self.mshrs.len() == self.mshrs.capacity()
            && pages.iter().any(|p| {
                !tlb.probe_asid(tag, p.vpn) && self.mshrs.lookup(tkey(asid, p.vpn)).is_none()
            })
        {
            self.rejects.inc();
            let earliest = self.mshrs.earliest_completion();
            let retry_at = if earliest == gmmu_sim::NEVER {
                now + 8
            } else {
                earliest.max(now + 1)
            };
            return TranslateOutcome::Reject { retry_at };
        }

        // Port arbitration: `ports` lookups per cycle, shared by all
        // warps; plus the CACTI access penalty for oversized TLBs.
        let start = now.max(self.lookup_next_free);
        let lookup_cycles = (pages.len() as u64).div_ceil(tlb_cfg.ports as u64);
        self.lookup_next_free = start + lookup_cycles;
        let ready_at = start + (lookup_cycles - 1) + tlb_cfg.access_penalty();
        // One lookup-latency sample per accepted probe (hit or miss):
        // port-arbitration wait plus the access penalty.
        obs.record(|| Event::Lookup {
            latency: ready_at - now,
        });

        let tlb = self.tlb.as_mut().expect("real model has a TLB");
        for req in pages {
            self.stamp += 1;
            match tlb.lookup_asid(tag, req.vpn, req.warp, self.stamp) {
                Some(hit) => {
                    buf.hits.push(Translation {
                        vpn: req.vpn,
                        ppn: hit.ppn,
                    });
                    buf.hit_info.push(HitInfo {
                        lru_depth: hit.lru_depth,
                        history: hit.history,
                        hist_len: hit.hist_len,
                    });
                }
                None => buf.misses.push(req.vpn),
            }
        }
        if buf.misses.is_empty() {
            return TranslateOutcome::AllHit { ready_at };
        }
        let mut registered = 0usize;
        for &vpn in &buf.misses {
            let home = pages
                .iter()
                .find(|p| p.vpn == vpn)
                .expect("miss came from the request")
                .warp;
            match self.mshrs.allocate(tkey(asid, vpn)) {
                MshrOutcome::Allocated => {
                    self.walker
                        .as_mut()
                        .expect("real model has a walker")
                        .enqueue_asid(asid, vpn, home, now);
                    let mut list = self.waiter_pool.pop().unwrap_or_default();
                    list.push(requester);
                    self.waiters.insert(tkey(asid, vpn), list);
                    obs.record(|| Event::Miss {
                        asid,
                        vpn: vpn.raw(),
                    });
                    registered += 1;
                }
                MshrOutcome::Merged(_) => {
                    self.waiters
                        .entry(tkey(asid, vpn))
                        .or_default()
                        .push(requester);
                    obs.record(|| Event::Miss {
                        asid,
                        vpn: vpn.raw(),
                    });
                    registered += 1;
                }
                // No free MSHR for this page: it stays pending and is
                // re-presented when the registered subset wakes the
                // requester.
                MshrOutcome::Full => {}
            }
        }
        debug_assert!(registered > 0, "full-file case rejected above");
        TranslateOutcome::Miss {
            ready_at,
            misses: registered,
        }
    }

    /// Flushes the TLB (shootdown from the launching CPU, Section 6.2).
    /// In-flight walks complete and refill naturally, mirroring hardware.
    pub fn flush_tlb(&mut self) {
        if let Some(tlb) = self.tlb.as_mut() {
            tlb.flush();
        }
    }

    /// Services a full TLB shootdown (the owning CPU changed the page
    /// table): flushes the TLB and the walker's page-walk cache, squashes
    /// every in-flight walk — queued requests *and* fills computed
    /// against the old table but not yet applied — releases their MSHRs,
    /// and emits one [`MmuEvent::Squashed`] per waiting warp so the core
    /// retries the access with bounded backoff against the new table.
    pub fn shootdown(&mut self, now: Cycle) {
        let _ = now;
        self.shootdowns.inc();
        self.flush_tlb();
        let Some(walker) = self.walker.as_mut() else {
            return;
        };
        let mut squashed: Vec<(u16, Vpn)> = walker
            .shootdown()
            .into_iter()
            .map(|r| (r.asid, r.vpn))
            .collect();
        squashed.extend(self.pending_fills.drain(..).map(|d| (d.asid, d.vpn)));
        self.squash(squashed);
    }

    /// ASID-scoped shootdown (the tagged design's whole point): flushes
    /// only `asid`'s TLB entries and squashes only its in-flight walks,
    /// leaving co-tenants' entries, queued walks, and pending fills
    /// untouched. On single-tenant state `shootdown_asid(now, 0)` is
    /// byte-identical to the full [`Mmu::shootdown`]. With tagging
    /// disabled the TLB cannot discriminate, so the whole TLB is flushed
    /// whenever the victim is the tenant it currently holds (other
    /// tenants have no entries in it by construction).
    pub fn shootdown_asid(&mut self, now: Cycle, asid: u16) {
        let _ = now;
        self.shootdowns.inc();
        if let Some(tlb) = self.tlb.as_mut() {
            if self.tagged {
                tlb.flush_asid(asid);
            } else if self.current_asid == asid {
                tlb.flush();
            }
        }
        let Some(walker) = self.walker.as_mut() else {
            return;
        };
        let mut squashed: Vec<(u16, Vpn)> = walker
            .shootdown_asid(asid)
            .into_iter()
            .map(|r| (r.asid, r.vpn))
            .collect();
        let mut i = 0;
        while i < self.pending_fills.len() {
            if self.pending_fills[i].asid == asid {
                let d = self.pending_fills.remove(i);
                squashed.push((d.asid, d.vpn));
            } else {
                i += 1;
            }
        }
        self.squash(squashed);
    }

    fn squash(&mut self, squashed: Vec<(u16, Vpn)>) {
        for (asid, vpn) in squashed {
            self.squashed_walks.inc();
            self.mshrs.release(tkey(asid, vpn));
            if let Some(list) = self.waiters.remove(&tkey(asid, vpn)) {
                for &warp in &list {
                    self.events.push(MmuEvent::Squashed { asid, warp, vpn });
                }
                self.recycle_waiters(list);
            }
        }
    }

    /// In-flight walks (queued, walking, or awaiting fill) belonging to
    /// `asid` — the watchdog's per-tenant diagnostic.
    pub fn outstanding_walks_asid(&self, asid: u16) -> usize {
        self.mshrs.len_asid(asid)
    }

    /// Queued-but-unstarted walks belonging to `asid`.
    pub fn queued_walks_asid(&self, asid: u16) -> usize {
        self.walker.as_ref().map_or(0, |w| w.queue_len_asid(asid))
    }
}

use gmmu_sim::ckpt::{Ckpt, CkptError, Loader, Saver};

impl Ckpt for MmuEvent {
    fn save(&self, w: &mut Saver) {
        match *self {
            MmuEvent::Evicted { asid, vpn, owner } => {
                w.u8(0);
                w.u16(asid);
                vpn.save(w);
                w.u16(owner);
            }
            MmuEvent::Wake {
                asid,
                warp,
                vpn,
                ppn,
            } => {
                w.u8(1);
                w.u16(asid);
                w.u16(warp);
                vpn.save(w);
                ppn.save(w);
            }
            MmuEvent::Fault { asid, vpn, warp } => {
                w.u8(2);
                w.u16(asid);
                vpn.save(w);
                w.u16(warp);
            }
            MmuEvent::Squashed { asid, warp, vpn } => {
                w.u8(3);
                w.u16(asid);
                w.u16(warp);
                vpn.save(w);
            }
        }
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        let mut vpn = Vpn::default();
        let mut ppn = Ppn::default();
        *self = match r.u8()? {
            0 => {
                let asid = r.u16()?;
                vpn.load(r)?;
                let owner = r.u16()?;
                MmuEvent::Evicted { asid, vpn, owner }
            }
            1 => {
                let asid = r.u16()?;
                let warp = r.u16()?;
                vpn.load(r)?;
                ppn.load(r)?;
                MmuEvent::Wake {
                    asid,
                    warp,
                    vpn,
                    ppn,
                }
            }
            2 => {
                let asid = r.u16()?;
                vpn.load(r)?;
                let warp = r.u16()?;
                MmuEvent::Fault { asid, vpn, warp }
            }
            3 => {
                let asid = r.u16()?;
                let warp = r.u16()?;
                vpn.load(r)?;
                MmuEvent::Squashed { asid, warp, vpn }
            }
            _ => return Err(CkptError::Corrupt("unknown MMU event tag")),
        };
        Ok(())
    }
}

impl Ckpt for Mmu {
    /// The model (and whether a TLB/walker exist) is configuration; the
    /// waiter map is serialized sorted by page so `HashMap` iteration
    /// order never leaks into the byte stream. `done_scratch` is
    /// transient within one `advance` call and is reset instead of
    /// saved. The fault injector is pure (a stateless function of its
    /// seed), so only the surrounding configuration carries it.
    fn save(&self, w: &mut Saver) {
        if let Some(tlb) = &self.tlb {
            tlb.save(w);
        }
        if let Some(walker) = &self.walker {
            walker.save(w);
        }
        self.mshrs.save(w);
        let mut waiters: Vec<(u64, Vec<u16>)> =
            self.waiters.iter().map(|(&k, v)| (k, v.clone())).collect();
        waiters.sort_unstable_by_key(|(k, _)| *k);
        waiters.save(w);
        self.pending_fills.save(w);
        w.usize(self.events.len());
        for e in &self.events {
            e.save(w);
        }
        w.u64(self.lookup_next_free);
        w.u64(self.stamp);
        w.u16(self.current_asid);
        self.rejects.save(w);
        self.miss_latency.save(w);
        self.faults.save(w);
        self.shootdowns.save(w);
        self.squashed_walks.save(w);
        self.switch_flushes.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
        if let Some(tlb) = &mut self.tlb {
            tlb.load(r)?;
        }
        if let Some(walker) = &mut self.walker {
            walker.load(r)?;
        }
        self.mshrs.load(r)?;
        let mut waiters: Vec<(u64, Vec<u16>)> = Vec::new();
        waiters.load(r)?;
        self.waiters = waiters.into_iter().collect();
        self.pending_fills.load(r)?;
        let n_events = r.usize()?;
        self.events.clear();
        for _ in 0..n_events {
            let mut e = MmuEvent::Fault {
                asid: 0,
                vpn: Vpn::default(),
                warp: 0,
            };
            e.load(r)?;
            self.events.push(e);
        }
        self.done_scratch.clear();
        self.lookup_next_free = r.u64()?;
        self.stamp = r.u64()?;
        self.current_asid = r.u16()?;
        self.rejects.load(r)?;
        self.miss_latency.load(r)?;
        self.faults.load(r)?;
        self.shootdowns.load(r)?;
        self.squashed_walks.load(r)?;
        self.switch_flushes.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::TlbMode;
    use gmmu_mem::{MemConfig, MemorySystem};
    use gmmu_vm::{PageSize, SpaceConfig};

    struct Rig {
        space: AddressSpace,
        mem: MemorySystem,
        mmu: Mmu,
        buf: TranslateBuf,
        base: Vpn,
    }

    fn rig(model: MmuModel) -> Rig {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let r = space.map_region("d", 4 << 20, PageSize::Base4K).unwrap();
        Rig {
            base: r.base.vpn(),
            space,
            mem: MemorySystem::new(MemConfig::default()),
            mmu: Mmu::new(model),
            buf: TranslateBuf::new(),
        }
    }

    fn page(r: &Rig, i: u64) -> Vpn {
        Vpn::new(r.base.raw() + i)
    }

    fn pr(vpn: Vpn, warp: u16) -> PageReq {
        PageReq::new(vpn, warp)
    }

    /// Runs the MMU forward until all outstanding walks have filled.
    fn settle(r: &mut Rig, mut now: Cycle) -> (Cycle, Vec<MmuEvent>) {
        let mut events = Vec::new();
        for _ in 0..1_000_000 {
            r.mmu.advance(now, &mut r.mem, &r.space);
            events.extend(r.mmu.events());
            if r.mmu.outstanding_walks() == 0 {
                return (now, events);
            }
            now += 1;
        }
        panic!("walks never completed");
    }

    #[test]
    fn ideal_model_always_hits_instantly() {
        let mut r = rig(MmuModel::Ideal);
        let pages = [pr(page(&r, 0), 0), pr(page(&r, 1), 0)];
        let out = r.mmu.translate(5, 0, &pages, &r.space, &mut r.buf);
        assert_eq!(out, TranslateOutcome::AllHit { ready_at: 5 });
        assert_eq!(r.buf.hits.len(), 2);
        let expect = r.space.translate(pages[1].vpn.base()).unwrap().0.ppn();
        assert_eq!(r.buf.hits[1].ppn, expect);
    }

    #[test]
    fn miss_then_wake_then_hit() {
        let mut r = rig(MmuModel::naive());
        let p = page(&r, 3);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let out = r.mmu.translate(0, 7, &[pr(p, 7)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { misses: 1, .. }));
        let (now, events) = settle(&mut r, 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, MmuEvent::Wake { warp: 7, vpn, .. } if *vpn == p)));
        // Replay hits.
        let out = r.mmu.translate(now, 7, &[pr(p, 7)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::AllHit { .. }));
        assert_eq!(r.mmu.miss_latency.count(), 1);
        assert!(r.mmu.miss_latency.mean() > 0.0);
    }

    #[test]
    fn blocking_tlb_rejects_while_walk_outstanding() {
        let mut r = rig(MmuModel::naive());
        r.mmu.advance(0, &mut r.mem, &r.space);
        let p0 = page(&r, 0);
        let p1 = page(&r, 1);
        let _ = r.mmu.translate(0, 0, &[pr(p0, 0)], &r.space, &mut r.buf);
        // A different warp's access — even one that would hit — is
        // rejected while the walk is outstanding.
        let out = r.mmu.translate(1, 1, &[pr(p1, 1)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Reject { .. }));
        assert_eq!(r.mmu.rejects.get(), 1);
    }

    #[test]
    fn hit_under_miss_allows_other_warps() {
        let model = MmuModel::Real {
            tlb: TlbConfig {
                mode: TlbMode::HitUnderMiss,
                ..TlbConfig::naive()
            },
            walker: WalkerConfig::serial(),
        };
        let mut r = rig(model);
        // Warm page 1 into the TLB.
        let p1 = page(&r, 1);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r.mmu.translate(0, 0, &[pr(p1, 0)], &r.space, &mut r.buf);
        let (now, _) = settle(&mut r, 1);
        // Warp 0 misses on page 2; warp 1 hits page 1 under that miss.
        let p2 = page(&r, 2);
        let _ = r.mmu.translate(now, 0, &[pr(p2, 0)], &r.space, &mut r.buf);
        let out = r
            .mmu
            .translate(now + 1, 1, &[pr(p1, 1)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::AllHit { .. }));
        // A second miss is also accepted (queued behind the walker).
        let p3 = page(&r, 3);
        let out = r
            .mmu
            .translate(now + 2, 2, &[pr(p3, 2)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { .. }));
    }

    #[test]
    fn same_page_misses_merge_in_mshrs() {
        let model = MmuModel::Real {
            tlb: TlbConfig {
                mode: TlbMode::HitUnderMiss,
                ..TlbConfig::naive()
            },
            walker: WalkerConfig::serial(),
        };
        let mut r = rig(model);
        let p = page(&r, 5);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r.mmu.translate(0, 0, &[pr(p, 0)], &r.space, &mut r.buf);
        let _ = r.mmu.translate(0, 1, &[pr(p, 1)], &r.space, &mut r.buf);
        assert_eq!(r.mmu.outstanding_walks(), 1);
        // Only one walk ran, but both warps wake.
        let (_, events) = settle(&mut r, 1);
        let wakes: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                MmuEvent::Wake { warp, .. } => Some(*warp),
                _ => None,
            })
            .collect();
        assert_eq!(wakes.len(), 2);
        assert!(wakes.contains(&0) && wakes.contains(&1));
        assert_eq!(r.mmu.walker().unwrap().stats.walks.get(), 1);
    }

    #[test]
    fn port_count_serializes_wide_requests() {
        let mut r = rig(MmuModel::naive()); // 3 ports
                                            // Warm 6 pages.
        r.mmu.advance(0, &mut r.mem, &r.space);
        let pages: Vec<PageReq> = (0..6).map(|i| pr(page(&r, i), 0)).collect();
        for p in &pages {
            let _ = r.mmu.translate(0, 0, &[*p], &r.space, &mut r.buf);
            let _ = settle(&mut r, 1);
        }
        let t0 = 1_000_000;
        let out = r.mmu.translate(t0, 0, &pages, &r.space, &mut r.buf);
        // 6 pages / 3 ports = 2 cycles → ready one cycle after `now`.
        assert_eq!(out, TranslateOutcome::AllHit { ready_at: t0 + 1 });
    }

    #[test]
    fn oversized_tlb_pays_access_penalty() {
        let model = MmuModel::Real {
            tlb: TlbConfig {
                entries: 512,
                ..TlbConfig::naive()
            },
            walker: WalkerConfig::serial(),
        };
        let mut r = rig(model);
        let p = page(&r, 0);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r.mmu.translate(0, 0, &[pr(p, 0)], &r.space, &mut r.buf);
        let (now, _) = settle(&mut r, 1);
        let out = r
            .mmu
            .translate(now + 100, 0, &[pr(p, 0)], &r.space, &mut r.buf);
        assert_eq!(
            out,
            TranslateOutcome::AllHit {
                ready_at: now + 100 + 4
            }
        );
    }

    #[test]
    fn eviction_events_reach_the_core() {
        // Tiny TLB (8 entries) to force evictions quickly.
        let model = MmuModel::Real {
            tlb: TlbConfig {
                entries: 8,
                ways: 4,
                ports: 4,
                mode: TlbMode::HitUnderMiss,
                mshrs: 32,
                ideal_latency: false,
            },
            walker: WalkerConfig::coalesced(),
        };
        let mut r = rig(model);
        let mut evicted = false;
        let mut now = 0;
        for i in 0..64 {
            r.mmu.advance(now, &mut r.mem, &r.space);
            let p = page(&r, i);
            let _ = r.mmu.translate(now, 0, &[pr(p, 0)], &r.space, &mut r.buf);
            let (n2, events) = settle(&mut r, now + 1);
            now = n2;
            evicted |= events.iter().any(|e| matches!(e, MmuEvent::Evicted { .. }));
        }
        assert!(evicted, "64 pages through an 8-entry TLB must evict");
    }

    #[test]
    fn wide_requests_split_across_scarce_mshrs() {
        // An instruction with more missing pages than MSHR entries must
        // make progress in rounds rather than rejecting forever.
        let model = MmuModel::Real {
            tlb: TlbConfig {
                mshrs: 2,
                mode: TlbMode::HitUnderMiss,
                ..TlbConfig::naive()
            },
            walker: WalkerConfig::coalesced(),
        };
        let mut r = rig(model);
        let pages: Vec<PageReq> = (0..6).map(|i| pr(page(&r, i), 0)).collect();
        r.mmu.advance(0, &mut r.mem, &r.space);
        let out = r.mmu.translate(0, 0, &pages, &r.space, &mut r.buf);
        // Only the MSHR capacity registers; the rest wait.
        assert!(
            matches!(out, TranslateOutcome::Miss { misses: 2, .. }),
            "{out:?}"
        );
        let (now, events) = settle(&mut r, 1);
        let wakes = events
            .iter()
            .filter(|e| matches!(e, MmuEvent::Wake { .. }))
            .count();
        assert_eq!(wakes, 2);
        // Re-presenting the remaining pages registers the next round.
        let remaining: Vec<PageReq> = pages[2..].to_vec();
        let out = r.mmu.translate(now, 0, &remaining, &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { misses: 2, .. }));
    }

    #[test]
    fn fault_event_for_unmapped_page() {
        let mut r = rig(MmuModel::naive());
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r
            .mmu
            .translate(0, 7, &[pr(Vpn::new(0x1), 7)], &r.space, &mut r.buf);
        let (_, events) = settle(&mut r, 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, MmuEvent::Fault { warp: 7, .. })));
        assert_eq!(r.mmu.faults.get(), 1);
    }

    #[test]
    fn coalesced_waiters_each_get_a_fault_event() {
        // Regression: a faulting walk whose MSHR merged several waiters
        // must emit one fault per waiter — a single unattributed event
        // would leave the merged warps asleep forever.
        let model = MmuModel::Real {
            tlb: TlbConfig {
                mode: TlbMode::HitUnderMiss,
                ..TlbConfig::naive()
            },
            walker: WalkerConfig::serial(),
        };
        let mut r = rig(model);
        let unmapped = Vpn::new(0x1);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r
            .mmu
            .translate(0, 3, &[pr(unmapped, 3)], &r.space, &mut r.buf);
        let _ = r
            .mmu
            .translate(0, 9, &[pr(unmapped, 9)], &r.space, &mut r.buf);
        assert_eq!(r.mmu.outstanding_walks(), 1, "misses merged in one MSHR");
        let (_, events) = settle(&mut r, 1);
        let faulted: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                MmuEvent::Fault { warp, .. } => Some(*warp),
                _ => None,
            })
            .collect();
        assert_eq!(faulted.len(), 2);
        assert!(faulted.contains(&3) && faulted.contains(&9));
        assert_eq!(r.mmu.faults.get(), 1, "one faulting walk");
    }

    #[test]
    fn shootdown_squashes_inflight_walks_and_notifies_waiters() {
        let mut r = rig(MmuModel::naive());
        let p = page(&r, 0);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let out = r.mmu.translate(0, 4, &[pr(p, 4)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { .. }));
        r.mmu.shootdown(1);
        let events: Vec<MmuEvent> = r.mmu.events().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, MmuEvent::Squashed { warp: 4, vpn, .. } if *vpn == p)));
        assert_eq!(r.mmu.outstanding_walks(), 0, "squash released the MSHR");
        assert_eq!(r.mmu.squashed_walks.get(), 1);
        assert_eq!(r.mmu.shootdowns.get(), 1);
        // The retried access re-walks and completes normally.
        r.mmu.advance(2, &mut r.mem, &r.space);
        let out = r.mmu.translate(2, 4, &[pr(p, 4)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { .. }));
        let (_, events) = settle(&mut r, 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, MmuEvent::Wake { warp: 4, .. })));
    }

    #[test]
    fn injected_rejects_and_delays_are_deterministic() {
        let run = |inject| {
            let mut r = rig(MmuModel::naive());
            r.mmu.set_injection(inject);
            let mut log = Vec::new();
            let mut now = 0;
            for i in 0..16 {
                r.mmu.advance(now, &mut r.mem, &r.space);
                let p = page(&r, i);
                let out = r.mmu.translate(now, 0, &[pr(p, 0)], &r.space, &mut r.buf);
                log.push(format!("{out:?}"));
                let (n2, _) = settle(&mut r, now + 1);
                now = n2 + 10;
            }
            (log, r.mmu.rejects.get(), r.mmu.miss_latency.mean())
        };
        let cfg = FaultInjectConfig {
            seed: 11,
            reject_rate: 0.3,
            walk_delay_rate: 0.5,
            walk_delay_cycles: 200,
            ..FaultInjectConfig::off()
        };
        let a = run(Some(cfg));
        let b = run(Some(cfg));
        assert_eq!(a, b, "same seed, same fault schedule");
        let off = run(None);
        assert_ne!(a.2, off.2, "delayed walks must show up in the miss latency");
    }

    #[test]
    fn flush_forces_rewalk() {
        let mut r = rig(MmuModel::naive());
        let p = page(&r, 0);
        r.mmu.advance(0, &mut r.mem, &r.space);
        let _ = r.mmu.translate(0, 0, &[pr(p, 0)], &r.space, &mut r.buf);
        let (now, _) = settle(&mut r, 1);
        r.mmu.flush_tlb();
        let out = r.mmu.translate(now, 0, &[pr(p, 0)], &r.space, &mut r.buf);
        assert!(matches!(out, TranslateOutcome::Miss { .. }));
    }
}
