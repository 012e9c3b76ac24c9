//! The whole GPU: block dispatch, global cycle loop, aggregate results.
//!
//! All shader cores tick in lock-step against one shared
//! [`MemorySystem`], which is what makes cross-core contention (L2
//! slices, DRAM channels, page-walk traffic) causally consistent. A run
//! executes one kernel to completion and returns [`RunStats`], the
//! flattened statistics every figure harness reads. The paper's speedup
//! metric is [`RunStats::speedup_vs`] against the ideal-MMU run of the
//! same configuration.

use crate::config::{FaultConfig, GpuConfig};
use crate::core::{RunCtx, ShaderCore};
use crate::program::Kernel;
use crate::stall::StallBreakdown;
use gmmu_mem::MemorySystem;
use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};
use gmmu_sim::fault::{major_fault, FaultInjector};
use gmmu_sim::metrics::{Metrics, MetricsRegistry};
use gmmu_sim::observe::{CounterSnapshot, IntervalRecorder, Observer};
use gmmu_sim::stats::{Histogram, Summary};
use gmmu_sim::Cycle;
use gmmu_vm::{AddressSpace, Vpn};

/// Aggregated results of one kernel run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Total cycles to completion.
    pub cycles: Cycle,
    /// False when the safety cycle cap was hit.
    pub completed: bool,
    /// Warp instructions committed.
    pub instructions: u64,
    /// Memory instructions committed.
    pub mem_instructions: u64,
    /// Sum over cores of cycles with live warps but no issue.
    pub idle_cycles: u64,
    /// `idle_cycles` split by dominant stall cause; its total equals
    /// `idle_cycles` exactly, on every run and under both loops.
    pub stall_breakdown: StallBreakdown,
    /// Sum over cores of cycles with live warps.
    pub live_cycles: u64,
    /// Per-memory-instruction page divergence (Figure 3 right).
    pub page_divergence: Histogram,
    /// L1 miss service latency (Figure 4 baseline bar).
    pub l1_miss_latency: Summary,
    /// TLB miss resolution latency (Figure 4 TLB bar).
    pub tlb_miss_latency: Summary,
    /// TLB lookups (per coalesced page).
    pub tlb_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// L1 accesses / hits.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Page-walker PTE loads actually issued.
    pub walk_refs_issued: u64,
    /// PTE loads a naive serial walker would have issued.
    pub walk_refs_naive: u64,
    /// Completed page walks.
    pub walks: u64,
    /// L2 hit rate of page-walk references.
    pub walk_l2_hit_rate: f64,
    /// DRAM line transfers.
    pub dram_requests: u64,
    /// Memory instructions replayed (TLB wakes / rejects).
    pub replays: u64,
    /// Dynamic warps formed (TBC only).
    pub dwarps_formed: u64,
    /// Thread blocks completed.
    pub blocks_done: u64,
    /// Page faults serviced by the modeled CPU fault handler (demand
    /// paging; 0 whenever the fault model is off).
    pub faults: u64,
    /// TLB shootdowns observed (per core) via epoch bumps.
    pub shootdowns: u64,
    /// In-flight page walks squashed by shootdowns and replayed.
    pub squashed_walks: u64,
    /// True when the forward-progress watchdog killed the run (implies
    /// `completed == false`).
    pub watchdog_fired: bool,
    /// Per-tenant results, populated by multi-tenant runs
    /// ([`Gpu::run_tenants`] with two or more jobs) and empty otherwise.
    /// Deterministic like every other field, but excluded from the
    /// pinned [`Codec`] layout: GMTR traces, its only user, capture
    /// single-tenant runs.
    pub tenants: Vec<TenantStats>,
    /// Wall-clock seconds the run took on the host. The only
    /// nondeterministic field: every other field is bit-identical
    /// across the skip and per-cycle loops, sweep thread counts, and
    /// repeat runs.
    pub wall_s: f64,
}

/// One tenant's slice of a multi-tenant run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's address-space identifier.
    pub asid: u16,
    /// Warp instructions this tenant committed.
    pub instructions: u64,
    /// Thread blocks this tenant completed.
    pub blocks_done: u64,
    /// Cycle the tenant's last block completed (the run's final cycle
    /// when the tenant never finished).
    pub finished_at: Cycle,
    /// Pages the CPU fault handler mapped for this tenant.
    pub faults: u64,
}

/// Policy knobs for a multi-tenant run. Deliberately *not* part of
/// [`GpuConfig`]: that struct's serialized layout is pinned, and these
/// knobs only shape scheduling, never the machine's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// `true`: TLB entries, MSHR waiters, and in-flight walks carry the
    /// owning ASID, so shootdowns and fault squashes are scoped to one
    /// tenant. `false`: the flush-on-switch fallback — the TLB holds
    /// only the current tenant's entries and is flushed whole on every
    /// tenant switch (the comparison baseline).
    pub tagged: bool,
    /// Walk-scheduler fairness: translation grants per ASID per
    /// round-robin round (0 leaves the legacy FIFO, for comparison).
    pub walker_tokens: u32,
    /// Walk-scheduler fairness: a queued walk older than this many
    /// cycles is served unconditionally, oldest first.
    pub walker_max_age: u64,
    /// Per-tenant starvation watchdog: kill the run when a tenant with
    /// remaining work has issued nothing for this many cycles, naming
    /// the starved tenant (0 = off; the global watchdog still applies).
    pub watchdog: Cycle,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            tagged: true,
            walker_tokens: 4,
            walker_max_age: 50_000,
            watchdog: 0,
        }
    }
}

impl TenantPolicy {
    /// The flush-on-switch comparison baseline: untagged TLB, legacy
    /// FIFO walker.
    pub fn flush_on_switch() -> Self {
        Self {
            tagged: false,
            walker_tokens: 0,
            ..Self::default()
        }
    }
}

/// One tenant of a multi-tenant run: a kernel bound to the address
/// space it executes in. The space must have been built with
/// [`AddressSpace::with_asid`] matching its position in the job slice.
pub struct TenantJob<'a> {
    /// The tenant's kernel.
    pub kernel: &'a dyn Kernel,
    /// The tenant's address space (owned mutably: demand paging and
    /// shootdown storms remap pages mid-run).
    pub space: &'a mut AddressSpace,
}

impl RunStats {
    /// An all-zero result, used as a placeholder by the experiment
    /// runner's recording pass before any simulation has run.
    pub fn zeroed() -> Self {
        Self {
            cycles: 0,
            completed: true,
            instructions: 0,
            mem_instructions: 0,
            idle_cycles: 0,
            stall_breakdown: StallBreakdown::new(),
            live_cycles: 0,
            page_divergence: Histogram::new(),
            l1_miss_latency: Summary::new(),
            tlb_miss_latency: Summary::new(),
            tlb_accesses: 0,
            tlb_hits: 0,
            l1_accesses: 0,
            l1_hits: 0,
            walk_refs_issued: 0,
            walk_refs_naive: 0,
            walks: 0,
            walk_l2_hit_rate: 0.0,
            dram_requests: 0,
            replays: 0,
            dwarps_formed: 0,
            blocks_done: 0,
            faults: 0,
            shootdowns: 0,
            squashed_walks: 0,
            watchdog_fired: false,
            tenants: Vec::new(),
            wall_s: 0.0,
        }
    }

    /// Simulated cycles per wall-clock second — the simulator's
    /// throughput metric (0 when the run was too fast for the clock to
    /// resolve).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Paper speedup metric: `baseline.cycles / self.cycles` (1.0 =
    /// parity with the baseline, <1 = slowdown).
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// TLB miss rate in `[0, 1]`.
    pub fn tlb_miss_rate(&self) -> f64 {
        if self.tlb_accesses == 0 {
            0.0
        } else {
            (self.tlb_accesses - self.tlb_hits) as f64 / self.tlb_accesses as f64
        }
    }

    /// Memory instructions as a fraction of all instructions (Figure 3
    /// left).
    pub fn mem_insn_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_instructions as f64 / self.instructions as f64
        }
    }

    /// Fraction of page-walk references eliminated by walk scheduling.
    pub fn walk_refs_eliminated(&self) -> f64 {
        if self.walk_refs_naive == 0 {
            0.0
        } else {
            1.0 - self.walk_refs_issued as f64 / self.walk_refs_naive as f64
        }
    }

    /// Warp instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Fraction of live core-cycles that issued nothing.
    pub fn idle_fraction(&self) -> f64 {
        if self.live_cycles == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / self.live_cycles as f64
        }
    }

    /// Names of fields that differ between two results, ignoring
    /// `wall_s` (the only nondeterministic field). Empty means the runs
    /// were behaviourally identical — the equality the trace-replay
    /// conformance harness enforces.
    pub fn diff(&self, other: &RunStats) -> Vec<&'static str> {
        let mut out = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    out.push(stringify!($field));
                }
            };
        }
        cmp!(cycles);
        cmp!(completed);
        cmp!(instructions);
        cmp!(mem_instructions);
        cmp!(idle_cycles);
        cmp!(stall_breakdown);
        cmp!(live_cycles);
        cmp!(page_divergence);
        cmp!(l1_miss_latency);
        cmp!(tlb_miss_latency);
        cmp!(tlb_accesses);
        cmp!(tlb_hits);
        cmp!(l1_accesses);
        cmp!(l1_hits);
        cmp!(walk_refs_issued);
        cmp!(walk_refs_naive);
        cmp!(walks);
        cmp!(walk_l2_hit_rate);
        cmp!(dram_requests);
        cmp!(replays);
        cmp!(dwarps_formed);
        cmp!(blocks_done);
        cmp!(faults);
        cmp!(shootdowns);
        cmp!(squashed_walks);
        cmp!(watchdog_fired);
        cmp!(tenants);
        out
    }

    /// Per-tenant slowdowns against each tenant's solo run of the same
    /// configuration: `finished_at / solo.cycles` (1.0 = no
    /// interference). Empty unless this was a multi-tenant run and
    /// `solos` matches its tenant count.
    pub fn tenant_slowdowns(&self, solos: &[RunStats]) -> Vec<f64> {
        if self.tenants.is_empty() || solos.len() != self.tenants.len() {
            return Vec::new();
        }
        self.tenants
            .iter()
            .zip(solos)
            .map(|(t, solo)| t.finished_at as f64 / solo.cycles.max(1) as f64)
            .collect()
    }

    /// Unfairness of a multi-tenant run: max over tenants of slowdown
    /// divided by min (1.0 = perfectly fair interference, per the MASK
    /// metric). Returns 1.0 when slowdowns are unavailable.
    pub fn unfairness(&self, solos: &[RunStats]) -> f64 {
        let s = self.tenant_slowdowns(solos);
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        if s.is_empty() || min <= 0.0 {
            1.0
        } else {
            max / min
        }
    }
}

/// How a run borrows the address space: shared (read-only translation,
/// the historical contract) or owned (the fault handler and shootdown
/// storms may map/remap pages mid-run).
enum SpaceAccess<'a> {
    Shared(&'a AddressSpace),
    Owned(&'a mut AddressSpace),
}

impl SpaceAccess<'_> {
    fn get(&self) -> &AddressSpace {
        match self {
            SpaceAccess::Shared(s) => s,
            SpaceAccess::Owned(s) => s,
        }
    }

    fn get_mut(&mut self) -> Option<&mut AddressSpace> {
        match self {
            SpaceAccess::Shared(_) => None,
            SpaceAccess::Owned(s) => Some(s),
        }
    }
}

/// One tenant as the drive loop sees it: a kernel bound to an address
/// space, with whatever mutability the caller granted. Single-tenant
/// runs are a one-element slice of these, which is exactly the legacy
/// code path.
struct TenantCtx<'k, 'a> {
    kernel: &'k dyn Kernel,
    space: SpaceAccess<'a>,
}

/// Sentinel for "this tenant has not finished yet" in per-tenant finish
/// time tracking.
const UNFINISHED: Cycle = Cycle::MAX;

/// Recycles a `Vec` of shared references across borrow regions: clears
/// it and re-types the (now empty) allocation with a fresh lifetime.
/// The drive loop rebuilds its tenant `spaces` slice every cycle —
/// fault handling takes `&mut` access to the spaces in between, so the
/// references themselves cannot be kept — and this lets the rebuild
/// reuse one allocation instead of heap-allocating per cycle.
fn recycle_refs<'b, T>(mut v: Vec<&T>) -> Vec<&'b T> {
    v.clear();
    // SAFETY: the vector is empty, so no reference values survive the
    // cast; the layout of `Vec<&T>` is independent of the reference
    // lifetime, which is the only thing that changes.
    unsafe { std::mem::transmute(v) }
}

/// Credits `core` with its quiet cycles `[*credited, to)` and moves the
/// cursor to `to`. A sleeping core's skipped ticks are exactly these
/// quiet ticks, so charging them in one span records what ticking every
/// cycle would have.
fn settle(core: &mut ShaderCore, credited: &mut Cycle, to: Cycle) {
    if *credited < to {
        core.note_idle_skip(*credited, to - *credited);
        *credited = to;
    }
}

/// The first cycle at which one of the drive loop's global timers could
/// change what a core sees or what the loop records, so a core run
/// ahead from `now` (where it issued) stops before it: the cycle cap, a
/// queued fault-handler completion, under demand paging the earliest
/// completion of a fault raised from `now` on, the next storm, the next
/// interval-sample boundary, and each watchdog's earliest firing plus
/// one (a watchdog fires after that cycle's ticks). The global watchdog
/// fires no earlier than `now + watchdog`, since the core issued at
/// `now`; a tenant's no earlier than its progress clock plus its window.
fn run_ahead_limit(
    now: Cycle,
    max_cycles: Cycle,
    fault_q: &[((u16, Vpn), Cycle)],
    fault: &FaultConfig,
    storm: Option<Cycle>,
    boundary: Option<Cycle>,
    tenant_deadlines: impl Iterator<Item = Cycle>,
) -> Cycle {
    let watchdog = (fault.watchdog > 0).then(|| now + fault.watchdog + 1);
    let mut limit = fault_q
        .iter()
        .map(|&(_, at)| at)
        .chain(storm)
        .chain(boundary)
        .chain(watchdog)
        .chain(tenant_deadlines)
        .fold(max_cycles, Cycle::min);
    if fault.demand_paging {
        limit = limit.min(now + fault.minor_latency.min(fault.major_latency).max(1));
    }
    limit
}

/// A configured GPU ready to run kernels.
///
/// # Examples
///
/// See `gmmu-workloads` and the repository examples; constructing a
/// kernel requires a workload implementation.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    cores: Vec<ShaderCore>,
    mem: MemorySystem,
}

impl Gpu {
    /// Builds the GPU described by `config`.
    pub fn new(config: GpuConfig) -> Self {
        let cores = (0..config.n_cores)
            .map(|id| ShaderCore::new(id, &config))
            .collect();
        let mem = MemorySystem::new(config.mem);
        Self { config, cores, mem }
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs `kernel` to completion against `space` and returns the
    /// aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if a kernel touches an unmapped page while demand paging
    /// ([`crate::config::FaultConfig::demand_paging`]) is off, or the
    /// kernel has zero threads.
    pub fn run(&mut self, kernel: &dyn Kernel, space: &AddressSpace) -> RunStats {
        self.run_observed(kernel, space, &mut Observer::off())
    }

    /// [`Gpu::run`] with observation instruments attached. With
    /// [`Observer::off`] this is exactly `run` — same results, no
    /// recording cost (the determinism suite asserts bit-identity).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::run`].
    pub fn run_observed(
        &mut self,
        kernel: &dyn Kernel,
        space: &AddressSpace,
        obs: &mut Observer,
    ) -> RunStats {
        self.run_inner(kernel, SpaceAccess::Shared(space), obs)
    }

    /// [`Gpu::run_observed`] with a *mutable* address space: page faults
    /// raised by demand-paged warps are serviced by the modeled CPU
    /// fault handler (which maps the page after the configured
    /// minor/major latency), and injected shootdown storms may remap
    /// regions mid-run. Required whenever
    /// [`crate::config::FaultConfig::demand_paging`] expects faults to
    /// actually resolve — with a shared space a faulted page can never
    /// be mapped and the forward-progress watchdog ends the run.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::run`].
    pub fn run_faulted(
        &mut self,
        kernel: &dyn Kernel,
        space: &mut AddressSpace,
        obs: &mut Observer,
    ) -> RunStats {
        self.run_inner(kernel, SpaceAccess::Owned(space), obs)
    }

    /// Runs several tenants — distinct kernels in distinct address
    /// spaces — concurrently on this one GPU until every tenant
    /// finishes. Tenant `t`'s space must carry ASID `t`
    /// ([`AddressSpace::with_asid`]); translation state (TLB entries,
    /// MSHR waiters, in-flight walks) is ASID-tagged per `policy`, so
    /// one tenant's shootdowns and faults never touch another's entries.
    /// Spaces are owned mutably (the [`Gpu::run_faulted`] contract):
    /// demand paging and injected cross-tenant shootdown storms remap
    /// pages mid-run. The result's [`RunStats::tenants`] carries each
    /// tenant's slice of the run.
    ///
    /// Deterministic like every single-tenant run: bit-identical under
    /// the skip and per-cycle loops.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::run`], plus: no jobs, more than 64
    /// jobs, an ASID mismatch, or a TBC configuration with more than one
    /// job (thread-block compaction is single-tenant).
    pub fn run_tenants(
        &mut self,
        jobs: &mut [TenantJob<'_>],
        policy: TenantPolicy,
        obs: &mut Observer,
    ) -> RunStats {
        let mut tenants: Vec<TenantCtx<'_, '_>> = jobs
            .iter_mut()
            .map(|j| TenantCtx {
                kernel: j.kernel,
                space: SpaceAccess::Owned(&mut *j.space),
            })
            .collect();
        self.run_prepared(&mut tenants, &policy, obs)
    }

    /// Shared run preamble: validates every kernel against its space,
    /// distributes thread blocks round-robin over the cores (interleaved
    /// one block per tenant per round, so co-runners contend from cycle
    /// 0 — for one tenant this is exactly the legacy distribution), and
    /// applies the tenant policy. Returns the per-thread-per-site
    /// iteration counters, each tenant's base offset into them, and each
    /// tenant's total block count.
    fn prepare_run_tenants(
        &mut self,
        tenants: &[TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &mut Observer,
    ) -> (Vec<u32>, Vec<usize>, Vec<u64>) {
        let n_t = tenants.len();
        assert!(n_t > 0, "a run needs at least one tenant");
        assert!(n_t <= 64, "at most 64 tenants (the issue mask is a u64)");
        assert!(
            n_t == 1 || self.config.tbc.is_none(),
            "thread-block compaction is single-tenant only"
        );
        for (t, ctx) in tenants.iter().enumerate() {
            assert_eq!(
                ctx.space.get().asid(),
                t as u16,
                "tenant {t}'s space must carry ASID {t} (AddressSpace::with_asid)"
            );
            assert!(ctx.kernel.num_threads() > 0, "kernel has no threads");
            if self.config.granule == gmmu_vm::PageSize::Large2M {
                assert!(
                    ctx.space
                        .get()
                        .regions()
                        .iter()
                        .all(|r| r.page_size == gmmu_vm::PageSize::Large2M),
                    "a 2MB translation granule requires 2MB-backed regions"
                );
            }
            let bt = ctx.kernel.block_threads();
            assert!(
                bt > 0 && bt.is_multiple_of(32),
                "block size must be a warp multiple"
            );
        }
        let n_cores = self.cores.len();
        let blocks_total: Vec<u64> = tenants
            .iter()
            .map(|c| c.kernel.num_threads().div_ceil(c.kernel.block_threads()) as u64)
            .collect();
        let max_blocks = blocks_total.iter().copied().max().unwrap_or(0);
        let mut seq = 0usize;
        for b in 0..max_blocks {
            for (t, ctx) in tenants.iter().enumerate() {
                if b >= blocks_total[t] {
                    continue;
                }
                let bt = ctx.kernel.block_threads();
                let threads = ctx.kernel.num_threads();
                let first = b as u32 * bt;
                let count = (threads - first).min(bt);
                self.cores[seq % n_cores].push_block_asid(t as u16, first, count);
                seq += 1;
            }
        }
        let mut iters_base = Vec::with_capacity(n_t);
        let mut total_slots = 0usize;
        for ctx in tenants {
            iters_base.push(total_slots);
            total_slots +=
                ctx.kernel.num_threads() as usize * ctx.kernel.program().num_sites().max(1);
        }
        for core in &mut self.cores {
            core.set_tagging(policy.tagged);
            if n_t > 1 && policy.walker_tokens > 0 {
                core.set_walker_fairness(n_t, policy.walker_tokens, policy.walker_max_age);
            }
        }
        if let Some(rec) = obs.intervals.as_mut() {
            let lanes: usize = self
                .cores
                .iter()
                .map(|c| c.mmu().walker().map_or(0, |w| w.lane_count()))
                .sum();
            rec.set_lanes(lanes as u64);
        }
        (vec![0u32; total_slots], iters_base, blocks_total)
    }

    fn run_inner(
        &mut self,
        kernel: &dyn Kernel,
        space: SpaceAccess<'_>,
        obs: &mut Observer,
    ) -> RunStats {
        let mut tenants = [TenantCtx { kernel, space }];
        self.run_prepared(&mut tenants, &TenantPolicy::default(), obs)
    }

    fn run_prepared(
        &mut self,
        tenants: &mut [TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &mut Observer,
    ) -> RunStats {
        let wall_start = std::time::Instant::now();
        let (mut iters, iters_base, blocks_total) = self.prepare_run_tenants(tenants, policy, obs);
        let mut stats = self.drive(tenants, policy, obs, &mut iters, &iters_base, &blocks_total);
        stats.wall_s = wall_start.elapsed().as_secs_f64();
        stats
    }

    /// The global cycle loop. Handles any tenant count — a one-element
    /// slice is the legacy single-tenant path, bit-for-bit.
    fn drive(
        &mut self,
        tenants: &mut [TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &mut Observer,
        iters: &mut [u32],
        iters_base: &[usize],
        blocks_total: &[u64],
    ) -> RunStats {
        let n_t = tenants.len();
        let track_tenants = n_t > 1;
        // The per-tenant starvation watchdog is armed.
        let watch_tenants = track_tenants && policy.watchdog > 0;
        let kernels: Vec<&dyn Kernel> = tenants.iter().map(|t| t.kernel).collect();
        let owned = tenants.iter_mut().any(|t| t.space.get_mut().is_some());
        // Each core sleeps until its own next event and the loop jumps
        // `now` to the earliest wake or global timer. This is
        // observably equivalent to ticking every core every cycle: the
        // memory system is reactive, so a core that did not issue can
        // only change state at its own next completion / wake / epoch
        // boundary, or when the loop shoots it down or resolves one of
        // its faults (which wake it). Its skipped ticks would have been
        // quiet, and are credited to the same idle/stall counters when
        // it next runs (`settle`). A core that issued commits the
        // following cycles that touch no shared state in place
        // (`ShaderCore::run_ahead`, up to the global timers' `limit`):
        // it is woken and credited from the last of them, and counted as
        // issuing through the last that issued. Under `tick_every_cycle`
        // nothing runs ahead and every wake is `now + 1`: the per-cycle
        // referee.
        let legacy = self.config.tick_every_cycle;
        let max_cycles = self.config.max_cycles;
        let fault_cfg = self.config.fault;
        let injector = self
            .config
            .inject
            .filter(|i| i.enabled())
            .map(FaultInjector::new);
        // Pages in CPU fault service: ((tenant, page), landing cycle).
        let mut fault_q: Vec<((u16, Vpn), Cycle)> = Vec::new();
        let mut fault_scratch: Vec<(u16, Vpn)> = Vec::new();
        let mut resolved_scratch: Vec<(u16, Vpn)> = Vec::new();
        let mut spaces_pool: Vec<&AddressSpace> = Vec::with_capacity(n_t);
        let mut last_epoch: Vec<u64> = tenants
            .iter()
            .map(|t| t.space.get().shootdown_epoch())
            .collect();
        let mut next_storm: u32 = 1;
        let mut last_progress: Cycle = 0;
        let mut progress_t: Vec<Cycle> = vec![0; n_t];
        let mut finished_at: Vec<Cycle> = vec![UNFINISHED; n_t];
        let mut faults_t: Vec<u64> = vec![0; n_t];
        let mut watchdog_fired = false;
        let mut now: Cycle = 0;
        let mut completed = true;
        // `wake[i]`: the next cycle core `i` must be ticked
        // (`Cycle::MAX`: no work). `credited[i]`: the first cycle whose
        // idle accounting core `i` has not received.
        let mut wake: Vec<Cycle> = vec![0; self.cores.len()];
        let mut credited: Vec<Cycle> = vec![0; self.cores.len()];
        loop {
            // Injected shootdown storms: remap a deterministically-chosen
            // region of a deterministically-chosen victim tenant, bumping
            // the epoch the check below observes. Storm cycles are folded
            // into the skip target, so both loops land on them exactly.
            if let Some(inj) = &injector {
                while inj.storm_at(next_storm).is_some_and(|c| c <= now) {
                    let k = next_storm;
                    next_storm += 1;
                    let victim = inj.storm_victim(k, n_t) as usize;
                    if let Some(sp) = tenants[victim].space.get_mut() {
                        if !sp.regions().is_empty() {
                            let idx = inj.storm_region(k, sp.regions().len());
                            let name = sp.regions()[idx].name.clone();
                            // OOM during a storm leaves the old mapping
                            // in place — the run continues unharmed.
                            let _ = sp.remap_region(&name);
                        }
                    }
                }
            }
            // The GPU observes unmap/remap activity through each space's
            // shootdown epoch: on a bump every core flushes that
            // tenant's TLB entries and squashes its in-flight walks (the
            // squash events wake their warps for a backed-off retry this
            // very cycle). Other tenants' state is untouched. Every core
            // is settled and woken first.
            for (t, ctx) in tenants.iter().enumerate() {
                let epoch = ctx.space.get().shootdown_epoch();
                if epoch != last_epoch[t] {
                    last_epoch[t] = epoch;
                    for (i, core) in self.cores.iter_mut().enumerate() {
                        settle(core, &mut credited[i], now);
                        wake[i] = wake[i].min(now);
                        core.shootdown(t as u16);
                    }
                }
            }
            // CPU fault handler completions due this cycle: map the page
            // into the faulting tenant's space (idempotent), then
            // release every parked warp of that tenant.
            if !fault_q.is_empty() {
                resolved_scratch.clear();
                fault_q.retain(|&(key, at)| {
                    if at <= now {
                        resolved_scratch.push(key);
                        false
                    } else {
                        true
                    }
                });
                for &(asid, vpn) in &resolved_scratch {
                    let mapped = match tenants[asid as usize].space.get_mut() {
                        Some(sp) => sp.map_page(vpn).is_ok(),
                        // A shared space cannot be mapped into — see
                        // `run_faulted`.
                        None => false,
                    };
                    if mapped {
                        faults_t[asid as usize] += 1;
                        // Settle before the release rewrites the warp
                        // state the stall classifier reads.
                        for (i, core) in self.cores.iter_mut().enumerate() {
                            settle(core, &mut credited[i], now);
                            if core.resolve_fault(asid, vpn, now) {
                                wake[i] = wake[i].min(now);
                            }
                        }
                    } else {
                        // Couldn't map (shared space, region gone, out of
                        // frames): keep the warps parked and retry the
                        // handler later. Releasing them would replay,
                        // refault, and count as issue progress — hiding
                        // the livelock from the watchdog.
                        fault_q.push(((asid, vpn), now + fault_cfg.minor_latency.max(1)));
                    }
                }
            }
            let mut spaces = recycle_refs(std::mem::take(&mut spaces_pool));
            spaces.extend(tenants.iter().map(|t| t.space.get()));
            let mut ctx = RunCtx {
                spaces: &spaces,
                kernels: &kernels,
                iters: &mut *iters,
                iters_base,
            };
            // `run_ahead_limit`, worked out at this cycle's first issue.
            let mut limit = None;
            // Due cores tick in id order, so the shared memory system
            // sees the per-cycle loop's access order. One pass over the
            // cores also collects the faults they raise and their
            // earliest wake.
            let mut live = false;
            let mut issued = 0u64;
            // The last cycle any core issued through (cores run ahead of
            // `now`).
            let mut issued_through = now;
            let mut next = Cycle::MAX;
            fault_scratch.clear();
            for (i, core) in self.cores.iter_mut().enumerate() {
                if wake[i] > now {
                    live |= wake[i] != Cycle::MAX;
                    next = next.min(wake[i]);
                    continue;
                }
                settle(core, &mut credited[i], now);
                let bits = core.tick_tenants(now, &mut self.mem, &mut ctx, obs);
                core.drain_faults(&mut fault_scratch);
                let (through, issued_at) = if legacy || bits == 0 {
                    (now, now)
                } else {
                    let limit = *limit.get_or_insert_with(|| {
                        let storm = injector.as_ref().filter(|_| owned);
                        run_ahead_limit(
                            now,
                            max_cycles,
                            &fault_q,
                            &fault_cfg,
                            storm.and_then(|inj| inj.storm_at(next_storm)),
                            obs.intervals.as_ref().map(IntervalRecorder::next_boundary),
                            (0..n_t)
                                .filter(|&t| watch_tenants && finished_at[t] == UNFINISHED)
                                .map(|t| progress_t[t] + policy.watchdog + 1),
                        )
                    });
                    core.run_ahead(now, limit, &mut ctx)
                };
                credited[i] = through + 1;
                issued |= bits;
                issued_through = issued_through.max(issued_at);
                if watch_tenants {
                    for (t, p) in progress_t.iter_mut().enumerate() {
                        if bits & (1u64 << (t as u32 & 63)) != 0 {
                            *p = (*p).max(issued_at);
                        }
                    }
                }
                live |= core.has_work();
                wake[i] = if legacy || through > now {
                    through + 1
                } else {
                    core.next_event_at(now).unwrap_or(Cycle::MAX)
                };
                next = next.min(wake[i]);
            }
            spaces_pool = recycle_refs(spaces);
            // New page faults raised this cycle enter the handler queue
            // once each; minor/major classification is a pure function
            // of the seed and the ASID-salted page (for ASID 0 the salt
            // is the identity, preserving single-tenant schedules).
            for &(asid, vpn) in &fault_scratch {
                if fault_q.iter().any(|&(k, _)| k == (asid, vpn)) {
                    continue;
                }
                let salted = gmmu_mem::mshr::tenant_key(asid, vpn.raw());
                let latency = if major_fault(self.config.seed, salted, fault_cfg.major_fraction) {
                    fault_cfg.major_latency
                } else {
                    fault_cfg.minor_latency
                };
                fault_q.push(((asid, vpn), now + latency.max(1)));
            }
            // A tenant finishes on the first visited cycle all its
            // blocks are reaped; reaps happen inside ticks, so both
            // loops observe the same finish cycle.
            if track_tenants {
                for t in 0..n_t {
                    if finished_at[t] == UNFINISHED {
                        let done: u64 = self
                            .cores
                            .iter()
                            .map(|c| {
                                c.stats()
                                    .tenant_blocks_done
                                    .get(t)
                                    .map_or(0, |ctr| ctr.get())
                            })
                            .sum();
                        if done >= blocks_total[t] {
                            finished_at[t] = now;
                        }
                    }
                }
            }
            if !live {
                break;
            }
            // A core run ahead is issue progress through its last issue,
            // so `last_progress` may lie beyond `now`.
            if issued != 0 {
                last_progress = last_progress.max(issued_through);
            } else if fault_cfg.watchdog > 0
                && now.saturating_sub(last_progress) >= fault_cfg.watchdog
            {
                eprintln!(
                    "gmmu watchdog: no instruction issued for {} cycles \
                     (last progress at cycle {last_progress}, now {now})",
                    now - last_progress
                );
                Self::fault_q_diagnostics(&fault_q);
                if track_tenants {
                    Self::tenant_diagnostics(&progress_t, &finished_at, &faults_t);
                }
                for core in &self.cores {
                    eprint!("{}", core.stall_diagnostics(now));
                }
                watchdog_fired = true;
                completed = false;
                break;
            }
            // Per-tenant starvation watchdog: a tenant with remaining
            // work must issue at least once per window, no matter what
            // its co-runners do. Fires even on cycles where *other*
            // tenants made progress — that is the whole point.
            if watch_tenants {
                if let Some(starved) = (0..n_t).find(|&t| {
                    finished_at[t] == UNFINISHED
                        && now.saturating_sub(progress_t[t]) >= policy.watchdog
                }) {
                    eprintln!(
                        "gmmu tenant watchdog: tenant {starved} issued nothing for {} cycles \
                         (last progress at cycle {}, now {now})",
                        now - progress_t[starved],
                        progress_t[starved]
                    );
                    Self::fault_q_diagnostics(&fault_q);
                    Self::tenant_diagnostics(&progress_t, &finished_at, &faults_t);
                    for core in &self.cores {
                        eprint!("{}", core.stall_diagnostics(now));
                    }
                    watchdog_fired = true;
                    completed = false;
                    break;
                }
            }
            // Jump to the earliest due core. Fault-handler completions,
            // the storm schedule, and the watchdog deadlines are global
            // timers the cores know nothing about; folding them in keeps
            // both loops on identical cycles. Every term lies beyond
            // `now`.
            for &(_, at) in &fault_q {
                next = next.min(at);
            }
            if let Some(inj) = &injector {
                if owned {
                    if let Some(c) = inj.storm_at(next_storm) {
                        next = next.min(c.max(now + 1));
                    }
                }
            }
            if fault_cfg.watchdog > 0 {
                next = next.min(last_progress + fault_cfg.watchdog);
            }
            if watch_tenants {
                for t in 0..n_t {
                    if finished_at[t] == UNFINISHED {
                        next = next.min(progress_t[t] + policy.watchdog);
                    }
                }
            }
            now = next.min(max_cycles);
            if let Some(rec) = obs.intervals.as_mut() {
                // No observed counter moves while a core sleeps, so
                // boundaries crossed by the jump record exactly what the
                // per-cycle loop records.
                while rec.due(now) {
                    let totals = Self::totals(&self.cores, &self.mem, &obs.metrics);
                    rec.sample(totals);
                }
            }
            if now >= max_cycles {
                completed = false;
                break;
            }
        }
        // Settle every core through the last cycle the run covers: a
        // watchdog stops after ticking `now`, the cycle cap before it.
        let end = if watchdog_fired { now + 1 } else { now };
        for (core, c) in self.cores.iter_mut().zip(&mut credited) {
            settle(core, c, end);
        }
        if let Some(rec) = obs.intervals.as_mut() {
            rec.finish(now, Self::totals(&self.cores, &self.mem, &obs.metrics));
        }
        let mut stats = self.collect(now, completed);
        stats.watchdog_fired = watchdog_fired;
        if track_tenants {
            stats.tenants = self.tenant_stats(&finished_at, &faults_t, now);
        }
        stats
    }

    /// Watchdog helper: the pages currently in CPU fault service.
    fn fault_q_diagnostics(fault_q: &[((u16, Vpn), Cycle)]) {
        eprintln!(
            "  {} page(s) in CPU fault service: {:?}",
            fault_q.len(),
            fault_q
        );
    }

    /// Watchdog helper: each tenant's progress clock, completion state,
    /// and mapped-fault count — the first place to look when a
    /// multi-tenant run stalls.
    fn tenant_diagnostics(progress_t: &[Cycle], finished_at: &[Cycle], faults_t: &[u64]) {
        for (t, &p) in progress_t.iter().enumerate() {
            eprintln!(
                "  tenant {t}: last issue at cycle {p}, finished={}, faults_mapped={}",
                finished_at[t] != UNFINISHED,
                faults_t[t]
            );
        }
    }

    /// Assembles [`RunStats::tenants`] from the per-core tenant counters
    /// plus the drive loop's finish/fault tracking.
    fn tenant_stats(
        &self,
        finished_at: &[Cycle],
        faults_t: &[u64],
        end: Cycle,
    ) -> Vec<TenantStats> {
        (0..finished_at.len())
            .map(|t| {
                let mut instructions = 0;
                let mut blocks_done = 0;
                for core in &self.cores {
                    let st = core.stats();
                    instructions += st.tenant_instructions.get(t).map_or(0, |c| c.get());
                    blocks_done += st.tenant_blocks_done.get(t).map_or(0, |c| c.get());
                }
                TenantStats {
                    asid: t as u16,
                    instructions,
                    blocks_done,
                    finished_at: if finished_at[t] == UNFINISHED {
                        end
                    } else {
                        finished_at[t]
                    },
                    faults: faults_t[t],
                }
            })
            .collect()
    }

    /// Current whole-GPU totals of the counters interval samples track.
    /// The per-stage walk columns come from the metrics channel and stay
    /// zero when it is off.
    fn totals(cores: &[ShaderCore], mem: &MemorySystem, metrics: &Metrics) -> CounterSnapshot {
        let mut t = CounterSnapshot {
            dram_requests: mem.dram_requests(),
            ..CounterSnapshot::default()
        };
        if let Some(sink) = metrics.sink() {
            let (queue, active) = sink.stage_cycles();
            t.walk_queue_cycles = queue;
            t.walk_active_cycles = active;
        }
        for core in cores {
            t.instructions += core.stats().instructions.get();
            let mmu = core.mmu();
            if let Some(tlb) = mmu.tlb() {
                t.tlb_accesses += tlb.accesses.get();
                t.tlb_hits += tlb.hits.get();
            }
            if let Some(w) = mmu.walker() {
                t.walker_busy_cycles += w.stats.lane_busy_cycles.get();
            }
        }
        t
    }

    fn collect(&self, cycles: Cycle, completed: bool) -> RunStats {
        let mut s = RunStats::zeroed();
        s.cycles = cycles;
        s.completed = completed;
        s.walk_l2_hit_rate = self.mem.walk_l2_hit_rate();
        s.dram_requests = self.mem.dram_requests();
        for core in &self.cores {
            let st = core.stats();
            s.instructions += st.instructions.get();
            s.mem_instructions += st.mem_instructions.get();
            s.idle_cycles += st.idle_cycles.get();
            debug_assert_eq!(
                st.stall_breakdown.total(),
                st.idle_cycles.get(),
                "stall breakdown must refine idle_cycles exactly"
            );
            s.stall_breakdown.merge(&st.stall_breakdown);
            s.live_cycles += st.live_cycles.get();
            s.page_divergence.merge(&st.page_divergence);
            s.l1_miss_latency.merge(&st.l1_miss_latency);
            s.replays += st.replays.get();
            s.dwarps_formed += st.dwarps_formed.get();
            s.blocks_done += st.blocks_done.get();
            s.l1_accesses += core.l1().accesses.get();
            s.l1_hits += core.l1().hits.get();
            let mmu = core.mmu();
            s.tlb_miss_latency.merge(&mmu.miss_latency);
            s.faults += mmu.faults.get();
            s.shootdowns += mmu.shootdowns.get();
            s.squashed_walks += mmu.squashed_walks.get();
            if let Some(tlb) = mmu.tlb() {
                s.tlb_accesses += tlb.accesses.get();
                s.tlb_hits += tlb.hits.get();
            }
            if let Some(w) = mmu.walker() {
                s.walk_refs_issued += w.stats.refs_issued.get();
                s.walk_refs_naive += w.stats.refs_naive.get();
                s.walks += w.stats.walks.get();
            }
        }
        s
    }

    /// Per-core access for diagnostics and tests.
    pub fn cores(&self) -> &[ShaderCore] {
        &self.cores
    }

    /// The shared memory system (L2/DRAM statistics).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Renders the versioned metrics snapshot of a finished (or paused)
    /// run: the full instrument registry — every core in index order,
    /// then the memory system — plus the observer sink's lifecycle
    /// histograms and hot-page table. Returns `None` when the metrics
    /// channel is off. The output contains no wall-clock or loop
    /// fields, so identical simulations produce identical snapshots
    /// under the skip and per-cycle loops.
    pub fn metrics_snapshot(&self, obs: &Observer) -> Option<String> {
        let sink = obs.metrics.sink()?;
        let mut reg = MetricsRegistry::new();
        for (i, core) in self.cores.iter().enumerate() {
            core.register_metrics(&format!("core{i}"), &mut reg);
        }
        self.mem.register_metrics("mem", &mut reg);
        Some(sink.snapshot_json(&reg))
    }
}

/// Convenience: build a GPU, run one kernel, return the stats.
pub fn run_kernel(config: GpuConfig, kernel: &dyn Kernel, space: &AddressSpace) -> RunStats {
    Gpu::new(config).run(kernel, space)
}

impl Codec for RunStats {
    fn save(&self, w: &mut Saver) {
        w.u64(self.cycles);
        w.bool(self.completed);
        w.u64(self.instructions);
        w.u64(self.mem_instructions);
        w.u64(self.idle_cycles);
        self.stall_breakdown.save(w);
        w.u64(self.live_cycles);
        self.page_divergence.save(w);
        self.l1_miss_latency.save(w);
        self.tlb_miss_latency.save(w);
        w.u64(self.tlb_accesses);
        w.u64(self.tlb_hits);
        w.u64(self.l1_accesses);
        w.u64(self.l1_hits);
        w.u64(self.walk_refs_issued);
        w.u64(self.walk_refs_naive);
        w.u64(self.walks);
        w.f64(self.walk_l2_hit_rate);
        w.u64(self.dram_requests);
        w.u64(self.replays);
        w.u64(self.dwarps_formed);
        w.u64(self.blocks_done);
        w.u64(self.faults);
        w.u64(self.shootdowns);
        w.u64(self.squashed_walks);
        w.bool(self.watchdog_fired);
        w.f64(self.wall_s);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.cycles = r.u64()?;
        self.completed = r.bool()?;
        self.instructions = r.u64()?;
        self.mem_instructions = r.u64()?;
        self.idle_cycles = r.u64()?;
        self.stall_breakdown.load(r)?;
        self.live_cycles = r.u64()?;
        self.page_divergence.load(r)?;
        self.l1_miss_latency.load(r)?;
        self.tlb_miss_latency.load(r)?;
        self.tlb_accesses = r.u64()?;
        self.tlb_hits = r.u64()?;
        self.l1_accesses = r.u64()?;
        self.l1_hits = r.u64()?;
        self.walk_refs_issued = r.u64()?;
        self.walk_refs_naive = r.u64()?;
        self.walks = r.u64()?;
        self.walk_l2_hit_rate = r.f64()?;
        self.dram_requests = r.u64()?;
        self.replays = r.u64()?;
        self.dwarps_formed = r.u64()?;
        self.blocks_done = r.u64()?;
        self.faults = r.u64()?;
        self.shootdowns = r.u64()?;
        self.squashed_walks = r.u64()?;
        self.watchdog_fired = r.bool()?;
        self.wall_s = r.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TbcConfig;
    use crate::program::{MemKind, Op, Program, ThreadId};
    use gmmu_core::mmu::MmuModel;
    use gmmu_sim::rng::mix3;
    use gmmu_vm::{PageSize, Region, SpaceConfig, VAddr};

    /// A divergent kernel: threads loop a data-dependent number of
    /// times, each iteration loading from a scattered page, with an
    /// if/else inside the loop.
    struct DivergentKernel {
        program: Program,
        region: Region,
        threads: u32,
        pages: u64,
    }

    impl DivergentKernel {
        /// Program layout:
        /// 0: alu
        /// 1: load (scattered)
        /// 2: branch if-site → taken 4, reconv 5
        /// 3: alu (else body)
        /// 4: alu (join of if — then path starts here)   [simplified if]
        /// 5: branch loop-site → taken 0 (continue), reconv 6
        /// 6: store
        fn new(space: &mut AddressSpace, threads: u32) -> Result<Self, gmmu_vm::VmError> {
            let bytes = 4u64 << 20;
            let region = space.map_region("data", bytes, PageSize::Base4K)?;
            Ok(Self {
                program: Program::new(vec![
                    Op::Alu { cycles: 4 },
                    Op::Mem {
                        site: 0,
                        kind: MemKind::Load,
                    },
                    Op::Branch {
                        site: 1,
                        taken_pc: 4,
                        reconv_pc: 5,
                    },
                    Op::Alu { cycles: 8 },
                    Op::Alu { cycles: 4 },
                    Op::Branch {
                        site: 2,
                        taken_pc: 0,
                        reconv_pc: 6,
                    },
                    Op::Mem {
                        site: 3,
                        kind: MemKind::Store,
                    },
                ]),
                region,
                threads,
                pages: bytes / 4096,
            })
        }

        fn trips(&self, tid: ThreadId) -> u32 {
            1 + (mix3(tid as u64, 99, 0) % 4) as u32
        }
    }

    impl Kernel for DivergentKernel {
        fn name(&self) -> &str {
            "divergent-test"
        }
        fn program(&self) -> &Program {
            &self.program
        }
        fn num_threads(&self) -> u32 {
            self.threads
        }
        fn block_threads(&self) -> u32 {
            128
        }
        fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr {
            let page = mix3(tid as u64, site as u64, iter as u64) % self.pages;
            let off = (tid as u64 * 8) % 4096;
            self.region.at(page * 4096 + (off & !7))
        }
        fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
            match site {
                1 => mix3(tid as u64, 1, iter as u64).is_multiple_of(2),
                2 => iter + 1 < self.trips(tid),
                _ => false,
            }
        }
    }

    fn cfg(mmu: MmuModel) -> GpuConfig {
        GpuConfig {
            n_cores: 2,
            warps_per_core: 8,
            warps_per_block: 4,
            mmu,
            max_cycles: 5_000_000,
            ..GpuConfig::default()
        }
    }

    fn run(c: GpuConfig, threads: u32) -> RunStats {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let kernel =
            DivergentKernel::new(&mut space, threads).expect("test space has frames to spare");
        run_kernel(c, &kernel, &space)
    }

    #[test]
    fn divergent_kernel_completes_on_ideal_mmu() {
        let s = run(cfg(MmuModel::Ideal), 512);
        assert!(s.completed, "hit the cycle cap");
        assert!(s.instructions > 0);
        assert_eq!(s.blocks_done, 4);
        assert_eq!(s.tlb_accesses, 0, "ideal MMU has no TLB");
    }

    #[test]
    fn naive_mmu_slows_the_same_work_down() {
        let ideal = run(cfg(MmuModel::Ideal), 512);
        let naive = run(cfg(MmuModel::naive()), 512);
        assert!(naive.completed);
        // The MMU changes timing, never the executed work.
        assert_eq!(ideal.mem_instructions, naive.mem_instructions);
        assert_eq!(ideal.blocks_done, naive.blocks_done);
        assert!(naive.cycles > ideal.cycles);
        let speedup = naive.speedup_vs(&ideal);
        assert!(speedup < 1.0, "TLBs cannot speed things up: {speedup}");
        assert!(naive.tlb_miss_rate() > 0.0);
        assert!(naive.walks > 0);
    }

    #[test]
    fn augmented_mmu_beats_naive() {
        let naive = run(cfg(MmuModel::naive()), 512);
        let aug = run(cfg(MmuModel::augmented()), 512);
        assert!(
            aug.cycles < naive.cycles,
            "augmented {} !< naive {}",
            aug.cycles,
            naive.cycles
        );
        assert!(aug.walk_refs_eliminated() > 0.0);
    }

    #[test]
    fn tbc_reduces_warp_instructions_on_divergent_code() {
        let base = run(cfg(MmuModel::Ideal), 512);
        let mut c = cfg(MmuModel::Ideal);
        c.tbc = Some(TbcConfig::baseline());
        let tbc = run(c, 512);
        assert!(tbc.completed);
        assert_eq!(tbc.blocks_done, base.blocks_done);
        // Same thread-level work.
        assert!(tbc.dwarps_formed > 0);
        // Compaction must not lose or duplicate memory accesses:
        // per-thread loads are fixed by trip counts, but warp-level
        // instruction counts shrink when divergent halves compact.
        assert!(
            tbc.instructions < base.instructions,
            "tbc {} !< base {}",
            tbc.instructions,
            base.instructions
        );
    }

    #[test]
    fn tlb_aware_tbc_completes_and_forms_more_warps() {
        let mut c = cfg(MmuModel::augmented());
        c.tbc = Some(TbcConfig::baseline());
        let tbc = run(c.clone(), 512);
        c.tbc = Some(TbcConfig::tlb_aware(3));
        let aware = run(c, 512);
        assert!(aware.completed);
        assert_eq!(aware.blocks_done, tbc.blocks_done);
        // The CPM constraint can only split groups, never merge more.
        assert!(aware.dwarps_formed >= tbc.dwarps_formed);
    }

    #[test]
    fn determinism_end_to_end() {
        let a = run(cfg(MmuModel::augmented()), 256);
        let b = run(cfg(MmuModel::augmented()), 256);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.tlb_accesses, b.tlb_accesses);
        assert_eq!(a.dram_requests, b.dram_requests);
    }

    #[test]
    fn per_cycle_loop_is_bit_identical_to_skip_loop() {
        let skip = run(cfg(MmuModel::augmented()), 512);
        let mut c = cfg(MmuModel::augmented());
        c.tick_every_cycle = true;
        let per_cycle = run(c, 512);
        assert!(
            skip.diff(&per_cycle).is_empty(),
            "{:?}",
            skip.diff(&per_cycle)
        );
    }

    #[test]
    fn partial_last_block_runs() {
        let s = run(cfg(MmuModel::Ideal), 100); // not a multiple of 128
        assert!(s.completed);
        assert_eq!(s.blocks_done, 1);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let s = run(cfg(MmuModel::naive()), 256);
        assert!(s.tlb_hits <= s.tlb_accesses);
        assert!(s.l1_hits <= s.l1_accesses);
        assert!(s.walk_refs_issued <= s.walk_refs_naive);
        assert!(s.mem_insn_fraction() > 0.0 && s.mem_insn_fraction() < 1.0);
        assert!(s.page_divergence.count() == s.mem_instructions);
        assert!(s.idle_cycles <= s.live_cycles);
        assert_eq!(
            s.stall_breakdown.total(),
            s.idle_cycles,
            "stall breakdown must sum exactly to idle_cycles"
        );
        assert!(s.stall_breakdown.get(crate::StallCause::TlbFill) > 0);
    }
}
