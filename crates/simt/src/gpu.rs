//! The whole GPU: block dispatch, global cycle loop, aggregate results.
//!
//! All shader cores tick in lock-step against one shared
//! [`MemorySystem`], which is what makes cross-core contention (L2
//! slices, DRAM channels, page-walk traffic) causally consistent. A run
//! executes one kernel to completion and returns [`RunStats`], the
//! flattened statistics every figure harness reads. The paper's speedup
//! metric is [`RunStats::speedup_vs`] against the ideal-MMU run of the
//! same configuration.

use crate::config::GpuConfig;
use crate::core::{RunCtx, ShaderCore};
use crate::program::Kernel;
use crate::stall::StallBreakdown;
use gmmu_mem::MemorySystem;
use gmmu_sim::ckpt::{fnv1a64, Ckpt, CkptError, Loader, Saver};
use gmmu_sim::fault::{major_fault, FaultInjector};
use gmmu_sim::metrics::{Metrics, MetricsRegistry};
use gmmu_sim::observe::{CounterSnapshot, Observer};
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
    /// pinned [`Ckpt`] layout — cached single-tenant records predate it.
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
/// [`GpuConfig`]: that struct's checkpoint layout is pinned, and these
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

    /// L1 miss rate in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            (self.l1_accesses - self.l1_hits) as f64 / self.l1_accesses as f64
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

/// Magic bytes opening every checkpoint image.
pub const CKPT_MAGIC: [u8; 4] = *b"GMCK";
/// Checkpoint format version. Bumped whenever the payload layout
/// changes; old images are refused rather than misread (see
/// `DESIGN.md`, "Checkpoint format versioning"). Version 2 added the
/// walk-start cycle to in-flight walk records, the per-stage walk
/// columns to interval snapshots, and the observer's metrics channel.
/// Version 3 added multi-tenant state: ASID tags throughout the fault
/// queue, per-tenant shootdown epochs, progress clocks, and finish
/// times, plus one address-space image per tenant. Version 4 moved
/// snapshots into the one drive loop and dropped the event calendar
/// and the per-core idle-accounting cursors from the payload. Version 5
/// stores the span trace as typed, string-free events.
pub const CKPT_VERSION: u32 = 5;

/// The configuration fingerprint stored in a checkpoint header: a
/// stable hash of the GPU configuration and every tenant's kernel name
/// and thread count (plus the tenant policy for multi-tenant runs).
/// [`Gpu::run_checkpointed`] refuses to resume a checkpoint whose
/// fingerprint differs — state can only be loaded into an identically
/// shaped machine.
fn ckpt_fingerprint(
    config: &GpuConfig,
    tenants: &[TenantCtx<'_, '_>],
    policy: &TenantPolicy,
) -> u64 {
    let mut key = format!("{config:?}");
    for t in tenants {
        key.push_str(&format!("|{}|{}", t.kernel.name(), t.kernel.num_threads()));
    }
    if tenants.len() > 1 {
        key.push_str(&format!("|{policy:?}"));
    }
    fnv1a64(key.as_bytes())
}

/// Checkpoint emission and resume controls for one
/// [`Gpu::run_checkpointed`] run.
pub struct CheckpointOpts<'a> {
    /// Emit a checkpoint at the first visited cycle at or after every
    /// multiple of this many cycles (0 = never emit).
    pub every: Cycle,
    /// Receives each emitted checkpoint image.
    pub sink: &'a mut dyn FnMut(&[u8]),
    /// A checkpoint image to resume from instead of starting at cycle 0.
    pub resume: Option<&'a [u8]>,
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

/// The drive loop's clock state bundled for checkpointing.
struct DriveClocks<'s> {
    now: Cycle,
    last_progress: Cycle,
    next_storm: u32,
    last_epoch: &'s [u64],
    progress_t: &'s [Cycle],
    finished_at: &'s [Cycle],
    faults_t: &'s [u64],
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
        self.run_prepared(&mut tenants, &policy, obs, None)
            .expect("a run without a resume image cannot fail")
    }

    /// [`Gpu::run_tenants`] with checkpoint/restore, the multi-tenant
    /// analogue of [`Gpu::run_checkpointed`]: every tenant's address
    /// space and all ASID-tagged translation state travel in the image,
    /// and a resumed storm finishes bit-identical to an uninterrupted
    /// one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gpu::run_checkpointed`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::run_tenants`].
    pub fn run_tenants_checkpointed(
        &mut self,
        jobs: &mut [TenantJob<'_>],
        policy: TenantPolicy,
        obs: &mut Observer,
        mut opts: CheckpointOpts<'_>,
    ) -> Result<RunStats, CkptError> {
        let mut tenants: Vec<TenantCtx<'_, '_>> = jobs
            .iter_mut()
            .map(|j| TenantCtx {
                kernel: j.kernel,
                space: SpaceAccess::Owned(&mut *j.space),
            })
            .collect();
        self.run_prepared(&mut tenants, &policy, obs, Some(&mut opts))
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

    /// Runs `kernel` with deterministic checkpoint/restore: a
    /// versioned snapshot of the *entire* simulation state (cores, TLBs,
    /// MSHRs, page tables, statistics, observer buffers) is handed to
    /// `opts.sink` every `opts.every` cycles, and a run resumed from
    /// such a snapshot (`opts.resume`) finishes bit-identical to an
    /// uninterrupted one — same stats, traces, and interval series.
    /// Snapshots are taken inside the one drive loop, so this works
    /// under the skip and per-cycle loops alike.
    ///
    /// The space is always owned (the `run_faulted` contract): demand
    /// paging and shootdown storms mutate it, so its state is part of
    /// the snapshot.
    ///
    /// # Errors
    ///
    /// Fails when `opts.resume` is truncated, corrupt, from a different
    /// format version, or from a differently configured machine
    /// (fingerprint mismatch). Never fails when `opts.resume` is `None`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Gpu::run`].
    pub fn run_checkpointed(
        &mut self,
        kernel: &dyn Kernel,
        space: &mut AddressSpace,
        obs: &mut Observer,
        mut opts: CheckpointOpts<'_>,
    ) -> Result<RunStats, CkptError> {
        let mut tenants = [TenantCtx {
            kernel,
            space: SpaceAccess::Owned(space),
        }];
        self.run_prepared(&mut tenants, &TenantPolicy::default(), obs, Some(&mut opts))
    }

    fn run_inner(
        &mut self,
        kernel: &dyn Kernel,
        space: SpaceAccess<'_>,
        obs: &mut Observer,
    ) -> RunStats {
        let mut tenants = [TenantCtx { kernel, space }];
        self.run_prepared(&mut tenants, &TenantPolicy::default(), obs, None)
            .expect("a run without a resume image cannot fail")
    }

    fn run_prepared(
        &mut self,
        tenants: &mut [TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &mut Observer,
        ckpt: Option<&mut CheckpointOpts<'_>>,
    ) -> Result<RunStats, CkptError> {
        let wall_start = std::time::Instant::now();
        let (mut iters, iters_base, blocks_total) = self.prepare_run_tenants(tenants, policy, obs);
        let mut stats = self.drive(
            tenants,
            policy,
            obs,
            &mut iters,
            &iters_base,
            &blocks_total,
            ckpt,
        )?;
        stats.wall_s = wall_start.elapsed().as_secs_f64();
        Ok(stats)
    }

    /// The global cycle loop. Handles any tenant count — a one-element
    /// slice is the legacy single-tenant path, bit-for-bit — and, with
    /// `ckpt`, emits snapshots at the top of visited cycles and resumes
    /// from one.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        tenants: &mut [TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &mut Observer,
        iters: &mut [u32],
        iters_base: &[usize],
        blocks_total: &[u64],
        mut ckpt: Option<&mut CheckpointOpts<'_>>,
    ) -> Result<RunStats, CkptError> {
        let n_t = tenants.len();
        let track_tenants = n_t > 1;
        let kernels: Vec<&dyn Kernel> = tenants.iter().map(|t| t.kernel).collect();
        let owned = tenants.iter_mut().any(|t| t.space.get_mut().is_some());
        // The idle-cycle-skipping loop is observably equivalent to
        // ticking every cycle: whenever no core issues, core state can
        // only change at a future completion / wake / epoch boundary,
        // so the loop jumps `now` straight to the earliest such event
        // and credits the skipped cycles to the same idle/live
        // counters the per-cycle loop would have bumped.
        let legacy = self.config.tick_every_cycle;
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
        // A snapshot is due at the first visited cycle at least `every`
        // cycles after the start (or the previous snapshot or resume
        // point); `Cycle::MAX` when emission is off.
        let every = ckpt.as_ref().map_or(0, |c| c.every);
        let emit_after = |now: Cycle| {
            if every > 0 {
                now.saturating_add(every)
            } else {
                Cycle::MAX
            }
        };
        let mut next_emit = emit_after(0);
        if let Some(bytes) = ckpt.as_ref().and_then(|c| c.resume) {
            // The image holds the loop-top state `save_checkpoint`
            // wrote, in the same order.
            let mut r = Loader::new(bytes);
            let found = r.header(&CKPT_MAGIC, CKPT_VERSION)?;
            let expected = ckpt_fingerprint(&self.config, tenants, policy);
            if found != expected {
                return Err(CkptError::ConfigMismatch { expected, found });
            }
            now = r.u64()?;
            last_progress = r.u64()?;
            next_storm = r.u32()?;
            for e in last_epoch.iter_mut() {
                *e = r.u64()?;
            }
            for p in progress_t.iter_mut() {
                *p = r.u64()?;
            }
            for f in finished_at.iter_mut() {
                *f = r.u64()?;
            }
            for f in faults_t.iter_mut() {
                *f = r.u64()?;
            }
            fault_q.load(&mut r)?;
            for it in iters.iter_mut() {
                *it = r.u32()?;
            }
            for ctx in tenants.iter_mut() {
                match ctx.space.get_mut() {
                    Some(sp) => sp.load(&mut r)?,
                    None => {
                        return Err(CkptError::Corrupt("resume requires an owned address space"))
                    }
                }
            }
            self.mem.load(&mut r)?;
            for core in &mut self.cores {
                core.load(&mut r)?;
            }
            obs.tracer.load(&mut r)?;
            if let Some(rec) = obs.intervals.as_mut() {
                rec.load(&mut r)?;
            }
            obs.metrics.load(&mut r)?;
            if r.remaining() != 0 {
                return Err(CkptError::Corrupt("trailing bytes after checkpoint"));
            }
            next_emit = emit_after(now);
        }
        loop {
            // Snapshot at the top of a visited cycle, before any phase
            // of the cycle runs: the loop state here is exactly the
            // clocks, the fault queue, the iteration counters, the
            // spaces, memory, cores, and observer, and a resumed run
            // re-enters the loop in that state.
            if now >= next_emit {
                if let Some(opts) = ckpt.as_mut() {
                    let clocks = DriveClocks {
                        now,
                        last_progress,
                        next_storm,
                        last_epoch: &last_epoch,
                        progress_t: &progress_t,
                        finished_at: &finished_at,
                        faults_t: &faults_t,
                    };
                    let image =
                        self.save_checkpoint(tenants, policy, obs, iters, &clocks, &fault_q);
                    (opts.sink)(&image);
                }
                next_emit = emit_after(now);
            }
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
            // very cycle). Other tenants' state is untouched.
            for (t, ctx) in tenants.iter().enumerate() {
                let epoch = ctx.space.get().shootdown_epoch();
                if epoch != last_epoch[t] {
                    last_epoch[t] = epoch;
                    for core in &mut self.cores {
                        if track_tenants {
                            core.shootdown_asid(now, t as u16);
                        } else {
                            core.shootdown(now);
                        }
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
                        for core in &mut self.cores {
                            core.resolve_fault(asid, vpn, now);
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
            let mut live = false;
            let mut issued = 0u64;
            for core in &mut self.cores {
                issued |= core.tick_tenants(now, &mut self.mem, &mut ctx, obs);
                live |= core.has_work();
            }
            spaces_pool = recycle_refs(spaces);
            // New page faults raised this cycle enter the handler queue
            // once each; minor/major classification is a pure function
            // of the seed and the ASID-salted page (for ASID 0 the salt
            // is the identity, preserving single-tenant schedules).
            fault_scratch.clear();
            for core in &mut self.cores {
                core.drain_faults(&mut fault_scratch);
            }
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
            if issued != 0 {
                last_progress = now;
            } else if fault_cfg.watchdog > 0 && now - last_progress >= fault_cfg.watchdog {
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
            if policy.watchdog > 0 && track_tenants {
                for (t, p) in progress_t.iter_mut().enumerate() {
                    if issued & (1u64 << (t as u32 & 63)) != 0 {
                        *p = now;
                    }
                }
                if let Some(starved) = (0..n_t).find(|&t| {
                    finished_at[t] == UNFINISHED && now - progress_t[t] >= policy.watchdog
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
            now += 1;
            if let Some(rec) = obs.intervals.as_mut() {
                while rec.due(now) {
                    let totals = Self::totals(&self.cores, &self.mem, &obs.metrics);
                    rec.sample(totals);
                }
            }
            if now >= self.config.max_cycles {
                completed = false;
                break;
            }
            if legacy || issued != 0 {
                continue;
            }
            let mut target = Cycle::MAX;
            for core in &self.cores {
                if let Some(c) = core.next_event_at(now - 1) {
                    target = target.min(c);
                }
            }
            // Fault-handler completions, the storm schedule, and the
            // watchdog deadlines are global timers the cores know nothing
            // about; folding them in keeps both loops on identical
            // cycles.
            for &(_, at) in &fault_q {
                target = target.min(at);
            }
            if let Some(inj) = &injector {
                if owned {
                    if let Some(c) = inj.storm_at(next_storm) {
                        target = target.min(c.max(now));
                    }
                }
            }
            if fault_cfg.watchdog > 0 {
                target = target.min(last_progress + fault_cfg.watchdog);
            }
            if policy.watchdog > 0 && track_tenants {
                for t in 0..n_t {
                    if finished_at[t] == UNFINISHED {
                        target = target.min(progress_t[t] + policy.watchdog);
                    }
                }
            }
            if target == Cycle::MAX || target <= now {
                continue;
            }
            let capped = target.min(self.config.max_cycles);
            let skipped = capped - now;
            if skipped > 0 {
                for core in &mut self.cores {
                    core.note_idle_skip(now, skipped);
                }
                now = capped;
                if let Some(rec) = obs.intervals.as_mut() {
                    // No observed counter moves inside an idle span, so
                    // boundaries crossed by the jump record zero activity
                    // — exactly what the per-cycle loop records.
                    while rec.due(now) {
                        let totals = Self::totals(&self.cores, &self.mem, &obs.metrics);
                        rec.sample(totals);
                    }
                }
            }
            if now >= self.config.max_cycles {
                completed = false;
                break;
            }
        }
        if let Some(rec) = obs.intervals.as_mut() {
            rec.finish(now, Self::totals(&self.cores, &self.mem, &obs.metrics));
        }
        let mut stats = self.collect(now, completed);
        stats.watchdog_fired = watchdog_fired;
        if track_tenants {
            stats.tenants = self.tenant_stats(&finished_at, &faults_t, now);
        }
        Ok(stats)
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

    /// Serializes the full simulation state at the top of cycle
    /// `clocks.now`. Layout (after the header) is fixed by
    /// [`CKPT_VERSION`]: loop clocks (including the per-tenant epoch,
    /// progress, finish, and fault arrays), fault queue, iteration
    /// counters, every tenant's address space in ASID order, memory
    /// system, cores, then observer buffers. Geometry-length sequences
    /// (per-tenant arrays, iters, cores) are written per element without
    /// a length — the machine shape is pinned by the fingerprint.
    fn save_checkpoint(
        &self,
        tenants: &[TenantCtx<'_, '_>],
        policy: &TenantPolicy,
        obs: &Observer,
        iters: &[u32],
        clocks: &DriveClocks<'_>,
        fault_q: &[((u16, Vpn), Cycle)],
    ) -> Vec<u8> {
        let mut w = Saver::new();
        w.header(
            &CKPT_MAGIC,
            CKPT_VERSION,
            ckpt_fingerprint(&self.config, tenants, policy),
        );
        w.u64(clocks.now);
        w.u64(clocks.last_progress);
        w.u32(clocks.next_storm);
        for &e in clocks.last_epoch {
            w.u64(e);
        }
        for &p in clocks.progress_t {
            w.u64(p);
        }
        for &f in clocks.finished_at {
            w.u64(f);
        }
        for &f in clocks.faults_t {
            w.u64(f);
        }
        // Same wire shape as `Vec::save` (the resume path loads with it).
        w.usize(fault_q.len());
        for entry in fault_q {
            entry.save(&mut w);
        }
        for &it in iters {
            w.u32(it);
        }
        for ctx in tenants {
            ctx.space.get().save(&mut w);
        }
        self.mem.save(&mut w);
        for core in &self.cores {
            core.save(&mut w);
        }
        obs.tracer.save(&mut w);
        if let Some(rec) = obs.intervals.as_ref() {
            rec.save(&mut w);
        }
        obs.metrics.save(&mut w);
        w.into_bytes()
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

impl Ckpt for RunStats {
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
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CkptError> {
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
