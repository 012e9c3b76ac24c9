//! GPU configuration.
//!
//! Defaults follow the paper's methodology (Section 5.2): 30 SIMT cores,
//! 32-thread warps, 48 warps (1024+ threads) per core, 32 KB L1 data
//! caches with 128-byte lines and LRU, 8 memory channels with 128 KB of
//! L2 each. Experiment presets scale the core count down so a full
//! figure sweep runs in minutes; speedups are relative within one
//! configuration, so the shapes are preserved (see DESIGN.md §2).

use gmmu_core::ccws::{PolicyConfig, PolicyKind};
use gmmu_core::cpm::CpmConfig;
use gmmu_core::mmu::MmuModel;
use gmmu_mem::{CacheConfig, MemConfig};
use gmmu_sim::fault::FaultInjectConfig;
use gmmu_sim::Cycle;
use gmmu_vm::PageSize;

/// Fixed pipeline latencies of a shader core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreTimings {
    /// Cycles before a warp may issue its next instruction after an ALU
    /// op (result latency through the SIMD pipeline).
    pub alu_latency: u64,
    /// Cycles to resolve a branch (mask generation + stack update).
    pub branch_latency: u64,
    /// L1 hit load-to-use latency.
    pub l1_hit_latency: u64,
    /// Cycles a store occupies the memory pipeline (fire-and-forget).
    pub store_issue: u64,
    /// Write-buffer depth in cycles: a warp stalls when its stores run
    /// further than this ahead of the memory system (models finite
    /// store buffering; prevents unbounded write queues).
    pub store_window: u64,
}

impl Default for CoreTimings {
    fn default() -> Self {
        Self {
            alu_latency: 8,
            branch_latency: 4,
            l1_hit_latency: 16,
            store_issue: 2,
            store_window: 1024,
        }
    }
}

/// Thread block compaction configuration (Section 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbcConfig {
    /// Steer compaction with the Common Page Matrix (TLB-aware TBC).
    pub tlb_aware: bool,
    /// CPM geometry, used when `tlb_aware` is set.
    pub cpm: CpmConfig,
}

impl TbcConfig {
    /// Baseline (TLB-agnostic) TBC.
    pub fn baseline() -> Self {
        Self {
            tlb_aware: false,
            cpm: CpmConfig::default(),
        }
    }

    /// TLB-aware TBC with `bits`-bit CPM counters (Figure 22 sweeps
    /// 1–3).
    pub fn tlb_aware(bits: u8) -> Self {
        Self {
            tlb_aware: true,
            cpm: CpmConfig {
                counter_bits: bits,
                ..CpmConfig::default()
            },
        }
    }
}

/// The fault-and-recovery model: demand paging, shootdown replay, and
/// the forward-progress watchdog. The default ([`FaultConfig::off`])
/// disables all of it, and a disabled model is bit-identical to a build
/// without the machinery (the determinism suite enforces this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Park faulting warps and service them through the modeled CPU
    /// fault handler instead of aborting the run. Requires running via
    /// [`crate::gpu::Gpu::run_faulted`] so the handler can map pages.
    pub demand_paging: bool,
    /// CPU handler latency for a *minor* fault (page resident, just
    /// needs a PTE): interrupt + handler + map.
    pub minor_latency: Cycle,
    /// CPU handler latency for a *major* fault (backing data must be
    /// fetched first).
    pub major_latency: Cycle,
    /// Fraction of faulting pages treated as major, decided
    /// deterministically per page from the GPU seed.
    pub major_fraction: f64,
    /// Cycles a warp backs off before retrying an access whose walk was
    /// squashed by a TLB shootdown (bounded, fixed backoff).
    pub shootdown_backoff: Cycle,
    /// Forward-progress watchdog: fail the run with a diagnostic dump
    /// after this many cycles without a single issued instruction
    /// (0 = disabled).
    pub watchdog: Cycle,
}

impl FaultConfig {
    /// Everything disabled — the bit-identical default.
    pub fn off() -> Self {
        Self {
            demand_paging: false,
            minor_latency: 3_000,
            major_latency: 30_000,
            major_fraction: 0.25,
            shootdown_backoff: 32,
            watchdog: 0,
        }
    }

    /// Demand paging on, with the watchdog armed as a safety net.
    pub fn demand() -> Self {
        Self {
            demand_paging: true,
            watchdog: 10_000_000,
            ..Self::off()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Most warp contexts one core can hold: the baseline scheduler keeps
/// each core's warp states in `u64` bitsets.
pub const MAX_WARPS_PER_CORE: usize = 64;

/// Full GPU configuration.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Shader cores (paper: 30; experiment presets use fewer).
    pub n_cores: usize,
    /// Warp contexts per core (paper: 48; at most
    /// [`MAX_WARPS_PER_CORE`]).
    pub warps_per_core: usize,
    /// Warps per thread block (paper-style 256-thread blocks → 8).
    pub warps_per_block: usize,
    /// Address-translation hardware per core.
    pub mmu: MmuModel,
    /// Warp scheduling locality policy.
    pub policy: PolicyKind,
    /// Policy tunables.
    pub policy_config: PolicyConfig,
    /// Thread block compaction (None = per-warp reconvergence stacks).
    pub tbc: Option<TbcConfig>,
    /// Shared memory system.
    pub mem: MemConfig,
    /// Per-core L1 data cache geometry.
    pub l1: CacheConfig,
    /// Per-core L1 MSHR entries.
    pub l1_mshrs: usize,
    /// Pipeline latencies.
    pub timings: CoreTimings,
    /// Translation granule: 4 KiB by default; set to 2 MiB to study
    /// large pages (Section 9). With a 2 MiB granule every region the
    /// kernel touches must be backed by 2 MiB mappings.
    pub granule: PageSize,
    /// Visit every cycle instead of jumping over idle spans: the
    /// per-cycle referee the idle-skipping loop is checked against.
    /// Both produce bit-identical [`crate::gpu::RunStats`], so results
    /// never depend on this value and traces do not record it. The
    /// experiment harnesses set it from the `GMMU_TICK_EVERY_CYCLE`
    /// environment variable (`ExperimentOpts::gpu`).
    pub tick_every_cycle: bool,
    /// Safety valve: abort a run after this many cycles.
    pub max_cycles: u64,
    /// Seed folded into workload construction (kept here so a whole
    /// experiment is reproducible from its config).
    pub seed: u64,
    /// Fault-and-recovery model (demand paging, shootdown backoff,
    /// watchdog). [`FaultConfig::off`] by default.
    pub fault: FaultConfig,
    /// Deterministic fault injection (delayed walks, transient rejects,
    /// shootdown storms). `None` = no perturbation.
    pub inject: Option<FaultInjectConfig>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            n_cores: 30,
            warps_per_core: 48,
            warps_per_block: 8,
            mmu: MmuModel::Ideal,
            policy: PolicyKind::None,
            policy_config: PolicyConfig::default(),
            tbc: None,
            mem: MemConfig::default(),
            l1: CacheConfig::l1_data(),
            l1_mshrs: 64,
            timings: CoreTimings::default(),
            granule: PageSize::Base4K,
            tick_every_cycle: false,
            max_cycles: 200_000_000,
            seed: 0x5eed,
            fault: FaultConfig::off(),
            inject: None,
        }
    }
}

impl GpuConfig {
    /// The paper's full-scale machine with the given MMU.
    pub fn paper_scale(mmu: MmuModel) -> Self {
        Self {
            mmu,
            ..Self::default()
        }
    }

    /// A reduced machine for fast experiment sweeps: fewer cores with
    /// the memory system scaled to keep the paper's ~4:1
    /// core-to-channel ratio, so per-core bandwidth, contention, and
    /// all MMU behaviour match the full configuration.
    pub fn experiment_scale(mmu: MmuModel) -> Self {
        Self {
            n_cores: 8,
            mem: MemConfig {
                channels: 2,
                ..MemConfig::default()
            },
            mmu,
            ..Self::default()
        }
    }

    /// Threads resident per core.
    pub fn threads_per_core(&self) -> u32 {
        (self.warps_per_core * 32) as u32
    }

    /// Warp size (fixed at 32, like the paper's hardware).
    pub const WARP_SIZE: usize = 32;
}

use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};

impl Codec for CoreTimings {
    fn save(&self, w: &mut Saver) {
        w.u64(self.alu_latency);
        w.u64(self.branch_latency);
        w.u64(self.l1_hit_latency);
        w.u64(self.store_issue);
        w.u64(self.store_window);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.alu_latency = r.u64()?;
        self.branch_latency = r.u64()?;
        self.l1_hit_latency = r.u64()?;
        self.store_issue = r.u64()?;
        self.store_window = r.u64()?;
        Ok(())
    }
}

impl Codec for TbcConfig {
    fn save(&self, w: &mut Saver) {
        w.bool(self.tlb_aware);
        self.cpm.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.tlb_aware = r.bool()?;
        self.cpm.load(r)
    }
}

impl Codec for FaultConfig {
    fn save(&self, w: &mut Saver) {
        w.bool(self.demand_paging);
        w.u64(self.minor_latency);
        w.u64(self.major_latency);
        w.f64(self.major_fraction);
        w.u64(self.shootdown_backoff);
        w.u64(self.watchdog);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.demand_paging = r.bool()?;
        self.minor_latency = r.u64()?;
        self.major_latency = r.u64()?;
        self.major_fraction = r.f64()?;
        self.shootdown_backoff = r.u64()?;
        self.watchdog = r.u64()?;
        Ok(())
    }
}

impl Codec for GpuConfig {
    /// Serializes every field results depend on — all but
    /// `tick_every_cycle` — so a trace carrying a `GpuConfig` can
    /// rebuild the exact machine in another process. Loading leaves
    /// `tick_every_cycle` as it was, and refuses a machine no core can
    /// be built for (`warps_per_core` outside `1..=64`,
    /// `warps_per_block` zero).
    fn save(&self, w: &mut Saver) {
        w.usize(self.n_cores);
        w.usize(self.warps_per_core);
        w.usize(self.warps_per_block);
        self.mmu.save(w);
        self.policy.save(w);
        self.policy_config.save(w);
        match &self.tbc {
            None => w.bool(false),
            Some(tbc) => {
                w.bool(true);
                tbc.save(w);
            }
        }
        self.mem.save(w);
        self.l1.save(w);
        w.usize(self.l1_mshrs);
        self.timings.save(w);
        self.granule.save(w);
        w.u64(self.max_cycles);
        w.u64(self.seed);
        self.fault.save(w);
        self.inject.save(w);
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        self.n_cores = r.usize()?;
        self.warps_per_core = r.usize()?;
        if !(1..=MAX_WARPS_PER_CORE).contains(&self.warps_per_core) {
            return Err(CodecError::Corrupt("warps_per_core outside 1..=64"));
        }
        self.warps_per_block = r.usize()?;
        if self.warps_per_block == 0 {
            return Err(CodecError::Corrupt("warps_per_block is zero"));
        }
        self.mmu.load(r)?;
        self.policy.load(r)?;
        self.policy_config.load(r)?;
        self.tbc = if r.bool()? {
            let mut tbc = TbcConfig::baseline();
            tbc.load(r)?;
            Some(tbc)
        } else {
            None
        };
        self.mem.load(r)?;
        self.l1.load(r)?;
        self.l1_mshrs = r.usize()?;
        self.timings.load(r)?;
        self.granule.load(r)?;
        self.max_cycles = r.u64()?;
        self.seed = r.u64()?;
        self.fault.load(r)?;
        self.inject.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_methodology() {
        let c = GpuConfig::default();
        assert_eq!(c.n_cores, 30);
        assert_eq!(c.warps_per_core, 48);
        assert_eq!(c.threads_per_core(), 1536);
        assert_eq!(c.mem.channels, 8);
        assert_eq!(c.l1.lines() * 128, 32 * 1024);
    }

    #[test]
    fn experiment_scale_changes_only_core_count() {
        let full = GpuConfig::paper_scale(MmuModel::naive());
        let fast = GpuConfig::experiment_scale(MmuModel::naive());
        assert_eq!(full.warps_per_core, fast.warps_per_core);
        assert_eq!(full.l1, fast.l1);
        assert!(fast.n_cores < full.n_cores);
    }

    fn reload(cfg: &GpuConfig) -> Result<GpuConfig, CodecError> {
        let mut w = Saver::new();
        cfg.save(&mut w);
        let bytes = w.into_bytes();
        let mut back = GpuConfig::default();
        back.load(&mut Loader::new(&bytes))?;
        Ok(back)
    }

    #[test]
    fn load_refuses_warp_counts_the_scheduler_cannot_hold() {
        for bad in [0, MAX_WARPS_PER_CORE + 1, 1 << 20] {
            let cfg = GpuConfig {
                warps_per_core: bad,
                ..GpuConfig::default()
            };
            assert!(
                matches!(reload(&cfg), Err(CodecError::Corrupt(_))),
                "warps_per_core = {bad} must be refused"
            );
        }
        let cfg = GpuConfig {
            warps_per_block: 0,
            ..GpuConfig::default()
        };
        assert!(matches!(reload(&cfg), Err(CodecError::Corrupt(_))));
        let max = GpuConfig {
            warps_per_core: MAX_WARPS_PER_CORE,
            ..GpuConfig::default()
        };
        assert_eq!(reload(&max).unwrap().warps_per_core, MAX_WARPS_PER_CORE);
    }

    #[test]
    fn tbc_config_presets() {
        assert!(!TbcConfig::baseline().tlb_aware);
        let t = TbcConfig::tlb_aware(3);
        assert!(t.tlb_aware);
        assert_eq!(t.cpm.counter_bits, 3);
    }
}
