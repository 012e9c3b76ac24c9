//! Trace replay: rebuild the captured machine and drive it from
//! recorded tables instead of a synthetic workload.
//!
//! A [`TraceKernel`] implements [`Kernel`] by answering every
//! `(thread, site, iteration)` query from the trace's record stream —
//! the same pure-function contract the synthetic workloads satisfy, so
//! the skip and per-cycle loops run it unchanged and produce statistics
//! bit-identical to the captured run. [`rebuild_space`] reconstructs the
//! address space by replaying the recorded region mappings in order
//! (the frame allocator is deterministic, so identical mapping order
//! means identical page tables *and* identical allocator state) and
//! re-unmapping the pages that were demand-paged out at capture time.

use crate::format::{Trace, TraceLaunch, TraceRecord, WARP_LANES};
use gmmu_sim::codec::CodecError;
use gmmu_simt::gpu::RunStats;
use gmmu_simt::observe::Observer;
use gmmu_simt::program::{Kernel, Program, ThreadId};
use gmmu_simt::{Gpu, GpuConfig};
use gmmu_vm::{AddressSpace, Region, SpaceConfig, VAddr, Vpn};
use std::collections::HashSet;

/// The address-space state a trace records: creation config, regions in
/// mapping order, and which pages were unmapped at launch.
#[derive(Debug, Clone)]
pub struct SpaceSnapshot {
    /// Configuration the space was created with.
    pub config: SpaceConfig,
    /// Regions in mapping order.
    pub regions: Vec<Region>,
    /// VPNs (at each region's page stride) with no translation.
    pub unmapped_vpns: Vec<u64>,
}

/// Captures the rebuildable state of `space`. Pages are probed at each
/// region's own stride (4 KiB or 2 MiB), matching how
/// [`AddressSpace::unmap_pages_where`] walks them.
pub fn snapshot_space(space: &AddressSpace) -> SpaceSnapshot {
    let mut unmapped = Vec::new();
    for region in space.regions() {
        let step = region.page_size.bytes() / gmmu_vm::addr::PAGE_BYTES;
        let first = region.base.vpn().raw();
        let mut vpn = first;
        while vpn < first + region.num_pages() {
            if space.translate(Vpn::new(vpn).base()).is_err() {
                unmapped.push(vpn);
            }
            vpn += step;
        }
    }
    SpaceSnapshot {
        config: space.config(),
        regions: space.regions().to_vec(),
        unmapped_vpns: unmapped,
    }
}

/// Rebuilds the captured address space: same creation config, regions
/// re-mapped in recorded order, demand-paged pages re-unmapped. The
/// result is byte-for-byte the machine state the captured run launched
/// against — including the frame allocator's cursor, which the mapping
/// replay advances through the identical allocation sequence.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when the recorded regions cannot be remapped
/// (frame exhaustion under the recorded `SpaceConfig`) or when a
/// rebuilt region lands at a different base than the trace recorded —
/// either means the launch section does not describe a space this
/// library could have produced.
pub fn rebuild_space(launch: &TraceLaunch) -> Result<AddressSpace, CodecError> {
    let mut space = AddressSpace::try_new(launch.space)
        .map_err(|_| CodecError::Corrupt("space config cannot hold a page-table root"))?;
    for want in &launch.regions {
        let got = space
            .map_region(&want.name, want.bytes, want.page_size)
            .map_err(|_| CodecError::Corrupt("recorded regions exhaust physical frames"))?;
        if got.base != want.base || got.bytes != want.bytes {
            return Err(CodecError::Corrupt("rebuilt region layout diverged"));
        }
    }
    if !launch.unmapped_vpns.is_empty() {
        let set: HashSet<u64> = launch.unmapped_vpns.iter().copied().collect();
        space.unmap_pages_where(|vpn| set.contains(&vpn.raw()));
    }
    Ok(space)
}

/// A kernel whose data-dependent behaviour comes from recorded tables.
pub struct TraceKernel {
    name: String,
    program: Program,
    num_threads: u32,
    block_threads: u32,
    num_sites: usize,
    mem: Vec<Vec<u64>>,
    branch: Vec<Vec<bool>>,
}

impl TraceKernel {
    /// Expands a trace's record stream back into dense per-(site,
    /// thread) answer tables.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on records that reference threads or
    /// sites outside the launch bounds, or whose iterations arrive out
    /// of order (the canonical stream is iteration-ascending per lane).
    pub fn from_trace(trace: &Trace) -> Result<Self, CodecError> {
        let launch = &trace.launch;
        let num_threads = launch.num_threads as usize;
        let num_sites = launch.program.num_sites();
        let mut mem = vec![Vec::new(); num_sites * num_threads];
        let mut branch = vec![Vec::new(); num_sites * num_threads];
        let lane_tid = |warp: u32, lane: u32| -> Result<usize, CodecError> {
            let tid = (warp * WARP_LANES + lane) as usize;
            if tid >= num_threads {
                return Err(CodecError::Corrupt(
                    "trace record names a thread out of range",
                ));
            }
            Ok(tid)
        };
        for rec in &trace.records {
            match rec {
                TraceRecord::Mem {
                    site,
                    warp,
                    iter,
                    lanes,
                    addrs,
                } => {
                    if *site as usize >= num_sites {
                        return Err(CodecError::Corrupt("trace record names an unknown site"));
                    }
                    let mut next = 0usize;
                    for lane in 0..WARP_LANES {
                        if lanes & (1 << lane) == 0 {
                            continue;
                        }
                        let tid = lane_tid(*warp, lane)?;
                        let seq = &mut mem[*site as usize * num_threads + tid];
                        if seq.len() != *iter as usize {
                            return Err(CodecError::Corrupt("memory records out of order"));
                        }
                        seq.push(addrs[next]);
                        next += 1;
                    }
                }
                TraceRecord::Branch {
                    site,
                    warp,
                    iter,
                    eval,
                    taken,
                } => {
                    if *site as usize >= num_sites {
                        return Err(CodecError::Corrupt("trace record names an unknown site"));
                    }
                    for lane in 0..WARP_LANES {
                        if eval & (1 << lane) == 0 {
                            continue;
                        }
                        let tid = lane_tid(*warp, lane)?;
                        let seq = &mut branch[*site as usize * num_threads + tid];
                        if seq.len() != *iter as usize {
                            return Err(CodecError::Corrupt("branch records out of order"));
                        }
                        seq.push(taken & (1 << lane) != 0);
                    }
                }
                TraceRecord::Sync { .. } => {}
            }
        }
        Ok(Self {
            name: launch.kernel_name.clone(),
            program: launch.program.clone(),
            num_threads: launch.num_threads,
            block_threads: launch.block_threads,
            num_sites,
            mem,
            branch,
        })
    }
}

impl Kernel for TraceKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn num_threads(&self) -> u32 {
        self.num_threads
    }
    fn block_threads(&self) -> u32 {
        self.block_threads
    }

    fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr {
        debug_assert!((site as usize) < self.num_sites);
        let seq = &self.mem[site as usize * self.num_threads as usize + tid as usize];
        let raw = seq.get(iter as usize).copied().unwrap_or_else(|| {
            panic!(
                "trace has no memory record for tid {tid} site {site} iter {iter} \
                 (recorded {} iterations) — trace and engine disagree about the \
                 execution, which a conformance run should have caught",
                seq.len()
            )
        });
        VAddr::new(raw)
    }

    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
        debug_assert!((site as usize) < self.num_sites);
        let seq = &self.branch[site as usize * self.num_threads as usize + tid as usize];
        *seq.get(iter as usize).unwrap_or_else(|| {
            panic!(
                "trace has no branch record for tid {tid} site {site} iter {iter} \
                 (recorded {} iterations)",
                seq.len()
            )
        })
    }
}

/// Replays a trace on the machine described by `config` (normally
/// [`Trace::launch`]'s config, possibly with `tick_every_cycle`
/// overridden — it is stats-invariant) and returns the run's
/// statistics. Compare against [`Trace::stats`] with
/// [`RunStats::diff`]: an empty diff is the conformance contract.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when the trace's launch section cannot be
/// rebuilt or its records are inconsistent (see
/// [`TraceKernel::from_trace`] / [`rebuild_space`]).
pub fn replay_run(trace: &Trace, config: &GpuConfig) -> Result<RunStats, CodecError> {
    let (stats, _) = replay_run_observed(trace, config, &mut Observer::off())?;
    Ok(stats)
}

/// [`replay_run`] with observation instruments attached. When the
/// observer's metrics channel is on, the returned `Option<String>` is
/// the run's versioned metrics snapshot (see `Gpu::metrics_snapshot`),
/// rendered while the replayed machine is still alive; it is `None`
/// when metrics are off. Snapshots do not depend on the drive loop, so
/// replaying the same trace under either loop yields byte-identical
/// snapshot JSON.
///
/// # Errors
///
/// Same conditions as [`replay_run`].
pub fn replay_run_observed(
    trace: &Trace,
    config: &GpuConfig,
    obs: &mut Observer,
) -> Result<(RunStats, Option<String>), CodecError> {
    let kernel = TraceKernel::from_trace(trace)?;
    let mut space = rebuild_space(&trace.launch)?;
    let mut gpu = Gpu::new(config.clone());
    let stats = gpu.run_faulted(&kernel, &mut space, obs);
    let snapshot = gpu.metrics_snapshot(obs);
    Ok((stats, snapshot))
}
