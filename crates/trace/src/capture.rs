//! Trace capture: a [`Kernel`] wrapper that records every data-dependent
//! answer the wrapped kernel gives.
//!
//! Kernels are pure functions of `(thread, site, iteration)`, so a
//! complete recording of their answers *is* the workload: replaying the
//! recorded tables through either drive loop reproduces the captured run
//! bit-identically. The [`Recorder`] intercepts [`Kernel::mem_addr`] and
//! [`Kernel::branch_taken`], appends first-time answers to dense
//! per-(site, thread) tables, and verifies that replays of the same
//! coordinates (TLB-miss wakeups, dynamic-warp reissues) return the same
//! value. Tables — not an event log — make the emitted byte stream a
//! pure function of the kernel, independent of which drive loop (skip
//! or per-cycle) drove the capture.

use crate::format::{Trace, TraceLaunch, TraceRecord, WARP_LANES};
use crate::replay::snapshot_space;
use gmmu_simt::gpu::RunStats;
use gmmu_simt::program::{Kernel, Program, ThreadId};
use gmmu_simt::GpuConfig;
use gmmu_vm::{AddressSpace, VAddr};
use std::sync::Mutex;

/// Records the wrapped kernel's data-dependent behaviour as it runs.
pub struct Recorder<'k> {
    inner: &'k dyn Kernel,
    num_threads: usize,
    num_sites: usize,
    mem: Mutex<Vec<Vec<u64>>>,
    branch: Mutex<Vec<Vec<bool>>>,
}

impl<'k> Recorder<'k> {
    /// Wraps `inner` with empty recording tables.
    pub fn new(inner: &'k dyn Kernel) -> Self {
        let num_threads = inner.num_threads() as usize;
        let num_sites = inner.program().num_sites();
        Self {
            inner,
            num_threads,
            num_sites,
            mem: Mutex::new(vec![Vec::new(); num_sites * num_threads]),
            branch: Mutex::new(vec![Vec::new(); num_sites * num_threads]),
        }
    }

    #[inline]
    fn idx(&self, tid: ThreadId, site: u16) -> usize {
        site as usize * self.num_threads + tid as usize
    }

    /// Flattens the recorded tables into the canonical record stream:
    /// warp-major, site-ascending, iteration-ascending, with one
    /// kernel-exit sync record per warp.
    pub fn into_records(self) -> Vec<TraceRecord> {
        let mem = self.mem.into_inner().expect("recorder mutex poisoned");
        let branch = self.branch.into_inner().expect("recorder mutex poisoned");
        let n_warps = (self.num_threads as u32).div_ceil(WARP_LANES);
        let mut records = Vec::new();
        for warp in 0..n_warps {
            let lane0 = (warp * WARP_LANES) as usize;
            let lanes_in = WARP_LANES.min(self.num_threads as u32 - warp * WARP_LANES) as usize;
            for site in 0..self.num_sites {
                let max_mem = (0..lanes_in)
                    .map(|l| mem[site * self.num_threads + lane0 + l].len())
                    .max()
                    .unwrap_or(0);
                for iter in 0..max_mem {
                    let mut lanes = 0u32;
                    let mut addrs = Vec::new();
                    for lane in 0..lanes_in {
                        let seq = &mem[site * self.num_threads + lane0 + lane];
                        if iter < seq.len() {
                            lanes |= 1 << lane;
                            addrs.push(seq[iter]);
                        }
                    }
                    records.push(TraceRecord::Mem {
                        site: site as u16,
                        warp,
                        iter: iter as u32,
                        lanes,
                        addrs,
                    });
                }
                let max_br = (0..lanes_in)
                    .map(|l| branch[site * self.num_threads + lane0 + l].len())
                    .max()
                    .unwrap_or(0);
                for iter in 0..max_br {
                    let mut eval = 0u32;
                    let mut taken = 0u32;
                    for lane in 0..lanes_in {
                        let seq = &branch[site * self.num_threads + lane0 + lane];
                        if iter < seq.len() {
                            eval |= 1 << lane;
                            if seq[iter] {
                                taken |= 1 << lane;
                            }
                        }
                    }
                    records.push(TraceRecord::Branch {
                        site: site as u16,
                        warp,
                        iter: iter as u32,
                        eval,
                        taken,
                    });
                }
            }
            records.push(TraceRecord::Sync { warp, kind: 0 });
        }
        records
    }
}

impl Kernel for Recorder<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn num_threads(&self) -> u32 {
        self.inner.num_threads()
    }
    fn block_threads(&self) -> u32 {
        self.inner.block_threads()
    }

    fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr {
        let v = self.inner.mem_addr(tid, site, iter);
        let idx = self.idx(tid, site);
        let mut mem = self.mem.lock().expect("recorder mutex poisoned");
        let seq = &mut mem[idx];
        let iter = iter as usize;
        if iter == seq.len() {
            seq.push(v.raw());
        } else if iter < seq.len() {
            debug_assert_eq!(seq[iter], v.raw(), "kernel is not a pure function");
        } else {
            panic!("non-contiguous iteration {iter} at tid {tid} mem site {site}");
        }
        v
    }

    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
        let v = self.inner.branch_taken(tid, site, iter);
        let idx = self.idx(tid, site);
        let mut branch = self.branch.lock().expect("recorder mutex poisoned");
        let seq = &mut branch[idx];
        let iter = iter as usize;
        if iter == seq.len() {
            seq.push(v);
        } else if iter < seq.len() {
            debug_assert_eq!(seq[iter], v, "kernel is not a pure function");
        } else {
            panic!("non-contiguous iteration {iter} at tid {tid} branch site {site}");
        }
        v
    }
}

/// Snapshots everything replay needs *before* a run starts: kernel
/// metadata, the address-space layout (including pages currently
/// unmapped for demand paging), and the machine configuration. Pair the
/// result with a [`Recorder`]'s records and the run's [`RunStats`] via
/// [`assemble`] once the run finishes.
pub fn capture_launch(
    kernel: &dyn Kernel,
    space: &AddressSpace,
    config: &GpuConfig,
    source: &str,
) -> TraceLaunch {
    let snap = snapshot_space(space);
    TraceLaunch {
        kernel_name: kernel.name().to_owned(),
        num_threads: kernel.num_threads(),
        block_threads: kernel.block_threads(),
        program: kernel.program().clone(),
        space: snap.config,
        regions: snap.regions,
        unmapped_vpns: snap.unmapped_vpns,
        config: config.clone(),
        source: source.to_owned(),
    }
}

/// Combines a pre-run launch snapshot, a finished recorder, and the
/// run's statistics into a [`Trace`] ready to encode.
pub fn assemble(launch: TraceLaunch, recorder: Recorder<'_>, stats: &RunStats) -> Trace {
    let mut stats = stats.clone();
    stats.wall_s = 0.0;
    Trace {
        launch,
        records: recorder.into_records(),
        stats,
    }
}
