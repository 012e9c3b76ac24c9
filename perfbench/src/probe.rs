//! Host time inside the workloads' `Kernel` callbacks, measured from
//! outside the simulator by wrapping the kernel.
//!
//! A callback costs about as much as reading the clock, so timing every
//! call would double what it measures. The probe counts every call but
//! times only one in [`SAMPLE_EVERY`], subtracts the calibrated cost of
//! an empty timed region from each sample, and scales the rest up to
//! the full call count.

use gmmu_simt::program::{Kernel, Program, ThreadId};
use gmmu_vm::VAddr;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One callback in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Call and sampled-time counters shared by the probes of one run.
/// Relaxed atomics: the counters publish no other data.
#[derive(Debug, Default)]
pub struct KernelClock {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl KernelClock {
    /// Callbacks made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Estimated host seconds inside the callbacks, given the cost of
    /// one empty timed region.
    pub fn estimate_s(&self, timer_ns: f64) -> f64 {
        let timed = self.timed.load(Relaxed);
        if timed == 0 {
            return 0.0;
        }
        let net_ns = (self.timed_ns.load(Relaxed) as f64 - timed as f64 * timer_ns).max(0.0);
        net_ns * self.calls() as f64 / timed as f64 / 1e9
    }

    #[inline]
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self
            .calls
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return f();
        }
        let t = Instant::now();
        let v = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.timed.fetch_add(1, Relaxed);
        self.timed_ns.fetch_add(ns, Relaxed);
        v
    }
}

/// A kernel that forwards every call to `inner`, timing a sample of the
/// data-dependent ones on `clock`.
pub struct Probe<'k> {
    inner: &'k dyn Kernel,
    clock: &'k KernelClock,
}

impl<'k> Probe<'k> {
    /// Wraps `inner`.
    pub fn new(inner: &'k dyn Kernel, clock: &'k KernelClock) -> Self {
        Self { inner, clock }
    }
}

impl Kernel for Probe<'_> {
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
        self.clock.time(|| self.inner.mem_addr(tid, site, iter))
    }
    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
        self.clock.time(|| self.inner.branch_taken(tid, site, iter))
    }
}

/// Nanoseconds an empty timed region reads: the median over batches of
/// the same `Instant::now` / `elapsed` pair the probe uses.
pub fn timer_cost_ns() -> f64 {
    const BATCH: u32 = 2000;
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let mut ns = 0u128;
            for _ in 0..BATCH {
                let t = Instant::now();
                black_box(());
                ns += t.elapsed().as_nanos();
            }
            ns as f64 / f64::from(BATCH)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
