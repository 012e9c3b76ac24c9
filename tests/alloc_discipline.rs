//! Allocation discipline of the steady-state simulation loop.
//!
//! This binary installs a counting global allocator and drives the
//! simulator's hot loop directly, asserting that **after warm-up** the
//! per-cycle path performs zero heap allocations. Warm-up covers the
//! documented escape list — structures that legitimately allocate while
//! growing to their high-water mark and are then reused forever:
//!
//! * scratch pools reaching steady capacity (walker batch/level-ref
//!   buffers, coalescer and translate buffers, TBC unit lists,
//!   `Mmu` waiter lists, the per-cycle tenant `spaces` slice);
//! * hash maps (MSHR files, fill waiters) growing to their peak
//!   occupancy — `HashMap` keeps its capacity after `remove`;
//! * page-table *growth* (mapping fresh pages allocates arena slabs) —
//!   demand paging is therefore outside the steady-state window, which
//!   is the paper's TLB-hit/walk regime, not the cold-fault regime;
//! * run setup and teardown (kernel/space construction, stats).
//!
//! Anything not on that list that allocates per cycle is a regression
//! the assertions below catch. The whole-run test also prints each
//! run's allocations per simulated kilocycle (`cargo test --release
//! --test alloc_discipline`); `ci/perf_trajectory.tsv` records that
//! figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation; frees are not counted
/// (the steady-state claim is about acquiring memory, and a free on
/// the hot path implies a later matching alloc anyway).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// When armed (`GMMU_ALLOC_TRAP=1` and inside a measurement window),
/// the next allocation prints its backtrace — the fastest way to find
/// whatever broke the discipline. Disarms itself before capturing so
/// the capture's own allocations recurse harmlessly.
static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if TRAP.swap(false, Ordering::Relaxed) {
        let bt = std::backtrace::Backtrace::force_capture();
        eprintln!("[alloc-trap] allocation from:\n{bt}");
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

use gmmu_core::mmu::MmuModel;
use gmmu_mem::{MemConfig, MemorySystem};
use gmmu_sim::observe::Observer;
use gmmu_simt::config::TbcConfig;
use gmmu_simt::core::ShaderCore;
use gmmu_simt::program::{MemKind, Op, Program, ThreadId};
use gmmu_simt::{GpuConfig, Kernel};
use gmmu_vm::{AddressSpace, PageSize, Region, SpaceConfig, VAddr};

/// Looping stream kernel over a pre-mapped region: every page is
/// resident, so the steady state exercises TLB hits, misses, walks,
/// and cache traffic — but never demand paging.
struct StreamKernel {
    program: Program,
    region: Region,
    threads: u32,
    trips: u32,
}

impl Kernel for StreamKernel {
    fn name(&self) -> &str {
        "alloc-discipline-stream"
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
    fn mem_addr(&self, tid: ThreadId, _site: u16, iter: u32) -> VAddr {
        let off = (tid as u64 * 4096 + iter as u64 * 256) % (1 << 20);
        self.region.at(off & !7)
    }
    fn branch_taken(&self, _tid: ThreadId, _site: u16, iter: u32) -> bool {
        iter + 1 < self.trips
    }
}

fn stream_setup(trips: u32) -> (AddressSpace, StreamKernel, GpuConfig) {
    let mut space = AddressSpace::new(SpaceConfig::default());
    let region = space
        .map_region("stream", 1 << 20, PageSize::Base4K)
        .expect("map");
    let kernel = StreamKernel {
        program: Program::new(vec![
            Op::Mem {
                site: 0,
                kind: MemKind::Load,
            },
            Op::Branch {
                site: 1,
                taken_pc: 0,
                reconv_pc: 2,
            },
        ]),
        region,
        threads: 128,
        trips,
    };
    let cfg = GpuConfig {
        n_cores: 1,
        warps_per_core: 8,
        warps_per_block: 4,
        mmu: MmuModel::augmented(),
        ..GpuConfig::default()
    };
    (space, kernel, cfg)
}

/// The per-cycle loop's steady-state body — `ShaderCore::tick` against
/// the memory system — performs zero heap allocations once every
/// scratch buffer has reached its high-water mark.
fn serial_tick_loop_is_allocation_free() {
    let (space, kernel, cfg) = stream_setup(u32::MAX);
    let mut core = ShaderCore::new(0, &cfg);
    core.push_block(0, 128);
    let mut mem = MemorySystem::new(MemConfig::default());
    let mut iters = vec![0u32; 128 * kernel.program.num_sites()];
    let mut obs = Observer::off();

    // Warm-up: long enough for every pool, map, and cache to reach its
    // high-water mark (TLB misses, walk batches, MSHR fills, waiter
    // lists all occur many times over).
    let mut now = 0u64;
    while now < 20_000 {
        core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
        now += 1;
    }
    assert!(core.has_work(), "kernel drained during warm-up");

    // Steady-state window: not one allocation allowed.
    if std::env::var_os("GMMU_ALLOC_TRAP").is_some() {
        TRAP.store(true, Ordering::Relaxed);
    }
    let before = allocs();
    let window = 20_000;
    for _ in 0..window {
        core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
        now += 1;
    }
    let after = allocs();
    assert!(core.has_work(), "kernel drained inside the window");
    assert_eq!(
        after - before,
        0,
        "serial steady state allocated {} times over {} cycles",
        after - before,
        window
    );
}

/// The idle-skipping loop's steady-state body — a tick, then
/// `next_event_at` and `note_idle_skip` to jump straight to the core's
/// next wake, after an issue too — is also allocation-free after
/// warm-up, with per-warp stacks and under thread block compaction
/// (whose every loop trip recompacts the block onto the branch target).
fn event_loop_is_allocation_free() {
    for tbc in [None, Some(TbcConfig::baseline())] {
        event_loop_window(tbc);
    }
}

fn event_loop_window(tbc: Option<TbcConfig>) {
    let (space, kernel, mut cfg) = stream_setup(u32::MAX);
    cfg.tbc = tbc;
    let mut core = ShaderCore::new(0, &cfg);
    core.push_block(0, 128);
    let mut mem = MemorySystem::new(MemConfig::default());
    let mut iters = vec![0u32; 128 * kernel.program.num_sites()];
    let mut obs = Observer::off();

    let mut step = |now: u64| -> u64 {
        let next = now + 1;
        core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
        match core.next_event_at(now) {
            Some(wake) if wake > next => {
                core.note_idle_skip(next, wake - next);
                wake
            }
            _ => next,
        }
    };
    let mut now = 0u64;
    for _ in 0..15_000 {
        now = step(now);
    }

    let before = allocs();
    for _ in 0..15_000 {
        now = step(now);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "skip-loop steady state (tbc: {tbc:?}) allocated {} times over 15000 steps",
        after - before
    );
    assert!(core.has_work(), "kernel drained inside the window");
}

/// Whole-run allocation budget under each drive loop: bfs at tiny
/// scale end to end, counting *everything* (construction, warm-up,
/// teardown), under the augmented MMU and under the naive blocking TLB
/// (`designs::naive3`), whose reject-and-replay path the augmented run
/// never takes. Today's rates are ~12 and ~5 allocations per simulated
/// kilocycle; a reintroduced per-cycle allocation pushes a run past
/// 1000, so a budget of 30 catches it without flaking on allocator
/// noise.
fn whole_run_allocation_budget_per_engine() {
    use gmmu::experiments::designs;
    use gmmu::prelude::*;
    let w = build(Bench::Bfs, Scale::Tiny, 7);
    let budget = 30.0;
    for (mmu_label, mmu) in [
        ("augmented", designs::augmented()),
        ("naive3", designs::naive3()),
    ] {
        for (loop_label, tick_every_cycle) in [("skip", false), ("per-cycle", true)] {
            let mut cfg = gmmu::ExperimentOpts::quick().gpu(mmu);
            cfg.tick_every_cycle = tick_every_cycle;
            // First run warms nothing across runs (each run builds a
            // fresh GPU), so measure a single complete run.
            let before = allocs();
            let stats = gmmu_simt::gpu::run_kernel(cfg, w.kernel.as_ref(), &w.space);
            let after = allocs();
            let per_kcycle = (after - before) as f64 / (stats.cycles as f64 / 1000.0);
            println!(
                "{mmu_label} {loop_label}: {per_kcycle:.1} allocs per simulated kilocycle \
                 over {} cycles",
                stats.cycles
            );
            assert!(
                per_kcycle <= budget,
                "{mmu_label} {loop_label}: {per_kcycle:.1} allocs per simulated kilocycle \
                 (budget {budget}) over {} cycles",
                stats.cycles,
            );
        }
    }
}

/// Runs without the libtest harness (see the `[[test]]` entry in
/// `Cargo.toml`): the harness's worker threads allocate while sending
/// completion events, which would race the process-global counter's
/// measurement windows. Sequential execution keeps the process quiet.
fn main() {
    for (name, test) in [
        (
            "serial_tick_loop_is_allocation_free",
            serial_tick_loop_is_allocation_free as fn(),
        ),
        (
            "event_loop_is_allocation_free",
            event_loop_is_allocation_free,
        ),
        (
            "whole_run_allocation_budget_per_engine",
            whole_run_allocation_budget_per_engine,
        ),
    ] {
        test();
        println!("test {name} ... ok");
    }
}
