//! Timing harness for the simulator's hot-path components and its
//! drive loop. Self-contained (no external benchmarking crates): each
//! micro-benchmark runs in calibrated batches and the best batch is
//! reported, which suppresses scheduler noise on a shared machine.
//! Results are printed as a table and written to `BENCH_hotpath.json`.
//! Run with `cargo run --release -p gmmu-bench --bin hotpath`.
//!
//! Covered:
//! * `Tlb::lookup` on a set-indexed TLB, and `Mmu::translate` on an
//!   all-hit page through the MMU front door;
//! * the MSHR file's per-cycle `expire`/`earliest_completion` pair;
//! * the coalescer's linear-scan dedup inner loop, coalesced and
//!   divergent warps;
//! * a shared-memory-system access (L2 slice + DRAM channel model);
//! * `ShaderCore::next_event_at` — cached vs. recomputed every query
//!   (the idle-skip loop queries every core on every skip attempt);
//! * the drive loop end-to-end — `sim_cycles_per_sec` on a real
//!   workload;
//! * the arena page table's build, clone (the checkpoint path) and
//!   translate paths;
//! * allocation discipline — the binary installs a counting global
//!   allocator and reports whole-run allocations per simulated
//!   kilocycle (the machine-independent regression signal CI gates
//!   on);
//! * a standard multi-tenant point — 4 co-running tenants under the
//!   default ASID-tagged policy, `sim_cycles_per_sec` end to end.

use gmmu_core::mmu::{Mmu, MmuModel, PageReq, TranslateBuf};
use gmmu_core::tlb::{Tlb, TlbConfig};
use gmmu_mem::mshr::{MshrFile, MshrOutcome};
use gmmu_mem::{AccessKind, MemConfig, MemorySystem};
use gmmu_sim::observe::Observer;
use gmmu_simt::coalesce::{coalesce, CoalesceBuf};
use gmmu_simt::core::ShaderCore;
use gmmu_simt::program::{MemKind, Op, Program, ThreadId};
use gmmu_simt::{GpuConfig, Kernel};
use gmmu_vm::frame::{FrameAlloc, FramePolicy};
use gmmu_vm::PageTable;
use gmmu_vm::{AddressSpace, PageSize, Ppn, Region, SpaceConfig, VAddr, Vpn};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Counts every heap acquisition (alloc/realloc/alloc_zeroed; frees are
/// uninteresting — a steady-state free implies a later matching alloc).
/// Mirrors `tests/alloc_discipline.rs`, which asserts the zero-alloc
/// window; this binary *reports* the whole-run rate.
struct CountingAlloc;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn allocs() -> u64 {
    ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Times `f` in self-calibrating batches for roughly `budget` and
/// returns the best per-iteration time in nanoseconds.
fn bench_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let deadline = Instant::now() + budget;
    let mut best = f64::INFINITY;
    let mut batches = 0u32;
    while Instant::now() < deadline || batches < 3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64 * 1e9);
        batches += 1;
    }
    best
}

/// Deterministic 64-bit LCG step.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 16
}

// ---------------------------------------------------------------- TLB

/// 256-lookup batch over a hot set of 128 pages plus a cold tail, the
/// mix a TLB-friendly workload presents.
fn tlb_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
    const PAGES: u64 = 160; // 128 resident + misses to keep fills live
    let mut tlb = Tlb::new(TlbConfig::naive());
    let mut stamp = 0u64;
    for p in 0..PAGES {
        tlb.fill(Vpn::new(p), Ppn::new(p), 0, stamp);
        stamp += 1;
    }
    let mut x = 0x2545f4914f6cdd1du64;
    let seq: Vec<Vpn> = (0..256).map(|_| Vpn::new(lcg(&mut x) % PAGES)).collect();

    let ns = bench_ns(budget, || {
        for &vpn in &seq {
            stamp += 1;
            match tlb.lookup(vpn, 0, stamp) {
                Some(hit) => {
                    black_box(hit.ppn);
                }
                None => {
                    tlb.fill(vpn, Ppn::new(vpn.raw()), 0, stamp);
                }
            }
        }
    });
    results.push(("tlb_lookup_set_indexed_x256".into(), ns));

    // One all-hit translation through the MMU front door (port
    // arbitration, MSHR check, LRU stamp) on 64 warmed pages.
    let mut space = AddressSpace::new(SpaceConfig::default());
    let region = space
        .map_region("bench", 16 << 20, PageSize::Base4K)
        .expect("map");
    let mut mem = MemorySystem::new(MemConfig::default());
    let mut mmu = Mmu::new(MmuModel::augmented());
    let mut buf = TranslateBuf::new();
    let mut now = 0u64;
    for i in 0..64u64 {
        mmu.advance(now, &mut mem, &space);
        let page = PageReq::new(region.at(i * 4096).vpn(), 0);
        let _ = mmu.translate(now, 0, &[page], &space, &mut buf);
        now += 2_000;
    }
    for _ in 0..16 {
        mmu.advance(now, &mut mem, &space);
        now += 2_000;
    }
    let mut i = 0u64;
    let ns = bench_ns(budget, || {
        let vpn = region.at((i % 64) * 4096).vpn();
        i += 1;
        now += 1;
        black_box(mmu.translate(now, 0, &[PageReq::new(vpn, 0)], &space, &mut buf));
    });
    results.push(("mmu_translate_hit".into(), ns));
}

// --------------------------------------------------------------- MSHR

/// One simulated-cycle's worth of MSHR traffic, repeated 256 times per
/// iteration: allocate + retime a few keys, then the per-cycle
/// `expire` + `earliest_completion` pair the translate path issues.
fn mshr_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
    const KEYS: u64 = 24;
    let mut heap = MshrFile::new(32);
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut now = 0u64;
    let ns = bench_ns(budget, || {
        for _ in 0..256 {
            now += 1;
            let key = lcg(&mut x) % KEYS;
            if heap.allocate(key) == MshrOutcome::Allocated {
                heap.set_completion(key, now + 20 + lcg(&mut x) % 40);
            }
            heap.expire(now);
            black_box(heap.earliest_completion());
        }
    });
    results.push(("mshr_heap_cycle_x256".into(), ns));
}

// ---------------------------------------------------------- Coalescer

fn coalesce_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
    let mut buf = CoalesceBuf::new();
    let unit: Vec<(VAddr, u16)> = (0..32)
        .map(|lane| (VAddr::new(0x4000_0000 + lane * 4), 0u16))
        .collect();
    let ns = bench_ns(budget, || {
        coalesce(unit.iter().copied(), &mut buf);
        black_box(buf.page_divergence());
    });
    results.push(("coalesce_warp_unit_stride".into(), ns));

    let mut x = 0xdead_beef_cafe_f00du64;
    let scattered: Vec<(VAddr, u16)> = (0..32)
        .map(|_| (VAddr::new(0x4000_0000 + (lcg(&mut x) % 64) * 4096), 0u16))
        .collect();
    let ns = bench_ns(budget, || {
        coalesce(scattered.iter().copied(), &mut buf);
        black_box(buf.page_divergence());
    });
    results.push(("coalesce_warp_divergent".into(), ns));
}

// ------------------------------------------------------ Memory system

/// One access to the shared memory system (L2 slice lookup plus the
/// DRAM channel model on a miss) over a 100k-line footprint.
fn memory_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
    let mut mem = MemorySystem::new(MemConfig::default());
    let (mut line, mut now) = (0u64, 0u64);
    let ns = bench_ns(budget, || {
        line += 7;
        now += 1;
        black_box(mem.access(now, line % 100_000, AccessKind::Load));
    });
    results.push(("shared_memory_access".into(), ns));
}

// ------------------------------------------------------ next_event_at

/// Looping stream kernel: enough in-flight state that a shader core has
/// a non-trivial next-event computation.
struct StreamKernel {
    program: Program,
    region: Region,
    threads: u32,
}

impl Kernel for StreamKernel {
    fn name(&self) -> &str {
        "hotpath-stream"
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
        iter + 1 < 4
    }
}

fn next_event_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
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
    };
    let cfg = GpuConfig {
        n_cores: 1,
        warps_per_core: 8,
        warps_per_block: 4,
        mmu: MmuModel::augmented(),
        ..GpuConfig::default()
    };
    let mut core = ShaderCore::new(0, &cfg);
    core.push_block(0, 128);
    let mut mem = MemorySystem::new(MemConfig::default());
    let mut iters = vec![0u32; 128 * kernel.program.num_sites()];
    let mut obs = Observer::off();
    // Tick into the middle of the run so walks, fills, and warp timers
    // are all in flight.
    let mut now = 0u64;
    while now < 300 && core.has_work() {
        core.tick(now, &mut mem, &space, &kernel, &mut iters, &mut obs);
        now += 1;
    }
    assert!(core.has_work(), "kernel drained before the measurement");

    let ns = bench_ns(budget, || {
        black_box(core.next_event_at(now));
    });
    results.push(("next_event_at_cached".into(), ns));

    let ns = bench_ns(budget, || {
        core.invalidate_next_event_cache();
        black_box(core.next_event_at(now));
    });
    results.push(("next_event_at_recomputed".into(), ns));
}

// ----------------------------------------------------- Page-table arena

/// The arena page table on the three paths that matter:
///
/// * **build** — mapping 16384 pages (37 nodes) into a bare table; its
///   allocation count is reported separately (the arena grows one slab
///   under amortized doubling).
/// * **clone** — the checkpoint path (`Ckpt::save` snapshots address
///   spaces): one flat memcpy.
/// * **translate** — 256 random lookups. This path only runs in
///   workload setup and trace replay (the sim walks via `walk()`).
fn page_table_benches(results: &mut Vec<(String, f64)>, budget: Duration) {
    const PAGES: u64 = 1 << 14;
    let mut space = AddressSpace::new(SpaceConfig::default());
    let region = space
        .map_region("arena", PAGES << 12, PageSize::Base4K)
        .expect("map");
    let base_vpn = region.at(0).raw() >> 12;

    let ns = bench_ns(budget, || {
        let mut frames = FrameAlloc::new(1 << 21, FramePolicy::Sequential);
        let mut t = PageTable::new(&mut frames);
        for p in 0..PAGES {
            t.map(
                Vpn::new(base_vpn + p),
                Ppn::new(0x1000 + p),
                PageSize::Base4K,
                &mut frames,
            )
            .expect("map");
        }
        black_box(&t);
    });
    results.push(("page_table_arena_build_16k".into(), ns));

    let ns = bench_ns(budget, || {
        black_box(space.clone());
    });
    results.push(("page_table_arena_clone_16k".into(), ns));

    let mut x = 0x0123_4567_89ab_cdefu64;
    let seq: Vec<u64> = (0..256).map(|_| lcg(&mut x) % PAGES).collect();

    let ns = bench_ns(budget, || {
        for &p in &seq {
            let va = region.at(p << 12);
            black_box(space.translate(va).expect("mapped"));
        }
    });
    results.push(("page_table_arena_translate_x256".into(), ns));
}

/// Heap allocations performed building a 16384-page table once — the
/// deterministic half of the build benchmark above.
fn page_table_alloc_count() -> u64 {
    const PAGES: u64 = 1 << 14;
    let base_vpn = 0x40000u64;
    let before = allocs();
    let mut frames = FrameAlloc::new(1 << 21, FramePolicy::Sequential);
    let mut t = PageTable::new(&mut frames);
    for p in 0..PAGES {
        t.map(
            Vpn::new(base_vpn + p),
            Ppn::new(0x1000 + p),
            PageSize::Base4K,
            &mut frames,
        )
        .expect("map");
    }
    let arena = allocs() - before;
    std::hint::black_box(&t);
    arena
}

// --------------------------------------------------------- Allocations

/// Whole-run heap allocations per simulated kilocycle on one tiny
/// workload (construction and teardown included — the
/// steady-state *window* is asserted to be zero-alloc by
/// `tests/alloc_discipline.rs`; this is the end-to-end rate). The
/// counts are near machine-independent, which makes them the robust
/// CI regression signal alongside the wall-clock rates.
fn alloc_bench() -> f64 {
    use gmmu::prelude::*;
    let w = build(Bench::Bfs, Scale::Tiny, 7);
    let cfg = gmmu::ExperimentOpts::quick().gpu(MmuModel::augmented());
    let before = allocs();
    let stats = gmmu_simt::gpu::run_kernel(cfg, w.kernel.as_ref(), &w.space);
    let after = allocs();
    (after - before) as f64 / (stats.cycles as f64 / 1000.0)
}

// --------------------------------------------------------- Multi-tenant

/// The standard multi-tenant throughput point: 4 co-running tenants
/// (Zipf mix with a thrasher) under the default ASID-tagged policy,
/// best-of-3 `sim_cycles_per_sec`.
fn multitenant_bench() -> f64 {
    use gmmu::prelude::*;
    use gmmu_simt::{Observer, TenantJob, TenantPolicy};
    use gmmu_workloads::tenants::scenario;
    let cfg = gmmu::ExperimentOpts::quick().gpu(MmuModel::augmented());
    let sc = scenario(4, Scale::Tiny, 7, true);
    let mut rate = 0f64;
    for _ in 0..3 {
        let mut built = sc.build();
        let mut jobs: Vec<TenantJob<'_>> = built
            .iter_mut()
            .map(|w| TenantJob {
                kernel: w.kernel.as_ref(),
                space: &mut w.space,
            })
            .collect();
        let stats = Gpu::new(cfg.clone()).run_tenants(
            &mut jobs,
            TenantPolicy::default(),
            &mut Observer::off(),
        );
        rate = rate.max(stats.cycles_per_sec());
    }
    rate
}

// ----------------------------------------------------------- Drive loop

/// End-to-end drive-loop throughput on one real workload: best-of-3
/// `sim_cycles_per_sec`.
fn serial_bench() -> f64 {
    use gmmu::prelude::*;
    let w = build(Bench::Bfs, Scale::Tiny, 7);
    let cfg = gmmu::ExperimentOpts::quick().gpu(MmuModel::augmented());
    let mut rate = 0f64;
    for _ in 0..3 {
        let stats = gmmu_simt::gpu::run_kernel(cfg.clone(), w.kernel.as_ref(), &w.space);
        rate = rate.max(stats.cycles_per_sec());
    }
    rate
}

// ------------------------------------------------------------- Metrics

/// End-to-end metrics-channel overhead on one real workload:
/// `sim_cycles_per_sec` unobserved, with the channel
/// instrumented-but-off (the default — every record site compiles
/// down to an enabled check), and fully on (every event built and
/// folded into the sink). All three simulate bit-identical
/// behaviour; only wall time differs. The three are measured
/// *interleaved*, best-of-5 each, so the reported ratios compare
/// same-window wall clocks — comparing best-of-N estimates taken
/// minutes apart lets machine-speed drift masquerade as overhead.
fn metrics_benches() -> (f64, f64, f64) {
    use gmmu::prelude::*;
    use gmmu_sim::metrics::Metrics;
    use gmmu_simt::Observer;
    let w = build(Bench::Bfs, Scale::Tiny, 7);
    let cfg = gmmu::ExperimentOpts::quick().gpu(MmuModel::augmented());
    let (mut unobs, mut off, mut on) = (0f64, 0f64, 0f64);
    let (mut unobs_cycles, mut on_cycles) = (0u64, 0u64);
    for _ in 0..5 {
        let stats = gmmu_simt::gpu::run_kernel(cfg.clone(), w.kernel.as_ref(), &w.space);
        unobs_cycles = stats.cycles;
        unobs = unobs.max(stats.cycles_per_sec());

        let mut obs = Observer::off();
        let stats = Gpu::new(cfg.clone()).run_observed(w.kernel.as_ref(), &w.space, &mut obs);
        off = off.max(stats.cycles_per_sec());

        let mut obs = Observer::off();
        obs.metrics = Metrics::recording();
        let stats = Gpu::new(cfg.clone()).run_observed(w.kernel.as_ref(), &w.space, &mut obs);
        on_cycles = stats.cycles;
        on = on.max(stats.cycles_per_sec());
    }
    assert_eq!(
        unobs_cycles, on_cycles,
        "the metrics channel must not perturb the simulation"
    );
    (unobs, off, on)
}

fn main() {
    let budget = Duration::from_millis(150);
    let mut results: Vec<(String, f64)> = Vec::new();
    tlb_benches(&mut results, budget);
    mshr_benches(&mut results, budget);
    coalesce_benches(&mut results, budget);
    memory_benches(&mut results, budget);
    next_event_benches(&mut results, budget);
    page_table_benches(&mut results, budget);
    let serial_rate = serial_bench();
    let multitenant_rate = multitenant_bench();
    let (metrics_unobs_rate, metrics_off_rate, metrics_on_rate) = metrics_benches();
    let serial_allocs = alloc_bench();
    let pt_arena_allocs = page_table_alloc_count();

    for (name, ns) in &results {
        println!("{name:<32} {ns:>12.1} ns/iter");
    }
    let ratio = |num: &str, den: &str| -> f64 {
        let get = |n: &str| results.iter().find(|(name, _)| name == n).map(|r| r.1);
        match (get(num), get(den)) {
            (Some(a), Some(b)) if a > 0.0 => b / a,
            _ => 0.0,
        }
    };
    let cache_speedup = ratio("next_event_at_cached", "next_event_at_recomputed");
    println!("next-event cached vs recompute: {cache_speedup:.2}x");
    println!("drive loop (bfs tiny):          {serial_rate:.0} sim cycles/s");
    let metrics_off_vs_unobserved = if metrics_unobs_rate > 0.0 {
        metrics_off_rate / metrics_unobs_rate
    } else {
        0.0
    };
    let metrics_on_vs_off = if metrics_off_rate > 0.0 {
        metrics_on_rate / metrics_off_rate
    } else {
        0.0
    };
    println!(
        "metrics off vs unobserved:      {metrics_off_vs_unobserved:.2}x \
         ({metrics_off_rate:.0} vs {metrics_unobs_rate:.0} sim cycles/s)"
    );
    println!(
        "metrics on vs off:              {metrics_on_vs_off:.2}x \
         ({metrics_on_rate:.0} vs {metrics_off_rate:.0} sim cycles/s)"
    );
    println!("multi-tenant (4 tenants):       {multitenant_rate:.0} sim cycles/s");
    println!("allocs/kcycle:                  {serial_allocs:>8.1}");
    println!("page table build allocs:        {pt_arena_allocs}");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benches\": [");
    for (i, (name, ns)) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"ns_per_iter\": {ns:.1}}}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    let _ = writeln!(
        json,
        "    \"next_event_cached_vs_recomputed\": {cache_speedup:.3}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"alloc\": {{");
    let _ = writeln!(
        json,
        "    \"serial_allocs_per_kcycle\": {serial_allocs:.1},"
    );
    let _ = writeln!(
        json,
        "    \"page_table_build_arena_allocs\": {pt_arena_allocs}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"metrics\": {{");
    let _ = writeln!(
        json,
        "    \"off_sim_cycles_per_sec\": {metrics_off_rate:.0},"
    );
    let _ = writeln!(json, "    \"on_sim_cycles_per_sec\": {metrics_on_rate:.0},");
    let _ = writeln!(
        json,
        "    \"off_vs_unobserved\": {metrics_off_vs_unobserved:.3},"
    );
    let _ = writeln!(json, "    \"on_vs_off\": {metrics_on_vs_off:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"throughput\": {{");
    let _ = writeln!(json, "    \"serial_sim_cycles_per_sec\": {serial_rate:.0},");
    let _ = writeln!(
        json,
        "    \"multitenant_sim_cycles_per_sec\": {multitenant_rate:.0}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    match std::fs::write("BENCH_hotpath.json", &json) {
        Ok(()) => eprintln!("[hotpath] wrote BENCH_hotpath.json"),
        Err(e) => eprintln!("[hotpath] could not write BENCH_hotpath.json: {e}"),
    }
}
