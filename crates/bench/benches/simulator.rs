//! Benchmarks of the simulator's own building blocks: how fast the
//! substrate simulates, independent of any paper figure.
//!
//! Self-contained `harness = false` benchmark (no external benchmarking
//! crates): each micro-benchmark is timed in calibrated batches and the
//! best batch is reported, which is the usual way to suppress scheduler
//! noise on a shared machine. Run with `cargo bench`. Drive-loop
//! throughput is measured by the `hotpath` binary.

use gmmu::prelude::*;
use gmmu_core::mmu::{Mmu, PageReq, TranslateBuf};
use gmmu_mem::{AccessKind, MemConfig, MemorySystem};
use gmmu_simt::coalesce::{coalesce, CoalesceBuf};
use gmmu_simt::gpu::run_kernel;
use gmmu_vm::{AddressSpace, SpaceConfig, VAddr};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` in self-calibrating batches for roughly `budget` and
/// prints the best per-iteration time observed.
fn bench_ns(name: &str, budget: Duration, mut f: impl FnMut()) {
    // Calibrate a batch size that runs for at least ~2 ms.
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
    println!("{name:<32} {best:>12.1} ns/iter  ({iters} iters x {batches} batches)");
}

fn bench_components() {
    // TLB lookup/fill throughput through the MMU front door.
    let mut space = AddressSpace::new(SpaceConfig::default());
    let region = space
        .map_region("bench", 16 << 20, PageSize::Base4K)
        .expect("map");
    let mut mem = MemorySystem::new(MemConfig::default());
    let mut mmu = Mmu::new(MmuModel::augmented());
    let mut buf = TranslateBuf::new();
    // Warm 64 pages.
    let mut now = 0u64;
    for i in 0..64u64 {
        mmu.advance(now, &mut mem, &space);
        let _ = mmu.translate(
            now,
            0,
            &[PageReq::new(region.at(i * 4096).vpn(), 0)],
            &space,
            &mut buf,
        );
        now += 2_000;
    }
    for _ in 0..16 {
        mmu.advance(now, &mut mem, &space);
        now += 2_000;
    }
    {
        let mut i = 0u64;
        bench_ns("mmu_translate_hit", Duration::from_secs(1), || {
            let vpn = region.at((i % 64) * 4096).vpn();
            i += 1;
            now += 1;
            black_box(mmu.translate(now, 0, &[PageReq::new(vpn, 0)], &space, &mut buf));
        });
    }

    {
        let mut out = CoalesceBuf::new();
        bench_ns("coalesce_32_threads", Duration::from_secs(1), || {
            coalesce(
                (0..32u64).map(|l| (VAddr::new(0x4000_0000 + l * 512), 0u16)),
                &mut out,
            );
            black_box(out.page_divergence());
        });
    }

    {
        let mut line = 0u64;
        bench_ns("shared_memory_access", Duration::from_secs(1), || {
            line += 7;
            now += 1;
            black_box(mem.access(now, line % 100_000, AccessKind::Load));
        });
    }
}

fn bench_full_runs() {
    for bench in [Bench::Kmeans, Bench::Memcached] {
        let w = build(bench, Scale::Tiny, 7);
        let mut best = f64::INFINITY;
        let mut cycles = 0u64;
        for _ in 0..3 {
            let mut cfg = GpuConfig::experiment_scale(MmuModel::augmented());
            cfg.n_cores = 2;
            cfg.mem.channels = 1;
            let t = Instant::now();
            cycles = black_box(run_kernel(cfg, w.kernel.as_ref(), &w.space).cycles);
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "end_to_end/{bench}_tiny_augmented  {:>8.1} ms/run  ({cycles} cycles)",
            best * 1e3
        );
    }
}

fn main() {
    bench_components();
    bench_full_runs();
}
