//! `memcached` — key-value store lookup, stimulated with a Zipf trace.
//!
//! The paper drives memcached with a representative slice of the
//! Wikipedia request trace [22]; we substitute a Zipf(0.99) key
//! popularity distribution, the standard synthetic stand-in for that
//! trace. Each request hashes its key, loads the hash bucket, walks a
//! short chain comparing keys, loads the value, and stores the
//! response. Bucket and chain loads scatter (hash-randomized pages);
//! item storage is id-ordered, so the Zipf head concentrates on a few
//! hot pages — locality a TLB-aware scheduler can protect — while the
//! tail produces misses. Chain lengths and hit depths differ per
//! thread, so the chain loop diverges.

use crate::util::split_iter;
use crate::Scale;
use gmmu_sim::rng::{mix2, mix3, Zipf};
use gmmu_simt::program::{Kernel, MemKind, Op, Program, ThreadId};
use gmmu_vm::{AddressSpace, PageSize, Region, VAddr};

/// Requests served per thread.
const REQUESTS_PER_THREAD: u32 = 3;
/// Bytes per item record (key line + value line).
const ITEM_BYTES: u64 = 256;
/// Bytes per hash bucket.
const BUCKET_BYTES: u64 = 64;
/// Items per unit of [`Scale::data_factor`].
const ITEMS_PER_FACTOR: u64 = 65_536;
/// Zipf skew, matching common web-trace fits.
const ZIPF_THETA: f64 = 0.99;

/// The memcached kernel and its store.
pub struct MemcachedKernel {
    program: Program,
    threads: u32,
    seed: u64,
    n_items: u64,
    n_buckets: u64,
    /// The Zipf rank each warp's batch starts from, per request: entry
    /// `warp * REQUESTS_PER_THREAD + r`. Drawn once at build time, so
    /// the CDF table is not kept.
    base_ranks: Vec<u64>,
    buckets: Region,
    items: Region,
    response_out: Region,
}

impl std::fmt::Debug for MemcachedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemcachedKernel")
            .field("threads", &self.threads)
            .field("n_items", &self.n_items)
            .finish()
    }
}

impl MemcachedKernel {
    /// Maps the store into `space` and builds the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the address space runs out of frames.
    pub fn build(space: &mut AddressSpace, scale: Scale, seed: u64, pages: PageSize) -> Self {
        let threads = scale.threads();
        let n_items = ITEMS_PER_FACTOR * scale.data_factor();
        let n_buckets = n_items / 16;
        let buckets = space
            .map_region("mc.buckets", n_buckets * BUCKET_BYTES, pages)
            .expect("map buckets");
        let items = space
            .map_region("mc.items", n_items * ITEM_BYTES, pages)
            .expect("map items");
        let response_out = space
            .map_region(
                "mc.responses",
                threads as u64 * REQUESTS_PER_THREAD as u64 * 8,
                pages,
            )
            .expect("map responses");
        let program = Program::new(vec![
            Op::Alu { cycles: 6 }, // 0: hash key
            Op::Alu { cycles: 6 }, // 1
            Op::Alu { cycles: 4 }, // 2
            Op::Mem {
                site: 0,
                kind: MemKind::Load,
            }, // 3: bucket head
            Op::Alu { cycles: 4 }, // 4
            // Chain-walk loop (pc 5..=9).
            Op::Mem {
                site: 1,
                kind: MemKind::Load,
            }, // 5: candidate key line
            Op::Alu { cycles: 6 }, // 6: key compare
            Op::Alu { cycles: 4 }, // 7
            Op::Alu { cycles: 4 }, // 8
            Op::Branch {
                site: 2,
                taken_pc: 5,
                reconv_pc: 10,
            }, // 9: next link
            Op::Mem {
                site: 3,
                kind: MemKind::Load,
            }, // 10: value line
            Op::Alu { cycles: 6 }, // 11
            Op::Alu { cycles: 4 }, // 12
            Op::Mem {
                site: 4,
                kind: MemKind::Store,
            }, // 13: response
            Op::Alu { cycles: 4 }, // 14
            Op::Branch {
                site: 5,
                taken_pc: 0,
                reconv_pc: 16,
            }, // 15: next request
        ]);
        let zipf = Zipf::new(n_items as usize, ZIPF_THETA);
        let base_ranks = (0..threads.div_ceil(32) as u64)
            .flat_map(|warp| (0..REQUESTS_PER_THREAD as u64).map(move |r| mix2(warp, r)))
            .map(|key| zipf.sample_at(seed ^ 0x9c, key) as u64)
            .collect();
        Self {
            program,
            threads,
            seed,
            n_items,
            n_buckets,
            base_ranks,
            buckets,
            items,
            response_out,
        }
    }

    /// Item requested by `(tid, r)`: requests arrive in batches, so a
    /// warp's lanes serve neighbouring ranks of one Zipf draw (rank 0 is
    /// the hottest item and storage is rank-ordered, so hot ranks share
    /// pages).
    fn item(&self, tid: ThreadId, r: u32) -> u64 {
        debug_assert!(r < REQUESTS_PER_THREAD, "request {r} out of range");
        let base = self.base_ranks[((tid / 32) * REQUESTS_PER_THREAD + r) as usize];
        (base + mix3(tid as u64, r as u64, self.seed) % 32) % self.n_items
    }

    /// Bucket of an item: the store keeps an id-ordered index, so hot
    /// items' buckets cluster like the items themselves.
    fn bucket(&self, item: u64) -> u64 {
        (item / 16) % self.n_buckets
    }

    /// Chain position at which the requested key is found (1..=2 links
    /// walked).
    fn chain_len(&self, tid: ThreadId, r: u32) -> u32 {
        1 + (mix3(tid as u64, r as u64, self.seed ^ 0xc4) % 2) as u32
    }

    /// Item occupying link `j` of the chain for request `(tid, r)`: the
    /// final link is the requested item, earlier links are hash
    /// neighbours.
    fn chain_item(&self, tid: ThreadId, r: u32, j: u32) -> u64 {
        let target = self.item(tid, r);
        if j + 1 == self.chain_len(tid, r) {
            target
        } else {
            // Chain neighbours share the bucket's item page.
            (target & !15) + mix3(self.bucket(target), j as u64, self.seed ^ 0xd1) % 16
        }
    }

    fn chain_coords(&self, tid: ThreadId, iter: u32) -> (u32, u32) {
        split_iter(iter, REQUESTS_PER_THREAD, |r| self.chain_len(tid, r))
    }
}

impl Kernel for MemcachedKernel {
    fn name(&self) -> &str {
        "memcached"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn num_threads(&self) -> u32 {
        self.threads
    }

    fn block_threads(&self) -> u32 {
        256
    }

    fn mem_addr(&self, tid: ThreadId, site: u16, iter: u32) -> VAddr {
        match site {
            0 => {
                let b = self.bucket(self.item(tid, iter));
                self.buckets.at(b * BUCKET_BYTES)
            }
            1 => {
                let (r, j) = self.chain_coords(tid, iter);
                self.items.at(self.chain_item(tid, r, j) * ITEM_BYTES)
            }
            3 => self.items.at(self.item(tid, iter) * ITEM_BYTES + 128),
            4 => self
                .response_out
                .at((tid as u64 * REQUESTS_PER_THREAD as u64 + iter as u64) * 8),
            _ => unreachable!("memcached has no memory site {site}"),
        }
    }

    fn branch_taken(&self, tid: ThreadId, site: u16, iter: u32) -> bool {
        match site {
            2 => {
                let (r, j) = self.chain_coords(tid, iter);
                j + 1 < self.chain_len(tid, r)
            }
            5 => iter + 1 < REQUESTS_PER_THREAD,
            _ => unreachable!("memcached has no branch site {site}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmmu_vm::SpaceConfig;

    fn kernel() -> (AddressSpace, MemcachedKernel) {
        let mut space = AddressSpace::new(SpaceConfig::default());
        let k = MemcachedKernel::build(&mut space, Scale::Tiny, 9, PageSize::Base4K);
        (space, k)
    }

    #[test]
    fn requests_are_zipf_skewed() {
        let (_, k) = kernel();
        // Every request of every thread (item ranks are drawn per warp
        // at build time, for the kernel's own threads only).
        let total = REQUESTS_PER_THREAD * k.num_threads();
        let hot = (0..total)
            .filter(|&i| k.item(i / REQUESTS_PER_THREAD, i % REQUESTS_PER_THREAD) < 132)
            .count();
        // Uniform would give ~0.6%; Zipf(0.99) gives tens of percent.
        assert!(hot > total as usize / 10, "not skewed: {hot}/{total}");
    }

    #[test]
    fn chain_ends_at_requested_item() {
        let (_, k) = kernel();
        for tid in 0..50 {
            for r in 0..REQUESTS_PER_THREAD {
                let len = k.chain_len(tid, r);
                assert_eq!(k.chain_item(tid, r, len - 1), k.item(tid, r));
            }
        }
    }

    #[test]
    fn chain_loop_matches_chain_len() {
        let (_, k) = kernel();
        let tid = 3;
        let len0 = k.chain_len(tid, 0);
        assert_eq!(k.branch_taken(tid, 2, 0), len0 > 1);
        assert!(!k.branch_taken(tid, 2, len0 - 1));
    }

    #[test]
    fn hot_items_share_pages() {
        let (_, k) = kernel();
        // The 16 hottest items span exactly one 4 KiB page (256 B each).
        let pages: std::collections::HashSet<_> = (0..REQUESTS_PER_THREAD * k.num_threads())
            .map(|i| k.mem_addr(i / 3, 3, i % 3).vpn())
            .collect();
        let footprint_pages = k.n_items * ITEM_BYTES / 4096;
        // Uniform sampling of every thread's requests over this many
        // pages would touch ~17% of them; Zipf concentration touches far
        // fewer.
        assert!(
            (pages.len() as u64) < footprint_pages * 2 / 5,
            "no hot-page concentration: {} of {footprint_pages}",
            pages.len()
        );
    }

    #[test]
    fn all_addresses_mapped() {
        let (space, k) = kernel();
        for tid in (0..k.num_threads()).step_by(89) {
            let mut flat = 0;
            for r in 0..REQUESTS_PER_THREAD {
                assert!(space.translate(k.mem_addr(tid, 0, r)).is_ok());
                for _ in 0..k.chain_len(tid, r) {
                    assert!(space.translate(k.mem_addr(tid, 1, flat)).is_ok());
                    flat += 1;
                }
                assert!(space.translate(k.mem_addr(tid, 3, r)).is_ok());
                assert!(space.translate(k.mem_addr(tid, 4, r)).is_ok());
            }
        }
    }
}
