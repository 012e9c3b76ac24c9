//! Physical frame allocation.
//!
//! The simulator never stores page *contents* — only the mapping
//! structure — but physical placement still matters: the shared L2 is
//! sliced across memory channels by physical line address, and the paper's
//! physically-tagged caches see whatever frame spread the OS produces.
//! The allocator therefore supports an optional bijective scramble so that
//! virtually-contiguous data lands on scattered frames, as on a live
//! system with a fragmented free list.

use crate::addr::{Ppn, FRAMES_PER_LARGE};

/// Allocation policy for 4 KiB frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FramePolicy {
    /// Frames handed out in ascending order (a freshly booted machine).
    Sequential,
    /// Frames handed out in a pseudo-random but bijective order
    /// (a long-running machine with a churned free list).
    #[default]
    Scrambled,
}

/// Allocates 4 KiB frames (and 2 MiB-aligned frame runs) from a fixed-size
/// physical memory.
///
/// # Examples
///
/// ```
/// use gmmu_vm::frame::{FrameAlloc, FramePolicy};
/// let mut alloc = FrameAlloc::new(1 << 20, FramePolicy::Scrambled);
/// let a = alloc.alloc().unwrap();
/// let b = alloc.alloc().unwrap();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAlloc {
    /// Total 4 KiB frames (power of two).
    capacity: u64,
    /// First frame number this allocator may hand out: every allocation
    /// is offset by `base`, so allocators with disjoint
    /// `base..base+capacity` windows can never alias (the multi-tenant
    /// isolation guarantee).
    base: u64,
    /// Next sequential index for small-frame allocation (grows upward).
    next_small: u64,
    /// Next 2 MiB-aligned boundary for large allocations (grows downward).
    next_large: u64,
    policy: FramePolicy,
    /// Frames returned by `free`, reused LIFO.
    free_list: Vec<Ppn>,
}

/// Odd multiplier for the bijective scramble (Fibonacci hashing constant).
const SCRAMBLE_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

impl FrameAlloc {
    /// Creates an allocator over `capacity` 4 KiB frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is smaller than one
    /// 2 MiB run.
    pub fn new(capacity: u64, policy: FramePolicy) -> Self {
        Self::with_base(capacity, policy, 0)
    }

    /// Creates an allocator over `capacity` 4 KiB frames starting at
    /// frame `base`. All frames handed out lie in
    /// `base..base + capacity`; distinct bases at `capacity` stride give
    /// each tenant a private physical window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two, is smaller than one
    /// 2 MiB run, or `base` is not 2 MiB-aligned (large-page alignment
    /// must survive the offset).
    pub fn with_base(capacity: u64, policy: FramePolicy, base: u64) -> Self {
        assert!(capacity.is_power_of_two(), "frame capacity must be 2^k");
        assert!(capacity >= FRAMES_PER_LARGE, "capacity below one 2MB run");
        assert!(
            base.is_multiple_of(FRAMES_PER_LARGE),
            "frame base must be 2MB-aligned"
        );
        Self {
            capacity,
            base,
            next_small: 1, // frame 0 reserved (null / CR3 sanity)
            next_large: capacity,
            policy,
            free_list: Vec::new(),
        }
    }

    /// Total frame capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// First frame of this allocator's physical window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Allocates one 4 KiB frame.
    ///
    /// Returns `None` when physical memory is exhausted (small and large
    /// regions collide).
    pub fn alloc(&mut self) -> Option<Ppn> {
        if let Some(f) = self.free_list.pop() {
            return Some(f);
        }
        if self.next_small >= self.next_large {
            return None;
        }
        let seq = self.next_small;
        self.next_small += 1;
        let raw = match self.policy {
            FramePolicy::Sequential => seq,
            FramePolicy::Scrambled => {
                // Multiply-by-odd modulo 2^k is a bijection on 0..2^k;
                // skip frame 0 by remapping to the sequential index.
                let s = seq.wrapping_mul(SCRAMBLE_MULT) & (self.capacity - 1);
                if s == 0 {
                    seq
                } else {
                    s
                }
            }
        };
        Some(Ppn::new(self.base + raw))
    }

    /// Returns a frame to the allocator.
    pub fn free(&mut self, frame: Ppn) {
        debug_assert!(frame.raw() >= self.base && frame.raw() - self.base < self.capacity);
        self.free_list.push(frame);
    }

    /// Allocates a naturally aligned run of 512 frames (one 2 MiB page),
    /// returning the first frame. Large runs are carved from the top of
    /// physical memory and are always physically contiguous and aligned,
    /// as the OS guarantees for huge pages.
    pub fn alloc_large(&mut self) -> Option<Ppn> {
        let candidate = self.next_large.checked_sub(FRAMES_PER_LARGE)?;
        if candidate < self.next_small {
            return None;
        }
        self.next_large = candidate;
        Some(Ppn::new(self.base + candidate))
    }
}

impl gmmu_sim::codec::Codec for FramePolicy {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u8(match self {
            FramePolicy::Sequential => 0,
            FramePolicy::Scrambled => 1,
        });
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        *self = match r.u8()? {
            0 => FramePolicy::Sequential,
            1 => FramePolicy::Scrambled,
            _ => return Err(gmmu_sim::codec::CodecError::Corrupt("unknown frame policy")),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_policy_is_ascending() {
        let mut a = FrameAlloc::new(1 << 12, FramePolicy::Sequential);
        assert_eq!(a.alloc().unwrap().raw(), 1);
        assert_eq!(a.alloc().unwrap().raw(), 2);
    }

    #[test]
    fn scrambled_policy_never_repeats() {
        let mut a = FrameAlloc::new(1 << 12, FramePolicy::Scrambled);
        let mut seen = HashSet::new();
        for _ in 0..2048 {
            let f = a.alloc().expect("capacity not reached");
            assert!(f.raw() < 1 << 12);
            assert!(seen.insert(f.raw()), "duplicate frame {}", f.raw());
        }
    }

    #[test]
    fn scrambled_policy_spreads() {
        let mut a = FrameAlloc::new(1 << 16, FramePolicy::Scrambled);
        let first: Vec<u64> = (0..16).map(|_| a.alloc().unwrap().raw()).collect();
        // Consecutive allocations should not be consecutive frames.
        let adjacent = first.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(adjacent < 4, "scramble too sequential: {first:?}");
    }

    #[test]
    fn free_list_is_reused() {
        let mut a = FrameAlloc::new(1 << 12, FramePolicy::Sequential);
        let f = a.alloc().unwrap();
        a.free(f);
        assert_eq!(a.alloc().unwrap(), f);
    }

    #[test]
    fn large_runs_are_aligned_and_disjoint() {
        let mut a = FrameAlloc::new(1 << 12, FramePolicy::Scrambled);
        let mut seen = HashSet::new();
        while let Some(run) = a.alloc_large() {
            assert_eq!(run.raw() % FRAMES_PER_LARGE, 0);
            assert!(seen.insert(run.raw()));
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = FrameAlloc::new(FRAMES_PER_LARGE, FramePolicy::Sequential);
        assert!(a.alloc_large().is_none() || a.alloc_large().is_none());
        // After taking everything, small allocs eventually fail too.
        let mut n = 0;
        while a.alloc().is_some() {
            n += 1;
            assert!(n <= FRAMES_PER_LARGE);
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_capacity_rejected() {
        let _ = FrameAlloc::new(1000, FramePolicy::Sequential);
    }

    #[test]
    fn based_allocators_are_disjoint() {
        let cap = 1u64 << 12;
        let mut a = FrameAlloc::with_base(cap, FramePolicy::Scrambled, 0);
        let mut b = FrameAlloc::with_base(cap, FramePolicy::Scrambled, cap);
        for _ in 0..512 {
            let fa = a.alloc().unwrap().raw();
            let fb = b.alloc().unwrap().raw();
            assert!(fa < cap, "base-0 frame escaped its window: {fa}");
            assert!((cap..2 * cap).contains(&fb), "based frame escaped: {fb}");
            assert_eq!(fb, fa + cap, "offset must not change the sequence");
        }
        let la = a.alloc_large().unwrap().raw();
        let lb = b.alloc_large().unwrap().raw();
        assert_eq!(la % FRAMES_PER_LARGE, 0);
        assert_eq!(lb % FRAMES_PER_LARGE, 0);
        assert_eq!(lb, la + cap);
    }

    #[test]
    #[should_panic(expected = "2MB-aligned")]
    fn misaligned_base_rejected() {
        let _ = FrameAlloc::with_base(1 << 12, FramePolicy::Sequential, 7);
    }
}
