#![warn(missing_docs)]

//! Memory-hierarchy substrate: the cache/DRAM system underneath the MMU.
//!
//! The paper's GPU (Section 5.2) has per-shader-core 32 KB L1 data caches
//! (128-byte lines, LRU), a shared L2 sliced across 8 memory channels
//! (128 KB per channel), and an interconnection network between core
//! clusters and memory partitions. This crate implements those pieces:
//!
//! * [`cache`] — a set-associative, LRU, per-line-metadata cache used for
//!   both L1s and L2 slices. Line metadata carries the allocating warp id,
//!   which cache-conscious wavefront scheduling needs when a victim is
//!   inserted into a victim tag array.
//! * [`mshr`] — miss-status holding registers with same-line merging.
//! * [`dram`] — per-channel bandwidth/latency queues.
//! * [`system`] — [`system::MemorySystem`], the shared L2 + DRAM +
//!   interconnect timing model every shader core and page-table walker
//!   issues requests into.
//!
//! Timing model: components are *state machines with reservations* —
//! a request at cycle `t` updates cache/queue state immediately and
//! returns its completion cycle, with per-channel `next_free` reservations
//! providing bandwidth contention. All cores tick in lock-step in the
//! global simulation loop, so state updates stay causally ordered.

pub mod cache;
pub mod dram;
pub mod mshr;
pub mod system;

pub use cache::{Cache, CacheAccess, CacheConfig, Victim};
pub use mshr::MshrFile;
pub use system::{AccessKind, MemConfig, MemResult, MemorySystem};

/// log2 of the 128-byte line size used throughout the hierarchy.
pub const LINE_SHIFT: u32 = 7;
/// Line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;
