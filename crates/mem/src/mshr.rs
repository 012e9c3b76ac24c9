//! Miss-status holding registers.
//!
//! Both the L1 data caches and the per-core TLBs own MSHR files
//! (Section 6.2: "we assume, like both GPU caches and past work on TLBs,
//! that there is one TLB MSHR per warp thread (32 in total)"). An MSHR
//! file tracks outstanding misses keyed by line (or page) and merges
//! same-key misses so only one request goes downstream.

use gmmu_sim::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Bit position of the ASID tag inside a tenant-qualified MSHR key.
pub const TENANT_KEY_SHIFT: u32 = 48;

/// Builds a tenant-qualified MSHR key: the ASID occupies the top 16 bits
/// and the page (or line) number the low 48. For ASID 0 this is the
/// identity on `key`, so single-tenant keys are unchanged byte for byte.
///
/// # Panics
///
/// Panics (in debug builds) if `key` overflows 48 bits — virtual page
/// numbers top out at 36 bits on a 48-bit VA, far below the tag.
#[inline]
pub fn tenant_key(asid: u16, key: u64) -> u64 {
    debug_assert!(key < 1 << TENANT_KEY_SHIFT, "key overflows the ASID tag");
    ((asid as u64) << TENANT_KEY_SHIFT) | key
}

/// A hasher for `u64` line and page keys: one multiply by an odd
/// constant, then an xor-shift that folds the product's high half into
/// its low bits. The multiply spreads each key bit upward only, so the
/// fold is what lets the [`tenant_key`] ASID bits and the high bits of
/// strided keys reach the low bits that pick a bucket. It is fixed, not
/// seeded per process: the keys are simulator state, not adversarial
/// input, and a map's iteration order never reaches any output.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> TENANT_KEY_SHIFT);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed here; anything else folds bytewise.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by line or page numbers, hashed with [`KeyHasher`].
pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Outcome of trying to register a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must issue the downstream request.
    Allocated,
    /// Merged with an in-flight miss on the same key; the returned cycle
    /// is when that request completes.
    Merged(Cycle),
    /// No free entry; the requester must stall and retry.
    Full,
}

/// A fixed-capacity MSHR file keyed by an opaque `u64` (cache line index
/// or virtual page number), hashed with [`KeyHasher`].
///
/// # Examples
///
/// ```
/// use gmmu_mem::mshr::{MshrFile, MshrOutcome};
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.lookup(0xabc), None);
/// assert_eq!(mshrs.allocate(0xabc), MshrOutcome::Allocated);
/// mshrs.set_completion(0xabc, 500);
/// assert_eq!(mshrs.allocate(0xabc), MshrOutcome::Merged(500));
/// mshrs.expire(600);
/// assert_eq!(mshrs.lookup(0xabc), None);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    // key → completion cycle (NEVER until known).
    entries: KeyMap<Cycle>,
    // Known completions, lazily deleted: a heap element is live only
    // while `entries[key]` still holds the same cycle. [`MshrFile::expire`]
    // and [`MshrFile::earliest_completion`] pop (and discard) stale tops,
    // turning both from O(entries) scans into O(log n) per in-flight
    // completion — they run every core cycle on the TLB hot path. A file
    // whose entries leave by `release` may never pop its stale elements,
    // so [`MshrFile::set_completion`] rebuilds the heap from the live
    // entries once it holds twice the capacity.
    heap: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Peak simultaneous occupancy (diagnostics).
    peak: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Self {
            capacity,
            // Twice the occupancy bound: insert/remove churn leaves
            // tombstones, and hashbrown resizes (allocating) on an
            // insert that finds no free growth slot *unless* the live
            // items fit in half the table, in which case it rehashes in
            // place. The headroom pins every such rehash to the
            // in-place path, keeping the steady state allocation-free
            // whatever keys arrive and however they hash.
            entries: KeyMap::with_capacity_and_hasher(2 * capacity, Default::default()),
            heap: BinaryHeap::with_capacity(2 * capacity),
            peak: 0,
        }
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy seen so far.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Entries in flight whose [`tenant_key`] tag matches `asid`
    /// (watchdog diagnostics; single-tenant keys all report under 0).
    pub fn len_asid(&self, asid: u16) -> usize {
        self.entries
            .keys()
            .filter(|&&k| (k >> TENANT_KEY_SHIFT) as u16 == asid)
            .count()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers this MSHR file's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.capacity"), self.capacity as u64);
        reg.counter(format!("{prefix}.peak"), self.peak as u64);
    }

    /// Completion cycle of an in-flight miss on `key`, if any.
    pub fn lookup(&self, key: u64) -> Option<Cycle> {
        self.entries.get(&key).copied()
    }

    /// Registers a miss on `key`.
    pub fn allocate(&mut self, key: u64) -> MshrOutcome {
        if let Some(&done) = self.entries.get(&key) {
            return MshrOutcome::Merged(done);
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(key, gmmu_sim::NEVER);
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Records when the downstream request for `key` completes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `key` was never allocated.
    pub fn set_completion(&mut self, key: u64, done: Cycle) {
        let entry = self.entries.get_mut(&key);
        debug_assert!(entry.is_some(), "set_completion on unallocated MSHR");
        if let Some(e) = entry {
            *e = done;
            if self.heap.len() >= 2 * self.capacity {
                // At most `capacity` elements are live (this entry's
                // among them); dropping the stale rest keeps the heap
                // inside its allocation.
                self.heap.clear();
                self.heap.extend(
                    self.entries
                        .iter()
                        .filter(|&(_, &d)| d != gmmu_sim::NEVER)
                        .map(|(&k, &d)| Reverse((d, k))),
                );
            } else if done != gmmu_sim::NEVER {
                self.heap.push(Reverse((done, key)));
            }
        }
    }

    /// Releases every entry whose completion is `<= now`.
    pub fn expire(&mut self, now: Cycle) {
        while let Some(&Reverse((done, key))) = self.heap.peek() {
            if done > now {
                break;
            }
            self.heap.pop();
            // Stale heap elements (released, re-timed, or already expired
            // entries) are simply discarded.
            if self.entries.get(&key) == Some(&done) {
                self.entries.remove(&key);
            }
        }
    }

    /// Releases a specific entry (e.g. a squashed walk).
    pub fn release(&mut self, key: u64) -> bool {
        self.entries.remove(&key).is_some()
    }

    /// Earliest completion among in-flight entries (NEVER when empty or
    /// all unknown) — used to decide when a blocked TLB frees up.
    pub fn earliest_completion(&mut self) -> Cycle {
        while let Some(&Reverse((done, key))) = self.heap.peek() {
            if self.entries.get(&key) == Some(&done) {
                return done;
            }
            self.heap.pop();
        }
        gmmu_sim::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_full_cycle() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(1), MshrOutcome::Allocated);
        m.set_completion(1, 100);
        assert_eq!(m.allocate(1), MshrOutcome::Merged(100));
        assert_eq!(m.allocate(2), MshrOutcome::Allocated);
        assert_eq!(m.allocate(3), MshrOutcome::Full);
        assert_eq!(m.peak(), 2);
    }

    #[test]
    fn expire_releases_only_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(1);
        m.set_completion(1, 100);
        m.allocate(2);
        m.set_completion(2, 200);
        m.expire(150);
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.lookup(2), Some(200));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unknown_completion_never_expires() {
        let mut m = MshrFile::new(4);
        m.allocate(7);
        m.expire(u64::MAX - 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn earliest_completion_tracks_minimum() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.earliest_completion(), gmmu_sim::NEVER);
        m.allocate(1);
        m.set_completion(1, 300);
        m.allocate(2);
        m.set_completion(2, 100);
        assert_eq!(m.earliest_completion(), 100);
    }

    #[test]
    fn release_frees_entry() {
        let mut m = MshrFile::new(1);
        m.allocate(9);
        assert!(m.release(9));
        assert!(!m.release(9));
        assert_eq!(m.allocate(10), MshrOutcome::Allocated);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn tenant_keys_partition_the_file() {
        assert_eq!(tenant_key(0, 0xabc), 0xabc, "ASID 0 is the identity");
        assert_ne!(tenant_key(1, 0xabc), tenant_key(2, 0xabc));
        let mut m = MshrFile::new(8);
        m.allocate(tenant_key(0, 5));
        m.allocate(tenant_key(1, 5));
        m.allocate(tenant_key(1, 6));
        assert_eq!(m.len(), 3, "same page under two ASIDs never merges");
        assert_eq!(m.len_asid(0), 1);
        assert_eq!(m.len_asid(1), 2);
        assert_eq!(m.len_asid(2), 0);
        m.release(tenant_key(1, 5));
        assert_eq!(m.len_asid(1), 1);
        assert_eq!(m.lookup(tenant_key(0, 5)), Some(gmmu_sim::NEVER));
    }

    #[test]
    fn retimed_completion_expires_at_latest_value_only() {
        let mut m = MshrFile::new(4);
        m.allocate(1);
        m.set_completion(1, 100);
        m.set_completion(1, 200); // e.g. injected walk delay
        m.expire(150);
        assert_eq!(m.lookup(1), Some(200), "stale earlier time must not expire");
        assert_eq!(m.earliest_completion(), 200);
        m.expire(200);
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.earliest_completion(), gmmu_sim::NEVER);
    }

    #[test]
    fn retimed_completion_can_move_earlier() {
        let mut m = MshrFile::new(4);
        m.allocate(1);
        m.set_completion(1, 200);
        m.set_completion(1, 100);
        assert_eq!(m.earliest_completion(), 100);
        m.expire(100);
        assert_eq!(m.lookup(1), None);
        m.expire(250); // the stale (200, 1) element must not resurrect it
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn released_entries_do_not_grow_the_heap() {
        // Entries that leave by `release` (filled walks) leave stale
        // heap elements no `expire` pops.
        let mut m = MshrFile::new(4);
        let room = m.heap.capacity();
        for k in 0..1000u64 {
            m.allocate(k);
            m.set_completion(k, 10_000 + k);
            m.release(k);
            assert!(m.heap.len() <= 8, "heap holds {} elements", m.heap.len());
        }
        assert_eq!(m.heap.capacity(), room, "the heap reallocated");
        m.allocate(7);
        m.set_completion(7, 50);
        assert_eq!(m.earliest_completion(), 50);
    }

    #[test]
    fn release_then_reallocate_ignores_stale_heap_elements() {
        let mut m = MshrFile::new(2);
        m.allocate(5);
        m.set_completion(5, 100);
        m.release(5); // squashed walk
        assert_eq!(m.earliest_completion(), gmmu_sim::NEVER);
        m.allocate(5);
        m.set_completion(5, 100); // same cycle as the stale element
        m.expire(100);
        assert_eq!(m.lookup(5), None);
        m.allocate(5);
        m.expire(u64::MAX - 1); // unknown completion still never expires
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn matches_linear_reference_under_mixed_traffic() {
        // Exhaustive cross-check of the heap against a straightforward
        // map-scan implementation over a deterministic traffic pattern,
        // for three key families: small integers, one page under four
        // ASIDs ([`tenant_key`]) and 128-byte-strided line addresses.
        type KeyOf = fn(u64) -> u64;
        let families: [(&str, KeyOf); 3] = [
            ("small", |k| k),
            ("tenant", |k| tenant_key((k % 4) as u16, 0x4_2000 + k / 4)),
            ("strided", |k| 0x4000_0000 + (k << 7)),
        ];
        for (family, key_of) in families {
            let mut m = MshrFile::new(8);
            let mut reference: HashMap<u64, Cycle> = HashMap::new();
            let mut x: u64 = 0x9e3779b97f4a7c15;
            for step in 0..4096u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = key_of((x >> 32) % 16);
                match x % 4 {
                    0 => {
                        if m.allocate(key) == MshrOutcome::Allocated {
                            reference.insert(key, gmmu_sim::NEVER);
                        }
                    }
                    1 => {
                        if reference.contains_key(&key) {
                            let done = step + (x % 64);
                            m.set_completion(key, done);
                            reference.insert(key, done);
                        }
                    }
                    2 => {
                        m.release(key);
                        reference.remove(&key);
                    }
                    _ => {
                        m.expire(step);
                        reference.retain(|_, done| *done > step);
                    }
                }
                let want = reference.values().copied().min().unwrap_or(gmmu_sim::NEVER);
                assert_eq!(m.earliest_completion(), want, "{family} step {step}");
                assert_eq!(m.len(), reference.len(), "{family} step {step}");
                assert_eq!(
                    m.lookup(key),
                    reference.get(&key).copied(),
                    "{family} step {step}"
                );
            }
        }
    }

    #[test]
    fn key_hasher_spreads_tagged_and_strided_keys_over_buckets() {
        use std::hash::BuildHasher;
        // The low 7 bits pick one of the 128 buckets of a 64-entry
        // file's map. A plain multiply would leave every ASID of one
        // page in one bucket and every 128-byte-strided key in a
        // multiple of 128.
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let buckets = |keys: &mut dyn Iterator<Item = u64>| {
            let mut seen = [false; 128];
            for k in keys {
                seen[(hasher.hash_one(k) & 127) as usize] = true;
            }
            seen.iter().filter(|&&b| b).count()
        };
        let tagged = buckets(&mut (0..64u16).map(|a| tenant_key(a, 0x4_2000)));
        let strided = buckets(&mut (0..64u64).map(|i| 0x4000_0000 + (i << 7)));
        assert!(
            tagged >= 32,
            "64 ASIDs of one page fill only {tagged} buckets"
        );
        assert!(
            strided >= 32,
            "64 strided lines fill only {strided} buckets"
        );
    }
}
