//! Per-shader-core translation lookaside buffers.
//!
//! The paper's design point (Section 6.2): one TLB per shader core,
//! shared by all SIMD lanes, looked up in parallel with the
//! virtually-indexed physically-tagged L1 data cache. Because the lookup
//! must finish by the time the L1 set is selected, capacity is bounded —
//! CACTI sizing says 128 entries is the largest geometry that adds no
//! L1 pipeline cycles; 256/512-entry TLBs pay extra cycles on *every*
//! access (Figure 6). Entries also record which warps recently hit them
//! (a 2-deep history fits in unused PTE bits, Section 8.2) to feed the
//! Common Page Matrix, and the allocating warp id to feed TCWS victim
//! tag arrays.

use gmmu_sim::stats::{Counter, Summary};
use gmmu_vm::{Ppn, Vpn};

/// How many warps a TLB entry remembers having hit it (Section 8.2 uses
/// a history length of 2, packed into unused PTE bits).
pub const WARP_HISTORY: usize = 2;

/// Non-blocking capabilities of the TLB (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TlbMode {
    /// Naive CPU-like blocking TLB: while any page walk is outstanding,
    /// no memory instruction can access the TLB. Warps running
    /// non-memory instructions proceed unhindered.
    #[default]
    Blocking,
    /// Hits from one warp proceed under misses from another; a second
    /// missing warp is swapped out and its walk queued.
    HitUnderMiss,
    /// [`TlbMode::HitUnderMiss`] plus intra-warp overlap: threads that
    /// hit the TLB access the L1 immediately, without waiting for the
    /// warp's missing threads to finish walking.
    HitUnderMissOverlap,
}

impl TlbMode {
    /// Whether hits may proceed while walks are outstanding.
    pub fn hits_under_miss(self) -> bool {
        !matches!(self, TlbMode::Blocking)
    }

    /// Whether TLB-hit threads of a partially missing warp may access
    /// the cache before the walks resolve.
    pub fn cache_overlap(self) -> bool {
        matches!(self, TlbMode::HitUnderMissOverlap)
    }
}

/// Geometry and behaviour of one per-core TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries (power of two).
    pub entries: usize,
    /// Associativity (the paper assumes 4-way, Section 7.2).
    pub ways: usize,
    /// Lookup ports: distinct PTE lookups per cycle.
    pub ports: usize,
    /// Non-blocking mode.
    pub mode: TlbMode,
    /// TLB MSHR entries — one per warp thread (32) in the paper.
    pub mshrs: usize,
    /// Pretend the geometry adds no access latency regardless of size
    /// (the paper's impractical "ideal 512-entry, 32-port" comparison).
    pub ideal_latency: bool,
}

impl TlbConfig {
    /// The naive baseline of Figure 2: 128 entries, 3 ports, blocking.
    pub fn naive() -> Self {
        Self {
            entries: 128,
            ways: 4,
            ports: 3,
            mode: TlbMode::Blocking,
            mshrs: 32,
            ideal_latency: false,
        }
    }

    /// The augmented design (Section 6.3): 4 ports, hit-under-miss,
    /// cache overlap. Pair with a coalescing walker for the full design.
    pub fn augmented() -> Self {
        Self {
            ports: 4,
            mode: TlbMode::HitUnderMissOverlap,
            ..Self::naive()
        }
    }

    /// The impractical ideal of Figures 7/10: 512 entries, 32 ports, no
    /// access-latency penalty.
    pub fn ideal_large() -> Self {
        Self {
            entries: 512,
            ways: 4,
            ports: 32,
            mode: TlbMode::HitUnderMissOverlap,
            mshrs: 32,
            ideal_latency: true,
        }
    }

    /// Extra pipeline cycles a lookup costs on top of the L1-parallel
    /// access, from CACTI-style sizing (Section 6.2): geometries at or
    /// below 128 entries hide entirely under L1 set selection; larger
    /// ones lengthen the memory pipeline.
    pub fn access_penalty(&self) -> u64 {
        if self.ideal_latency {
            return 0;
        }
        match self.entries {
            0..=128 => 0,
            129..=256 => 2,
            257..=512 => 4,
            _ => 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::naive()
    }
}

impl gmmu_sim::codec::Codec for TlbMode {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u8(match self {
            TlbMode::Blocking => 0,
            TlbMode::HitUnderMiss => 1,
            TlbMode::HitUnderMissOverlap => 2,
        });
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        *self = match r.u8()? {
            0 => TlbMode::Blocking,
            1 => TlbMode::HitUnderMiss,
            2 => TlbMode::HitUnderMissOverlap,
            _ => return Err(gmmu_sim::codec::CodecError::Corrupt("unknown TLB mode")),
        };
        Ok(())
    }
}

impl gmmu_sim::codec::Codec for TlbConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.usize(self.entries);
        w.usize(self.ways);
        w.usize(self.ports);
        self.mode.save(w);
        w.usize(self.mshrs);
        w.bool(self.ideal_latency);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.entries = r.usize()?;
        self.ways = r.usize()?;
        self.ports = r.usize()?;
        self.mode.load(r)?;
        self.mshrs = r.usize()?;
        self.ideal_latency = r.bool()?;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: Vpn,
    ppn: Ppn,
    /// Address-space identifier of the tenant that owns this
    /// translation. Lookups match on `(asid, vpn)`, so co-resident
    /// tenants can cache the same virtual page without interference.
    asid: u16,
    last_use: u64,
    /// Warp that allocated the entry (for victim tag arrays).
    owner: u16,
    /// Last warps that hit this entry (for the CPM).
    history: [u16; WARP_HISTORY],
    hist_len: u8,
    valid: bool,
}

const INVALID_ENTRY: TlbEntry = TlbEntry {
    vpn: Vpn::new(0),
    ppn: Ppn::new(0),
    asid: 0,
    last_use: 0,
    owner: 0,
    history: [0; WARP_HISTORY],
    hist_len: 0,
    valid: false,
};

/// Result of a TLB hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// The translation.
    pub ppn: Ppn,
    /// Depth of the entry in its set's LRU stack *before* this access
    /// (0 = MRU). TCWS weights scheduler updates by this depth
    /// (Section 7.2).
    pub lru_depth: u8,
    /// Warps that previously hit this entry, most recent first (CPM
    /// update input, Section 8.2).
    pub history: [u16; WARP_HISTORY],
    /// Valid prefix length of `history`.
    pub hist_len: u8,
}

/// An entry displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbVictim {
    /// Tenant the displaced entry belonged to.
    pub asid: u16,
    /// Virtual page of the displaced entry.
    pub vpn: Vpn,
    /// Warp that allocated it.
    pub owner: u16,
}

/// A set-associative, LRU, per-core TLB.
///
/// Port arbitration and access-latency charging happen in
/// [`crate::mmu::Mmu`]; this type is the replacement/lookup state.
///
/// # Examples
///
/// ```
/// use gmmu_core::tlb::{Tlb, TlbConfig};
/// use gmmu_vm::{Ppn, Vpn};
///
/// let mut tlb = Tlb::new(TlbConfig::naive());
/// assert!(tlb.lookup(Vpn::new(9), 0, 1).is_none());
/// tlb.fill(Vpn::new(9), Ppn::new(77), 0, 2);
/// let hit = tlb.lookup(Vpn::new(9), 3, 3).unwrap();
/// assert_eq!(hit.ppn, Ppn::new(77));
/// assert_eq!(hit.lru_depth, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<TlbEntry>,
    set_mask: u64,
    /// Lookups (one per distinct page presented).
    pub accesses: Counter,
    /// Lookup hits.
    pub hits: Counter,
    /// Fills performed.
    pub fills: Counter,
    /// LRU depth of hits (TCWS diagnostics).
    pub hit_depth: Summary,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count or `ways`
    /// does not divide `entries`.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.ways > 0 && config.entries.is_multiple_of(config.ways));
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        Self {
            config,
            entries: vec![INVALID_ENTRY; config.entries],
            set_mask: sets as u64 - 1,
            accesses: Counter::new(),
            hits: Counter::new(),
            fills: Counter::new(),
            hit_depth: Summary::new(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses.get() - self.hits.get()
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses.get() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses.get() as f64
        }
    }

    /// Registers this TLB's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.accesses"), self.accesses.get());
        reg.counter(format!("{prefix}.hits"), self.hits.get());
        reg.counter(format!("{prefix}.fills"), self.fills.get());
        reg.counter(format!("{prefix}.entries"), self.config.entries as u64);
        reg.gauge(format!("{prefix}.miss_rate"), self.miss_rate());
        reg.gauge(format!("{prefix}.hit_depth.mean"), self.hit_depth.mean());
    }

    #[inline]
    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.raw() & self.set_mask) as usize;
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// Looks up `vpn` on behalf of `warp` at recency `stamp`, updating
    /// LRU order, warp history, and statistics. Matches ASID-0 entries
    /// only; multi-tenant cores use [`Tlb::lookup_asid`].
    pub fn lookup(&mut self, vpn: Vpn, warp: u16, stamp: u64) -> Option<TlbHit> {
        self.lookup_asid(0, vpn, warp, stamp)
    }

    /// [`Tlb::lookup`] scoped to tenant `asid`: only entries tagged with
    /// the same ASID can hit.
    pub fn lookup_asid(&mut self, asid: u16, vpn: Vpn, warp: u16, stamp: u64) -> Option<TlbHit> {
        self.accesses.inc();
        let range = self.set_range(vpn);
        // LRU depth = how many valid entries in the set are more recent.
        let mut hit_idx = None;
        for i in range.clone() {
            let e = &self.entries[i];
            if e.valid && e.vpn == vpn && e.asid == asid {
                hit_idx = Some(i);
                break;
            }
        }
        let idx = hit_idx?;
        let depth = {
            let me = self.entries[idx].last_use;
            self.entries[range]
                .iter()
                .filter(|e| e.valid && e.last_use > me)
                .count() as u8
        };
        let e = &mut self.entries[idx];
        let hit = TlbHit {
            ppn: e.ppn,
            lru_depth: depth,
            history: e.history,
            hist_len: e.hist_len,
        };
        // Push this warp onto the entry's history (dedup the head so a
        // warp re-hitting does not flood the list).
        if e.hist_len == 0 || e.history[0] != warp {
            e.history[1] = e.history[0];
            e.history[0] = warp;
            e.hist_len = (e.hist_len + 1).min(WARP_HISTORY as u8);
        }
        e.last_use = stamp;
        self.hits.inc();
        self.hit_depth.record(depth as u64);
        Some(hit)
    }

    /// Presence check without perturbing LRU, history, or statistics
    /// (ASID 0; see [`Tlb::probe_asid`]).
    pub fn probe(&self, vpn: Vpn) -> bool {
        self.probe_asid(0, vpn)
    }

    /// [`Tlb::probe`] scoped to tenant `asid`.
    pub fn probe_asid(&self, asid: u16, vpn: Vpn) -> bool {
        self.entries[self.set_range(vpn)]
            .iter()
            .any(|e| e.valid && e.vpn == vpn && e.asid == asid)
    }

    /// Installs a translation for ASID 0, returning any displaced
    /// victim; multi-tenant cores use [`Tlb::fill_asid`].
    pub fn fill(&mut self, vpn: Vpn, ppn: Ppn, warp: u16, stamp: u64) -> Option<TlbVictim> {
        self.fill_asid(0, vpn, ppn, warp, stamp)
    }

    /// Installs a translation tagged with tenant `asid`, returning any
    /// displaced victim. The victim may belong to another tenant —
    /// capacity is shared — but a *match* (refill) never crosses ASIDs.
    pub fn fill_asid(
        &mut self,
        asid: u16,
        vpn: Vpn,
        ppn: Ppn,
        warp: u16,
        stamp: u64,
    ) -> Option<TlbVictim> {
        self.fills.inc();
        let range = self.set_range(vpn);
        let ways = &mut self.entries[range];
        // Refill over an existing entry for the same page (two walks can
        // race for one page only through MSHR merging, but stay safe).
        if let Some(e) = ways
            .iter_mut()
            .find(|e| e.valid && e.vpn == vpn && e.asid == asid)
        {
            e.ppn = ppn;
            e.last_use = stamp;
            return None;
        }
        let mut victim_idx = 0;
        let mut oldest = u64::MAX;
        for (i, e) in ways.iter().enumerate() {
            if !e.valid {
                victim_idx = i;
                break;
            }
            if e.last_use < oldest {
                oldest = e.last_use;
                victim_idx = i;
            }
        }
        let victim = ways[victim_idx].valid.then_some(TlbVictim {
            asid: ways[victim_idx].asid,
            vpn: ways[victim_idx].vpn,
            owner: ways[victim_idx].owner,
        });
        ways[victim_idx] = TlbEntry {
            vpn,
            ppn,
            asid,
            last_use: stamp,
            owner: warp,
            history: [warp, 0],
            hist_len: 1,
            valid: true,
        };
        victim
    }

    /// Invalidates every entry (TLB shootdown, Section 6.2: the GPU TLB
    /// is flushed when the launching CPU changes the page table).
    pub fn flush(&mut self) {
        self.entries.fill(INVALID_ENTRY);
    }

    /// Invalidates only the entries owned by tenant `asid` — the
    /// ASID-scoped shootdown. Other tenants' translations survive.
    pub fn flush_asid(&mut self, asid: u16) {
        for e in &mut self.entries {
            if e.valid && e.asid == asid {
                *e = INVALID_ENTRY;
            }
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Number of valid entries owned by tenant `asid` (per-tenant
    /// watchdog diagnostics).
    pub fn occupancy_asid(&self, asid: u16) -> usize {
        self.entries
            .iter()
            .filter(|e| e.valid && e.asid == asid)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        // 8 entries, 4-way → 2 sets.
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 4,
            ports: 4,
            mode: TlbMode::Blocking,
            mshrs: 32,
            ideal_latency: false,
        })
    }

    fn vpn(n: u64) -> Vpn {
        Vpn::new(n)
    }

    #[test]
    fn fill_then_hit() {
        let mut t = small();
        assert!(t.lookup(vpn(4), 0, 1).is_none());
        t.fill(vpn(4), Ppn::new(9), 2, 2);
        let hit = t.lookup(vpn(4), 5, 3).unwrap();
        assert_eq!(hit.ppn, Ppn::new(9));
        assert_eq!(t.accesses.get(), 2);
        assert_eq!(t.hits.get(), 1);
        assert_eq!(t.miss_rate(), 0.5);
    }

    #[test]
    fn lru_depth_reflects_recency() {
        let mut t = small();
        // Four pages in set 0 (even vpns with bit0 = 0 → set = vpn & 1).
        for (i, p) in [0u64, 2, 4, 6].iter().enumerate() {
            t.fill(vpn(*p), Ppn::new(*p), 0, i as u64 + 1);
        }
        // Page 0 is now LRU (depth 3); page 6 is MRU (depth 0).
        assert_eq!(t.lookup(vpn(6), 0, 10).unwrap().lru_depth, 0);
        assert_eq!(t.lookup(vpn(0), 0, 11).unwrap().lru_depth, 3);
        // After touching page 0 it is MRU.
        assert_eq!(t.lookup(vpn(0), 0, 12).unwrap().lru_depth, 0);
    }

    #[test]
    fn fill_evicts_lru_and_reports_owner() {
        let mut t = small();
        for (i, p) in [0u64, 2, 4, 6].iter().enumerate() {
            t.fill(vpn(*p), Ppn::new(*p), *p as u16, i as u64 + 1);
        }
        let victim = t.fill(vpn(8), Ppn::new(8), 7, 10).unwrap();
        assert_eq!(victim.vpn, vpn(0));
        assert_eq!(victim.owner, 0);
        assert!(!t.probe(vpn(0)));
        assert!(t.probe(vpn(8)));
    }

    #[test]
    fn warp_history_tracks_last_two_distinct() {
        let mut t = small();
        t.fill(vpn(2), Ppn::new(2), 10, 1);
        t.lookup(vpn(2), 11, 2);
        let h = t.lookup(vpn(2), 12, 3).unwrap();
        // Before warp 12's hit, history = [11, 10].
        assert_eq!(h.hist_len, 2);
        assert_eq!(h.history, [11, 10]);
        // Repeated hits by the same warp do not duplicate.
        let h2 = t.lookup(vpn(2), 12, 4).unwrap();
        assert_eq!(h2.history[0], 12);
        assert_eq!(h2.history[1], 11);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut t = small();
        t.fill(vpn(2), Ppn::new(2), 0, 1);
        let acc = t.accesses.get();
        assert!(t.probe(vpn(2)));
        assert!(!t.probe(vpn(4)));
        assert_eq!(t.accesses.get(), acc);
    }

    #[test]
    fn flush_empties() {
        let mut t = small();
        t.fill(vpn(2), Ppn::new(2), 0, 1);
        assert_eq!(t.occupancy(), 1);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(t.lookup(vpn(2), 0, 2).is_none());
    }

    #[test]
    fn access_penalty_tracks_cacti_sizing() {
        let mut cfg = TlbConfig::naive();
        assert_eq!(cfg.access_penalty(), 0);
        cfg.entries = 64;
        assert_eq!(cfg.access_penalty(), 0);
        cfg.entries = 256;
        assert_eq!(cfg.access_penalty(), 2);
        cfg.entries = 512;
        assert_eq!(cfg.access_penalty(), 4);
        assert_eq!(TlbConfig::ideal_large().access_penalty(), 0);
    }

    #[test]
    fn mode_capabilities() {
        assert!(!TlbMode::Blocking.hits_under_miss());
        assert!(TlbMode::HitUnderMiss.hits_under_miss());
        assert!(!TlbMode::HitUnderMiss.cache_overlap());
        assert!(TlbMode::HitUnderMissOverlap.cache_overlap());
    }

    #[test]
    fn asid_tags_isolate_tenants() {
        let mut t = small();
        t.fill_asid(1, vpn(2), Ppn::new(100), 0, 1);
        t.fill_asid(2, vpn(2), Ppn::new(200), 0, 2);
        // Same virtual page, two tenants, two live entries.
        assert_eq!(t.lookup_asid(1, vpn(2), 0, 3).unwrap().ppn, Ppn::new(100));
        assert_eq!(t.lookup_asid(2, vpn(2), 0, 4).unwrap().ppn, Ppn::new(200));
        assert!(t.lookup_asid(3, vpn(2), 0, 5).is_none());
        assert!(t.probe_asid(1, vpn(2)) && t.probe_asid(2, vpn(2)));
        assert!(!t.probe_asid(0, vpn(2)));
        // An ASID-scoped flush removes only that tenant's entries.
        t.flush_asid(1);
        assert!(!t.probe_asid(1, vpn(2)));
        assert_eq!(t.lookup_asid(2, vpn(2), 0, 6).unwrap().ppn, Ppn::new(200));
        assert_eq!(t.occupancy_asid(2), 1);
        assert_eq!(t.occupancy_asid(1), 0);
    }

    #[test]
    fn refill_same_page_has_no_victim() {
        let mut t = small();
        t.fill(vpn(2), Ppn::new(2), 0, 1);
        assert!(t.fill(vpn(2), Ppn::new(3), 1, 2).is_none());
        assert_eq!(t.lookup(vpn(2), 0, 3).unwrap().ppn, Ppn::new(3));
    }
}
