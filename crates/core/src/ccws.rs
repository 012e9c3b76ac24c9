//! Cache-conscious and TLB-conscious warp scheduling policies.
//!
//! Section 7 of the paper studies three locality-aware scheduler
//! policies, all built on victim tag arrays ([`crate::vta`]) and
//! lost-locality scoring ([`crate::lls`]):
//!
//! * **CCWS** (baseline, from Rogers et al. [52]) — per-warp *cache-line*
//!   VTAs, probed on L1 misses; hits bump the warp's score.
//! * **TA-CCWS** — CCWS whose scoring also weighs TLB misses `x:y`
//!   against cache misses (Figure 16 sweeps x ∈ {1, 2, 4, 8}). Weights
//!   are powers of two so hardware updates are shifts.
//! * **TCWS** — replaces cache-line VTAs with *page-granularity* TLB
//!   VTAs probed on TLB misses (half the area), and optionally bumps
//!   scores on TLB *hits* weighted by the entry's LRU-stack depth —
//!   a deep hit means the PTE was close to eviction (Figures 17, 18).
//!
//! The shader core forwards its memory-pipeline events here and asks
//! [`LocalityPolicy::issue_allowed`] before scheduling a warp.

use crate::lls::{Lls, LlsConfig};
use crate::vta::Vta;
use gmmu_sim::stats::Counter;
use gmmu_sim::Cycle;
use gmmu_vm::Vpn;

/// CCWS cache-line VTA geometry (Section 7.1): 16 entries, 8-way.
pub const CCWS_VTA_ENTRIES: usize = 16;
/// CCWS VTA associativity.
pub const CCWS_VTA_WAYS: usize = 8;

/// Which locality policy the scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Plain round-robin / greedy scheduling: no locality machinery.
    None,
    /// Cache-conscious wavefront scheduling.
    Ccws,
    /// TLB-aware CCWS: a TLB miss is scored `tlb_weight` times as much
    /// as a cache miss.
    TaCcws {
        /// Power-of-two weight on TLB misses (the `x` in `x:1`).
        tlb_weight: u32,
    },
    /// TLB-conscious warp scheduling with page-granularity VTAs.
    Tcws {
        /// VTA entries per warp (Figure 17 sweeps 2–16).
        entries_per_warp: usize,
        /// Score added for a TLB hit at LRU depth 0..=3 (Figure 18;
        /// all-zero disables depth weighting as in Figure 17).
        lru_weights: [u32; 4],
    },
}

impl PolicyKind {
    /// The Figure 18 best configuration: TCWS, 8 EPW, LRU(1,2,4,8).
    pub fn tcws_best() -> Self {
        PolicyKind::Tcws {
            entries_per_warp: 8,
            lru_weights: [1, 2, 4, 8],
        }
    }

    /// Whether the policy needs cache-line VTAs.
    pub fn uses_line_vtas(&self) -> bool {
        matches!(self, PolicyKind::Ccws | PolicyKind::TaCcws { .. })
    }

    /// Whether the policy needs page VTAs.
    pub fn uses_page_vtas(&self) -> bool {
        matches!(self, PolicyKind::Tcws { .. })
    }

    /// Victim-tag storage in tag-entries per warp — the hardware-cost
    /// comparison behind "TCWS requires only half the hardware"
    /// (page tags are also shorter than line tags, which this simple
    /// count understates).
    pub fn vta_entries_per_warp(&self) -> usize {
        match self {
            PolicyKind::None => 0,
            PolicyKind::Ccws | PolicyKind::TaCcws { .. } => CCWS_VTA_ENTRIES,
            PolicyKind::Tcws {
                entries_per_warp, ..
            } => *entries_per_warp,
        }
    }
}

/// Tunables shared by all policy kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Base score per lost-locality event (a VTA hit).
    pub unit: u32,
    /// Lost-locality scoring parameters.
    pub lls: LlsConfig,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            unit: 256,
            lls: LlsConfig::default(),
        }
    }
}

impl gmmu_sim::codec::Codec for PolicyKind {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        match *self {
            PolicyKind::None => w.u8(0),
            PolicyKind::Ccws => w.u8(1),
            PolicyKind::TaCcws { tlb_weight } => {
                w.u8(2);
                w.u32(tlb_weight);
            }
            PolicyKind::Tcws {
                entries_per_warp,
                lru_weights,
            } => {
                w.u8(3);
                w.usize(entries_per_warp);
                for weight in lru_weights {
                    w.u32(weight);
                }
            }
        }
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        *self = match r.u8()? {
            0 => PolicyKind::None,
            1 => PolicyKind::Ccws,
            2 => PolicyKind::TaCcws {
                tlb_weight: r.u32()?,
            },
            3 => {
                let entries_per_warp = r.usize()?;
                let mut lru_weights = [0u32; 4];
                for weight in &mut lru_weights {
                    *weight = r.u32()?;
                }
                PolicyKind::Tcws {
                    entries_per_warp,
                    lru_weights,
                }
            }
            _ => return Err(gmmu_sim::codec::CodecError::Corrupt("unknown policy kind")),
        };
        Ok(())
    }
}

impl gmmu_sim::codec::Codec for PolicyConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u32(self.unit);
        self.lls.save(w);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.unit = r.u32()?;
        self.lls.load(r)
    }
}

/// The locality-aware scheduling policy attached to one shader core.
///
/// # Examples
///
/// ```
/// use gmmu_core::ccws::{LocalityPolicy, PolicyConfig, PolicyKind};
///
/// let mut p = LocalityPolicy::new(PolicyKind::Ccws, 4, PolicyConfig::default());
/// // Warp 0's line got evicted, then warp 0 missed on it again:
/// p.on_l1_evict(0, 0x42);
/// p.on_l1_miss(0, 0x42, false);
/// assert!(p.lls().score(0) > 0);
/// ```
#[derive(Debug, Clone)]
pub struct LocalityPolicy {
    kind: PolicyKind,
    config: PolicyConfig,
    line_vtas: Vec<Vta>,
    page_vtas: Vec<Vta>,
    lls: Lls,
    /// Lost-locality events observed (any source).
    pub events: Counter,
}

impl LocalityPolicy {
    /// Creates the policy state for `n_warps` warps.
    pub fn new(kind: PolicyKind, n_warps: usize, config: PolicyConfig) -> Self {
        let line_vtas = if kind.uses_line_vtas() {
            (0..n_warps)
                .map(|_| Vta::new(CCWS_VTA_ENTRIES, CCWS_VTA_WAYS))
                .collect()
        } else {
            Vec::new()
        };
        let page_vtas = if let PolicyKind::Tcws {
            entries_per_warp, ..
        } = kind
        {
            (0..n_warps)
                .map(|_| Vta::new(entries_per_warp, entries_per_warp.min(8)))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            kind,
            config,
            line_vtas,
            page_vtas,
            lls: Lls::new(n_warps, config.lls),
            events: Counter::new(),
        }
    }

    /// The configured policy kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Read access to the scores (diagnostics and tests).
    pub fn lls(&self) -> &Lls {
        &self.lls
    }

    /// Registers this scheduler policy's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.lost_locality_events"), self.events.get());
    }

    /// An L1 line allocated by `owner` was evicted.
    pub fn on_l1_evict(&mut self, owner: u16, line: u64) {
        if self.kind.uses_line_vtas() {
            self.line_vtas[owner as usize].insert(line);
        }
    }

    /// `warp` missed in the L1 on `line`; `instr_tlb_missed` says whether
    /// the same memory instruction also took a TLB miss (TA-CCWS weighs
    /// those more heavily).
    pub fn on_l1_miss(&mut self, warp: u16, line: u64, instr_tlb_missed: bool) {
        if !self.kind.uses_line_vtas() {
            return;
        }
        if self.line_vtas[warp as usize].probe(line) {
            let weight = match self.kind {
                PolicyKind::TaCcws { tlb_weight } if instr_tlb_missed => tlb_weight,
                _ => 1,
            };
            self.events.inc();
            self.lls.bump(warp as usize, self.config.unit * weight);
        }
    }

    /// A TLB entry allocated by `owner` was evicted.
    pub fn on_tlb_evict(&mut self, owner: u16, vpn: Vpn) {
        if self.kind.uses_page_vtas() {
            self.page_vtas[owner as usize].insert(vpn.raw());
        }
    }

    /// `warp` missed in the TLB on `vpn`.
    pub fn on_tlb_miss(&mut self, warp: u16, vpn: Vpn) {
        if let PolicyKind::Tcws { .. } = self.kind {
            if self.page_vtas[warp as usize].probe(vpn.raw()) {
                self.events.inc();
                self.lls.bump(warp as usize, self.config.unit);
            }
        }
    }

    /// `warp` hit in the TLB at LRU-stack depth `depth` (0 = MRU).
    ///
    /// Depth-weighted hits are frequent, so they carry a small unit —
    /// they nudge scheduling decisions between the rarer VTA events
    /// (Section 7.2's "update LLS logic sufficiently often").
    pub fn on_tlb_hit(&mut self, warp: u16, depth: u8) {
        if let PolicyKind::Tcws { lru_weights, .. } = self.kind {
            let w = lru_weights[(depth as usize).min(3)];
            if w > 0 {
                self.lls
                    .bump(warp as usize, w * (self.config.unit / 32).max(1));
            }
        }
    }

    /// Time-based score decay; call once per core cycle.
    pub fn tick(&mut self, now: Cycle) {
        if !matches!(self.kind, PolicyKind::None) {
            self.lls.tick(now);
        }
    }

    /// The cycle of the next score-decay epoch, or `None` for the
    /// [`PolicyKind::None`] policy (which never changes state over
    /// time). Decay can release throttled warps, so a core must not
    /// sleep past it while throttling could matter.
    pub fn next_event_at(&self) -> Option<Cycle> {
        match self.kind {
            PolicyKind::None => None,
            _ => Some(self.lls.next_decay_at()),
        }
    }

    /// Whether the scheduler may issue from `warp` this cycle.
    pub fn issue_allowed(&mut self, warp: u16) -> bool {
        match self.kind {
            PolicyKind::None => true,
            _ => self.lls.allowed(warp as usize),
        }
    }

    /// Warps currently schedulable (diagnostics).
    pub fn active_warps(&mut self) -> usize {
        self.lls.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PolicyConfig {
        PolicyConfig {
            unit: 64,
            lls: LlsConfig {
                cutoff_unit: 128,
                decay_interval: 64,
                decay_shift: 2,
                min_active: 1,
            },
        }
    }

    #[test]
    fn none_policy_never_throttles() {
        let mut p = LocalityPolicy::new(PolicyKind::None, 4, cfg());
        p.on_l1_evict(0, 1);
        p.on_l1_miss(0, 1, true);
        p.on_tlb_miss(0, Vpn::new(1));
        for w in 0..4 {
            assert!(p.issue_allowed(w));
        }
        assert_eq!(p.lls().total(), 0);
    }

    #[test]
    fn ccws_scores_only_on_vta_hits() {
        let mut p = LocalityPolicy::new(PolicyKind::Ccws, 4, cfg());
        p.on_l1_miss(0, 0x42, false); // never evicted → no VTA hit
        assert_eq!(p.lls().score(0), 0);
        p.on_l1_evict(0, 0x42);
        p.on_l1_miss(0, 0x42, false);
        assert_eq!(p.lls().score(0), 64);
        // Another warp's eviction does not pollute warp 0's VTA.
        p.on_l1_evict(1, 0x43);
        p.on_l1_miss(0, 0x43, false);
        assert_eq!(p.lls().score(0), 64);
    }

    #[test]
    fn ta_ccws_weighs_tlb_missing_instructions() {
        let w4 = PolicyKind::TaCcws { tlb_weight: 4 };
        let mut p = LocalityPolicy::new(w4, 4, cfg());
        // A raw TLB miss is not itself a lost-locality event.
        p.on_tlb_miss(1, Vpn::new(9));
        assert_eq!(p.lls().score(1), 0);
        // A cache miss with a VTA hit whose instruction TLB-missed is
        // weighted 4:1 against one with a TLB hit.
        p.on_l1_evict(2, 7);
        p.on_l1_miss(2, 7, true);
        assert_eq!(p.lls().score(2), 4 * 64);
        p.on_l1_evict(3, 8);
        p.on_l1_miss(3, 8, false);
        assert_eq!(p.lls().score(3), 64);
    }

    #[test]
    fn tcws_uses_page_vtas_not_line_vtas() {
        let mut p = LocalityPolicy::new(PolicyKind::tcws_best(), 4, cfg());
        // Line events are ignored entirely.
        p.on_l1_evict(0, 1);
        p.on_l1_miss(0, 1, true);
        assert_eq!(p.lls().score(0), 0);
        // Page events drive scoring.
        p.on_tlb_evict(0, Vpn::new(5));
        p.on_tlb_miss(0, Vpn::new(5));
        assert_eq!(p.lls().score(0), 64);
    }

    #[test]
    fn tcws_lru_depth_weighting() {
        let mut p = LocalityPolicy::new(
            PolicyKind::Tcws {
                entries_per_warp: 8,
                lru_weights: [1, 2, 4, 8],
            },
            2,
            cfg(),
        );
        let unit = 64 / 32;
        p.on_tlb_hit(0, 0);
        assert_eq!(p.lls().score(0), unit);
        p.on_tlb_hit(0, 3);
        assert_eq!(p.lls().score(0), unit + 8 * unit);
        // Depth beyond 3 clamps.
        p.on_tlb_hit(1, 9);
        assert_eq!(p.lls().score(1), 8 * unit);
    }

    #[test]
    fn tcws_without_depth_weights_ignores_hits() {
        let mut p = LocalityPolicy::new(
            PolicyKind::Tcws {
                entries_per_warp: 8,
                lru_weights: [0, 0, 0, 0],
            },
            2,
            cfg(),
        );
        p.on_tlb_hit(0, 3);
        assert_eq!(p.lls().score(0), 0);
    }

    #[test]
    fn throttling_engages_and_relaxes() {
        let mut p = LocalityPolicy::new(PolicyKind::Ccws, 4, cfg());
        for _ in 0..8 {
            p.on_l1_evict(3, 9);
            p.on_l1_miss(3, 9, false);
        }
        assert!(p.issue_allowed(3));
        assert!(p.active_warps() < 4);
        let mut now = 0;
        for _ in 0..500 {
            now += 64;
            p.tick(now);
        }
        assert_eq!(p.active_warps(), 4);
    }

    #[test]
    fn hardware_cost_comparison() {
        assert_eq!(PolicyKind::Ccws.vta_entries_per_warp(), 16);
        assert_eq!(PolicyKind::tcws_best().vta_entries_per_warp(), 8);
        // "TLB-based VTAs in TCWS require half the area overhead."
        assert!(
            PolicyKind::tcws_best().vta_entries_per_warp() * 2
                <= PolicyKind::Ccws.vta_entries_per_warp()
        );
    }
}
