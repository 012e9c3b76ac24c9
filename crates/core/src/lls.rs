//! Lost-locality scoring.
//!
//! The scoring half of CCWS (Section 7.1): each warp carries a score that
//! victim-tag-array hits (and, in the TLB-aware variants, TLB events)
//! increase. When the summed score exceeds a cutoff the scheduler shrinks
//! the set of warps allowed to issue, keeping the *highest*-scoring warps
//! running — they hit most in the VTAs, so their lines are the most
//! recently evicted and they gain most from not being swapped out.
//! Scores decay over time so throttling relaxes when thrashing subsides.

use gmmu_sim::Cycle;

/// Tunables for [`Lls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlsConfig {
    /// Score mass per throttled warp: the number of warps removed from
    /// the schedulable set is `total_score / cutoff_unit`, so a larger
    /// unit throttles more conservatively.
    pub cutoff_unit: u32,
    /// Cycles between decay steps.
    pub decay_interval: u64,
    /// Right-shift applied at each decay step (scores lose
    /// `score >> decay_shift` per step).
    pub decay_shift: u32,
    /// Never throttle below this many schedulable warps.
    pub min_active: usize,
}

impl Default for LlsConfig {
    fn default() -> Self {
        Self {
            cutoff_unit: 512,
            decay_interval: 512,
            decay_shift: 4,
            min_active: 2,
        }
    }
}

impl gmmu_sim::codec::Codec for LlsConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u32(self.cutoff_unit);
        w.u64(self.decay_interval);
        w.u32(self.decay_shift);
        w.usize(self.min_active);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.cutoff_unit = r.u32()?;
        self.decay_interval = r.u64()?;
        self.decay_shift = r.u32()?;
        self.min_active = r.usize()?;
        Ok(())
    }
}

/// Per-warp lost-locality scores with cutoff-based issue throttling.
///
/// # Examples
///
/// ```
/// use gmmu_core::lls::{Lls, LlsConfig};
/// // three warps, tiny cutoff so one bump throttles
/// let mut lls = Lls::new(3, LlsConfig { cutoff_unit: 64, ..LlsConfig::default() });
/// assert!(lls.allowed(0) && lls.allowed(1) && lls.allowed(2));
/// lls.bump(1, 200);
/// assert!(lls.allowed(1));     // the high scorer stays schedulable
/// assert!(!lls.allowed(0) || !lls.allowed(2)); // somebody was throttled
/// ```
#[derive(Debug, Clone)]
pub struct Lls {
    config: LlsConfig,
    scores: Vec<u32>,
    total: u64,
    last_decay: Cycle,
    allowed: Vec<bool>,
    dirty: bool,
    /// Rotates tie-breaking among equal scores so zero-score warps take
    /// turns being throttled instead of starving.
    rotate: usize,
}

impl Lls {
    /// Creates scoring state for `n_warps` warps.
    ///
    /// # Panics
    ///
    /// Panics if `n_warps` is zero.
    pub fn new(n_warps: usize, config: LlsConfig) -> Self {
        assert!(n_warps > 0, "need at least one warp");
        Self {
            config,
            scores: vec![0; n_warps],
            total: 0,
            last_decay: 0,
            allowed: vec![true; n_warps],
            dirty: false,
            rotate: 0,
        }
    }

    /// Current score of a warp.
    pub fn score(&self, warp: usize) -> u32 {
        self.scores[warp]
    }

    /// Sum of all scores.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `amount` to a warp's score (a lost-locality event).
    pub fn bump(&mut self, warp: usize, amount: u32) {
        if amount == 0 {
            return;
        }
        self.scores[warp] = self.scores[warp].saturating_add(amount);
        self.total += amount as u64;
        self.dirty = true;
    }

    /// Applies time-based decay. Decay epochs are anchored at exact
    /// multiples of the decay interval, so the method may be called at
    /// any subset of cycles (the drive loop ticks a core only on its
    /// wake cycles): every elapsed epoch is caught up, which yields the
    /// same scores as calling it once per cycle, provided no score bump
    /// lands between a skipped epoch and its catch-up.
    pub fn tick(&mut self, now: Cycle) {
        let interval = self.config.decay_interval.max(1);
        while now
            .checked_sub(self.last_decay)
            .is_some_and(|d| d >= interval)
        {
            self.last_decay += interval;
            self.decay_once();
        }
    }

    /// The cycle at which the next decay epoch fires (scores may change
    /// and throttled warps may be released then).
    pub fn next_decay_at(&self) -> Cycle {
        self.last_decay
            .saturating_add(self.config.decay_interval.max(1))
    }

    fn decay_once(&mut self) {
        // Rotate zero-score throttling victims once per decay epoch:
        // stable enough for protected warps to reap reuse, fresh enough
        // that nobody starves.
        self.rotate = self.rotate.wrapping_add(1);
        let shift = self.config.decay_shift;
        let mut total = 0u64;
        for s in &mut self.scores {
            *s -= *s >> shift;
            // Sub-granularity residue dies off linearly.
            *s = s.saturating_sub(1);
            total += *s as u64;
        }
        self.total = total;
        self.dirty = true;
    }

    fn recompute(&mut self) {
        self.dirty = false;
        let n = self.scores.len();
        let throttle = ((self.total / self.config.cutoff_unit as u64) as usize)
            .min(n.saturating_sub(self.config.min_active));
        if throttle == 0 {
            self.allowed.fill(true);
            return;
        }
        // Throttle the `throttle` lowest-scoring warps; ties rotate per
        // decay epoch so score-less warps share the throttling instead
        // of starving.
        let rot = self.rotate;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&w| (self.scores[w], (w + rot) % n));
        self.allowed.fill(true);
        for &w in order.iter().take(throttle) {
            self.allowed[w] = false;
        }
    }

    /// Whether a warp may issue this cycle under the current scores.
    pub fn allowed(&mut self, warp: usize) -> bool {
        if self.dirty {
            self.recompute();
        }
        self.allowed[warp]
    }

    /// Number of warps currently schedulable.
    pub fn active_count(&mut self) -> usize {
        if self.dirty {
            self.recompute();
        }
        self.allowed.iter().filter(|a| **a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LlsConfig {
        LlsConfig {
            cutoff_unit: 100,
            decay_interval: 10,
            decay_shift: 1,
            min_active: 1,
        }
    }

    #[test]
    fn no_scores_means_no_throttling() {
        let mut lls = Lls::new(4, cfg());
        for w in 0..4 {
            assert!(lls.allowed(w));
        }
    }

    #[test]
    fn high_scorers_survive_throttling() {
        let mut lls = Lls::new(4, cfg());
        lls.bump(2, 150);
        lls.bump(3, 80);
        // total 230 → throttle 2 lowest (warps 0 and 1).
        assert!(!lls.allowed(0));
        assert!(!lls.allowed(1));
        assert!(lls.allowed(2));
        assert!(lls.allowed(3));
        assert_eq!(lls.active_count(), 2);
    }

    #[test]
    fn min_active_is_respected() {
        let mut lls = Lls::new(3, cfg());
        lls.bump(0, 100_000);
        assert!(lls.active_count() >= 1);
        assert!(lls.allowed(0), "the top scorer is always schedulable");
    }

    #[test]
    fn decay_releases_throttled_warps() {
        let mut lls = Lls::new(4, cfg());
        lls.bump(2, 150);
        assert!(lls.active_count() < 4);
        let mut now = 0;
        for _ in 0..200 {
            now += 10;
            lls.tick(now);
        }
        assert_eq!(lls.total(), 0);
        assert_eq!(lls.active_count(), 4);
    }

    #[test]
    fn tick_between_intervals_is_a_noop() {
        let mut lls = Lls::new(2, cfg());
        lls.bump(0, 64);
        let before = lls.score(0);
        lls.tick(5); // < decay_interval
        assert_eq!(lls.score(0), before);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut a = Lls::new(4, cfg());
        let mut b = Lls::new(4, cfg());
        for l in [&mut a, &mut b] {
            l.bump(1, 200);
        }
        for w in 0..4 {
            assert_eq!(a.allowed(w), b.allowed(w));
        }
    }

    #[test]
    fn zero_score_victims_rotate() {
        let mut lls = Lls::new(8, cfg());
        lls.bump(7, 150); // throttle 1 warp; 0..=6 tie at zero
        let first: Vec<bool> = (0..8).map(|w| lls.allowed(w)).collect();
        lls.tick(10); // next decay epoch rotates the victims
        lls.bump(7, 150);
        let second: Vec<bool> = (0..8).map(|w| lls.allowed(w)).collect();
        assert_ne!(first, second, "victims must rotate across epochs");
    }
}
