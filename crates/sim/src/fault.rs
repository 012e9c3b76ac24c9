//! Deterministic fault injection.
//!
//! A [`FaultInjector`] perturbs a run with the ugly cases a unified
//! CPU/GPU address space must survive — unmapped pages (demand faults),
//! delayed page walks, transient MSHR/queue-full rejections, and
//! TLB-shootdown storms — at configurable rates. Every decision is a
//! *pure function* of the injection seed and the event's coordinates
//! (page number, cycle), computed with the counter-based mixers in
//! [`crate::rng`]: no injector state, no ordering sensitivity, so two
//! runs with the same seed inject byte-identical fault schedules
//! regardless of execution engine or sweep parallelism.
//!
//! With [`FaultInjectConfig::off`] (the default) every hook answers "no
//! fault" without touching the RNG, which keeps injection-off runs
//! bit-identical to builds that predate the harness.

use crate::rng::mix3;
use crate::Cycle;

/// Domain-separation salts so the four fault classes draw independent
/// deterministic streams from one seed.
const SALT_UNMAP: u64 = 0xFA01;
const SALT_DELAY: u64 = 0xFA02;
const SALT_REJECT: u64 = 0xFA03;
const SALT_STORM: u64 = 0xFA04;
const SALT_MAJOR: u64 = 0xFA05;
const SALT_TENANT: u64 = 0xFA06;

/// Per-tenant seed perturbation: tenant `asid` draws its fault schedule
/// from `seed ^ tenant_salt(asid)`. ASID 0 gets salt 0, so single-tenant
/// runs (and tenant 0 of a multi-tenant run) see byte-identical
/// schedules to the legacy single-space harness.
#[inline]
pub fn tenant_salt(asid: u16) -> u64 {
    (asid as u64).wrapping_mul(SALT_TENANT.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
}

/// Deterministically classifies the fault on `vpn` as *major* (backing
/// data must be fetched before mapping) with probability `fraction`.
/// Used by the GPU's modeled CPU fault handler; a pure function of the
/// seed so both execution engines service identical fault schedules.
pub fn major_fault(seed: u64, vpn: u64, fraction: f64) -> bool {
    fraction >= 1.0 || (fraction > 0.0 && unit(mix3(seed ^ SALT_MAJOR, vpn, 0)) < fraction)
}

/// Rates and magnitudes for deterministic fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjectConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Fraction of data pages left unmapped before launch, so first
    /// touches demand-fault (1.0 = zero pre-mapped pages).
    pub unmap_fraction: f64,
    /// Probability that a completed page walk's fill is delayed.
    pub walk_delay_rate: f64,
    /// Extra cycles added to a delayed walk fill.
    pub walk_delay_cycles: u64,
    /// Probability that a translation request takes a transient
    /// queue-full rejection and must retry.
    pub reject_rate: f64,
    /// Cycles between TLB-shootdown storms (0 = no storms). Each storm
    /// remaps one deterministically-chosen region.
    pub storm_period: Cycle,
    /// Number of storms to inject before the schedule goes quiet.
    pub storms: u32,
}

impl FaultInjectConfig {
    /// No injection at all: every hook is a constant "no".
    pub fn off() -> Self {
        Self {
            seed: 0,
            unmap_fraction: 0.0,
            walk_delay_rate: 0.0,
            walk_delay_cycles: 0,
            reject_rate: 0.0,
            storm_period: 0,
            storms: 0,
        }
    }

    /// Fully demand-paged start: zero pre-mapped pages, no other faults.
    pub fn demand_paged(seed: u64) -> Self {
        Self {
            seed,
            unmap_fraction: 1.0,
            ..Self::off()
        }
    }

    /// A shootdown storm every `period` cycles, `storms` times.
    pub fn storm(seed: u64, period: Cycle, storms: u32) -> Self {
        Self {
            seed,
            storm_period: period,
            storms,
            ..Self::off()
        }
    }

    /// The mixed-fault smoke configuration `tests/faults.rs` and
    /// `tests/trace.rs` run on every workload: moderate rates of every
    /// fault class at once, so each recovery path is exercised.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            unmap_fraction: 0.25,
            walk_delay_rate: 0.05,
            walk_delay_cycles: 400,
            reject_rate: 0.02,
            storm_period: 30_000,
            storms: 4,
        }
    }

    /// The same configuration re-seeded for tenant `asid`: every fault
    /// class draws an independent deterministic stream per tenant.
    /// `for_tenant(0)` is the identity, preserving single-tenant
    /// schedules bit-for-bit.
    pub fn for_tenant(&self, asid: u16) -> Self {
        Self {
            seed: self.seed ^ tenant_salt(asid),
            ..*self
        }
    }

    /// True when any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.unmap_fraction > 0.0
            || self.walk_delay_rate > 0.0
            || self.reject_rate > 0.0
            || (self.storm_period > 0 && self.storms > 0)
    }
}

impl Default for FaultInjectConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl crate::codec::Codec for FaultInjectConfig {
    fn save(&self, w: &mut crate::codec::Saver) {
        w.u64(self.seed);
        w.f64(self.unmap_fraction);
        w.f64(self.walk_delay_rate);
        w.u64(self.walk_delay_cycles);
        w.f64(self.reject_rate);
        w.u64(self.storm_period);
        w.u32(self.storms);
    }
    fn load(&mut self, r: &mut crate::codec::Loader<'_>) -> Result<(), crate::codec::CodecError> {
        self.seed = r.u64()?;
        self.unmap_fraction = r.f64()?;
        self.walk_delay_rate = r.f64()?;
        self.walk_delay_cycles = r.u64()?;
        self.reject_rate = r.f64()?;
        self.storm_period = r.u64()?;
        self.storms = r.u32()?;
        Ok(())
    }
}

/// Converts a mixed 64-bit value into a uniform draw in `[0, 1)`.
#[inline]
fn unit(m: u64) -> f64 {
    (m >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless decision engine over a [`FaultInjectConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    cfg: FaultInjectConfig,
}

impl FaultInjector {
    /// Wraps a configuration.
    pub fn new(cfg: FaultInjectConfig) -> Self {
        Self { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &FaultInjectConfig {
        &self.cfg
    }

    /// Should this page start unmapped (demand-fault on first touch)?
    pub fn unmap_page(&self, vpn: u64) -> bool {
        self.cfg.unmap_fraction >= 1.0
            || (self.cfg.unmap_fraction > 0.0
                && unit(mix3(self.cfg.seed, SALT_UNMAP, vpn)) < self.cfg.unmap_fraction)
    }

    /// Extra delay (possibly 0) applied to a walk for `vpn` enqueued at
    /// `enqueued`.
    pub fn walk_delay(&self, vpn: u64, enqueued: Cycle) -> Cycle {
        if self.cfg.walk_delay_rate > 0.0
            && unit(mix3(self.cfg.seed ^ SALT_DELAY, vpn, enqueued)) < self.cfg.walk_delay_rate
        {
            self.cfg.walk_delay_cycles
        } else {
            0
        }
    }

    /// Should the translation request issued at `now` by `requester` take
    /// a transient queue-full rejection?
    pub fn reject(&self, now: Cycle, requester: u64) -> bool {
        self.cfg.reject_rate > 0.0
            && unit(mix3(self.cfg.seed ^ SALT_REJECT, now, requester)) < self.cfg.reject_rate
    }

    /// Cycle at which storm number `k` (1-based) fires, if scheduled.
    pub fn storm_at(&self, k: u32) -> Option<Cycle> {
        (self.cfg.storm_period > 0 && k >= 1 && k <= self.cfg.storms)
            .then(|| self.cfg.storm_period * k as Cycle)
    }

    /// Deterministically picks which of `n_regions` regions storm `k`
    /// remaps.
    pub fn storm_region(&self, k: u32, n_regions: usize) -> usize {
        debug_assert!(n_regions > 0);
        (mix3(self.cfg.seed ^ SALT_STORM, k as u64, 0) % n_regions as u64) as usize
    }

    /// Deterministically picks which of `n_tenants` tenants storm `k`
    /// hits. Always tenant 0 for single-tenant runs, so the legacy storm
    /// schedule is unchanged.
    pub fn storm_victim(&self, k: u32, n_tenants: usize) -> u16 {
        debug_assert!(n_tenants > 0);
        if n_tenants == 1 {
            return 0;
        }
        (mix3(self.cfg.seed ^ SALT_STORM, k as u64, 1) % n_tenants as u64) as u16
    }

    /// [`FaultInjector::walk_delay`] drawn from tenant `asid`'s stream.
    /// ASID 0 is identical to the untenanted decision.
    pub fn walk_delay_t(&self, asid: u16, vpn: u64, enqueued: Cycle) -> Cycle {
        if self.cfg.walk_delay_rate > 0.0
            && unit(mix3(
                self.cfg.seed ^ tenant_salt(asid) ^ SALT_DELAY,
                vpn,
                enqueued,
            )) < self.cfg.walk_delay_rate
        {
            self.cfg.walk_delay_cycles
        } else {
            0
        }
    }

    /// [`FaultInjector::reject`] drawn from tenant `asid`'s stream.
    /// ASID 0 is identical to the untenanted decision.
    pub fn reject_t(&self, asid: u16, now: Cycle, requester: u64) -> bool {
        self.cfg.reject_rate > 0.0
            && unit(mix3(
                self.cfg.seed ^ tenant_salt(asid) ^ SALT_REJECT,
                now,
                requester,
            )) < self.cfg.reject_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_never_fires() {
        let inj = FaultInjector::new(FaultInjectConfig::off());
        assert!(!inj.config().enabled());
        for i in 0..1000u64 {
            assert!(!inj.unmap_page(i));
            assert_eq!(inj.walk_delay(i, i * 3), 0);
            assert!(!inj.reject(i, i % 7));
        }
        assert_eq!(inj.storm_at(1), None);
    }

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let a = FaultInjector::new(FaultInjectConfig::smoke(7));
        let b = FaultInjector::new(FaultInjectConfig::smoke(7));
        let c = FaultInjector::new(FaultInjectConfig::smoke(8));
        let mut diverged = false;
        for i in 0..4096u64 {
            assert_eq!(a.unmap_page(i), b.unmap_page(i));
            assert_eq!(a.walk_delay(i, 100 + i), b.walk_delay(i, 100 + i));
            assert_eq!(a.reject(i, i % 48), b.reject(i, i % 48));
            diverged |= a.unmap_page(i) != c.unmap_page(i);
        }
        assert!(diverged, "different seeds must inject different schedules");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(FaultInjectConfig {
            seed: 42,
            unmap_fraction: 0.25,
            ..FaultInjectConfig::off()
        });
        let hits = (0..10_000u64).filter(|&v| inj.unmap_page(v)).count();
        assert!((2_000..3_000).contains(&hits), "25% ± 5%: {hits}");
    }

    #[test]
    fn full_unmap_fraction_unmaps_everything() {
        let inj = FaultInjector::new(FaultInjectConfig::demand_paged(3));
        assert!((0..1000u64).all(|v| inj.unmap_page(v)));
    }

    #[test]
    fn tenant_zero_streams_match_legacy() {
        let inj = FaultInjector::new(FaultInjectConfig::smoke(7));
        let t0 = FaultInjector::new(FaultInjectConfig::smoke(7).for_tenant(0));
        let mut t1_diverged = false;
        for i in 0..2048u64 {
            assert_eq!(inj.walk_delay(i, 100 + i), inj.walk_delay_t(0, i, 100 + i));
            assert_eq!(inj.reject(i, i % 48), inj.reject_t(0, i, i % 48));
            assert_eq!(inj.unmap_page(i), t0.unmap_page(i));
            t1_diverged |= inj.walk_delay(i, 100 + i) != inj.walk_delay_t(1, i, 100 + i);
            t1_diverged |= inj.unmap_page(i)
                != FaultInjector::new(FaultInjectConfig::smoke(7).for_tenant(1)).unmap_page(i);
        }
        assert!(t1_diverged, "tenant 1 must draw an independent stream");
        assert_eq!(inj.storm_victim(1, 1), 0, "single tenant always storms 0");
        let victims: std::collections::HashSet<u16> =
            (1..64).map(|k| inj.storm_victim(k, 4)).collect();
        assert!(victims.len() > 1, "storms must spread across tenants");
        assert!(victims.iter().all(|&v| v < 4));
    }

    #[test]
    fn storm_schedule_is_bounded() {
        let inj = FaultInjector::new(FaultInjectConfig::storm(1, 10_000, 3));
        assert_eq!(inj.storm_at(1), Some(10_000));
        assert_eq!(inj.storm_at(3), Some(30_000));
        assert_eq!(inj.storm_at(4), None);
        for k in 1..=3 {
            assert!(inj.storm_region(k, 5) < 5);
        }
    }
}
