//! DRAM channel timing.
//!
//! The paper's configuration has 8 memory channels (Section 5.2). Each
//! channel is modelled as a fixed access latency plus a bandwidth
//! reservation queue: back-to-back requests to one channel serialize at
//! the channel's service interval, which is how memory-intensive phases
//! see queueing delay without simulating DRAM banks row-by-row.

use gmmu_sim::stats::{Counter, Summary};
use gmmu_sim::Cycle;

/// Timing parameters of one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from request issue (post-queue) to data return.
    pub latency: u64,
    /// Minimum cycles between successive line transfers on one channel
    /// (128 B per `service` cycles = channel bandwidth).
    pub service: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            latency: 200,
            service: 4,
        }
    }
}

impl gmmu_sim::codec::Codec for DramConfig {
    fn save(&self, w: &mut gmmu_sim::codec::Saver) {
        w.u64(self.latency);
        w.u64(self.service);
    }
    fn load(
        &mut self,
        r: &mut gmmu_sim::codec::Loader<'_>,
    ) -> Result<(), gmmu_sim::codec::CodecError> {
        self.latency = r.u64()?;
        self.service = r.u64()?;
        Ok(())
    }
}

/// One DRAM channel.
///
/// # Examples
///
/// ```
/// use gmmu_mem::dram::{Channel, DramConfig};
/// let mut ch = Channel::new(DramConfig { latency: 100, service: 4 });
/// let first = ch.request(10);
/// let second = ch.request(10); // same-cycle request queues behind first
/// assert_eq!(first, 110);
/// assert_eq!(second, 114);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    config: DramConfig,
    next_free: Cycle,
    /// Requests serviced.
    pub requests: Counter,
    /// Observed per-request total latency (queueing + access).
    pub latency: Summary,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        Self {
            config,
            next_free: 0,
            requests: Counter::new(),
            latency: Summary::new(),
        }
    }

    /// Issues one line request at cycle `now`; returns the completion
    /// cycle (including any queueing delay).
    pub fn request(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.next_free);
        self.next_free = start + self.config.service;
        let done = start + self.config.latency;
        self.requests.inc();
        self.latency.record(done - now);
        done
    }

    /// Registers this channel's instruments under `prefix`.
    pub fn register_metrics(&self, prefix: &str, reg: &mut gmmu_sim::metrics::MetricsRegistry) {
        reg.counter(format!("{prefix}.requests"), self.requests.get());
        reg.gauge(format!("{prefix}.latency.mean"), self.latency.mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_has_pure_latency() {
        let cfg = DramConfig::default();
        let mut ch = Channel::new(cfg);
        assert_eq!(ch.request(1000), 1000 + cfg.latency);
    }

    #[test]
    fn burst_requests_queue() {
        let mut ch = Channel::new(DramConfig {
            latency: 100,
            service: 4,
        });
        let times: Vec<Cycle> = (0..4).map(|_| ch.request(0)).collect();
        assert_eq!(times, vec![100, 104, 108, 112]);
        assert_eq!(ch.requests.get(), 4);
        assert_eq!(ch.latency.max(), 112);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut ch = Channel::new(DramConfig {
            latency: 100,
            service: 4,
        });
        ch.request(0);
        ch.request(0);
        // By cycle 50 the channel is free again.
        assert_eq!(ch.request(50), 150);
    }
}
