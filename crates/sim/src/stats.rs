//! Statistics primitives used throughout the simulator.
//!
//! Every number the paper reports (miss rates, page divergence, per-miss
//! latencies, idle-cycle fractions) is accumulated with the types here so
//! that the figure harnesses can read them back uniformly.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use gmmu_sim::stats::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0 when `total` is 0).
    pub fn rate(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Mean/min/max/stddev accumulator without storing samples.
///
/// # Examples
///
/// ```
/// use gmmu_sim::stats::Summary;
/// let mut s = Summary::new();
/// s.record(10);
/// s.record(30);
/// assert_eq!(s.mean(), 20.0);
/// assert_eq!(s.max(), 30);
/// assert_eq!(s.stddev(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    count: u64,
    sum: u64,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v as u128 * v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Population standard deviation (0 when empty). Computed from the
    /// running sum of squares; the subtraction is clamped at zero so
    /// floating-point cancellation can never produce a NaN.
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let var = self.sum_sq as f64 / n - mean * mean;
        var.max(0.0).sqrt()
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A dense histogram over small integer values (e.g. page divergence,
/// which is bounded by the 32-thread warp width).
///
/// Values beyond the internal bound are clamped into the last bucket.
///
/// # Examples
///
/// ```
/// use gmmu_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(1);
/// h.record(4);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.mean(), 2.0);
/// assert_eq!(h.percentile(0.5), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Default bucket capacity: one bucket per possible warp page divergence.
const DEFAULT_BUCKETS: usize = 65;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram with the default bound (64).
    pub fn new() -> Self {
        Self::with_bound(DEFAULT_BUCKETS - 1)
    }

    /// Creates a histogram holding exact counts for values `0..=bound`.
    pub fn with_bound(bound: usize) -> Self {
        Self {
            buckets: vec![0; bound + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample (clamped into the last bucket when too large).
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = (v as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the (unclamped) samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of the (unclamped) samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Condenses the histogram into the fixed set of headline statistics
    /// the figure tables and metrics snapshots report.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            p50: self.percentile(0.5),
            p90: self.percentile(0.9),
            p99: self.percentile(0.99),
            max: self.max,
        }
    }

    /// The smallest bucket value `v` such that at least `p` (0..=1) of the
    /// samples are `<= v`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // At least one sample must be accumulated before the threshold is
        // met: p = 0.0 means "the smallest non-empty bucket", not bucket 0.
        let threshold = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (v, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= threshold {
                return v as u64;
            }
        }
        (self.buckets.len() - 1) as u64
    }

    /// Count of samples that fell in bucket `v`.
    pub fn bucket(&self, v: usize) -> u64 {
        self.buckets.get(v).copied().unwrap_or(0)
    }

    /// Merges another histogram of the same bound into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "merging histograms with different bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The headline statistics of one [`Histogram`], produced by
/// [`Histogram::summary`]. Percentiles inherit the histogram's bucket
/// clamping (values beyond the bound report as the bound); `sum`, `mean`
/// and `max` are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of the samples.
    pub sum: u64,
    /// Exact arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (bucket-resolution).
    pub p50: u64,
    /// 90th percentile (bucket-resolution).
    pub p90: u64,
    /// 99th percentile (bucket-resolution).
    pub p99: u64,
    /// Exact largest sample.
    pub max: u64,
}

impl crate::codec::Codec for Counter {
    fn save(&self, w: &mut crate::codec::Saver) {
        w.u64(self.0);
    }
    fn load(&mut self, r: &mut crate::codec::Loader<'_>) -> Result<(), crate::codec::CodecError> {
        self.0 = r.u64()?;
        Ok(())
    }
}

impl crate::codec::Codec for Summary {
    fn save(&self, w: &mut crate::codec::Saver) {
        w.u64(self.count);
        w.u64(self.sum);
        w.u128(self.sum_sq);
        w.u64(self.min);
        w.u64(self.max);
    }
    fn load(&mut self, r: &mut crate::codec::Loader<'_>) -> Result<(), crate::codec::CodecError> {
        self.count = r.u64()?;
        self.sum = r.u64()?;
        self.sum_sq = r.u128()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        Ok(())
    }
}

impl crate::codec::Codec for Histogram {
    fn save(&self, w: &mut crate::codec::Saver) {
        self.buckets.save(w);
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.max);
    }
    fn load(&mut self, r: &mut crate::codec::Loader<'_>) -> Result<(), crate::codec::CodecError> {
        self.buckets.load(r)?;
        self.count = r.u64()?;
        self.sum = r.u64()?;
        self.max = r.u64()?;
        Ok(())
    }
}

/// Ratio helper: `num / den` as a percentage, 0 when `den == 0`.
pub fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Ratio helper: `num / den`, 0 when `den == 0`.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.rate(40), 0.25);
        assert_eq!(c.rate(0), 0.0);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        for v in [5, 1, 9, 3] {
            s.record(v);
        }
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 4.5);
    }

    #[test]
    fn summary_merge_matches_combined_stream() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut all = Summary::new();
        for v in 0..10 {
            a.record(v);
            all.record(v);
        }
        for v in 100..105 {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all); // includes sum_sq, so stddev merges exactly
        assert_eq!(a.stddev(), all.stddev());
    }

    #[test]
    fn summary_stddev() {
        let mut s = Summary::new();
        assert_eq!(s.stddev(), 0.0);
        s.record(7);
        assert_eq!(s.stddev(), 0.0); // single sample has no spread
        let mut s = Summary::new();
        for v in [2, 4, 4, 4, 5, 5, 7, 9] {
            s.record(v);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.stddev(), 2.0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v % 10);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), 9);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn percentile_zero_skips_empty_buckets() {
        // Regression: a threshold of 0 used to be satisfied before any
        // mass accumulated, reporting bucket 0 even when it was empty.
        let mut h = Histogram::new();
        h.record(5);
        h.record(7);
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn histogram_clamps_but_means_exactly() {
        let mut h = Histogram::with_bound(4);
        h.record(100);
        h.record(0);
        assert_eq!(h.bucket(4), 1); // clamped
        assert_eq!(h.mean(), 50.0); // mean uses true values
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::with_bound(8);
        let mut b = Histogram::with_bound(8);
        a.record(1);
        b.record(2);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(2), 1);
        assert_eq!(a.max(), 3);
    }

    #[test]
    fn histogram_summary_headline_stats() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v % 10);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, h.sum());
        assert_eq!(s.mean, 4.5);
        assert_eq!(s.p50, 4);
        assert_eq!(s.p90, 8);
        assert_eq!(s.p99, 9);
        assert_eq!(s.max, 9);
        let empty = Histogram::new().summary();
        assert_eq!(empty, HistSummary::default());
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::with_bound(4);
        let b = Histogram::with_bound(8);
        a.merge(&b);
    }

    #[test]
    fn pct_and_ratio_handle_zero_denominator() {
        assert_eq!(pct(1, 0), 0.0);
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(3, 0), 0.0);
    }
}
