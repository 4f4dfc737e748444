//! Measurement collection: histograms and summary statistics.
//!
//! Latency distributions in the reproduction span five orders of
//! magnitude (tens of nanoseconds to tens of milliseconds when a
//! TRYAGAIN timeout fires), so the histogram uses HDR-style
//! log-linear bucketing: values are recorded exactly for small inputs
//! and with bounded relative error (< 1/64) for large ones.

use crate::time::SimDuration;

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per octave => <1.6% error.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A log-linear histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use lauberhorn_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 1000);
/// assert!((s.p50 as f64 - 500.0).abs() < 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64;
    let octave = msb - SUB_BUCKET_BITS as u64 + 1;
    let sub = value >> octave;
    debug_assert!((SUB_BUCKETS / 2..SUB_BUCKETS).contains(&sub));
    (octave * (SUB_BUCKETS / 2) + sub) as usize
}

fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = (index - SUB_BUCKETS / 2) / (SUB_BUCKETS / 2);
    let sub = index - octave * (SUB_BUCKETS / 2);
    // Midpoint of the bucket keeps the representative error centred.
    (sub << octave) + (1 << octave) / 2
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration sample in picoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_ps());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Smallest recorded sample (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, with bounded relative error.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the representative to the observed extremes so
                // e.g. p100 never exceeds the true max.
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condenses the histogram into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// Summary statistics of a sample distribution.
///
/// All values carry whatever unit was recorded (the reproduction records
/// picoseconds for latencies and raw counts for everything else).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Renders the summary assuming picosecond samples, in microseconds.
    pub fn to_us_row(&self) -> String {
        format!(
            "n={:<8} mean={:>9.3}us p50={:>9.3}us p90={:>9.3}us p99={:>9.3}us p99.9={:>9.3}us max={:>9.3}us",
            self.count,
            self.mean / 1e6,
            self.p50 as f64 / 1e6,
            self.p90 as f64 / 1e6,
            self.p99 as f64 / 1e6,
            self.p999 as f64 / 1e6,
            self.max as f64 / 1e6,
        )
    }

    /// Median in (fractional) microseconds, assuming picosecond samples.
    pub fn p50_us(&self) -> f64 {
        self.p50 as f64 / 1e6
    }

    /// 99th percentile in microseconds, assuming picosecond samples.
    pub fn p99_us(&self) -> f64 {
        self.p99 as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 64);
        // Every small value occupies its own bucket.
        for v in 1..64u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn large_values_have_bounded_error() {
        for v in [100u64, 1_000, 123_456, 9_999_999, u32::MAX as u64 * 7] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 1.0 / 32.0, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
        }
        for v in 100..200 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 199);
        let p50 = a.quantile(0.5);
        assert!((95..=105).contains(&p50), "p50={p50}");
    }

    #[test]
    fn summary_reflects_distribution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 >= 990 && s.p50 <= 1_010, "p50={}", s.p50);
        assert!(s.max == 1_000_000);
        assert!(s.p999 > 900_000, "p999={}", s.p999);
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0usize;
        for v in 0..200_000u64 {
            let i = bucket_index(v);
            assert!(i >= last);
            last = i;
        }
    }
}
