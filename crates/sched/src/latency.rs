//! Fixed-bucket log2 latency histograms and fairness metrics.
//!
//! Per-stream request latencies (block arrival → data burst completion)
//! are folded into a [`LatencyHistogram`] of 65 power-of-two buckets:
//! O(1) recording, O(1) memory regardless of sample count, and exact
//! counts with quantiles that are conservative (rounded up to the bucket's
//! upper bound) — so an extracted p99 is always ≥ the extracted p50.

/// Number of histogram buckets: one for latency 0 plus one per power of
/// two up to `2^63`.
const BUCKETS: usize = 65;

/// A log2-bucketed latency histogram.
///
/// Bucket 0 counts exact-zero samples; bucket `k ≥ 1` counts samples in
/// `[2^(k-1), 2^k - 1]`.  Quantiles report the matched bucket's upper
/// bound, so they are conservative and monotone in the quantile argument.
///
/// # Examples
///
/// ```
/// use tbi_sched::LatencyHistogram;
///
/// let mut histogram = LatencyHistogram::new();
/// for latency in [3, 5, 9, 200] {
///     histogram.record(latency);
/// }
/// assert_eq!(histogram.count(), 4);
/// assert!(histogram.p99() >= histogram.p50());
/// assert_eq!(histogram.max(), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sticky flag: the running sum overflowed `u64` at least once, so
    /// [`LatencyHistogram::mean`] understates the true mean.
    saturated: bool,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            saturated: false,
        }
    }

    /// Bucket index of `latency`: 0 for 0, else `64 - leading_zeros`.
    fn bucket_of(latency: u64) -> usize {
        (u64::BITS - latency.leading_zeros()) as usize
    }

    /// Upper bound of bucket `index` (inclusive).
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one latency sample.
    ///
    /// If the running sum would overflow `u64` it saturates instead — but
    /// the overflow is detected and latched (see
    /// [`LatencyHistogram::is_saturated`]) rather than silently producing a
    /// plausible-looking understated mean.
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
        self.sum = match self.sum.checked_add(latency) {
            Some(sum) => sum,
            None => {
                self.saturated = true;
                u64::MAX
            }
        };
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Merges `other` into `self` (saturation is sticky: the merged
    /// histogram is saturated if either input was, or if the merged sum
    /// overflows).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = match self.sum.checked_add(other.sum) {
            Some(sum) => sum,
            None => {
                self.saturated = true;
                u64::MAX
            }
        };
        self.saturated |= other.saturated;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Whether the running sum ever overflowed `u64` — when `true`,
    /// [`LatencyHistogram::mean`] is a lower bound on the true mean, not
    /// its value.  Counts, quantiles, min and max remain exact.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded samples (`u64::MAX` once
    /// [`LatencyHistogram::is_saturated`]).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean latency (0.0 when empty; never NaN).  A lower bound when
    /// [`LatencyHistogram::is_saturated`] is `true`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as the upper bound of the bucket
    /// holding the `ceil(q × count)`-th smallest sample; 0 when empty.
    ///
    /// The bound is conservative (a true quantile is never above it) and
    /// monotone in `q`, so `p99() ≥ p50()` always holds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                // The exact maximum is a tighter bound than the top
                // bucket's ceiling.
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Median latency upper bound.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency upper bound.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Jain's fairness index over per-stream values: `(Σx)² / (n × Σx²)`.
///
/// Returns 1.0 for an empty or all-zero slice (nothing is being treated
/// unfairly); otherwise the result lies in `[1/n, 1.0]`, with 1.0 meaning
/// all streams saw the same value.
///
/// # Examples
///
/// ```
/// let equal = tbi_sched::jain_fairness(&[2.0, 2.0, 2.0]);
/// assert!((equal - 1.0).abs() < 1e-12);
/// let skewed = tbi_sched::jain_fairness(&[10.0, 0.0, 0.0]);
/// assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn jain_fairness(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if values.is_empty() || sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (values.len() as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let histogram = LatencyHistogram::new();
        assert_eq!(histogram.count(), 0);
        assert_eq!(histogram.min(), 0);
        assert_eq!(histogram.max(), 0);
        assert_eq!(histogram.mean(), 0.0);
        assert_eq!(histogram.p50(), 0);
        assert_eq!(histogram.p99(), 0);
    }

    #[test]
    fn buckets_are_log2_with_exact_zero_bucket() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_upper(2), 3);
        assert_eq!(LatencyHistogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_bound_the_samples() {
        let mut histogram = LatencyHistogram::new();
        for latency in 1..=1000u64 {
            histogram.record(latency);
        }
        let p50 = histogram.p50();
        let p99 = histogram.p99();
        assert!(p50 >= 500, "p50 {p50} must bound the true median");
        assert!(p99 >= 990, "p99 {p99} must bound the true p99");
        assert!(p99 >= p50);
        assert!(p99 <= histogram.max());
        assert_eq!(histogram.quantile(1.0), 1000);
        assert_eq!(histogram.min(), 1);
        assert!((histogram.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_quantiles_equal_the_sample_bound() {
        let mut histogram = LatencyHistogram::new();
        histogram.record(100);
        // 100 lies in [64, 127]; the max tightens the bucket ceiling.
        assert_eq!(histogram.p50(), 100);
        assert_eq!(histogram.p99(), 100);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for latency in [0, 1, 7, 300] {
            left.record(latency);
            combined.record(latency);
        }
        for latency in [2, 9000] {
            right.record(latency);
            combined.record(latency);
        }
        left.merge(&right);
        assert_eq!(left, combined);
    }

    #[test]
    fn saturation_is_detected_and_sticky() {
        let mut histogram = LatencyHistogram::new();
        histogram.record(u64::MAX);
        assert!(!histogram.is_saturated(), "one sample fits exactly");
        histogram.record(1);
        assert!(histogram.is_saturated(), "overflow must latch the flag");
        // The mean is now a (large) lower bound, not a silent small value.
        assert!(histogram.mean() >= (u64::MAX / 2) as f64);
        histogram.record(0);
        assert!(histogram.is_saturated(), "the flag never clears");
        // Merge propagates the flag both ways.
        let mut clean = LatencyHistogram::new();
        clean.record(7);
        let mut merged = clean.clone();
        merged.merge(&histogram);
        assert!(merged.is_saturated());
        let mut other = LatencyHistogram::new();
        other.record(u64::MAX);
        let mut also = other.clone();
        also.merge(&other);
        assert!(also.is_saturated(), "merge overflow is detected too");
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        let n = 5;
        let skewed: Vec<f64> = (0..n).map(|i| if i == 0 { 9.0 } else { 0.0 }).collect();
        assert!((jain_fairness(&skewed) - 1.0 / n as f64).abs() < 1e-12);
        let mixed = jain_fairness(&[1.0, 2.0, 3.0]);
        assert!(mixed > 1.0 / 3.0 && mixed < 1.0);
    }
}
