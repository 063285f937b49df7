//! Streaming and batch statistics used throughout the analysis crates.

use crate::special;

/// Single-pass mean/variance/extrema accumulator (Welford's algorithm).
///
/// ```
/// use rsc_sim_core::stats::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (0 if empty).
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation confidence interval around the mean at the given
    /// two-sided `confidence` level (e.g. `0.90`).
    pub fn mean_confidence_interval(&self, confidence: f64) -> (f64, f64) {
        let z = special::normal_quantile(0.5 + confidence / 2.0);
        let half = z * self.std_error();
        (self.mean() - half, self.mean() + half)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamingStats::new();
        s.extend(iter);
        s
    }
}

/// Linearly-interpolated quantile of a **sorted** slice; `q` in `[0, 1]`.
///
/// Returns `None` if the slice is empty.
///
/// ```
/// use rsc_sim_core::stats::quantile_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile_sorted(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile_sorted(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile_sorted(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Empirical CDF over a sample, for plotting and threshold analysis.
///
/// ```
/// use rsc_sim_core::stats::Ecdf;
///
/// let cdf = Ecdf::from_samples([3.0, 1.0, 2.0]);
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 2.0 / 3.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the empirical CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(sorted.iter().all(|x| !x.is_nan()), "NaN sample in ECDF");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 when empty).
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Value at the given quantile, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_sorted(&self.sorted, q)
    }

    /// The `(value, cumulative fraction)` step points, useful for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: StreamingStats = xs.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut sa: StreamingStats = a.iter().copied().collect();
        let sb: StreamingStats = b.iter().copied().collect();
        let all: StreamingStats = xs.iter().copied().collect();
        sa.merge(&sb);
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-9);
        assert!((sa.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: StreamingStats = [1.0, 2.0].iter().copied().collect();
        let before = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s, before);
        let mut e = StreamingStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn confidence_interval_widens_with_confidence() {
        let s: StreamingStats = (0..1000).map(|i| (i % 10) as f64).collect();
        let (lo90, hi90) = s.mean_confidence_interval(0.90);
        let (lo99, hi99) = s.mean_confidence_interval(0.99);
        assert!(hi99 - lo99 > hi90 - lo90);
        assert!(lo90 < s.mean() && s.mean() < hi90);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile_sorted(&xs, 0.25), Some(15.0));
        assert_eq!(quantile_sorted(&xs, 2.0), Some(30.0)); // clamped
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn ecdf_basics() {
        let cdf = Ecdf::from_samples([5.0, 1.0, 3.0, 3.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(3.0), 0.75);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        let pts = cdf.points();
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::from_samples([1.0, f64::NAN]);
    }
}
