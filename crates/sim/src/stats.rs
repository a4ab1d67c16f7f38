//! Summary statistics for experiment outputs.
//!
//! Small, allocation-light helpers: online mean/min/max (Welford),
//! percentiles over sorted samples, and fixed-width histograms.

use serde::{Deserialize, Serialize};

/// Online mean/variance accumulator (Welford's algorithm) — numerically
/// stable, single pass, O(1) memory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation on the
/// sorted data. Returns NaN for an empty slice.
///
/// Pre-sorted input is used as-is (one O(n) check). Unsorted input is
/// sorted into a temporary copy first — formerly this was only a
/// `debug_assert`, so a release build fed unsorted samples silently
/// returned garbage quantiles.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    if samples.len() == 1 {
        return samples[0];
    }
    let sorted_view;
    let sorted: &[f64] = if samples.windows(2).all(|w| w[0] <= w[1]) {
        samples
    } else {
        let mut copy = samples.to_vec();
        copy.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        sorted_view = copy;
        &sorted_view
    };
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Sort a sample and return (p50, p90, p99).
pub fn percentiles(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    (quantile(samples, 0.50), quantile(samples, 0.90), quantile(samples, 0.99))
}

/// A fixed-width histogram over `[lo, hi)` with values outside clamped into
/// the end bins. NaN observations are not recorded; they are counted in
/// [`Histogram::dropped`] instead (NaN would otherwise cast to bin 0 and
/// silently skew the distribution).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
    dropped: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width buckets covering `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram { lo, hi, bins: vec![0; bins], total: 0, dropped: 0 }
    }

    /// Record one observation. NaN is skipped and counted as dropped.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            self.dropped += 1;
            return;
        }
        let k = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64)
            .floor()
            .clamp(0.0, (self.bins.len() - 1) as f64) as usize;
        self.bins[k] += 1;
        self.total += 1;
    }

    /// The `q`-quantile of the recorded distribution at bucket granularity:
    /// the upper edge of the first bucket whose cumulative mass reaches
    /// `q`. Returns NaN if the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut cum = 0u64;
        for (k, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self.lo + width * (k + 1) as f64;
            }
        }
        self.hi
    }
}

#[cfg(test)]
impl Histogram {
    /// Raw bucket counts.
    pub(crate) fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations recorded (NaN drops excluded).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// NaN observations that were offered to [`Histogram::record`] and
    /// skipped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
impl OnlineStats {
    /// Unbiased sample variance (0 if fewer than two observations).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn percentiles_sorts_input() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let (p50, p90, p99) = percentiles(&mut xs);
        assert_eq!(p50, 3.0);
        assert!(p90 >= p50 && p99 >= p90);
        assert_eq!(xs, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9, -5.0, 15.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.bins()[0], 2, "0.5 and clamped -5.0");
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 2, "9.9 and clamped 15.0");
    }

    #[test]
    fn histogram_drops_nan_instead_of_bin_zero() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(f64::NAN);
        h.record(0.5);
        h.record(f64::NAN);
        assert_eq!(h.dropped(), 2, "NaN observations are counted");
        assert_eq!(h.total(), 1, "NaN observations are not recorded");
        assert_eq!(h.bins()[0], 1, "only the real 0.5 lands in bin 0");
    }

    #[test]
    fn histogram_quantile_at_bucket_granularity() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-12, "median at upper edge of bin 4");
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-12);
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-12, "q=0 maps to the first occupied bin");
        assert!(Histogram::new(0.0, 1.0, 4).quantile(0.5).is_nan());
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        // Pin the fix: unsorted samples give the same quantiles as their
        // sorted permutation (release builds used to interpolate garbage).
        let unsorted = [3.0, 1.0, 2.0, 4.0];
        let sorted = [1.0, 2.0, 3.0, 4.0];
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&unsorted, q), quantile(&sorted, q), "q={q}");
        }
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
    }

    mod merge_properties {
        use super::super::OnlineStats;
        use proptest::prelude::*;

        fn stats_of(xs: &[f64]) -> OnlineStats {
            let mut s = OnlineStats::new();
            for &x in xs {
                s.push(x);
            }
            s
        }

        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
        }

        fn assert_equivalent(a: &OnlineStats, b: &OnlineStats) {
            assert_eq!(a.count(), b.count());
            assert!(close(a.mean(), b.mean()), "mean {} vs {}", a.mean(), b.mean());
            assert!(
                close(a.variance(), b.variance()),
                "variance {} vs {}",
                a.variance(),
                b.variance()
            );
            if a.count() > 0 {
                assert_eq!(a.min(), b.min());
                assert_eq!(a.max(), b.max());
            }
        }

        proptest! {
            #[test]
            fn merge_is_associative_and_order_insensitive(
                xs in proptest::collection::vec(-1e3f64..1e3, 0..40),
                ys in proptest::collection::vec(-1e3f64..1e3, 0..40),
                zs in proptest::collection::vec(-1e3f64..1e3, 0..40),
            ) {
                let (sx, sy, sz) = (stats_of(&xs), stats_of(&ys), stats_of(&zs));

                // (x ⊕ y) ⊕ z
                let mut left = sx.clone();
                left.merge(&sy);
                left.merge(&sz);

                // x ⊕ (y ⊕ z)
                let mut yz = sy.clone();
                yz.merge(&sz);
                let mut right = sx.clone();
                right.merge(&yz);

                // z ⊕ (y ⊕ x): a different operand order entirely.
                let mut yx = sy.clone();
                yx.merge(&sx);
                let mut rev = sz.clone();
                rev.merge(&yx);

                // And the ground truth: one pass over the concatenation.
                let all: Vec<f64> =
                    xs.iter().chain(&ys).chain(&zs).copied().collect();
                let whole = stats_of(&all);

                assert_equivalent(&left, &right);
                assert_equivalent(&left, &rev);
                assert_equivalent(&left, &whole);
            }
        }
    }
}
