use std::collections::BTreeMap;
use std::fmt;

/// An exact integer histogram over `u64` samples.
///
/// Backed by a [`BTreeMap`] so percentile queries walk buckets in value
/// order. The simulator records register lifetime phases, occupancy
/// snapshots, and dependence distances here; counts can reach billions, so
/// all tallies are `u64`.
///
/// # Examples
///
/// ```
/// use ubrc_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record_n(2, 3); // three samples of value 2
/// h.record(10);
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.median(), Some(2));
/// assert_eq!(h.max(), Some(10));
/// assert!((h.mean().unwrap() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a single sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value`. Recording zero samples is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.buckets.entry(value).or_insert(0) += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &n) in &other.buckets {
            self.record_n(v, n);
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// The `p`-th percentile (nearest-rank method), or `None` if empty.
    ///
    /// `p` is clamped to `[0, 100]`. `percentile(50.0)` is the median;
    /// `percentile(100.0)` equals [`Histogram::max`].
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: the smallest value v such that at least
        // ceil(p/100 * count) samples are <= v.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&v, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// Median sample (50th percentile, nearest-rank), or `None` if empty.
    pub fn median(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Iterates over `(value, count)` buckets in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &n)| (v, n))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.median(), self.max(), self.mean()) {
            (Some(lo), Some(med), Some(hi), Some(mean)) => write!(
                f,
                "n={} min={} med={} max={} mean={:.2}",
                self.count, lo, med, hi, mean
            ),
            _ => write!(f, "n=0 (empty)"),
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(90.0), None);
        assert_eq!(h.to_string(), "n=0 (empty)");
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.median(), Some(7));
        assert_eq!(h.percentile(0.0), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));
        assert_eq!(h.mean(), Some(7.0));
    }

    #[test]
    fn median_of_even_count_is_lower_middle() {
        // Nearest-rank median of {1,2,3,4} is the 2nd sample.
        let h: Histogram = [1u64, 2, 3, 4].into_iter().collect();
        assert_eq!(h.median(), Some(2));
    }

    #[test]
    fn percentiles_match_nearest_rank_definition() {
        let h: Histogram = (1..=100u64).collect();
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(90.0), Some(90));
        assert_eq!(h.percentile(1.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(100));
        // Clamping.
        assert_eq!(h.percentile(-5.0), Some(1));
        assert_eq!(h.percentile(250.0), Some(100));
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        let b: Histogram = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), [(1, 1), (2, 2), (3, 1)]);
        assert_eq!(a.sum(), 8);
    }

    #[test]
    fn extend_adds_samples() {
        let mut h = Histogram::new();
        h.extend([5u64, 6, 7]);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn display_summarizes() {
        let h: Histogram = [1u64, 3].into_iter().collect();
        assert_eq!(h.to_string(), "n=2 min=1 med=1 max=3 mean=2.00");
    }
}
