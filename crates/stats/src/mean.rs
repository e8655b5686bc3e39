/// A time-weighted average of a piecewise-constant signal, used for
/// quantities like "average register cache occupancy" where the value is
/// sampled at irregular update points.
///
/// Call [`TimeWeighted::update`] whenever the signal changes; the value is
/// assumed constant between updates. Updates must use non-decreasing
/// timestamps.
///
/// # Examples
///
/// ```
/// use ubrc_stats::TimeWeighted;
///
/// let mut occ = TimeWeighted::new(0, 0.0);
/// occ.update(10, 4.0); // value was 0.0 for cycles 0..10
/// occ.update(20, 0.0); // value was 4.0 for cycles 10..20
/// assert_eq!(occ.average(20), Some(2.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeWeighted {
    last_time: u64,
    current: f64,
    weighted_sum: f64,
    start: u64,
}

impl TimeWeighted {
    /// Creates a tracker whose signal is `initial` starting at `start`.
    pub fn new(start: u64, initial: f64) -> Self {
        Self {
            last_time: start,
            current: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: u64, value: f64) {
        assert!(now >= self.last_time, "time went backwards");
        self.weighted_sum += self.current * (now - self.last_time) as f64;
        self.last_time = now;
        self.current = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The average of the signal over `[start, now]`, or `None` if the
    /// interval is empty. `now` must not precede the last update.
    pub fn average(&self, now: u64) -> Option<f64> {
        assert!(now >= self.last_time, "time went backwards");
        let span = now - self.start;
        if span == 0 {
            return None;
        }
        let total = self.weighted_sum + self.current * (now - self.last_time) as f64;
        Some(total / span as f64)
    }
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(0, 0.0)
    }
}

/// Geometric mean of a slice of positive values, or `None` for an empty
/// slice or any non-positive element.
///
/// The paper reports cross-benchmark performance as means over the suite;
/// geometric means are the standard for IPC ratios.
///
/// # Examples
///
/// ```
/// use ubrc_stats::geomean;
///
/// let g = geomean(&[2.0, 8.0]).unwrap();
/// assert!((g - 4.0).abs() < 1e-12);
/// assert_eq!(geomean(&[]), None);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_average_over_constant_signal() {
        let mut t = TimeWeighted::new(0, 5.0);
        t.update(100, 5.0);
        assert_eq!(t.average(100), Some(5.0));
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut t = TimeWeighted::new(0, 0.0);
        t.update(4, 8.0);
        // 0.0 for 4 cycles, 8.0 for 4 cycles -> average 4.0 at time 8.
        assert_eq!(t.average(8), Some(4.0));
        assert_eq!(t.current(), 8.0);
    }

    #[test]
    fn time_weighted_empty_interval() {
        let t = TimeWeighted::new(7, 3.0);
        assert_eq!(t.average(7), None);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut t = TimeWeighted::new(10, 0.0);
        t.update(5, 1.0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[-1.0]), None);
    }
}
