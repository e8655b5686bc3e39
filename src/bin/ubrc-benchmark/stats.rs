//! Summaries of repeated measurements and the A/B verdict rules.

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// The best of `values` (best-of-R).
    pub fn best(self, values: &[f64]) -> f64 {
        let pick = |a: f64, b: f64| if self.beats(b, a) { b } else { a };
        values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
    }

    /// How much worse `new` is than `base`, as a share of `base`;
    /// negative when `new` is better.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

/// First quartile, median and third quartile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `values` by the method of Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// spreads computed here and by a Python script agree. One value is
    /// its own quartiles; none gives `None`.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Self {
                q1: v[0],
                p50: v[0],
                q3: v[0],
            }),
            _ => {
                let m = n + 1;
                let q = |i: usize| {
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Some(Self {
                    q1: q(1),
                    p50: q(2),
                    q3: q(3),
                })
            }
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn relative_spread(&self) -> f64 {
        (self.q3 - self.q1) / self.p50.abs()
    }
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(f64::NAN, |q| q.p50)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Outcome of comparing a change against its parent on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share of pairs `(base[i], new[i])` the change wins; ties count
/// for neither side.
pub fn win_share(base: &[f64], new: &[f64], better: Better) -> f64 {
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better.beats(n, b))
        .count();
    ratio(wins as f64, pairs as f64)
}

/// Fewest pairs of runs on which a change may be called improved or
/// regressed.
pub const MIN_PAIRS: usize = 10;

/// Applies the A/B rules to one metric, given its value in each run of
/// the parent (`base`) and of the change (`new`), both non-empty:
///
/// * improved — at least [`MIN_PAIRS`] pairs, the change wins at least
///   nine tenths of them, and the medians differ by more than the
///   distance between the parent's quartiles;
/// * unresolved — the quartile distance of either side exceeds `bound`
///   (as a share of its median), unless every run of the change reads
///   better than every run of the parent; or the change's median is
///   worse by more than `bound` on fewer than [`MIN_PAIRS`] pairs;
/// * regressed — the change's median is worse than the parent's by more
///   than `bound`;
/// * unchanged — otherwise.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (bq, nq) = (
        Quartiles::of(base).expect("non-empty"),
        Quartiles::of(new).expect("non-empty"),
    );
    let worse = better.worsening(bq.p50, nq.p50);
    let enough = base.len().min(new.len()) >= MIN_PAIRS;
    if enough
        && worse < 0.0
        && win_share(base, new, better) >= 0.9
        && (nq.p50 - bq.p50).abs() > bq.q3 - bq.q1
    {
        return Verdict::Improved;
    }
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| better.beats(n, b)));
    let spread = bq.relative_spread().max(nq.relative_spread());
    if (spread > bound && !all_better) || (worse > bound && !enough) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = Quartiles::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.p50, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.p50, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.p50, q.q3), (1.0, 2.0, 3.0));
        let q = Quartiles::of(&[4.0]).unwrap();
        assert_eq!((q.q1, q.p50, q.q3), (4.0, 4.0, 4.0));
        assert!(Quartiles::of(&[]).is_none());
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_of_follows_the_direction() {
        let v = [2.0, 3.5, 1.25, 3.0];
        assert_eq!(Better::Higher.best(&v), 3.5);
        assert_eq!(Better::Lower.best(&v), 1.25);
        assert!(Better::Lower.best(&[]).is_nan());
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 11.0), -0.1);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    const BASE: [f64; 10] = [10.0, 10.1, 10.0, 9.9, 10.0, 10.05, 9.95, 10.0, 10.0, 10.1];

    fn scaled(f: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * f).collect()
    }

    #[test]
    fn bound_check_separates_regressed_from_unchanged() {
        let v = |new: &[f64]| verdict(&BASE, new, Better::Lower, 0.1);
        assert_eq!(v(&scaled(1.2)), Verdict::Regressed);
        assert_eq!(v(&scaled(1.05)), Verdict::Unchanged);
    }

    #[test]
    fn improvement_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread() {
        assert_eq!(
            verdict(&BASE, &scaled(0.8), Better::Lower, 0.1),
            Verdict::Improved
        );
        // Eight wins in ten is not enough.
        let mut mixed = scaled(0.8);
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(win_share(&BASE, &mixed, Better::Lower), 0.8);
        assert_ne!(
            verdict(&BASE, &mixed, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Nor is a gap inside the parent's own spread.
        let noisy = [9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0];
        let slightly = [8.9, 10.9, 8.9, 10.9, 8.9, 10.9, 8.9, 10.9, 8.9, 10.9];
        assert_ne!(
            verdict(&noisy, &slightly, Better::Lower, 0.5),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0];
        let new = [11.0, 15.0, 9.0, 12.5, 9.5, 14.0];
        assert_eq!(
            verdict(&base, &new, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        let clearly = [7.0, 7.5, 7.2, 7.9, 7.1, 7.3];
        assert_eq!(
            verdict(&base, &clearly, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn too_few_pairs_never_regress_or_improve() {
        let v = |b: &[f64], n: &[f64]| verdict(b, n, Better::Lower, 0.1);
        assert_eq!(v(&[10.0], &[13.0]), Verdict::Unresolved);
        assert_eq!(v(&[10.0], &[10.5]), Verdict::Unchanged);
        assert_eq!(v(&[10.0], &[5.0]), Verdict::Unchanged);
        assert_eq!(v(&BASE[..9], &scaled(1.2)[..9]), Verdict::Unresolved);
    }
}
