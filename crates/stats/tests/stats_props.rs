//! Property tests for the statistics utilities: percentile queries must
//! agree with a sort-based reference, and the time-weighted average must
//! integrate exactly.

use proptest::prelude::*;
use ubrc_stats::{geomean, Histogram, TimeWeighted};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_match_a_sorted_reference(
        mut samples in proptest::collection::vec(0u64..1000, 1..300),
        p in 0.0f64..100.0,
    ) {
        let h: Histogram = samples.iter().copied().collect();
        samples.sort_unstable();
        // Nearest-rank reference.
        let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
        let expected = samples[rank - 1];
        prop_assert_eq!(h.percentile(p), Some(expected));
    }

    #[test]
    fn histogram_mean_matches_reference(
        samples in proptest::collection::vec(0u64..100_000, 1..200),
    ) {
        let h: Histogram = samples.iter().copied().collect();
        let expected = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let got = h.mean().unwrap();
        prop_assert!((got - expected).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_concatenation(
        a in proptest::collection::vec(0u64..100, 0..100),
        b in proptest::collection::vec(0u64..100, 0..100),
    ) {
        let mut merged: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        merged.merge(&hb);
        let combined: Histogram = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, combined);
    }

    #[test]
    fn time_weighted_integrates_step_functions(
        steps in proptest::collection::vec((1u64..50, 0u32..100), 1..40),
    ) {
        let mut t = TimeWeighted::new(0, 0.0);
        let mut now = 0u64;
        let mut integral = 0.0f64;
        let mut current = 0.0f64;
        for (dt, v) in steps {
            integral += current * dt as f64;
            now += dt;
            current = v as f64;
            t.update(now, current);
        }
        // Close out one more interval.
        integral += current * 10.0;
        let avg = t.average(now + 10).unwrap();
        let expected = integral / (now + 10) as f64;
        prop_assert!((avg - expected).abs() < 1e-9, "avg {avg} vs {expected}");
    }

    #[test]
    fn geomean_is_scale_invariant(
        vals in proptest::collection::vec(0.01f64..100.0, 1..30),
        k in 0.1f64..10.0,
    ) {
        let g = geomean(&vals).unwrap();
        let scaled: Vec<f64> = vals.iter().map(|v| v * k).collect();
        let gs = geomean(&scaled).unwrap();
        prop_assert!((gs / g - k).abs() < 1e-6);
    }
}
