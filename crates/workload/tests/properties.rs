//! Property-based tests for the workload generators.

use proptest::prelude::*;
use star_workload::{Dataset, ScoreTrace};

fn datasets() -> impl Strategy<Value = Dataset> {
    prop::sample::select(Dataset::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_respect_calibrated_bounds(ds in datasets(), seed in 0u64..10_000) {
        let trace = ScoreTrace::generate(ds, 16, 48, seed);
        let profile = ds.profile();
        let fmt = ds.paper_format();
        prop_assert_eq!(trace.len(), 16);
        // Nothing leaves the paper format's representable range.
        prop_assert!(trace.max_abs() <= profile.max_abs_score().max(profile.body_sigma * 8.0));
        prop_assert!(profile.max_abs_score() < fmt.max_value());
    }

    #[test]
    fn tie_structure_always_present(ds in datasets(), seed in 0u64..10_000) {
        let trace = ScoreTrace::generate(ds, 4, 32, seed);
        let gap = ds.profile().tie_gap;
        for row in &trace.rows {
            let mut sorted = row.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            prop_assert!((sorted[0] - sorted[1] - gap).abs() < 1e-9, "gap {}", sorted[0] - sorted[1]);
            // The winner sits in the upper half (so collapses flip argmax).
            let winner = star_attention::argmax(row);
            prop_assert!(winner >= row.len() / 2);
        }
    }

    #[test]
    fn determinism(ds in datasets(), seed in 0u64..1_000) {
        let a = ScoreTrace::generate(ds, 3, 16, seed);
        let b = ScoreTrace::generate(ds, 3, 16, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn score_range_is_attained_and_within_max_abs(
        ds in datasets(),
        rows in 1usize..8,
        len in 4usize..32,
    ) {
        let trace = ScoreTrace::generate(ds, rows, len, 1);
        let (lo, hi) = trace.score_range();
        prop_assert_eq!(trace.rows.iter().flatten().count(), rows * len);
        prop_assert!(trace.rows.iter().flatten().any(|&s| s == lo));
        prop_assert!(trace.rows.iter().flatten().any(|&s| s == hi));
        prop_assert!(hi <= trace.max_abs());
        prop_assert!(lo >= -trace.max_abs());
    }

    #[test]
    fn paper_format_is_minimal_for_profile(ds in datasets()) {
        // The calibrated profile's range requires exactly the paper
        // format's integer bits: peaks exceed the next-smaller format.
        let p = ds.profile();
        let fmt = ds.paper_format();
        let smaller_max = 2f64.powi(fmt.int_bits() as i32 - 1);
        prop_assert!(p.peak_score > smaller_max);
        prop_assert!(p.max_abs_score() < fmt.max_value());
        // And the tie gap requires exactly the paper's fraction bits.
        prop_assert!(p.tie_gap > fmt.resolution());
        prop_assert!(p.tie_gap < 2.0 * fmt.resolution());
    }
}
