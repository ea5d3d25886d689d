//! Score traces and workload helpers.

use crate::Dataset;
use rand::Rng;
use serde::{Deserialize, Serialize};
use star_attention::Matrix;

/// A captured set of attention-score rows for one dataset proxy — the unit
/// the precision study (E4) consumes and the experiment harnesses persist
/// as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreTrace {
    /// Which dataset proxy generated the trace.
    pub dataset: Dataset,
    /// RNG seed used.
    pub seed: u64,
    /// The score rows.
    pub rows: Vec<Vec<f64>>,
}

impl ScoreTrace {
    /// Generates a trace from a dataset's calibrated profile.
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` is zero or `row_len < 4`.
    pub fn generate(dataset: Dataset, n_rows: usize, row_len: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rows = dataset.profile().generate_rows(n_rows, row_len, &mut rng);
        ScoreTrace { dataset, seed, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the trace holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The smallest and largest score in the trace (the §II range
    /// measurement); `(∞, −∞)` when the trace holds no score.
    pub fn score_range(&self) -> (f64, f64) {
        self.rows
            .iter()
            .flatten()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| (lo.min(s), hi.max(s)))
    }

    /// Largest |score| in the trace.
    pub fn max_abs(&self) -> f64 {
        self.rows.iter().flatten().map(|s| s.abs()).fold(0.0, f64::max)
    }
}

/// A random matrix with entries uniform in `[-scale, scale]` — Q/K/V inputs
/// for end-to-end attention tests.
///
/// # Panics
///
/// Panics if dimensions are zero or `scale` is not positive.
pub fn random_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Matrix {
    assert!(scale > 0.0, "scale must be positive");
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn trace_generation_deterministic() {
        let a = ScoreTrace::generate(Dataset::Cnews, 10, 32, 7);
        let b = ScoreTrace::generate(Dataset::Cnews, 10, 32, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        let c = ScoreTrace::generate(Dataset::Cnews, 10, 32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn score_range_spans_every_score() {
        let t = ScoreTrace::generate(Dataset::Cola, 5, 16, 1);
        let (lo, hi) = t.score_range();
        assert!(t.rows.iter().flatten().all(|&s| lo <= s && s <= hi));
        assert!(t.rows.iter().flatten().any(|&s| s == lo));
        assert!(t.rows.iter().flatten().any(|&s| s == hi));
        assert_eq!(lo.abs().max(hi.abs()), t.max_abs());
    }

    #[test]
    fn max_abs_sane() {
        let t = ScoreTrace::generate(Dataset::Mrpc, 50, 64, 2);
        let m = t.max_abs();
        assert!(m > 16.0, "MRPC peaks must exceed the 4-int-bit range, got {m}");
        assert!(m < 32.0, "MRPC scores must fit 5 integer bits, got {m}");
    }

    #[test]
    fn random_matrix_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = random_matrix(8, 4, 2.0, &mut rng);
        assert_eq!(m.shape(), (8, 4));
        assert!(m.as_slice().iter().all(|&v| v.abs() < 2.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn random_matrix_rejects_bad_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = random_matrix(2, 2, 0.0, &mut rng);
    }

    #[test]
    fn serde_round_trip() {
        let t = ScoreTrace::generate(Dataset::Cola, 2, 8, 5);
        let json = serde_json::to_string(&t).expect("serialize");
        let back: ScoreTrace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(t.dataset, back.dataset);
        assert_eq!(t.seed, back.seed);
        // serde_json's default float path is accurate to ~1 ULP; exact
        // round-trips would need its `float_roundtrip` feature.
        for (a, b) in t.rows.iter().flatten().zip(back.rows.iter().flatten()) {
            assert!((a - b).abs() <= a.abs() * 1e-15);
        }
    }
}
