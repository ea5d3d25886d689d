//! Scaled dot-product and multi-head attention execution.

use crate::{softmax_rows, AttentionConfig, Matrix, RowSoftmax, ShapeError};

/// Output of one attention evaluation, exposing the intermediates the
/// precision study needs (raw scores before softmax, probabilities after).
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionOutput {
    /// The attention context (`P·V`), `seq_len × d`.
    pub context: Matrix,
    /// Raw scaled scores (`QKᵀ/√d`), `seq_len × seq_len` — the values whose
    /// dynamic range the §II bitwidth analysis measures.
    pub scores: Matrix,
    /// Post-softmax probabilities, `seq_len × seq_len`.
    pub probs: Matrix,
}

/// Single-head scaled dot-product attention with a pluggable softmax:
/// `Attention(Q, K, V) = softmax(QKᵀ/√d_k) · V`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `Q`, `K`, `V` shapes are inconsistent
/// (`Q: n×d`, `K: m×d`, `V: m×d_v`).
///
/// # Examples
///
/// ```
/// use star_attention::{scaled_dot_attention, ExactSoftmax, Matrix};
///
/// let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let k = q.clone();
/// let v = Matrix::from_rows(&[vec![10.0], vec![20.0]])?;
/// let out = scaled_dot_attention(&q, &k, &v, &mut ExactSoftmax::new())?;
/// // Each query attends mostly to its matching key.
/// assert!(out.context.get(0, 0) < 15.0);
/// assert!(out.context.get(1, 0) > 15.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn scaled_dot_attention<S: RowSoftmax + ?Sized>(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    softmax: &mut S,
) -> Result<AttentionOutput, ShapeError> {
    if q.cols() != k.cols() || k.rows() != v.rows() {
        return Err(ShapeError { lhs: q.shape(), rhs: k.shape(), op: "attention" });
    }
    let scale = 1.0 / (q.cols() as f64).sqrt();
    let scores = q.matmul(&k.transpose())?.scale(scale);
    let probs = softmax_rows(softmax, &scores);
    let context = probs.matmul(v)?;
    Ok(AttentionOutput { context, scores, probs })
}

/// Multi-head attention over pre-projected `Q`, `K`, `V` of shape
/// `seq_len × d_model`: the model dimension is split into
/// `config.num_heads` contiguous head slices, each attended independently,
/// and the head contexts are concatenated.
///
/// (Input/output projections are left to the caller — the accelerator
/// models account their cost separately, and the precision study only
/// concerns the score → softmax → context path.)
///
/// # Errors
///
/// Returns a [`ShapeError`] if the input shapes do not match
/// `config.seq_len × config.d_model`.
pub fn multi_head_attention<S: RowSoftmax + ?Sized>(
    config: &AttentionConfig,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    softmax: &mut S,
) -> Result<AttentionOutput, ShapeError> {
    validate_mha_inputs(config, q, k, v)?;
    let mut heads = Vec::with_capacity(config.num_heads);
    for h in 0..config.num_heads {
        heads.push(scaled_dot_attention(
            &head_slice(config, q, h),
            &head_slice(config, k, h),
            &head_slice(config, v, h),
            softmax,
        )?);
    }
    Ok(assemble_heads(config, &heads))
}

/// Checks that `q`, `k`, `v` are all `config.seq_len × config.d_model`.
fn validate_mha_inputs(
    config: &AttentionConfig,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> Result<(), ShapeError> {
    let expected = (config.seq_len, config.d_model);
    for m in [q, k, v] {
        if m.shape() != expected {
            return Err(ShapeError { lhs: m.shape(), rhs: expected, op: "multi_head_attention" });
        }
    }
    Ok(())
}

/// The contiguous `d_head`-column slice of head `h`.
fn head_slice(config: &AttentionConfig, m: &Matrix, h: usize) -> Matrix {
    let d_head = config.d_head();
    Matrix::from_fn(config.seq_len, d_head, |r, c| m.get(r, h * d_head + c))
}

/// Concatenates per-head outputs back into the `seq_len × d_model` context
/// and the stacked `(heads · seq_len) × seq_len` score/prob matrices.
fn assemble_heads(config: &AttentionConfig, heads: &[AttentionOutput]) -> AttentionOutput {
    let d_head = config.d_head();
    let n = config.seq_len;
    let mut context = Matrix::zeros(n, config.d_model);
    let mut all_scores = Matrix::zeros(n * config.num_heads, n);
    let mut all_probs = Matrix::zeros(n * config.num_heads, n);
    for (h, out) in heads.iter().enumerate() {
        for r in 0..n {
            for c in 0..d_head {
                context.set(r, h * d_head + c, out.context.get(r, c));
            }
            all_scores.set_row(h * n + r, out.scores.row(r));
            all_probs.set_row(h * n + r, out.probs.row(r));
        }
    }
    AttentionOutput { context, scores: all_scores, probs: all_probs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSoftmax;

    fn deterministic(n: usize, d: usize, seed: f64) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * d + c) as f64 * seed).sin())
    }

    #[test]
    fn output_rows_are_convex_combinations() {
        let q = deterministic(6, 4, 0.7);
        let k = deterministic(6, 4, 1.3);
        let v = deterministic(6, 4, 2.1);
        let out = scaled_dot_attention(&q, &k, &v, &mut ExactSoftmax::new()).unwrap();
        // Each context row lies within the min/max envelope of V columns.
        for c in 0..4 {
            let col: Vec<f64> = (0..6).map(|r| v.get(r, c)).collect();
            let (lo, hi) = (
                col.iter().cloned().fold(f64::INFINITY, f64::min),
                col.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            );
            for r in 0..6 {
                let x = out.context.get(r, c);
                assert!(x >= lo - 1e-12 && x <= hi + 1e-12, "({r},{c})={x} not in [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn probs_rows_sum_to_one() {
        let q = deterministic(5, 3, 0.9);
        let out = scaled_dot_attention(&q, &q, &q, &mut ExactSoftmax::new()).unwrap();
        for r in 0..5 {
            assert!((out.probs.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(out.scores.shape(), (5, 5));
    }

    #[test]
    fn identical_keys_give_uniform_attention() {
        let q = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let k = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let v = Matrix::from_rows(&[vec![3.0], vec![6.0], vec![9.0]]).unwrap();
        let out = scaled_dot_attention(&q, &k, &v, &mut ExactSoftmax::new()).unwrap();
        assert!((out.context.get(0, 0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shape_error_on_mismatch() {
        let q = Matrix::zeros(2, 3);
        let k = Matrix::zeros(2, 4);
        let v = Matrix::zeros(2, 4);
        assert!(scaled_dot_attention(&q, &k, &v, &mut ExactSoftmax::new()).is_err());
    }

    #[test]
    fn multi_head_matches_single_head_when_one_head() {
        let mut cfg = AttentionConfig::tiny(4);
        cfg.num_heads = 1;
        let q = deterministic(4, 16, 0.3);
        let k = deterministic(4, 16, 0.5);
        let v = deterministic(4, 16, 0.8);
        let mh = multi_head_attention(&cfg, &q, &k, &v, &mut ExactSoftmax::new()).unwrap();
        let sh = scaled_dot_attention(&q, &k, &v, &mut ExactSoftmax::new()).unwrap();
        assert!(mh.context.max_abs_diff(&sh.context).unwrap() < 1e-12);
    }

    #[test]
    fn multi_head_shapes() {
        let cfg = AttentionConfig::tiny(4); // 2 heads, d_model 16
        let q = deterministic(4, 16, 0.3);
        let out = multi_head_attention(&cfg, &q, &q, &q, &mut ExactSoftmax::new()).unwrap();
        assert_eq!(out.context.shape(), (4, 16));
        assert_eq!(out.scores.shape(), (8, 4)); // heads × seq rows
    }

    #[test]
    fn multi_head_rejects_wrong_shape() {
        let cfg = AttentionConfig::tiny(4);
        let bad = Matrix::zeros(4, 8);
        let good = Matrix::zeros(4, 16);
        assert!(multi_head_attention(&cfg, &bad, &good, &good, &mut ExactSoftmax::new()).is_err());
    }
}
