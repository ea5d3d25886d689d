//! Attention-model substrate for the STAR reproduction.
//!
//! Provides the workload the paper evaluates on — BERT-base multi-head
//! attention — executed numerically with a *pluggable softmax* so the exact
//! reference, the CMOS baselines and the STAR crossbar engine can be
//! compared end to end:
//!
//! - [`Matrix`] — minimal dense matrix type,
//! - [`RowSoftmax`] / [`ExactSoftmax`] — the softmax plug-in interface and
//!   the `f64` reference,
//! - [`scaled_dot_attention`] / [`multi_head_attention`] — the attention
//!   dataflow (`QKᵀ/√d → softmax → ·V`), exposing raw scores for the §II
//!   bitwidth study,
//! - [`AttentionConfig`] / [`OpCounts`] — BERT-base geometry and the
//!   operation counts behind the GOPs/s/W metric,
//! - [`AccuracyReport`] — the accuracy proxy used by the precision sweep.
//!
//! # Examples
//!
//! ```
//! use star_attention::{multi_head_attention, AttentionConfig, ExactSoftmax, Matrix};
//!
//! let cfg = AttentionConfig::tiny(4);
//! let x = Matrix::from_fn(4, 16, |r, c| ((r + c) as f64 * 0.37).sin());
//! let out = multi_head_attention(&cfg, &x, &x, &x, &mut ExactSoftmax::new())?;
//! assert_eq!(out.context.shape(), (4, 16));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod config;
mod matrix;
mod metrics;
mod softmax_fn;

pub use attention::{multi_head_attention, scaled_dot_attention, AttentionOutput};
pub use config::{AttentionConfig, OpCounts};
pub use matrix::{Matrix, ShapeError};
pub use metrics::{argmax, cosine_similarity, kl_divergence, AccuracyReport};
pub use softmax_fn::{softmax_rows, ExactF32Softmax, ExactSoftmax, RowSoftmax};
