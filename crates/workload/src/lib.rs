//! Calibrated synthetic workloads for the STAR reproduction.
//!
//! The paper evaluates on BERT-base attention scores from three corpora
//! (CNEWS, MRPC, CoLA) that we cannot run; this crate substitutes
//! distribution-calibrated synthetic score generators whose dynamic range
//! and fine structure reproduce exactly the properties that drive the
//! paper's per-dataset bitwidth results (see DESIGN.md §4 and the
//! [`DatasetProfile`] docs for the calibration argument).
//!
//! # Examples
//!
//! ```
//! use star_workload::{Dataset, ScoreTrace};
//!
//! let trace = ScoreTrace::generate(Dataset::Mrpc, 16, 64, 42);
//! assert_eq!(trace.len(), 16);
//! // MRPC peaks need 5 integer bits (beyond ±16, within ±32).
//! assert!(trace.max_abs() > 16.0 && trace.max_abs() < 32.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datasets;
mod traces;

pub use datasets::{Dataset, DatasetProfile};
pub use traces::{random_matrix, ScoreTrace};
