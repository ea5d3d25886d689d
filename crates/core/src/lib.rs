//! The STAR softmax engine and its comparison points — the paper's primary
//! contribution.
//!
//! STAR ("Softmax wiTh rrAm cRossbar", DATE 2023) accelerates the softmax
//! of attention models with RRAM crossbars: a time-multiplexed CAM/SUB
//! array finds `x_max` and computes `x_i − x_max` (Fig. 1), and a
//! CAM + LUT + VMM trio evaluates the exponentials, histogram-counts them
//! and produces the denominator `Σ exp(x_j − x_max)` in one analog shot
//! (Fig. 2). A vector-grained pipeline then overlaps softmax with the
//! attention matrix multiplies.
//!
//! This crate provides:
//!
//! - [`StarSoftmax`] — bit-accurate functional simulation of the engine on
//!   the `star-crossbar` arrays, plus its area/power/latency cost model,
//! - [`CmosBaselineSoftmax`] and [`Softermax`] — the Table I comparison
//!   designs, built from the same 32 nm component library,
//! - [`SoftmaxEngine`] — the common trait (functional + cost),
//! - [`attention_pipeline_latency`] — the vector-grained pipeline model
//!   against the operand-grained and unpipelined baselines,
//! - [`precision`] — the §II minimal-bitwidth study.
//!
//! # Examples
//!
//! ```
//! use star_attention::RowSoftmax;
//! use star_core::{SoftmaxEngine, StarSoftmax, StarSoftmaxConfig};
//! use star_fixed::QFormat;
//!
//! let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS))?;
//! let p = engine.softmax_row(&[2.0, 0.5, -1.0]);
//! assert!(p[0] > p[1] && p[1] > p[2]);
//! let sheet = engine.cost_sheet();
//! println!("{}", sheet.to_table());
//! # Ok::<(), star_core::BuildStarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod cmos_baseline;
pub mod design_space;
mod engine;
mod event_sim;
mod pipeline;
pub mod precision;
mod softermax;
mod star;
pub mod trace;

pub use bank::EngineBank;
pub use cmos_baseline::CmosBaselineSoftmax;
pub use engine::{fixed_divide, RowSoftmax, SoftmaxEngine};
pub use event_sim::{simulate_pipeline, RowDurations, RowTimeline, SimResult};
pub use pipeline::{attention_pipeline_latency, PipelineMode, RowStageLatency};
pub use softermax::Softermax;
pub use star::{BuildStarError, StarGeometry, StarSoftmax, StarSoftmaxConfig};
pub use trace::{pipeline_chrome_trace, StageUtilization, UtilizationReport};
