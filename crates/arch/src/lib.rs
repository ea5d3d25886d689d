//! Accelerator architecture models for the STAR reproduction.
//!
//! Everything Fig. 3 compares, rebuilt from components:
//!
//! - [`GpuModel`] — the Titan RTX analytical model (also the source of the
//!   intro observation: softmax share grows with sequence length),
//! - [`RramAccelerator`] — a parameterized RRAM attention accelerator with
//!   presets for PipeLayer, ReTransformer and STAR, all sharing the
//!   [`MatMulEngine`] crossbar cost model and differing only in input
//!   coding, pipeline granularity, softmax hardware, and intermediate
//!   writes,
//! - [`Accelerator`] / [`PerfReport`] — the common evaluation interface
//!   producing the paper's GOPs/s/W computing-efficiency metric.
//!
//! # Examples
//!
//! ```
//! use star_arch::{Accelerator, GpuModel, RramAccelerator};
//! use star_attention::AttentionConfig;
//!
//! let cfg = AttentionConfig::bert_base(128);
//! let star = RramAccelerator::star().evaluate(&cfg);
//! let gpu = GpuModel::titan_rtx().evaluate(&cfg);
//! assert!(star.efficiency_gops_per_watt > gpu.efficiency_gops_per_watt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod gpu;
mod matmul_engine;
mod rram;

pub use accelerator::{gops_per_watt, Accelerator, PerfReport};
pub use gpu::{GpuBreakdown, GpuModel};
pub use matmul_engine::{MatMulEngine, MatMulEngineConfig};
pub use rram::{LayerCost, RramAccelerator, WriteModel};
