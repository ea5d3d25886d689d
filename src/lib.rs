//! # STAR — an RRAM-crossbar softmax engine for attention models
//!
//! A from-scratch Rust reproduction of *STAR: An Efficient Softmax Engine
//! for Attention Model with RRAM Crossbar* (Zhai, Li, Yan, Wang —
//! DATE 2023): the crossbar softmax engine itself (bit-accurate functional
//! simulation and an area/power/latency cost model), every substrate it
//! stands on (RRAM device models, CAM/LUT/VMM/CAM-SUB crossbar arrays,
//! fixed-point quantization, a BERT-base attention workload), the designs it
//! is compared against (a baseline FP32 CMOS softmax, Softermax,
//! PipeLayer, ReTransformer, a Titan RTX model), and the experiment
//! harness that regenerates every table and figure of the paper.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. Depend on the individual `star-*` crates for narrower builds.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fixed`] | `star-fixed` | `Q(int,frac)` fixed point, round-to-nearest, encodings |
//! | [`device`] | `star-device` | RRAM cells, noise, ADC/DAC, CMOS blocks, cost units |
//! | [`crossbar`] | `star-crossbar` | VMM / CAM / LUT / CAM-SUB array simulators |
//! | [`core`] | `star-core` | the STAR engine, baselines, vector-grained pipeline |
//! | [`attention`] | `star-attention` | matrices, multi-head attention, BERT-base config |
//! | [`workload`] | `star-workload` | calibrated CNEWS/MRPC/CoLA score proxies |
//! | [`arch`] | `star-arch` | GPU / PipeLayer / ReTransformer / STAR accelerators |
//! | [`telemetry`] | `star-telemetry` | counters/gauges/histograms, Chrome trace emission |
//! | [`serve`] | `star-serve` | discrete-event serving simulator: arrivals, batching, SLOs |
//!
//! # Quickstart
//!
//! ```
//! use star::core::{StarSoftmax, StarSoftmaxConfig};
//! use star::attention::RowSoftmax;
//! use star::fixed::QFormat;
//!
//! // The paper's 8-bit CNEWS configuration.
//! let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS))?;
//! let probs = engine.softmax_row(&[2.0, -1.0, 0.5, 3.25]);
//! assert!(probs[3] > probs[0]);
//! # Ok::<(), star::core::BuildStarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use star_arch as arch;
pub use star_attention as attention;
pub use star_core as core;
pub use star_crossbar as crossbar;
pub use star_device as device;
pub use star_fixed as fixed;
pub use star_serve as serve;
pub use star_telemetry as telemetry;
pub use star_workload as workload;
