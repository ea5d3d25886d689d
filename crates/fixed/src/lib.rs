//! Signed fixed-point arithmetic for the STAR reproduction.
//!
//! The STAR softmax engine operates on low-bitwidth fixed-point attention
//! scores (the paper's "8-bit (6-bit integer, 2-bit decimal)" CNEWS format
//! is a signed value with sign + 5 integer magnitude bits + 2 fraction
//! bits). This crate provides:
//!
//! - [`QFormat`] — a signed fixed-point format descriptor (`1 + int + frac`
//!   bits total, matching the paper's counting where the sign bit is listed
//!   separately from the integer field),
//! - [`Fixed`] — a value quantized to a [`QFormat`], with saturating
//!   arithmetic and explicit [`Rounding`] control,
//! - [`encoding`] — bit-field encode/decode in two's-complement and
//!   sign-magnitude form (the CAM crossbar stores sign-magnitude patterns and
//!   drops the sign bit for the always-negative `x_i − x_max` stage),
//! - [`RangeAnalyzer`] — the §II precision study tool: observe a stream of
//!   scores and recommend the minimal format meeting range and resolution
//!   requirements.
//!
//! # Examples
//!
//! ```
//! use star_fixed::{Fixed, QFormat, Rounding};
//!
//! // The paper's CNEWS format: 8 bits = sign + 5 integer + 2 fraction.
//! let cnews = QFormat::CNEWS;
//! assert_eq!(cnews.total_bits(), 8);
//! let x = Fixed::from_f64(3.30, cnews, Rounding::Nearest);
//! assert_eq!(x.to_f64(), 3.25); // resolution is 2^-2
//! # Ok::<(), star_fixed::FormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
pub mod encoding;
mod error;
mod format;
mod value;

pub use analyzer::{AnalyzerReport, FormatRequirement, RangeAnalyzer};
pub use error::FormatError;
pub use format::QFormat;
pub use value::{Fixed, Rounding};
