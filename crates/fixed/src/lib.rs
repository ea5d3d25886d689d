//! Signed fixed-point quantization for the STAR reproduction.
//!
//! The STAR softmax engine operates on low-bitwidth fixed-point attention
//! scores (the paper's "8-bit (6-bit integer, 2-bit decimal)" CNEWS format
//! is a signed value with sign + 5 integer magnitude bits + 2 fraction
//! bits). This crate provides:
//!
//! - [`QFormat`] — a signed fixed-point format descriptor (`1 + int + frac`
//!   bits total, matching the paper's counting where the sign bit is listed
//!   separately from the integer field),
//! - [`Fixed`] — a value quantized to a [`QFormat`] by the one rule every
//!   engine uses: round to nearest, ties away from zero, saturating at the
//!   format bounds,
//! - [`encoding`] — bit-field encode/decode in two's-complement and
//!   sign-magnitude form (the CAM crossbar stores sign-magnitude patterns and
//!   drops the sign bit for the always-negative `x_i − x_max` stage).
//!
//! Which format each dataset needs is measured, not recommended here: the
//! E4 experiment sweeps formats through the STAR engine against an
//! accuracy bar (`star_core::precision`).
//!
//! # Examples
//!
//! ```
//! use star_fixed::{Fixed, QFormat};
//!
//! // The paper's CNEWS format: 8 bits = sign + 5 integer + 2 fraction.
//! let cnews = QFormat::CNEWS;
//! assert_eq!(cnews.total_bits(), 8);
//! let x = Fixed::from_f64(3.30, cnews);
//! assert_eq!(x.to_f64(), 3.25); // resolution is 2^-2
//! # Ok::<(), star_fixed::FormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
mod error;
mod format;
mod value;

pub use error::FormatError;
pub use format::QFormat;
pub use value::Fixed;
