//! Signed fixed-point format descriptor.

use crate::FormatError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A signed fixed-point format with `int_bits` integer bits and `frac_bits`
/// fraction bits, plus an implicit sign bit.
///
/// The paper counts the sign bit *inside* its integer field: "8 bits
/// (6-bit integer, 2-bit decimal)" is a signed two's-complement value with
/// a 6-bit integer field (sign + 5 magnitude bits) and 2 fraction bits —
/// 8 bits total, which is what makes the 9-bit configuration's CAM/SUB
/// crossbar exactly 512 (= 2⁹) rows by 18 (= 2·9) columns. In this API the
/// sign is explicit: [`QFormat::new(5, 2)`](QFormat::new) is the paper's
/// "8-bit (6-bit integer, 2-bit decimal)" format.
///
/// Representable values are `k * 2^-frac_bits` for
/// `k ∈ [-(2^(int+frac)), 2^(int+frac) - 1]` (two's-complement range).
///
/// # Examples
///
/// ```
/// use star_fixed::QFormat;
///
/// let q = QFormat::new(5, 2)?; // the paper's CNEWS format
/// assert_eq!(q.total_bits(), 8);
/// assert_eq!(q.resolution(), 0.25);
/// assert_eq!(q.max_value(), 31.75);
/// assert_eq!(q.min_value(), -32.0);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QFormat {
    int_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Maximum supported total width (sign + integer + fraction) in bits.
    pub const MAX_TOTAL_BITS: u8 = 32;

    /// Creates a format with the given integer and fraction bit counts.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::TooWide`] if `1 + int_bits + frac_bits`
    /// exceeds [`QFormat::MAX_TOTAL_BITS`], and [`FormatError::Empty`] if
    /// both fields are zero.
    pub const fn new(int_bits: u8, frac_bits: u8) -> Result<Self, FormatError> {
        if int_bits == 0 && frac_bits == 0 {
            return Err(FormatError::Empty);
        }
        if 1 + int_bits as u16 + frac_bits as u16 > Self::MAX_TOTAL_BITS as u16 {
            return Err(FormatError::TooWide { int_bits, frac_bits });
        }
        Ok(QFormat { int_bits, frac_bits })
    }

    /// The paper's CNEWS softmax format: 8 bits total ("6-bit integer" =
    /// sign + 5 magnitude bits, 2-bit decimal).
    pub const CNEWS: QFormat = match QFormat::new(5, 2) {
        Ok(q) => q,
        Err(_) => unreachable!(),
    };

    /// The paper's MRPC softmax format: 9 bits total ("6-bit integer" =
    /// sign + 5 magnitude bits, 3-bit decimal).
    pub const MRPC: QFormat = match QFormat::new(5, 3) {
        Ok(q) => q,
        Err(_) => unreachable!(),
    };

    /// The paper's CoLA softmax format: 7 bits total ("5-bit integer" =
    /// sign + 4 magnitude bits, 2-bit decimal).
    pub const COLA: QFormat = match QFormat::new(4, 2) {
        Ok(q) => q,
        Err(_) => unreachable!(),
    };

    /// Number of integer bits (excluding the sign bit).
    pub const fn int_bits(self) -> u8 {
        self.int_bits
    }

    /// Number of fraction bits.
    pub const fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// Total storage width in bits: sign + integer + fraction.
    pub const fn total_bits(self) -> u8 {
        1 + self.int_bits + self.frac_bits
    }

    /// Number of magnitude (non-sign) bits: integer + fraction.
    pub const fn value_bits(self) -> u8 {
        self.int_bits + self.frac_bits
    }

    /// Number of distinct representable codes (`2^total_bits`).
    pub const fn num_codes(self) -> u64 {
        1u64 << self.total_bits()
    }

    /// Number of distinct non-negative magnitudes (`2^value_bits`).
    ///
    /// This is the row count the STAR CAM crossbar needs after the sign bit
    /// is dropped (§II: "we remove the sign bit to save the area").
    pub const fn num_magnitudes(self) -> u64 {
        1u64 << self.value_bits()
    }

    /// The quantization step, `2^-frac_bits`.
    pub fn resolution(self) -> f64 {
        2f64.powi(-(self.frac_bits as i32))
    }

    /// Largest representable value, `2^int_bits − 2^-frac_bits`.
    pub fn max_value(self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Smallest (most negative) representable value, `−2^int_bits`.
    pub fn min_value(self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Largest raw code, `2^(int+frac) − 1`.
    pub const fn max_raw(self) -> i64 {
        (1i64 << self.value_bits()) - 1
    }

    /// Smallest raw code, `−2^(int+frac)`.
    pub const fn min_raw(self) -> i64 {
        -(1i64 << self.value_bits())
    }

    /// Whether `value` lies within the representable range (inclusive).
    pub fn contains(self, value: f64) -> bool {
        value.is_finite() && value >= self.min_value() && value <= self.max_value()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}.{}", self.int_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formats() {
        assert_eq!(QFormat::CNEWS.total_bits(), 8); // paper: "8 bits (6-bit integer, 2-bit decimal)"
        assert_eq!(QFormat::MRPC.total_bits(), 9);
        assert_eq!(QFormat::COLA.total_bits(), 7);
        // The 9-bit configuration drives the paper's array sizing.
        assert_eq!(QFormat::MRPC.num_codes(), 512); // CAM/SUB rows
        assert_eq!(QFormat::MRPC.num_magnitudes(), 256); // exp-stage CAM rows
    }

    #[test]
    fn range_q6_2() {
        let q = QFormat::new(6, 2).unwrap();
        assert_eq!(q.max_value(), 63.75);
        assert_eq!(q.min_value(), -64.0);
        assert_eq!(q.resolution(), 0.25);
        assert_eq!(q.max_raw(), 255);
        assert_eq!(q.min_raw(), -256);
    }

    #[test]
    fn num_codes_and_magnitudes() {
        let q = QFormat::new(5, 3).unwrap(); // 9 bits total
        assert_eq!(q.num_codes(), 512); // the paper's 512-row CAM/SUB crossbar
        assert_eq!(q.num_magnitudes(), 256); // the 256-row exp CAM after sign removal
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(QFormat::new(0, 0), Err(FormatError::Empty));
        assert!(matches!(QFormat::new(30, 10), Err(FormatError::TooWide { .. })));
    }

    #[test]
    fn contains_edges() {
        let q = QFormat::new(3, 1).unwrap();
        assert!(q.contains(7.5));
        assert!(q.contains(-8.0));
        assert!(!q.contains(7.6));
        assert!(!q.contains(-8.1));
        assert!(!q.contains(f64::NAN));
        assert!(!q.contains(f64::INFINITY));
    }

    #[test]
    fn display_form() {
        assert_eq!(QFormat::CNEWS.to_string(), "q5.2");
    }

    #[test]
    fn frac_only_format() {
        let q = QFormat::new(0, 4).unwrap();
        assert_eq!(q.max_value(), 0.9375);
        assert_eq!(q.min_value(), -1.0);
    }

    #[test]
    fn int_only_format() {
        let q = QFormat::new(4, 0).unwrap();
        assert_eq!(q.resolution(), 1.0);
        assert_eq!(q.max_value(), 15.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = QFormat::new(5, 2).unwrap();
        let b = QFormat::new(6, 2).unwrap();
        assert!(a < b);
    }
}
