//! Fixed-point value type: round-to-nearest quantization that saturates
//! at the format bounds.

use crate::QFormat;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A signed fixed-point value: an integer code interpreted against a
/// [`QFormat`].
///
/// Quantization saturates at the format bounds, matching the behaviour of
/// the hardware datapaths in the paper (scores outside the supported range
/// clip rather than wrap). Engines compute on the integer codes
/// ([`Fixed::raw`]) and rebuild values with [`Fixed::from_raw`], which
/// saturates the same way.
///
/// # Examples
///
/// ```
/// use star_fixed::{Fixed, QFormat};
///
/// let q = QFormat::new(6, 2)?;
/// let a = Fixed::from_f64(1.5, q);
/// assert_eq!(a.raw(), 6); // 1.5 / 2^-2
/// assert_eq!(Fixed::from_f64(3.125, q).to_f64(), 3.25); // ties away from zero
/// assert_eq!(Fixed::from_f64(1000.0, q), Fixed::max(q)); // saturates
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// Creates a value from a raw integer code, saturating to the format's
    /// range.
    pub fn from_raw(raw: i64, format: QFormat) -> Self {
        Fixed { raw: raw.clamp(format.min_raw(), format.max_raw()), format }
    }

    /// Quantizes a floating-point value to the nearest code, ties away
    /// from zero, saturating out-of-range inputs. This is the one
    /// quantizer of every engine.
    ///
    /// Non-finite inputs saturate: `+∞`/NaN map to the maximum code and
    /// `−∞` to the minimum (NaN-to-max keeps the function total).
    pub fn from_f64(value: f64, format: QFormat) -> Self {
        if value.is_nan() {
            return Fixed { raw: format.max_raw(), format };
        }
        let code = (value / format.resolution()).round();
        let raw = if code >= format.max_raw() as f64 {
            format.max_raw()
        } else if code <= format.min_raw() as f64 {
            format.min_raw()
        } else {
            code as i64
        };
        Fixed { raw, format }
    }

    /// The zero value in the given format.
    pub fn zero(format: QFormat) -> Self {
        Fixed { raw: 0, format }
    }

    /// The largest representable value in the given format.
    pub fn max(format: QFormat) -> Self {
        Fixed { raw: format.max_raw(), format }
    }

    /// The smallest (most negative) representable value in the given format.
    pub fn min(format: QFormat) -> Self {
        Fixed { raw: format.min_raw(), format }
    }

    /// The raw integer code.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The value's format.
    pub fn format(self) -> QFormat {
        self.format
    }

    /// Converts back to floating point (exact — every code is an f64).
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// The magnitude of the value as an unsigned code count in
    /// `2^-frac_bits` units. `|min_raw|` is representable here even though
    /// its negation saturates as a signed code.
    pub fn magnitude_code(self) -> u64 {
        self.raw.unsigned_abs()
    }
}

impl PartialEq for Fixed {
    fn eq(&self, other: &Self) -> bool {
        self.to_f64() == other.to_f64()
    }
}

impl Eq for Fixed {}

impl PartialOrd for Fixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fixed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare in a common resolution without floating point:
        // a/2^fa vs b/2^fb  ⇔  a·2^fb vs b·2^fa (both fit in i128).
        let fa = self.format.frac_bits() as u32;
        let fb = other.format.frac_bits() as u32;
        let lhs = (self.raw as i128) << fb;
        let rhs = (other.raw as i128) << fa;
        lhs.cmp(&rhs)
    }
}

impl std::hash::Hash for Fixed {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash a canonical representation consistent with Eq: the value
        // scaled to the maximum fraction width.
        let shift = QFormat::MAX_TOTAL_BITS as u32 - 1 - self.format.frac_bits() as u32;
        ((self.raw as i128) << shift).hash(state);
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q62() -> QFormat {
        QFormat::new(6, 2).unwrap()
    }

    #[test]
    fn quantize_nearest() {
        let x = Fixed::from_f64(3.30, q62());
        assert_eq!(x.to_f64(), 3.25);
        let y = Fixed::from_f64(3.38, q62());
        assert_eq!(y.to_f64(), 3.5);
    }

    #[test]
    fn nearest_ties_round_away_from_zero() {
        let q = q62();
        // Exact half steps of the 2^-2 grid, on both sides of zero.
        assert_eq!(Fixed::from_f64(3.125, q).to_f64(), 3.25);
        assert_eq!(Fixed::from_f64(-3.125, q).to_f64(), -3.25);
        assert_eq!(Fixed::from_f64(0.125, q).to_f64(), 0.25);
        assert_eq!(Fixed::from_f64(-0.125, q).to_f64(), -0.25);
        // The tie above the largest code saturates to it.
        assert_eq!(Fixed::from_f64(63.875, q).to_f64(), 63.75);
    }

    #[test]
    fn saturation() {
        let q = q62();
        assert_eq!(Fixed::from_f64(1000.0, q).to_f64(), 63.75);
        assert_eq!(Fixed::from_f64(-1000.0, q).to_f64(), -64.0);
        assert_eq!(Fixed::from_f64(f64::INFINITY, q).to_f64(), 63.75);
        assert_eq!(Fixed::from_f64(f64::NEG_INFINITY, q).to_f64(), -64.0);
    }

    #[test]
    fn arithmetic_saturates() {
        // Integer arithmetic on codes clamps back into range through
        // `from_raw`; the most negative code's magnitude stays exact.
        let q = q62();
        let one = Fixed::from_f64(1.0, q).raw();
        assert_eq!(Fixed::from_raw(Fixed::max(q).raw() + one, q).to_f64(), 63.75);
        let min = Fixed::min(q);
        assert_eq!(Fixed::from_raw(min.raw() - one, q).to_f64(), -64.0);
        assert_eq!(Fixed::from_raw(-min.raw(), q).to_f64(), 63.75);
        assert_eq!(min.magnitude_code(), 256);
    }

    #[test]
    fn cross_format_comparison() {
        let a = Fixed::from_f64(1.5, QFormat::new(6, 2).unwrap());
        let b = Fixed::from_f64(1.5, QFormat::new(4, 4).unwrap());
        assert_eq!(a, b);
        let c = Fixed::from_f64(1.75, QFormat::new(4, 4).unwrap());
        assert!(a < c);
    }

    #[test]
    fn convert_preserves_when_widening() {
        // Re-quantizing into a format with more bits on both sides is exact.
        let a = Fixed::from_f64(-3.25, q62());
        let wide = QFormat::new(7, 4).unwrap();
        assert_eq!(Fixed::from_f64(a.to_f64(), wide).to_f64(), -3.25);
    }

    #[test]
    fn convert_rounds_when_narrowing() {
        let wide = QFormat::new(6, 4).unwrap();
        let a = Fixed::from_f64(1.0625, wide);
        let narrow = QFormat::new(6, 1).unwrap();
        assert_eq!(Fixed::from_f64(a.to_f64(), narrow).to_f64(), 1.0);
    }

    #[test]
    fn display() {
        let a = Fixed::from_f64(-0.5, q62());
        assert_eq!(a.to_string(), "-0.5[q6.2]");
    }

    #[test]
    fn neg_zero_is_zero() {
        // −0.0, and negatives that round to zero, take the one zero code.
        for v in [-0.0, -0.1] {
            let z = Fixed::from_f64(v, q62());
            assert_eq!(z.raw(), 0, "v={v}");
            assert_eq!(z.to_f64().to_bits(), 0.0f64.to_bits(), "v={v}");
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let q = q62();
        for i in 0..1000 {
            let v = -60.0 + i as f64 * 0.1203;
            let x = Fixed::from_f64(v, q);
            assert!((x.to_f64() - v).abs() <= q.resolution() / 2.0 + 1e-12, "v={v}");
        }
    }
}
