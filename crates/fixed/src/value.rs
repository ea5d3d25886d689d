//! Fixed-point value type with saturating arithmetic.

use crate::QFormat;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Rounding mode applied when quantizing a real value onto a fixed-point
/// grid.
///
/// The STAR engine's lookup tables are built with [`Rounding::Nearest`];
/// the other modes exist for the quantization-error study and for modelling
/// cheaper truncating hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to the nearest representable value, ties away from zero.
    #[default]
    Nearest,
    /// Round toward negative infinity (floor).
    Floor,
    /// Round toward positive infinity (ceiling).
    Ceil,
    /// Round toward zero (truncation) — what a bare bit-drop circuit does.
    TowardZero,
}

impl Rounding {
    /// Applies the rounding mode to a real-valued raw code, producing an
    /// integer code (not yet range-clamped).
    fn apply(self, raw: f64) -> f64 {
        match self {
            Rounding::Nearest => raw.round(),
            Rounding::Floor => raw.floor(),
            Rounding::Ceil => raw.ceil(),
            Rounding::TowardZero => raw.trunc(),
        }
    }
}

/// A signed fixed-point value: an integer code interpreted against a
/// [`QFormat`].
///
/// Arithmetic saturates at the format bounds, matching the behaviour of the
/// hardware datapaths in the paper (scores outside the supported range clip
/// rather than wrap).
///
/// # Examples
///
/// ```
/// use star_fixed::{Fixed, QFormat, Rounding};
///
/// let q = QFormat::new(6, 2)?;
/// let a = Fixed::from_f64(1.5, q, Rounding::Nearest);
/// let b = Fixed::from_f64(2.25, q, Rounding::Nearest);
/// assert_eq!((a + b).to_f64(), 3.75);
/// assert_eq!((a - b).to_f64(), -0.75);
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

    /// Quantizes a floating-point value, saturating out-of-range inputs.
    ///
    /// Non-finite inputs saturate: `+∞`/NaN map to the maximum code and
    /// `−∞` to the minimum (NaN-to-max keeps the function total).
    pub fn from_f64(value: f64, format: QFormat, rounding: Rounding) -> Self {
        if value.is_nan() {
            return Fixed { raw: format.max_raw(), format };
        }
        let scaled = value / format.resolution();
        let code = rounding.apply(scaled);
        let raw = if code >= format.max_raw() as f64 {
            format.max_raw()
        } else if code <= format.min_raw() as f64 {
            format.min_raw()
        } else {
            code as i64
        };
        Fixed { raw, format }
    }

    /// Quantizes with *stochastic rounding*: rounds up with probability
    /// equal to the fractional position of `value` between its two
    /// neighbouring codes, using a caller-supplied `dither ∈ [0, 1)`.
    /// Unbiased in expectation — the rounding mode of choice when
    /// quantization error must not accumulate (e.g. iterative analog
    /// accumulation studies). Taking the dither as a plain number keeps
    /// this crate RNG-free; draw it from any uniform source.
    ///
    /// # Panics
    ///
    /// Panics if `dither` is outside `[0, 1)`.
    pub fn from_f64_stochastic(value: f64, format: QFormat, dither: f64) -> Self {
        assert!((0.0..1.0).contains(&dither), "dither must be in [0, 1)");
        if value.is_nan() {
            return Fixed { raw: format.max_raw(), format };
        }
        let scaled = value / format.resolution();
        let floor = scaled.floor();
        let frac = scaled - floor;
        let code = if frac > dither { floor + 1.0 } else { floor };
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

    /// Re-quantizes into a different format, saturating as needed.
    pub fn convert(self, format: QFormat, rounding: Rounding) -> Fixed {
        if format == self.format {
            return self;
        }
        Fixed::from_f64(self.to_f64(), format, rounding)
    }

    /// Saturating negation.
    pub fn saturating_neg(self) -> Fixed {
        Fixed::from_raw(self.raw.saturating_neg(), self.format)
    }

    /// Absolute value, saturating (`|min|` clamps to `max`).
    pub fn saturating_abs(self) -> Fixed {
        Fixed::from_raw(self.raw.saturating_abs(), self.format)
    }

    /// The magnitude of the value as an unsigned code count in
    /// `2^-frac_bits` units. `|min_raw|` is representable here even though
    /// its negation saturates as a signed code.
    pub fn magnitude_code(self) -> u64 {
        self.raw.unsigned_abs()
    }

    /// The quantization error `self.to_f64() − original` for a given
    /// pre-quantization input.
    pub fn quantization_error(self, original: f64) -> f64 {
        self.to_f64() - original
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

impl std::ops::Add for Fixed {
    type Output = Fixed;

    /// Saturating addition. The operands may differ in format; the result
    /// uses the left operand's format (hardware accumulators keep their own
    /// width).
    fn add(self, rhs: Fixed) -> Fixed {
        let sum = self.to_f64() + rhs.to_f64();
        Fixed::from_f64(sum, self.format, Rounding::Nearest)
    }
}

impl std::ops::Sub for Fixed {
    type Output = Fixed;

    /// Saturating subtraction in the left operand's format.
    fn sub(self, rhs: Fixed) -> Fixed {
        let diff = self.to_f64() - rhs.to_f64();
        Fixed::from_f64(diff, self.format, Rounding::Nearest)
    }
}

impl std::ops::Mul for Fixed {
    type Output = Fixed;

    /// Saturating multiplication in the left operand's format.
    fn mul(self, rhs: Fixed) -> Fixed {
        let prod = self.to_f64() * rhs.to_f64();
        Fixed::from_f64(prod, self.format, Rounding::Nearest)
    }
}

impl std::ops::Neg for Fixed {
    type Output = Fixed;

    fn neg(self) -> Fixed {
        self.saturating_neg()
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
        let x = Fixed::from_f64(3.30, q62(), Rounding::Nearest);
        assert_eq!(x.to_f64(), 3.25);
        let y = Fixed::from_f64(3.38, q62(), Rounding::Nearest);
        assert_eq!(y.to_f64(), 3.5);
    }

    #[test]
    fn quantize_modes() {
        let q = q62();
        assert_eq!(Fixed::from_f64(1.1, q, Rounding::Floor).to_f64(), 1.0);
        assert_eq!(Fixed::from_f64(1.1, q, Rounding::Ceil).to_f64(), 1.25);
        assert_eq!(Fixed::from_f64(-1.1, q, Rounding::TowardZero).to_f64(), -1.0);
        assert_eq!(Fixed::from_f64(-1.1, q, Rounding::Floor).to_f64(), -1.25);
    }

    #[test]
    fn saturation() {
        let q = q62();
        assert_eq!(Fixed::from_f64(1000.0, q, Rounding::Nearest).to_f64(), 63.75);
        assert_eq!(Fixed::from_f64(-1000.0, q, Rounding::Nearest).to_f64(), -64.0);
        assert_eq!(Fixed::from_f64(f64::INFINITY, q, Rounding::Nearest).to_f64(), 63.75);
        assert_eq!(Fixed::from_f64(f64::NEG_INFINITY, q, Rounding::Nearest).to_f64(), -64.0);
    }

    #[test]
    fn arithmetic_saturates() {
        let q = q62();
        let max = Fixed::max(q);
        let one = Fixed::from_f64(1.0, q, Rounding::Nearest);
        assert_eq!((max + one).to_f64(), 63.75);
        let min = Fixed::min(q);
        assert_eq!((min - one).to_f64(), -64.0);
        assert_eq!((min.saturating_neg()).to_f64(), 63.75);
        assert_eq!(min.saturating_abs().to_f64(), 63.75);
        assert_eq!(min.magnitude_code(), 256);
    }

    #[test]
    fn cross_format_comparison() {
        let a = Fixed::from_f64(1.5, QFormat::new(6, 2).unwrap(), Rounding::Nearest);
        let b = Fixed::from_f64(1.5, QFormat::new(4, 4).unwrap(), Rounding::Nearest);
        assert_eq!(a, b);
        let c = Fixed::from_f64(1.75, QFormat::new(4, 4).unwrap(), Rounding::Nearest);
        assert!(a < c);
    }

    #[test]
    fn convert_preserves_when_widening() {
        let a = Fixed::from_f64(-3.25, q62(), Rounding::Nearest);
        let wide = QFormat::new(7, 4).unwrap();
        assert_eq!(a.convert(wide, Rounding::Nearest).to_f64(), -3.25);
    }

    #[test]
    fn convert_rounds_when_narrowing() {
        let wide = QFormat::new(6, 4).unwrap();
        let a = Fixed::from_f64(1.0625, wide, Rounding::Nearest);
        let narrow = QFormat::new(6, 1).unwrap();
        assert_eq!(a.convert(narrow, Rounding::Nearest).to_f64(), 1.0);
    }

    #[test]
    fn display() {
        let a = Fixed::from_f64(-0.5, q62(), Rounding::Nearest);
        assert_eq!(a.to_string(), "-0.5[q6.2]");
    }

    #[test]
    fn neg_zero_is_zero() {
        let z = Fixed::zero(q62());
        assert_eq!((-z).to_f64(), 0.0);
    }

    #[test]
    fn stochastic_rounding_hits_neighbours() {
        let q = q62();
        // 1.3 sits 20 % of the way from 1.25 to 1.5 on the q6.2 grid.
        let down = Fixed::from_f64_stochastic(1.3, q, 0.5);
        assert_eq!(down.to_f64(), 1.25); // frac 0.2 ≤ dither 0.5 → floor
        let up = Fixed::from_f64_stochastic(1.3, q, 0.1);
        assert_eq!(up.to_f64(), 1.5); // frac 0.2 > dither 0.1 → ceil
                                      // Grid points never move, regardless of dither.
        assert_eq!(Fixed::from_f64_stochastic(1.25, q, 0.0).to_f64(), 1.25);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let q = q62();
        let target = 2.3; // 20 % between 2.25 and 2.5
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| {
                // Low-discrepancy dither sequence.
                let dither = (i as f64 * 0.754_877_666) % 1.0;
                Fixed::from_f64_stochastic(target, q, dither).to_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - target).abs() < 0.005, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "dither")]
    fn stochastic_rejects_bad_dither() {
        let _ = Fixed::from_f64_stochastic(1.0, q62(), 1.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let q = q62();
        for i in 0..1000 {
            let v = -60.0 + i as f64 * 0.1203;
            let x = Fixed::from_f64(v, q, Rounding::Nearest);
            assert!(x.quantization_error(v).abs() <= q.resolution() / 2.0 + 1e-12, "v={v}");
        }
    }
}
