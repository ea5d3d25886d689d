//! Quantization-error statistics.

use crate::{Fixed, QFormat, Rounding};
use serde::{Deserialize, Serialize};

/// Accumulated statistics about quantizing a stream of real values into a
/// fixed [`QFormat`].
///
/// Used by the §II precision study to decide whether a candidate format's
/// error is acceptable, and by the noise-injection tests to compare analog
/// error against quantization error.
///
/// # Examples
///
/// ```
/// use star_fixed::{QFormat, QuantStats};
///
/// let q = QFormat::new(6, 2)?;
/// let mut stats = QuantStats::new(q);
/// for v in [0.1, 1.3, -7.9, 40.0, -70.0] {
///     stats.observe(v);
/// }
/// assert_eq!(stats.count(), 5);
/// assert_eq!(stats.saturated(), 1); // -70.0 clips at -64.0
/// assert!(stats.max_abs_error() >= 6.0); // dominated by the clipped value
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantStats {
    format: QFormat,
    count: u64,
    saturated: u64,
    sum_abs_error: f64,
    max_abs_error: f64,
    min_seen: f64,
    max_seen: f64,
}

impl QuantStats {
    /// Creates an empty accumulator for the given format.
    pub fn new(format: QFormat) -> Self {
        QuantStats {
            format,
            count: 0,
            saturated: 0,
            sum_abs_error: 0.0,
            max_abs_error: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Quantizes `value` (round-to-nearest), records its error, and returns
    /// the quantized result.
    pub fn observe(&mut self, value: f64) -> Fixed {
        let x = Fixed::from_f64(value, self.format, Rounding::Nearest);
        let err = x.quantization_error(value).abs();
        self.count += 1;
        if !self.format.contains(value) {
            self.saturated += 1;
        }
        self.sum_abs_error += err;
        if err > self.max_abs_error {
            self.max_abs_error = err;
        }
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
        x
    }

    /// The format under evaluation.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Number of observed values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of observed values that fell outside the representable range.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Largest absolute quantization error seen.
    pub fn max_abs_error(&self) -> f64 {
        self.max_abs_error
    }

    /// Mean absolute quantization error (0 when empty).
    pub fn mean_abs_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs_error / self.count as f64
        }
    }

    /// Smallest raw input observed (∞ when empty).
    pub fn min_seen(&self) -> f64 {
        self.min_seen
    }

    /// Largest raw input observed (−∞ when empty).
    pub fn max_seen(&self) -> f64 {
        self.max_seen
    }

    /// Merges another accumulator (must share the format).
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn merge(&mut self, other: &QuantStats) {
        assert_eq!(self.format, other.format, "cannot merge stats across formats");
        self.count += other.count;
        self.saturated += other.saturated;
        self.sum_abs_error += other.sum_abs_error;
        self.max_abs_error = self.max_abs_error.max(other.max_abs_error);
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = QuantStats::new(QFormat::CNEWS);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_abs_error(), 0.0);
    }

    #[test]
    fn in_range_error_bounded() {
        let q = QFormat::new(6, 2).unwrap();
        let mut s = QuantStats::new(q);
        for i in 0..500 {
            s.observe(-60.0 + i as f64 * 0.2417);
        }
        assert_eq!(s.saturated(), 0);
        assert!(s.max_abs_error() <= q.resolution() / 2.0 + 1e-12);
        assert!(s.mean_abs_error() <= s.max_abs_error());
    }

    #[test]
    fn saturation_counted() {
        let q = QFormat::new(3, 1).unwrap(); // range [-8, 7.5]
        let mut s = QuantStats::new(q);
        s.observe(100.0);
        s.observe(-0.25);
        assert_eq!(s.saturated(), 1);
        assert!(s.max_abs_error() > 90.0);
        assert_eq!(s.min_seen(), -0.25);
        assert_eq!(s.max_seen(), 100.0);
    }

    #[test]
    fn merge_combines() {
        let q = QFormat::new(6, 2).unwrap();
        let mut a = QuantStats::new(q);
        let mut b = QuantStats::new(q);
        a.observe(1.1);
        b.observe(-2.2);
        b.observe(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.saturated(), 1);
        assert_eq!(a.max_seen(), 100.0);
        assert_eq!(a.min_seen(), -2.2);
    }

    #[test]
    #[should_panic(expected = "across formats")]
    fn merge_format_mismatch_panics() {
        let mut a = QuantStats::new(QFormat::CNEWS);
        let b = QuantStats::new(QFormat::MRPC);
        a.merge(&b);
    }
}
