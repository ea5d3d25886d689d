//! Bit-field encodings of fixed-point codes.
//!
//! The crossbar arrays store and search *bit patterns*: the CAM/SUB crossbar
//! of Fig. 1 stores each representable value as a row of complementary RRAM
//! cell pairs, and the subtraction stage reads numeric values back out as a
//! weighted sum of the stored bits. This module provides the two encodings
//! the engine uses:
//!
//! - **two's complement** — used by the SUB stage, where the weighted
//!   bit-sum (MSB weighted negatively) reconstructs the signed value, and
//! - **sign-magnitude** — used by the exponential-stage CAM, where the sign
//!   bit is dropped (`x_i − x_max ≤ 0` always) and only the magnitude is
//!   matched.
//!
//! Bits are ordered MSB-first to match the paper's figures.

use crate::{Fixed, QFormat};

/// Encodes a fixed-point value as an MSB-first two's-complement bit vector
/// of `format.total_bits()` bits.
///
/// # Examples
///
/// ```
/// use star_fixed::{encoding, Fixed, QFormat, Rounding};
///
/// let q = QFormat::new(2, 1)?; // 4 bits total
/// let x = Fixed::from_f64(-1.5, q, Rounding::Nearest); // raw = -3
/// assert_eq!(encoding::to_twos_complement(x), vec![true, true, false, true]);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
pub fn to_twos_complement(value: Fixed) -> Vec<bool> {
    let code = twos_complement_code(value);
    (0..value.format().total_bits()).rev().map(|i| (code >> i) & 1 == 1).collect()
}

/// The two's-complement code of a value as an integer of
/// `format.total_bits()` bits: bit `total_bits − 1 − i` is element `i` of
/// [`to_twos_complement`].
///
/// # Examples
///
/// ```
/// use star_fixed::{encoding, Fixed, QFormat, Rounding};
///
/// let q = QFormat::new(2, 1)?; // 4 bits total
/// let x = Fixed::from_f64(-1.5, q, Rounding::Nearest); // raw = -3
/// assert_eq!(encoding::twos_complement_code(x), 0b1101);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
pub fn twos_complement_code(value: Fixed) -> u64 {
    let bits = value.format().total_bits();
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    (value.raw() as u64) & mask
}

/// Decodes an MSB-first two's-complement bit vector into a [`Fixed`] value.
///
/// # Panics
///
/// Panics if `bits.len() != format.total_bits()`.
pub fn from_twos_complement(bits: &[bool], format: QFormat) -> Fixed {
    assert_eq!(
        bits.len(),
        format.total_bits() as usize,
        "bit vector length must equal format total width"
    );
    let n = bits.len();
    let mut code: i64 = 0;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            let weight = 1i64 << (n - 1 - i);
            if i == 0 {
                code -= weight; // MSB carries negative weight
            } else {
                code += weight;
            }
        }
    }
    Fixed::from_raw(code, format)
}

/// Encodes the *magnitude* of a fixed-point value as an MSB-first bit vector
/// of `format.value_bits()` bits (the sign bit is dropped).
///
/// This is the encoding of the exponential-stage CAM crossbar: since
/// `x_i − x_max` is always ≤ 0, only `|x_i − x_max|` is stored, halving the
/// number of rows (§II).
///
/// # Panics
///
/// Panics if the magnitude does not fit in `value_bits` bits, which can only
/// happen for the single most-negative code (`−2^(int+frac)`), whose
/// magnitude needs one extra bit. Hardware avoids this code; callers should
/// clamp to `min_raw + 1` first (see [`clamp_for_magnitude`]).
pub fn to_magnitude(value: Fixed) -> Vec<bool> {
    let bits = value.format().value_bits();
    let mag = value.magnitude_code();
    assert!(
        mag < (1u64 << bits),
        "magnitude {mag} does not fit in {bits} bits (most-negative code)"
    );
    (0..bits).rev().map(|i| (mag >> i) & 1 == 1).collect()
}

/// Decodes an MSB-first magnitude bit vector produced by [`to_magnitude`],
/// applying the given sign (`negative = true` for the softmax difference
/// stage where all values are ≤ 0).
///
/// # Panics
///
/// Panics if `bits.len() != format.value_bits()`.
pub fn from_magnitude(bits: &[bool], negative: bool, format: QFormat) -> Fixed {
    assert_eq!(
        bits.len(),
        format.value_bits() as usize,
        "bit vector length must equal format value width"
    );
    let mut mag: i64 = 0;
    for &b in bits {
        mag = (mag << 1) | i64::from(b);
    }
    Fixed::from_raw(if negative { -mag } else { mag }, format)
}

/// Clamps a value so its magnitude fits in `value_bits` bits, i.e. replaces
/// the single most-negative code with its neighbour.
pub fn clamp_for_magnitude(value: Fixed) -> Fixed {
    if value.raw() == value.format().min_raw() {
        Fixed::from_raw(value.format().min_raw() + 1, value.format())
    } else {
        value
    }
}

/// Returns the complementary TCAM cell pair for one stored bit.
///
/// A ternary CAM cell stores a bit as two RRAM devices `(d, d̄)`: searching
/// for `1` pulls the matchline through `d̄`, searching for `0` through `d`,
/// so a mismatch discharges the line. This helper makes the cell-level
/// layout explicit for the crossbar simulator and the area model (18 columns
/// for 9 stored bits in the paper's 512×18 CAM/SUB array).
pub fn tcam_cell(bit: bool) -> (bool, bool) {
    (bit, !bit)
}

/// Expands an MSB-first bit vector into its TCAM complementary-pair column
/// layout, doubling the width.
pub fn tcam_row(bits: &[bool]) -> Vec<bool> {
    let mut row = Vec::with_capacity(bits.len() * 2);
    for &b in bits {
        let (d, dn) = tcam_cell(b);
        row.push(d);
        row.push(dn);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rounding;

    fn q(int: u8, frac: u8) -> QFormat {
        QFormat::new(int, frac).unwrap()
    }

    #[test]
    fn twos_complement_round_trip_all_codes() {
        let fmt = q(3, 2); // 6 bits: 64 codes
        for raw in fmt.min_raw()..=fmt.max_raw() {
            let x = Fixed::from_raw(raw, fmt);
            let bits = to_twos_complement(x);
            assert_eq!(bits.len(), 6);
            let back = from_twos_complement(&bits, fmt);
            assert_eq!(back.raw(), raw, "raw={raw}");
        }
    }

    #[test]
    fn twos_complement_known_patterns() {
        let fmt = q(2, 1); // 4 bits
        let x = Fixed::from_f64(-1.5, fmt, Rounding::Nearest); // raw -3 = 0b1101
        assert_eq!(to_twos_complement(x), vec![true, true, false, true]);
        let y = Fixed::from_f64(1.0, fmt, Rounding::Nearest); // raw 2 = 0b0010
        assert_eq!(to_twos_complement(y), vec![false, false, true, false]);
    }

    #[test]
    fn magnitude_round_trip() {
        let fmt = q(6, 2);
        for raw in (fmt.min_raw() + 1)..=0 {
            let x = Fixed::from_raw(raw, fmt);
            let bits = to_magnitude(x);
            assert_eq!(bits.len(), 8);
            let back = from_magnitude(&bits, true, fmt);
            assert_eq!(back.raw(), raw, "raw={raw}");
        }
    }

    #[test]
    #[should_panic(expected = "most-negative code")]
    fn magnitude_rejects_min_code() {
        let fmt = q(3, 0);
        let x = Fixed::min(fmt); // -8 needs 4 magnitude bits, only 3 available
        let _ = to_magnitude(x);
    }

    #[test]
    fn clamp_for_magnitude_fixes_min() {
        let fmt = q(3, 0);
        let x = clamp_for_magnitude(Fixed::min(fmt));
        assert_eq!(x.raw(), -7);
        let bits = to_magnitude(x);
        assert_eq!(from_magnitude(&bits, true, fmt).raw(), -7);
        // Non-min values pass through unchanged.
        let y = Fixed::from_raw(-3, fmt);
        assert_eq!(clamp_for_magnitude(y).raw(), -3);
    }

    #[test]
    fn tcam_cells_are_complementary() {
        assert_eq!(tcam_cell(true), (true, false));
        assert_eq!(tcam_cell(false), (false, true));
        let row = tcam_row(&[true, false, true]);
        assert_eq!(row, vec![true, false, false, true, true, false]);
        // 9 stored bits → 18 columns, the paper's CAM width.
        assert_eq!(tcam_row(&[true; 9]).len(), 18);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn decode_length_mismatch_panics() {
        let fmt = q(3, 2);
        let _ = from_twos_complement(&[true, false], fmt);
    }
}
