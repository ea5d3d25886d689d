//! Property-based tests for the fixed-point substrate.

use proptest::prelude::*;
use star_fixed::{encoding, Fixed, QFormat};

/// Strategy producing arbitrary valid formats up to 16 total bits (what the
/// hardware actually uses; keeps exhaustive sub-checks fast).
fn formats() -> impl Strategy<Value = QFormat> {
    (0u8..=8, 0u8..=6)
        .prop_filter("non-empty", |&(i, f)| i + f > 0)
        .prop_map(|(i, f)| QFormat::new(i, f).expect("valid"))
}

proptest! {
    #[test]
    fn quantize_then_decode_is_within_half_step(v in -1000.0f64..1000.0, fmt in formats()) {
        let x = Fixed::from_f64(v, fmt);
        if fmt.contains(v) {
            prop_assert!((x.to_f64() - v).abs() <= fmt.resolution() / 2.0 + 1e-9);
        } else {
            // Saturated: result is one of the two bounds.
            prop_assert!(x.raw() == fmt.max_raw() || x.raw() == fmt.min_raw());
        }
    }

    #[test]
    fn twos_complement_round_trip(raw in -512i64..512, fmt in formats()) {
        let x = Fixed::from_raw(raw, fmt);
        let bits = encoding::to_twos_complement(x);
        prop_assert_eq!(bits.len(), fmt.total_bits() as usize);
        let back = encoding::from_twos_complement(&bits, fmt);
        prop_assert_eq!(back.raw(), x.raw());
    }

    #[test]
    fn magnitude_round_trip_nonpositive(raw in -511i64..=0, fmt in formats()) {
        let x = encoding::clamp_for_magnitude(Fixed::from_raw(raw, fmt));
        let bits = encoding::to_magnitude(x);
        prop_assert_eq!(bits.len(), fmt.value_bits() as usize);
        let back = encoding::from_magnitude(&bits, true, fmt);
        prop_assert_eq!(back.raw(), x.raw());
    }

    #[test]
    fn subtraction_of_max_is_nonpositive(values in prop::collection::vec(-60.0f64..60.0, 1..64)) {
        // Core invariant behind the CAM/SUB stage: x_i - x_max <= 0 always.
        let fmt = QFormat::new(6, 2).expect("valid");
        let xs: Vec<Fixed> = values.iter().map(|&v| Fixed::from_f64(v, fmt)).collect();
        let max = xs.iter().copied().max().expect("non-empty");
        for &x in &xs {
            let d = Fixed::from_raw(x.raw() - max.raw(), fmt);
            prop_assert!(d.to_f64() <= 0.0);
        }
    }

    #[test]
    fn ordering_matches_f64(a in -500i64..500, b in -500i64..500, fmt in formats()) {
        let x = Fixed::from_raw(a, fmt);
        let y = Fixed::from_raw(b, fmt);
        prop_assert_eq!(x.cmp(&y), x.to_f64().partial_cmp(&y.to_f64()).expect("finite"));
    }

    #[test]
    fn convert_widening_is_lossless(raw in -256i64..256) {
        let narrow = QFormat::new(6, 2).expect("valid");
        let wide = QFormat::new(8, 5).expect("valid");
        let x = Fixed::from_raw(raw, narrow);
        let y = Fixed::from_f64(x.to_f64(), wide);
        prop_assert_eq!(x.to_f64(), y.to_f64());
    }
}
