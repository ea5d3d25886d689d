//! Property-based tests for the device and cost models.

use proptest::prelude::*;
use star_device::{
    AdcSpec, Area, EnduranceModel, Energy, Latency, Power, RetentionModel, RramCell,
    TechnologyParams,
};

#[test]
fn cell_levels_monotone_conductance() {
    let tech = TechnologyParams::cmos32();
    let conductance = |level| {
        let mut cell = RramCell::new(&tech);
        cell.program_ideal(level);
        cell.conductance()
    };
    let (off, on) = (conductance(0), conductance(1));
    assert!(off >= tech.g_hrs() - 1e-15 && on <= tech.g_lrs() + 1e-15);
    assert!(on > off);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adc_cost_scaling_monotone(bits in 1u8..=11) {
        let a = AdcSpec::sar(bits);
        let b = AdcSpec::sar(bits + 1);
        prop_assert!(b.area().value() > a.area().value());
        prop_assert!(b.conversion_energy().value() > a.conversion_energy().value());
        prop_assert!(b.conversion_latency().value() > a.conversion_latency().value());
    }

    #[test]
    fn unit_algebra(a in 0.0f64..1e6, b in 0.0f64..1e6, k in 0.0f64..100.0) {
        let x = Energy::new(a);
        let y = Energy::new(b);
        prop_assert!(((x + y).value() - (a + b)).abs() < 1e-6);
        prop_assert!(((x * k).value() - a * k).abs() / (a * k).max(1.0) < 1e-12);
        // Subtraction saturates at zero.
        prop_assert!((x - y).value() >= 0.0);
        // Power × time = energy round trip.
        if b > 0.0 {
            let p = x / Latency::new(b);
            let e = p * Latency::new(b);
            prop_assert!((e.value() - a).abs() < 1e-9 * a.max(1.0));
        }
    }

    #[test]
    fn endurance_failure_monotone(e in 1e6f64..1e10, shape in 0.5f64..4.0, w1 in 0u64..1_000_000_000, w2 in 0u64..1_000_000_000) {
        let m = EnduranceModel::new(e, shape);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(m.failure_probability(lo) <= m.failure_probability(hi));
    }

    #[test]
    fn endurance_round_trip_across_weibull_space(
        e in 1e6f64..1e12,
        shape in 0.5f64..5.0,
        target in 1e-6f64..0.5,
    ) {
        // writes_at_failure_probability ∘ failure_probability is the
        // identity (within float tolerance) across the whole Weibull
        // parameter space — the two inverse forms cannot drift apart.
        let m = EnduranceModel::new(e, shape);
        let w = m.writes_at_failure_probability(target);
        prop_assert!(w > 0.0 && w.is_finite());
        let p = m.failure_probability_at(w);
        prop_assert!(
            (p - target).abs() <= 1e-9 * target.max(1e-12),
            "p {} vs target {} at scale {} shape {}", p, target, e, shape
        );
        // And the other composition order: the probability of any write
        // count inverts back to that count.
        let writes = e * 0.37; // a point in the body of the distribution
        let p2 = m.failure_probability_at(writes);
        if p2 > 0.0 && p2 < 1.0 {
            let back = m.writes_at_failure_probability(p2);
            prop_assert!((back - writes).abs() <= 1e-6 * writes, "back {} vs {}", back, writes);
        }
    }

    #[test]
    fn lifetime_monotone_decreasing_in_writes(
        e in 1e6f64..1e12,
        shape in 0.5f64..5.0,
        target in 1e-6f64..0.5,
        w1 in 0u64..1_000_000,
        w2 in 0u64..1_000_000,
    ) {
        // More writes per inference can only shorten the lifetime; zero
        // writes per inference lives forever.
        let m = EnduranceModel::new(e, shape);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let l_lo = m.lifetime_inferences(lo, target);
        let l_hi = m.lifetime_inferences(hi, target);
        prop_assert!(l_lo >= l_hi, "lifetime({lo}) {} < lifetime({hi}) {}", l_lo, l_hi);
        if lo == 0 {
            prop_assert_eq!(l_lo, f64::INFINITY);
        }
        if lo > 0 && hi > lo {
            prop_assert!(l_lo > l_hi, "strictly decreasing once writes are positive");
        }
    }

    #[test]
    fn retention_drift_monotone(nu in 0.001f64..0.1, t1 in 0.0f64..1e9, t2 in 0.0f64..1e9) {
        let r = RetentionModel { drift_nu: nu, reference_seconds: 1.0 };
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(r.drift_factor(hi) <= r.drift_factor(lo) + 1e-15);
        prop_assert!(r.drift_factor(hi) > 0.0);
    }

    #[test]
    fn area_ratio_consistency(a in 0.1f64..1e6, b in 0.1f64..1e6) {
        let x = Area::new(a);
        let y = Area::new(b);
        let r = x.ratio_to(y);
        prop_assert!((r * b - a).abs() / a < 1e-9);
        let _ = Power::new(0.0); // zero power is legal
    }
}
