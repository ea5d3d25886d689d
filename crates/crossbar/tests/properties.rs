//! Property-based tests for the crossbar array simulators.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_crossbar::{
    CamCrossbar, CamSubCrossbar, IrDropModel, LutCrossbar, OpCost, Readout, VmmCrossbar,
};
use star_device::{Energy, Latency, NoiseModel, TechnologyParams};
use star_fixed::{Fixed, QFormat};

fn tech() -> TechnologyParams {
    TechnologyParams::cmos32()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cam_search_matches_stored_patterns(
        patterns in prop::collection::vec(prop::collection::vec(any::<bool>(), 5), 4..16),
        key_idx in any::<prop::sample::Index>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut cam = CamCrossbar::new(patterns.len(), 5, &tech(), NoiseModel::ideal(), &mut rng);
        for (r, p) in patterns.iter().enumerate() {
            cam.store_row(r, p);
        }
        let key = &patterns[key_idx.index(patterns.len())];
        let hits = cam.search(key);
        for (r, p) in patterns.iter().enumerate() {
            prop_assert_eq!(hits[r], p == key, "row {}", r);
        }
    }

    #[test]
    fn cam_sub_max_matches_reference(raws in prop::collection::vec(-255i64..=255, 1..48)) {
        let fmt = QFormat::new(5, 3).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut xbar = CamSubCrossbar::new(fmt, &tech(), NoiseModel::ideal(), &mut rng);
        let xs: Vec<Fixed> = raws.iter().map(|&r| Fixed::from_raw(r, fmt)).collect();
        let found = xbar.find_max(&xs).expect("ideal array");
        let reference = xs.iter().copied().max().expect("non-empty");
        prop_assert_eq!(found.max.raw(), reference.raw());
    }

    #[test]
    fn cam_sub_subtract_is_clamped_difference(a in -255i64..=255, b in -255i64..=255) {
        let fmt = QFormat::new(5, 3).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut xbar = CamSubCrossbar::new(fmt, &tech(), NoiseModel::ideal(), &mut rng);
        let (x, m) = (Fixed::from_raw(a.min(b), fmt), Fixed::from_raw(a.max(b), fmt));
        let d = xbar.subtract(x, m);
        let expected = (x.raw() - m.raw()).clamp(fmt.min_raw(), 0);
        prop_assert_eq!(d.raw(), expected);
    }

    #[test]
    fn vmm_ideal_matches_exact(
        weights in prop::collection::vec(prop::collection::vec(0u32..64, 3), 2..12),
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows = weights.len();
        let mut xbar =
            VmmCrossbar::new(rows, 3, 6, Readout::Ideal, &tech(), NoiseModel::ideal(), &mut rng);
        xbar.store_weights(&weights);
        use rand::Rng as _;
        let inputs: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..16)).collect();
        let exact = xbar.multiply_exact(&inputs);
        let analog = xbar.multiply(&inputs, 4);
        for (a, e) in analog.iter().zip(&exact) {
            prop_assert!((a - *e as f64).abs() < 1e-9, "{} vs {}", a, e);
        }
    }

    #[test]
    fn vmm_exact_path_matches_the_bit_serial_loop(
        rows in 1usize..64,
        cols in 1usize..4,
        weight_bits in 1u8..=24,
        bits_per_cell in 1u8..=4,
        input_bits in 1u8..=16,
        stuck_rate in prop::sample::select(vec![0.0, 0.02, 0.25]),
        seed in any::<u64>(),
    ) {
        // An ideal readout answers with the exact integer dot product; a
        // zero-resistance IR-drop model attenuates by exactly 1.0 and so
        // forces the bit-serial loop over the same level fractions. At most
        // 2^6 rows × 2^16 inputs × 2^27 effective weights (a stuck-on top
        // slice can exceed `weight_bits`) keeps every sum below 2^53.
        use rand::Rng as _;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let noise = NoiseModel::new(0.0, 0.0, stuck_rate, stuck_rate);
        let mut xbar = VmmCrossbar::with_mlc(
            rows, cols, weight_bits, bits_per_cell, Readout::Ideal, &tech(), noise, &mut rng,
        );
        let weights: Vec<Vec<u32>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(0..1u64 << weight_bits) as u32).collect())
            .collect();
        xbar.store_weights(&weights);
        let inputs: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..1u64 << input_bits)).collect();
        let mut looped = xbar.clone();
        looped.set_ir_drop(Some(IrDropModel { wire_resistance_ohm: 0.0 }));
        let exact = xbar.multiply_exact(&inputs);
        let fast: Vec<u64> = xbar.multiply(&inputs, input_bits).iter().map(|y| y.to_bits()).collect();
        let slow: Vec<u64> =
            looped.multiply(&inputs, input_bits).iter().map(|y| y.to_bits()).collect();
        prop_assert!(exact.iter().all(|&y| y < 1 << 53), "case seed {}: sums {:?}", seed, exact);
        prop_assert_eq!(&fast, &slow, "case seed {}: exact path vs loop", seed);
        let exact: Vec<u64> = exact.iter().map(|&y| (y as f64).to_bits()).collect();
        prop_assert_eq!(&fast, &exact, "case seed {}: vs multiply_exact", seed);
    }

    #[test]
    fn lut_round_trips_any_word(words in prop::collection::vec(0u64..(1 << 18), 2..32)) {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut lut =
            LutCrossbar::new(words.len(), 18, &tech(), NoiseModel::ideal(), &mut rng);
        for (r, &w) in words.iter().enumerate() {
            lut.store_word(r, w);
        }
        for (r, &w) in words.iter().enumerate() {
            prop_assert_eq!(lut.read_row(r), w);
        }
    }

    #[test]
    fn op_cost_algebra(
        e1 in 0.0f64..100.0, l1 in 0.0f64..100.0,
        e2 in 0.0f64..100.0, l2 in 0.0f64..100.0,
        n in 1u64..50,
    ) {
        let a = OpCost::new(Energy::new(e1), Latency::new(l1));
        let b = OpCost::new(Energy::new(e2), Latency::new(l2));
        // `then` adds both components; `alongside` adds energy, maxes time.
        let s = a.then(b);
        prop_assert!((s.energy.value() - (e1 + e2)).abs() < 1e-9);
        prop_assert!((s.latency.value() - (l1 + l2)).abs() < 1e-9);
        let p = a.alongside(b);
        prop_assert!((p.energy.value() - (e1 + e2)).abs() < 1e-9);
        prop_assert!((p.latency.value() - l1.max(l2)).abs() < 1e-9);
        // Parallel never slower than serial, never cheaper in energy.
        prop_assert!(p.latency.value() <= s.latency.value());
        let r = a.repeat(n);
        prop_assert!((r.energy.value() - e1 * n as f64).abs() < 1e-6);
        prop_assert!((r.latency.value() - l1 * n as f64).abs() < 1e-6);
    }

    #[test]
    fn stage1_cost_linear_in_inputs(n in 1usize..200, m in 1usize..200) {
        let fmt = QFormat::new(5, 2).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let xbar = CamSubCrossbar::new(fmt, &tech(), NoiseModel::ideal(), &mut rng);
        let (lo, hi) = (n.min(m), n.max(m));
        let a = xbar.stage1_cost(lo);
        let b = xbar.stage1_cost(hi);
        prop_assert!(b.energy.value() >= a.energy.value());
        prop_assert!(b.latency.value() >= a.latency.value());
    }
}
