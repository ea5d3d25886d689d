//! Property-based tests for the crossbar array simulators.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_crossbar::{
    CamCrossbar, CamSubCrossbar, Ledger, LutCrossbar, OpCost, Readout, VmmCrossbar,
};
use star_device::{Energy, Latency, NoiseModel, TechnologyParams};
use star_fixed::{Fixed, QFormat};
use star_telemetry::Batch;

fn tech() -> TechnologyParams {
    TechnologyParams::cmos32()
}

/// One array of each type, and the ops each ledger should hold per kind.
struct Arrays {
    cam: CamCrossbar,
    cam_sub: CamSubCrossbar,
    lut: LutCrossbar,
    vmm: VmmCrossbar,
    /// CAM searches; CAM/SUB searches, merges, subtractions; LUT reads;
    /// VMM bit cycles.
    want: ([u64; 1], [u64; 3], [u64; 1], [u64; 1]),
}

/// `ledger`'s energy is Σ count × cost over its kinds, in kind order,
/// bit for bit, and its counts are `want`.
fn check_ledger<const K: usize>(
    name: &str,
    ledger: Ledger<K>,
    want: [u64; K],
) -> Result<(), String> {
    let priced = ledger
        .counts()
        .iter()
        .zip(ledger.costs())
        .fold(0.0, |e, (&n, cost)| e + cost.energy.value() * n as f64);
    if ledger.counts() != want {
        return Err(format!("{name}: counts {:?}, want {want:?}", ledger.counts()));
    }
    if ledger.energy().value().to_bits() != priced.to_bits() {
        let energy = ledger.energy().value();
        return Err(format!("{name}: energy {energy:e}, Σ count × cost {priced:e}"));
    }
    Ok(())
}

impl Arrays {
    fn build() -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let ideal = NoiseModel::ideal();
        let mut cam = CamCrossbar::new(8, 3, &tech(), ideal, &mut rng);
        for row in 0..8 {
            cam.store_row(row, &[row & 4 != 0, row & 2 != 0, row & 1 != 0]);
        }
        let format = QFormat::new(2, 1).expect("valid");
        let cam_sub = CamSubCrossbar::new(format, &tech(), ideal, &mut rng);
        let mut lut = LutCrossbar::new(4, 8, &tech(), ideal, &mut rng);
        let mut vmm = VmmCrossbar::new(4, 1, 4, Readout::Ideal, &tech(), ideal, &mut rng);
        for row in 0..4 {
            lut.store_word(row, 17 * row as u64);
        }
        vmm.store_weights(&[vec![1], vec![5], vec![9], vec![15]]);
        Arrays { cam, cam_sub, lut, vmm, want: ([0], [0; 3], [0], [0]) }
    }

    /// One recording call or one `charge_*` of `n` ops into `batch`;
    /// returns the ops it charged. `draw` picks keys, rows and inputs.
    fn apply(&mut self, form: u8, n: usize, draw: u64, batch: &mut Batch) -> u64 {
        let format = self.cam_sub.format();
        let value = |i: u64| Fixed::from_raw((draw >> (4 * i)) as i64 % 8, format);
        let w = &mut self.want;
        let n64 = n as u64;
        match form {
            0 => {
                self.cam.search(&[draw & 4 != 0, draw & 2 != 0, draw & 1 != 0]);
                w.0[0] += 1;
                1
            }
            1 => {
                self.cam.search_one_hot(draw % 8);
                w.0[0] += 1;
                1
            }
            2 => {
                self.cam.charge_searches(n, batch);
                w.0[0] += n64;
                n64
            }
            3 => {
                let inputs: Vec<Fixed> = (0..n64).map(value).collect();
                let found = self.cam_sub.find_max(&inputs);
                assert_eq!(found.is_err(), n == 0, "an ideal array finds every max");
                w.1[0] += n64;
                w.1[1] += u64::from(n > 0);
                n64 + u64::from(n > 0)
            }
            4 => {
                self.cam_sub.subtract(value(0), value(1));
                w.1[2] += 1;
                1
            }
            5 => {
                self.cam_sub.charge_find_max(n, batch);
                w.1[0] += n64;
                w.1[1] += u64::from(n > 0);
                n64 + u64::from(n > 0)
            }
            6 => {
                self.cam_sub.charge_subtracts(n, batch);
                w.1[2] += n64;
                n64
            }
            7 => {
                self.lut.read_row(draw as usize % 4);
                w.2[0] += 1;
                1
            }
            8 => {
                self.lut.charge_reads(n, batch);
                w.2[0] += n64;
                n64
            }
            9 => {
                let bits = n as u8 + 1;
                let inputs: Vec<u64> = (0..4).map(|i| (draw >> (8 * i)) % (1 << bits)).collect();
                self.vmm.multiply(&inputs, bits);
                w.3[0] += u64::from(bits);
                u64::from(bits)
            }
            _ => {
                self.vmm.charge_multiply(n as u8, batch);
                w.3[0] += n64;
                n64
            }
        }
    }

    fn ledgers(&self) -> (Ledger<1>, Ledger<3>, Ledger<1>, Ledger<1>) {
        (self.cam.ledger(), self.cam_sub.ledger(), self.lut.ledger(), self.vmm.ledger())
    }

    fn check(&self) -> Result<(), String> {
        check_ledger("CAM", self.cam.ledger(), self.want.0)?;
        check_ledger("CAM/SUB", self.cam_sub.ledger(), self.want.1)?;
        check_ledger("LUT", self.lut.ledger(), self.want.2)?;
        check_ledger("VMM", self.vmm.ledger(), self.want.3)
    }
}

/// Drives one array of each type through `ops` inside a scoped
/// registry, checking every ledger after every op, and that an op which
/// charged nothing left the ledgers and the registry as they were. The
/// registry's counters must end equal to the ledgers' counts, with one
/// energy gauge per array type that was charged and no zero-valued
/// metric.
fn drive(ops: &[(u8, usize, u64)]) -> Result<(), String> {
    let (want, snap) = star_telemetry::with_scoped(|| {
        let mut arrays = Arrays::build();
        for (i, &(form, n, draw)) in ops.iter().enumerate() {
            let (before, ledgers) = (star_telemetry::snapshot(), arrays.ledgers());
            let mut batch = Batch::new();
            let charged = arrays.apply(form, n, draw, &mut batch);
            batch.publish();
            arrays.check().map_err(|e| format!("op {i} {:?}: {e}", (form, n, draw)))?;
            let unchanged = arrays.ledgers() == ledgers && star_telemetry::snapshot() == before;
            if charged == 0 && !unchanged {
                return Err(format!("op {i} {:?} charged nothing but left a trace", (form, n)));
            }
        }
        Ok(arrays.want)
    });
    let ([cam], [searches, merges, subtracts], [reads], [cycles]) = want?;
    let counters = [
        ("crossbar.cam.searches", cam + searches),
        ("crossbar.camsub.max_searches", merges),
        ("crossbar.camsub.subtracts", subtracts),
        ("crossbar.lut.reads", reads),
        ("crossbar.vmm.bit_cycles", cycles),
    ];
    for (name, want) in counters {
        let got = snap.counters.get(name).copied();
        if got != (want > 0).then_some(want) {
            return Err(format!("{name}: registry {got:?}, ledgers {want}"));
        }
    }
    let per_gauge = [cam + searches, merges + subtracts, reads, cycles];
    if snap.gauges.len() != per_gauge.iter().filter(|&&n| n > 0).count() {
        return Err(format!("energy gauges {:?} for op totals {per_gauge:?}", snap.gauges));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ledgers_count_every_charge_and_price_by_count(
        ops in prop::collection::vec((0u8..11, 0usize..4, any::<u64>()), 0..40),
    ) {
        if let Err(e) = drive(&ops) {
            prop_assert!(false, "{e}\n  ops: {ops:?}");
        }
    }

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
