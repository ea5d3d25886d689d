//! `StarSoftmax` against a per-op reference.
//!
//! The engine answers each search once per code from a table, reads the
//! SUB and the LUT without recording, and charges every array op in bulk
//! through one `Tally` per row. The reference here is the op-by-op
//! dataflow: arrays built with the same constructors, in the same order
//! and from the same seed as `StarSoftmax::new`, driven through their
//! public per-op methods (`find_max`, `subtract`, `search_one_hot`,
//! `read_row`, `multiply`), each of which records through the telemetry
//! facade.
//!
//! Each case draws everything from one seed: a format of 2 to 11 total
//! bits, a stuck-at rate (0, 2 % or 25 % each way), a read-noise σ (0 or
//! 0.03), and a few rows of 1 to 64 scores mixing ±∞, NaN, the format's
//! extremes, grid points, half-grid points and ties. The engine must
//! match the reference bit for bit: every probability, `fault_events`,
//! `measured_energy`, and the scoped telemetry snapshot, whose gauges
//! start from seeded sums. The property harness cannot shrink, so every
//! failure names its case seed; `check(seed, None)` replays it.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use star_attention::RowSoftmax;
use star_core::{fixed_divide, StarSoftmax, StarSoftmaxConfig};
use star_crossbar::{CamCrossbar, CamSubCrossbar, LutCrossbar, Readout, VmmCrossbar};
use star_device::NoiseModel;
use star_fixed::{encoding, Fixed, QFormat, Rounding};

/// The engine's dataflow, one public array op at a time.
struct Reference {
    format: QFormat,
    noise: NoiseModel,
    quotient_bits: u8,
    counter_bits: u8,
    cam_sub: CamSubCrossbar,
    exp_cam: CamCrossbar,
    lut: LutCrossbar,
    vmm: VmmCrossbar,
    rng: ChaCha8Rng,
    fault_events: u64,
}

impl Reference {
    /// The arrays of `StarSoftmax::new(cfg)`: same constructors, order,
    /// seed and programmed tables.
    fn build(cfg: &StarSoftmaxConfig) -> Self {
        let format = cfg.format;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let cam_sub = CamSubCrossbar::new(format, &cfg.tech, cfg.noise, &mut rng);
        let magnitudes = format.num_magnitudes() as usize;
        let mag_bits = format.value_bits() as usize;
        let word = cfg.exp_word_bits;
        let mut exp_cam = CamCrossbar::new(magnitudes, mag_bits, &cfg.tech, cfg.noise, &mut rng);
        let mut lut = LutCrossbar::new(magnitudes, word as usize, &cfg.tech, cfg.noise, &mut rng);
        let mut vmm =
            VmmCrossbar::new(magnitudes, 1, word, Readout::Ideal, &cfg.tech, cfg.noise, &mut rng);
        let scale = (1u64 << word) - 1;
        let mut weights = Vec::with_capacity(magnitudes);
        for m in 0..magnitudes {
            let code = ((-(m as f64 * format.resolution())).exp() * scale as f64).round() as u32;
            weights.push(vec![code]);
            lut.store_word(m, u64::from(code));
            let bits: Vec<bool> = (0..mag_bits).rev().map(|b| (m >> b) & 1 == 1).collect();
            exp_cam.store_row(m, &bits);
        }
        vmm.store_weights(&weights);
        Reference {
            format,
            noise: cfg.noise,
            quotient_bits: cfg.quotient_bits,
            counter_bits: (usize::BITS - cfg.max_row_len.leading_zeros()) as u8,
            cam_sub,
            exp_cam,
            lut,
            vmm,
            rng,
            fault_events: 0,
        }
    }

    /// One row through the per-op calls, in the engine's dataflow order.
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        let xs: Vec<Fixed> =
            scores.iter().map(|&s| Fixed::from_f64(s, self.format, Rounding::Nearest)).collect();
        star_telemetry::count("star.softmax.rows", 1);
        star_telemetry::count("star.softmax.elements", scores.len() as u64);
        star_telemetry::observe_with(
            "star.softmax.row_len",
            scores.len() as f64,
            &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        );
        let max = match self.cam_sub.find_max(&xs) {
            Ok(found) => found.max,
            Err(_) => {
                self.recover();
                xs.iter().copied().max().expect("non-empty")
            }
        };
        let noisy = self.noise.read_sigma > 0.0;
        let diffs: Vec<Fixed> = xs
            .iter()
            .map(|&x| {
                if noisy {
                    self.cam_sub.subtract_noisy(x, max, &self.noise, &mut self.rng)
                } else {
                    self.cam_sub.subtract(x, max)
                }
            })
            .collect();
        let mut histogram = vec![0u64; self.format.num_magnitudes() as usize];
        let mut codes = Vec::with_capacity(diffs.len());
        for d in diffs {
            let mag = encoding::clamp_for_magnitude(d).magnitude_code();
            let row = match self.exp_cam.search_one_hot(mag) {
                Some(row) => row,
                None => {
                    self.recover();
                    mag as usize
                }
            };
            histogram[row] += 1;
            star_telemetry::count("star.exp.lut_hits", 1);
            codes.push(self.lut.read_row(row));
        }
        let sum_raw = if noisy {
            self.vmm.multiply_with(&histogram, self.counter_bits, &mut self.rng)[0]
        } else {
            self.vmm.multiply(&histogram, self.counter_bits)[0]
        };
        let sum = sum_raw.round().max(1.0) as u64;
        star_telemetry::count("star.div.quotients", codes.len() as u64);
        codes.iter().map(|&c| fixed_divide(u64::from(c as u32), sum, self.quotient_bits)).collect()
    }

    fn recover(&mut self) {
        self.fault_events += 1;
        star_telemetry::count("star.faults.recovered", 1);
    }

    /// `StarSoftmax::measured_energy`, summed in the same order.
    fn measured_energy(&self) -> f64 {
        (self.cam_sub.measured_energy()
            + self.exp_cam.ledger().energy
            + self.lut.ledger().energy
            + self.vmm.ledger().energy)
            .value()
    }
}

/// One score of a row: an infinity or NaN, a format extreme or a step
/// beyond it, a grid point, a half-grid point, a tie with an earlier
/// score, or a uniform draw across (and past) the range.
fn score(rng: &mut ChaCha8Rng, format: QFormat, row: &[f64]) -> f64 {
    let res = format.resolution();
    let (lo, hi) = (format.min_value(), format.max_value());
    let grid = |rng: &mut ChaCha8Rng| rng.gen_range(format.min_raw()..=format.max_raw()) as f64;
    match rng.gen_range(0..7u32) {
        0 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)],
        1 => [lo, hi, lo - res, hi + res][rng.gen_range(0..4usize)],
        2 => grid(rng) * res,
        3 => (grid(rng) + 0.5) * res,
        4 if !row.is_empty() => row[rng.gen_range(0..row.len())],
        _ => rng.gen_range(lo * 1.25..=hi * 1.25),
    }
}

/// Probabilities, `fault_events` and measured energy after one row, the
/// floats as bits.
type RowOutcome = (Vec<u64>, u64, u64);

fn outcome(probs: &[f64], fault_events: u64, energy: f64) -> RowOutcome {
    (probs.iter().map(|p| p.to_bits()).collect(), fault_events, energy.to_bits())
}

/// Runs case `seed` through the engine and the reference, each in a
/// scoped registry whose four array energy gauges start from the same
/// seeded sums, and reports the first disagreement. The case runs at
/// `format`, or at one the seed draws.
fn check(seed: u64, format: Option<QFormat>) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let format = format.unwrap_or_else(|| {
        let value_bits = rng.gen_range(1..=10u8);
        let frac = rng.gen_range(0..=value_bits);
        QFormat::new(value_bits - frac, frac).expect("2 to 11 total bits")
    });
    let stuck = [0.0, 0.02, 0.25][rng.gen_range(0..3usize)];
    let sigma = [0.0, 0.03][rng.gen_range(0..2usize)];
    let cfg = StarSoftmaxConfig::new(format)
        .with_max_row_len(64)
        .with_noise(NoiseModel::new(sigma, stuck, stuck))
        .with_seed(rng.gen());
    let rows: Vec<Vec<f64>> = (0..rng.gen_range(1..=4usize))
        .map(|_| {
            let mut row = Vec::new();
            for _ in 0..rng.gen_range(1..=64usize) {
                let s = score(&mut rng, format, &row);
                row.push(s);
            }
            row
        })
        .collect();
    let gauges: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1e4)).collect();
    let seed_gauges = || {
        for (gauge, &v) in ["cam", "camsub", "lut", "vmm"].iter().zip(&gauges) {
            star_telemetry::add(&format!("crossbar.{gauge}.energy_pj"), v);
        }
    };

    let (engine, engine_snap) = star_telemetry::with_scoped(|| {
        seed_gauges();
        let mut engine = StarSoftmax::new(cfg).expect("valid config");
        rows.iter()
            .map(|row| {
                let p = engine.softmax_row(row);
                outcome(&p, engine.fault_events(), engine.measured_energy().value())
            })
            .collect::<Vec<_>>()
    });
    let (reference, reference_snap) = star_telemetry::with_scoped(|| {
        seed_gauges();
        let mut reference = Reference::build(&cfg);
        rows.iter()
            .map(|row| {
                let p = reference.softmax_row(row);
                outcome(&p, reference.fault_events, reference.measured_energy())
            })
            .collect::<Vec<_>>()
    });

    let case = format!("{format}, stuck {stuck}, σ {sigma}");
    for (i, (got, want)) in engine.iter().zip(&reference).enumerate() {
        if got.0 != want.0 {
            return Err(format!("{case}: row {i} ({:?}) probabilities differ", rows[i]));
        }
        if got.1 != want.1 {
            return Err(format!("{case}: row {i} fault_events {} != {}", got.1, want.1));
        }
        if got.2 != want.2 {
            let (g, w) = (f64::from_bits(got.2), f64::from_bits(want.2));
            return Err(format!("{case}: row {i} measured energy {g:e} != {w:e}"));
        }
    }
    let json = |snap: &star_telemetry::Snapshot| {
        serde_json::to_string(&snap.to_json()).expect("snapshot serializes")
    };
    if json(&engine_snap) != json(&reference_snap) {
        return Err(format!(
            "{case}: telemetry differs\n  engine:    {}\n  reference: {}",
            json(&engine_snap),
            json(&reference_snap)
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_the_per_op_reference(seed in any::<u64>()) {
        if let Err(e) = check(seed, None) {
            prop_assert!(false, "case seed {seed:#018x}: {e}\n  replay: check({seed:#018x}, None)");
        }
    }
}

#[test]
fn paper_formats_match_the_per_op_reference() {
    // The three formats the experiments run, each under settings its
    // seeds draw.
    for format in [QFormat::CNEWS, QFormat::MRPC, QFormat::COLA] {
        for seed in 0..8u64 {
            if let Err(e) = check(seed, Some(format)) {
                panic!("case seed {seed:#018x} at {format}: {e}");
            }
        }
    }
}
