//! The STAR RRAM-crossbar softmax engine (Figs. 1 and 2 of the paper).
//!
//! Dataflow for one score row `x_1 … x_n`:
//!
//! 1. **Quantize** each score to the configured fixed-point format.
//! 2. **CAM/SUB crossbar** (time-multiplexed, §II-1): find `x_max` by
//!    parallel search + OR-merge + priority encode over the
//!    descending-order value rows, then compute every `x_i − x_max` as an
//!    analog bitline difference.
//! 3. **Exponential stage** (§II-2): the difference magnitude (sign bit
//!    removed — differences are never positive) is searched in the exp CAM
//!    crossbar; its one-hot matchline drives the LUT crossbar row holding
//!    the pre-computed `exp` code, and simultaneously increments that
//!    row's **counter**.
//! 4. **Summation**: once the row is consumed, the counter histogram is
//!    applied to the VMM crossbar (programmed with the same exp table),
//!    producing `Σ_j exp(x_j − x_max)` in one analog shot.
//! 5. **Division**: a fixed-point divider produces
//!    `exp(x_i − x_max) / Σ` for each element.
//!
//! # Counter-bank evaluation
//!
//! Without read noise every array answers each code the same way every
//! time, stuck cells included, and an array only ever sees `2^bits`
//! distinct codes. So each search is answered once per code, from a
//! table read without recording an op: the CAM/SUB array keeps each
//! value's first matching row for its max search
//! ([`CamSubCrossbar::peek_find_max`]), and on its first row the engine
//! reads the exp CAM's one-hot row for each magnitude. The SUB and the
//! LUT need no table: their non-recording reads (`peek_subtract`,
//! `peek_row`) are a shift and an index. An element then costs a
//! quantize, a subtraction, two table loads, a counter bump and a
//! divide, and the counter histogram feeds one VMM, which an ideal
//! readout answers with its exact integer dot product.
//!
//! Every array op is still charged one by one, in the order the dataflow
//! above performs them, to each array's ledger and to one
//! [`star_telemetry::Tally`] per row: `n` CAM/SUB searches, the merge, `n`
//! subtractions, `n` exp-CAM searches, `n` LUT reads and the VMM. Ledgers
//! and metrics therefore hold what op-by-op calls would leave, f64 sums
//! included. Evaluation that draws from the RNG runs per element in
//! dataflow order: the noisy SUB, then the noisy VMM.

use crate::engine::{fixed_divide, SoftmaxEngine};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_attention::RowSoftmax;
use star_crossbar::{
    CamCrossbar, CamSubCrossbar, Geometry, LutCrossbar, OpCost, Readout, VmmCrossbar,
};
use star_device::peripherals::PeripheralLibrary;
use star_device::{CostSheet, Latency, NoiseModel, TechnologyParams};
use star_fixed::{encoding, Fixed, QFormat, Rounding};
use star_telemetry::Tally;
use std::error::Error;
use std::fmt;

/// Configuration error for [`StarSoftmax`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStarError {
    /// The exponential word width must be in `1..=32` bits.
    ExpWordBits(u8),
    /// The divider quotient width must be in `1..=32` bits.
    QuotientBits(u8),
    /// The maximum row length must be positive.
    MaxRowLen(usize),
}

impl fmt::Display for BuildStarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildStarError::ExpWordBits(b) => write!(f, "exp word width {b} outside 1..=32 bits"),
            BuildStarError::QuotientBits(b) => write!(f, "quotient width {b} outside 1..=32 bits"),
            BuildStarError::MaxRowLen(n) => write!(f, "maximum row length {n} must be positive"),
        }
    }
}

impl Error for BuildStarError {}

/// Builder-style configuration of the STAR softmax engine.
///
/// # Examples
///
/// ```
/// use star_core::{StarSoftmax, StarSoftmaxConfig};
/// use star_fixed::QFormat;
///
/// // The paper's 9-bit configuration (512×18 CAM/SUB, 256×18 CAM/LUT/VMM).
/// let engine = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::MRPC))?;
/// let g = engine.geometry();
/// assert_eq!((g.cam_sub.rows(), g.cam_sub.cols()), (512, 18));
/// assert_eq!((g.lut.rows(), g.lut.cols()), (256, 18));
/// # Ok::<(), star_core::BuildStarError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarSoftmaxConfig {
    /// Input fixed-point format (the per-dataset formats of §II).
    pub format: QFormat,
    /// Word width of the exp LUT/VMM crossbars. The paper uses
    /// `2 × total_bits` columns (18 for the 9-bit configuration), which is
    /// the default.
    pub exp_word_bits: u8,
    /// Divider quotient precision (default 16 bits).
    pub quotient_bits: u8,
    /// Largest supported row length — sizes the histogram counters
    /// (default 512, BERT-base's longest sequence).
    pub max_row_len: usize,
    /// Device non-ideality model applied to all arrays.
    pub noise: NoiseModel,
    /// Technology operating point.
    pub tech: TechnologyParams,
    /// RNG seed for fault sampling and noisy operations.
    pub seed: u64,
}

impl StarSoftmaxConfig {
    /// Default configuration for a given input format.
    pub fn new(format: QFormat) -> Self {
        StarSoftmaxConfig {
            format,
            exp_word_bits: format.total_bits() * 2,
            quotient_bits: 16,
            max_row_len: 512,
            noise: NoiseModel::ideal(),
            tech: TechnologyParams::cmos32(),
            seed: 0x57A5,
        }
    }

    /// Sets the exp LUT/VMM word width.
    pub fn with_exp_word_bits(mut self, bits: u8) -> Self {
        self.exp_word_bits = bits;
        self
    }

    /// Sets the divider quotient width.
    pub fn with_quotient_bits(mut self, bits: u8) -> Self {
        self.quotient_bits = bits;
        self
    }

    /// Sets the maximum supported row length.
    pub fn with_max_row_len(mut self, n: usize) -> Self {
        self.max_row_len = n;
        self
    }

    /// Sets the device noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The crossbar shapes of a built engine (the paper's §III sizing facts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarGeometry {
    /// CAM/SUB array (2^total_bits × 2·total_bits).
    pub cam_sub: Geometry,
    /// Exponential-stage CAM (2^(total_bits−1) × 2·(total_bits−1)).
    pub exp_cam: Geometry,
    /// Exponential LUT (2^(total_bits−1) × exp_word_bits).
    pub lut: Geometry,
    /// Summation VMM (2^(total_bits−1) × exp_word_bits physical bitlines).
    pub vmm: Geometry,
}

/// The STAR softmax engine.
///
/// Implements [`RowSoftmax`] (functional, bit-accurate over the crossbar
/// simulators) and [`SoftmaxEngine`] (area/power/latency).
///
/// # Examples
///
/// ```
/// use star_attention::RowSoftmax;
/// use star_core::{StarSoftmax, StarSoftmaxConfig};
/// use star_fixed::QFormat;
///
/// let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS))?;
/// let p = engine.softmax_row(&[1.0, 2.0, 3.0, 4.0]);
/// let sum: f64 = p.iter().sum();
/// assert!((sum - 1.0).abs() < 0.01); // quantized but normalized
/// assert!(p[3] > p[2] && p[2] > p[1]);
/// # Ok::<(), star_core::BuildStarError>(())
/// ```
#[derive(Debug)]
pub struct StarSoftmax {
    config: StarSoftmaxConfig,
    cam_sub: CamSubCrossbar,
    exp_cam: CamCrossbar,
    lut: LutCrossbar,
    vmm: VmmCrossbar,
    /// Nominal exp codes per difference magnitude (index = magnitude code).
    exp_codes: Vec<u32>,
    counter_bits: u8,
    fault_events: u64,
    rng: ChaCha8Rng,
    name: String,
    /// The exp CAM's one-hot row per difference magnitude (`None` where a
    /// defect leaves zero or several rows matching), read back without
    /// recording on the first row. The exp CAM is private to the engine
    /// and written only in [`StarSoftmax::new`], so the table never goes
    /// stale; engines built only for their cost models never read it.
    one_hot: Option<Vec<Option<u32>>>,
}

impl StarSoftmax {
    /// Builds the engine: programs the CAM/SUB value table, the exp CAM
    /// magnitude table, and the exp LUT/VMM tables.
    ///
    /// # Errors
    ///
    /// Returns [`BuildStarError`] for out-of-range widths.
    pub fn new(config: StarSoftmaxConfig) -> Result<Self, BuildStarError> {
        if !(1..=32).contains(&config.exp_word_bits) {
            return Err(BuildStarError::ExpWordBits(config.exp_word_bits));
        }
        if !(1..=32).contains(&config.quotient_bits) {
            return Err(BuildStarError::QuotientBits(config.quotient_bits));
        }
        if config.max_row_len == 0 {
            return Err(BuildStarError::MaxRowLen(config.max_row_len));
        }
        let fmt = config.format;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let cam_sub = CamSubCrossbar::new(fmt, &config.tech, config.noise, &mut rng);

        let magnitudes = fmt.num_magnitudes() as usize;
        let mag_bits = fmt.value_bits() as usize;
        let mut exp_cam =
            CamCrossbar::new(magnitudes, mag_bits, &config.tech, config.noise, &mut rng);
        let mut lut = LutCrossbar::new(
            magnitudes,
            config.exp_word_bits as usize,
            &config.tech,
            config.noise,
            &mut rng,
        );
        let mut vmm = VmmCrossbar::new(
            magnitudes,
            1,
            config.exp_word_bits,
            Readout::Ideal,
            &config.tech,
            config.noise,
            &mut rng,
        );

        // Pre-compute the exponential table: magnitude code m represents the
        // difference −m·2^−frac, so the stored value is exp(−m·resolution),
        // quantized to the exp word width (exp(0) = 1.0 maps to full scale).
        let scale = (1u64 << config.exp_word_bits) - 1;
        let mut exp_codes = Vec::with_capacity(magnitudes);
        let mut weights = Vec::with_capacity(magnitudes);
        for m in 0..magnitudes {
            let x = m as f64 * fmt.resolution();
            let code = ((-x).exp() * scale as f64).round() as u32;
            exp_codes.push(code);
            weights.push(vec![code]);
            lut.store_word(m, code as u64);
            let bits: Vec<bool> = (0..mag_bits).rev().map(|b| (m >> b) & 1 == 1).collect();
            exp_cam.store_row(m, &bits);
        }
        vmm.store_weights(&weights);

        let counter_bits = (usize::BITS - config.max_row_len.leading_zeros()) as u8;
        Ok(StarSoftmax {
            config,
            cam_sub,
            exp_cam,
            lut,
            vmm,
            exp_codes,
            counter_bits,
            fault_events: 0,
            rng,
            name: format!("star-rram-{}bit", fmt.total_bits()),
            one_hot: None,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &StarSoftmaxConfig {
        &self.config
    }

    /// The built crossbar shapes (§III sizing).
    pub fn geometry(&self) -> StarGeometry {
        StarGeometry {
            cam_sub: self.cam_sub.geometry(),
            exp_cam: self.exp_cam.geometry(),
            lut: self.lut.geometry(),
            vmm: self.vmm.geometry(),
        }
    }

    /// Number of fault-recovery events (all-miss searches or corrupted
    /// one-hots repaired by the controller). Always 0 on an ideal array.
    pub fn fault_events(&self) -> u64 {
        self.fault_events
    }

    /// The nominal exponential code table (index = difference magnitude).
    pub fn exp_codes(&self) -> &[u32] {
        &self.exp_codes
    }

    /// Quantizes a raw score into the engine's input format.
    pub fn quantize(&self, score: f64) -> Fixed {
        Fixed::from_f64(score, self.config.format, Rounding::Nearest)
    }

    /// Total *measured* dynamic energy recorded by the array ledgers since
    /// the last [`StarSoftmax::reset_ledgers`] — the functional
    /// simulation's own accounting, as opposed to the analytical
    /// [`SoftmaxEngine::row_cost`] model. Covers the crossbar arrays only
    /// (counters and divider are modeled analytically).
    pub fn measured_energy(&self) -> star_device::Energy {
        self.cam_sub.measured_energy()
            + self.exp_cam.ledger().energy
            + self.lut.ledger().energy
            + self.vmm.ledger().energy
    }

    /// Resets all array ledgers.
    pub fn reset_ledgers(&mut self) {
        self.cam_sub.reset_ledgers();
        self.exp_cam.reset_ledger();
        self.lut.reset_ledger();
        self.vmm.reset_ledger();
    }

    /// Cost of the exponential stage for one element: CAM search, then LUT
    /// read overlapped with the counter increment.
    pub fn exp_element_cost(&self) -> OpCost {
        let counter = PeripheralLibrary::counter(self.counter_bits);
        let counter_cost = OpCost::new(counter.energy_per_op(), counter.latency_per_op());
        self.exp_cam.search_cost().then(self.lut.read_cost().alongside(counter_cost))
    }

    /// Cost of the one-shot histogram × exp-table VMM.
    pub fn sum_cost(&self) -> OpCost {
        self.vmm.vmm_cost(self.counter_bits)
    }

    /// Cost of the `n` pipelined divisions (one result per cycle after the
    /// first).
    pub fn divide_cost(&self, n: usize) -> OpCost {
        let div = PeripheralLibrary::fixed_divider(self.config.exp_word_bits);
        OpCost::new(
            div.energy_per_op() * n as f64,
            Latency::new(div.latency_per_op().value() + (n.saturating_sub(1)) as f64),
        )
    }

    /// Cost of the final summation + division for a row of `n` elements.
    pub fn normalize_cost(&self, n: usize) -> OpCost {
        self.sum_cost().then(self.divide_cost(n))
    }
}

impl RowSoftmax for StarSoftmax {
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        assert!(!scores.is_empty(), "softmax of an empty row is undefined");
        assert!(
            scores.len() <= self.config.max_row_len,
            "row length {} exceeds configured maximum {}",
            scores.len(),
            self.config.max_row_len
        );
        let n = scores.len();
        let xs: Vec<Fixed> = scores.iter().map(|&s| self.quantize(s)).collect();
        let mut recovered = 0u64;

        // Stage 1: x_max on the CAM/SUB crossbar.
        let max = match self.cam_sub.peek_find_max(&xs) {
            Some(row) => self.cam_sub.value_of(row),
            None => {
                // Fault recovery: digital max (the controller's safe path).
                recovered += 1;
                xs.iter().copied().max().expect("non-empty")
            }
        };
        let noise = self.config.noise;
        let one_hot = self.one_hot.get_or_insert_with(|| {
            (0..self.exp_cam.geometry().rows())
                .map(|mag| self.exp_cam.peek_one_hot(mag as u64).map(|row| row as u32))
                .collect()
        });

        // Per element: x_i − x_max on the CAM/SUB crossbar; the exp CAM's
        // one-hot row for its magnitude bumps that row's counter and
        // selects the LUT word.
        let mut histogram = vec![0u64; one_hot.len()];
        let codes: Vec<u32> = xs
            .iter()
            .map(|&x| {
                let diff = if noise.read_sigma > 0.0 {
                    self.cam_sub.peek_subtract_noisy(x, max, &noise, &mut self.rng)
                } else {
                    self.cam_sub.peek_subtract(x, max)
                };
                let mag = encoding::clamp_for_magnitude(diff).magnitude_code() as usize;
                let row = one_hot[mag].map_or_else(
                    || {
                        // Fault recovery: a defective CAM produced zero or
                        // multiple matchlines; the controller falls back to
                        // the nominal row.
                        recovered += 1;
                        mag
                    },
                    |row| row as usize,
                );
                histogram[row] += 1;
                self.lut.peek_row(row) as u32
            })
            .collect();

        // Summation on the VMM crossbar.
        let sum_raw = self.vmm.peek_multiply(&histogram, self.counter_bits, &mut self.rng)[0];
        let sum = sum_raw.round().max(1.0) as u64;

        // Charge every array op, in dataflow order, and publish the row.
        let mut tally = Tally::new();
        let (rows_id, elements) =
            (tally.counter("star.softmax.rows"), tally.counter("star.softmax.elements"));
        let row_len = tally.histogram(
            "star.softmax.row_len",
            &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        );
        tally.count(rows_id, 1);
        tally.count(elements, n as u64);
        tally.observe(row_len, n as f64);
        self.cam_sub.charge_find_max(n, &mut tally);
        self.cam_sub.charge_subtracts(n, &mut tally);
        self.exp_cam.charge_searches(n, &mut tally);
        self.lut.charge_reads(n, &mut tally);
        let lut_hits = tally.counter("star.exp.lut_hits");
        tally.count(lut_hits, n as u64);
        self.vmm.charge_multiply(self.counter_bits, &mut tally);
        let quotients = tally.counter("star.div.quotients");
        tally.count(quotients, n as u64);
        if recovered > 0 {
            let id = tally.counter("star.faults.recovered");
            tally.count(id, recovered);
            self.fault_events += recovered;
        }
        tally.publish();

        // Division.
        codes.iter().map(|&c| fixed_divide(u64::from(c), sum, self.config.quotient_bits)).collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl SoftmaxEngine for StarSoftmax {
    fn cost_sheet(&self) -> CostSheet {
        // Activity factors follow the engine's own dataflow (see
        // `row_cost`): a row of n elements occupies ≈5n array cycles
        // (n searches + n subtractions on the CAM/SUB, n exp searches,
        // n LUT reads, n divides), and each individual array is busy for
        // n of them — a 1/5 duty cycle while rows stream back to back.
        // The summation VMM fires once per row (≈1/n duty at seq 128).
        let streaming = 1.0 / 5.0;
        let per_row = 1.0 / 128.0;
        let mut sheet = CostSheet::new(self.name.clone());
        sheet.absorb(&self.cam_sub.cost_sheet("cam/sub", streaming));
        sheet.absorb(&self.exp_cam.cost_sheet("exp-cam", streaming));
        sheet.absorb(&self.lut.cost_sheet("exp-lut", streaming));
        sheet.absorb(&self.vmm.cost_sheet("sum-vmm", per_row));
        let counters =
            PeripheralLibrary::counter(self.counter_bits).replicate(self.exp_codes.len());
        sheet.add(
            "counter bank",
            counters.area(),
            counters.static_power()
                + (PeripheralLibrary::counter(self.counter_bits).energy_per_op()
                    / Latency::new(self.config.tech.cmos_clock_ns()))
                    * streaming,
        );
        let div = PeripheralLibrary::fixed_divider(self.config.exp_word_bits);
        sheet.add("divider", div.area(), div.average_power(streaming));
        sheet
    }

    fn row_cost(&self, n: usize) -> OpCost {
        self.cam_sub
            .stage1_cost(n)
            .then(self.exp_element_cost().repeat(n as u64))
            .then(self.normalize_cost(n))
    }

    fn format(&self) -> Option<QFormat> {
        Some(self.config.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_attention::ExactSoftmax;

    fn engine(fmt: QFormat) -> StarSoftmax {
        StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("valid config")
    }

    #[test]
    fn paper_geometry_9bit_config() {
        let e = engine(QFormat::MRPC);
        let g = e.geometry();
        assert_eq!((g.cam_sub.rows(), g.cam_sub.cols()), (512, 18));
        assert_eq!((g.exp_cam.rows(), g.exp_cam.cols()), (256, 16));
        assert_eq!((g.lut.rows(), g.lut.cols()), (256, 18));
        assert_eq!(g.vmm.rows(), 256);
    }

    #[test]
    fn output_close_to_exact() {
        let mut star = engine(QFormat::MRPC);
        let mut exact = ExactSoftmax::new();
        let scores = [1.2, -0.7, 3.3, 0.0, 2.05, -4.4, 1.9, 0.4];
        let p = star.softmax_row(&scores);
        let q = exact.softmax_row(&scores);
        for (a, b) in p.iter().zip(&q) {
            assert!((a - b).abs() < 0.02, "star {a} vs exact {b}");
        }
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 0.01);
        assert_eq!(star.fault_events(), 0);
    }

    #[test]
    fn preserves_ranking() {
        let mut star = engine(QFormat::CNEWS);
        let scores = [0.5, 2.5, -1.0, 4.0, 3.25];
        let p = star.softmax_row(&scores);
        assert!(p[3] > p[4]);
        assert!(p[4] > p[1]);
        assert!(p[1] > p[0]);
        assert!(p[0] > p[2]);
    }

    #[test]
    fn uniform_input_uniform_output() {
        let mut star = engine(QFormat::CNEWS);
        let p = star.softmax_row(&[1.0; 16]);
        for &v in &p {
            assert!((v - 1.0 / 16.0).abs() < 2e-3, "{v}");
        }
    }

    #[test]
    fn large_spread_saturates_gracefully() {
        let mut star = engine(QFormat::COLA);
        // -100 clips at the format minimum; its probability ≈ 0.
        let p = star.softmax_row(&[5.0, -100.0]);
        assert!(p[0] > 0.99);
        assert!(p[1] < 0.01);
    }

    #[test]
    fn exp_codes_monotone_decreasing() {
        let e = engine(QFormat::MRPC);
        let codes = e.exp_codes();
        assert_eq!(codes.len(), 256);
        assert_eq!(codes[0], (1u32 << 18) - 1); // exp(0) = full scale
        for w in codes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rejects_bad_config() {
        let bad = StarSoftmaxConfig::new(QFormat::CNEWS).with_quotient_bits(40);
        assert_eq!(StarSoftmax::new(bad).err(), Some(BuildStarError::QuotientBits(40)));
        let bad2 = StarSoftmaxConfig::new(QFormat::CNEWS).with_max_row_len(0);
        assert!(matches!(StarSoftmax::new(bad2), Err(BuildStarError::MaxRowLen(0))));
    }

    #[test]
    #[should_panic(expected = "exceeds configured maximum")]
    fn row_longer_than_max_panics() {
        let mut star =
            StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS).with_max_row_len(4)).unwrap();
        let _ = star.softmax_row(&[0.0; 5]);
    }

    #[test]
    fn row_cost_grows_with_n() {
        let e = engine(QFormat::CNEWS);
        let c64 = e.row_cost(64);
        let c128 = e.row_cost(128);
        assert!(c128.latency.value() > c64.latency.value());
        assert!(c128.energy.value() > c64.energy.value());
        assert!(e.rows_per_second(128) > 0.0);
    }

    #[test]
    fn cost_sheet_itemized() {
        let e = engine(QFormat::CNEWS);
        let sheet = e.cost_sheet();
        assert!(sheet.items().iter().any(|i| i.name.contains("cam/sub")));
        assert!(sheet.items().iter().any(|i| i.name == "counter bank"));
        assert!(sheet.items().iter().any(|i| i.name == "divider"));
        assert!(sheet.total_area().value() > 0.0);
        assert!(sheet.total_power().value() > 0.0);
    }

    #[test]
    fn noisy_engine_still_ranks() {
        let cfg = StarSoftmaxConfig::new(QFormat::MRPC).with_noise(NoiseModel::new(0.03, 0.0, 0.0));
        let mut star = StarSoftmax::new(cfg).unwrap();
        let p = star.softmax_row(&[3.0, 0.0, -3.0]);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn faulty_engine_recovers() {
        // High stuck rates: fault recovery paths must keep the output a
        // (roughly) normalized distribution, and events must be counted.
        let cfg = StarSoftmaxConfig::new(QFormat::COLA)
            .with_noise(NoiseModel::new(0.0, 0.02, 0.02))
            .with_seed(99);
        let mut star = StarSoftmax::new(cfg).unwrap();
        let p = star.softmax_row(&[2.0, 1.0, 0.0, -1.0, 3.5, 0.5, 1.5, -2.0]);
        let sum: f64 = p.iter().sum();
        assert!(sum > 0.5 && sum < 2.0, "sum {sum}");
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn measured_energy_tracks_model() {
        let mut e = engine(QFormat::CNEWS);
        e.reset_ledgers();
        assert_eq!(e.measured_energy().value(), 0.0);
        let n = 32;
        let row: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 8.0).collect();
        let _ = e.softmax_row(&row);
        let measured = e.measured_energy();
        let modeled = e.row_cost(n).energy;
        assert!(measured.value() > 0.0);
        // The ledger covers the crossbar arrays only; it must sit below the
        // full model but within the same order of magnitude.
        assert!(measured.value() <= modeled.value());
        assert!(measured.value() > modeled.value() * 0.1, "measured {measured} model {modeled}");
        e.reset_ledgers();
        assert_eq!(e.measured_energy().value(), 0.0);
    }

    #[test]
    fn softmax_matrix_normalizes_rows() {
        let mut e = engine(QFormat::MRPC);
        let m =
            star_attention::Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f64 * 0.41).sin() * 6.0);
        let p = star_attention::softmax_rows(&mut e, &m);
        assert_eq!(p.shape(), (4, 8));
        for r in 0..4 {
            let sum: f64 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 0.01, "row {r} sum {sum}");
        }
    }

    #[test]
    fn quantize_uses_engine_format() {
        let e = engine(QFormat::CNEWS);
        assert_eq!(e.quantize(1.3).to_f64(), 1.25);
        assert_eq!(SoftmaxEngine::format(&e), Some(QFormat::CNEWS));
    }

    #[test]
    fn build_error_display() {
        assert!(BuildStarError::ExpWordBits(0).to_string().contains("exp word"));
        assert!(BuildStarError::QuotientBits(40).to_string().contains("quotient"));
        assert!(BuildStarError::MaxRowLen(0).to_string().contains("row length"));
    }
}
