//! Generalizing the exponential stage: a CAM + LUT crossbar pair can
//! evaluate *any* scalar function over a fixed-point domain, not just
//! `exp`. This module packages that machinery as [`LutFunctionUnit`] —
//! the natural extension of the paper's design to the other transformer
//! non-linearities (GELU, sigmoid, tanh, reciprocal, √x …), with the same
//! cost structure as the softmax engine's exponential stage.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use star_crossbar::{CamCrossbar, Geometry, LutCrossbar, OpCost};
use star_device::{CostSheet, NoiseModel, TechnologyParams};
use star_fixed::{Fixed, QFormat, Rounding};
use std::fmt;

/// A crossbar lookup evaluator for a scalar function `f` over a signed
/// fixed-point input domain.
///
/// Construction samples `f` at every representable input code and programs
/// a CAM (input patterns, two's complement) and a LUT (quantized outputs);
/// evaluation is one search + one row read, exactly like the softmax
/// engine's exponential stage.
///
/// # Examples
///
/// ```
/// use star_core::LutFunctionUnit;
/// use star_fixed::QFormat;
///
/// // A GELU unit over q3.4 inputs, 16-bit outputs in [-1, 8).
/// let fmt = QFormat::new(3, 4)?;
/// let mut gelu = LutFunctionUnit::new(
///     "gelu", fmt, star_attention::gelu, (-1.0, 8.0), 16,
/// );
/// let y = gelu.evaluate(1.0);
/// assert!((y - star_attention::gelu(1.0)).abs() < 0.01);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
pub struct LutFunctionUnit {
    name: String,
    format: QFormat,
    cam: CamCrossbar,
    lut: LutCrossbar,
    /// Output codes per input row (row = max_raw − raw, descending).
    codes: Vec<u64>,
    out_min: f64,
    out_max: f64,
    out_bits: u8,
    tech: TechnologyParams,
    fault_events: u64,
}

impl fmt::Debug for LutFunctionUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LutFunctionUnit")
            .field("name", &self.name)
            .field("format", &self.format)
            .field("out_bits", &self.out_bits)
            .field("out_range", &(self.out_min, self.out_max))
            .finish()
    }
}

impl LutFunctionUnit {
    /// Builds a unit for `f` over the full input format domain, quantizing
    /// outputs to `out_bits` codes spanning `out_range` (outputs outside
    /// the range saturate).
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is not in `1..=32`, the range is empty, or `f`
    /// returns non-finite values on the domain.
    pub fn new(
        name: &str,
        format: QFormat,
        f: impl Fn(f64) -> f64,
        out_range: (f64, f64),
        out_bits: u8,
    ) -> Self {
        assert!((1..=32).contains(&out_bits), "output width must be in 1..=32 bits");
        let (out_min, out_max) = out_range;
        assert!(out_max > out_min, "output range must be non-empty");
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(0xF0);
        let rows = format.num_codes() as usize;
        let word_bits = format.total_bits() as usize;
        let mut cam = CamCrossbar::new(rows, word_bits, &tech, NoiseModel::ideal(), &mut rng);
        let mut lut =
            LutCrossbar::new(rows, out_bits as usize, &tech, NoiseModel::ideal(), &mut rng);
        let scale = ((1u64 << out_bits) - 1) as f64;
        let mut codes = Vec::with_capacity(rows);
        for row in 0..rows {
            let raw = format.max_raw() - row as i64;
            let x = Fixed::from_raw(raw, format);
            let bits = star_fixed::encoding::to_twos_complement(x);
            cam.store_row(row, &bits);
            let y = f(x.to_f64());
            assert!(y.is_finite(), "function returned non-finite output at {x}");
            let code =
                (((y - out_min) / (out_max - out_min)).clamp(0.0, 1.0) * scale).round() as u64;
            lut.store_word(row, code);
            codes.push(code);
        }
        LutFunctionUnit {
            name: name.to_owned(),
            format,
            cam,
            lut,
            codes,
            out_min,
            out_max,
            out_bits,
            tech,
            fault_events: 0,
        }
    }

    /// The unit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// CAM and LUT shapes.
    pub fn geometry(&self) -> (Geometry, Geometry) {
        (self.cam.geometry(), self.lut.geometry())
    }

    /// Count of fault-recovery events (0 on an ideal array).
    pub fn fault_events(&self) -> u64 {
        self.fault_events
    }

    /// Evaluates the function for one input through the crossbar path:
    /// quantize → CAM search → LUT read → dequantize.
    pub fn evaluate(&mut self, x: f64) -> f64 {
        let q = Fixed::from_f64(x, self.format, Rounding::Nearest);
        let key = star_fixed::encoding::twos_complement_code(q);
        let row = self.cam.search_one_hot(key).unwrap_or_else(|| {
            // A defective CAM matched zero or several rows: read the
            // nominal row instead.
            self.fault_events += 1;
            (self.format.max_raw() - q.raw()) as usize
        });
        let code = self.lut.read_row(row);
        self.decode(code)
    }

    /// Evaluates a whole slice.
    pub fn evaluate_all(&mut self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.evaluate(x)).collect()
    }

    /// Dequantizes an output code.
    fn decode(&self, code: u64) -> f64 {
        let scale = ((1u64 << self.out_bits) - 1) as f64;
        self.out_min + code as f64 / scale * (self.out_max - self.out_min)
    }

    /// Worst-case output quantization step.
    pub fn output_resolution(&self) -> f64 {
        (self.out_max - self.out_min) / ((1u64 << self.out_bits) - 1) as f64
    }

    /// Cost of one evaluation: CAM search then LUT read.
    pub fn evaluate_cost(&self) -> OpCost {
        self.cam.search_cost().then(self.lut.read_cost())
    }

    /// Itemized area/power budget.
    pub fn cost_sheet(&self, activity: f64) -> CostSheet {
        let mut sheet = CostSheet::new(self.name.clone());
        sheet.absorb(&self.cam.cost_sheet("cam", activity));
        sheet.absorb(&self.lut.cost_sheet("lut", activity));
        let _ = &self.tech;
        sheet
    }

    /// The nominal output code table (index = row, descending input order).
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }
}

/// Convenience constructors for the transformer's non-linearities.
impl LutFunctionUnit {
    /// A GELU unit (outputs span `[min_input·0.2, max_input]`, covering
    /// GELU's small negative lobe).
    pub fn gelu(format: QFormat, out_bits: u8) -> Self {
        let lo = format.min_value();
        let hi = format.max_value();
        Self::new("gelu", format, star_attention::gelu, (0.2 * lo, hi), out_bits)
    }

    /// A logistic-sigmoid unit (outputs in `[0, 1]`).
    pub fn sigmoid(format: QFormat, out_bits: u8) -> Self {
        Self::new("sigmoid", format, |x| 1.0 / (1.0 + (-x).exp()), (0.0, 1.0), out_bits)
    }

    /// A tanh unit (outputs in `[-1, 1]`).
    pub fn tanh(format: QFormat, out_bits: u8) -> Self {
        Self::new("tanh", format, f64::tanh, (-1.0, 1.0), out_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> QFormat {
        QFormat::new(3, 4).expect("valid") // 8-bit domain, [-8, 8)
    }

    #[test]
    fn sigmoid_accuracy() {
        let mut unit = LutFunctionUnit::sigmoid(fmt(), 16);
        for i in -60..=60 {
            let x = i as f64 / 8.0;
            let y = unit.evaluate(x);
            let truth = 1.0 / (1.0 + (-x).exp());
            // Input quantization (2^-4) dominates; sigmoid slope ≤ 1/4.
            assert!((y - truth).abs() < 0.02, "x={x} y={y} truth={truth}");
        }
        assert_eq!(unit.fault_events(), 0);
    }

    #[test]
    fn tanh_odd_symmetry() {
        let mut unit = LutFunctionUnit::tanh(fmt(), 16);
        for i in 1..=40 {
            let x = i as f64 / 8.0;
            let a = unit.evaluate(x);
            let b = unit.evaluate(-x);
            assert!((a + b).abs() < 2.0 * unit.output_resolution() + 1e-9, "x={x}");
        }
    }

    #[test]
    fn gelu_matches_reference() {
        let mut unit = LutFunctionUnit::gelu(fmt(), 16);
        for i in -31..=31 {
            // Stay inside the q3.4 domain [-8, 7.9375].
            let x = i as f64 / 4.0;
            let y = unit.evaluate(x);
            assert!((y - star_attention::gelu(x)).abs() < 0.05, "x={x} y={y}");
        }
    }

    #[test]
    fn geometry_matches_format() {
        let unit = LutFunctionUnit::sigmoid(fmt(), 12);
        let (cam, lut) = unit.geometry();
        assert_eq!(cam.rows(), 256); // 2^8 codes
        assert_eq!(cam.cols(), 16); // complementary pairs of 8 bits
        assert_eq!(lut.cols(), 12);
        assert_eq!(unit.codes().len(), 256);
    }

    #[test]
    fn out_of_domain_saturates() {
        let mut unit = LutFunctionUnit::sigmoid(fmt(), 16);
        let hi = unit.evaluate(100.0); // clamps to max input 7.9375
        assert!(hi > 0.99);
        let lo = unit.evaluate(-100.0);
        assert!(lo < 0.01);
    }

    #[test]
    fn evaluate_all_matches_scalar() {
        let mut unit = LutFunctionUnit::tanh(fmt(), 16);
        let xs = [0.5, -1.25, 3.0];
        let batch = unit.evaluate_all(&xs);
        let mut unit2 = LutFunctionUnit::tanh(fmt(), 16);
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(unit2.evaluate(*x), *b);
        }
    }

    #[test]
    fn cost_and_sheet_positive() {
        let unit = LutFunctionUnit::gelu(fmt(), 16);
        let c = unit.evaluate_cost();
        assert!(c.energy.value() > 0.0 && c.latency.value() > 0.0);
        let sheet = unit.cost_sheet(0.5);
        assert!(sheet.total_area().value() > 0.0);
        assert_eq!(unit.name(), "gelu");
        assert_eq!(unit.format(), fmt());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = LutFunctionUnit::new("bad", fmt(), |x| x, (1.0, 1.0), 8);
    }

    #[test]
    fn output_resolution_shrinks_with_bits() {
        let coarse = LutFunctionUnit::sigmoid(fmt(), 8);
        let fine = LutFunctionUnit::sigmoid(fmt(), 16);
        assert!(fine.output_resolution() < coarse.output_resolution() / 100.0);
    }
}
