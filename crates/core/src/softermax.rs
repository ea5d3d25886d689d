//! Softermax (Stevens et al., DAC 2021) — the optimized CMOS comparison
//! point of Table I.
//!
//! Softermax's three tricks, all reproduced here:
//!
//! 1. **Base-2 softmax**: `2^x` instead of `e^x` (the `log₂e` factor is
//!    folded into the preceding scale), so exponentiation becomes a barrel
//!    shift by the integer part plus a tiny fraction LUT.
//! 2. **Online (running-max) normalization**: one pass computes the
//!    denominator while the max is still being discovered, rescaling the
//!    running sum by a shift whenever the max advances — possible because
//!    the running max is kept on the *integer* grid.
//! 3. **Low-precision fixed-point arithmetic** throughout.

use crate::engine::{fixed_divide, SoftmaxEngine};
use star_attention::RowSoftmax;
use star_crossbar::OpCost;
use star_device::peripherals::PeripheralLibrary;
use star_device::{CostSheet, Latency, TechnologyParams};
use star_fixed::{Fixed, QFormat};

/// The Softermax softmax unit.
///
/// # Examples
///
/// ```
/// use star_attention::RowSoftmax;
/// use star_core::Softermax;
/// use star_fixed::QFormat;
///
/// let mut unit = Softermax::new(QFormat::CNEWS, 4);
/// let p = unit.softmax_row(&[1.0, 2.0, 3.0]);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Softermax {
    format: QFormat,
    lanes: usize,
    /// Fraction LUT: `2^-r` for each fractional code `r`, in `exp2_bits`
    /// precision.
    frac_lut: Vec<u32>,
    exp2_bits: u8,
    quotient_bits: u8,
    tech: TechnologyParams,
    name: String,
}

impl Softermax {
    /// Width of the power-of-two codes (the paper's low-precision choice).
    const EXP2_BITS: u8 = 12;

    /// Creates a Softermax unit operating on the given input format with
    /// `lanes` parallel element pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(format: QFormat, lanes: usize) -> Self {
        assert!(lanes > 0, "lane count must be positive");
        let exp2_bits = Self::EXP2_BITS;
        let scale = (1u32 << exp2_bits) - 1;
        let entries = 1usize << format.frac_bits();
        let frac_lut = (0..entries)
            .map(|r| {
                let frac = r as f64 * format.resolution();
                ((-frac).exp2() * scale as f64).round() as u32
            })
            .collect();
        Softermax {
            format,
            lanes,
            frac_lut,
            exp2_bits,
            quotient_bits: 12,
            tech: TechnologyParams::cmos32(),
            name: format!("softermax-{}bit-x{lanes}", format.total_bits()),
        }
    }

    /// Number of parallel lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `2^y` for a non-positive fixed-point exponent, as the hardware
    /// computes it: LUT on the fractional part, barrel shift by the
    /// integer part. Returns a code in `exp2_bits` precision.
    fn exp2_code(&self, y: Fixed) -> u64 {
        debug_assert!(y.to_f64() <= 0.0, "exp2 operand must be non-positive");
        let mag = y.magnitude_code(); // |y| in 2^-frac units
        let frac_mask = (1u64 << self.format.frac_bits()) - 1;
        let frac_idx = (mag & frac_mask) as usize;
        let int_shift = mag >> self.format.frac_bits();
        if int_shift >= self.exp2_bits as u64 {
            return 0; // shifted to extinction
        }
        u64::from(self.frac_lut[frac_idx]) >> int_shift
    }
}

impl RowSoftmax for Softermax {
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        assert!(!scores.is_empty(), "softmax of an empty row is undefined");
        star_telemetry::count("softermax.softmax.rows", 1);
        // The online pass does one exp2 lookup + running-max update per
        // element; normalization recomputes each numerator and divides.
        star_telemetry::count("softermax.softmax.exp2_ops", 2 * scores.len() as u64);
        star_telemetry::count("softermax.softmax.div_ops", scores.len() as u64);
        // Fold ln→log₂ conversion into the input scale, then quantize.
        let log2e = std::f64::consts::LOG2_E;
        let xs: Vec<Fixed> =
            scores.iter().map(|&s| Fixed::from_f64(s * log2e, self.format)).collect();

        // Online pass: integer-grid running max + running denominator.
        let mut m_int: i64 = i64::MIN; // running max, integer units
        let mut denom: u64 = 0;
        let frac_bits = self.format.frac_bits() as u32;
        for &x in &xs {
            // ceil(x) on the integer grid.
            let x_int = (x.raw() + ((1i64 << frac_bits) - 1)) >> frac_bits;
            if x_int > m_int {
                if m_int == i64::MIN {
                    denom = 0; // first element: nothing to rescale
                } else {
                    denom >>= (x_int - m_int).min(63) as u32;
                }
                m_int = x_int;
            }
            let y = Fixed::from_raw(x.raw() - (m_int << frac_bits), self.format);
            denom = denom.saturating_add(self.exp2_code(y));
        }
        let denom = denom.max(1);

        // Normalization pass (numerators recomputed, as in the pipelined
        // hardware).
        xs.iter()
            .map(|&x| {
                let y = Fixed::from_raw(x.raw() - (m_int << frac_bits), self.format);
                fixed_divide(self.exp2_code(y), denom, self.quotient_bits)
            })
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl Softermax {
    /// One lane's component bundle, following the Softermax paper's
    /// microarchitecture: max comparator, fraction LUT, barrel shifter,
    /// piecewise-linear interpolation multiplier, running-denominator
    /// accumulator, output normalization multiplier, and the deep pipeline
    /// registers + control the design needs to sustain one element per
    /// cycle (the dominant area term in the original's breakdown).
    fn lane_blocks(&self) -> Vec<(String, star_device::BlockSpec)> {
        let b = self.format.total_bits();
        let entries = 1usize << self.format.frac_bits();
        vec![
            ("int comparator".into(), PeripheralLibrary::int_adder(b)),
            ("exp2 fraction lut".into(), PeripheralLibrary::register_lut(entries, self.exp2_bits)),
            ("barrel shifter".into(), PeripheralLibrary::shift_add(self.exp2_bits)),
            ("interp multiplier".into(), PeripheralLibrary::int_multiplier(self.exp2_bits)),
            ("norm multiplier".into(), PeripheralLibrary::int_multiplier(self.exp2_bits)),
            ("denominator accumulator".into(), PeripheralLibrary::int_adder(self.exp2_bits + 8)),
            ("pipeline regs + control".into(), PeripheralLibrary::pipeline_control(480)),
        ]
    }
}

impl SoftmaxEngine for Softermax {
    fn cost_sheet(&self) -> CostSheet {
        let mut sheet = CostSheet::new(self.name.clone());
        for (name, block) in self.lane_blocks() {
            sheet.add(
                format!("{name} x{}", self.lanes),
                block.area() * self.lanes as f64,
                block.average_power(1.0) * self.lanes as f64,
            );
        }
        let div = PeripheralLibrary::fixed_divider(self.exp2_bits);
        sheet.add("reciprocal divider", div.area(), div.average_power(1.0));
        // One low-precision ping-pong row buffer pair.
        let kib = (512 * self.format.total_bits() as usize) as f64 / 8.0 / 1024.0;
        let buf = PeripheralLibrary::sram(kib.max(0.25));
        sheet.add("row buffers x2", buf.area() * 2.0, buf.average_power(0.5) * 2.0);
        sheet
    }

    fn row_cost(&self, n: usize) -> OpCost {
        let cycles = n.div_ceil(self.lanes) as f64;
        let clock = self.tech.cmos_clock_ns();
        let per_elem: star_device::Energy =
            self.lane_blocks().iter().map(|(_, b)| b.energy_per_op()).sum();
        let div = PeripheralLibrary::fixed_divider(self.exp2_bits);
        let energy = per_elem * n as f64 + div.energy_for_ops(n as u64);
        // One online pass + one normalization pass.
        let latency = Latency::new(2.0 * cycles * clock + div.latency_per_op().value());
        OpCost::new(energy, latency)
    }

    fn format(&self) -> Option<QFormat> {
        Some(self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_attention::ExactSoftmax;

    #[test]
    fn close_to_exact() {
        let mut soft = Softermax::new(QFormat::MRPC, 4);
        let mut exact = ExactSoftmax::new();
        let scores = [0.8, -1.1, 2.4, 0.05, 1.3];
        let p = soft.softmax_row(&scores);
        let q = exact.softmax_row(&scores);
        for (a, b) in p.iter().zip(&q) {
            assert!((a - b).abs() < 0.05, "softermax {a} vs exact {b}");
        }
    }

    #[test]
    fn ranking_preserved() {
        let mut soft = Softermax::new(QFormat::CNEWS, 4);
        let p = soft.softmax_row(&[3.0, 1.0, -2.0, 2.0]);
        assert!(p[0] > p[3] && p[3] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn uniform_inputs() {
        let mut soft = Softermax::new(QFormat::CNEWS, 4);
        let p = soft.softmax_row(&[0.5; 8]);
        for &v in &p {
            assert!((v - 0.125).abs() < 0.01, "{v}");
        }
    }

    #[test]
    fn exp2_code_monotone() {
        let soft = Softermax::new(QFormat::MRPC, 1);
        let fmt = QFormat::MRPC;
        let mut prev = u64::MAX;
        for raw in (-64..=0).rev() {
            let code = soft.exp2_code(Fixed::from_raw(raw, fmt));
            assert!(code <= prev, "raw {raw}");
            prev = code;
        }
        assert_eq!(soft.exp2_code(Fixed::from_raw(0, fmt)), (1 << 12) - 1);
    }

    #[test]
    fn deep_negative_underflows_to_zero() {
        let soft = Softermax::new(QFormat::CNEWS, 1);
        let fmt = QFormat::CNEWS;
        assert_eq!(soft.exp2_code(Fixed::from_f64(-30.0, fmt)), 0);
    }

    #[test]
    fn cheaper_than_baseline_per_row() {
        use crate::CmosBaselineSoftmax;
        let soft = Softermax::new(QFormat::CNEWS, 8);
        let base = CmosBaselineSoftmax::new(8);
        assert!(soft.row_cost(128).energy.value() < base.row_cost(128).energy.value());
        assert!(soft.cost_sheet().total_area().value() < base.cost_sheet().total_area().value());
        assert!(soft.cost_sheet().total_power().value() < base.cost_sheet().total_power().value());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lanes_rejected() {
        let _ = Softermax::new(QFormat::CNEWS, 0);
    }

    #[test]
    fn reports_format() {
        let soft = Softermax::new(QFormat::COLA, 2);
        assert_eq!(SoftmaxEngine::format(&soft), Some(QFormat::COLA));
        assert_eq!(soft.lanes(), 2);
    }
}
