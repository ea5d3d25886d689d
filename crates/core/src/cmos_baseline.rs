//! The baseline CMOS softmax unit of Table I.
//!
//! A conventional full-precision softmax accelerator: FP32 datapath,
//! three passes over the row (max reduction, exponentiate-and-accumulate,
//! divide), with `lanes` parallel element pipelines. The exponential is a
//! LUT-with-interpolation unit, the norm is an FP adder tree, and the
//! normalization uses FP dividers — the standard design that Softermax
//! (and STAR) are measured against.

use crate::engine::SoftmaxEngine;
use star_attention::RowSoftmax;
use star_crossbar::OpCost;
use star_device::peripherals::{BlockSpec, PeripheralLibrary};
use star_device::{CostSheet, Latency, TechnologyParams};

/// Row buffer capacity in elements, per ping-pong FP32 buffer: one
/// BERT-base row at its longest sequence.
const BUFFER_LEN: usize = 512;

/// Full-precision CMOS softmax unit.
///
/// Functionally it evaluates softmax in `f32` (the quantization of a real
/// FP32 pipeline); its cost model is assembled from the 32 nm FP component
/// library.
///
/// # Examples
///
/// ```
/// use star_attention::RowSoftmax;
/// use star_core::CmosBaselineSoftmax;
///
/// let mut unit = CmosBaselineSoftmax::new(8);
/// let p = unit.softmax_row(&[0.0, 1.0]);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmosBaselineSoftmax {
    lanes: usize,
    tech: TechnologyParams,
    name: String,
}

impl CmosBaselineSoftmax {
    /// Creates a baseline unit with the given number of parallel lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "lane count must be positive");
        CmosBaselineSoftmax {
            lanes,
            tech: TechnologyParams::cmos32(),
            name: format!("cmos-fp32-baseline-x{lanes}"),
        }
    }

    /// Number of parallel element lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// One lane's component bundle: comparator (an FP adder), exp unit,
    /// accumulator adder, divider.
    fn lane_blocks() -> [(&'static str, BlockSpec); 4] {
        [
            ("fp32 comparator", PeripheralLibrary::fp32_adder()),
            ("exp unit (lut+interp)", PeripheralLibrary::exp_unit(10)),
            ("fp32 accumulator", PeripheralLibrary::fp32_adder()),
            ("fp32 divider", PeripheralLibrary::fp32_divider()),
        ]
    }
}

impl RowSoftmax for CmosBaselineSoftmax {
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        assert!(!scores.is_empty(), "softmax of an empty row is undefined");
        star_telemetry::count("cmos.softmax.rows", 1);
        // One max-compare, one exp, one div per element; one add per
        // element into the running sum.
        star_telemetry::count("cmos.softmax.exp_ops", scores.len() as u64);
        star_telemetry::count("cmos.softmax.div_ops", scores.len() as u64);
        // FP32 datapath: every intermediate is rounded to f32.
        let xs: Vec<f32> = scores.iter().map(|&x| x as f32).collect();
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&e| (e / sum) as f64).collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl SoftmaxEngine for CmosBaselineSoftmax {
    fn cost_sheet(&self) -> CostSheet {
        let mut sheet = CostSheet::new(self.name.clone());
        for (name, block) in Self::lane_blocks() {
            let b = block.replicate(self.lanes);
            // All lanes busy while a row streams through.
            sheet.add(
                format!("{name} x{}", self.lanes),
                b.area(),
                block.average_power(1.0) * self.lanes as f64,
            );
        }
        // Two ping-pong FP32 row buffers.
        let kib = (BUFFER_LEN * 4) as f64 / 1024.0;
        let buf = PeripheralLibrary::sram(kib.max(0.25));
        sheet.add("row buffers x2", buf.area() * 2.0, buf.average_power(1.0) * 2.0);
        sheet
    }

    fn row_cost(&self, n: usize) -> OpCost {
        let cycles_per_pass = n.div_ceil(self.lanes) as f64;
        let clock = self.tech.cmos_clock_ns();
        let [cmp, exp, acc, div] = Self::lane_blocks().map(|(_, b)| b);
        // Pass 1: max reduction; pass 2: exp + accumulate; pass 3: divide
        // (the divider is multi-cycle but pipelined).
        let energy = cmp.energy_for_ops(n as u64)
            + exp.energy_for_ops(n as u64)
            + acc.energy_for_ops(n as u64)
            + div.energy_for_ops(n as u64);
        let latency = Latency::new(
            cycles_per_pass * clock // max pass
                + cycles_per_pass * exp.latency_per_op().value() // exp+acc pass
                + cycles_per_pass * clock + div.latency_per_op().value(), // divide pass
        );
        OpCost::new(energy, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_attention::ExactSoftmax;

    #[test]
    fn matches_exact_to_fp32_precision() {
        let mut base = CmosBaselineSoftmax::new(8);
        let mut exact = ExactSoftmax::new();
        let scores = [1.7, -2.3, 0.4, 3.1, -0.9];
        let p = base.softmax_row(&scores);
        let q = exact.softmax_row(&scores);
        for (a, b) in p.iter().zip(&q) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn lanes_speed_up_rows() {
        let narrow = CmosBaselineSoftmax::new(1);
        let wide = CmosBaselineSoftmax::new(8);
        let ln = narrow.row_cost(128).latency.value();
        let lw = wide.row_cost(128).latency.value();
        assert!(ln > lw * 4.0, "narrow {ln} wide {lw}");
        // Energy is lane-independent (same work).
        assert!(
            (narrow.row_cost(128).energy.value() - wide.row_cost(128).energy.value()).abs() < 1e-9
        );
    }

    #[test]
    fn area_scales_with_lanes() {
        let a1 = CmosBaselineSoftmax::new(1).cost_sheet().total_area();
        let a8 = CmosBaselineSoftmax::new(8).cost_sheet().total_area();
        assert!(a8.value() > a1.value() * 4.0);
    }

    #[test]
    fn cost_sheet_dominated_by_fp_units() {
        let sheet = CmosBaselineSoftmax::new(8).cost_sheet();
        let dom = sheet.dominant_by_area().unwrap();
        assert!(dom.name.contains("exp") || dom.name.contains("divider"), "{}", dom.name);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lanes_rejected() {
        let _ = CmosBaselineSoftmax::new(0);
    }

    #[test]
    fn name_mentions_lanes() {
        assert_eq!(CmosBaselineSoftmax::new(4).name(), "cmos-fp32-baseline-x4");
        assert_eq!(CmosBaselineSoftmax::new(4).lanes(), 4);
    }
}
