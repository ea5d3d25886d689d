//! Replicated softmax engines with round-robin row dispatch — the
//! functional counterpart of the accelerator model's `softmax_units`
//! parameter: the STAR engine is tiny, so the vector-grained pipeline
//! instantiates several copies and interleaves score rows across them to
//! match the MatMul engine's row rate.

use crate::engine::SoftmaxEngine;
use crate::star::{BuildStarError, StarSoftmax, StarSoftmaxConfig};
use star_attention::RowSoftmax;
use star_crossbar::OpCost;
use star_device::CostSheet;
use star_fixed::QFormat;

/// A bank of identical STAR softmax engines with round-robin dispatch.
///
/// # Examples
///
/// ```
/// use star_attention::RowSoftmax;
/// use star_core::{EngineBank, StarSoftmaxConfig};
/// use star_fixed::QFormat;
///
/// let mut bank = EngineBank::new(StarSoftmaxConfig::new(QFormat::CNEWS), 4)?;
/// let p = bank.softmax_row(&[1.0, 2.0, 3.0]);
/// assert!(p[2] > p[0]);
/// assert_eq!(bank.units(), 4);
/// # Ok::<(), star_core::BuildStarError>(())
/// ```
#[derive(Debug)]
pub struct EngineBank {
    engines: Vec<StarSoftmax>,
    next: usize,
    name: String,
}

impl EngineBank {
    /// Builds `units` identical engines (each seeded differently so
    /// sampled faults are independent, as on a real die).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildStarError`]; also rejects zero units.
    pub fn new(config: StarSoftmaxConfig, units: usize) -> Result<Self, BuildStarError> {
        if units == 0 {
            return Err(BuildStarError::MaxRowLen(0));
        }
        let engines = (0..units)
            .map(|i| StarSoftmax::new(config.with_seed(config.seed.wrapping_add(i as u64))))
            .collect::<Result<Vec<_>, _>>()?;
        let name = format!("star-bank-{}x{}bit", units, config.format.total_bits());
        Ok(EngineBank { engines, next: 0, name })
    }

    /// Number of engine copies.
    pub fn units(&self) -> usize {
        self.engines.len()
    }

    /// The index the next row will dispatch to.
    pub fn next_unit(&self) -> usize {
        self.next
    }

    /// Total fault-recovery events across the bank.
    pub fn fault_events(&self) -> u64 {
        self.engines.iter().map(StarSoftmax::fault_events).sum()
    }

    /// Shared engine configuration.
    pub fn config(&self) -> &StarSoftmaxConfig {
        self.engines[0].config()
    }
}

impl RowSoftmax for EngineBank {
    fn softmax_row(&mut self, scores: &[f64]) -> Vec<f64> {
        let unit = self.next;
        self.next = (self.next + 1) % self.engines.len();
        self.engines[unit].softmax_row(scores)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl SoftmaxEngine for EngineBank {
    fn cost_sheet(&self) -> CostSheet {
        let mut sheet = CostSheet::new(self.name.clone());
        for (i, e) in self.engines.iter().enumerate() {
            let inner = e.cost_sheet();
            sheet.add(format!("engine {i}"), inner.total_area(), inner.total_power());
        }
        sheet
    }

    /// Effective per-row cost with rows interleaved across the bank:
    /// energy per row is one engine's, latency amortizes by the unit
    /// count (steady-state issue rate).
    fn row_cost(&self, n: usize) -> OpCost {
        let single = self.engines[0].row_cost(n);
        OpCost::new(single.energy, single.latency * (1.0 / self.engines.len() as f64))
    }

    fn format(&self) -> Option<QFormat> {
        Some(self.config().format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(units: usize) -> EngineBank {
        EngineBank::new(StarSoftmaxConfig::new(QFormat::CNEWS), units).expect("valid")
    }

    #[test]
    fn round_robin_dispatch() {
        let mut b = bank(3);
        assert_eq!(b.next_unit(), 0);
        let _ = b.softmax_row(&[1.0, 2.0]);
        assert_eq!(b.next_unit(), 1);
        let _ = b.softmax_row(&[1.0, 2.0]);
        let _ = b.softmax_row(&[1.0, 2.0]);
        assert_eq!(b.next_unit(), 0); // wrapped
    }

    #[test]
    fn identical_outputs_across_units() {
        let mut b = bank(4);
        let row = [0.5, -1.5, 2.25, 0.0];
        let outputs: Vec<Vec<f64>> = (0..4).map(|_| b.softmax_row(&row)).collect();
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]); // ideal engines are identical
        }
        // … and equal to a standalone engine of the same configuration.
        let mut single = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS)).expect("valid");
        assert_eq!(single.softmax_row(&row), outputs[0]);
    }

    #[test]
    fn cost_amortizes_latency_not_energy() {
        let single = bank(1);
        let quad = bank(4);
        let a = single.row_cost(128);
        let b = quad.row_cost(128);
        assert_eq!(a.energy.value(), b.energy.value());
        assert!((a.latency.value() / b.latency.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn area_scales_with_units() {
        let a1 = bank(1).cost_sheet().total_area().value();
        let a4 = bank(4).cost_sheet().total_area().value();
        assert!((a4 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_units_rejected() {
        assert!(EngineBank::new(StarSoftmaxConfig::new(QFormat::CNEWS), 0).is_err());
    }

    #[test]
    fn reports_shared_format() {
        let b = bank(2);
        assert_eq!(SoftmaxEngine::format(&b), Some(QFormat::CNEWS));
        assert_eq!(b.fault_events(), 0);
        assert!(b.name().contains("2x8bit"));
    }
}
