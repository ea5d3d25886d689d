//! Controller-level schedule of the STAR softmax engine.
//!
//! [`StarSoftmax::row_cost`](crate::StarSoftmax::row_cost) is an aggregate;
//! this module expands it into the cycle-level operation sequence the
//! engine controller issues for one score row, so the aggregate can be
//! audited op by op (a test asserts the expansion sums exactly to
//! `row_cost`) and the per-phase time breakdown can be inspected.

use crate::star::StarSoftmax;
use serde::{Deserialize, Serialize};
use star_crossbar::OpCost;

/// The engine phases a row passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnginePhase {
    /// CAM search of one input against the value table.
    MaxSearch,
    /// OR-merge + priority encode after all searches.
    MaxMerge,
    /// Analog subtraction of one input against `x_max`.
    Subtract,
    /// Exponential-stage CAM search + LUT read + counter increment.
    ExpLookup,
    /// One-shot histogram × exp-table VMM.
    Sum,
    /// Fixed-point divisions (pipelined).
    Divide,
}

/// One scheduled operation: a phase, how many back-to-back instances, and
/// their combined cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// The phase.
    pub phase: EnginePhase,
    /// Number of consecutive instances (e.g. `n` searches).
    pub count: u64,
    /// Combined energy/latency of all instances.
    pub cost: OpCost,
}

/// The full schedule of one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowSchedule {
    /// Row length.
    pub n: usize,
    /// Operations in issue order.
    pub ops: Vec<ScheduledOp>,
}

impl RowSchedule {
    /// Expands the controller schedule for a row of `n` scores on the
    /// given engine.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn expand(engine: &StarSoftmax, n: usize) -> Self {
        assert!(n > 0, "schedule needs at least one element");
        let cam_sub = engine.cam_sub_costs();
        let ops = vec![
            ScheduledOp {
                phase: EnginePhase::MaxSearch,
                count: n as u64,
                cost: cam_sub.0.repeat(n as u64),
            },
            ScheduledOp { phase: EnginePhase::MaxMerge, count: 1, cost: cam_sub.1 },
            ScheduledOp {
                phase: EnginePhase::Subtract,
                count: n as u64,
                cost: cam_sub.2.repeat(n as u64),
            },
            ScheduledOp {
                phase: EnginePhase::ExpLookup,
                count: n as u64,
                cost: engine.exp_element_cost().repeat(n as u64),
            },
            ScheduledOp { phase: EnginePhase::Sum, count: 1, cost: engine.sum_cost() },
            ScheduledOp {
                phase: EnginePhase::Divide,
                count: n as u64,
                cost: engine.divide_cost(n),
            },
        ];
        RowSchedule { n, ops }
    }

    /// Total cost of the schedule.
    pub fn total(&self) -> OpCost {
        self.ops.iter().map(|op| op.cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SoftmaxEngine;
    use crate::star::StarSoftmaxConfig;
    use star_fixed::QFormat;

    fn engine() -> StarSoftmax {
        StarSoftmax::new(StarSoftmaxConfig::new(QFormat::MRPC)).expect("engine")
    }

    #[test]
    fn schedule_sums_to_row_cost() {
        let e = engine();
        for n in [1usize, 7, 64, 128, 512] {
            let schedule = RowSchedule::expand(&e, n);
            let total = schedule.total();
            let model = e.row_cost(n);
            assert!(
                (total.energy.value() - model.energy.value()).abs() < 1e-6,
                "n={n}: {} vs {}",
                total.energy,
                model.energy
            );
            assert!(
                (total.latency.value() - model.latency.value()).abs() < 1e-6,
                "n={n}: {} vs {}",
                total.latency,
                model.latency
            );
        }
    }

    #[test]
    fn counts_match_row_length() {
        let e = engine();
        let s = RowSchedule::expand(&e, 128);
        assert_eq!(s.ops.len(), 6);
        assert_eq!(s.ops[0].count, 128); // searches
        assert_eq!(s.ops[1].count, 1); // merge
        assert_eq!(s.ops[2].count, 128); // subtractions
        assert_eq!(s.ops[3].count, 128); // exp lookups
        assert_eq!(s.ops[4].count, 1); // sum
        assert_eq!(s.ops[5].count, 128); // divisions
    }

    #[test]
    fn element_phases_dominate_long_rows() {
        let e = engine();
        let s = RowSchedule::expand(&e, 512);
        let total = s.total().latency.value();
        let share = |phase| {
            let op = s.ops.iter().find(|op| op.phase == phase).expect("one op per phase");
            op.cost.latency.value() / total
        };
        // The one-shot phases are a vanishing fraction.
        assert!(share(EnginePhase::Sum) < 0.2);
        assert!(share(EnginePhase::MaxMerge) < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_schedule_rejected() {
        let e = engine();
        let _ = RowSchedule::expand(&e, 0);
    }
}
