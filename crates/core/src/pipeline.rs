//! The vector-grained global pipeline (§II, last paragraph).
//!
//! Attention is a three-stage dataflow per score row: `QKᵀ` (MatMul
//! engine) → softmax → `·V` (MatMul engine). What distinguishes the
//! accelerators is *how rows overlap*:
//!
//! - **Unpipelined** — every stage of every row strictly sequential.
//! - **Operand-grained** (prior RRAM accelerators): the crossbar MatMul
//!   stages stream and overlap, but softmax executes on a shared digital
//!   unit that blocks the flow — its time adds serially for every row.
//!   This is the paper's observation that "the softmax still runs on the
//!   same circuits".
//! - **Vector-grained** (STAR): the dedicated crossbar softmax engine is a
//!   true pipeline stage, so a row can be softmaxed while the next row's
//!   scores are produced and the previous row's context is accumulated;
//!   steady-state throughput is set by the slowest single stage.

use serde::{Deserialize, Serialize};
use star_device::Latency;

/// Per-row latencies of the three attention stages.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RowStageLatency {
    /// One row of `QKᵀ` on the MatMul engine.
    pub qk: Latency,
    /// One row of softmax.
    pub softmax: Latency,
    /// One row of `P·V` on the MatMul engine.
    pub av: Latency,
}

impl RowStageLatency {
    /// Creates the stage latencies.
    pub fn new(qk: Latency, softmax: Latency, av: Latency) -> Self {
        RowStageLatency { qk, softmax, av }
    }

    /// Sum of all three stages (one row, no overlap).
    pub fn serial(&self) -> Latency {
        self.qk + self.softmax + self.av
    }

    /// The slowest stage.
    pub fn bottleneck(&self) -> Latency {
        Latency::new(self.qk.value().max(self.softmax.value()).max(self.av.value()))
    }

    /// The slowest MatMul stage (the steady-state rate when softmax is not
    /// a pipeline stage).
    fn matmul_bottleneck(&self) -> Latency {
        Latency::new(self.qk.value().max(self.av.value()))
    }
}

/// Row-overlap discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineMode {
    /// No overlap at all.
    Unpipelined,
    /// MatMul stages pipeline; softmax serializes (prior work).
    OperandGrained,
    /// All three stages pipeline at row granularity (STAR).
    VectorGrained,
}

impl PipelineMode {
    /// All modes, for sweeps.
    pub const ALL: [PipelineMode; 3] =
        [PipelineMode::Unpipelined, PipelineMode::OperandGrained, PipelineMode::VectorGrained];
}

/// Total latency to push `rows` score rows through the attention dataflow
/// under a pipeline mode.
///
/// # Panics
///
/// Panics if `rows` is zero.
///
/// # Examples
///
/// ```
/// use star_core::{attention_pipeline_latency, PipelineMode, RowStageLatency};
/// use star_device::Latency;
///
/// let stages = RowStageLatency::new(Latency::new(100.0), Latency::new(80.0), Latency::new(100.0));
/// let flat = attention_pipeline_latency(128, stages, PipelineMode::Unpipelined);
/// let star = attention_pipeline_latency(128, stages, PipelineMode::VectorGrained);
/// assert!(star < flat);
/// ```
pub fn attention_pipeline_latency(
    rows: usize,
    stages: RowStageLatency,
    mode: PipelineMode,
) -> Latency {
    assert!(rows > 0, "pipeline needs at least one row");
    let n = rows as f64;
    match mode {
        PipelineMode::Unpipelined => stages.serial() * n,
        PipelineMode::OperandGrained => {
            // Fill the two matmul stages once, stream at the matmul
            // bottleneck, and pay softmax serially for every row.
            stages.qk + stages.av + stages.matmul_bottleneck() * (n - 1.0) + stages.softmax * n
        }
        PipelineMode::VectorGrained => stages.serial() + stages.bottleneck() * (n - 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(qk: f64, sm: f64, av: f64) -> RowStageLatency {
        RowStageLatency::new(Latency::new(qk), Latency::new(sm), Latency::new(av))
    }

    #[test]
    fn single_row_all_modes_equal_serial() {
        let s = stages(10.0, 20.0, 15.0);
        for mode in PipelineMode::ALL {
            let l = attention_pipeline_latency(1, s, mode);
            assert_eq!(l.value(), 45.0, "{mode:?}");
        }
    }

    /// Every mode's latency for `rows` rows, in [`PipelineMode::ALL`]
    /// order: unpipelined, operand-grained, vector-grained.
    fn all_modes(rows: usize, s: RowStageLatency) -> [Latency; 3] {
        PipelineMode::ALL.map(|mode| attention_pipeline_latency(rows, s, mode))
    }

    #[test]
    fn ordering_unpipelined_ge_operand_ge_vector() {
        let s = stages(100.0, 80.0, 100.0);
        for n in [2usize, 16, 128, 512] {
            let [unpipelined, operand, vector] = all_modes(n, s);
            assert!(unpipelined >= operand, "n={n}");
            assert!(operand >= vector, "n={n}");
        }
    }

    #[test]
    fn vector_grained_is_bottleneck_bound() {
        let s = stages(100.0, 80.0, 90.0);
        let n = 1000;
        let l = attention_pipeline_latency(n, s, PipelineMode::VectorGrained);
        // ≈ n · bottleneck for large n.
        let per_row = l.value() / n as f64;
        assert!((per_row - 100.0).abs() < 1.0, "{per_row}");
    }

    #[test]
    fn operand_grained_pays_softmax_serially() {
        let s = stages(100.0, 80.0, 100.0);
        let n = 1000;
        let l = attention_pipeline_latency(n, s, PipelineMode::OperandGrained);
        let per_row = l.value() / n as f64;
        // ≈ matmul bottleneck + softmax per row.
        assert!((per_row - 180.0).abs() < 1.0, "{per_row}");
    }

    #[test]
    fn speedups_above_one_when_softmax_matters() {
        let [unpipelined, operand, vector] = all_modes(128, stages(100.0, 80.0, 100.0));
        assert!(operand.value() > 1.5 * vector.value());
        assert!(unpipelined.value() > 2.0 * vector.value());
    }

    #[test]
    fn zero_cost_softmax_makes_modes_converge() {
        let s = stages(100.0, 0.0, 100.0);
        let op = attention_pipeline_latency(512, s, PipelineMode::OperandGrained);
        let vec = attention_pipeline_latency(512, s, PipelineMode::VectorGrained);
        assert!((op.value() - vec.value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        let _ = attention_pipeline_latency(0, stages(1.0, 1.0, 1.0), PipelineMode::VectorGrained);
    }

    #[test]
    fn serial_and_bottleneck() {
        let s = stages(3.0, 7.0, 5.0);
        assert_eq!(s.serial().value(), 15.0);
        assert_eq!(s.bottleneck().value(), 7.0);
    }
}
