//! Event-driven simulation of the attention row pipeline.
//!
//! [`attention_pipeline_latency`](crate::attention_pipeline_latency) is a
//! closed-form model; this module simulates the same dataflow row by row
//! — resources, occupancy, blocking — and produces per-row timelines. The
//! two agree exactly for uniform stage times (a property test enforces
//! it), and the simulator additionally handles what the formula cannot:
//! per-row varying stage latencies (e.g. softmax rows that saturate
//! early-exit paths). Each stage is one resource, as in STAR's row
//! pipeline; an accelerator with several softmax units is modelled by the
//! serving layer's service model, which divides the softmax stage among
//! them.

use crate::pipeline::PipelineMode;
use serde::{Deserialize, Serialize};
use star_device::Latency;

/// One row's journey through the three stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowTimeline {
    /// Row index.
    pub row: usize,
    /// QKᵀ stage start time (ns).
    pub qk_start: f64,
    /// Softmax stage start time.
    pub softmax_start: f64,
    /// PV stage start time.
    pub av_start: f64,
    /// Completion time.
    pub finish: f64,
}

/// Per-row stage durations (allows non-uniform rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowDurations {
    /// QKᵀ durations per row (ns).
    pub qk: Vec<f64>,
    /// Softmax durations per row.
    pub softmax: Vec<f64>,
    /// PV durations per row.
    pub av: Vec<f64>,
}

impl RowDurations {
    /// Uniform durations for `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or any duration is negative/non-finite.
    pub fn uniform(rows: usize, qk: f64, softmax: f64, av: f64) -> Self {
        assert!(rows > 0, "need at least one row");
        for d in [qk, softmax, av] {
            assert!(d.is_finite() && d >= 0.0, "durations must be finite and non-negative");
        }
        RowDurations { qk: vec![qk; rows], softmax: vec![softmax; rows], av: vec![av; rows] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.qk.len()
    }

    fn validate(&self) {
        assert!(!self.qk.is_empty(), "need at least one row");
        assert_eq!(self.qk.len(), self.softmax.len(), "stage vectors must agree");
        assert_eq!(self.qk.len(), self.av.len(), "stage vectors must agree");
    }
}

/// Result of an event-driven pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-row timelines.
    pub timelines: Vec<RowTimeline>,
    /// Total makespan.
    pub makespan: Latency,
    /// Total time the softmax resource spent busy.
    pub softmax_busy: Latency,
}

/// Simulates `rows` score rows through `QKᵀ → softmax → PV` under a
/// pipeline mode, with one resource per stage.
///
/// Resource semantics per mode:
/// - `Unpipelined`: one row finishes entirely before the next starts.
/// - `OperandGrained`: the two MatMul stages each own a resource and
///   stream, but the softmax unit blocks the whole flow — no new QKᵀ row
///   may start while a softmax is in flight.
/// - `VectorGrained`: three independent stage resources.
///
/// # Panics
///
/// Panics if durations are inconsistent.
pub fn simulate_pipeline(durations: &RowDurations, mode: PipelineMode) -> SimResult {
    durations.validate();
    let n = durations.rows();
    let mut timelines = Vec::with_capacity(n);
    let mut softmax_busy = 0.0;

    // Resource availability times.
    let mut qk_free = 0.0f64;
    let mut av_free = 0.0f64;
    let mut softmax_free = 0.0f64;
    let mut serial_free = 0.0f64; // unpipelined / blocking cursor

    for row in 0..n {
        let (dq, ds, da) = (durations.qk[row], durations.softmax[row], durations.av[row]);
        let (qk_start, softmax_start, av_start, finish) = match mode {
            PipelineMode::Unpipelined => {
                let qs = serial_free;
                let ss = qs + dq;
                let as_ = ss + ds;
                serial_free = as_ + da;
                (qs, ss, as_, serial_free)
            }
            PipelineMode::OperandGrained => {
                // The shared digital softmax unit stops the world: no
                // matmul stage runs while a softmax is in flight, so a
                // softmax may only start once the previous row's PV has
                // drained, and the next row's QKᵀ only after the softmax.
                let qs = qk_free.max(serial_free);
                let qe = qs + dq;
                qk_free = qe;
                let ss = qe.max(av_free);
                let se = ss + ds;
                serial_free = se; // blocks subsequent rows
                softmax_busy += ds;
                let as_ = se.max(av_free);
                let ae = as_ + da;
                av_free = ae;
                (qs, ss, as_, ae)
            }
            PipelineMode::VectorGrained => {
                let qs = qk_free;
                let qe = qs + dq;
                qk_free = qe;
                let ss = qe.max(softmax_free);
                let se = ss + ds;
                softmax_free = se;
                softmax_busy += ds;
                let as_ = se.max(av_free);
                let ae = as_ + da;
                av_free = ae;
                (qs, ss, as_, ae)
            }
        };
        if mode == PipelineMode::Unpipelined {
            softmax_busy += ds;
        }
        timelines.push(RowTimeline { row, qk_start, softmax_start, av_start, finish });
    }

    let makespan = timelines.iter().map(|t| t.finish).fold(0.0, f64::max);
    SimResult {
        timelines,
        makespan: Latency::new(makespan),
        softmax_busy: Latency::new(softmax_busy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{attention_pipeline_latency, RowStageLatency};

    fn formula(rows: usize, qk: f64, sm: f64, av: f64, mode: PipelineMode) -> f64 {
        let stages = RowStageLatency::new(Latency::new(qk), Latency::new(sm), Latency::new(av));
        attention_pipeline_latency(rows, stages, mode).value()
    }

    #[test]
    fn matches_formula_unpipelined() {
        let d = RowDurations::uniform(17, 10.0, 25.0, 15.0);
        let sim = simulate_pipeline(&d, PipelineMode::Unpipelined);
        assert!(
            (sim.makespan.value() - formula(17, 10.0, 25.0, 15.0, PipelineMode::Unpipelined)).abs()
                < 1e-9
        );
    }

    #[test]
    fn matches_formula_vector_grained() {
        for (qk, sm, av) in [(10.0, 25.0, 15.0), (30.0, 5.0, 30.0), (7.0, 7.0, 7.0)] {
            let d = RowDurations::uniform(64, qk, sm, av);
            let sim = simulate_pipeline(&d, PipelineMode::VectorGrained);
            let f = formula(64, qk, sm, av, PipelineMode::VectorGrained);
            assert!(
                (sim.makespan.value() - f).abs() < 1e-9,
                "({qk},{sm},{av}): sim {} vs {f}",
                sim.makespan
            );
        }
    }

    #[test]
    fn matches_formula_operand_grained() {
        for (qk, sm, av) in [(10.0, 25.0, 15.0), (30.0, 5.0, 30.0)] {
            let d = RowDurations::uniform(64, qk, sm, av);
            let sim = simulate_pipeline(&d, PipelineMode::OperandGrained);
            let f = formula(64, qk, sm, av, PipelineMode::OperandGrained);
            // The formula is the steady-state approximation; the simulator
            // may differ by at most one pipeline fill term.
            let slack = qk + sm + av;
            assert!(
                (sim.makespan.value() - f).abs() <= slack,
                "sim {} vs formula {}",
                sim.makespan,
                f
            );
        }
    }

    #[test]
    fn timelines_are_causal_and_ordered() {
        let d = RowDurations::uniform(16, 5.0, 9.0, 7.0);
        for mode in PipelineMode::ALL {
            let sim = simulate_pipeline(&d, mode);
            for t in &sim.timelines {
                assert!(t.qk_start <= t.softmax_start, "{mode:?}");
                assert!(t.softmax_start <= t.av_start, "{mode:?}");
                assert!(t.av_start < t.finish, "{mode:?}");
            }
            // Rows finish in order within each mode (FIFO stages).
            for w in sim.timelines.windows(2) {
                assert!(w[0].finish <= w[1].finish, "{mode:?}");
            }
        }
    }

    #[test]
    fn non_uniform_rows_supported() {
        let mut d = RowDurations::uniform(8, 10.0, 10.0, 10.0);
        d.softmax[3] = 100.0; // one slow row
        let sim = simulate_pipeline(&d, PipelineMode::VectorGrained);
        let uniform = simulate_pipeline(
            &RowDurations::uniform(8, 10.0, 10.0, 10.0),
            PipelineMode::VectorGrained,
        );
        assert!(sim.makespan > uniform.makespan);
        assert!((sim.softmax_busy.value() - (7.0 * 10.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn utilization_fraction() {
        let d = RowDurations::uniform(32, 20.0, 10.0, 20.0);
        let sim = simulate_pipeline(&d, PipelineMode::VectorGrained);
        let (busy, makespan) = (sim.softmax_busy.value(), sim.makespan.value());
        assert!(busy > 0.0 && busy < makespan, "{busy} of {makespan}");
    }

    #[test]
    #[should_panic(expected = "stage vectors must agree")]
    fn ragged_durations_rejected() {
        let d = RowDurations { qk: vec![1.0, 2.0], softmax: vec![1.0], av: vec![1.0, 2.0] };
        let _ = simulate_pipeline(&d, PipelineMode::VectorGrained);
    }
}
