//! Pipeline-semantics-aware trace export and utilization reporting.
//!
//! `star-telemetry` owns the Chrome trace-event *format*; this module owns
//! the mapping from [`simulate_pipeline`]
//! schedules onto it. Two products:
//!
//! - [`pipeline_chrome_trace`] — a Perfetto-loadable trace with one lane
//!   per pipeline resource (`QK`, the softmax engine, `PV`) and
//!   one complete event per row per stage, so the Fig. 4 pipelining
//!   argument can be *seen* rather than inferred from a makespan number.
//! - [`UtilizationReport`] — per-stage busy/stall/occupancy with
//!   bottleneck attribution. By construction `busy + stall == makespan`
//!   exactly for every lane (stall is *defined* as the complement), which
//!   the a*/e* bench sidecars rely on as an internal-consistency check.

use crate::event_sim::{simulate_pipeline, RowDurations};
use crate::pipeline::PipelineMode;
use serde::{Deserialize, Serialize};
use star_telemetry::ChromeTrace;

/// Exports a pipeline schedule as Chrome trace-event JSON (load the output
/// of [`ChromeTrace::to_json_string`] in Perfetto / `chrome://tracing`).
///
/// Lane layout: pid 1 is the pipeline (named after `mode`); tid 1 is the
/// QKᵀ MatMul, tid 2 the softmax engine (`softmax#0`) and tid 3 the PV
/// MatMul. Each row contributes three `ph:"X"` events carrying its row
/// index in `args`.
///
/// # Panics
///
/// Panics if `durations` are inconsistent (same contract as
/// [`simulate_pipeline`]).
pub fn pipeline_chrome_trace(durations: &RowDurations, mode: PipelineMode) -> ChromeTrace {
    let sim = simulate_pipeline(durations, mode);
    let pid = 1;

    let mut trace = ChromeTrace::new();
    trace.name_process(pid, format!("attention pipeline ({mode:?})"));
    trace.name_thread(pid, 1, "QK matmul");
    trace.name_thread(pid, 2, "softmax#0");
    trace.name_thread(pid, 3, "PV matmul");

    for t in &sim.timelines {
        let row = t.row;
        let args = serde_json::json!({ "row": row });
        trace.complete_ns("qk", "matmul", t.qk_start, durations.qk[row], pid, 1, args.clone());
        let softmax = durations.softmax[row];
        trace.complete_ns("softmax", "softmax", t.softmax_start, softmax, pid, 2, args.clone());
        trace.complete_ns("pv", "matmul", t.av_start, durations.av[row], pid, 3, args);
    }
    star_telemetry::count("pipeline.trace.exports", 1);
    trace
}

/// Busy/stall accounting for one pipeline resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageUtilization {
    /// Lane name (`"qk"`, `"softmax#0"` or `"pv"`).
    pub name: String,
    /// Time (ns) the resource spent executing stage work.
    pub busy_ns: f64,
    /// Complement of busy over the makespan: `makespan − busy`, so
    /// `busy_ns + stall_ns` equals the makespan exactly.
    pub stall_ns: f64,
    /// `busy / makespan` (0 when the makespan is zero).
    pub occupancy: f64,
}

/// Per-stage utilization of one pipeline run, with bottleneck attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// The pipeline mode simulated.
    pub mode: PipelineMode,
    /// End-to-end makespan in ns.
    pub makespan_ns: f64,
    /// One entry per resource lane: QK, softmax, PV.
    pub stages: Vec<StageUtilization>,
    /// Name of the highest-occupancy lane — the stage that bounds
    /// throughput.
    pub bottleneck: String,
}

impl UtilizationReport {
    /// Runs the event simulator and folds its timelines into a report.
    ///
    /// # Panics
    ///
    /// Same contract as [`simulate_pipeline`].
    pub fn from_durations(durations: &RowDurations, mode: PipelineMode) -> Self {
        let sim = simulate_pipeline(durations, mode);
        let makespan = sim.makespan.value();

        let lane = |name: &str, rows: &[f64]| {
            let busy: f64 = rows.iter().sum();
            let occupancy = if makespan == 0.0 { 0.0 } else { busy / makespan };
            StageUtilization {
                name: name.into(),
                busy_ns: busy,
                stall_ns: makespan - busy,
                occupancy,
            }
        };
        let stages = vec![
            lane("qk", &durations.qk),
            lane("softmax#0", &durations.softmax),
            lane("pv", &durations.av),
        ];

        let bottleneck = stages
            .iter()
            .max_by(|a, b| a.occupancy.total_cmp(&b.occupancy))
            .map(|s| s.name.clone())
            .unwrap_or_default();

        star_telemetry::add("pipeline.softmax.stall_ns", stages[1].stall_ns);
        star_telemetry::add("pipeline.makespan_ns", makespan);

        UtilizationReport { mode, makespan_ns: makespan, stages, bottleneck }
    }

    /// The lane with the given name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageUtilization> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders a small aligned table (one line per lane).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline {:?}: makespan {:.3} ns, bottleneck {}\n",
            self.mode, self.makespan_ns, self.bottleneck
        ));
        let width = self.stages.iter().map(|s| s.name.len()).max().unwrap_or(0);
        for s in &self.stages {
            out.push_str(&format!(
                "  {:width$}  busy {:>12.3} ns  stall {:>12.3} ns  occupancy {:>6.1}%\n",
                s.name,
                s.busy_ns,
                s.stall_ns,
                s.occupancy * 100.0,
                width = width,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowDurations {
        RowDurations::uniform(16, 10.0, 40.0, 12.0)
    }

    #[test]
    fn trace_has_three_events_per_row_plus_metadata() {
        let d = sample();
        let trace = pipeline_chrome_trace(&d, PipelineMode::VectorGrained);
        // 1 process-name + 3 thread-name metadata events, 3 X-events/row.
        assert_eq!(trace.len(), 16 * 3);
        let json = trace.to_json_string();
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("softmax#0"));
        assert!(json.contains("\"tid\":3") && !json.contains("\"tid\":4"), "{json}");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn trace_timestamps_are_microseconds() {
        // One row, qk 1000 ns: the complete event must carry ts 0 / dur 1 µs.
        let d = RowDurations::uniform(1, 1000.0, 500.0, 250.0);
        let trace = pipeline_chrome_trace(&d, PipelineMode::Unpipelined);
        let json = trace.to_json_string();
        assert!(json.contains("\"dur\":1.0") || json.contains("\"dur\":1"), "{json}");
    }

    #[test]
    fn busy_plus_stall_is_makespan_every_mode() {
        let d = sample();
        for mode in PipelineMode::ALL {
            let report = UtilizationReport::from_durations(&d, mode);
            for s in &report.stages {
                assert!(
                    (s.busy_ns + s.stall_ns - report.makespan_ns).abs() < 1e-9,
                    "{mode:?} lane {}: {} + {} != {}",
                    s.name,
                    s.busy_ns,
                    s.stall_ns,
                    report.makespan_ns
                );
            }
        }
    }

    #[test]
    fn softmax_bound_pipeline_blames_softmax() {
        let d = RowDurations::uniform(64, 10.0, 80.0, 10.0);
        let report = UtilizationReport::from_durations(&d, PipelineMode::VectorGrained);
        assert_eq!(report.bottleneck, "softmax#0");
        let sm = report.stage("softmax#0").unwrap();
        assert!(sm.occupancy > 0.9, "{}", sm.occupancy);
    }

    #[test]
    fn non_vector_modes_use_one_softmax_lane() {
        let d = sample();
        for mode in PipelineMode::ALL {
            let report = UtilizationReport::from_durations(&d, mode);
            assert_eq!(report.stages.len(), 3, "{mode:?}");
            let sm = report.stage("softmax#0").unwrap();
            assert!((sm.busy_ns - 16.0 * 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let d = sample();
        let report = UtilizationReport::from_durations(&d, PipelineMode::OperandGrained);
        let json = serde_json::to_string(&report).unwrap();
        let back: UtilizationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn table_mentions_every_lane() {
        let d = sample();
        let report = UtilizationReport::from_durations(&d, PipelineMode::VectorGrained);
        let table = report.to_table();
        for lane in ["qk", "softmax#0", "pv"] {
            assert!(table.contains(lane), "missing {lane} in:\n{table}");
        }
    }
}
