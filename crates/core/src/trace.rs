//! Pipeline-semantics-aware trace export and utilization reporting.
//!
//! `star-telemetry` owns the Chrome trace-event *format*; this module owns
//! the mapping from [`simulate_pipeline`]
//! schedules onto it. Two products:
//!
//! - [`pipeline_chrome_trace`] — a Perfetto-loadable trace with one lane
//!   per pipeline resource (`QK`, one lane per softmax engine, `PV`) and
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

/// Number of softmax lanes actually used by a mode: only the
/// vector-grained pipeline replicates the softmax engine.
fn effective_engines(mode: PipelineMode, softmax_engines: usize) -> usize {
    match mode {
        PipelineMode::VectorGrained => softmax_engines.max(1),
        _ => 1,
    }
}

/// Exports a pipeline schedule as Chrome trace-event JSON (load the output
/// of [`ChromeTrace::to_json_string`] in Perfetto / `chrome://tracing`).
///
/// Lane layout: pid 1 is the pipeline (named after `mode`); tid 1 is the
/// QKᵀ MatMul, tids 2..=1+k are the `k` softmax engines, and the last tid
/// is the PV MatMul. Each row contributes three `ph:"X"` events carrying
/// its row index in `args`.
///
/// # Panics
///
/// Panics if `durations` are inconsistent or `softmax_engines` is zero
/// (same contract as [`simulate_pipeline`]).
pub fn pipeline_chrome_trace(
    durations: &RowDurations,
    mode: PipelineMode,
    softmax_engines: usize,
) -> ChromeTrace {
    let sim = simulate_pipeline(durations, mode, softmax_engines);
    let engines = effective_engines(mode, softmax_engines);
    let pid = 1;
    let pv_tid = 1 + engines as u64 + 1;

    let mut trace = ChromeTrace::new();
    trace.name_process(pid, format!("attention pipeline ({mode:?})"));
    trace.name_thread(pid, 1, "QK matmul");
    for e in 0..engines {
        trace.name_thread(pid, 2 + e as u64, format!("softmax#{e}"));
    }
    trace.name_thread(pid, pv_tid, "PV matmul");

    for t in &sim.timelines {
        let row = t.row;
        let args = serde_json::json!({ "row": row });
        trace.complete_ns("qk", "matmul", t.qk_start, durations.qk[row], pid, 1, args.clone());
        let engine = match mode {
            PipelineMode::VectorGrained => row % engines,
            _ => 0,
        };
        trace.complete_ns(
            "softmax",
            "softmax",
            t.softmax_start,
            durations.softmax[row],
            pid,
            2 + engine as u64,
            args.clone(),
        );
        trace.complete_ns("pv", "matmul", t.av_start, durations.av[row], pid, pv_tid, args);
    }
    star_telemetry::count("pipeline.trace.exports", 1);
    trace
}

/// Busy/stall accounting for one pipeline resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageUtilization {
    /// Lane name (`"qk"`, `"softmax#0"`, …, `"pv"`).
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
    /// One entry per resource lane (QK, each softmax engine, PV).
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
    pub fn from_durations(
        durations: &RowDurations,
        mode: PipelineMode,
        softmax_engines: usize,
    ) -> Self {
        let sim = simulate_pipeline(durations, mode, softmax_engines);
        let engines = effective_engines(mode, softmax_engines);
        let makespan = sim.makespan.value();

        let qk_busy: f64 = durations.qk.iter().sum();
        let av_busy: f64 = durations.av.iter().sum();
        let mut engine_busy = vec![0.0f64; engines];
        for (row, &ds) in durations.softmax.iter().enumerate() {
            let engine = match mode {
                PipelineMode::VectorGrained => row % engines,
                _ => 0,
            };
            engine_busy[engine] += ds;
        }

        let lane = |name: String, busy: f64| {
            let occupancy = if makespan == 0.0 { 0.0 } else { busy / makespan };
            StageUtilization { name, busy_ns: busy, stall_ns: makespan - busy, occupancy }
        };
        let mut stages = Vec::with_capacity(engines + 2);
        stages.push(lane("qk".to_string(), qk_busy));
        for (e, &busy) in engine_busy.iter().enumerate() {
            stages.push(lane(format!("softmax#{e}"), busy));
        }
        stages.push(lane("pv".to_string(), av_busy));

        let bottleneck = stages
            .iter()
            .max_by(|a, b| a.occupancy.total_cmp(&b.occupancy))
            .map(|s| s.name.clone())
            .unwrap_or_default();

        let softmax_stall: f64 =
            stages.iter().filter(|s| s.name.starts_with("softmax")).map(|s| s.stall_ns).sum();
        star_telemetry::add("pipeline.softmax.stall_ns", softmax_stall);
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
        let trace = pipeline_chrome_trace(&d, PipelineMode::VectorGrained, 2);
        // 1 process-name + 4 thread-name metadata events, 3 X-events/row.
        assert_eq!(trace.len(), 16 * 3);
        let json = trace.to_json_string();
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("softmax#1"));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn trace_timestamps_are_microseconds() {
        // One row, qk 1000 ns: the complete event must carry ts 0 / dur 1 µs.
        let d = RowDurations::uniform(1, 1000.0, 500.0, 250.0);
        let trace = pipeline_chrome_trace(&d, PipelineMode::Unpipelined, 1);
        let json = trace.to_json_string();
        assert!(json.contains("\"dur\":1.0") || json.contains("\"dur\":1"), "{json}");
    }

    #[test]
    fn busy_plus_stall_is_makespan_every_mode() {
        let d = sample();
        for mode in PipelineMode::ALL {
            for engines in [1usize, 2, 4] {
                let report = UtilizationReport::from_durations(&d, mode, engines);
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
    }

    #[test]
    fn softmax_bound_pipeline_blames_softmax() {
        let d = RowDurations::uniform(64, 10.0, 80.0, 10.0);
        let report = UtilizationReport::from_durations(&d, PipelineMode::VectorGrained, 1);
        assert_eq!(report.bottleneck, "softmax#0");
        let sm = report.stage("softmax#0").unwrap();
        assert!(sm.occupancy > 0.9, "{}", sm.occupancy);
        // Replication moves the bottleneck back to the matmuls.
        let wide = UtilizationReport::from_durations(&d, PipelineMode::VectorGrained, 8);
        assert_ne!(wide.bottleneck, "softmax#0");
        assert_eq!(wide.stages.len(), 8 + 2);
    }

    #[test]
    fn non_vector_modes_use_one_softmax_lane() {
        let d = sample();
        for mode in [PipelineMode::Unpipelined, PipelineMode::OperandGrained] {
            let report = UtilizationReport::from_durations(&d, mode, 4);
            assert_eq!(report.stages.len(), 3, "{mode:?}");
            let sm = report.stage("softmax#0").unwrap();
            assert!((sm.busy_ns - 16.0 * 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let d = sample();
        let report = UtilizationReport::from_durations(&d, PipelineMode::OperandGrained, 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: UtilizationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn table_mentions_every_lane() {
        let d = sample();
        let report = UtilizationReport::from_durations(&d, PipelineMode::VectorGrained, 2);
        let table = report.to_table();
        for lane in ["qk", "softmax#0", "softmax#1", "pv"] {
            assert!(table.contains(lane), "missing {lane} in:\n{table}");
        }
    }
}
