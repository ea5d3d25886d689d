//! The STAR reproduction's experiments, and the harness that runs them.
//!
//! [`EXPERIMENTS`] is the one list of experiments. Each entry regenerates
//! one table, figure, ablation or extension of the paper: it prints a
//! human-readable comparison (paper value next to measured value) and
//! returns the JSON that [`experiment_main`] writes to
//! `results/<name>.json`, next to a telemetry sidecar. Every
//! `src/bin/<name>.rs` is the same one-line wrapper over
//! [`experiment_main`], and `repro_all` runs them all. [`FIXTURES`] lists
//! the deterministic artifacts that are not experiment results; the
//! `goldens` binary writes them. The golden test pins every entry of both
//! lists byte for byte against its committed file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;

mod ablations;
mod fixtures;
mod paper;
mod serving;

/// A pinned artifact: a name and the function that builds its JSON.
///
/// Every `run` is a pure function of the code: seeded RNGs, no clock, and
/// the same bytes for every `STAR_EXEC_THREADS`.
#[derive(Clone, Copy)]
pub struct Artifact {
    /// The committed file's stem: `<name>.json`.
    pub name: &'static str,
    /// Builds the JSON. An experiment also prints its tables to stdout
    /// and asserts its claims, so it panics rather than return a result
    /// that breaks one.
    pub run: fn() -> serde_json::Value,
}

/// Every experiment, in the order `repro_all` runs and reports them.
pub const EXPERIMENTS: [Artifact; 16] = [
    Artifact { name: "e1_softmax_share", run: paper::e1 },
    Artifact { name: "e2_table1", run: paper::e2 },
    Artifact { name: "e3_fig3", run: paper::e3 },
    Artifact { name: "e4_bitwidth", run: paper::e4 },
    Artifact { name: "e5_geometry", run: paper::e5 },
    Artifact { name: "a1_pipeline_ablation", run: ablations::a1 },
    Artifact { name: "a2_bitwidth_cost", run: ablations::a2 },
    Artifact { name: "a3_matmul_sweep", run: ablations::a3 },
    Artifact { name: "a4_endurance", run: ablations::a4 },
    Artifact { name: "a5_model_sweep", run: ablations::a5 },
    Artifact { name: "a6_model_zoo", run: ablations::a6 },
    Artifact { name: "a7_pareto", run: ablations::a7 },
    Artifact { name: "a8_serving", run: serving::a8 },
    Artifact { name: "a9_device_health", run: serving::a9 },
    Artifact { name: "a10_fleet_control", run: serving::a10 },
    Artifact { name: "a11_blame_whatif", run: serving::a11 },
];

/// The fixtures that are not experiment results, in the order the
/// `goldens` binary writes them.
pub const FIXTURES: [Artifact; 9] = [
    Artifact { name: "profile_work", run: fixtures::profile_work },
    Artifact { name: "serve_work", run: fixtures::serve_work },
    Artifact { name: "incident", run: fixtures::incident },
    Artifact { name: "star_faults", run: fixtures::star_faults },
    Artifact { name: "serve_telemetry", run: fixtures::serve_telemetry },
    Artifact { name: "engine_telemetry", run: fixtures::engine_telemetry },
    Artifact { name: "serve_trace", run: fixtures::serve_trace },
    Artifact { name: "serve_blame", run: fixtures::serve_blame },
    Artifact { name: "serve_classes", run: fixtures::serve_classes },
];

/// The `main` of every experiment binary: runs the [`EXPERIMENTS`] entry
/// `name`, then writes `results/<name>.json` and the
/// `results/<name>.telemetry.json` sidecar and prints both paths. A run
/// that panics writes nothing.
///
/// # Panics
///
/// Panics if `name` is not in [`EXPERIMENTS`], if the run panics, or if a
/// write fails.
// Inlined so that in a release build the lookup folds to the one entry
// `name` names: each binary then links only its own experiment, and its
// peak resident set (which bounds `repro_all`'s) does not grow with the
// registry.
#[inline(always)]
pub fn experiment_main(name: &str) {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not in star_bench::EXPERIMENTS"));
    let result = (experiment.run)();
    let path = write_json(name, &result).expect("write results");
    let sidecar = write_telemetry_sidecar(name).expect("write results");
    println!("\nwrote {}", path.display());
    println!("wrote {}", sidecar.display());
}

/// Directory experiment results are written to: `$STAR_RESULTS_DIR` or
/// `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("STAR_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serializes `value` to `results/<name>.json`, creating the directory.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Relative deviation of `measured` from `paper`, as a signed percentage.
///
/// A zero paper anchor has no well-defined relative deviation: any
/// nonzero measurement returns a signed infinity (carrying the direction
/// of the miss) and an exact zero-for-zero match returns `0.0`. Callers
/// that format deviations should render the infinite case as `n/a`
/// (see [`compare_line`]).
pub fn deviation_pct(measured: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        return if measured == 0.0 { 0.0 } else { f64::INFINITY.copysign(measured) };
    }
    (measured - paper) / paper * 100.0
}

/// Formats a paper-vs-measured line for the console tables. Deviations
/// against a zero paper anchor print as `n/a`.
pub fn compare_line(label: &str, paper: f64, measured: f64) -> String {
    let dev = deviation_pct(measured, paper);
    let dev_text = if dev.is_finite() { format!("{dev:+6.1} %") } else { "   n/a".to_string() };
    format!("  {label:<34} paper {paper:>10.3}   measured {measured:>10.3}   ({dev_text})")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The telemetry sidecar every experiment binary writes next to its
/// result file: the full metric snapshot accumulated while the harness
/// ran, plus per-mode pipeline utilization reports at the paper operating
/// point (BERT-base, seq 128, MRPC q5.3). For every report lane,
/// `busy_ns + stall_ns == makespan_ns` by construction.
#[derive(Serialize)]
pub struct TelemetrySidecar {
    /// Experiment name (matches the primary result file stem).
    pub name: String,
    /// Snapshot of every counter/gauge/histogram the run recorded.
    pub metrics: star_telemetry::Snapshot,
    /// Per-histogram `count`/`mean`/`p50`/`p95`/`p99` summaries estimated
    /// from the bucket counts (see
    /// `star_telemetry::HistogramSnapshot::quantile` for the estimator's
    /// caveats) — the dashboard-friendly view of `metrics.histograms`.
    pub quantiles: serde_json::Value,
    /// Busy/stall/occupancy per stage for all three pipeline modes.
    pub pipeline: Vec<star_core::UtilizationReport>,
}

/// Pipeline utilization reports (all three modes) at the paper operating
/// point: BERT-base row stage latencies at sequence length 128 with the
/// MRPC q5.3 STAR softmax engine.
pub fn paper_point_utilization() -> Vec<star_core::UtilizationReport> {
    let seq = 128;
    let stages = star_arch::RramAccelerator::star_with(star_fixed::QFormat::MRPC, 1)
        .expect("paper configuration builds")
        .layer_cost(&star_attention::AttentionConfig::bert_base(seq))
        .stages;
    let durations = star_core::RowDurations::uniform(
        seq,
        stages.qk.value(),
        stages.softmax.value(),
        stages.av.value(),
    );
    star_core::PipelineMode::ALL
        .iter()
        .map(|&mode| star_core::UtilizationReport::from_durations(&durations, mode))
        .collect()
}

/// Snapshots the active telemetry registry and writes
/// `results/<name>.telemetry.json`. Called after an experiment's run, so
/// every counter the run touched lands in the sidecar.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_telemetry_sidecar(name: &str) -> std::io::Result<PathBuf> {
    let metrics = star_telemetry::snapshot();
    let sidecar = TelemetrySidecar {
        name: name.to_string(),
        quantiles: metrics.quantile_summaries(),
        metrics,
        pipeline: paper_point_utilization(),
    };
    write_json(&format!("{name}.telemetry"), &sidecar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_binary_and_every_binary_an_experiment() {
        // A wrapper with no entry fails only when someone runs it; an
        // entry with no wrapper is invisible to per-binary runs.
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for e in EXPERIMENTS {
            assert!(bins.join(format!("{}.rs", e.name)).is_file(), "no src/bin/{}.rs", e.name);
        }
        for entry in std::fs::read_dir(&bins).expect("src/bin is readable") {
            let path = entry.expect("src/bin entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
            if stem == "repro_all" || stem == "goldens" {
                continue;
            }
            assert!(
                EXPERIMENTS.iter().any(|e| e.name == stem),
                "src/bin/{stem}.rs names no EXPERIMENTS entry"
            );
        }
    }

    #[test]
    fn deviation_math() {
        assert_eq!(deviation_pct(110.0, 100.0), 10.0);
        assert_eq!(deviation_pct(90.0, 100.0), -10.0);
    }

    #[test]
    fn deviation_zero_paper_is_signed_infinity() {
        assert_eq!(deviation_pct(1.0, 0.0), f64::INFINITY);
        assert_eq!(deviation_pct(-1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(deviation_pct(0.0, 0.0), 0.0);
    }

    #[test]
    fn compare_line_contains_values() {
        let l = compare_line("x", 2.0, 1.0);
        assert!(l.contains("2.000"));
        assert!(l.contains("1.000"));
        assert!(l.contains("-50.0"));
    }

    #[test]
    fn compare_line_zero_paper_prints_na() {
        let l = compare_line("x", 0.0, 1.0);
        assert!(l.contains("n/a"), "{l}");
        assert!(!l.contains("inf"), "{l}");
    }

    #[test]
    fn sidecar_busy_plus_stall_is_makespan() {
        let reports = paper_point_utilization();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.makespan_ns > 0.0);
            for stage in &report.stages {
                assert!(
                    (stage.busy_ns + stage.stall_ns - report.makespan_ns).abs() < 1e-9,
                    "{:?} lane {}",
                    report.mode,
                    stage.name
                );
            }
        }
    }

    #[test]
    fn telemetry_sidecar_written_with_metrics() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("star-bench-sidecar-test");
        std::env::set_var("STAR_RESULTS_DIR", &dir);
        // Generate some activity in this thread's scoped registry so the
        // sidecar is non-trivially populated.
        let ((), _) = star_telemetry::with_scoped(|| {
            star_telemetry::count("bench.test.events", 7);
            let path = write_telemetry_sidecar("unit_sidecar").expect("sidecar");
            let body = std::fs::read_to_string(&path).expect("read");
            assert!(body.contains("bench.test.events"), "{body}");
            assert!(body.contains("makespan_ns"));
        });
        std::env::remove_var("STAR_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `STAR_RESULTS_DIR` is process-global; tests that set it serialize
    /// through this lock so parallel test threads cannot interleave.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn write_json_round_trip() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("star-bench-test");
        std::env::set_var("STAR_RESULTS_DIR", &dir);
        let path = write_json("unit_test", &serde_json::json!({"a": 1})).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        assert!(body.contains("\"a\": 1"));
        std::env::remove_var("STAR_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
