//! Golden-file regression tests: every pinned artifact, byte for byte.
//!
//! Each `star_bench::EXPERIMENTS` entry has a `<name>_matches_golden` test
//! that runs it and compares its pretty-printed JSON with the committed
//! `results/<name>.json`; each `star_bench::FIXTURES` entry has one that
//! compares with `crates/bench/tests/golden/<name>.json`. A guard test
//! checks that these tests and the two lists name the same artifacts, so
//! no entry goes unpinned. Every builder is deterministic — closed-form
//! cost models, or seeded simulations whose event loops are totally
//! ordered and whose sweeps reduce in case order — so the bytes are the
//! same at any `STAR_EXEC_THREADS`. On a mismatch the test names the file
//! and, through `diff`, each field path that moved.
//!
//! The experiments assert their own claims while they run, so a committed
//! result can only come from a run that passed them. The tests after the
//! pinned ones check what the fixtures must contain: conservation
//! identities, coverage of the fault and metric paths, and the paper
//! anchors.
//!
//! When a deliberate change moves the bytes, regenerate, review
//! `git diff`, and commit:
//!
//! ```text
//! cargo run --release -p star-bench --bin repro_all
//! STAR_RESULTS_DIR=crates/bench/tests/golden cargo run --release -p star-bench --bin goldens
//! ```

use serde_json::Value;

/// Recursively compares two JSON values, recording the path of every
/// mismatch so a regression names the exact field that moved.
fn diff(path: &str, got: &Value, want: &Value, out: &mut Vec<String>) {
    match (got, want) {
        (Value::Map(g), Value::Map(w)) => {
            for (key, gv) in g {
                let p = format!("{path}/{key}");
                match w.iter().find(|(k, _)| k == key) {
                    Some((_, wv)) => diff(&p, gv, wv, out),
                    None => out.push(format!("{p}: unexpected field")),
                }
            }
            for (key, _) in w {
                if !g.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}/{key}: missing field"));
                }
            }
        }
        (Value::Seq(g), Value::Seq(w)) => {
            if g.len() != w.len() {
                out.push(format!("{path}: length {} != {}", g.len(), w.len()));
            }
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                diff(&format!("{path}[{i}]"), gv, wv, out);
            }
        }
        // Leaves compare exactly — the fixture was parsed back from the
        // same builder's serialization, and the vendored serde_json
        // round-trips every f64 exactly. No epsilon.
        _ => {
            if got != want {
                out.push(format!("{path}: got {got:?}, want {want:?}"));
            }
        }
    }
}

/// The committed text at `relative`, a path from the repository root.
fn committed(relative: &str) -> String {
    let path = format!("{}/../../{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{relative} unreadable: {e}"))
}

fn parse(relative: &str) -> Value {
    serde_json::from_str(&committed(relative)).unwrap_or_else(|e| panic!("{relative} invalid: {e}"))
}

/// A committed `FIXTURES` entry.
fn fixture(name: &str) -> Value {
    parse(&format!("crates/bench/tests/golden/{name}.json"))
}

/// A committed `EXPERIMENTS` result.
fn result(name: &str) -> Value {
    parse(&format!("results/{name}.json"))
}

/// Runs the `EXPERIMENTS` or `FIXTURES` entry `name` and fails unless its
/// JSON is the committed bytes, naming the file and the field paths that
/// moved.
fn assert_matches_golden(name: &str) {
    let (relative, artifact) = match star_bench::EXPERIMENTS.iter().find(|a| a.name == name) {
        Some(a) => (format!("results/{name}.json"), a),
        None => {
            let a = star_bench::FIXTURES
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("{name} is in neither EXPERIMENTS nor FIXTURES"));
            (format!("crates/bench/tests/golden/{name}.json"), a)
        }
    };
    let got = (artifact.run)();
    let want = committed(&relative);
    if serde_json::to_string_pretty(&got).expect("artifact serializes") == want {
        return;
    }
    let mut moved = Vec::new();
    match serde_json::from_str::<Value>(&want) {
        Ok(want) => diff("", &got, &want, &mut moved),
        Err(e) => moved.push(format!("committed file is not JSON: {e}")),
    }
    if moved.is_empty() {
        moved.push("equal values in different bytes (key order or number formatting)".into());
    }
    panic!(
        "{relative}: {} difference(s)\n  {}\n\
         (if the change is intentional, regenerate it — see the module docs)",
        moved.len(),
        moved.join("\n  ")
    );
}

/// The artifact a `<name>_matches_golden` test pins.
fn pinned_name(test: &str) -> &str {
    test.strip_suffix("_matches_golden").expect("pinned tests end in _matches_golden")
}

/// One `<name>_matches_golden` test per pinned artifact, and `PINNED`,
/// their names, for the guard test below.
macro_rules! pinned {
    ($($test:ident),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                assert_matches_golden(pinned_name(stringify!($test)));
            }
        )*
        const PINNED: &[&str] = &[$(stringify!($test)),*];
    };
}

pinned! {
    e1_softmax_share_matches_golden,
    e2_table1_matches_golden,
    e3_fig3_matches_golden,
    e4_bitwidth_matches_golden,
    e5_geometry_matches_golden,
    a1_pipeline_ablation_matches_golden,
    a2_bitwidth_cost_matches_golden,
    a3_matmul_sweep_matches_golden,
    a4_endurance_matches_golden,
    a5_model_sweep_matches_golden,
    a6_model_zoo_matches_golden,
    a7_pareto_matches_golden,
    a8_serving_matches_golden,
    a9_device_health_matches_golden,
    a10_fleet_control_matches_golden,
    a11_blame_whatif_matches_golden,
    profile_work_matches_golden,
    serve_work_matches_golden,
    incident_matches_golden,
    star_faults_matches_golden,
    serve_telemetry_matches_golden,
    engine_telemetry_matches_golden,
    serve_trace_matches_golden,
    serve_blame_matches_golden,
    serve_classes_matches_golden,
}

#[test]
fn every_artifact_has_a_golden_test() {
    // An entry added to either list without a test here would be written
    // by its binary but pinned by nothing.
    let mut tested: Vec<&str> = PINNED.iter().map(|t| pinned_name(t)).collect();
    let mut listed: Vec<&str> =
        star_bench::EXPERIMENTS.iter().chain(&star_bench::FIXTURES).map(|a| a.name).collect();
    tested.sort_unstable();
    listed.sort_unstable();
    assert_eq!(tested, listed, "the *_matches_golden tests and EXPERIMENTS + FIXTURES differ");
}

/// Follows a `/`-separated path of map keys and returns the number there.
fn number_at(root: &Value, path: &str) -> f64 {
    let mut v = root;
    for key in path.split('/') {
        v = v.get(key).unwrap_or_else(|| panic!("fixture missing {path:?} (at {key:?})"));
    }
    v.as_f64().unwrap_or_else(|| panic!("fixture field {path:?} is not numeric"))
}

#[test]
fn star_faults_golden_exercises_the_fault_paths() {
    // A regenerated fixture that no longer reached the recovery paths
    // would pin nothing.
    let faults = fixture("star_faults");
    let engines = faults.get("engines").and_then(|v| v.as_array()).expect("engines array");
    assert_eq!(engines.len(), 6, "three paper formats × two settings");
    for e in engines {
        let stuck =
            e.get("setting").and_then(|v| v.as_str()).expect("setting").starts_with("stuck");
        let events = number_at(e, "fault_events");
        assert_eq!(stuck, events > 0.0, "only stuck cells trigger recovery: {events} events");
        assert!(number_at(e, "measured_energy_pj") > 0.0);
    }
    let search = faults
        .get("find_max")
        .and_then(|f| f.get("injected_q3_1"))
        .and_then(|f| f.get("search"))
        .expect("injected search");
    let per_input = search.get("per_input_rows").and_then(|v| v.as_array()).expect("rows");
    assert!(per_input.iter().any(|r| r.as_f64().is_none()), "a dead row leaves an input unmatched");
}

#[test]
fn serve_telemetry_golden_covers_every_serve_metric() {
    let golden = fixture("serve_telemetry");
    let counters = number_at(&golden, "counters/serve.requests.arrived");
    for outcome in ["admitted", "rejected", "expired", "completed", "late"] {
        let n = number_at(&golden, &format!("counters/serve.requests.{outcome}"));
        assert!(n > 0.0 && n < counters, "{outcome}: {n} of {counters} arrivals");
    }
    // Per-class names hold a `/`, so these are looked up key by key.
    let histograms = golden.get("histograms").expect("histograms");
    for hist in [
        "serve.latency_us",
        "serve.queue_us",
        "serve.batch.size",
        "serve.class.tiny/seq16.latency_us",
        "serve.class.tiny/seq32.queue_us",
    ] {
        let h = histograms.get(hist).unwrap_or_else(|| panic!("fixture missing {hist}"));
        assert!(number_at(h, "total") > 0.0, "{hist}");
    }
    assert!(number_at(&golden, "gauges/serve.energy.total_pj") > 0.0);
}

#[test]
fn engine_telemetry_golden_covers_every_engine_metric() {
    // A regenerated fixture that skipped a stage, or never reached a
    // recovery path, would pin less than the engine records.
    let golden = fixture("engine_telemetry");
    let engines = golden.get("engines").and_then(|v| v.as_array()).expect("engines array");
    assert_eq!(engines.len(), 9, "three paper formats × ideal, stuck and noisy");
    let metrics = golden.get("metrics").expect("metrics");
    for counter in [
        "star.softmax.rows",
        "star.softmax.elements",
        "star.exp.lut_hits",
        "star.div.quotients",
        "star.faults.recovered",
        "crossbar.cam.searches",
        "crossbar.camsub.max_searches",
        "crossbar.camsub.subtracts",
        "crossbar.lut.reads",
        "crossbar.vmm.activations",
        "crossbar.vmm.bit_cycles",
    ] {
        assert!(number_at(metrics, &format!("counters/{counter}")) > 0.0, "{counter}");
    }
    for gauge in ["cam", "camsub", "lut", "vmm"] {
        assert!(number_at(metrics, &format!("gauges/crossbar.{gauge}.energy_pj")) > 0.0, "{gauge}");
    }
    let histograms = metrics.get("histograms").expect("histograms");
    let row_len = histograms.get("star.softmax.row_len").expect("row-length histogram");
    assert_eq!(number_at(row_len, "total"), number_at(metrics, "counters/star.softmax.rows"));
}

#[test]
fn profile_work_golden_reconciles_with_itself() {
    // The fixture must satisfy the same accounting identities the serve
    // crate's property tests enforce — a regenerated fixture that broke
    // conservation would be accepted byte-for-byte otherwise.
    let p = fixture("profile_work");
    assert_eq!(number_at(&p, "work/events_arrive"), number_at(&p, "report/arrivals"));
    assert_eq!(number_at(&p, "work/batches_formed"), number_at(&p, "report/batches"));
    assert_eq!(number_at(&p, "work/batch_members"), number_at(&p, "report/completed"));
    assert_eq!(number_at(&p, "work/heap_pushes"), number_at(&p, "work/heap_pops"));
    // Open-loop arrivals come off the cursor; every other event is a pop.
    assert_eq!(
        number_at(&p, "work/heap_pops") + number_at(&p, "work/events_arrive"),
        number_at(&p, "work/events_total")
    );
    assert_eq!(
        number_at(&p, "work/events_total"),
        number_at(&p, "work/events_arrive")
            + number_at(&p, "work/events_window_expire")
            + number_at(&p, "work/events_instance_free")
            + number_at(&p, "work/events_scale_check")
    );
    assert!(number_at(&p, "events_per_request") > 0.0);
}

#[test]
fn serve_work_golden_reconciles_with_itself() {
    // A regenerated fixture that lost a counter or broke the event
    // accounting would otherwise be accepted byte for byte.
    let w = fixture("serve_work");
    let Value::Map(points) = &w else { panic!("serve_work is a map of points") };
    assert_eq!(points.len(), 6, "3 rates × 2 fleets");
    for (point, counters) in points {
        let Value::Map(keys) = counters else { panic!("{point}: counters are a map") };
        assert_eq!(keys.len(), 23, "{point}: 17 profiler + 6 flight counters");
        let n = |key: &str| number_at(counters, key);
        assert!(n("events_total") > 0.0, "{point}: the run did work");
        // The recorder sees exactly the events the profiler counts, and
        // one terminal per arrival.
        assert_eq!(n("flight_events_seen"), n("events_total"), "{point}");
        assert_eq!(n("flight_terminals_seen"), n("events_arrive"), "{point}");
        // Open-loop arrivals come off the cursor; every other event is a
        // heap pop, and every push is popped.
        assert_eq!(n("heap_pushes"), n("heap_pops"), "{point}");
        assert_eq!(n("heap_pops") + n("events_arrive"), n("events_total"), "{point}");
        assert_eq!(
            n("events_total"),
            n("events_arrive")
                + n("events_window_expire")
                + n("events_instance_free")
                + n("events_scale_check"),
            "{point}"
        );
    }
}

/// `dispatch_scans` at one `serve_work` point, from the fixture
/// `serve_work_matches_golden` pins to the code.
fn serve_work_scans(point: &str) -> f64 {
    let w = fixture("serve_work");
    let counters = w.get(point).unwrap_or_else(|| panic!("serve_work has no point {point}"));
    number_at(counters, "dispatch_scans")
}

#[test]
fn indexed_dispatcher_beats_prior_scan_budgets() {
    // Before the ready-queue index, `dispatch_scans` counted linear
    // per-class queue sweeps: 3171 at the profile fixture point and
    // 2520 / 2524 / 6486 at the r20000_f2 / r20000_f8 / r80000_f8
    // `serve_work` points (the budgets recorded before the index
    // landed). The index, and the class-table pass that replaced it,
    // count one scan per dispatch attempt, so they must do strictly
    // fewer — this pins the order of the win.
    let p = fixture("profile_work");
    let fixture_scans = number_at(&p, "work/dispatch_scans");
    assert!(
        fixture_scans < 3171.0,
        "fixture dispatch_scans {fixture_scans} is not below the pre-index 3171"
    );
    for (point, prior) in [("r20000_f2", 2520.0), ("r20000_f8", 2524.0), ("r80000_f8", 6486.0)] {
        let scans = serve_work_scans(point);
        assert!(
            scans < prior,
            "{point}: {scans} dispatch scans, not below the pre-index budget {prior}"
        );
    }
}

#[test]
fn dispatch_scans_is_a_pure_function_of_workload() {
    // Same offered load, same policy, same seed — only the fleet size
    // differs. The linear dispatcher leaked fleet size into the scan
    // count (2520 vs 2524 at 20 krps: spare idle instances kept the
    // dispatch loop sweeping classes that had nothing to send). The
    // dispatcher now charges one scan per dispatch attempt, which the
    // workload's batch sequence alone determines.
    assert_eq!(
        serve_work_scans("r20000_f2"),
        serve_work_scans("r20000_f8"),
        "fleet size must not change dispatch_scans at a sub-saturation operating point"
    );
}

#[test]
fn serve_classes_golden_completes_every_class() {
    // A run in which a class never dispatched would pin nothing about
    // how the dispatcher chooses among classes.
    let golden = fixture("serve_classes");
    let runs = golden.get("runs").and_then(|v| v.as_array()).expect("runs array");
    assert_eq!(runs.len(), 6, "three dequeue policies × two arrival processes");
    for run in runs {
        let per_class =
            run.get("report").and_then(|r| r.get("per_class")).and_then(|v| v.as_array());
        let per_class = per_class.expect("per-class report");
        assert_eq!(per_class.len(), 4, "four classes");
        for class in per_class {
            assert!(number_at(class, "completed") > 0.0, "a class completed nothing: {class:?}");
        }
    }
}

#[test]
fn incident_golden_reconciles_with_itself() {
    // The fixture must satisfy the recorder's own invariants — a
    // regenerated fixture that broke ring conservation or waterfall
    // accounting would otherwise be accepted byte-for-byte.
    let inc = fixture("incident");
    assert_eq!(
        number_at(&inc, "counters/events_seen"),
        number_at(&inc, "counters/events_retained") + number_at(&inc, "counters/events_evicted"),
        "event-ring conservation"
    );
    assert_eq!(
        number_at(&inc, "counters/terminals_seen"),
        number_at(&inc, "counters/terminals_retained")
            + number_at(&inc, "counters/terminals_evicted"),
        "terminal-ring conservation"
    );
    assert!(number_at(&inc, "counters/incidents") >= 1.0);

    let dump = inc
        .get("dump")
        .and_then(|d| d.get("starServeIncident"))
        .expect("dump carries the starServeIncident sidecar");
    let triggers = dump.get("triggers").and_then(|v| v.as_array()).expect("triggers array");
    assert!(!triggers.is_empty(), "a sealed incident records at least one trigger");
    let start = number_at(dump, "window_start_ns");
    let end = number_at(dump, "window_end_ns");
    assert!(start < end, "window is non-degenerate: [{start}, {end}]");
    let known = ["BurnRate", "ExpiryBurst", "QueueDepth", "HealthAlarm"];
    for (i, t) in triggers.iter().enumerate() {
        let kind = t.get("kind").and_then(|v| v.as_str()).expect("trigger kind");
        assert!(known.contains(&kind), "trigger {i} has unknown kind {kind:?}");
        let t_ns = number_at(t, "t_ns");
        assert!(
            start < t_ns && t_ns <= end,
            "trigger {i} at {t_ns} outside pre-window ({start}) .. window end ({end})"
        );
        assert!(
            number_at(t, "value") >= number_at(t, "threshold"),
            "trigger {i} fired below its threshold"
        );
    }

    // The waterfall partitions total latency exactly: queueing +
    // batch-window + the five service phases == total.
    let total = number_at(dump, "report/waterfall/total_ms");
    let parts = number_at(dump, "report/waterfall/queueing_ms")
        + number_at(dump, "report/waterfall/batch_window_ms")
        + number_at(dump, "report/waterfall/overhead_ms")
        + number_at(dump, "report/waterfall/projection_ms")
        + number_at(dump, "report/waterfall/qk_fill_ms")
        + number_at(dump, "report/waterfall/softmax_stream_ms")
        + number_at(dump, "report/waterfall/av_drain_ms");
    assert!(
        (parts - total).abs() <= 1e-6 * total.max(1.0),
        "waterfall components {parts} do not sum to total {total}"
    );
    // The overload is constant-rate (capacity sag, not an arrival
    // spike), so the window rate must sit near the offered 80 krps. The
    // trigger fires a few ms into the run, before the ring ever evicts,
    // so the captured window reaches back to t=0 and the pre-window
    // baseline is empty — which the delta must report as ratio 0, not a
    // wild number from a degenerate span.
    let window_rps = number_at(dump, "report/arrival/window_rps");
    assert!(
        (40_000.0..160_000.0).contains(&window_rps),
        "window arrival rate {window_rps} is not near the offered 80 krps"
    );
    if number_at(dump, "report/arrival/baseline_rps") == 0.0 {
        assert_eq!(number_at(dump, "report/arrival/ratio"), 0.0);
    } else {
        let ratio = number_at(dump, "report/arrival/ratio");
        assert!((0.1..10.0).contains(&ratio), "baseline over the wrong span: ratio {ratio}");
    }
}

#[test]
fn goldens_contain_paper_anchors() {
    // Guard against fixtures regenerated from a builder that silently
    // dropped the paper anchor fields: the anchors are the whole point
    // of the reproduction.
    let e2 = result("e2_table1");
    assert_eq!(number_at(&e2, "softermax/paper/area_ratio"), 0.33);
    assert_eq!(number_at(&e2, "star_8bit/paper/power_ratio"), 0.05);
    let e3 = result("e3_fig3");
    assert_eq!(number_at(&e3, "paper/star_gops_per_watt"), 612.66);
    assert_eq!(number_at(&e3, "paper/gain_over_retransformer"), 1.31);
}

#[test]
fn diff_reports_exact_paths() {
    // Sanity-check the comparator itself: a one-field perturbation must
    // be reported at its full path, and nothing else.
    let base = result("e2_table1");
    let mut tweaked = base.clone();
    if let Value::Map(entries) = &mut tweaked {
        let (_, star) = entries.iter_mut().find(|(k, _)| k == "star_8bit").expect("field");
        if let Value::Map(fields) = star {
            let (_, area) = fields.iter_mut().find(|(k, _)| k == "area_um2").expect("field");
            *area = Value::F64(12345.0);
        }
    }
    let mut mismatches = Vec::new();
    diff("", &tweaked, &base, &mut mismatches);
    assert_eq!(mismatches.len(), 1, "{mismatches:?}");
    assert!(mismatches[0].starts_with("/star_8bit/area_um2:"), "{:?}", mismatches[0]);
}
