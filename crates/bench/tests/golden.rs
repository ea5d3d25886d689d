//! Golden-file regression tests for the machine-readable experiment
//! results.
//!
//! The `e2_table1`, `e3_fig3`, `a8_serving`, `a9_device_health`,
//! `a10_fleet_control`, and `a11_blame_whatif` binaries write
//! `results/*.json` through the shared builders in
//! `star_bench::experiments`; these tests call the *same* builders and
//! compare against fixtures checked in under `tests/golden/`. The e2/e3
//! builders are pure closed-form cost models (no RNG, no clock, no
//! environment); the a8/a9 builders drive seeded discrete-event
//! simulations whose event loops are totally ordered and whose sweeps
//! reduce in case order (a9's health monitor additionally consumes zero
//! RNG draws, and a10's control plane folds scale decisions into the
//! same ordered event stream, and a11's blame recorder observes without
//! perturbing before replaying each what-if leg as an ordinary seeded
//! simulation), so they are equally deterministic — including across
//! `STAR_EXEC_THREADS` worker counts. The vendored `serde_json`
//! round-trips `f64` exactly, so the comparison is field-level *exact*
//! equality — any drift in the cost model shows up as a named JSON path,
//! not a fuzzy tolerance miss.
//!
//! `e4_bitwidth` is compared against the committed
//! `results/e4_bitwidth.json` directly, and `star_faults` pins the
//! functional crossbars on defective arrays (seeded stuck cells, read
//! noise, hand-injected faults), which no experiment exercises.
//!
//! When a deliberate model change moves the numbers, regenerate with:
//!
//! ```text
//! cargo run --release -p star-bench --bin repro_all -- \
//!     e2_table1 e3_fig3 e4_bitwidth a8_serving a9_device_health \
//!     a10_fleet_control a11_blame_whatif
//! cp results/e2_table1.json results/e3_fig3.json results/a8_serving.json \
//!    results/a9_device_health.json results/a10_fleet_control.json \
//!    results/a11_blame_whatif.json crates/bench/tests/golden/
//! cargo run --release -p star-bench --bin bench_trajectory -- golden
//! cp results/star_faults.json crates/bench/tests/golden/
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

/// Reads a fixture, given relative to this crate's manifest directory.
fn read_fixture(relative: &str) -> Value {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden fixture {path} unreadable: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("golden fixture {path} invalid: {e}"))
}

fn fixture(name: &str) -> Value {
    read_fixture(&format!("tests/golden/{name}.json"))
}

fn assert_matches_golden(name: &str, got: &Value) {
    assert_matches_fixture(&format!("tests/golden/{name}.json"), got);
}

fn assert_matches_fixture(relative: &str, got: &Value) {
    let want = read_fixture(relative);
    let mut mismatches = Vec::new();
    diff("", got, &want, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "result drifted from {relative} in {} field(s):\n  {}\n\
         (if the change is intentional, regenerate the fixture — see module docs)",
        mismatches.len(),
        mismatches.join("\n  ")
    );
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
fn e2_table1_matches_golden() {
    assert_matches_golden("e2_table1", &star_bench::e2_table1_result());
}

#[test]
fn e3_fig3_matches_golden() {
    assert_matches_golden("e3_fig3", &star_bench::e3_fig3_result());
}

#[test]
fn e4_bitwidth_matches_golden() {
    // The committed result is the fixture: 60 engine builds and 11 520
    // rows through the functional crossbars, so any drift in quantization,
    // the CAM/SUB, the exp CAM/LUT, the VMM or the divider moves a sweep
    // point.
    assert_matches_fixture("../../results/e4_bitwidth.json", &star_bench::e4_bitwidth_result());
}

#[test]
fn star_faults_matches_golden() {
    // No benchmark workload runs a faulty array, so this fixture is what
    // pins stuck-cell and read-noise behaviour of the functional
    // crossbars byte for byte.
    assert_matches_golden("star_faults", &star_bench::star_faults_result());
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
fn a8_serving_matches_golden() {
    assert_matches_golden("a8_serving", &star_bench::a8_serving_result());
}

#[test]
fn a9_device_health_matches_golden() {
    assert_matches_golden("a9_device_health", &star_bench::a9_device_health_result());
}

#[test]
fn a10_fleet_control_matches_golden() {
    assert_matches_golden("a10_fleet_control", &star_bench::a10_fleet_control_result());
}

#[test]
fn a11_blame_whatif_matches_golden() {
    // The blame tables and the ranked what-if table at the A8
    // saturating point, byte-for-byte. The blame recorder consumes no
    // RNG and performs no event arithmetic, and each what-if leg is an
    // ordinary seeded simulation, so both tables are pure functions of
    // the configuration; CI additionally diffs the regenerated file
    // at both `STAR_EXEC_THREADS` legs.
    assert_matches_golden("a11_blame_whatif", &star_bench::a11_blame_whatif_result());
}

#[test]
fn a11_golden_reconciles_with_itself() {
    // The fixture must encode the experiment's claims — a regenerated
    // fixture that broke conservation, mis-ranked the what-if table, or
    // lost the headline win would otherwise be accepted byte-for-byte.
    let a11 = fixture("a11_blame_whatif");
    // Blame covered every completed request and conservation held.
    assert_eq!(number_at(&a11, "conservation/requests"), number_at(&a11, "report/completed"));
    assert_eq!(number_at(&a11, "conservation/bitwise_failures"), 0.0);
    assert_eq!(number_at(&a11, "blame/overall/requests"), number_at(&a11, "report/completed"));
    // The aggregated component milliseconds sum to the total latency
    // (loose here — the bitwise identity lives on the per-request ns
    // rows, which the serve crate's proptests pin).
    for section in ["overall", "tail"] {
        let total = number_at(&a11, &format!("blame/{section}/total_ms"));
        let parts: f64 = [
            "admission_ms",
            "hold_ms",
            "busy_ms",
            "overhead_ms",
            "projection_ms",
            "qk_fill_ms",
            "softmax_stream_ms",
            "av_drain_ms",
        ]
        .iter()
        .map(|c| number_at(&a11, &format!("blame/{section}/{c}")))
        .sum();
        assert!(
            (parts - total).abs() <= 1e-6 * total.max(1.0),
            "{section}: components {parts} do not sum to total {total}"
        );
    }
    // The blame-side p99 threshold is the report's p99 and the what-if
    // baseline reproduces it: three views of one number.
    assert_eq!(number_at(&a11, "blame/p99_latency_ms"), number_at(&a11, "report/p99_ms"));
    assert_eq!(number_at(&a11, "what_if/baseline/p99_ms"), number_at(&a11, "report/p99_ms"));
    // The what-if table is ranked by d-p99 and its top row improves it.
    let rows = a11
        .get("what_if")
        .and_then(|w| w.get("interventions"))
        .and_then(|v| v.as_array())
        .expect("interventions array");
    assert_eq!(rows.len(), 8, "five phase scalings + window + instance + placement");
    let mut prev = f64::NEG_INFINITY;
    for r in rows {
        let delta = number_at(r, "delta_p99_ms");
        assert!(delta >= prev, "what-if rows are not ranked by d-p99");
        prev = delta;
    }
    assert!(
        number_at(&rows[0], "delta_p99_ms") < 0.0,
        "fixture's top intervention does not improve p99 at the saturation point"
    );
}

#[test]
fn profile_work_matches_golden() {
    // The self-profiler's deterministic work counters for the fixed A8
    // operating point. Any silent change to event-loop behaviour — an
    // extra heap push, a reordered dispatch, a new telemetry call —
    // shows up as a byte diff here. Regenerate deliberately with
    // `bench_trajectory golden` and copy from `results/`.
    assert_matches_golden("profile_work", &star_bench::profile_work_result());
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
fn indexed_dispatcher_beats_prior_scan_budgets() {
    // Before the ready-queue index, `dispatch_scans` counted linear
    // per-class queue sweeps: 3171 at the profile fixture point and
    // 2520 / 2524 / 6486 at the tracked r20000_f2 / r20000_f8 /
    // r80000_f8 budget points (the ceilings recorded in BENCH_serve.json
    // before the index landed). The indexed dispatcher pops ready
    // classes directly, so it must do strictly fewer — this pins the
    // order of the win, not a ±5% tolerance band.
    let p = fixture("profile_work");
    let fixture_scans = number_at(&p, "work/dispatch_scans");
    assert!(
        fixture_scans < 3171.0,
        "fixture dispatch_scans {fixture_scans} is not below the pre-index 3171"
    );
    for (rate, fleet, prior) in
        [(20_000.0, 2usize, 2520u64), (20_000.0, 8, 2524), (80_000.0, 8, 6486)]
    {
        let cfg = star_bench::matrix_config(rate, fleet);
        let scans = star_serve::simulate_profiled(&cfg)
            .profile
            .expect("profiled run carries a profile")
            .work
            .dispatch_scans;
        assert!(
            scans < prior,
            "r{rate}_f{fleet}: {scans} dispatch scans, not below the pre-index budget {prior}"
        );
    }
}

#[test]
fn dispatch_scans_is_a_pure_function_of_workload() {
    // Same offered load, same policy, same seed — only the fleet size
    // differs. The linear dispatcher leaked fleet size into the scan
    // count (2520 vs 2524 at 20 krps: spare idle instances kept the
    // dispatch loop sweeping classes that had nothing to send). The
    // indexed dispatcher charges one scan per ready-class pop, which the
    // workload's batch sequence alone determines.
    let scans_per_fleet: Vec<u64> = [2usize, 8]
        .iter()
        .map(|&fleet| {
            star_serve::simulate_profiled(&star_bench::matrix_config(20_000.0, fleet))
                .profile
                .expect("profiled run carries a profile")
                .work
                .dispatch_scans
        })
        .collect();
    assert_eq!(
        scans_per_fleet[0], scans_per_fleet[1],
        "fleet size must not change dispatch_scans at a sub-saturation operating point"
    );
}

#[test]
fn a9_golden_reports_lifetime_at_three_loads() {
    // The fixture must encode the experiment's claim: at least three
    // sustained load points, each with a finite time-to-first-degradation
    // and a positive lifetime, degrading no later as load rises.
    let a9 = fixture("a9_device_health");
    let points = a9.get("load_points").and_then(|v| v.as_array()).expect("load_points array");
    assert!(points.len() >= 3, "need >= 3 sustained load points, got {}", points.len());
    let mut prev_rate = 0.0;
    let mut prev_ttfd = f64::INFINITY;
    for p in points {
        let rate = number_at(p, "offered_rps");
        let ttfd = number_at(p, "time_to_first_degradation_s");
        let lifetime = number_at(p, "lifetime_inferences");
        assert!(rate > prev_rate, "load points must be sorted by offered rate");
        assert!(ttfd > 0.0 && ttfd.is_finite(), "ttfd must be positive finite, got {ttfd}");
        assert!(ttfd <= prev_ttfd, "heavier load cannot degrade later: {ttfd} vs {prev_ttfd}");
        assert!(lifetime > 0.0, "lifetime must be positive");
        // Lifetime is read-disturb limited, so finite — unlike the
        // infinite write-endurance lifetime a4 grants STAR's tables.
        assert!(lifetime.is_finite());
        prev_rate = rate;
        prev_ttfd = ttfd;
    }
}

#[test]
fn a9_golden_projections_degrade_monotonically() {
    let a9 = fixture("a9_device_health");
    for p in a9.get("load_points").and_then(|v| v.as_array()).expect("load_points") {
        let horizons = p.get("projections").and_then(|v| v.as_array()).expect("projections array");
        assert_eq!(horizons.len(), 5, "hour/day/month/year/five_years");
        let mut prev_margin = f64::INFINITY;
        let mut prev_stuck = -1.0;
        for h in horizons {
            let margin = number_at(h, "projection/accuracy_margin");
            let stuck = number_at(h, "projection/stuck_fraction");
            assert!(margin <= prev_margin, "margin must fall with horizon");
            assert!(stuck >= prev_stuck, "stuck fraction must rise with horizon");
            prev_margin = margin;
            prev_stuck = stuck;
        }
    }
}

#[test]
fn a9_golden_wear_leveling_reduces_skew() {
    let a9 = fixture("a9_device_health");
    let off = number_at(&a9, "wear_leveling/wear_skew_off");
    let on = number_at(&a9, "wear_leveling/wear_skew_on");
    assert!(on < off, "round-robin placement must flatten ledger skew: on {on} vs off {off}");
}

#[test]
fn a8_golden_headline_shows_batching_win() {
    // The fixture must encode the experiment's claim: at the saturating
    // operating point, dynamic batching strictly beats the batch-1
    // baseline on goodput.
    let a8 = fixture("a8_serving");
    let gain = number_at(&a8, "headline/goodput_gain");
    assert!(gain > 1.0, "fixture headline gain {gain} does not show a batching win");
    assert!(
        number_at(&a8, "headline/p99_ms/batched") < number_at(&a8, "headline/p99_ms/baseline"),
        "fixture batched p99 is not below the baseline p99"
    );
}

#[test]
fn a8_golden_surfaces_per_class_slo() {
    // The mixed-workload section must carry one SLO row per request
    // class, with per-class goodput summing to the aggregate — the
    // machine-readable precursor to multi-tenant scheduling.
    let a8 = fixture("a8_serving");
    let mixed = a8.get("mixed_workload").expect("mixed_workload section");
    let classes =
        mixed.get("per_class").and_then(|v| v.as_array()).expect("mixed_workload/per_class array");
    assert_eq!(classes.len(), 2, "the mixed workload has two classes");
    let mut goodput_sum = 0.0;
    for (i, c) in classes.iter().enumerate() {
        assert!(c.get("class").and_then(|v| v.as_str()).is_some());
        goodput_sum += number_at(c, "goodput_rps");
        assert!(number_at(c, "p99_ms") > 0.0, "class row {i} has a p99");
    }
    let aggregate = number_at(&a8, "mixed_workload/goodput_rps");
    assert!(
        (goodput_sum - aggregate).abs() <= 1e-6 * aggregate,
        "per-class goodput {goodput_sum} does not sum to the aggregate {aggregate}"
    );
    // Every sweep case report also carries per-class rows now.
    for case in a8.get("cases").and_then(|v| v.as_array()).expect("cases") {
        let rows = case
            .get("report")
            .and_then(|r| r.get("per_class"))
            .and_then(|v| v.as_array())
            .expect("case report per_class");
        assert_eq!(rows.len(), 1, "single-class sweep cases have one SLO row");
    }
}

#[test]
fn incident_matches_golden() {
    // The flight recorder's first incident dump on the saturating
    // 80 krps / 1-instance overload, byte-for-byte. The recorder
    // consumes no RNG and performs no event arithmetic, so the dump is a
    // pure function of the configuration; CI additionally diffs the
    // regenerated file at both `STAR_EXEC_THREADS` legs. Regenerate deliberately with `bench_trajectory golden` and
    // copy from `results/`.
    assert_matches_golden("incident", &star_bench::incident_result());
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
    let e2 = fixture("e2_table1");
    assert_eq!(number_at(&e2, "softermax/paper/area_ratio"), 0.33);
    assert_eq!(number_at(&e2, "star_8bit/paper/power_ratio"), 0.05);
    let e3 = fixture("e3_fig3");
    assert_eq!(number_at(&e3, "paper/star_gops_per_watt"), 612.66);
    assert_eq!(number_at(&e3, "paper/gain_over_retransformer"), 1.31);
}

#[test]
fn diff_reports_exact_paths() {
    // Sanity-check the comparator itself: a one-field perturbation must
    // be reported at its full path, and nothing else.
    let base = fixture("e2_table1");
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
