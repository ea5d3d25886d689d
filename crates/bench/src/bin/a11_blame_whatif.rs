//! A11 (extension) — critical-path blame + deterministic what-if: where
//! each millisecond of serving latency comes from, and which single
//! change buys the most p99 back.
//!
//! The A8 saturating batched point (32 krps of BERT-base/128 on the
//! 2-instance batch-8 fleet) is run once with the blame recorder
//! attached — splitting every request's latency into admission
//! queueing, batch-window hold, instance-busy blocking, and the five
//! invocation phases, with the components recomposing to the latency
//! **bitwise** — and then re-simulated under each standard intervention
//! (halve each service phase, zero the window, +1 instance,
//! least-loaded placement) to produce an exact, replayable "optimize
//! this next" table ranked by Δp99. The headline asserts the top
//! intervention strictly improves p99 at this saturation point.
//!
//! Deterministic by construction: the recorder consumes zero RNG and
//! performs no event arithmetic, and each what-if leg is an ordinary
//! seeded simulation, so the JSON result is byte-identical across
//! reruns and worker counts.

use serde_json::Value;
use star_bench::{finalize_experiment, header};

/// Follows a `.`-separated path through nested maps.
fn walk<'a>(value: &'a Value, path: &str) -> &'a Value {
    let mut v = value;
    for key in path.split('.') {
        v = v.get(key).unwrap_or_else(|| panic!("result field {path} missing at {key}"));
    }
    v
}

fn num(value: &Value, path: &str) -> f64 {
    walk(value, path).as_f64().unwrap_or_else(|| panic!("result field {path} not numeric"))
}

fn print_components(result: &Value, section: &str) {
    let total = num(result, &format!("{section}.total_ms"));
    for name in [
        "admission_ms",
        "hold_ms",
        "busy_ms",
        "overhead_ms",
        "projection_ms",
        "qk_fill_ms",
        "softmax_stream_ms",
        "av_drain_ms",
    ] {
        let ms = num(result, &format!("{section}.{name}"));
        let share = if total > 0.0 { ms / total * 100.0 } else { 0.0 };
        println!("  {:<16} {ms:>10.3} ms  {share:>5.1} %", name.trim_end_matches("_ms"));
    }
}

fn main() {
    let result = star_bench::a11_blame_whatif_result();

    header("A11: critical-path blame (32 krps, 2-instance batch-8 fleet, 2 ms SLO)");
    println!(
        "  completed {:.0}/{:.0}   goodput {:.0} rps   p99 {:.3} ms",
        num(&result, "report.completed"),
        num(&result, "report.arrivals"),
        num(&result, "report.goodput_rps"),
        num(&result, "report.p99_ms"),
    );
    println!(
        "  conservation: {:.0} requests x 8 components recompose bitwise ({:.0} failures)",
        num(&result, "conservation.requests"),
        num(&result, "conservation.bitwise_failures"),
    );
    println!("  overall blame ({:.3} ms total):", num(&result, "blame.overall.total_ms"));
    print_components(&result, "blame.overall");
    println!(
        "  p99 tail blame ({:.0} requests, {:.3} ms total):",
        num(&result, "blame.tail.requests"),
        num(&result, "blame.tail.total_ms"),
    );
    print_components(&result, "blame.tail");
    let chains = walk(&result, "blame.chains").as_array().expect("chains array");
    for c in chains {
        println!(
            "  blocking chain: tail batch {:.0} on instance {:.0}, length {:.0}, {:.3} ms blocked",
            num(c, "tail"),
            num(c, "instance"),
            num(c, "length"),
            num(c, "blocked_ms"),
        );
    }

    header("A11: deterministic what-if (same seeded workload, ranked by d-p99)");
    println!(
        "  baseline: p99 {:.3} ms, goodput {:.0} rps, {:.1} nJ/request",
        num(&result, "what_if.baseline.p99_ms"),
        num(&result, "what_if.baseline.goodput_rps"),
        num(&result, "what_if.baseline.energy_per_request_nj"),
    );
    println!(
        "  {:<28} {:>8} {:>10} {:>12} {:>12}",
        "intervention", "p99 ms", "d p99 ms", "d goodput", "d nJ/req"
    );
    let rows = walk(&result, "what_if.interventions").as_array().expect("interventions array");
    let mut prev = f64::NEG_INFINITY;
    for r in rows {
        let delta = num(r, "delta_p99_ms");
        println!(
            "  {:<28} {:>8.3} {:>+10.3} {:>+12.1} {:>+12.1}",
            walk(r, "label").as_str().unwrap_or("?"),
            num(r, "p99_ms"),
            delta,
            num(r, "delta_goodput_rps"),
            num(r, "delta_energy_nj"),
        );
        assert!(delta >= prev, "what-if table is not ranked by d-p99");
        prev = delta;
    }
    // The acceptance criterion, restated where the transcript shows the
    // numbers (the builder already asserts it).
    let best = &rows[0];
    let best_delta = num(best, "delta_p99_ms");
    assert!(best_delta < 0.0, "top intervention does not improve p99");
    println!(
        "  optimize this next: {} ({:+.3} ms p99)",
        walk(best, "label").as_str().unwrap_or("?"),
        best_delta
    );

    let (path, telemetry) =
        finalize_experiment("a11_blame_whatif", &result).expect("write results");
    println!("\nwrote {}", path.display());
    println!("wrote {}", telemetry.display());
}
