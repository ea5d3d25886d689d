//! The observer suite: every subset of the five observers leaves the
//! simulation, and every other observer's output, bit for bit as it was.
//!
//! For each config of the shared gallery (`common`), the plain run and
//! each observer's solo run are the references. Each of the 32 observer
//! subsets must give:
//!
//! - the plain run's report and control report;
//! - each attached observer's solo output. A trace with the health
//!   monitor attached is compared with the trace + health run, because
//!   the trace carries the health timeseries;
//! - the solo profile's work counters;
//! - the plain run's scoped-telemetry bytes, or the health-only run's
//!   when the monitor (which publishes its gauges there) is attached.
//!
//! The full set's trace, flight and blame JSON must also be the solo
//! runs' bytes. The tests after it check the self-profiler's phase
//! counts against its work counters, and what the flight recorder and
//! blame record against the report.

mod common;

use common::{closed_loop_config, configs, stress_config, wfq_autoscale_config};
use proptest::prelude::*;
use star_serve::profile::{phase, TIMING_STRIDE};
use star_serve::{
    run_what_ifs, simulate, simulate_observed, ArrivalProcess, BatchPolicy, HealthConfig, Observe,
    ServeConfig, SimOutcome, TriggerKind, WhatIf,
};

// One bit per observer; a subset is their OR.
const TRACE: usize = 1;
const HEALTH: usize = 2;
const PROFILE: usize = 4;
const FLIGHT: usize = 8;
const BLAME: usize = 16;
const ALL: usize = 31;

/// The observers the bits of `set` attach.
fn observe(set: usize) -> Observe {
    Observe {
        trace: set & TRACE != 0,
        health: (set & HEALTH != 0).then(HealthConfig::default),
        profile: set & PROFILE != 0,
        flight: set & FLIGHT != 0,
        blame: set & BLAME != 0,
    }
}

/// A run under the observer subset `set`, and the JSON of the telemetry
/// it published to a scoped registry.
fn run(cfg: &ServeConfig, set: usize) -> (SimOutcome, String) {
    let (outcome, snap) = star_telemetry::with_scoped(|| simulate_observed(cfg, &observe(set)));
    (outcome, serde_json::to_string(&snap.to_json()).expect("telemetry serializes"))
}

/// The JSON bytes of a run's trace, flight and blame dumps.
fn dump_bytes(o: &SimOutcome) -> [Option<String>; 3] {
    let bytes = |v: &serde_json::Value| serde_json::to_string(v).expect("dump serializes");
    let incidents = |f: &star_serve::FlightOutcome| {
        f.incidents.iter().map(|d| bytes(&d.to_object_json())).collect::<Vec<_>>().join("\n")
    };
    [
        o.trace.as_ref().map(|t| bytes(&t.to_object_json())),
        o.flight.as_ref().map(incidents),
        o.blame.as_ref().map(|b| bytes(&b.to_object_json())),
    ]
}

/// Runs the gallery config `name` under all 32 observer subsets and
/// checks each against the plain and solo runs. An observer's reference
/// is the subset masked to its own bit (plus health's, for the trace), so
/// an unattached observer's is the plain run's empty field.
fn check_every_subset(name: &str) {
    let (_, cfg) = configs().into_iter().find(|(n, _)| *n == name).expect("gallery config");
    let runs: Vec<(SimOutcome, String)> = (0..=ALL).map(|set| run(&cfg, set)).collect();
    let plain = &runs[0].0;
    assert_eq!(plain.report, simulate(&cfg), "{name}: the empty set is not the plain run");
    for (set, (o, telemetry)) in runs.iter().enumerate() {
        let at = |mask: usize| &runs[set & mask];
        let ctx = format!("{name}, observers {set:05b}");
        let attached = [
            o.trace.is_some(),
            o.health.is_some(),
            o.profile.is_some(),
            o.flight.is_some(),
            o.blame.is_some(),
        ];
        let bits: usize =
            attached.iter().enumerate().map(|(bit, &on)| usize::from(on) << bit).sum();
        assert_eq!(bits, set, "{ctx}: attached observers");
        assert_eq!(o.report, plain.report, "{ctx}: report");
        assert_eq!(o.control, plain.control, "{ctx}: control report");
        assert_eq!(o.trace, at(TRACE | HEALTH).0.trace, "{ctx}: trace");
        assert_eq!(o.health, at(HEALTH).0.health, "{ctx}: health");
        let work = |o: &SimOutcome| o.profile.as_ref().map(|p| p.work.clone());
        assert_eq!(work(o), work(&at(PROFILE).0), "{ctx}: work counters");
        assert_eq!(o.flight, at(FLIGHT).0.flight, "{ctx}: flight");
        assert_eq!(o.blame, at(BLAME).0.blame, "{ctx}: blame");
        assert_eq!(telemetry, &at(HEALTH).1, "{ctx}: telemetry bytes");
    }
    let [trace, flight, blame] = dump_bytes(&runs[ALL].0);
    assert_eq!(trace, dump_bytes(&runs[TRACE | HEALTH].0)[0], "{name}: trace bytes");
    assert_eq!(flight, dump_bytes(&runs[FLIGHT].0)[1], "{name}: flight bytes");
    assert_eq!(blame, dump_bytes(&runs[BLAME].0)[2], "{name}: blame bytes");
    if name == "stress" {
        let flight = runs[FLIGHT].0.flight.as_ref().expect("flight attached");
        let dump = flight.incidents.first().expect("the stress shape must seal an incident");
        assert_eq!(dump.triggers[0].kind, TriggerKind::BurnRate, "{name}: first trigger");
    }
}

/// One test per gallery config, so the harness runs them in parallel.
mod every_subset_is_invisible {
    macro_rules! gallery {
        ($($name:ident),* $(,)?) => {$(
            #[test]
            fn $name() {
                super::check_every_subset(stringify!($name));
            }
        )*};
    }
    gallery!(example, stress, mmpp, closed_loop, wfq_autoscale, edf_hetero);
}

/// The self-profiler times one event in `TIMING_STRIDE` but counts every
/// phase entry: under each observer subset that attaches it, on a closed
/// loop that reaches all four event kinds, each phase's `calls` is the
/// work counter that counts it, `timed` never exceeds `calls`, the sample
/// hooks are timed once per timed event, and a rerun repeats both counts.
#[test]
fn profiler_counts_every_phase_entry() {
    let mut cfg = closed_loop_config();
    cfg.control = wfq_autoscale_config().control;
    for set in (0..=ALL).filter(|set| set & PROFILE != 0) {
        let counts = |o: &SimOutcome| {
            let p = o.profile.as_ref().expect("profile attached");
            (0..phase::NAMES.len()).map(|i| p.wall.stats(i)).map(|s| (s.calls, s.timed)).collect()
        };
        let outcome = simulate_observed(&cfg, &observe(set));
        let rerun: Vec<(u64, u64)> = counts(&simulate_observed(&cfg, &observe(set)));
        assert_eq!(counts(&outcome), rerun, "observers {set:05b}: rerun");
        let p = outcome.profile.as_ref().expect("profile attached");
        let w = &p.work;
        assert!(w.events_window_expire > 0 && w.events_scale_check > 0, "every event kind runs");
        let on = |bit: usize, n: u64| if set & bit != 0 { n } else { 0 };
        let expected = [
            (phase::ARRIVE, w.events_arrive),
            (phase::WINDOW_EXPIRE, w.events_window_expire),
            (phase::INSTANCE_FREE, w.events_instance_free),
            (phase::SCALE_CHECK, w.events_scale_check),
            (phase::SAMPLE_HOOKS, w.events_total),
            (phase::DISPATCH, w.dispatch_rounds),
            (phase::BATCH_COST, w.batches_formed),
            (phase::HEALTH_DISPATCH, on(HEALTH, w.batches_formed)),
            // One record per batch and one per request's end.
            (phase::TRACE_EMIT, on(TRACE, w.events_instance_free + outcome.report.arrivals)),
            (phase::FINALIZE, 1),
        ];
        assert_eq!(expected.len(), phase::NAMES.len(), "every phase checked");
        for (i, calls) in expected {
            let s = p.wall.stats(i);
            assert_eq!(s.calls, calls, "observers {set:05b}: {} calls", phase::NAMES[i]);
            assert!(s.timed <= s.calls, "observers {set:05b}: {} timed", phase::NAMES[i]);
        }
        let hooks = p.wall.stats(phase::SAMPLE_HOOKS);
        assert_eq!(hooks.timed, w.events_total.div_ceil(TIMING_STRIDE), "observers {set:05b}");
        assert!(hooks.timed < hooks.calls, "observers {set:05b}: sampled, not exhaustive");
        assert_eq!(p.wall.stats(phase::FINALIZE).timed, 1, "finalize is always timed");
    }
}

#[test]
fn flight_outcome_conserves_and_replays() {
    let cfg = stress_config();
    let baseline = simulate_observed(&cfg, &observe(FLIGHT)).flight.expect("flight");
    assert_eq!(
        baseline.events_seen,
        baseline.events_retained + baseline.events_evicted,
        "event-ring conservation"
    );
    assert_eq!(
        baseline.terminals_seen,
        baseline.terminals_retained + baseline.terminals_evicted,
        "terminal-ring conservation"
    );
    assert_eq!(baseline, simulate_observed(&cfg, &observe(FLIGHT)).flight.expect("flight"));
}

#[test]
fn conservation_and_structure_hold_across_the_gallery() {
    for (name, cfg) in configs() {
        let outcome = simulate_observed(&cfg, &observe(TRACE | PROFILE | BLAME));
        let blame = outcome.blame.as_ref().expect("blame");
        let trace = outcome.trace.as_ref().expect("trace");
        let completed: Vec<_> = trace.requests().filter(|r| r.outcome.is_completed()).collect();
        assert_eq!(blame.requests().len(), completed.len(), "{name}");
        for (b, rec) in blame.requests().zip(completed) {
            assert_eq!(b.components_sum(), b.latency_ns, "{name}: req {}", b.id);
            assert_eq!(b.latency_ns, rec.latency_ns(), "{name}: req {}", b.id);
        }
        assert_eq!(blame.report.completed, outcome.report.completed, "{name}");
        assert_eq!(blame.report.rejected, outcome.report.rejected, "{name}");
        assert_eq!(blame.report.expired, outcome.report.expired, "{name}");
        assert_eq!(blame.report.p99_latency_ms, outcome.report.latency.p99_ms, "{name}");
        for b in &blame.batches {
            if b.blocker >= 0 {
                let p = &blame.batches[b.blocker as usize];
                assert!(p.id < b.id && p.instance == b.instance, "{name}: batch {}", b.id);
            }
        }
        let work = &outcome.profile.as_ref().expect("profile").work;
        assert_eq!(work.heap_pushes, work.heap_pops, "{name}: push/pop imbalance");
        assert_eq!(
            work.events_total,
            work.events_arrive
                + work.events_window_expire
                + work.events_instance_free
                + work.events_scale_check,
            "{name}: event partition broken"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operating points: all five observers attached leave the
    /// report and the control report as the plain run's.
    #[test]
    fn random_grids_keep_every_observer_invisible(
        seed in any::<u64>(),
        rate in 20_000.0f64..120_000.0,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let (plain, all) = (run(&cfg, 0).0, run(&cfg, ALL).0);
        prop_assert_eq!(&plain.report, &all.report);
        prop_assert_eq!(&plain.control, &all.control);
    }

    /// Terminal conservation: every arrival reaches exactly one terminal
    /// row, for any (seed, rate).
    #[test]
    fn terminal_rows_partition_arrivals(
        seed in any::<u64>(),
        rate in 1_000.0f64..120_000.0,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let out = simulate_observed(&cfg, &observe(FLIGHT));
        let flight = out.flight.expect("flight");
        prop_assert_eq!(
            flight.terminals_seen,
            out.report.completed + out.report.rejected + out.report.expired
        );
        prop_assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted);
    }

    /// Conservation at random operating points: the eight components
    /// recompose to the latency bitwise for any (seed, rate, fleet,
    /// batch, window).
    #[test]
    fn random_grids_conserve(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..5,
        max_batch in 1usize..9,
        window_us in 0.0f64..200.0,
    ) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, window_us * 1e3);
        let outcome = simulate_observed(&cfg, &observe(BLAME));
        let blame = outcome.blame.as_ref().expect("blame");
        for b in blame.requests() {
            prop_assert_eq!(b.components_sum(), b.latency_ns);
            prop_assert!(b.hold_ns <= cfg.policy.window_ns * (1.0 + 1e-12));
            prop_assert!(b.hold_ns >= 0.0 && b.busy_ns >= 0.0);
        }
    }

    /// The identity intervention is the engine's determinism witness:
    /// same config, same seed, same bytes — zero deltas.
    #[test]
    fn what_if_identity_is_bitwise_neutral(seed in any::<u64>()) {
        let mut cfg = ServeConfig::example();
        cfg.seed = seed;
        let report = run_what_ifs(&cfg, &simulate(&cfg), &[WhatIf::Identity]);
        let id = &report.interventions[0];
        prop_assert_eq!(id.p99_ms, report.baseline.p99_ms);
        prop_assert_eq!(id.goodput_rps, report.baseline.goodput_rps);
        prop_assert_eq!(id.energy_per_request_nj, report.baseline.energy_per_request_nj);
        prop_assert_eq!(id.delta_p99_ms, 0.0);
        prop_assert_eq!(id.delta_goodput_rps, 0.0);
        prop_assert_eq!(id.delta_energy_nj, 0.0);
    }
}
