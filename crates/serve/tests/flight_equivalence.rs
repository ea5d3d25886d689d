//! Flight-recorder differential suite: the proof that the incident
//! recorder is **invisible** and its dumps are **reproducible**.
//!
//! Two contracts, both byte-level:
//!
//! 1. *No perturbation*: with the recorder attached, the `ServeReport`,
//!    trace records, serialized trace JSON, and scoped-telemetry
//!    snapshot are bitwise identical to the recorder-off run — the
//!    recorder consumes zero RNG draws and performs no event arithmetic.
//! 2. *Reproducible dumps*: the serialized incident dump (trigger
//!    records, captured window, root-cause report) is byte-identical
//!    across replays — an incident captured in production is
//!    bit-replayable.
//!
//! The shared config gallery (`common`) drives both: the saturating mix
//! exercises every terminal path (good, late, expired, rejected) so the
//! burn-rate and expiry-burst triggers have material to fire on, and the
//! closed-loop config covers in-loop arrival pushes.

mod common;

use common::{configs, stress_config};
use proptest::prelude::*;
use star_serve::{
    simulate_flight, simulate_full, ArrivalProcess, FlightConfig, HealthConfig, SimOutcome,
};

/// A trigger config guaranteed to fire on the stress shape: the queue
/// depth threshold sits inside the 16-slot admission bound, and the
/// default burn / expiry-burst triggers see the saturating mix.
fn flight_config() -> FlightConfig {
    FlightConfig { queue_depth_threshold: Some(8), ..FlightConfig::default() }
}

/// Serializes a run's incident dumps (the byte-comparison surface).
fn dump_bytes(outcome: &SimOutcome) -> Vec<String> {
    outcome
        .flight
        .as_ref()
        .expect("flight requested")
        .incidents
        .iter()
        .map(|d| serde_json::to_string(&d.to_object_json()).expect("serialize"))
        .collect()
}

fn trace_bytes(outcome: &SimOutcome) -> String {
    serde_json::to_string(&outcome.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize")
}

#[test]
fn recorder_output_is_bitwise_invisible_across_the_gallery() {
    let fc = flight_config();
    let health = HealthConfig::default();
    for (name, cfg) in configs() {
        let off = simulate_full(&cfg, 1, true, Some(&health), false, None, false);
        let on = simulate_full(&cfg, 1, true, Some(&health), false, Some(&fc), false);
        assert_eq!(off.report, on.report, "{name}: report diverged");
        assert_eq!(off.trace, on.trace, "{name}: trace records diverged");
        assert_eq!(trace_bytes(&off), trace_bytes(&on), "{name}: trace bytes diverged");
        assert_eq!(off.health, on.health, "{name}: health diverged");
        assert!(off.flight.is_none());
        assert!(on.flight.is_some());
    }
}

#[test]
fn recorder_never_perturbs_telemetry_bytes() {
    let fc = flight_config();
    let cfg = stress_config();
    let (_, off) =
        star_telemetry::with_scoped(|| simulate_full(&cfg, 1, false, None, false, None, false));
    let (_, on) = star_telemetry::with_scoped(|| simulate_flight(&cfg, &fc));
    let off_json = serde_json::to_string(&off.to_json()).expect("serialize");
    let on_json = serde_json::to_string(&on.to_json()).expect("serialize");
    assert_eq!(off_json, on_json, "telemetry bytes diverged");
}

#[test]
fn incident_dumps_replay_byte_identically() {
    let fc = flight_config();
    for (name, cfg) in configs() {
        let want = dump_bytes(&simulate_flight(&cfg, &fc));
        if name == "stress" {
            assert!(!want.is_empty(), "{name}: the stress shape must produce an incident");
        }
        assert_eq!(want, dump_bytes(&simulate_flight(&cfg, &fc)), "{name}: dump bytes diverged");
    }
}

#[test]
fn flight_outcome_conserves_and_replays() {
    let fc = flight_config();
    let cfg = stress_config();
    let baseline = simulate_flight(&cfg, &fc).flight.expect("flight");
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
    assert_eq!(baseline, simulate_flight(&cfg, &fc).flight.expect("flight"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operating points: recorder-on reports and trace records
    /// equal recorder-off bitwise.
    #[test]
    fn random_grids_keep_the_recorder_invisible(
        seed in any::<u64>(),
        rate in 20_000.0f64..120_000.0,
    ) {
        let mut cfg = stress_config();
        cfg.seed = seed;
        cfg.arrival = ArrivalProcess::poisson(rate);
        let off = simulate_full(&cfg, 1, true, None, false, None, false);
        let on = simulate_full(&cfg, 1, true, None, false, Some(&flight_config()), false);
        prop_assert_eq!(&off.report, &on.report);
        prop_assert_eq!(&off.trace, &on.trace);
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
        let out = simulate_flight(&cfg, &FlightConfig::default());
        let flight = out.flight.expect("flight");
        prop_assert_eq!(
            flight.terminals_seen,
            out.report.completed + out.report.rejected + out.report.expired
        );
        prop_assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted);
    }
}
