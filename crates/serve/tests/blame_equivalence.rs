//! Blame differential suite: the proof that critical-path blame is
//! **observation-only** and its tables are deterministic.
//!
//! Three contracts, mirroring `flight_equivalence`:
//!
//! - **No perturbation**: blame-on runs produce bitwise-identical
//!   reports, trace records, and trace JSON bytes to blame-off runs,
//!   across the shared config gallery (`common`).
//! - **Determinism of the tables themselves**: the serialized
//!   [`BlameOutcome`] is byte-identical across replays.
//! - **Conservation**: every request's eight blame components
//!   recompose to its end-to-end latency **bitwise** (the Sterbenz
//!   residual discipline), pinned by proptest over random operating
//!   points; the loop's work counters balance (every pushed event is
//!   popped, and the per-kind event counts sum to the total); and the
//!   what-if identity intervention reproduces the baseline bitwise.

mod common;

use common::configs;
use proptest::prelude::*;
use star_serve::{
    run_what_ifs, simulate_blamed, simulate_full, ArrivalProcess, BatchPolicy, BlameOutcome,
    ServeConfig, WhatIf,
};

fn trace_bytes(outcome: &star_serve::SimOutcome) -> String {
    serde_json::to_string(&outcome.trace.as_ref().expect("trace").to_object_json())
        .expect("serialize")
}

fn blame_bytes(blame: &BlameOutcome) -> String {
    serde_json::to_string(&blame.to_object_json()).expect("serialize")
}

#[test]
fn blame_never_perturbs_report_trace_or_records() {
    for (name, cfg) in configs() {
        let off = simulate_full(&cfg, 1, true, None, false, None, false);
        let on = simulate_full(&cfg, 1, true, None, false, None, true);
        assert_eq!(off.report, on.report, "{name}: report diverged");
        assert_eq!(off.trace, on.trace, "{name}: trace records diverged");
        assert_eq!(trace_bytes(&off), trace_bytes(&on), "{name}: trace bytes diverged");
        assert!(off.blame.is_none() && on.blame.is_some());
    }
}

#[test]
fn blame_tables_replay_bitwise() {
    for (name, cfg) in configs() {
        let first = blame_bytes(simulate_blamed(&cfg).blame.as_ref().expect("blame"));
        let again = blame_bytes(simulate_blamed(&cfg).blame.as_ref().expect("blame"));
        assert_eq!(first, again, "{name}: blame bytes diverged");
    }
}

#[test]
fn conservation_and_structure_hold_across_the_gallery() {
    for (name, cfg) in configs() {
        let outcome = simulate_full(&cfg, 1, true, None, true, None, true);
        let blame = outcome.blame.as_ref().expect("blame");
        let trace = outcome.trace.as_ref().expect("trace");
        let completed: Vec<_> =
            trace.requests.iter().filter(|r| r.outcome.is_completed()).collect();
        assert_eq!(blame.requests.len(), completed.len(), "{name}");
        for (b, rec) in blame.requests.iter().zip(completed) {
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
        let outcome = simulate_blamed(&cfg);
        let blame = outcome.blame.as_ref().expect("blame");
        for b in &blame.requests {
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
        let report = run_what_ifs(&cfg, &[WhatIf::Identity]);
        let id = &report.interventions[0];
        prop_assert_eq!(id.p99_ms, report.baseline.p99_ms);
        prop_assert_eq!(id.goodput_rps, report.baseline.goodput_rps);
        prop_assert_eq!(id.energy_per_request_nj, report.baseline.energy_per_request_nj);
        prop_assert_eq!(id.delta_p99_ms, 0.0);
        prop_assert_eq!(id.delta_goodput_rps, 0.0);
        prop_assert_eq!(id.delta_energy_nj, 0.0);
    }
}
