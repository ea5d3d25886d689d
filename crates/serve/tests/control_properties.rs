//! Property tests for the fleet control plane: work conservation under
//! every dequeue policy with autoscaling on, the weighted-fair share
//! error bound, and EDF's same-class order preservation.

use proptest::prelude::*;
use star_serve::{
    simulate, simulate_observed, ArrivalProcess, AutoscaleConfig, BatchPolicy, ControlConfig,
    DequeuePolicy, ModelKind, Observe, PlacementPolicy, RequestClass, RequestTrace, ServeConfig,
    ServiceModel, ServiceModelConfig, SimOutcome, WorkloadMix,
};

/// A run with the trace attached, or with no observer.
fn run(cfg: &ServeConfig, trace: bool) -> SimOutcome {
    simulate_observed(cfg, &Observe { trace, ..Observe::default() })
}

fn class16() -> RequestClass {
    RequestClass::new(ModelKind::Tiny, 16)
}

fn class32() -> RequestClass {
    RequestClass::new(ModelKind::Tiny, 32)
}

/// Every completed request of a traced run, with its batch's dispatch
/// time, in completion order.
fn dispatched(outcome: &SimOutcome) -> Vec<(RequestTrace, f64)> {
    let trace = outcome.trace.as_ref().expect("trace requested");
    trace.requests.iter().filter_map(|r| Some((*r, trace.batches[r.batch?].dispatch_ns))).collect()
}

/// A two-class overloaded base: both classes stay backlogged, so the
/// dequeue policy — not idleness — decides who runs.
fn overload_config() -> ServeConfig {
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(4, 50_000.0),
        arrival: ArrivalProcess::poisson(250_000.0),
        mix: WorkloadMix::new(vec![(class16(), 0.5), (class32(), 0.5)]),
        horizon_ns: 2e7,
        seed: 7,
        max_queue: 256,
        deadline_ns: 1e9, // effectively no deadline: nothing expires
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

fn policies() -> Vec<(&'static str, DequeuePolicy)> {
    vec![
        ("fifo", DequeuePolicy::Fifo),
        ("wfq", DequeuePolicy::weighted_fair(vec![(class16(), 3.0), (class32(), 1.0)])),
        ("edf", DequeuePolicy::earliest_deadline(vec![(class16(), 5e5), (class32(), 2e6)])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation survives every dequeue policy with the autoscaler
    /// actively resizing the fleet: every arrival terminates exactly
    /// once, and the control report's fleet bounds hold.
    #[test]
    fn work_conserved_under_every_policy_with_scaling(
        seed in any::<u64>(),
        rate in 20_000.0f64..200_000.0,
    ) {
        for (name, dequeue) in policies() {
            let mut cfg = overload_config();
            cfg.seed = seed;
            cfg.arrival = ArrivalProcess::poisson(rate);
            cfg.deadline_ns = 2e6; // expirations back in play
            cfg.fleet = 2;
            cfg.control = ControlConfig {
                dequeue,
                placement: PlacementPolicy::LeastLoaded,
                autoscale: Some(AutoscaleConfig::new(1, 4)),
                instance_services: Vec::new(),
            };
            let outcome = run(&cfg, false);
            let r = &outcome.report;
            prop_assert_eq!(
                r.arrivals,
                r.completed + r.rejected + r.expired,
                "{}: conservation broken",
                name
            );
            prop_assert_eq!(r.completed, r.good + r.late);
            let c = outcome.control.expect("control plane active");
            prop_assert!(c.min_active >= 1 && c.peak_active <= 4, "{}", name);
            prop_assert!(c.final_active >= c.min_active && c.final_active <= c.peak_active);
            prop_assert!(c.instance_seconds > 0.0);
            for e in &c.scale_events {
                prop_assert!((1..=4).contains(&e.active_after), "{}: {:?}", name, e);
            }
            // The fairness table tiles the completed total.
            let completed: u64 = c.shares.iter().map(|s| s.completed).sum();
            prop_assert_eq!(completed, r.completed, "{}", name);
        }
    }

    /// Weighted-fair share error bound: with both classes continuously
    /// backlogged, the least-weighted-attained-first rule keeps the
    /// classes' weighted virtual times within a few dispatch quanta of
    /// each other — so attained service splits by weight.
    ///
    /// Measured over the arrival window only: once arrivals stop at the
    /// horizon the simulator drains both queues to empty, and a fully
    /// drained run always tallies the workload mix no matter how the
    /// scheduler interleaved it. The queue bound is lifted so admission
    /// control can't couple each class's inflow to its drain rate —
    /// with rejections on, the favored class drains its queue and the
    /// work-conserving scheduler hands the surplus back.
    #[test]
    fn weighted_fair_shares_track_weights(
        seed in any::<u64>(),
        weight in 1u32..=4,
    ) {
        let w = weight as f64;
        let mut cfg = overload_config();
        cfg.seed = seed;
        cfg.max_queue = 100_000; // admit everything: both classes stay backlogged
        cfg.control = ControlConfig {
            dequeue: DequeuePolicy::weighted_fair(vec![(class16(), w), (class32(), 1.0)]),
            ..ControlConfig::default()
        };
        let outcome = run(&cfg, true);
        let c = outcome.control.as_ref().expect("control plane active");
        prop_assert_eq!(c.dequeue.as_str(), "wfq");
        // Attained service per class while contention lasted: each
        // record carries its batch size, so a request's slice of its
        // batch's service time is cost / size.
        let model = ServiceModel::new(cfg.service.clone(), &[class16(), class32()]);
        let mut att16 = 0.0;
        let mut att32 = 0.0;
        for (r, _) in dispatched(&outcome).iter().filter(|&&(_, d)| d < cfg.horizon_ns) {
            let slice = model.batch_cost(r.class, r.batch_size).latency_ns / r.batch_size as f64;
            if r.class == class16() {
                att16 += slice;
            } else {
                att32 += slice;
            }
        }
        // The bound: one class's weighted virtual time can run ahead of
        // the other's by at most a few dispatch quanta (a quantum being
        // a full batch on the slower class) — startup transient included.
        let quantum = model
            .batch_cost(class16(), cfg.policy.max_batch)
            .latency_ns
            .max(model.batch_cost(class32(), cfg.policy.max_batch).latency_ns);
        let diff = (att16 / w - att32).abs();
        prop_assert!(
            diff <= 4.0 * quantum,
            "virtual-time gap {diff} ns exceeds 4 quanta ({quantum} ns) at weight {w}"
        );
        // And the headline phrasing: the share itself lands near the
        // configured proportion.
        let share16 = att16 / (att16 + att32);
        let expected = w / (w + 1.0);
        prop_assert!(
            (share16 - expected).abs() < 0.05,
            "share {share16} vs expected {expected} at weight {w}"
        );
    }

    /// EDF never inverts two same-class deadlines: within a class the
    /// deadline offset is constant, so deadline order equals arrival
    /// order — earlier arrivals must never dispatch after later ones.
    #[test]
    fn edf_preserves_same_class_deadline_order(seed in any::<u64>()) {
        let mut cfg = overload_config();
        cfg.seed = seed;
        cfg.deadline_ns = 2e6;
        cfg.control = ControlConfig {
            dequeue: DequeuePolicy::earliest_deadline(vec![
                (class16(), 5e5),
                (class32(), 2e6),
            ]),
            ..ControlConfig::default()
        };
        let outcome = run(&cfg, true);
        let dispatched = dispatched(&outcome);
        for class in [class16(), class32()] {
            let mut per_class: Vec<_> = dispatched.iter().filter(|(r, _)| r.class == class).collect();
            per_class.sort_by(|a, b| a.0.arrive_ns.total_cmp(&b.0.arrive_ns));
            for pair in per_class.windows(2) {
                prop_assert!(
                    pair[0].1 <= pair[1].1,
                    "{class}: arrival at {} dispatched after arrival at {}",
                    pair[0].0.arrive_ns,
                    pair[1].0.arrive_ns
                );
            }
        }
    }
}

#[test]
fn noop_control_is_bitwise_invisible() {
    // The acceptance invariant restated at the API level: an explicit
    // all-default control config produces the exact bytes of the
    // pre-control-plane simulator, observers attached or not.
    let cfg = ServeConfig::example();
    assert!(cfg.control.is_noop());
    let plain = simulate(&cfg);
    let traced = run(&cfg, true);
    assert_eq!(plain, traced.report);
    assert!(traced.control.is_none(), "no-op control emits no report");
}

#[test]
fn autoscaler_grows_into_a_burst_and_drains_after() {
    // A bursty ramp against a minimal fleet: the autoscaler must grow
    // past its floor during the burst and give the capacity back.
    let mut cfg = ServeConfig::example();
    cfg.fleet = 1;
    cfg.horizon_ns = 5e7;
    cfg.arrival = ArrivalProcess::mmpp(2_000.0, 120_000.0, 5e6, 5e6);
    cfg.max_queue = 512;
    cfg.control =
        ControlConfig { autoscale: Some(AutoscaleConfig::new(1, 6)), ..ControlConfig::default() };
    let outcome = run(&cfg, false);
    let c = outcome.control.expect("control plane active");
    assert!(c.peak_active > 1, "burst must trigger scale-up: {c:?}");
    assert!(!c.scale_events.is_empty());
    assert!(c.converge_ns > 0.0, "convergence time recorded");
    // Strictly fewer instance-seconds than holding the peak statically.
    let static_peak = c.peak_active as f64 * outcome.report.makespan_ns * 1e-9;
    assert!(c.instance_seconds < static_peak, "{} !< {static_peak}", c.instance_seconds);
    // Replay determinism extends to the control report.
    let again = run(&cfg, false);
    assert_eq!(Some(c), again.control);
}
