//! Property-based tests for the serving layer's determinism and
//! statistical contracts:
//!
//! - same-seed arrival generation and simulation are **bitwise** identical,
//! - the Poisson generator's interarrival mean converges to `1/λ`,
//! - closed-loop concurrency never exceeds the client population,
//! - parameter sweeps are byte-identical across worker counts.

use proptest::prelude::*;
use star_exec::Executor;
use star_serve::{
    generate_open_loop, simulate, simulate_profiled, ArrivalProcess, BatchPolicy, ModelKind,
    RequestClass, ServeConfig, SweepCase, WorkloadMix,
};

fn tiny_class() -> RequestClass {
    RequestClass::new(ModelKind::Tiny, 16)
}

fn base_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.seed = seed;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn open_loop_same_seed_is_bitwise_identical(
        seed in any::<u64>(),
        rate in 1_000.0f64..100_000.0,
    ) {
        let mix = WorkloadMix::single(tiny_class());
        let p = ArrivalProcess::poisson(rate);
        let a = generate_open_loop(&p, &mix, 1e7, seed);
        let b = generate_open_loop(&p, &mix, 1e7, seed);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.arrive_ns.to_bits(), y.arrive_ns.to_bits());
            prop_assert_eq!(x.class, y.class);
        }
    }

    #[test]
    fn mmpp_same_seed_is_bitwise_identical(
        seed in any::<u64>(),
        lo in 1_000.0f64..10_000.0,
        hi in 20_000.0f64..100_000.0,
    ) {
        let mix = WorkloadMix::single(tiny_class());
        let p = ArrivalProcess::mmpp(lo, hi, 1e6, 5e5);
        let a = generate_open_loop(&p, &mix, 1e7, seed);
        let b = generate_open_loop(&p, &mix, 1e7, seed);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.arrive_ns.to_bits(), y.arrive_ns.to_bits());
        }
    }

    #[test]
    fn poisson_interarrival_mean_converges(
        seed in any::<u64>(),
        rate in 5_000.0f64..50_000.0,
    ) {
        // Long horizon so the sample is large: expect ≥ ~5000 arrivals.
        let horizon = 1e9;
        let mix = WorkloadMix::single(tiny_class());
        let reqs = generate_open_loop(&ArrivalProcess::poisson(rate), &mix, horizon, seed);
        prop_assert!(reqs.len() > 1000, "only {} arrivals", reqs.len());
        // Mean interarrival over the horizon vs 1/λ, within 10 %.
        let observed_ns = horizon / reqs.len() as f64;
        let expected_ns = 1e9 / rate;
        let rel = (observed_ns - expected_ns).abs() / expected_ns;
        prop_assert!(rel < 0.10, "observed {observed_ns:.1} expected {expected_ns:.1}");
    }

    #[test]
    fn simulation_same_seed_is_identical_and_conserves(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..4,
        max_batch in 1usize..9,
    ) {
        let mut cfg = base_config(seed);
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, 50_000.0);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.arrivals, a.completed + a.rejected + a.expired);
        prop_assert_eq!(a.completed, a.good + a.late);
    }

    #[test]
    fn profiled_work_accounting_identities_hold(
        seed in any::<u64>(),
        rate in 1_000.0f64..80_000.0,
        fleet in 1usize..4,
        max_batch in 1usize..9,
    ) {
        let mut cfg = base_config(seed);
        cfg.arrival = ArrivalProcess::poisson(rate);
        cfg.fleet = fleet;
        cfg.policy = BatchPolicy::new(max_batch, 50_000.0);
        let plain = simulate(&cfg);
        let outcome = simulate_profiled(&cfg);
        // No perturbation for any sampled configuration.
        prop_assert_eq!(&plain, &outcome.report);
        let w = outcome.profile.expect("profile requested").work;
        // Work counters reconcile with the report's own accounting.
        prop_assert_eq!(w.events_arrive, plain.arrivals);
        prop_assert_eq!(w.events_instance_free, plain.batches);
        prop_assert_eq!(w.batches_formed, plain.batches);
        prop_assert_eq!(w.batch_members, plain.completed);
        prop_assert_eq!(w.expired_drops, plain.expired);
        // Conservation: every pushed event pops, the type counts tile the
        // total, and each event contributes one sample to each histogram.
        // Open-loop arrivals ride the cursor; the heap pops the rest.
        prop_assert_eq!(w.heap_pushes, w.heap_pops);
        prop_assert_eq!(w.heap_pops + w.events_arrive, w.events_total);
        prop_assert_eq!(
            w.events_total,
            w.events_arrive + w.events_window_expire + w.events_instance_free
                + w.events_scale_check
        );
        prop_assert_eq!(w.queue_depth_hist.total(), w.events_total);
        prop_assert_eq!(w.backlog_hist.total(), w.events_total);
        // Every event attempts dispatch at most a few times; scans only
        // happen inside rounds and every batch needs at least one scan.
        prop_assert!(w.dispatch_scans >= w.batches_formed);
        prop_assert!(w.heap_peak >= 1);
    }

    #[test]
    fn closed_loop_concurrency_never_exceeds_clients(
        seed in any::<u64>(),
        clients in 1usize..12,
        think_us in 10.0f64..500.0,
    ) {
        let mut cfg = base_config(seed);
        cfg.arrival = ArrivalProcess::closed_loop(clients, think_us * 1e3);
        let r = simulate(&cfg);
        prop_assert!(
            r.max_in_system <= clients as u64,
            "{} in system with {} clients",
            r.max_in_system,
            clients
        );
        prop_assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }
}

/// Sweeps reduce in case order regardless of worker count, so serial and
/// parallel runs must serialize to the same bytes.
#[test]
fn sweep_bytes_identical_across_worker_counts() {
    let base = ServeConfig::example();
    let cases: Vec<SweepCase> = star_serve::grid(
        &base,
        &[5_000.0, 20_000.0, 60_000.0],
        &[BatchPolicy::no_batching(), BatchPolicy::new(8, 50_000.0)],
        &[1, 2],
    );
    let serial = serde_json::to_string(&star_serve::run_sweep(&cases, &Executor::serial()))
        .expect("serialize");
    for workers in [2usize, 8] {
        let par = serde_json::to_string(&star_serve::run_sweep(&cases, &Executor::new(workers)))
            .expect("serialize");
        assert_eq!(serial, par, "worker count {workers} changed sweep bytes");
    }
}
