//! Event-loop throughput with and without span tracing or health
//! monitoring.
//!
//! Reports the rate the discrete-event loop processes simulated requests
//! and what the optional instrumentation layers cost on top:
//!
//! - `untraced` — `simulate`: the production sweep path (reports only).
//! - `traced` — `simulate_traced`: span tree per request, invocation
//!   spans per batch, system-state samples per event.
//! - `health` — `simulate_monitored`: per-instance wear ledgers plus
//!   grid-sampled thermal/drift/margin gauges (no span trees).
//! - `profiled` — `simulate_profiled`: the self-profiler's work counters
//!   and wall-clock phase timers (the observer observing itself).
//! - `flight` — `simulate_flight`: the always-on incident flight
//!   recorder (bounded ring of compact rows + trigger engine). Its
//!   budget is ≤1.1× untraced — an order of magnitude cheaper than full
//!   tracing, which is the whole point of recording retroactively.
//! - `blame` — `simulate_blamed`: the critical-path blame recorder
//!   (per-request wait decomposition + per-batch blocking edges, folded
//!   into blame tables at the end of the run). Observation-only: it
//!   consumes no RNG and does no event arithmetic, so the report is
//!   bitwise identical to `untraced`.
//!
//! The measured traced/untraced ratio is recorded in DESIGN.md
//! ("Observability") — re-run with `STAR_BENCH_BUDGET_MS=2000` for
//! steadier numbers before updating it. CI parses this bench's stdout
//! for sanity ratios; the tracked trajectory at the repo root is
//! maintained by `bench_trajectory` (star-bench), whose matrix extends
//! this config with an 8-instance fleet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use star_serve::{
    simulate, simulate_blamed, simulate_flight, simulate_monitored, simulate_profiled,
    simulate_traced, ArrivalProcess, BatchPolicy, ControlConfig, FlightConfig, HealthConfig,
    ModelKind, RequestClass, ServeConfig, ServiceModelConfig, WorkloadMix,
};

/// A Tiny-class workload sized so one simulation handles a few thousand
/// requests — large enough to amortize setup, small enough to iterate.
fn bench_config(rate_rps: f64) -> ServeConfig {
    ServeConfig {
        fleet: 2,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(rate_rps),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 16)),
        horizon_ns: 5e7,
        seed: 7,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

fn bench_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_event_loop");
    let health_cfg = HealthConfig::default();
    let flight_cfg = FlightConfig::default();
    for rate in [20_000.0, 80_000.0] {
        let cfg = bench_config(rate);
        // Sanity: all paths agree before we time them.
        let plain = simulate(&cfg);
        assert_eq!(plain, simulate_traced(&cfg).report);
        assert_eq!(plain, simulate_monitored(&cfg, &health_cfg).report);
        assert_eq!(plain, simulate_profiled(&cfg).report);
        assert_eq!(plain, simulate_flight(&cfg, &flight_cfg).report);
        assert_eq!(plain, simulate_blamed(&cfg).report);
        assert!(plain.arrivals > 0);
        group.bench_with_input(BenchmarkId::new("untraced", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate(cfg))
        });
        group.bench_with_input(BenchmarkId::new("traced", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate_traced(cfg))
        });
        group.bench_with_input(BenchmarkId::new("health", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate_monitored(cfg, &health_cfg))
        });
        group.bench_with_input(BenchmarkId::new("profiled", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate_profiled(cfg))
        });
        group.bench_with_input(BenchmarkId::new("flight", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate_flight(cfg, &flight_cfg))
        });
        group.bench_with_input(BenchmarkId::new("blame", rate as u64), &cfg, |b, cfg| {
            b.iter(|| simulate_blamed(cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_loop);
criterion_main!(benches);
