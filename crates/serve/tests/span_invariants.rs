//! Integration tests for the serving trace: span-tree structural
//! invariants, request conservation, latency reconciliation,
//! byte-determinism of the serialized trace, and the sidecar reader's
//! round trip. Every span is read through the trace's renderer.

use star_serve::{
    simulate, simulate_observed, ArrivalProcess, BatchPolicy, ControlConfig, HealthConfig,
    ModelKind, Observe, RequestClass, RequestOutcome, ServeConfig, ServeTrace, ServiceModelConfig,
    SimOutcome, SloAnalysis, WorkloadMix,
};
use star_telemetry::SPAN_EPS_NS;

/// A mixed, moderately loaded configuration that exercises every
/// terminal outcome: completions (good and late), expirations, and
/// rejections.
fn stress_config() -> ServeConfig {
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(4, 50_000.0),
        arrival: ArrivalProcess::poisson(120_000.0),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.8),
            (RequestClass::new(ModelKind::Tiny, 32), 0.2),
        ]),
        horizon_ns: 2e7,
        seed: 99,
        max_queue: 16,
        deadline_ns: 1e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// A traced run of `cfg`.
fn traced(cfg: &ServeConfig) -> SimOutcome {
    simulate_observed(cfg, &Observe { trace: true, ..Observe::default() })
}

/// A traced, health-monitored run of `cfg`.
fn traced_monitored(cfg: &ServeConfig) -> SimOutcome {
    let health = Some(HealthConfig::default());
    simulate_observed(cfg, &Observe { trace: true, health, ..Observe::default() })
}

#[test]
fn every_span_tree_is_valid() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace requested");
    trace.validate().expect("all request and batch span trees satisfy the invariants");
}

#[test]
fn root_span_conservation() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace requested");
    let r = &outcome.report;
    // Exactly one closed root span per arrival …
    assert_eq!(trace.requests().len() as u64, r.arrivals);
    // … partitioned by outcome exactly as the report counts them.
    let count = |outcome| trace.requests().filter(|t| t.outcome == outcome).count() as u64;
    assert_eq!(count(RequestOutcome::Good), r.good);
    assert_eq!(count(RequestOutcome::Late), r.late);
    assert_eq!(count(RequestOutcome::Expired), r.expired);
    assert_eq!(count(RequestOutcome::Rejected), r.rejected);
    assert!(r.good > 0 && r.late + r.expired + r.rejected > 0, "config exercises failures");
    // Request ids are unique (no double-closed span).
    let mut ids: Vec<u64> = trace.requests().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.requests().len());
    // One invocation span per dispatched batch, members summing to the
    // completed count.
    assert_eq!(trace.batches.len() as u64, r.batches);
    let batched: usize = trace.batches.iter().map(|b| b.size).sum();
    assert_eq!(batched as u64, r.completed);
}

#[test]
fn span_durations_reconcile_with_lifecycle_records() {
    // The blame recorder keeps its own row per completed request and per
    // batch, both in completion order; every span must agree with them.
    let observe = Observe { trace: true, blame: true, ..Observe::default() };
    let outcome = simulate_observed(&stress_config(), &observe);
    let trace = outcome.trace.expect("trace requested");
    let blame = outcome.blame.expect("blame requested");
    let completed: Vec<_> = trace.requests().filter(|t| t.outcome.is_completed()).collect();
    assert_eq!(completed.len(), blame.requests().len());
    assert_eq!(trace.batches.len(), blame.batches.len());
    for (t, rec) in completed.into_iter().zip(blame.requests()) {
        assert_eq!(t.id, rec.id);
        let batch_index = t.batch.expect("completed requests index their batch");
        assert_eq!(rec.batch, batch_index as u64);
        let rec_batch = &blame.batches[batch_index];
        let span = trace.request_span(&t);
        // Root span == end-to-end latency, bit for bit (both are the
        // same event-time subtraction).
        assert_eq!(span.start_ns, rec.arrive_ns);
        assert_eq!(span.dur_ns, rec.latency_ns);
        assert_eq!(span.end_ns(), t.finish_ns());
        // The lifecycle children tile the root: queue then invocation.
        let child = |cat: &str| span.children.iter().find(|c| c.cat == cat);
        let queue = child("queue").expect("queue child");
        let invoke = child("invocation").expect("invocation child");
        assert_eq!(queue.dur_ns, rec_batch.dispatch_ns - rec.arrive_ns);
        assert!((invoke.start_ns - rec_batch.dispatch_ns).abs() <= SPAN_EPS_NS);
        assert!((invoke.end_ns() - rec_batch.done_ns).abs() <= SPAN_EPS_NS);
        let child_sum: f64 = span.children.iter().map(|c| c.dur_ns).sum();
        assert!((child_sum - span.dur_ns).abs() <= SPAN_EPS_NS);
        // The five hardware phases tile the invocation.
        assert_eq!(invoke.children.len(), 5);
        let phase_sum: f64 = invoke.children.iter().map(|c| c.dur_ns).sum();
        assert!((phase_sum - invoke.dur_ns).abs() <= SPAN_EPS_NS);
        // The invocation is the request's batch's own span, renamed.
        let batch = &trace.batches[batch_index];
        assert_eq!(
            (batch.instance, batch.size),
            (rec_batch.instance as usize, rec_batch.size as usize)
        );
        let mut batch_span = batch.span();
        batch_span.name = "invoke".into();
        assert_eq!(*invoke, batch_span);
    }
}

#[test]
fn same_seed_trace_json_is_byte_identical() {
    let cfg = stress_config();
    let a = traced(&cfg).trace.expect("trace");
    let b = traced(&cfg).trace.expect("trace");
    let ja = serde_json::to_string(&a.to_object_json()).expect("serialize");
    let jb = serde_json::to_string(&b.to_object_json()).expect("serialize");
    assert_eq!(ja, jb, "same-seed traces must serialize to identical bytes");
    // A different seed produces a different trace (the check is not
    // vacuous).
    let mut other = cfg;
    other.seed ^= 1;
    let jc = serde_json::to_string(&traced(&other).trace.expect("trace").to_object_json())
        .expect("serialize");
    assert_ne!(ja, jc);
}

#[test]
fn slo_analysis_agrees_with_report() {
    let outcome = traced(&stress_config());
    let trace = outcome.trace.expect("trace");
    let r = &outcome.report;
    let a = SloAnalysis::from_trace(&trace, 10);
    assert_eq!(a.total, r.arrivals);
    assert_eq!(a.violations, r.late + r.expired + r.rejected);
    // The per-class breakdown recomputed from spans matches the event
    // loop's own accounting exactly.
    assert_eq!(a.per_class, r.per_class);
    // Exemplars are the slowest completions, sorted.
    for pair in a.exemplars.windows(2) {
        assert!(pair[0].latency_ms >= pair[1].latency_ms);
    }
    let slowest = r.latency.max_ms;
    assert!((a.exemplars[0].latency_ms - slowest).abs() < 1e-9);
}

#[test]
fn health_trace_round_trips_byte_identical() {
    // With the health monitor enabled, the serialized trace (now
    // carrying the fleet-health timeseries) must parse back and re-emit
    // to the *same bytes* — the invariant the CI legs additionally diff
    // across STAR_EXEC_THREADS={1,8} processes. Parsing rebuilds every
    // request and batch record from its spans, and emitting renders the
    // spans from those records again.
    let cfg = stress_config();
    let outcome = traced_monitored(&cfg);
    let trace = outcome.trace.expect("trace requested");
    assert!(!trace.health.is_empty(), "monitored run samples fleet health");
    for h in &trace.health {
        assert_eq!(h.instances.len(), cfg.fleet);
    }
    // Health samples are grid-ordered and strictly increasing in time.
    for pair in trace.health.windows(2) {
        assert!(pair[0].t_ns < pair[1].t_ns);
    }
    let obj = trace.to_object_json();
    let bytes = serde_json::to_string(&obj).expect("serialize");
    let back = ServeTrace::from_object_json(&obj).expect("parse");
    assert_eq!(back, trace, "parse is lossless");
    let re_emitted = serde_json::to_string(&back.to_object_json()).expect("serialize");
    assert_eq!(bytes, re_emitted, "emit ∘ parse ∘ emit is byte-identical");
    // Monitoring never perturbed the traced simulation either.
    assert_eq!(outcome.report, simulate(&cfg), "monitored trace run bitwise equals plain run");
    // Same-seed monitored traces are byte-stable across reruns.
    let again = traced_monitored(&cfg);
    let again_bytes =
        serde_json::to_string(&again.trace.expect("trace").to_object_json()).expect("serialize");
    assert_eq!(bytes, again_bytes);
}

#[test]
fn queue_and_busy_samples_bound_by_config() {
    let cfg = stress_config();
    let trace = traced(&cfg).trace.expect("trace");
    assert!(!trace.samples.is_empty());
    for pair in trace.samples.windows(2) {
        assert!(pair[0].t_ns < pair[1].t_ns, "one sample per distinct event time");
    }
    for s in &trace.samples {
        assert!(s.queued <= cfg.max_queue as u64);
        assert!(s.busy <= cfg.fleet as u64);
    }
    // The system was actually busy at some point.
    assert!(trace.samples.iter().any(|s| s.busy > 0));
    assert!(trace.samples.iter().any(|s| s.queued > 0));
}
