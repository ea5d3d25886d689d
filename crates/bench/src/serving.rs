//! A8–A11: a fleet of STAR accelerators under serving load.
//!
//! The paper evaluates one attention layer in isolation; these extensions
//! ask the system questions one level up, on the `star-serve`
//! discrete-event simulator. Each `a*` function is one
//! [`crate::EXPERIMENTS`] entry: it builds the JSON for
//! `results/<name>.json`, prints its tables from that JSON and asserts the
//! experiment's claims on it, so no result that breaks a claim is ever
//! written. Seeded arrivals, a totally ordered event loop and
//! index-ordered sweep reduction make every result byte-identical across
//! reruns and worker counts.

use crate::header;
use serde_json::Value;
use star_arch::RramAccelerator;
use star_attention::AttentionConfig;

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

fn int(value: &Value, path: &str) -> u64 {
    walk(value, path).as_u64().unwrap_or_else(|| panic!("result field {path} not an integer"))
}

/// The A8 sweep grid: arrival rates × batch policies × fleet sizes over
/// the BERT-base / seq-128 operating point. Returned as `(base, cases)`
/// so callers can also inspect the shared base configuration.
///
/// The rates bracket the fleet-2 baseline capacity (~26.8 krps at batch
/// 1): 8 krps is light load, 16 krps moderate, 32 krps saturates the
/// no-batching baseline while staying under the batch-8 capacity
/// (~35.2 krps), which is exactly where dynamic batching pays.
pub(crate) fn a8_serving_cases() -> (star_serve::ServeConfig, Vec<star_serve::SweepCase>) {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    let base = ServeConfig {
        fleet: 2,
        policy: BatchPolicy::no_batching(),
        arrival: ArrivalProcess::poisson(8_000.0),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::BertBase, 128)),
        horizon_ns: 1e8, // 100 ms of arrivals
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6, // 2 ms SLO
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    };
    let cases = star_serve::grid(
        &base,
        &[8_000.0, 16_000.0, 32_000.0],
        &[BatchPolicy::no_batching(), BatchPolicy::new(8, 50_000.0)],
        &[1, 2],
    );
    (base, cases)
}

/// The machine-readable A8 serving result: the full sweep plus a headline
/// comparison of dynamic batching against the batch-1 baseline at the
/// saturating operating point (32 krps on the 2-instance fleet), plus a
/// mixed-workload run whose per-class SLO breakdown (goodput, p99 per
/// request class) is the precursor to the multi-tenant scheduling
/// roadmap item. Every case also carries `report.per_class`, so the
/// per-class rows are machine-readable throughout the sweep.
///
/// The sweep fans out over `star_exec::Executor::from_env()`
/// (`STAR_EXEC_THREADS`); per-case telemetry is recorded in scoped
/// registries and absorbed in case order, so the result — and the
/// telemetry sidecar built from the ambient registry — is byte-identical
/// for any worker count.
fn a8_serving_result() -> Value {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ModelKind, RequestClass, ServeConfig, ServiceModel,
        WorkloadMix,
    };
    let (base, cases) = a8_serving_cases();
    let class = base.mix.classes()[0];
    let service = ServiceModel::new(base.service.clone(), &[class]);
    let results = star_serve::run_sweep(&cases, &star_exec::Executor::from_env());

    // Mixed-tenant run at the saturating batched operating point: two
    // request classes share the fleet, and the per-class SLO rows show
    // how the aggregate goodput/p99 splits between them (the precursor
    // to per-tenant scheduling — today both classes ride one queue).
    let mixed_cfg = ServeConfig {
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(32_000.0),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::BertBase, 128), 0.7),
            (RequestClass::new(ModelKind::BertBase, 64), 0.3),
        ]),
        ..base.clone()
    };
    let mixed = star_serve::simulate(&mixed_cfg);
    let class_json = |c: &star_serve::ClassSloReport| {
        serde_json::json!({
            "class": c.class.to_string(),
            "arrivals": c.arrivals,
            "good": c.good,
            "late": c.late,
            "rejected": c.rejected,
            "expired": c.expired,
            "goodput_rps": c.goodput_rps,
            "p99_ms": c.latency.p99_ms,
        })
    };

    let case_json = |r: &star_serve::SweepResult| {
        serde_json::json!({
            "label": r.label,
            "fleet": r.config.fleet,
            "policy": r.config.policy.to_string(),
            "offered_rps": r.report.offered_rps,
            "report": r.report,
        })
    };
    let saturating: Vec<&star_serve::SweepResult> =
        results.iter().filter(|r| r.config.fleet == 2 && r.report.offered_rps > 30_000.0).collect();
    let baseline = saturating
        .iter()
        .find(|r| r.config.policy.is_baseline())
        .expect("grid contains the saturating baseline point");
    let batched = saturating
        .iter()
        .find(|r| !r.config.policy.is_baseline())
        .expect("grid contains the saturating batched point");
    serde_json::json!({
        "operating_point": {
            "class": class.to_string(),
            "service": base.service,
            "deadline_ns": base.deadline_ns,
            "max_queue": base.max_queue,
            "horizon_ns": base.horizon_ns,
            "seed": base.seed,
            "unit_latency_ns": service.unit_latency_ns(class),
            "peak_rps_per_instance": {
                "batch1": service.peak_rps(class, 1),
                "batch8": service.peak_rps(class, 8),
            },
        },
        "cases": results.iter().map(case_json).collect::<Vec<_>>(),
        "headline": {
            "note": "saturating load: 32 krps offered to the 2-instance fleet \
                     (baseline capacity ~26.8 krps)",
            "baseline": case_json(baseline),
            "batched": case_json(batched),
            "goodput_gain": batched.report.goodput_rps / baseline.report.goodput_rps,
            "p99_ms": {
                "baseline": baseline.report.latency.p99_ms,
                "batched": batched.report.latency.p99_ms,
            },
            "dropped": {
                "baseline": baseline.report.rejected + baseline.report.expired,
                "batched": batched.report.rejected + batched.report.expired,
            },
            "per_class": {
                "baseline": baseline.report.per_class.iter().map(class_json).collect::<Vec<_>>(),
                "batched": batched.report.per_class.iter().map(class_json).collect::<Vec<_>>(),
            },
        },
        "mixed_workload": {
            "note": "two classes share the saturating batched fleet; per-class \
                     goodput/p99 is the precursor to multi-tenant scheduling",
            "mix": mixed_cfg.mix.classes().iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            "offered_rps": mixed.offered_rps,
            "goodput_rps": mixed.goodput_rps,
            "p99_ms": mixed.latency.p99_ms,
            "per_class": mixed.per_class.iter().map(class_json).collect::<Vec<_>>(),
            "report": mixed,
        },
    })
}

/// A8 (extension) — serving: what latency, goodput, and energy does a
/// *fleet* of STAR instances deliver against an SLO when requests arrive
/// stochastically? The simulator sweeps arrival rate × batch policy ×
/// fleet size over `star-exec`, and the headline compares dynamic
/// batching (batch 8, 50 µs window) against the batch-1 baseline at
/// saturating load.
pub(crate) fn a8() -> Value {
    let result = a8_serving_result();

    header("A8: serving sweep (BERT-base seq 128, 2 ms SLO)");
    println!(
        "  {:<30} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7}",
        "case", "offered", "goodput", "p99 ms", "batch", "reject", "expire"
    );
    let cases = walk(&result, "cases").as_array().expect("cases array");
    for case in cases {
        let label = walk(case, "label").as_str().unwrap_or("?");
        println!(
            "  {:<30} {:>9.0} {:>9.0} {:>8.3} {:>7.2} {:>7} {:>7}",
            label,
            num(case, "offered_rps"),
            num(case, "report.goodput_rps"),
            num(case, "report.latency.p99_ms"),
            num(case, "report.mean_batch_size"),
            int(case, "report.rejected"),
            int(case, "report.expired"),
        );
        let per_class = walk(case, "report.per_class").as_array().expect("per_class array");
        assert_eq!(per_class.len(), 1, "{label}: a single-class case has one per-class row");
    }

    header("A8: dynamic batching vs batch-1 baseline at saturating load");
    let gain = num(&result, "headline.goodput_gain");
    println!(
        "  goodput  baseline {:>10.0} rps   batched {:>10.0} rps   ({gain:.2}x)",
        num(&result, "headline.baseline.report.goodput_rps"),
        num(&result, "headline.batched.report.goodput_rps"),
    );
    let p99_baseline = num(&result, "headline.p99_ms.baseline");
    let p99_batched = num(&result, "headline.p99_ms.batched");
    println!("  p99      baseline {p99_baseline:>10.3} ms    batched {p99_batched:>10.3} ms");
    println!(
        "  dropped  baseline {:>10} req   batched {:>10} req",
        int(&result, "headline.dropped.baseline"),
        int(&result, "headline.dropped.batched"),
    );
    assert!(gain > 1.0, "dynamic batching must beat the baseline at saturation, got {gain}");
    assert!(
        p99_batched < p99_baseline,
        "dynamic batching must cut p99 at saturation: {p99_batched} vs {p99_baseline} ms"
    );

    header("A8: per-class SLO under a mixed workload (batched, saturating)");
    println!(
        "  {:<24} {:>9} {:>7} {:>7} {:>7} {:>7} {:>9} {:>8}",
        "class", "arrivals", "good", "late", "reject", "expire", "goodput", "p99 ms"
    );
    let classes = walk(&result, "mixed_workload.per_class").as_array().expect("per_class array");
    assert_eq!(classes.len(), 2, "the mixed workload has two classes");
    let mut goodput_sum = 0.0;
    for c in classes {
        goodput_sum += num(c, "goodput_rps");
        let class = walk(c, "class").as_str().expect("per-class row names its class");
        println!(
            "  {:<24} {:>9} {:>7} {:>7} {:>7} {:>7} {:>9.0} {:>8.3}",
            class,
            int(c, "arrivals"),
            int(c, "good"),
            int(c, "late"),
            int(c, "rejected"),
            int(c, "expired"),
            num(c, "goodput_rps"),
            num(c, "p99_ms"),
        );
        assert!(num(c, "p99_ms") > 0.0, "{class}: the per-class row has a p99");
    }
    let aggregate = num(&result, "mixed_workload.goodput_rps");
    println!("  {:<24} {:>58.0} rps aggregate", "", aggregate);
    assert!(
        (goodput_sum - aggregate).abs() <= 1e-6 * aggregate.max(1.0),
        "per-class goodput must sum to the aggregate: {goodput_sum} vs {aggregate}"
    );
    result
}

/// The A9 sustained-load points: light, moderate, and saturating Poisson
/// load on the batched 2-instance BERT-base fleet, all monitored by the
/// same default [`star_serve::HealthConfig`]. Returned as
/// `(base, health, cases)`.
///
/// The rates reuse the A8 operating point (batch-8 capacity ≈ 35.2 krps
/// on the fleet): 4 krps barely exercises the crossbars, 16 krps is a
/// steady production load, 32 krps saturates — which is what separates
/// the read-disturb wear rates the lifetime projection integrates.
fn a9_device_health_cases(
) -> (star_serve::ServeConfig, star_serve::HealthConfig, Vec<star_serve::SweepCase>) {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, HealthConfig, ModelKind, RequestClass,
        ServeConfig, ServiceModelConfig, WorkloadMix,
    };
    let base = ServeConfig {
        fleet: 2,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(4_000.0),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::BertBase, 128)),
        horizon_ns: 1e8, // 100 ms window: enough to reach steady wear rates
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    };
    let cases = star_serve::grid(
        &base,
        &[4_000.0, 16_000.0, 32_000.0],
        &[BatchPolicy::new(8, 50_000.0)],
        &[2],
    );
    (base, HealthConfig::default(), cases)
}

/// The wall-clock horizons the A9 projection evaluates, seconds.
const A9_HORIZONS: [(&str, f64); 5] = [
    ("hour", 3.6e3),
    ("day", 8.64e4),
    ("month", 2.592e6),
    ("year", 3.1536e7),
    ("five_years", 1.5768e8),
];

/// The machine-readable A9 device-health result.
///
/// Each load point runs the monitored discrete-event simulation over a
/// 100 ms window (observation-only: the [`star_serve::ServeReport`] is
/// bitwise identical to the unmonitored run), extracts the steady-state
/// [`star_serve::WearRates`] of the **hottest** instance (most rows
/// streamed), and projects them analytically over hours-to-years of wall
/// time — the [`star_serve::HealthModel::project`] closed form a DES run
/// cannot reach. The headline reports time-to-first-degradation and
/// lifetime inferences per load point, and a wear-leveling on/off
/// comparison at the light load point shows the round-robin placement
/// levelling the ledger skew without moving a single latency number.
///
/// Monitored runs fan out over `star_exec::Executor::from_env()`; each
/// case's telemetry is recorded in a scoped registry and absorbed in
/// case order, so the result and its telemetry sidecar are byte-identical
/// for any `STAR_EXEC_THREADS`.
fn a9_device_health_result() -> Value {
    use star_serve::{simulate_observed, HealthConfig, HealthModel, Observe, WearRates};
    let (base, health_cfg, cases) = a9_device_health_cases();
    let monitored = |cfg: &star_serve::ServeConfig, health: HealthConfig| {
        simulate_observed(cfg, &Observe { health: Some(health), ..Observe::default() })
    };
    let exec = star_exec::Executor::from_env();
    let outcomes = exec.par_map(&cases, |_, case| {
        star_telemetry::with_scoped(|| monitored(&case.config, health_cfg))
    });
    let outcomes: Vec<star_serve::SimOutcome> = outcomes
        .into_iter()
        .map(|(outcome, snap)| {
            star_telemetry::absorb(&snap);
            outcome
        })
        .collect();
    let model = HealthModel::new(base.service.qformat());

    let load_points: Vec<serde_json::Value> = cases
        .iter()
        .zip(&outcomes)
        .map(|(case, outcome)| {
            let health = outcome.health.as_ref().expect("monitored run reports fleet health");
            let hottest =
                health.instances.iter().max_by_key(|i| i.ledger.rows).expect("fleet is non-empty");
            let rates = WearRates::from_ledger(&hottest.ledger, outcome.report.makespan_ns);
            let ttfd_s = model.time_to_first_degradation_s(&rates);
            let projections: Vec<serde_json::Value> = A9_HORIZONS
                .iter()
                .map(|(label, seconds)| {
                    serde_json::json!({
                        "horizon": label,
                        "projection": model.project(&rates, *seconds),
                    })
                })
                .collect();
            serde_json::json!({
                "label": case.label,
                "offered_rps": outcome.report.offered_rps,
                "goodput_rps": outcome.report.goodput_rps,
                "mean_utilization": outcome.report.mean_utilization,
                "energy_per_request_nj": outcome.report.energy_per_request_nj,
                "hottest_instance": hottest.instance,
                "rates": rates,
                "fleet_health": health,
                "projections": projections,
                "time_to_first_degradation_s": ttfd_s,
                "time_to_first_degradation_days": ttfd_s / 8.64e4,
                "lifetime_inferences": ttfd_s * rates.inferences_per_s,
            })
        })
        .collect();

    // Wear-leveling on/off at the light load point, where the default
    // lowest-index placement concentrates wear on instance 0. Leveling
    // only permutes placement: the ServeReport must stay identical.
    let light_cfg = cases[0].config.clone();
    let off = &outcomes[0];
    let on = monitored(&light_cfg, HealthConfig { wear_leveling: true });
    let off_health = off.health.as_ref().expect("health");
    let on_health = on.health.as_ref().expect("health");
    // Leveling only permutes which instance runs a batch: every
    // timing/counting number is bitwise unchanged; only the per-instance
    // utilization vector redistributes.
    assert_eq!(off.report.latency, on.report.latency, "leveling must not move latency");
    assert_eq!(off.report.goodput_rps, on.report.goodput_rps, "leveling must not move goodput");
    assert_eq!(off.report.batches, on.report.batches);
    assert_eq!(off.report.total_energy_pj, on.report.total_energy_pj);
    assert_eq!(
        (off.report.arrivals, off.report.completed, off.report.rejected, off.report.expired),
        (on.report.arrivals, on.report.completed, on.report.rejected, on.report.expired),
    );
    let leveling = serde_json::json!({
        "note": "round-robin placement at the light load point: ledger skew \
                 falls while latency, goodput, and energy stay bitwise \
                 identical (only per-instance utilization redistributes)",
        "label": cases[0].label,
        "wear_skew_off": off_health.wear_skew,
        "wear_skew_on": on_health.wear_skew,
        "rows_per_instance_off":
            off_health.instances.iter().map(|i| i.ledger.rows).collect::<Vec<_>>(),
        "rows_per_instance_on":
            on_health.instances.iter().map(|i| i.ledger.rows).collect::<Vec<_>>(),
        "goodput_rps_identical": on.report.goodput_rps,
    });

    serde_json::json!({
        "operating_point": {
            "class": base.mix.classes()[0].to_string(),
            "fleet": base.fleet,
            "policy": base.policy.to_string(),
            "horizon_ns": base.horizon_ns,
            "seed": base.seed,
            "service": base.service,
            "health": health_cfg,
        },
        "horizons_s": A9_HORIZONS
            .iter()
            .map(|(label, s)| serde_json::json!({"horizon": label, "seconds": s}))
            .collect::<Vec<_>>(),
        "load_points": load_points,
        "wear_leveling": leveling,
        "paper": {
            "note": "STAR's value-CAM / exp-LUT tables are programmed once and \
                     only read (table_writes = 0), so lifetime is set by \
                     read-disturb write-equivalents — unlike PipeLayer, which \
                     reprograms crossbars every inference (see a4_endurance)",
            "star_table_writes_per_inference": 0,
            "pipelayer_hot_cell_writes_per_inference": RramAccelerator::pipelayer()
                .hot_cell_writes_per_layer()
                * AttentionConfig::bert_base(128).num_layers as u64,
        },
    })
}

/// A9 (extension) — device health: wear, drift, and lifetime of a STAR
/// fleet under sustained serving load.
///
/// The paper's energy and latency tables assume pristine RRAM; this
/// experiment asks how long that assumption holds. Three sustained load
/// points run through the monitored event loop, the hottest instance's
/// steady-state wear rates are projected over hours-to-years of wall
/// time, and a wear-leveling on/off comparison at the light load point
/// shows the round-robin placement flattening the ledger skew without
/// moving a single latency number.
pub(crate) fn a9() -> Value {
    let result = a9_device_health_result();

    header("A9: sustained load points (BERT-base seq 128, fleet 2, batch 8)");
    println!(
        "  {:<34} {:>9} {:>9} {:>7} {:>11} {:>12}",
        "case", "offered", "goodput", "util", "nJ/request", "reads/s"
    );
    let points = walk(&result, "load_points").as_array().expect("load_points array");
    for p in points {
        println!(
            "  {:<34} {:>9.0} {:>9.0} {:>7.3} {:>11.1} {:>12.3e}",
            walk(p, "label").as_str().unwrap_or("?"),
            num(p, "offered_rps"),
            num(p, "goodput_rps"),
            num(p, "mean_utilization"),
            num(p, "energy_per_request_nj"),
            num(p, "rates.reads_per_s"),
        );
    }

    header("A9: time to first degradation and lifetime");
    println!("  {:<34} {:>12} {:>12} {:>18}", "case", "ttfd [days]", "temp [K]", "lifetime [inf]");
    let mut prev_ttfd = f64::INFINITY;
    let mut prev_rate = 0.0;
    for p in points {
        let ttfd_days = num(p, "time_to_first_degradation_days");
        let lifetime = num(p, "lifetime_inferences");
        let horizons = walk(p, "projections").as_array().expect("projections array");
        let year = horizons
            .iter()
            .find(|h| walk(h, "horizon").as_str() == Some("year"))
            .expect("year horizon present");
        println!(
            "  {:<34} {:>12.1} {:>12.2} {:>18.3e}",
            walk(p, "label").as_str().unwrap_or("?"),
            ttfd_days,
            num(year, "projection.temperature_kelvin"),
            lifetime,
        );
        let rate = num(p, "offered_rps");
        let ttfd = num(p, "time_to_first_degradation_s");
        assert!(rate > prev_rate, "load points must rise in offered rate");
        assert!(ttfd > 0.0 && ttfd.is_finite(), "degradation time must be positive and finite");
        assert!(lifetime > 0.0 && lifetime.is_finite(), "lifetime must be positive and finite");
        assert!(ttfd <= prev_ttfd, "heavier sustained load cannot degrade later");
        // Every horizon degrades the margin no less, and sticks no fewer
        // cells, than the one before it.
        assert_eq!(horizons.len(), A9_HORIZONS.len(), "one projection per horizon");
        for pair in horizons.windows(2) {
            let (earlier, later) = (&pair[0], &pair[1]);
            assert!(
                num(later, "projection.accuracy_margin")
                    <= num(earlier, "projection.accuracy_margin"),
                "margin must degrade monotonically with horizon"
            );
            assert!(
                num(later, "projection.stuck_fraction")
                    >= num(earlier, "projection.stuck_fraction"),
                "stuck fraction must rise monotonically with horizon"
            );
        }
        prev_ttfd = ttfd;
        prev_rate = rate;
    }
    assert!(points.len() >= 3, "need at least three sustained load points");

    header("A9: accuracy-margin trajectory (saturating load)");
    let top = points.last().expect("load points");
    println!(
        "  {:>12} {:>12} {:>14} {:>16} {:>14}",
        "horizon", "drift", "stuck frac", "margin", "inferences"
    );
    for h in walk(top, "projections").as_array().expect("projections") {
        println!(
            "  {:>12} {:>12.6} {:>14.3e} {:>16.6} {:>14.3e}",
            walk(h, "horizon").as_str().unwrap_or("?"),
            num(h, "projection.drift_factor"),
            num(h, "projection.stuck_fraction"),
            num(h, "projection.accuracy_margin"),
            num(h, "projection.inferences"),
        );
    }

    header("A9: wear leveling at the light load point");
    let skew_off = num(&result, "wear_leveling.wear_skew_off");
    let skew_on = num(&result, "wear_leveling.wear_skew_on");
    println!("  ledger row skew   off {skew_off:>8.4}   on {skew_on:>8.4}");
    println!(
        "  goodput identical at {:>8.0} rps (placement never feeds back into timing)",
        num(&result, "wear_leveling.goodput_rps_identical")
    );
    assert!(
        skew_on < skew_off,
        "round-robin placement must flatten wear skew: on {skew_on} vs off {skew_off}"
    );
    result
}

/// The A10 operating point: the A8 mixed 70/30 tenant mix (BERT-base
/// seq-128 premium, seq-64 economy) on the batch-8 fleet, driven by a
/// bursty MMPP ramp — an 8 krps background flipping to 40 krps bursts
/// with 10 ms mean dwells — against the 2 ms SLO. The burst saturates
/// one instance (mixed batch-8 capacity ≈ 20.5 krps, and queueing past
/// ~75% utilization blows the 2 ms budget) but rides comfortably on
/// two, so the static-provisioning answer pays for burst capacity
/// around the clock while the background phase needs half of it: the
/// gap the autoscaler collects. Fleet size and control plane are
/// per-case.
fn a10_fleet_control_base() -> star_serve::ServeConfig {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::mmpp(8_000.0, 40_000.0, 1e7, 1e7),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::BertBase, 128), 0.7),
            (RequestClass::new(ModelKind::BertBase, 64), 0.3),
        ]),
        horizon_ns: 1e8,
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// The static fleet sizes the A10 provisioning sweep evaluates.
const A10_STATIC_FLEETS: [usize; 4] = [1, 2, 3, 4];

/// SLO attainment (`good / arrivals`) a fleet must reach to "meet" the
/// 2 ms SLO in A10 — one nine, the same bar `SloPolicy` burn windows
/// default to.
const A10_SLO_ATTAINMENT: f64 = 0.99;

/// The A10 autoscaler: 0.5 ms checks and cooldown so the fleet tracks a
/// 10 ms burst within a couple of milliseconds, scale-up at queue depth
/// 8 or a hot SLO-burn interval, scale-down at depth 2 or below.
fn a10_autoscaler() -> star_serve::AutoscaleConfig {
    star_serve::AutoscaleConfig {
        check_interval_ns: 5e5,
        up_queue_depth: 8,
        down_queue_depth: 2,
        cooldown_ns: 5e5,
        ..star_serve::AutoscaleConfig::new(1, *A10_STATIC_FLEETS.last().expect("non-empty"))
    }
}

/// The machine-readable A10 fleet-control result.
///
/// Three legs, all on the same bursty mixed-tenant workload:
///
/// 1. **Static provisioning sweep** — fleets of 1–4 instances with the
///    control plane off. The smallest fleet reaching
///    [`A10_SLO_ATTAINMENT`] is the best static answer; it pays
///    `fleet × makespan` instance-seconds around the clock.
/// 2. **Autoscaled fleets, one per dequeue policy** — FIFO,
///    weighted-fair (premium tenant at weight 2), and EDF (economy
///    tenant on a tighter 1 ms deadline), each between 1 and 4
///    instances under [`a10_autoscaler`] with least-loaded placement.
///    Each leg reports SLO attainment, allocated instance-seconds, the
///    scale-event timeline, convergence time (first time at peak), and
///    over-provisioning (allocated / busy instance-seconds).
/// 3. **Heterogeneous fleet** — one two-instance fleet mixing a
///    half-width q3.5 economy build (index 0) with the paper's q5.3
///    build (index 1), run under energy-greedy and again under
///    first-idle placement: first-idle lands on the economy build by
///    index order, so the energy/request gap between the two runs is
///    the value of cost-aware placement on a heterogeneous fleet.
///
/// The headline asserts the acceptance criterion: every autoscaled
/// policy meets the SLO bar at **strictly lower** instance-seconds than
/// the best static fleet.
///
/// Runs fan out over `star_exec::Executor::from_env()`; per-case
/// telemetry is recorded in scoped registries and absorbed in case
/// order, so the result is byte-identical for any `STAR_EXEC_THREADS`.
fn a10_fleet_control_result() -> Value {
    use star_serve::{
        simulate_observed, ControlConfig, DequeuePolicy, ModelKind, Observe, PlacementPolicy,
        RequestClass, ServeConfig, ServiceModelConfig,
    };
    let base = a10_fleet_control_base();
    let premium = RequestClass::new(ModelKind::BertBase, 128);
    let economy = RequestClass::new(ModelKind::BertBase, 64);

    // Case table: statics, then one autoscaled leg per dequeue policy,
    // then the heterogeneous pair. One flat list so the executor fan-out
    // and the telemetry absorb order are a single case order.
    let autoscaled = |dequeue: DequeuePolicy| ControlConfig {
        dequeue,
        placement: PlacementPolicy::LeastLoaded,
        autoscale: Some(a10_autoscaler()),
        instance_services: Vec::new(),
    };
    let mut cases: Vec<(String, ServeConfig)> = A10_STATIC_FLEETS
        .iter()
        .map(|&fleet| (format!("static/fleet{fleet}"), ServeConfig { fleet, ..base.clone() }))
        .collect();
    let policies = [
        ("fifo", DequeuePolicy::Fifo),
        ("wfq", DequeuePolicy::weighted_fair(vec![(premium, 2.0), (economy, 1.0)])),
        ("edf", DequeuePolicy::earliest_deadline(vec![(premium, 2e6), (economy, 1e6)])),
    ];
    for (name, dequeue) in &policies {
        cases.push((
            format!("autoscaled/{name}"),
            ServeConfig { fleet: 1, control: autoscaled(dequeue.clone()), ..base.clone() },
        ));
    }
    // The heterogeneous fleet: a half-width economy build (5 softmax
    // engines, q3.5) at index 0 — slower and costlier per batch — with
    // the paper's q5.3 build at index 1. First-idle placement lands on
    // the economy instance whenever both are free; energy-greedy has to
    // notice the paper build quotes cheaper and route around index
    // order. Same fleet, two placements: the gap is pure placement.
    let economy =
        ServiceModelConfig { format: (3, 5), softmax_units: 5, ..ServiceModelConfig::default() };
    for placement in [PlacementPolicy::EnergyGreedy, PlacementPolicy::FirstIdle] {
        cases.push((
            format!("hetero/q35-econ+q53/{}", placement.name()),
            ServeConfig {
                fleet: 2,
                control: ControlConfig {
                    placement,
                    instance_services: vec![economy.clone(), base.service.clone()],
                    ..ControlConfig::default()
                },
                ..base.clone()
            },
        ));
    }

    let exec = star_exec::Executor::from_env();
    let outcomes = exec.par_map(&cases, |_, (_, cfg)| {
        star_telemetry::with_scoped(|| simulate_observed(cfg, &Observe::default()))
    });
    let outcomes: Vec<star_serve::SimOutcome> = outcomes
        .into_iter()
        .map(|(outcome, snap)| {
            star_telemetry::absorb(&snap);
            outcome
        })
        .collect();

    let attainment = |r: &star_serve::ServeReport| r.good as f64 / r.arrivals as f64;
    // Busy instance-seconds actually consumed: the utilization vector is
    // busy_ns / makespan per slot, so its sum × makespan integrates the
    // busy time across the fleet.
    let busy_s =
        |r: &star_serve::ServeReport| r.utilization.iter().sum::<f64>() * r.makespan_ns * 1e-9;

    let static_rows: Vec<(String, usize, f64, f64, f64)> = cases[..A10_STATIC_FLEETS.len()]
        .iter()
        .zip(&outcomes)
        .map(|((label, cfg), outcome)| {
            let r = &outcome.report;
            let allocated_s = cfg.fleet as f64 * r.makespan_ns * 1e-9;
            (label.clone(), cfg.fleet, attainment(r), allocated_s, busy_s(r))
        })
        .collect();
    let statics: Vec<serde_json::Value> = static_rows
        .iter()
        .zip(&outcomes)
        .map(|((label, fleet, att, allocated_s, busy), outcome)| {
            let r = &outcome.report;
            serde_json::json!({
                "label": label,
                "fleet": fleet,
                "slo_attainment": att,
                "meets_slo": *att >= A10_SLO_ATTAINMENT,
                "instance_seconds": allocated_s,
                "busy_instance_seconds": busy,
                "over_provisioning": allocated_s / busy,
                "goodput_rps": r.goodput_rps,
                "p99_ms": r.latency.p99_ms,
                "rejected": r.rejected,
                "expired": r.expired,
                "energy_per_request_nj": r.energy_per_request_nj,
            })
        })
        .collect();
    let (_, best_static_fleet, _, best_static_seconds, _) = static_rows
        .iter()
        .find(|(_, _, att, _, _)| *att >= A10_SLO_ATTAINMENT)
        .cloned()
        .expect("some static fleet meets the SLO");

    let class_json = |c: &star_serve::ClassSloReport| {
        serde_json::json!({
            "class": c.class.to_string(),
            "arrivals": c.arrivals,
            "good": c.good,
            "late": c.late,
            "rejected": c.rejected,
            "expired": c.expired,
            "goodput_rps": c.goodput_rps,
            "p99_ms": c.latency.p99_ms,
        })
    };
    let auto_range = A10_STATIC_FLEETS.len()..A10_STATIC_FLEETS.len() + policies.len();
    let autoscaled_legs: Vec<serde_json::Value> = cases[auto_range.clone()]
        .iter()
        .zip(&outcomes[auto_range])
        .map(|((label, _), outcome)| {
            let r = &outcome.report;
            let c = outcome.control.as_ref().expect("control plane active");
            let att = attainment(r);
            // The acceptance criterion, per policy: meet the SLO bar on
            // strictly fewer instance-seconds than the best static fleet.
            assert!(
                att >= A10_SLO_ATTAINMENT,
                "{label}: autoscaled fleet misses the SLO bar ({att})"
            );
            assert!(
                c.instance_seconds < best_static_seconds,
                "{label}: autoscaled {} !< best static {best_static_seconds}",
                c.instance_seconds
            );
            serde_json::json!({
                "label": label,
                "dequeue": c.dequeue,
                "placement": c.placement,
                "slo_attainment": att,
                "instance_seconds": c.instance_seconds,
                "busy_instance_seconds": busy_s(r),
                "over_provisioning": c.instance_seconds / busy_s(r),
                "savings_vs_best_static": 1.0 - c.instance_seconds / best_static_seconds,
                "converge_ms": c.converge_ns * 1e-6,
                "peak_active": c.peak_active,
                "min_active": c.min_active,
                "final_active": c.final_active,
                "scale_events": c.scale_events,
                "shares": c.shares,
                "goodput_rps": r.goodput_rps,
                "p99_ms": r.latency.p99_ms,
                "per_class": r.per_class.iter().map(class_json).collect::<Vec<_>>(),
                "energy_per_request_nj": r.energy_per_request_nj,
            })
        })
        .collect();

    let hetero_leg = |outcome: &star_serve::SimOutcome, label: &str| {
        let r = &outcome.report;
        serde_json::json!({
            "label": label,
            "placement": outcome.control.as_ref().expect("control active").placement.clone(),
            "energy_per_request_nj": r.energy_per_request_nj,
            "goodput_rps": r.goodput_rps,
            "p99_ms": r.latency.p99_ms,
            "utilization": r.utilization,
        })
    };
    let greedy = &outcomes[outcomes.len() - 2];
    let naive = &outcomes[outcomes.len() - 1];
    let hetero_json = serde_json::json!({
        "note": "one heterogeneous two-instance fleet — a half-width q3.5 \
                 economy build at index 0, the paper q5.3 build at index 1 — \
                 under energy-greedy versus first-idle placement; the gap in \
                 energy/request and p99 is pure placement policy",
        "energy_greedy": hetero_leg(greedy, &cases[cases.len() - 2].0),
        "first_idle": hetero_leg(naive, &cases[cases.len() - 1].0),
        "energy_per_request_ratio":
            greedy.report.energy_per_request_nj / naive.report.energy_per_request_nj,
    });

    serde_json::json!({
        "operating_point": {
            "mix": base.mix.classes().iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            "policy": base.policy.to_string(),
            "arrival": "mmpp 8 krps / 40 krps, 10 ms dwell",
            "horizon_ns": base.horizon_ns,
            "seed": base.seed,
            "deadline_ns": base.deadline_ns,
            "max_queue": base.max_queue,
            "service": base.service,
            "autoscaler": a10_autoscaler(),
            "slo_attainment_bar": A10_SLO_ATTAINMENT,
        },
        "static_sweep": statics,
        "best_static": {
            "fleet": best_static_fleet,
            "instance_seconds": best_static_seconds,
        },
        "autoscaled": autoscaled_legs,
        "heterogeneous": hetero_json,
    })
}

/// A10 (extension) — fleet control: what the cheapest fleet that meets
/// the 2 ms SLO looks like, and what it costs to find it statically.
///
/// The bursty mixed-tenant workload (A8's 70/30 premium/economy mix
/// under an MMPP ramp) is served three ways: statically provisioned
/// fleets of 1–4 instances, autoscaled fleets under each dequeue policy
/// (FIFO, weighted-fair, earliest-deadline-first) with least-loaded
/// placement, and a heterogeneous q5.3/q3.5 fleet under energy-greedy
/// placement. The headline: every autoscaled policy meets the SLO bar
/// at strictly fewer instance-seconds than the best static fleet, with
/// convergence time and over-provisioning quantified per policy.
pub(crate) fn a10() -> Value {
    let result = a10_fleet_control_result();

    header("A10: static provisioning sweep (mixed 70/30, MMPP 8/40 krps, 2 ms SLO)");
    println!(
        "  {:<26} {:>10} {:>9} {:>11} {:>9} {:>8}",
        "case", "attainment", "meets", "inst-sec", "overprov", "p99 ms"
    );
    for s in walk(&result, "static_sweep").as_array().expect("static_sweep array") {
        println!(
            "  {:<26} {:>10.4} {:>9} {:>11.4} {:>9.2} {:>8.3}",
            walk(s, "label").as_str().unwrap_or("?"),
            num(s, "slo_attainment"),
            walk(s, "meets_slo").as_bool().unwrap_or(false),
            num(s, "instance_seconds"),
            num(s, "over_provisioning"),
            num(s, "p99_ms"),
        );
    }
    let best_fleet = num(&result, "best_static.fleet");
    let best_seconds = num(&result, "best_static.instance_seconds");
    println!("  best static fleet: {best_fleet:.0} instances at {best_seconds:.4} inst-sec");

    header("A10: autoscaled fleets, per dequeue policy");
    println!(
        "  {:<26} {:>10} {:>11} {:>8} {:>9} {:>12} {:>6}",
        "case", "attainment", "inst-sec", "saved", "overprov", "converge ms", "peak"
    );
    for a in walk(&result, "autoscaled").as_array().expect("autoscaled array") {
        println!(
            "  {:<26} {:>10.4} {:>11.4} {:>7.1}% {:>9.2} {:>12.2} {:>6.0}",
            walk(a, "label").as_str().unwrap_or("?"),
            num(a, "slo_attainment"),
            num(a, "instance_seconds"),
            num(a, "savings_vs_best_static") * 100.0,
            num(a, "over_provisioning"),
            num(a, "converge_ms"),
            num(a, "peak_active"),
        );
        // The builder asserts the SLO bar and the instance-second saving.
        assert!(num(a, "converge_ms") > 0.0, "convergence time recorded");
        assert!(!walk(a, "scale_events").as_array().expect("timeline").is_empty());
    }

    header("A10: heterogeneous fleet (q3.5 economy + q5.3 paper build)");
    let ratio = num(&result, "heterogeneous.energy_per_request_ratio");
    println!(
        "  energy/request   energy-greedy {:>9.1} nJ   first-idle {:>9.1} nJ   ratio {ratio:.3}",
        num(&result, "heterogeneous.energy_greedy.energy_per_request_nj"),
        num(&result, "heterogeneous.first_idle.energy_per_request_nj"),
    );
    println!(
        "  p99              energy-greedy {:>9.3} ms   first-idle {:>9.3} ms",
        num(&result, "heterogeneous.energy_greedy.p99_ms"),
        num(&result, "heterogeneous.first_idle.p99_ms"),
    );
    assert!(ratio < 1.0, "energy-greedy placement must beat first-idle on the heterogeneous fleet");
    result
}

/// The A11 operating point: the A8 saturating batched point — 32 krps
/// of BERT-base/128 offered to the 2-instance batch-8 fleet, right
/// where dynamic batching pays and the queue is non-trivially loaded —
/// so blame attribution has real admission/hold/busy waits to explain
/// and the what-if engine has real latency to move.
fn a11_blame_config() -> star_serve::ServeConfig {
    use star_serve::{ArrivalProcess, BatchPolicy};
    let (base, _) = a8_serving_cases();
    star_serve::ServeConfig {
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(32_000.0),
        ..base
    }
}

/// The machine-readable A11 blame + what-if result.
///
/// Two legs on the [`a11_blame_config`] operating point:
///
/// 1. **Critical-path blame** — the exact per-request decomposition of
///    end-to-end latency into admission queueing, batch-window hold,
///    instance-busy blocking, and the five invocation phases, with the
///    Sterbenz conservation identity (components recompose to the
///    latency **bitwise**) verified inline over every completed
///    request, plus the aggregated per-class/per-instance/tail blame
///    tables and top blocking chains. Blame is observation-only: the
///    [`star_serve::ServeReport`] is asserted equal to an unblamed run.
/// 2. **Deterministic what-if** — the standard intervention menu
///    (halve each service phase, zero the batch window, +1 instance,
///    least-loaded placement) re-simulated on the same seeded workload
///    and ranked by Δp99. The acceptance criterion is asserted here:
///    the top-ranked intervention strictly improves p99 at this
///    saturation point.
///
/// Everything is a pure function of the configuration — the recorder
/// consumes zero RNG and performs no event arithmetic, and each what-if
/// leg is an ordinary seeded simulation — so the golden pins the blame
/// tables and the ranked what-if table byte-for-byte at any
/// `STAR_EXEC_THREADS`.
///
/// # Panics
///
/// Panics when blame perturbs the report, a request's components fail
/// to recompose bitwise, or no intervention improves p99 (regressions).
fn a11_blame_whatif_result() -> Value {
    use star_serve::{run_what_ifs, simulate, simulate_observed, Observe, WhatIf};
    let cfg = a11_blame_config();
    let outcome = simulate_observed(&cfg, &Observe { blame: true, ..Observe::default() });
    let blame = outcome.blame.as_ref().expect("blamed run carries blame tables");

    // Observation-only, re-proved at the experiment's own operating
    // point: the blamed run's report equals the plain run's bitwise.
    let plain = simulate(&cfg);
    assert_eq!(outcome.report, plain, "blame perturbed the serve report");
    // The conservation identity over every completed request: the eight
    // components recompose to the end-to-end latency with float
    // equality, not a tolerance.
    for b in blame.requests() {
        assert_eq!(
            b.components_sum(),
            b.latency_ns,
            "request {}: blame components do not recompose bitwise",
            b.id
        );
    }

    let completed_rows = blame.requests().len();

    let what_if = run_what_ifs(&cfg, &plain, &WhatIf::standard());
    let best = what_if.best().expect("standard menu is non-empty");
    assert!(
        best.delta_p99_ms < 0.0,
        "top-ranked intervention `{}` fails to improve p99 ({:+} ms)",
        best.label,
        best.delta_p99_ms
    );

    serde_json::json!({
        "experiment": "a11_blame_whatif",
        "config": {
            "class": cfg.mix.classes()[0].to_string(),
            "rate_rps": 32_000.0,
            "fleet": cfg.fleet,
            "policy": cfg.policy.to_string(),
            "horizon_ns": cfg.horizon_ns,
            "seed": cfg.seed,
            "max_queue": cfg.max_queue,
            "deadline_ns": cfg.deadline_ns,
        },
        "report": {
            "arrivals": outcome.report.arrivals,
            "completed": outcome.report.completed,
            "goodput_rps": outcome.report.goodput_rps,
            "p99_ms": outcome.report.latency.p99_ms,
            "energy_per_request_nj": outcome.report.energy_per_request_nj,
        },
        "conservation": {
            "requests": completed_rows,
            "batches": blame.batches.len(),
            "bitwise_failures": 0,
        },
        "blame": blame.report,
        "what_if": what_if,
    })
}

/// The eight latency components of a blame section, in report order.
const BLAME_COMPONENTS: [&str; 8] = [
    "admission_ms",
    "hold_ms",
    "busy_ms",
    "overhead_ms",
    "projection_ms",
    "qk_fill_ms",
    "softmax_stream_ms",
    "av_drain_ms",
];

/// Prints a blame section's components with their shares, and asserts
/// they add up to its `total_ms`.
fn print_components(result: &Value, section: &str) {
    let total = num(result, &format!("{section}.total_ms"));
    let mut sum = 0.0;
    for name in BLAME_COMPONENTS {
        let ms = num(result, &format!("{section}.{name}"));
        sum += ms;
        let share = if total > 0.0 { ms / total * 100.0 } else { 0.0 };
        println!("  {:<16} {ms:>10.3} ms  {share:>5.1} %", name.trim_end_matches("_ms"));
    }
    // Loose here: the bitwise identity holds on the per-request ns rows,
    // which the builder checks; these are aggregated milliseconds.
    assert!(
        (sum - total).abs() <= 1e-6 * total.max(1.0),
        "{section}: components {sum} do not sum to total {total}"
    );
}

/// A11 (extension) — critical-path blame + deterministic what-if: where
/// each millisecond of serving latency comes from, and which single
/// change buys the most p99 back.
///
/// The A8 saturating batched point (32 krps of BERT-base/128 on the
/// 2-instance batch-8 fleet) is run once with the blame recorder
/// attached — splitting every request's latency into admission
/// queueing, batch-window hold, instance-busy blocking, and the five
/// invocation phases, with the components recomposing to the latency
/// **bitwise** — and then re-simulated under each standard intervention
/// (halve each service phase, zero the window, +1 instance,
/// least-loaded placement) to produce an exact, replayable "optimize
/// this next" table ranked by Δp99. The headline asserts the top
/// intervention strictly improves p99 at this saturation point.
pub(crate) fn a11() -> Value {
    let result = a11_blame_whatif_result();

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
    // Blame covered every completed request.
    let completed = num(&result, "report.completed");
    assert_eq!(num(&result, "conservation.requests"), completed, "blame missed a request");
    assert_eq!(num(&result, "blame.overall.requests"), completed, "blame missed a request");
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
    // The blame-side p99 threshold is the report's p99, and the what-if
    // baseline reproduces it: three views of one number.
    let p99 = num(&result, "report.p99_ms");
    assert_eq!(num(&result, "blame.p99_latency_ms"), p99, "blame p99 is not the report's");
    assert_eq!(num(&result, "what_if.baseline.p99_ms"), p99, "what-if baseline moved p99");
    println!(
        "  {:<28} {:>8} {:>10} {:>12} {:>12}",
        "intervention", "p99 ms", "d p99 ms", "d goodput", "d nJ/req"
    );
    let rows = walk(&result, "what_if.interventions").as_array().expect("interventions array");
    assert_eq!(rows.len(), 8, "five phase scalings + window + instance + placement");
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
    // The builder asserts that the top intervention improves p99.
    let best = &rows[0];
    let best_delta = num(best, "delta_p99_ms");
    println!(
        "  optimize this next: {} ({:+.3} ms p99)",
        walk(best, "label").as_str().unwrap_or("?"),
        best_delta
    );
    result
}
