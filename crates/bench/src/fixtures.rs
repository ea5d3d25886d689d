//! The deterministic fixtures that are not experiment results.
//!
//! Each function is one [`crate::FIXTURES`] entry, written by the
//! `goldens` binary and pinned byte for byte against
//! `crates/bench/tests/golden/<name>.json`: the faulty-array softmax
//! (`star_faults`), the serve loop's work counters (`profile_work`,
//! `serve_work`), the flight recorder's first incident dump (`incident`),
//! the serve loop's metrics across consecutive runs in one registry
//! (`serve_telemetry`), the STAR engine's metrics after array calls
//! made outside it (`engine_telemetry`), one traced serve run's
//! Perfetto file and SLO analysis (`serve_trace`), the blame outcome of
//! the same run (`serve_blame`) and the dispatcher's choices among four
//! request classes under each dequeue policy (`serve_classes`). Each is a
//! pure function of the code.

use crate::serving::a8_serving_cases;
use rand::SeedableRng;
use serde_json::Value;
use star_attention::RowSoftmax;
use star_core::{StarSoftmax, StarSoftmaxConfig};
use star_crossbar::{CamSubCrossbar, LutCrossbar};
use star_device::{NoiseModel, StuckFault, TechnologyParams};
use star_fixed::{Fixed, QFormat};
use star_serve::{simulate_observed, HealthConfig, Observe};
use star_workload::{Dataset, ScoreTrace};
use std::collections::BTreeMap;

/// The machine-readable `star_faults` result, which pins how defective
/// arrays behave: no benchmark workload runs a faulty array, so this is
/// the only byte-level check of the fault paths.
///
/// - `engines`: the STAR engine at each paper format under stuck-at faults
///   (2 % stuck-on, 2 % stuck-off) and under read noise (σ = 0.03) — every
///   `softmax_row` output, the fault-recovery count, and the measured
///   array energy.
/// - `find_max`: the CAM/SUB max search on a small array with
///   hand-injected faults (a dead matchline, stuck-off wildcards, a
///   stuck-on true cell), and on a paper-format array with sampled stuck
///   cells — the OR-merged hot rows, each input's first matched row, and
///   each input's subtraction from the found maximum.
pub(crate) fn star_faults() -> Value {
    let mut engines = Vec::new();
    for dataset in Dataset::ALL {
        let format = dataset.paper_format();
        let trace = fault_trace(dataset);
        for (setting, noise) in fault_settings() {
            let mut engine = fault_engine(format, noise);
            let rows: Vec<Vec<f64>> = trace.rows.iter().map(|r| engine.softmax_row(r)).collect();
            engines.push(serde_json::json!({
                "dataset": dataset.to_string(),
                "format": format.to_string(),
                "setting": setting,
                "rows": rows,
                "fault_events": engine.fault_events(),
                "measured_energy_pj": engine.measured_energy().value(),
            }));
        }
    }

    // q3.1: 32 rows, row r stores raw 15 − r in 5 bits, bit 0 the MSB.
    let small = QFormat::new(3, 1).expect("valid format");
    let injected = [
        // 3.5 (row 8): its MSB search path is the true cell; stuck on, the
        // matchline always discharges and the row reads back negative.
        (8, 0, 0, StuckFault::StuckOn),
        // 1.0 (row 13): complement of the LSB stuck off makes the LSB a
        // wildcard, so 1.5 also matches this row.
        (13, 4, 1, StuckFault::StuckOff),
        // -2.0 (row 19): both halves of bit 2 stuck on — matches nothing.
        (19, 2, 0, StuckFault::StuckOn),
        (19, 2, 1, StuckFault::StuckOn),
        // 2.5 (row 10): the true cell of its 4-weight bit stuck off — a
        // wildcard that also matches 0.5 and reads back as 0.5.
        (10, 2, 0, StuckFault::StuckOff),
    ];
    let mut xbar = CamSubCrossbar::new(
        small,
        &TechnologyParams::cmos32(),
        NoiseModel::ideal(),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(0xFA),
    );
    for (row, bit, half, fault) in injected {
        xbar.cam_mut().inject_fault(row, bit, half, fault);
    }
    let values = [3.5, 1.5, 2.5, 0.5, -2.0, 1.0, -1.5];
    let inputs: Vec<Fixed> = values.iter().map(|&v| Fixed::from_f64(v, small)).collect();
    let hand = max_search_json(&mut xbar, &inputs);

    let mrpc = QFormat::MRPC;
    let mut xbar = CamSubCrossbar::new(
        mrpc,
        &TechnologyParams::cmos32(),
        NoiseModel::new(0.0, 0.02, 0.02),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(0xFB),
    );
    let trace = ScoreTrace::generate(Dataset::Mrpc, 1, 48, 0xFC);
    let inputs: Vec<Fixed> = trace.rows[0].iter().map(|&v| Fixed::from_f64(v, mrpc)).collect();
    let sampled = max_search_json(&mut xbar, &inputs);

    serde_json::json!({
        "experiment": "star_faults",
        "engines": engines,
        "find_max": {
            "injected_q3_1": {"faults": injected.iter().map(|&(row, bit, half, fault)| {
                serde_json::json!({"row": row, "bit": bit, "half": half, "fault": format!("{fault:?}")})
            }).collect::<Vec<_>>(), "search": hand},
            "sampled_mrpc": sampled,
        },
    })
}

/// The defective-array settings of `star_faults`: stuck-at cells (2 %
/// stuck-on, 2 % stuck-off) and read noise (σ = 0.03).
fn fault_settings() -> [(&'static str, NoiseModel); 2] {
    [
        ("stuck_on_0.02_off_0.02", NoiseModel::new(0.0, 0.02, 0.02)),
        ("read_sigma_0.03", NoiseModel::new(0.03, 0.0, 0.0)),
    ]
}

/// The six 48-wide score rows `star_faults` softmaxes for `dataset`.
fn fault_trace(dataset: Dataset) -> ScoreTrace {
    ScoreTrace::generate(dataset, 6, 48, 0xFA17 + dataset as u64)
}

/// A `star_faults` engine: `format`, rows up to 48 wide, `noise`.
fn fault_engine(format: QFormat, noise: NoiseModel) -> StarSoftmax {
    let cfg = StarSoftmaxConfig::new(format).with_max_row_len(48).with_noise(noise);
    StarSoftmax::new(cfg).expect("paper formats build engines")
}

/// The machine-readable `engine_telemetry` result: the metric snapshot
/// of one scoped registry that standalone array calls and then several
/// STAR engines record into, plus each engine's `fault_events` and
/// measured array energy.
///
/// Inside one [`star_telemetry::with_scoped`] region it runs, in order:
///
/// 1. a CAM/SUB `find_max` and its subtractions, and a LUT `read_row`,
///    on arrays of their own, so the `crossbar.{cam,camsub,lut}`
///    energy gauges already hold sums when the first engine starts;
/// 2. for each paper format, an ideal engine on rows of 1, 7 and 48
///    scores, then the stuck-at and the read-noise engine of
///    `star_faults` on its six rows.
///
/// Every engine therefore continues f64 sums it did not start, in the
/// order its array ops run. The golden pins the resulting bytes.
pub(crate) fn engine_telemetry() -> Value {
    let (engines, snap) = star_telemetry::with_scoped(|| {
        let mrpc = QFormat::MRPC;
        let tech = TechnologyParams::cmos32();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xE7);
        let mut xbar = CamSubCrossbar::new(mrpc, &tech, NoiseModel::ideal(), &mut rng);
        let inputs: Vec<Fixed> =
            [2.5, -7.125, 11.0, 0.375].iter().map(|&v| Fixed::from_f64(v, mrpc)).collect();
        let found = xbar.find_max(&inputs).expect("ideal array matches");
        for &x in &inputs {
            xbar.subtract(x, found.max);
        }
        let mut lut = LutCrossbar::new(4, 18, &tech, NoiseModel::ideal(), &mut rng);
        lut.store_word(2, 0x2_A5A5);
        lut.read_row(2);

        let mut engines = Vec::new();
        for dataset in Dataset::ALL {
            let format = dataset.paper_format();
            let mut ideal = StarSoftmax::new(StarSoftmaxConfig::new(format))
                .expect("paper formats build engines");
            let trace = ScoreTrace::generate(dataset, 3, 48, 0xE1 + dataset as u64);
            for (row, len) in trace.rows.iter().zip([1, 7, 48]) {
                ideal.softmax_row(&row[..len]);
            }
            let mut runs = vec![("ideal", ideal)];
            for (setting, noise) in fault_settings() {
                let mut engine = fault_engine(format, noise);
                for row in &fault_trace(dataset).rows {
                    engine.softmax_row(row);
                }
                runs.push((setting, engine));
            }
            for (setting, engine) in runs {
                engines.push(serde_json::json!({
                    "dataset": dataset.to_string(),
                    "format": format.to_string(),
                    "setting": setting,
                    "fault_events": engine.fault_events(),
                    "measured_energy_pj": engine.measured_energy().value(),
                }));
            }
        }
        engines
    });
    serde_json::json!({
        "experiment": "engine_telemetry",
        "engines": engines,
        "metrics": snap.to_json(),
    })
}

/// One `find_max` on `xbar` plus every input's subtraction from the found
/// maximum, as JSON (`merged_hot_rows` lists the set rows of the merged
/// match vector).
fn max_search_json(xbar: &mut CamSubCrossbar, inputs: &[Fixed]) -> Value {
    let found = xbar.find_max(inputs).expect("some input matches");
    let merged_hot_rows: Vec<usize> =
        found.merged.iter().enumerate().filter(|(_, &h)| h).map(|(r, _)| r).collect();
    let diffs: Vec<i64> = inputs.iter().map(|&x| xbar.subtract(x, found.max).raw()).collect();
    serde_json::json!({
        "inputs": inputs.iter().map(|x| x.raw()).collect::<Vec<_>>(),
        "max": found.max.raw(),
        "row": found.row,
        "rows": found.merged.len(),
        "merged_hot_rows": merged_hot_rows,
        "per_input_rows": found.per_input_rows,
        "diffs": diffs,
        "measured_energy_pj": xbar.ledger().energy().value(),
    })
}

/// The fixed operating point pinned by the `profile_work` golden: the A8
/// base configuration at the moderate batched point (16 krps offered to
/// the 2-instance BERT-base fleet, batch-8 / 50 µs window).
///
/// One point is enough for the golden — the work counters are a pure
/// function of the configuration, so any silent change to event-loop
/// behaviour (an extra heap push, a changed dispatch order, a new
/// telemetry call) shows up as a byte diff here.
fn profile_fixture_config() -> star_serve::ServeConfig {
    use star_serve::{ArrivalProcess, BatchPolicy};
    let (base, _) = a8_serving_cases();
    star_serve::ServeConfig {
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(16_000.0),
        ..base
    }
}

/// The fixed operating point pinned by the `incident` golden: 80 krps of
/// BERT-base/128 offered to a single batch-8 instance — the saturating
/// shape `star_cli serve 80000 1 --flight` runs, far past the
/// ~17.6 krps batched capacity, so the flight recorder's SLO burn,
/// expiry-burst and queue-depth triggers all fire early in the run.
fn incident_config() -> star_serve::ServeConfig {
    use star_serve::{ArrivalProcess, BatchPolicy};
    let (base, _) = a8_serving_cases();
    star_serve::ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(8, 50_000.0),
        arrival: ArrivalProcess::poisson(80_000.0),
        ..base
    }
}

/// The machine-readable `incident` result: the first incident dump the
/// flight recorder seals on the [`incident_config`] overload, exactly as
/// `star_cli serve --flight` would write it (the sidecar object with the
/// `starServeIncident` key), plus the recorder's conservation counters.
///
/// The dump is a pure function of the configuration — the recorder
/// consumes zero RNG and performs no event arithmetic — so the golden
/// pins byte-for-byte that (1) the recorder stays invisible and
/// (2) incident capture is reproducible at any thread count (CI diffs
/// this file at both `STAR_EXEC_THREADS` legs).
///
/// # Panics
///
/// Panics if the overload fails to produce an incident (a recorder or
/// trigger regression).
pub(crate) fn incident() -> Value {
    let cfg = incident_config();
    let outcome = simulate_observed(&cfg, &Observe { flight: true, ..Observe::default() });
    let flight = outcome.flight.expect("flight run carries an outcome");
    let dump = flight.incidents.first().expect("saturating overload seals an incident");
    serde_json::json!({
        "experiment": "incident",
        "config": {
            "class": cfg.mix.classes()[0].to_string(),
            "rate_rps": 80_000.0,
            "fleet": cfg.fleet,
            "policy": cfg.policy.to_string(),
            "horizon_ns": cfg.horizon_ns,
            "seed": cfg.seed,
            "max_queue": cfg.max_queue,
            "deadline_ns": cfg.deadline_ns,
        },
        "counters": {
            "events_seen": flight.events_seen,
            "events_retained": flight.events_retained,
            "events_evicted": flight.events_evicted,
            "terminals_seen": flight.terminals_seen,
            "terminals_retained": flight.terminals_retained,
            "terminals_evicted": flight.terminals_evicted,
            "triggers_fired": flight.triggers_fired,
            "incidents": flight.incidents.len(),
        },
        "dump": dump.to_object_json(),
    })
}

/// The fixed operating point pinned by the `serve_trace` golden: the
/// serve trace tests' mixed Tiny/16 + Tiny/32 workload on one batch-4
/// instance, pushed to 200 krps against a 16-deep queue and a 150 µs
/// deadline for 0.3 simulated ms. Its 68 arrivals reach all four
/// terminal states (good, late, expired, rejected) in 9 batches.
fn serve_trace_config() -> star_serve::ServeConfig {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(4, 50_000.0),
        arrival: ArrivalProcess::poisson(200_000.0),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.8),
            (RequestClass::new(ModelKind::Tiny, 32), 0.2),
        ]),
        horizon_ns: 3e5,
        seed: 99,
        max_queue: 16,
        deadline_ns: 1.5e5,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// The machine-readable `serve_trace` result: the health-monitored traced
/// run of [`serve_trace_config`] as `star_cli serve --trace` writes it
/// (`trace`, the Perfetto object with the `starServe` sidecar) and as
/// `trace-analyze` reads it (`slo`, the analysis with five exemplars).
///
/// The trace is a pure function of the configuration, so the golden pins
/// every span, counter sample and health sample byte for byte.
///
/// # Panics
///
/// Panics if the traced run returns no trace (a programming error).
pub(crate) fn serve_trace() -> Value {
    let observe =
        Observe { trace: true, health: Some(HealthConfig::default()), ..Observe::default() };
    let outcome = simulate_observed(&serve_trace_config(), &observe);
    let trace = outcome.trace.expect("traced run carries a trace");
    serde_json::json!({
        "trace": trace.to_object_json(),
        "slo": star_serve::SloAnalysis::from_trace(&trace, 5),
    })
}

/// The machine-readable `serve_blame` result: the blame outcome of the
/// [`serve_trace_config`] run as `star_cli serve --blame` writes it (the
/// Perfetto object with the `starServeBlame` sidecar). Its requests reach
/// all four terminal states, so it pins the rejected and expired counts,
/// the futile expired wait and every per-request blame row.
///
/// # Panics
///
/// Panics if the blamed run returns no blame outcome (a programming
/// error).
pub(crate) fn serve_blame() -> Value {
    let outcome =
        simulate_observed(&serve_trace_config(), &Observe { blame: true, ..Observe::default() });
    outcome.blame.expect("blamed run carries a blame outcome").to_object_json()
}

/// The machine-readable `profile_work` result: the deterministic half of
/// the self-profile ([`star_serve::WorkCounters`] + histograms) for the
/// fixed configuration from [`profile_fixture_config`], alongside the
/// report totals the counters must reconcile with.
///
/// Wall-clock phase numbers are deliberately **absent** — they never
/// reproduce across machines, so only the work track is golden-pinnable.
///
/// # Panics
///
/// Panics if the profiled run returns no profile (a programming error).
pub(crate) fn profile_work() -> Value {
    let cfg = profile_fixture_config();
    let outcome = star_serve::simulate_profiled(&cfg);
    let profile = outcome.profile.expect("profiled run carries a profile");
    let r = &outcome.report;
    serde_json::json!({
        "experiment": "profile_work",
        "config": {
            "class": cfg.mix.classes()[0].to_string(),
            "rate_rps": 16_000.0,
            "fleet": cfg.fleet,
            "policy": cfg.policy.to_string(),
            "horizon_ns": cfg.horizon_ns,
            "seed": cfg.seed,
            "max_queue": cfg.max_queue,
            "deadline_ns": cfg.deadline_ns,
        },
        "report": {
            "arrivals": r.arrivals,
            "completed": r.completed,
            "batches": r.batches,
            "rejected": r.rejected,
            "expired": r.expired,
        },
        "work": profile.work_json(),
        "events_per_request": profile.work.events_per_request(),
    })
}

/// One point of the `serve_work` matrix: the Tiny/16 class offered at
/// `rate_rps` to `fleet` batch-8 / 50 µs-window instances over a 50 ms
/// horizon, seed 7. The model is small, so event-loop overhead (heap,
/// queues, dispatch) dominates over hardware modeling.
fn serve_work_config(rate_rps: f64, fleet: usize) -> star_serve::ServeConfig {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    ServeConfig {
        fleet,
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

/// The machine-readable `serve_work` result: the deterministic work
/// counters at every [`serve_work_config`] point, keyed `r<rate>_f<fleet>`.
/// Each point holds the profiler's 17 [`star_serve::WorkCounters`]
/// scalars and the flight recorder's six `flight_*` scalars, both from
/// one run with the two attached.
///
/// 20 krps keeps the Tiny/16 fleet below saturation, 40 krps is the knee
/// and 80 krps saturates it, so the queue and window machinery runs;
/// fleet 8 scales the instance-free traffic. The golden pins every count
/// exactly.
///
/// # Panics
///
/// Panics if a run returns no profile or no flight outcome (programming
/// errors).
pub(crate) fn serve_work() -> Value {
    let observe = Observe { profile: true, flight: true, ..Observe::default() };
    let mut points: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for rate in [20_000.0, 40_000.0, 80_000.0] {
        for fleet in [2, 8] {
            let outcome = simulate_observed(&serve_work_config(rate, fleet), &observe);
            let profile = outcome.profile.expect("profiled run");
            let flight = outcome.flight.expect("flight outcome");
            let counters = profile.work.scalars().into_iter().chain(flight.scalars());
            points.insert(
                format!("r{}_f{fleet}", rate as u64),
                counters.map(|(k, v)| (k.to_string(), v)).collect(),
            );
        }
    }
    serde_json::to_value(&points).expect("work counters serialize")
}

/// The machine-readable `serve_classes` result: the dispatcher's choices
/// among four request classes, under each dequeue policy and both arrival
/// processes.
///
/// Two batch-8 / 50 µs instances serve Tiny/16, Tiny/32, Tiny/64 and
/// BERT-base/64 (shares 0.4, 0.3, 0.2, 0.1) behind a 64-deep queue with
/// a 1 ms deadline for 5 simulated ms, seed 7, under FIFO, weighted-fair
/// (weights 1, 3, 5, 7) and earliest-deadline-first (offsets 0.3, 0.5,
/// 0.7, 0.9 ms), each at 120 krps Poisson and under a closed loop of 48
/// clients thinking 100 µs. At this load every class completes requests
/// while others finish late, expire or are rejected. Each run records
/// its report, its control report and its profile's work counters;
/// `telemetry` is one scoped registry over all six runs.
///
/// # Panics
///
/// Panics if a profiled run returns no profile (a programming error).
pub(crate) fn serve_classes() -> Value {
    use star_serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, DequeuePolicy, ModelKind, RequestClass,
        ServeConfig, ServiceModelConfig, WorkloadMix,
    };
    // Listed out of class order (BERT-base sorts first), so the fixture
    // also pins that reports follow class order.
    let mix = [
        (RequestClass::new(ModelKind::Tiny, 16), 0.4),
        (RequestClass::new(ModelKind::Tiny, 32), 0.3),
        (RequestClass::new(ModelKind::Tiny, 64), 0.2),
        (RequestClass::new(ModelKind::BertBase, 64), 0.1),
    ];
    let per_class = |values: [f64; 4]| mix.iter().map(|&(c, _)| c).zip(values).collect();
    let policies = [
        DequeuePolicy::Fifo,
        DequeuePolicy::weighted_fair(per_class([1.0, 3.0, 5.0, 7.0])),
        DequeuePolicy::earliest_deadline(per_class([3e5, 5e5, 7e5, 9e5])),
    ];
    let arrivals = [
        ("poisson", ArrivalProcess::poisson(120_000.0)),
        ("closed", ArrivalProcess::closed_loop(48, 100_000.0)),
    ];
    let (runs, snap) = star_telemetry::with_scoped(|| {
        let mut runs = Vec::new();
        for dequeue in &policies {
            for (arrival_name, arrival) in &arrivals {
                let cfg = ServeConfig {
                    fleet: 2,
                    policy: BatchPolicy::new(8, 50_000.0),
                    arrival: arrival.clone(),
                    mix: WorkloadMix::new(mix.to_vec()),
                    horizon_ns: 5e6,
                    seed: 7,
                    max_queue: 64,
                    deadline_ns: 1e6,
                    service: ServiceModelConfig::default(),
                    control: ControlConfig { dequeue: dequeue.clone(), ..ControlConfig::default() },
                };
                let outcome = star_serve::simulate_profiled(&cfg);
                let profile = outcome.profile.expect("profiled run carries a profile");
                runs.push(serde_json::json!({
                    "dequeue": dequeue.name(),
                    "arrival": arrival_name,
                    "report": outcome.report,
                    "control": outcome.control,
                    "work": profile.work_json(),
                }));
            }
        }
        runs
    });
    serde_json::json!({
        "experiment": "serve_classes",
        "config": {
            "classes": mix.iter().map(|(c, _)| c.to_string()).collect::<Vec<_>>(),
            "shares": mix.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
            "fleet": 2,
            "policy": BatchPolicy::new(8, 50_000.0).to_string(),
            "horizon_ns": 5e6,
            "seed": 7,
            "max_queue": 64,
            "deadline_ns": 1e6,
        },
        "runs": runs,
        "telemetry": snap.to_json(),
    })
}

/// The machine-readable `serve_telemetry` result: the metric snapshot of
/// one scoped registry that several simulations record into, one after
/// another — the shape of the A8 experiment, where a plain `simulate`
/// records into a registry that already holds a whole sweep.
///
/// Inside one [`star_telemetry::with_scoped`] region it runs, in order:
///
/// 1. a two-case [`star_serve::run_sweep`] (each case in its own scope,
///    absorbed in case order),
/// 2. a plain open-loop `simulate` overloaded enough to reject, expire
///    and finish late,
/// 3. a two-class closed-loop `simulate` sharing one class with the
///    runs before it.
///
/// Every `serve.*` name the event loop records therefore already exists
/// when the later runs start, with f64 sums that a run must continue
/// rather than restart. The golden pins the resulting bytes.
pub(crate) fn serve_telemetry() -> Value {
    use star_serve::{
        simulate, ArrivalProcess, BatchPolicy, ModelKind, RequestClass, ServeConfig, WorkloadMix,
    };
    let short = RequestClass::new(ModelKind::Tiny, 16);
    let long = RequestClass::new(ModelKind::Tiny, 32);
    let base = ServeConfig { horizon_ns: 2e7, ..ServeConfig::example() };
    let cases = star_serve::grid(
        &base,
        &[20_000.0, 60_000.0],
        &[BatchPolicy::new(4, 50_000.0)],
        &[base.fleet],
    );
    let overload = ServeConfig {
        fleet: 1,
        arrival: ArrivalProcess::poisson(150_000.0),
        max_queue: 24,
        deadline_ns: 2e5,
        seed: 7,
        ..base.clone()
    };
    let closed = ServeConfig {
        arrival: ArrivalProcess::closed_loop(12, 40_000.0),
        mix: WorkloadMix::new(vec![(short, 0.7), (long, 0.3)]),
        seed: 11,
        ..base
    };
    let ((), snap) = star_telemetry::with_scoped(|| {
        star_serve::run_sweep(&cases, &star_exec::Executor::from_env());
        simulate(&overload);
        simulate(&closed);
    });
    snap.to_json()
}
