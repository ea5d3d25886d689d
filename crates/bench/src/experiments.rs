//! Shared result builders for the experiment binaries.
//!
//! The `e*` binaries and the golden-file regression tests must agree on
//! *exactly* the same numbers, so the JSON results are built here — one
//! function per experiment — and both the binary (which writes
//! `results/<name>.json`) and the test (which diffs against the checked-in
//! fixture under `tests/golden/`) call it. Everything in these builders is
//! deterministic — closed-form cost models or simulations from fixed
//! seeds, no wall clock, no environment — which is what makes byte-stable
//! goldens possible.

use rand::SeedableRng;
use star_arch::{Accelerator, GpuModel, PerfReport, RramAccelerator};
use star_attention::{AttentionConfig, RowSoftmax};
use star_core::precision::{minimal_format, sweep_formats, AccuracyBar, SweepPoint};
use star_core::{CmosBaselineSoftmax, Softermax, SoftmaxEngine, StarSoftmax, StarSoftmaxConfig};
use star_crossbar::CamSubCrossbar;
use star_device::{NoiseModel, StuckFault, TechnologyParams};
use star_fixed::{Fixed, QFormat, Rounding};
use star_workload::{Dataset, ScoreTrace};
use std::path::PathBuf;

/// Writes `results/<name>.json` **and** the `results/<name>.telemetry.json`
/// sidecar in one call — the single exit path every experiment binary goes
/// through, so no binary can write a result without registering its
/// telemetry alongside. Returns `(result_path, sidecar_path)`.
///
/// # Errors
///
/// Returns any I/O or serialization error from either write.
pub fn finalize_experiment<T: serde::Serialize>(
    name: &str,
    value: &T,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let result = crate::write_json(name, value)?;
    let sidecar = crate::write_telemetry_sidecar(name)?;
    Ok((result, sidecar))
}

/// The paper's Table I operating point: CNEWS 8-bit softmax designs.
///
/// Returns `(baseline, softermax, star)` engines ready for cost queries.
///
/// # Panics
///
/// Panics if the paper configuration fails to build (a programming error).
pub fn table1_engines() -> (CmosBaselineSoftmax, Softermax, StarSoftmax) {
    let format = QFormat::CNEWS;
    let baseline = CmosBaselineSoftmax::new(8);
    let softermax = Softermax::new(format, 8);
    let star = StarSoftmax::new(StarSoftmaxConfig::new(format)).expect("valid engine");
    (baseline, softermax, star)
}

/// The machine-readable E2 / Table I result: itemized area/power of the
/// three softmax designs plus ratios normalized to the CMOS baseline, with
/// the paper anchors embedded.
pub fn e2_table1_result() -> serde_json::Value {
    let (baseline, softermax, star) = table1_engines();
    let base_sheet = baseline.cost_sheet();
    let soft_sheet = softermax.cost_sheet();
    let star_sheet = star.cost_sheet();
    let soft_area = soft_sheet.area_ratio_to(&base_sheet);
    let soft_power = soft_sheet.power_ratio_to(&base_sheet);
    let star_area = star_sheet.area_ratio_to(&base_sheet);
    let star_power = star_sheet.power_ratio_to(&base_sheet);
    serde_json::json!({
        "baseline": {
            "area_um2": base_sheet.total_area().value(),
            "power_mw": base_sheet.total_power().value(),
        },
        "softermax": {
            "area_um2": soft_sheet.total_area().value(),
            "power_mw": soft_sheet.total_power().value(),
            "area_ratio": soft_area, "power_ratio": soft_power,
            "paper": {"area_ratio": 0.33, "power_ratio": 0.12},
        },
        "star_8bit": {
            "area_um2": star_sheet.total_area().value(),
            "power_mw": star_sheet.total_power().value(),
            "area_ratio": star_area, "power_ratio": star_power,
            "paper": {"area_ratio": 0.06, "power_ratio": 0.05},
        },
    })
}

/// E4's "high model accuracy" bar: top-1 agreement of at least 0.995 and
/// a mean absolute probability error of at most 2e-3.
pub const E4_BAR: AccuracyBar = AccuracyBar { min_top1: 0.995, max_mean_abs_error: 2e-3 };

/// One dataset proxy's E4 format sweep.
#[derive(Debug, Clone)]
pub struct E4Sweep {
    /// The dataset the proxy trace stands in for.
    pub dataset: Dataset,
    /// Smallest and largest score in the proxy trace.
    pub score_range: (f64, f64),
    /// Every candidate format, cheapest first.
    pub points: Vec<SweepPoint>,
}

impl E4Sweep {
    /// The cheapest format that clears [`E4_BAR`].
    ///
    /// # Panics
    ///
    /// Panics if no candidate clears the bar (a calibration regression).
    pub fn minimal(&self) -> &SweepPoint {
        minimal_format(&self.points, E4_BAR).expect("some format passes")
    }
}

/// E4's sweeps, one per dataset in [`Dataset::ALL`] order: 192 proxy rows
/// of 64 scores each, evaluated through the STAR engine at every
/// `q(int, frac)` with `int` in 3..=6 and `frac` in 0..=4 (60 engine
/// builds in all).
pub fn e4_sweeps() -> Vec<E4Sweep> {
    Dataset::ALL
        .iter()
        .map(|&dataset| {
            let trace = ScoreTrace::generate(dataset, 192, 64, 0x0E4 + dataset as u64);
            let an = trace.analyze();
            let points = sweep_formats(&trace.rows, 3..=6, 0..=4).expect("sweep");
            E4Sweep { dataset, score_range: (an.min_seen(), an.max_seen()), points }
        })
        .collect()
}

/// The machine-readable E4 result for the given sweeps: per dataset, the
/// minimal format next to the paper's, and every sweep point.
pub fn e4_bitwidth_json(sweeps: &[E4Sweep]) -> serde_json::Value {
    let datasets: Vec<serde_json::Value> = sweeps
        .iter()
        .map(|s| {
            let best = s.minimal();
            let paper = s.dataset.paper_format();
            serde_json::json!({
                "dataset": s.dataset.to_string(),
                "minimal_format": {"int_bits": best.format.int_bits(), "frac_bits": best.format.frac_bits(), "total_bits": best.total_bits},
                "paper_format": {"int_bits": paper.int_bits(), "frac_bits": paper.frac_bits(), "total_bits": paper.total_bits()},
                "matches_paper": best.format == paper,
                "sweep": s.points,
            })
        })
        .collect();
    serde_json::json!({"datasets": datasets})
}

/// The machine-readable E4 / §II precision result (`results/e4_bitwidth.json`).
pub fn e4_bitwidth_result() -> serde_json::Value {
    e4_bitwidth_json(&e4_sweeps())
}

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
pub fn star_faults_result() -> serde_json::Value {
    let settings = [
        ("stuck_on_0.02_off_0.02", NoiseModel::new(0.0, 0.0, 0.02, 0.02)),
        ("read_sigma_0.03", NoiseModel::new(0.0, 0.03, 0.0, 0.0)),
    ];
    let mut engines = Vec::new();
    for dataset in Dataset::ALL {
        let format = dataset.paper_format();
        let trace = ScoreTrace::generate(dataset, 6, 48, 0xFA17 + dataset as u64);
        for (setting, noise) in settings {
            let cfg = StarSoftmaxConfig::new(format).with_max_row_len(48).with_noise(noise);
            let mut engine = StarSoftmax::new(cfg).expect("paper formats build engines");
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
    let inputs: Vec<Fixed> =
        values.iter().map(|&v| Fixed::from_f64(v, small, Rounding::Nearest)).collect();
    let hand = max_search_json(&mut xbar, &inputs);

    let mrpc = QFormat::MRPC;
    let mut xbar = CamSubCrossbar::new(
        mrpc,
        &TechnologyParams::cmos32(),
        NoiseModel::new(0.0, 0.0, 0.02, 0.02),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(0xFB),
    );
    let trace = ScoreTrace::generate(Dataset::Mrpc, 1, 48, 0xFC);
    let inputs: Vec<Fixed> =
        trace.rows[0].iter().map(|&v| Fixed::from_f64(v, mrpc, Rounding::Nearest)).collect();
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

/// One `find_max` on `xbar` plus every input's subtraction from the found
/// maximum, as JSON (`merged_hot_rows` lists the set rows of the merged
/// match vector).
fn max_search_json(xbar: &mut CamSubCrossbar, inputs: &[Fixed]) -> serde_json::Value {
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
        "measured_energy_pj": xbar.measured_energy().value(),
    })
}

/// The four Fig. 3 designs evaluated on one BERT-base attention layer at
/// sequence length `seq`, in the paper's order: GPU, PipeLayer,
/// ReTransformer, STAR.
pub fn fig3_reports(seq: usize) -> Vec<PerfReport> {
    let cfg = AttentionConfig::bert_base(seq);
    vec![
        GpuModel::titan_rtx().evaluate(&cfg),
        RramAccelerator::pipelayer().evaluate(&cfg),
        RramAccelerator::retransformer().evaluate(&cfg),
        RramAccelerator::star().evaluate(&cfg),
    ]
}

/// The machine-readable E3 / Fig. 3 result at the paper's seq-128
/// operating point, with the paper anchors embedded.
pub fn e3_fig3_result() -> serde_json::Value {
    serde_json::json!({
        "reports": fig3_reports(128),
        "paper": {
            "star_gops_per_watt": 612.66,
            "gain_over_gpu": 30.63,
            "gain_over_pipelayer": 4.32,
            "gain_over_retransformer": 1.31,
        },
    })
}

/// The A8 sweep grid: arrival rates × batch policies × fleet sizes over
/// the BERT-base / seq-128 operating point. Returned as `(base, cases)`
/// so callers can also inspect the shared base configuration.
///
/// The rates bracket the fleet-2 baseline capacity (~26.8 krps at batch
/// 1): 8 krps is light load, 16 krps moderate, 32 krps saturates the
/// no-batching baseline while staying under the batch-8 capacity
/// (~35.2 krps), which is exactly where dynamic batching pays.
pub fn a8_serving_cases() -> (star_serve::ServeConfig, Vec<star_serve::SweepCase>) {
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

/// The A9 sustained-load points: light, moderate, and saturating Poisson
/// load on the batched 2-instance BERT-base fleet, all monitored by the
/// same default [`star_serve::HealthConfig`]. Returned as
/// `(base, health, cases)`.
///
/// The rates reuse the A8 operating point (batch-8 capacity ≈ 35.2 krps
/// on the fleet): 4 krps barely exercises the crossbars, 16 krps is a
/// steady production load, 32 krps saturates — which is what separates
/// the read-disturb wear rates the lifetime projection integrates.
pub fn a9_device_health_cases(
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
pub const A9_HORIZONS: [(&str, f64); 5] = [
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
pub fn a9_device_health_result() -> serde_json::Value {
    use star_serve::{simulate_monitored, HealthConfig, HealthModel, WearRates};
    let (base, health_cfg, cases) = a9_device_health_cases();
    let exec = star_exec::Executor::from_env();
    let outcomes = exec.par_map(&cases, |_, case| {
        star_telemetry::with_scoped(|| simulate_monitored(&case.config, &health_cfg))
    });
    let outcomes: Vec<star_serve::SimOutcome> = outcomes
        .into_iter()
        .map(|(outcome, snap)| {
            star_telemetry::absorb(&snap);
            outcome
        })
        .collect();
    let model = HealthModel::new(health_cfg.clone(), base.service.qformat());

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
                "time_to_first_degradation_days": ttfd_s.map(|t| t / 8.64e4),
                "lifetime_inferences": ttfd_s.map(|t| t * rates.inferences_per_s),
            })
        })
        .collect();

    // Wear-leveling on/off at the light load point, where the default
    // lowest-index placement concentrates wear on instance 0. Leveling
    // only permutes placement: the ServeReport must stay identical.
    let light_cfg = cases[0].config.clone();
    let off = &outcomes[0];
    let on =
        simulate_monitored(&light_cfg, &HealthConfig { wear_leveling: true, ..health_cfg.clone() });
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
pub fn a10_fleet_control_base() -> star_serve::ServeConfig {
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
pub const A10_STATIC_FLEETS: [usize; 4] = [1, 2, 3, 4];

/// SLO attainment (`good / arrivals`) a fleet must reach to "meet" the
/// 2 ms SLO in A10 — one nine, the same bar `SloPolicy` burn windows
/// default to.
pub const A10_SLO_ATTAINMENT: f64 = 0.99;

/// The A10 autoscaler: 0.5 ms checks and cooldown so the fleet tracks a
/// 10 ms burst within a couple of milliseconds, scale-up at queue depth
/// 8 or a hot SLO-burn interval, scale-down at depth 2 or below.
pub fn a10_autoscaler() -> star_serve::AutoscaleConfig {
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
pub fn a10_fleet_control_result() -> serde_json::Value {
    use star_serve::{
        simulate_full, ControlConfig, DequeuePolicy, ModelKind, PlacementPolicy, RequestClass,
        ServeConfig, ServiceModelConfig,
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
        star_telemetry::with_scoped(|| simulate_full(cfg, 1, false, None, false, None, false))
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
pub fn a8_serving_result() -> serde_json::Value {
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

/// The A11 operating point: the A8 saturating batched point — 32 krps
/// of BERT-base/128 offered to the 2-instance batch-8 fleet, right
/// where dynamic batching pays and the queue is non-trivially loaded —
/// so blame attribution has real admission/hold/busy waits to explain
/// and the what-if engine has real latency to move.
pub fn a11_blame_config() -> star_serve::ServeConfig {
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
pub fn a11_blame_whatif_result() -> serde_json::Value {
    use star_serve::{run_what_ifs, simulate, simulate_blamed, WhatIf};
    let cfg = a11_blame_config();
    let outcome = simulate_blamed(&cfg);
    let blame = outcome.blame.as_ref().expect("blamed run carries blame tables");

    // Observation-only, re-proved at the experiment's own operating
    // point: the blamed run's report equals the plain run's bitwise.
    assert_eq!(outcome.report, simulate(&cfg), "blame perturbed the serve report");
    // The conservation identity over every completed request: the eight
    // components recompose to the end-to-end latency with float
    // equality, not a tolerance.
    for b in &blame.requests {
        assert_eq!(
            b.components_sum(),
            b.latency_ns,
            "request {}: blame components do not recompose bitwise",
            b.id
        );
    }

    let what_if = run_what_ifs(&cfg, &WhatIf::standard());
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
            "requests": blame.requests.len(),
            "batches": blame.batches.len(),
            "bitwise_failures": 0,
        },
        "blame": blame.report,
        "what_if": what_if,
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
pub fn profile_fixture_config() -> star_serve::ServeConfig {
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
/// ~17.6 krps batched capacity, so the default
/// [`star_serve::FlightConfig`] triggers (SLO burn, expiry burst, queue
/// depth) all fire early in the run.
pub fn incident_config() -> star_serve::ServeConfig {
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
pub fn incident_result() -> serde_json::Value {
    let cfg = incident_config();
    let outcome = star_serve::simulate_flight(&cfg, &star_serve::FlightConfig::default());
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
pub fn profile_work_result() -> serde_json::Value {
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
