//! Device-health observability: wear ledgers, drift/thermal monitors,
//! and fleet degradation reporting.
//!
//! The paper's headline numbers assume pristine RRAM, but `star-device`
//! already models the three ways a real crossbar decays — Weibull
//! cycling endurance ([`EnduranceModel`]), power-law conductance drift
//! ([`RetentionModel`]), and the Arrhenius on/off-window collapse with
//! temperature ([`TemperatureModel`]). This module makes those models
//! *observable* under serving load:
//!
//! - [`WearLedger`] — deterministic per-instance crossbar operation
//!   counts (CAM searches, CAM/SUB subtractions, exp-CAM searches, LUT
//!   reads, table writes) accrued from **every costed invocation**. The
//!   counts derive from the same vector-grained row accounting the
//!   service model's energy terms use, so the accounting identity
//!   `ledger ops == Σ batches (batch × rows/request × ops/row)` holds
//!   exactly (a unit test pins it).
//! - [`HealthModel`] — maps cumulative ledger state plus sustained power
//!   onto a temperature estimate (a one-pole thermal RC on top of
//!   [`TemperatureModel`]), the retention drift factor, the expected
//!   stuck-cell fraction (read-disturb write-equivalents through the
//!   Weibull endurance curve), and a derived **accuracy-margin gauge**:
//!   the fraction of the quantized-softmax error budget still unspent
//!   once drift and the thermal window collapse inflate the per-element
//!   bound the differential suite calibrated (one output ulp,
//!   [`star_fixed::QFormat::resolution`], at the pristine operating
//!   point).
//! - the monitor — the event-loop resident: accrues wear at
//!   dispatch, samples fleet health on a fixed deterministic grid
//!   (**zero RNG draws** — monitored and unmonitored runs produce
//!   bitwise-identical [`crate::ServeReport`]s), raises threshold
//!   [`HealthAlarm`]s (time-to-first-degradation, per-instance wear
//!   skew), and optionally drives a round-robin **wear-leveling**
//!   placement policy whose effect is visible as reduced ledger skew.
//! - [`WearRates`] / [`HealthProjection`] — steady-state rates extracted
//!   from a short simulated window, projected analytically over
//!   hours-to-years of wall time (the `a9_device_health` experiment).
//!
//! Everything here is closed-form and integer/f64 arithmetic over the
//! deterministic event stream: health output is a pure function of the
//! [`crate::ServeConfig`] and [`HealthConfig`], byte-stable across reruns
//! and worker counts.

use crate::model::BatchCost;
use crate::request::RequestClass;
use serde::{Deserialize, Serialize};
use star_device::{EnduranceModel, RetentionModel, TemperatureModel};
use star_fixed::QFormat;
use std::collections::BTreeSet;

/// Crossbar operations performed by one costed invocation.
///
/// Derived from the class geometry exactly as the service model derives
/// its energy terms: a batch of `B` requests streams
/// `B × num_heads × seq_len` score rows through the engine, and a row of
/// `n = seq_len` elements costs `n` value-CAM max searches, `n` CAM/SUB
/// subtractions, `n` exp-CAM searches, and `n` exponent-LUT (VMM) reads.
/// STAR's tables are programmed once at manufacture and only ever read,
/// so `table_writes` is zero here — wear accrues through read disturb
/// (see [`WearLedger::effective_writes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearCounts {
    /// Value-CAM max-search operations.
    pub cam_searches: u64,
    /// CAM/SUB subtraction operations.
    pub sub_ops: u64,
    /// Exponential-CAM search operations.
    pub exp_searches: u64,
    /// Exponent-LUT / VMM read operations.
    pub lut_reads: u64,
    /// Crossbar program (SET/RESET) cycles — zero for STAR's read-only
    /// tables.
    pub table_writes: u64,
}

/// The crossbar operations of one invocation of `batch` same-class
/// requests (see [`WearCounts`]).
pub fn invocation_wear(class: RequestClass, batch: usize) -> WearCounts {
    let cfg = class.config();
    let rows = (batch * cfg.num_heads * cfg.seq_len) as u64;
    let per_row = cfg.seq_len as u64;
    let ops = rows * per_row;
    WearCounts {
        cam_searches: ops,
        sub_ops: ops,
        exp_searches: ops,
        lut_reads: ops,
        table_writes: 0,
    }
}

/// Deterministic per-instance wear ledger: cumulative crossbar operation
/// counts plus the busy time and energy they cost. Pure integer/f64
/// accumulation — no RNG, no clock.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WearLedger {
    /// Costed invocations executed.
    pub invocations: u64,
    /// Requests served across those invocations.
    pub requests: u64,
    /// Score rows streamed through the engine.
    pub rows: u64,
    /// Value-CAM max-search operations.
    pub cam_searches: u64,
    /// CAM/SUB subtraction operations.
    pub sub_ops: u64,
    /// Exponential-CAM search operations.
    pub exp_searches: u64,
    /// Exponent-LUT / VMM read operations.
    pub lut_reads: u64,
    /// Crossbar program cycles (zero for STAR's one-time-programmed
    /// tables).
    pub table_writes: u64,
    /// Busy time across invocations, ns.
    pub busy_ns: f64,
    /// Energy across invocations (dynamic + background), pJ.
    pub energy_pj: f64,
}

impl WearLedger {
    /// Accrues one costed invocation of `batch` `class` requests.
    pub fn accrue(&mut self, class: RequestClass, batch: usize, cost: &BatchCost) {
        let w = invocation_wear(class, batch);
        let cfg = class.config();
        self.invocations += 1;
        self.requests += batch as u64;
        self.rows += (batch * cfg.num_heads * cfg.seq_len) as u64;
        self.cam_searches += w.cam_searches;
        self.sub_ops += w.sub_ops;
        self.exp_searches += w.exp_searches;
        self.lut_reads += w.lut_reads;
        self.table_writes += w.table_writes;
        self.busy_ns += cost.latency_ns;
        self.energy_pj += cost.energy_pj;
    }

    /// Total crossbar read-class operations (searches + subtractions +
    /// LUT reads) — the read-disturb exposure.
    pub fn reads(&self) -> u64 {
        self.cam_searches + self.sub_ops + self.exp_searches + self.lut_reads
    }

    /// Effective program-cycle count: real writes plus read-disturb
    /// write-equivalents, 10⁻¹⁰ per read.
    pub fn effective_writes(&self) -> f64 {
        self.table_writes as f64 + self.reads() as f64 * READ_DISTURB_PER_READ
    }
}

/// Ambient (and initial die) temperature, K.
const AMBIENT_KELVIN: f64 = 300.0;
/// Junction-to-ambient thermal resistance, K per mW of sustained power:
/// a heatsinked 1 K/W package (the STAR fleet instances sustain watts of
/// draw, so this keeps the die in the 300–320 K band across the serving
/// load range).
const THERMAL_RESISTANCE_K_PER_MW: f64 = 0.001;
/// Thermal RC time constant, ns (scaled so short simulated windows reach
/// thermal steady state).
const THERMAL_TAU_NS: f64 = 1e6;
/// Write-equivalent program-cycle disturb per crossbar read operation
/// (read-disturb wear of the one-time-programmed tables).
const READ_DISTURB_PER_READ: f64 = 1e-10;
/// Per-cell reliability target the operating point states for lifetime
/// statements; no alarm reads it.
const RELIABILITY_TARGET: f64 = 1e-4;
/// Health sampling grid, ns (samples land on the first event at or after
/// each grid point — fully deterministic).
const SAMPLE_INTERVAL_NS: f64 = 1e6;
/// Temperature alarm threshold, K (commercial 85 °C).
const MAX_TEMPERATURE_KELVIN: f64 = 358.15;
/// Accuracy-margin alarm threshold (fraction of the error budget left).
const MIN_ACCURACY_MARGIN: f64 = 0.1;
/// Expected stuck-cell-fraction alarm threshold.
const MAX_STUCK_FRACTION: f64 = 1e-4;
/// Retention drift-factor alarm threshold.
const MIN_DRIFT_FACTOR: f64 = 0.9;

/// The device-health monitor's one setting. Everything else about the
/// monitor is fixed: mature-HfO₂ device models
/// ([`EnduranceModel::typical`], [`RetentionModel::typical`],
/// [`TemperatureModel::typical`]), the thermal package, the 1 ms
/// sampling grid and the alarm thresholds are constants of this module.
///
/// Health monitoring is **observation-only by default**: with
/// `wear_leveling` off the monitor never changes a scheduling decision,
/// consumes no RNG, and the [`crate::ServeReport`] stays bitwise
/// identical to an unmonitored run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthConfig {
    /// Round-robin wear-leveling placement (off by default: observation
    /// only).
    pub wear_leveling: bool,
}

impl Serialize for HealthConfig {
    /// The whole operating point: the device models, the thermal
    /// package, the read disturb, the reliability target, the sampling
    /// grid and the alarm thresholds, then `wear_leveling`.
    fn to_content(&self) -> serde::Content {
        let number = |key: &str, value: f64| (key.to_string(), value.to_content());
        serde::Content::Map(vec![
            ("endurance".to_string(), EnduranceModel::typical().to_content()),
            ("retention".to_string(), RetentionModel::typical().to_content()),
            ("temperature".to_string(), TemperatureModel::typical().to_content()),
            number("ambient_kelvin", AMBIENT_KELVIN),
            number("thermal_resistance_k_per_mw", THERMAL_RESISTANCE_K_PER_MW),
            number("thermal_tau_ns", THERMAL_TAU_NS),
            number("read_disturb_per_read", READ_DISTURB_PER_READ),
            number("reliability_target", RELIABILITY_TARGET),
            number("sample_interval_ns", SAMPLE_INTERVAL_NS),
            number("max_temperature_kelvin", MAX_TEMPERATURE_KELVIN),
            number("min_accuracy_margin", MIN_ACCURACY_MARGIN),
            number("max_stuck_fraction", MAX_STUCK_FRACTION),
            number("min_drift_factor", MIN_DRIFT_FACTOR),
            ("wear_leveling".to_string(), self.wear_leveling.to_content()),
        ])
    }
}

/// The degradation dimension that tripped an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlarmKind {
    /// Die temperature crossed 358.15 K (85 °C).
    Temperature,
    /// Accuracy margin fell below 0.1 (a tenth of the error budget left).
    AccuracyMargin,
    /// Expected stuck-cell fraction crossed 10⁻⁴.
    StuckCells,
    /// Retention drift factor fell below 0.9.
    Drift,
}

impl AlarmKind {
    /// Stable lower-case label for tables and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            AlarmKind::Temperature => "temperature",
            AlarmKind::AccuracyMargin => "accuracy_margin",
            AlarmKind::StuckCells => "stuck_cells",
            AlarmKind::Drift => "drift",
        }
    }
}

/// One threshold crossing observed by the monitor (first crossing per
/// instance and kind; alarms do not repeat).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthAlarm {
    /// Sample time of the crossing, ns.
    pub t_ns: f64,
    /// Instance that crossed.
    pub instance: usize,
    /// Degradation dimension.
    pub kind: AlarmKind,
    /// Observed value at the crossing.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// One instance's health at a sample instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceHealthSample {
    /// Estimated die temperature, K.
    pub temperature_kelvin: f64,
    /// Retention drift factor (1.0 pristine, falls over time).
    pub drift_factor: f64,
    /// Expected stuck-cell fraction from effective program cycles.
    pub stuck_fraction: f64,
    /// Fraction of the quantized-softmax error budget still unspent.
    pub accuracy_margin: f64,
    /// Cumulative crossbar read-class operations.
    pub reads: u64,
}

/// Fleet health at one sample instant (one entry per instance, index
/// order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetHealthSample {
    /// Sample time, ns.
    pub t_ns: f64,
    /// Per-instance health, instance order.
    pub instances: Vec<InstanceHealthSample>,
}

/// The closed-form health mapping: ledger state + sustained power →
/// temperature, drift, stuck cells, accuracy margin.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthModel {
    /// Pristine per-element softmax error bound: one output ulp
    /// ([`QFormat::resolution`]), the bound the differential suite
    /// calibrates for the STAR engine.
    base_bound: f64,
    /// Acceptable per-element error: twice the pristine bound, so the
    /// pristine margin is 0.5 (half the budget is headroom).
    allowed_error: f64,
}

impl HealthModel {
    /// Builds the model for the fleet's softmax operating format.
    pub fn new(format: QFormat) -> Self {
        let base_bound = format.resolution();
        HealthModel { base_bound, allowed_error: 2.0 * base_bound }
    }

    /// Steady-state die temperature under `power_mw` sustained power, K.
    pub fn steady_temperature(&self, power_mw: f64) -> f64 {
        AMBIENT_KELVIN + THERMAL_RESISTANCE_K_PER_MW * power_mw
    }

    /// One-pole RC update: the temperature after holding `power_mw` for
    /// `dt_ns` starting from `kelvin`.
    pub(crate) fn advance_temperature(&self, kelvin: f64, power_mw: f64, dt_ns: f64) -> f64 {
        let t_ss = self.steady_temperature(power_mw);
        t_ss + (kelvin - t_ss) * (-dt_ns / THERMAL_TAU_NS).exp()
    }

    /// Retention drift factor after `t_ns` of simulated wall time.
    pub(crate) fn drift_factor(&self, t_ns: f64) -> f64 {
        RetentionModel::typical().drift_factor(t_ns.max(0.0) * 1e-9)
    }

    /// Expected stuck-cell fraction for a ledger (effective program
    /// cycles through the Weibull endurance curve).
    pub(crate) fn stuck_fraction(&self, ledger: &WearLedger) -> f64 {
        EnduranceModel::typical().failure_probability_at(ledger.effective_writes())
    }

    /// The accuracy-margin gauge: the fraction of the error budget still
    /// unspent once drift (`drift_factor`) and the thermal on/off-window
    /// collapse at `kelvin` inflate the pristine per-element bound.
    /// 0.5 when pristine, 0 when the inflated bound consumes the whole
    /// budget, negative past it (clamped at −1).
    pub(crate) fn accuracy_margin(&self, drift_factor: f64, kelvin: f64) -> f64 {
        let window = (drift_factor * TemperatureModel::typical().on_off_factor(kelvin).min(1.0))
            .clamp(f64::MIN_POSITIVE, 1.0);
        let bound = self.base_bound / window;
        ((self.allowed_error - bound) / self.allowed_error).max(-1.0)
    }

    /// One instance's health at `t_ns` given its ledger and temperature
    /// state.
    pub(crate) fn instance_sample(
        &self,
        t_ns: f64,
        kelvin: f64,
        ledger: &WearLedger,
    ) -> InstanceHealthSample {
        let drift_factor = self.drift_factor(t_ns);
        InstanceHealthSample {
            temperature_kelvin: kelvin,
            drift_factor,
            stuck_fraction: self.stuck_fraction(ledger),
            accuracy_margin: self.accuracy_margin(drift_factor, kelvin),
            reads: ledger.reads(),
        }
    }

    /// Threshold checks for one sample, in a fixed kind order.
    pub(crate) fn check(&self, s: &InstanceHealthSample) -> Vec<(AlarmKind, f64, f64)> {
        let mut out = Vec::new();
        if s.temperature_kelvin > MAX_TEMPERATURE_KELVIN {
            out.push((AlarmKind::Temperature, s.temperature_kelvin, MAX_TEMPERATURE_KELVIN));
        }
        if s.accuracy_margin < MIN_ACCURACY_MARGIN {
            out.push((AlarmKind::AccuracyMargin, s.accuracy_margin, MIN_ACCURACY_MARGIN));
        }
        if s.stuck_fraction > MAX_STUCK_FRACTION {
            out.push((AlarmKind::StuckCells, s.stuck_fraction, MAX_STUCK_FRACTION));
        }
        if s.drift_factor < MIN_DRIFT_FACTOR {
            out.push((AlarmKind::Drift, s.drift_factor, MIN_DRIFT_FACTOR));
        }
        out
    }

    /// Projects sustained-load health analytically over `seconds` of
    /// wall time at the steady-state rates in `rates` — the
    /// hours-to-years extrapolation a discrete-event run cannot reach.
    pub fn project(&self, rates: &WearRates, seconds: f64) -> HealthProjection {
        assert!(seconds >= 0.0 && seconds.is_finite(), "projection horizon must be finite");
        let kelvin = self.steady_temperature(rates.power_mw);
        let drift_factor = RetentionModel::typical().drift_factor(seconds);
        let effective_writes = rates.reads_per_s * seconds * READ_DISTURB_PER_READ;
        let stuck_fraction = EnduranceModel::typical().failure_probability_at(effective_writes);
        let accuracy_margin = self.accuracy_margin(drift_factor, kelvin);
        HealthProjection {
            seconds,
            temperature_kelvin: kelvin,
            drift_factor,
            effective_writes,
            stuck_fraction,
            accuracy_margin,
            inferences: rates.inferences_per_s * seconds,
        }
    }

    /// The first wall-clock instant (seconds) at which **any** alarm
    /// threshold is crossed under sustained `rates`, solved in closed
    /// form per dimension. Retention drift ages the tables under any
    /// load, so some alarm always crosses.
    pub fn time_to_first_degradation_s(&self, rates: &WearRates) -> f64 {
        let drift_or_margin = self.drift_crossing_s().min(self.margin_crossing_s(rates.power_mw));
        [self.temperature_crossing_s(rates.power_mw), self.stuck_crossing_s(rates.reads_per_s)]
            .into_iter()
            .flatten()
            .fold(drift_or_margin, f64::min)
    }

    /// RC crossing time of the temperature alarm (seconds), `None` if the
    /// steady state never reaches it.
    fn temperature_crossing_s(&self, power_mw: f64) -> Option<f64> {
        let t_ss = self.steady_temperature(power_mw);
        if t_ss <= MAX_TEMPERATURE_KELVIN {
            return None;
        }
        // ambient + (t_ss − ambient)(1 − e^{−t/τ}) = t_max
        let ratio = (t_ss - AMBIENT_KELVIN) / (t_ss - MAX_TEMPERATURE_KELVIN);
        Some(THERMAL_TAU_NS * 1e-9 * ratio.ln())
    }

    /// Closed-form crossing of the drift-factor alarm (seconds).
    fn drift_crossing_s(&self) -> f64 {
        RetentionModel::typical().seconds_to_margin(MIN_DRIFT_FACTOR)
    }

    /// Closed-form crossing of the accuracy-margin alarm (seconds): the
    /// drift factor at which the inflated bound eats past the margin
    /// threshold, at the steady-state temperature's window factor.
    fn margin_crossing_s(&self, power_mw: f64) -> f64 {
        let kelvin = self.steady_temperature(power_mw);
        let thermal_window = TemperatureModel::typical().on_off_factor(kelvin).min(1.0);
        // margin(d) = 1 − base/(allowed·d·w); margin < m ⇔ d < d_req.
        let d_req =
            self.base_bound / (self.allowed_error * thermal_window * (1.0 - MIN_ACCURACY_MARGIN));
        if d_req >= 1.0 {
            return 0.0; // the thermal collapse alone trips it
        }
        RetentionModel::typical().seconds_to_margin(d_req)
    }

    /// Closed-form crossing of the stuck-cell alarm (seconds) under a
    /// sustained read rate, `None` without reads.
    fn stuck_crossing_s(&self, reads_per_s: f64) -> Option<f64> {
        let write_rate = reads_per_s * READ_DISTURB_PER_READ;
        if write_rate <= 0.0 {
            return None;
        }
        let writes = EnduranceModel::typical().writes_at_failure_probability(MAX_STUCK_FRACTION);
        Some(writes / write_rate)
    }
}

/// Steady-state wear rates of one instance (or a fleet mean), extracted
/// from a short simulated window and fed to [`HealthModel::project`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearRates {
    /// Crossbar read-class operations per second.
    pub reads_per_s: f64,
    /// Requests served per second.
    pub inferences_per_s: f64,
    /// Sustained power (energy over makespan), mW.
    pub power_mw: f64,
}

impl WearRates {
    /// Rates from a ledger observed over `makespan_ns` of simulated
    /// time.
    ///
    /// # Panics
    ///
    /// Panics when `makespan_ns` is not positive.
    pub fn from_ledger(ledger: &WearLedger, makespan_ns: f64) -> Self {
        assert!(makespan_ns > 0.0, "makespan must be positive");
        let seconds = makespan_ns * 1e-9;
        WearRates {
            reads_per_s: ledger.reads() as f64 / seconds,
            inferences_per_s: ledger.requests as f64 / seconds,
            // pJ / ns ≡ mW.
            power_mw: ledger.energy_pj / makespan_ns,
        }
    }
}

/// One analytic long-horizon projection point (see
/// [`HealthModel::project`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthProjection {
    /// Projection horizon, seconds of wall time.
    pub seconds: f64,
    /// Steady-state die temperature, K.
    pub temperature_kelvin: f64,
    /// Retention drift factor at the horizon.
    pub drift_factor: f64,
    /// Effective program cycles accumulated by read disturb.
    pub effective_writes: f64,
    /// Expected stuck-cell fraction.
    pub stuck_fraction: f64,
    /// Accuracy-margin gauge at the horizon.
    pub accuracy_margin: f64,
    /// Inferences served by the horizon at the sustained rate.
    pub inferences: f64,
}

/// Per-instance summary in the end-of-run [`FleetHealthReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceHealthReport {
    /// Instance index.
    pub instance: usize,
    /// The cumulative wear ledger.
    pub ledger: WearLedger,
    /// Final health sample (end of run).
    pub health: InstanceHealthSample,
    /// Peak estimated die temperature over the run, K.
    pub peak_temperature_kelvin: f64,
}

/// End-of-run fleet health: per-instance ledgers and gauges, the alarm
/// log, and the wear-skew / time-to-first-degradation summary the SLO
/// reporting layer surfaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetHealthReport {
    /// Per-instance summaries, instance order.
    pub instances: Vec<InstanceHealthReport>,
    /// Every threshold crossing, in sample order (first crossing per
    /// instance and kind).
    pub alarms: Vec<HealthAlarm>,
    /// Simulated time of the first alarm, ns (`None`: no degradation
    /// observed inside the simulated window).
    pub time_to_first_degradation_ns: Option<f64>,
    /// Wear skew across the fleet: `(max − min) / mean` of per-instance
    /// row counts (0 = perfectly level, 0 for a fleet of one).
    pub wear_skew: f64,
    /// Whether the round-robin wear-leveling placement was active.
    pub wear_leveling: bool,
}

impl FleetHealthReport {
    /// Wear skew of a set of per-instance row counts:
    /// `(max − min) / mean`, 0 when the fleet is empty or unworn.
    pub fn skew_of(rows: &[u64]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let max = *rows.iter().max().expect("non-empty") as f64;
        let min = *rows.iter().min().expect("non-empty") as f64;
        let mean = rows.iter().sum::<u64>() as f64 / rows.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - min) / mean
        }
    }
}

/// The event-loop resident: accrues wear at dispatch, samples health on
/// a deterministic grid, raises alarms, and (optionally) picks
/// round-robin wear-leveled placements. Consumes **zero RNG draws**.
#[derive(Debug, Clone)]
pub(crate) struct HealthMonitor {
    model: HealthModel,
    wear_leveling: bool,
    ledgers: Vec<WearLedger>,
    temps: Vec<f64>,
    peak_temps: Vec<f64>,
    /// Energy already folded into the thermal state, per instance.
    settled_energy_pj: Vec<f64>,
    last_sample_ns: f64,
    next_sample_ns: f64,
    samples: Vec<FleetHealthSample>,
    alarms: Vec<HealthAlarm>,
    /// (instance, kind) pairs already alarmed — alarms fire once.
    raised: BTreeSet<(usize, AlarmKind)>,
    rr_cursor: usize,
}

impl HealthMonitor {
    /// A monitor for a `fleet`-instance run at the `format` softmax
    /// operating point.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is zero.
    pub fn new(cfg: HealthConfig, fleet: usize, format: QFormat) -> Self {
        assert!(fleet > 0, "monitor needs at least one instance");
        HealthMonitor {
            model: HealthModel::new(format),
            wear_leveling: cfg.wear_leveling,
            ledgers: vec![WearLedger::default(); fleet],
            temps: vec![AMBIENT_KELVIN; fleet],
            peak_temps: vec![AMBIENT_KELVIN; fleet],
            settled_energy_pj: vec![0.0; fleet],
            last_sample_ns: 0.0,
            next_sample_ns: SAMPLE_INTERVAL_NS,
            samples: Vec::new(),
            alarms: Vec::new(),
            raised: BTreeSet::new(),
            rr_cursor: 0,
        }
    }

    /// Whether round-robin wear-leveling placement is active.
    pub fn wear_leveling(&self) -> bool {
        self.wear_leveling
    }

    /// Alarms raised so far — the flight recorder's first-crossing
    /// trigger input (alarms fire once per (instance, kind), so this is
    /// monotone over the run).
    pub fn alarm_count(&self) -> usize {
        self.alarms.len()
    }

    /// Round-robin placement over the idle set: the first idle instance
    /// at or after the cursor, wrapping — deterministic, stateful, and
    /// independent of wear magnitudes (so placement never feeds back
    /// through float arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `idle` is empty.
    pub fn pick_instance(&mut self, idle: &BTreeSet<usize>) -> usize {
        assert!(!idle.is_empty(), "placement needs an idle instance");
        let pick = idle
            .range(self.rr_cursor..)
            .next()
            .or_else(|| idle.iter().next())
            .copied()
            .expect("idle set non-empty");
        self.rr_cursor = pick + 1;
        pick
    }

    /// Accrues one costed invocation on `instance`.
    pub fn on_dispatch(
        &mut self,
        instance: usize,
        class: RequestClass,
        batch: usize,
        cost: &BatchCost,
    ) {
        self.ledgers[instance].accrue(class, batch, cost);
    }

    /// Samples fleet health if `now` has reached the next grid point;
    /// advances the thermal RC state, appends the sample, and raises
    /// first-crossing alarms.
    pub fn maybe_sample(&mut self, now: f64) {
        if now < self.next_sample_ns {
            return;
        }
        self.sample(now);
        // Next grid point strictly after `now`.
        self.next_sample_ns = ((now / SAMPLE_INTERVAL_NS).floor() + 1.0) * SAMPLE_INTERVAL_NS;
    }

    /// Takes one sample at `now` unconditionally (also used for the
    /// end-of-run snapshot).
    fn sample(&mut self, now: f64) {
        let dt = now - self.last_sample_ns;
        let mut instances = Vec::with_capacity(self.ledgers.len());
        for i in 0..self.ledgers.len() {
            if dt > 0.0 {
                // Mean power over the window: energy newly accrued
                // (dispatch-lumped) divided by the window. pJ/ns ≡ mW.
                let delta = self.ledgers[i].energy_pj - self.settled_energy_pj[i];
                let power_mw = delta / dt;
                self.temps[i] = self.model.advance_temperature(self.temps[i], power_mw, dt);
                self.settled_energy_pj[i] = self.ledgers[i].energy_pj;
                self.peak_temps[i] = self.peak_temps[i].max(self.temps[i]);
            }
            let s = self.model.instance_sample(now, self.temps[i], &self.ledgers[i]);
            for (kind, value, threshold) in self.model.check(&s) {
                if self.raised.insert((i, kind)) {
                    self.alarms.push(HealthAlarm {
                        t_ns: now,
                        instance: i,
                        kind,
                        value,
                        threshold,
                    });
                }
            }
            instances.push(s);
        }
        self.last_sample_ns = now;
        self.samples.push(FleetHealthSample { t_ns: now, instances });
    }

    /// Closes the monitor at `makespan_ns`: takes the final sample,
    /// publishes per-instance telemetry gauges, and returns the fleet
    /// report plus the sample timeseries (for the trace counter tracks).
    pub fn finalize(mut self, makespan_ns: f64) -> (FleetHealthReport, Vec<FleetHealthSample>) {
        if self.samples.last().map(|s| s.t_ns) != Some(makespan_ns) {
            self.sample(makespan_ns);
        }
        let last = self.samples.last().expect("finalize always samples").clone();
        let mut instances = Vec::with_capacity(self.ledgers.len());
        for (i, (ledger, health)) in self.ledgers.iter().zip(&last.instances).enumerate() {
            star_telemetry::set(&format!("serve.health.i{i}.reads"), ledger.reads() as f64);
            star_telemetry::set(
                &format!("serve.health.i{i}.effective_writes"),
                ledger.effective_writes(),
            );
            star_telemetry::set(
                &format!("serve.health.i{i}.temperature_k"),
                health.temperature_kelvin,
            );
            star_telemetry::set(
                &format!("serve.health.i{i}.accuracy_margin"),
                health.accuracy_margin,
            );
            instances.push(InstanceHealthReport {
                instance: i,
                ledger: ledger.clone(),
                health: *health,
                peak_temperature_kelvin: self.peak_temps[i],
            });
        }
        let rows: Vec<u64> = self.ledgers.iter().map(|l| l.rows).collect();
        let wear_skew = FleetHealthReport::skew_of(&rows);
        star_telemetry::set("serve.health.wear_skew", wear_skew);
        star_telemetry::count("serve.health.alarms", self.alarms.len() as u64);
        let report = FleetHealthReport {
            instances,
            alarms: self.alarms.clone(),
            time_to_first_degradation_ns: self.alarms.first().map(|a| a.t_ns),
            wear_skew,
            wear_leveling: self.wear_leveling,
        };
        (report, self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServiceModel, ServiceModelConfig};
    use crate::request::ModelKind;

    fn tiny() -> RequestClass {
        RequestClass::new(ModelKind::Tiny, 16)
    }

    fn model() -> HealthModel {
        HealthModel::new(QFormat::new(5, 3).unwrap())
    }

    #[test]
    fn invocation_wear_matches_row_accounting() {
        let class = tiny();
        let cfg = class.config();
        for batch in [1usize, 2, 8] {
            let w = invocation_wear(class, batch);
            let rows = (batch * cfg.num_heads * cfg.seq_len) as u64;
            let ops = rows * cfg.seq_len as u64;
            assert_eq!(w.cam_searches, ops);
            assert_eq!(w.sub_ops, ops);
            assert_eq!(w.exp_searches, ops);
            assert_eq!(w.lut_reads, ops);
            assert_eq!(w.table_writes, 0, "STAR tables are one-time programmed");
        }
    }

    #[test]
    fn ledger_accrual_identity() {
        // Ledger ops == costed invocations × ops/invocation, exactly.
        let class = tiny();
        let m = ServiceModel::new(ServiceModelConfig::default(), &[class]);
        let mut ledger = WearLedger::default();
        let batches = [1usize, 4, 8, 2];
        for &b in &batches {
            ledger.accrue(class, b, &m.batch_cost(class, b));
        }
        let per_req_ops = (class.config().num_heads * class.seq_len * class.seq_len) as u64;
        let requests: u64 = batches.iter().map(|&b| b as u64).sum();
        assert_eq!(ledger.invocations, batches.len() as u64);
        assert_eq!(ledger.requests, requests);
        assert_eq!(ledger.cam_searches, requests * per_req_ops);
        assert_eq!(ledger.reads(), 4 * requests * per_req_ops);
        assert_eq!(ledger.table_writes, 0);
        assert!(ledger.energy_pj > 0.0 && ledger.busy_ns > 0.0);
    }

    #[test]
    fn thermal_rc_converges_to_steady_state() {
        let m = model();
        let power = 500.0; // mW
        let t_ss = m.steady_temperature(power);
        assert!(t_ss > 300.0);
        let mut t = 300.0;
        for _ in 0..100 {
            t = m.advance_temperature(t, power, THERMAL_TAU_NS);
        }
        assert!((t - t_ss).abs() < 1e-6, "RC settles to {t_ss}, got {t}");
        // Cooling works too: power off decays back toward ambient.
        let cooled = m.advance_temperature(t, 0.0, 100.0 * THERMAL_TAU_NS);
        assert!((cooled - 300.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_margin_pristine_is_half_and_degrades() {
        let m = model();
        let pristine = m.accuracy_margin(1.0, 300.0);
        assert!((pristine - 0.5).abs() < 1e-12, "{pristine}");
        // Hotter or more drifted ⇒ smaller margin.
        assert!(m.accuracy_margin(1.0, 358.15) < pristine);
        assert!(m.accuracy_margin(0.9, 300.0) < pristine);
        assert!(m.accuracy_margin(0.9, 358.15) < m.accuracy_margin(0.9, 300.0));
        // Cold never inflates the margin past pristine (window clamped).
        assert!(m.accuracy_margin(1.0, 233.15) <= pristine + 1e-12);
        // Fully collapsed window clamps at −1.
        assert_eq!(m.accuracy_margin(f64::MIN_POSITIVE, 300.0), -1.0);
    }

    #[test]
    fn projection_degrades_monotonically() {
        let m = model();
        let rates = WearRates { reads_per_s: 1e12, inferences_per_s: 1e4, power_mw: 400.0 };
        let hour = m.project(&rates, 3600.0);
        let year = m.project(&rates, 3.154e7);
        assert!(year.drift_factor < hour.drift_factor);
        assert!(year.stuck_fraction >= hour.stuck_fraction);
        assert!(year.accuracy_margin < hour.accuracy_margin);
        assert!(year.inferences > hour.inferences);
        assert_eq!(hour.temperature_kelvin, year.temperature_kelvin, "steady state");
    }

    #[test]
    fn time_to_first_degradation_orders_with_load() {
        let m = model();
        let light = WearRates { reads_per_s: 1e10, inferences_per_s: 1e3, power_mw: 100.0 };
        let heavy = WearRates { reads_per_s: 1e13, inferences_per_s: 1e5, power_mw: 2000.0 };
        // Drift alone eventually trips the margin/drift alarms, so both
        // loads degrade; the heavy load can only degrade sooner.
        let tl = m.time_to_first_degradation_s(&light);
        let th = m.time_to_first_degradation_s(&heavy);
        assert!(th <= tl, "heavy {th} vs light {tl}");
        assert!(tl > 0.0);
    }

    #[test]
    fn idle_fleet_never_trips_thermal_alarm() {
        let m = model();
        let idle = WearRates { reads_per_s: 0.0, inferences_per_s: 0.0, power_mw: 0.0 };
        // No reads ⇒ no stuck-cell crossing; ambient ⇒ no thermal
        // crossing. Only retention drift remains.
        let t = m.time_to_first_degradation_s(&idle);
        assert!((t - RetentionModel::typical().seconds_to_margin(0.9)).abs() < 1e-6 * t);
    }

    #[test]
    fn round_robin_cycles_the_idle_set() {
        let mut mon = HealthMonitor::new(HealthConfig::default(), 3, QFormat::new(5, 3).unwrap());
        let idle: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        let picks: Vec<usize> = (0..6).map(|_| mon.pick_instance(&idle)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
        // A hole in the idle set is skipped, wrapping correctly.
        let partial: BTreeSet<usize> = [0, 2].into_iter().collect();
        let picks: Vec<usize> = (0..4).map(|_| mon.pick_instance(&partial)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
    }

    #[test]
    fn monitor_samples_on_grid_and_finalizes() {
        let class = tiny();
        let m = ServiceModel::new(ServiceModelConfig::default(), &[class]);
        let mut mon = HealthMonitor::new(HealthConfig::default(), 2, QFormat::new(5, 3).unwrap());
        mon.on_dispatch(0, class, 2, &m.batch_cost(class, 2));
        mon.maybe_sample(5e5); // before the 1 ms grid: no sample
        mon.maybe_sample(1.5e6); // first grid point passed
        mon.maybe_sample(1.6e6); // same grid cell: no sample
        mon.on_dispatch(1, class, 1, &m.batch_cost(class, 1));
        mon.maybe_sample(2e6); // exactly on the next grid point
        let (report, samples) = mon.finalize(2.5e6);
        let times: Vec<f64> = samples.iter().map(|s| s.t_ns).collect();
        assert_eq!(times, [1.5e6, 2e6, 2.5e6]);
        assert_eq!(report.instances.len(), 2);
        assert_eq!(report.instances[0].ledger.invocations, 1);
        assert_eq!(report.instances[1].ledger.invocations, 1);
        // The busy instance heated above ambient, below steady state.
        assert!(report.instances[0].peak_temperature_kelvin > 300.0);
        assert!(!report.wear_leveling);
    }

    #[test]
    fn skew_definition() {
        assert_eq!(FleetHealthReport::skew_of(&[]), 0.0);
        assert_eq!(FleetHealthReport::skew_of(&[5, 5, 5]), 0.0);
        assert_eq!(FleetHealthReport::skew_of(&[0, 0]), 0.0);
        // (30 − 10) / 20 = 1.0
        assert_eq!(FleetHealthReport::skew_of(&[10, 30]), 1.0);
    }

    #[test]
    fn alarms_fire_once_per_instance_and_kind() {
        // 10⁵ pJ per ns of sample window is 10⁵ mW, a 400 K steady state:
        // the first 1 ms sample reads ≈ 363 K, past the 358.15 K alarm,
        // and every later one hotter still.
        let heat = BatchCost { latency_ns: 1e6, energy_pj: 1e11 };
        let mut mon = HealthMonitor::new(HealthConfig::default(), 2, QFormat::new(5, 3).unwrap());
        for t in [1e6, 2e6, 3e6] {
            for instance in 0..2 {
                mon.on_dispatch(instance, tiny(), 1, &heat);
            }
            mon.maybe_sample(t);
        }
        let (report, _) = mon.finalize(3e6);
        let temp_alarms: Vec<&HealthAlarm> =
            report.alarms.iter().filter(|a| a.kind == AlarmKind::Temperature).collect();
        assert_eq!(temp_alarms.len(), 2, "first crossing only, once per instance");
        for (instance, alarm) in temp_alarms.iter().enumerate() {
            assert_eq!((alarm.instance, alarm.t_ns), (instance, 1e6));
            assert!(alarm.value > 358.15, "{}", alarm.value);
            assert_eq!(alarm.threshold, 358.15);
            assert!(report.instances[instance].peak_temperature_kelvin > alarm.value);
        }
        assert_eq!(report.time_to_first_degradation_ns, Some(1e6));
    }
}
