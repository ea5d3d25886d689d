//! The incident flight recorder: always-on bounded capture of the
//! recent event window, dumped retroactively when an incident trigger
//! fires.
//!
//! Full span tracing keeps one record per request, so its memory grows
//! with the run; the long, heavy runs (fleet sweeps, long-context
//! scenarios) run untraced — and an SLO burn or deadline-expiry burst at
//! minute 40 leaves no record of the events that caused it. The flight
//! recorder closes that gap the way production serving stacks do: a ring
//! of 4 096 compact fixed-width per-event rows is always on, so its
//! memory stays bounded however long the run; a deterministic trigger
//! engine watches the same event stream, and only when a trigger fires
//! is the captured window frozen and dumped with a root-cause report.
//!
//! # Record format
//!
//! Both rings hold fixed-width rows that serialize as plain JSON number
//! arrays (every field is exactly representable in an f64), an order of
//! magnitude smaller than span trees:
//!
//! - [`EventRecord`] — one row per processed event: `[t_ns, seq, kind,
//!   class, instance, batch_size, queue_depth, batch_occupancy,
//!   dispatch_ns]`;
//! - [`TerminalRecord`] — one row per request terminal: `[id, class,
//!   outcome, arrive_ns, dispatch_ns, finish_ns, batch_size, instance]`.
//!
//! Classes are encoded as ranks into the dump's class legend; absent
//! fields (no instance, never dispatched) are `-1`. Each ring keeps the
//! exact conservation identity `records_seen == retained + evicted`.
//!
//! # Trigger semantics
//!
//! Four triggers are always armed:
//!
//! - [`TriggerKind::BurnRate`] — the trailing 10 ms error rate reaches
//!   the 1 % budget of a 99 % availability target (burn ≥ 1) once 64
//!   terminals are in the window;
//! - [`TriggerKind::ExpiryBurst`] — 32 deadline expiries inside 1 ms;
//! - [`TriggerKind::QueueDepth`] — 192 queued requests;
//! - [`TriggerKind::HealthAlarm`] — the health monitor's first alarm
//!   (never, when the run is not health-monitored).
//!
//! Triggers are evaluated once per event, in event order, **after** the
//! event's handler ran (so they see the settled post-event state and
//! every terminal the event produced). Each trigger latches: it fires on
//! the upward crossing of its condition and re-arms only after the
//! condition clears. When several triggers cross on the same `(time,
//! seq)` event they are recorded in the fixed priority order
//! [`TriggerKind::BurnRate`] < [`TriggerKind::ExpiryBurst`] <
//! [`TriggerKind::QueueDepth`] < [`TriggerKind::HealthAlarm`].
//!
//! The first firing freezes the ring contents as the pre-incident
//! window; recording continues until the first event more than 10 ms
//! later (or the drain), then the incident is sealed. A run dumps one
//! incident; later firings only count. At the drain the recorder
//! attributes root cause from the captured window — see
//! [`IncidentReport`].
//!
//! # Determinism
//!
//! The recorder consumes **zero RNG draws** and performs no event
//! arithmetic: it only observes. Reports, traces, and telemetry are
//! bitwise identical with the recorder on or off, and dumps are
//! byte-identical across replays and `STAR_EXEC_THREADS` (the
//! `observers` suite and CI pin both).

use crate::model::ServiceModel;
use crate::request::RequestClass;
use crate::sim::{EventKind, InFlight, Terminal};
use crate::slo::{BurnSweep, BurnWindow};
use crate::trace::RequestOutcome;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use star_telemetry::ChromeTrace;
use std::collections::VecDeque;

/// Top-level JSON key under which [`IncidentDump::to_object_json`]
/// embeds the machine-readable dump next to `traceEvents` (the incident
/// analogue of [`crate::trace::TRACE_SIDECAR_KEY`]).
pub const FLIGHT_SIDECAR_KEY: &str = "starServeIncident";

/// What [`crate::simulate_full`] takes to attach the flight recorder.
/// It has no fields: the rings, the post-trigger window, the incident
/// budget and the triggers are constants of this module. It stays
/// because the benchmark package (`benchmark/`) passes
/// `FlightConfig::default()`.
#[derive(Debug, Default)]
pub struct FlightConfig;

/// Rows each ring holds (the event ring and the terminal ring).
const RING_ROWS: usize = 4096;
/// How long past its first trigger an incident keeps recording, ns.
const POST_TRIGGER_NS: f64 = 1e7;
/// K-slowest completed requests each incident report keeps.
const EXEMPLARS: usize = 5;
/// Availability target of the burn-rate trigger; the budget is
/// `1 − target`.
const BURN_TARGET: f64 = 0.99;
/// Trailing window of the burn-rate trigger, ns.
const BURN_WINDOW_NS: f64 = 1e7;
/// Burn rate (error rate / budget) at which the burn-rate trigger fires.
const BURN_THRESHOLD: f64 = 1.0;
/// Terminals the burn window must hold before its rate counts
/// (suppresses one-request 100%-bad startup windows).
const BURN_MIN_EVENTS: usize = 64;
/// Trailing window of the expiry-burst trigger, ns.
const EXPIRY_WINDOW_NS: f64 = 1e6;
/// Expiries in that window at which the expiry-burst trigger fires.
const EXPIRY_BURST: usize = 32;
/// Post-event queued requests at which the queue-depth trigger fires:
/// three quarters of the 256-request admission bound the serve points
/// use.
const QUEUE_DEPTH: usize = 192;

/// Event kind tag of an [`EventRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEventKind {
    /// A request arrived (admitted or rejected).
    Arrive,
    /// A batch window timer expired.
    WindowExpire,
    /// An instance finished an invocation.
    InstanceFree,
    /// An autoscaler decision point.
    ScaleCheck,
}

impl FlightEventKind {
    /// Stable lower-case label for tables and trace args.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightEventKind::Arrive => "arrive",
            FlightEventKind::WindowExpire => "window_expire",
            FlightEventKind::InstanceFree => "instance_free",
            FlightEventKind::ScaleCheck => "scale_check",
        }
    }

    fn to_code(self) -> f64 {
        match self {
            FlightEventKind::Arrive => 0.0,
            FlightEventKind::WindowExpire => 1.0,
            FlightEventKind::InstanceFree => 2.0,
            FlightEventKind::ScaleCheck => 3.0,
        }
    }

    fn from_code(code: f64) -> Self {
        match code as i64 {
            0 => FlightEventKind::Arrive,
            1 => FlightEventKind::WindowExpire,
            2 => FlightEventKind::InstanceFree,
            _ => FlightEventKind::ScaleCheck,
        }
    }
}

fn outcome_code(outcome: RequestOutcome) -> f64 {
    match outcome {
        RequestOutcome::Good => 0.0,
        RequestOutcome::Late => 1.0,
        RequestOutcome::Expired => 2.0,
        RequestOutcome::Rejected => 3.0,
    }
}

fn outcome_from_code(code: f64) -> RequestOutcome {
    match code as i64 {
        0 => RequestOutcome::Good,
        1 => RequestOutcome::Late,
        2 => RequestOutcome::Expired,
        _ => RequestOutcome::Rejected,
    }
}

/// One compact fixed-width per-event row. Serializes as the number array
/// `[t_ns, seq, kind, class, instance, batch_size, queue_depth,
/// batch_occupancy, dispatch_ns]` (every field is exactly representable
/// in an f64; absent fields are −1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Event time, ns.
    pub t_ns: f64,
    /// Event sequence number (the deterministic tie-break).
    pub seq: u64,
    /// Event kind tag.
    pub kind: FlightEventKind,
    /// Class rank into the dump's class legend (−1: none).
    pub class: i16,
    /// Instance index (−1: none).
    pub instance: i32,
    /// Batch size of an `InstanceFree` event (0 otherwise).
    pub batch_size: u32,
    /// Post-event queued requests across all classes.
    pub queue_depth: u32,
    /// Post-event requests executing in batches (in-system − queued).
    pub batch_occupancy: u32,
    /// Dispatch time of an `InstanceFree` event's batch, ns (−1
    /// otherwise) — the per-instance busy-interval input.
    pub dispatch_ns: f64,
}

impl From<EventRecord> for [f64; 9] {
    fn from(r: EventRecord) -> Self {
        [
            r.t_ns,
            r.seq as f64,
            r.kind.to_code(),
            f64::from(r.class),
            f64::from(r.instance),
            f64::from(r.batch_size),
            f64::from(r.queue_depth),
            f64::from(r.batch_occupancy),
            r.dispatch_ns,
        ]
    }
}

impl From<[f64; 9]> for EventRecord {
    fn from(v: [f64; 9]) -> Self {
        EventRecord {
            t_ns: v[0],
            seq: v[1] as u64,
            kind: FlightEventKind::from_code(v[2]),
            class: v[3] as i16,
            instance: v[4] as i32,
            batch_size: v[5] as u32,
            queue_depth: v[6] as u32,
            batch_occupancy: v[7] as u32,
            dispatch_ns: v[8],
        }
    }
}

/// Reads a fixed-width numeric row out of a content tree (shared with
/// the blame module's compact per-request rows).
pub(crate) fn row_from_content<const N: usize>(
    content: &serde::Content,
    what: &str,
) -> Result<[f64; N], serde::DeError> {
    let v = Vec::<f64>::from_content(content)?;
    <[f64; N]>::try_from(v).map_err(|v| {
        serde::DeError::custom(format!("{what}: expected {N} fields, got {}", v.len()))
    })
}

impl Serialize for EventRecord {
    fn to_content(&self) -> serde::Content {
        <[f64; 9]>::from(*self).to_content()
    }
}

impl Deserialize for EventRecord {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        row_from_content::<9>(content, "event record").map(EventRecord::from)
    }
}

/// One compact fixed-width per-terminal row. Serializes as the number
/// array `[id, class, outcome, arrive_ns, dispatch_ns, finish_ns,
/// batch_size, instance]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminalRecord {
    /// Request id.
    pub id: u64,
    /// Class rank into the dump's class legend.
    pub class: i16,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// Arrival time, ns.
    pub arrive_ns: f64,
    /// Dispatch time, ns (−1: never dispatched).
    pub dispatch_ns: f64,
    /// Terminal-event time, ns.
    pub finish_ns: f64,
    /// Batch size it executed in (0 unless completed).
    pub batch_size: u32,
    /// Instance that executed it (−1: none).
    pub instance: i32,
}

impl TerminalRecord {
    /// Arrival → terminal latency, ns.
    pub fn latency_ns(&self) -> f64 {
        self.finish_ns - self.arrive_ns
    }

    /// Arrival → dispatch queueing delay, ns (0 if never dispatched).
    pub fn queue_ns(&self) -> f64 {
        if self.dispatch_ns < 0.0 {
            0.0
        } else {
            self.dispatch_ns - self.arrive_ns
        }
    }
}

impl From<TerminalRecord> for [f64; 8] {
    fn from(r: TerminalRecord) -> Self {
        [
            r.id as f64,
            f64::from(r.class),
            outcome_code(r.outcome),
            r.arrive_ns,
            r.dispatch_ns,
            r.finish_ns,
            f64::from(r.batch_size),
            f64::from(r.instance),
        ]
    }
}

impl From<[f64; 8]> for TerminalRecord {
    fn from(v: [f64; 8]) -> Self {
        TerminalRecord {
            id: v[0] as u64,
            class: v[1] as i16,
            outcome: outcome_from_code(v[2]),
            arrive_ns: v[3],
            dispatch_ns: v[4],
            finish_ns: v[5],
            batch_size: v[6] as u32,
            instance: v[7] as i32,
        }
    }
}

impl Serialize for TerminalRecord {
    fn to_content(&self) -> serde::Content {
        <[f64; 8]>::from(*self).to_content()
    }
}

impl Deserialize for TerminalRecord {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        row_from_content::<8>(content, "terminal record").map(TerminalRecord::from)
    }
}

/// A ring of [`RING_ROWS`] rows with exact conservation accounting:
/// `seen == retained (len) + evicted` at every instant.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: VecDeque<T>,
    seen: u64,
    evicted: u64,
}

impl<T> Ring<T> {
    fn new() -> Self {
        Ring { buf: VecDeque::with_capacity(RING_ROWS), seen: 0, evicted: 0 }
    }

    #[inline]
    fn push(&mut self, item: T) {
        self.seen += 1;
        if self.buf.len() == RING_ROWS {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(item);
    }
}

/// The trigger that fired (also its evaluation priority: when several
/// conditions cross on one event, triggers are recorded in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TriggerKind {
    /// Trailing-window SLO burn rate crossed the threshold.
    BurnRate,
    /// Deadline-expiry burst inside the trailing window.
    ExpiryBurst,
    /// Post-event queue depth crossed the threshold.
    QueueDepth,
    /// The health monitor raised its first alarm.
    HealthAlarm,
}

impl TriggerKind {
    /// Stable lower-case label for tables and trace args.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerKind::BurnRate => "burn_rate",
            TriggerKind::ExpiryBurst => "expiry_burst",
            TriggerKind::QueueDepth => "queue_depth",
            TriggerKind::HealthAlarm => "health_alarm",
        }
    }
}

/// One trigger firing: what crossed, when, and at what value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerRecord {
    /// Which trigger fired.
    pub kind: TriggerKind,
    /// Event time of the crossing, ns.
    pub t_ns: f64,
    /// Event sequence number of the crossing.
    pub seq: u64,
    /// Observed value at the crossing (burn rate, expiries in window,
    /// queue depth, or alarm count).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Burn-window summary at the crossing (burn-rate triggers only) —
    /// the same [`BurnWindow`] shape `SloAnalysis` reports.
    pub burn: Option<BurnWindow>,
}

/// Per-phase latency waterfall over the window's completed requests:
/// where the captured window's request time actually went. All fields
/// are summed milliseconds; `queueing + batch_window + the five service
/// phases == total` (a golden guard pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyWaterfall {
    /// Completed requests the waterfall sums over.
    pub completed: u64,
    /// Total arrival → finish latency, ms.
    pub total_ms: f64,
    /// Queueing beyond the batch window (head-of-line blocking /
    /// saturation wait), ms.
    pub queueing_ms: f64,
    /// Wait attributable to the batching policy's window (capped at the
    /// configured window per request), ms.
    pub batch_window_ms: f64,
    /// Per-batch invocation overhead, ms.
    pub overhead_ms: f64,
    /// Projection GEMMs, ms.
    pub projection_ms: f64,
    /// QKᵀ crossbar fill, ms.
    pub qk_fill_ms: f64,
    /// STAR softmax streaming, ms.
    pub softmax_stream_ms: f64,
    /// AV drain (residual to the exact invocation latency), ms.
    pub av_drain_ms: f64,
}

impl LatencyWaterfall {
    /// Sum of every component, ms (equals `total_ms` up to float dust).
    pub fn component_sum_ms(&self) -> f64 {
        self.queueing_ms
            + self.batch_window_ms
            + self.overhead_ms
            + self.projection_ms
            + self.qk_fill_ms
            + self.softmax_stream_ms
            + self.av_drain_ms
    }
}

/// Arrival-rate delta: the window's arrival rate against the trailing
/// pre-window baseline — "did load spike, or did capacity sag?".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ArrivalDelta {
    /// Arrivals inside the captured window.
    pub window_arrivals: u64,
    /// Arrival rate inside the window, rps.
    pub window_rps: f64,
    /// Arrival rate from run start to the window start, rps.
    pub baseline_rps: f64,
    /// `window_rps / baseline_rps` (0 when the baseline is empty).
    pub ratio: f64,
}

/// Per-class terminal breakdown inside the captured window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassIncidentStats {
    /// The request class.
    pub class: RequestClass,
    /// Arrive events inside the window.
    pub arrivals: u64,
    /// Completions within the deadline.
    pub good: u64,
    /// Completions past the deadline.
    pub late: u64,
    /// Dropped at dispatch after out-waiting the deadline.
    pub expired: u64,
    /// Refused at admission.
    pub rejected: u64,
}

/// Per-instance saturation inside the captured window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceIncidentStats {
    /// Instance index.
    pub instance: usize,
    /// Invocations that finished inside the window.
    pub batches: u64,
    /// Requests that completed on this instance inside the window.
    pub completions: u64,
    /// Busy time inside the window (invocation intervals clipped to the
    /// window bounds), ns.
    pub busy_ns: f64,
    /// `busy_ns` over the window length.
    pub busy_fraction: f64,
}

/// One K-slowest exemplar inside the captured window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentExemplar {
    /// Request id.
    pub id: u64,
    /// Request class.
    pub class: RequestClass,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// End-to-end latency, ms.
    pub latency_ms: f64,
    /// Arrival → dispatch queueing delay, ms.
    pub queue_ms: f64,
    /// Batch size it executed in.
    pub batch_size: u32,
    /// Instance that executed it (`None` if never dispatched).
    pub instance: Option<usize>,
}

/// Root-cause attribution computed from one incident's captured window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentReport {
    /// Where the window's completed-request time went.
    pub waterfall: LatencyWaterfall,
    /// Window arrival rate vs the trailing baseline.
    pub arrival: ArrivalDelta,
    /// Per-class terminal breakdown, class-legend order.
    pub per_class: Vec<ClassIncidentStats>,
    /// Per-instance saturation, instance order.
    pub per_instance: Vec<InstanceIncidentStats>,
    /// The K slowest completed requests in the window, slowest first.
    pub exemplars: Vec<IncidentExemplar>,
}

/// One sealed incident: the triggers that fired, the captured window,
/// and the root-cause report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentDump {
    /// Every trigger firing inside the incident, event order (priority
    /// order within one event).
    pub triggers: Vec<TriggerRecord>,
    /// Earliest captured record time, ns.
    pub window_start_ns: f64,
    /// Latest captured record time, ns.
    pub window_end_ns: f64,
    /// The post-trigger recording window, ns (10 ms).
    pub post_trigger_ns: f64,
    /// Class legend: rank → class (ranks in [`EventRecord::class`] and
    /// [`TerminalRecord::class`] index this).
    pub classes: Vec<RequestClass>,
    /// Captured event rows, event order.
    pub events: Vec<EventRecord>,
    /// Captured terminal rows, terminal order.
    pub terminals: Vec<TerminalRecord>,
    /// Event rows evicted from the pre-incident ring before the trigger
    /// (the window's conservation remainder).
    pub pre_events_evicted: u64,
    /// Terminal rows evicted from the pre-incident ring before the
    /// trigger.
    pub pre_terminals_evicted: u64,
    /// Root-cause attribution from the captured window.
    pub report: IncidentReport,
}

impl IncidentDump {
    /// The captured window length, ns.
    pub fn window_ns(&self) -> f64 {
        self.window_end_ns - self.window_start_ns
    }

    /// Lowers the dump onto Chrome trace-event lanes: pid 0 `"system"`
    /// carries queue-depth / batch-occupancy counter tracks and
    /// zero-duration trigger markers; pid 1 `"terminals"` carries one
    /// span per captured terminal.
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_process(0, "system");
        t.name_process(1, "terminals");
        for e in &self.events {
            t.counter_ns(
                "queue depth",
                e.t_ns,
                0,
                vec![("queued".to_string(), f64::from(e.queue_depth))],
            );
            t.counter_ns(
                "batch occupancy",
                e.t_ns,
                0,
                vec![("executing".to_string(), f64::from(e.batch_occupancy))],
            );
        }
        for tr in &self.triggers {
            t.complete_ns(
                format!("trigger: {}", tr.kind.as_str()),
                "trigger",
                tr.t_ns,
                0.0,
                0,
                0,
                json!({ "value": tr.value, "threshold": tr.threshold, "seq": tr.seq }),
            );
        }
        for r in &self.terminals {
            let class = self
                .classes
                .get(r.class.max(0) as usize)
                .map_or_else(|| "?".to_string(), ToString::to_string);
            t.complete_ns(
                format!("req{} {class}", r.id),
                r.outcome.as_str(),
                r.arrive_ns,
                r.latency_ns(),
                1,
                r.id,
                json!({
                    "outcome": r.outcome.as_str(),
                    "batch": r.batch_size,
                    "instance": if r.instance < 0 { None } else { Some(r.instance) },
                }),
            );
        }
        t
    }

    /// The dump as Chrome's object-form JSON: `traceEvents` for the
    /// Perfetto UI plus the machine-readable dump under
    /// [`FLIGHT_SIDECAR_KEY`].
    pub fn to_object_json(&self) -> Value {
        let sidecar = serde_json::to_value(self).expect("dump serializes");
        self.to_chrome().to_object_json(vec![(FLIGHT_SIDECAR_KEY.to_string(), sidecar)])
    }

    /// Recovers the dump from [`IncidentDump::to_object_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message when the sidecar key is missing or malformed.
    pub fn from_object_json(v: &Value) -> Result<Self, String> {
        let sidecar = v
            .get(FLIGHT_SIDECAR_KEY)
            .ok_or_else(|| format!("not an incident dump: missing `{FLIGHT_SIDECAR_KEY}` key"))?;
        serde_json::from_value(sidecar.clone())
            .map_err(|e| format!("malformed `{FLIGHT_SIDECAR_KEY}` sidecar: {e}"))
    }
}

/// Everything a flight-recorded simulation reports: the sealed incident
/// dumps plus run-level ring conservation counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightOutcome {
    /// The sealed incident, if a trigger fired (a run dumps at most
    /// one; later firings only count in `triggers_fired`).
    pub incidents: Vec<IncidentDump>,
    /// Class legend shared by every dump.
    pub classes: Vec<RequestClass>,
    /// Event rows offered to the ring.
    pub events_seen: u64,
    /// Event rows still in the ring at finalize.
    pub events_retained: u64,
    /// Event rows evicted by capacity.
    pub events_evicted: u64,
    /// Terminal rows offered to the ring.
    pub terminals_seen: u64,
    /// Terminal rows still in the ring at finalize.
    pub terminals_retained: u64,
    /// Terminal rows evicted by capacity.
    pub terminals_evicted: u64,
    /// Trigger firings across the run (including firings after the
    /// incident sealed, which only count).
    pub triggers_fired: u64,
}

impl FlightOutcome {
    /// The deterministic scalar counters as `(name, value)` pairs — the
    /// flight analogue of `WorkCounters::scalars`, pinned exactly by the
    /// `serve_work` golden under `flight_*` keys.
    pub fn scalars(&self) -> [(&'static str, u64); 6] {
        [
            ("flight_events_seen", self.events_seen),
            ("flight_events_evicted", self.events_evicted),
            ("flight_terminals_seen", self.terminals_seen),
            ("flight_terminals_evicted", self.terminals_evicted),
            ("flight_triggers_fired", self.triggers_fired),
            ("flight_incidents", self.incidents.len() as u64),
        ]
    }
}

/// An incident being recorded: the frozen pre-window plus everything
/// captured since the trigger.
#[derive(Debug, Clone)]
struct ActiveIncident {
    triggers: Vec<TriggerRecord>,
    trigger_t_ns: f64,
    events: Vec<EventRecord>,
    terminals: Vec<TerminalRecord>,
    pre_events_evicted: u64,
    pre_terminals_evicted: u64,
}

/// The always-on flight recorder the event loop carries. Observation
/// only: zero RNG draws, no event arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct FlightRecorder {
    classes: Vec<RequestClass>,
    fleet: usize,
    policy_window_ns: f64,
    events: Ring<EventRecord>,
    terminals: Ring<TerminalRecord>,
    /// The shared trailing-window sweep from [`crate::slo`], run online
    /// over the live terminal stream at the trigger's threshold/gate.
    burn: BurnSweep,
    /// Expiry times inside the expiry-burst trailing window.
    expiries: VecDeque<f64>,
    /// Per-trigger "condition currently true" latches (indexed by
    /// [`TriggerKind`] discriminant order).
    latched: [bool; 4],
    arrivals_seen: u64,
    active: Option<ActiveIncident>,
    /// The sealed incident as `(incident, window_end_ns,
    /// arrivals_at_seal)` — the arrival count is snapshotted at seal so
    /// the baseline rate covers only the pre-window run, not arrivals
    /// after the incident.
    sealed: Option<(ActiveIncident, f64, u64)>,
    triggers_fired: u64,
}

impl FlightRecorder {
    /// A recorder for a run over `classes` on a `fleet`-instance fleet
    /// batching under `policy_window_ns`.
    pub fn new(classes: Vec<RequestClass>, fleet: usize, policy_window_ns: f64) -> Self {
        FlightRecorder {
            classes,
            fleet,
            policy_window_ns,
            events: Ring::new(),
            terminals: Ring::new(),
            burn: BurnSweep::new(
                BURN_WINDOW_NS,
                1.0 - BURN_TARGET,
                BURN_THRESHOLD,
                BURN_MIN_EVENTS,
            ),
            expiries: VecDeque::new(),
            latched: [false; 4],
            arrivals_seen: 0,
            active: None,
            sealed: None,
            triggers_fired: 0,
        }
    }

    /// Rank of `class` in the legend (−1 when absent — cannot happen for
    /// classes the simulator feeds us, but total anyway).
    fn rank(&self, class: RequestClass) -> i16 {
        self.classes.iter().position(|&c| c == class).map_or(-1, |i| i as i16)
    }

    /// Seals the active incident once `now` passes its post-trigger
    /// window. Called before recording anything at `now`, so the sealed
    /// window never includes records past its end.
    fn maybe_seal(&mut self, now: f64) {
        if self.active.as_ref().is_some_and(|inc| now > inc.trigger_t_ns + POST_TRIGGER_NS) {
            self.seal();
        }
    }

    /// Seals the active incident, if any, its window ending at its last
    /// captured event.
    fn seal(&mut self) {
        if let Some(inc) = self.active.take() {
            let end = inc.events.last().map_or(inc.trigger_t_ns, |e| e.t_ns);
            self.sealed = Some((inc, end, self.arrivals_seen));
        }
    }

    /// Records one request terminal (called by the event loop's handler
    /// while it processes the terminal's event, i.e. before
    /// [`FlightRecorder::on_event`] for that event).
    pub fn on_terminal(&mut self, t: &Terminal) {
        self.maybe_seal(t.finish_ns);
        let (dispatch_ns, instance, batch_size) =
            t.ran.map_or((-1.0, -1, 0), |(dispatch, i, size)| (dispatch, i as i32, size as u32));
        let record = TerminalRecord {
            id: t.id,
            class: self.rank(t.class),
            outcome: t.outcome,
            arrive_ns: t.arrive_ns,
            dispatch_ns,
            finish_ns: t.finish_ns,
            batch_size,
            instance,
        };
        self.terminals.push(record);
        if let Some(inc) = self.active.as_mut() {
            inc.terminals.push(record);
        }
        self.burn.push(t.finish_ns, t.outcome.is_violation());
        if t.outcome == RequestOutcome::Expired {
            self.expiries.push_back(t.finish_ns);
        }
    }

    /// The row of the event `kind` at `(t_ns, seq)`, its post-event
    /// fields left zero for [`FlightRecorder::on_event`]. Built before the
    /// event's handler runs: an `InstanceFree` handler drains the
    /// instance's batch slot in `in_flight`.
    pub fn row(
        &self,
        t_ns: f64,
        seq: u64,
        kind: &EventKind,
        in_flight: &[InFlight],
    ) -> EventRecord {
        let (kind, class, instance) = match kind {
            EventKind::Arrive(req) => (FlightEventKind::Arrive, Some(req.class), None),
            EventKind::WindowExpire(class) => (FlightEventKind::WindowExpire, Some(*class), None),
            &EventKind::InstanceFree(i) => {
                (FlightEventKind::InstanceFree, Some(in_flight[i].class), Some(i))
            }
            EventKind::ScaleCheck => (FlightEventKind::ScaleCheck, None, None),
        };
        let slot = instance.map(|i| &in_flight[i]);
        EventRecord {
            t_ns,
            seq,
            kind,
            class: class.map_or(-1, |c| self.rank(c)),
            instance: instance.map_or(-1, |i| i as i32),
            batch_size: slot.map_or(0, |b| b.members.len() as u32),
            queue_depth: 0,
            batch_occupancy: 0,
            dispatch_ns: slot.map_or(-1.0, |b| b.dispatch_ns),
        }
    }

    /// Records one processed event's [`FlightRecorder::row`] and evaluates
    /// the trigger engine on the settled post-event state. `queue_depth`
    /// is the queued-request total, `batch_occupancy` the
    /// executing-request total, and `alarm_count` the health monitor's
    /// cumulative alarm count (0 when unmonitored).
    pub fn on_event(
        &mut self,
        mut record: EventRecord,
        queue_depth: usize,
        batch_occupancy: usize,
        alarm_count: usize,
    ) {
        let (t_ns, seq) = (record.t_ns, record.seq);
        self.maybe_seal(t_ns);
        if record.kind == FlightEventKind::Arrive {
            self.arrivals_seen += 1;
        }
        record.queue_depth = queue_depth as u32;
        record.batch_occupancy = batch_occupancy as u32;
        self.events.push(record);
        if let Some(inc) = self.active.as_mut() {
            inc.events.push(record);
        }

        // Evaluate every trigger on the settled state, in priority order,
        // as `(kind, condition, value, threshold)`. Each latches: it fires
        // on the upward crossing and re-arms when its condition clears.
        use TriggerKind::{BurnRate, ExpiryBurst, HealthAlarm, QueueDepth};
        let (burn_rate, in_window) = self.burn.evaluate(t_ns);
        let burning = in_window >= BURN_MIN_EVENTS && burn_rate >= BURN_THRESHOLD;
        while self.expiries.front().is_some_and(|&t| t <= t_ns - EXPIRY_WINDOW_NS) {
            self.expiries.pop_front();
        }
        let expiries = self.expiries.len();
        let checks = [
            (BurnRate, burning, burn_rate, BURN_THRESHOLD),
            (ExpiryBurst, expiries >= EXPIRY_BURST, expiries as f64, EXPIRY_BURST as f64),
            (QueueDepth, queue_depth >= QUEUE_DEPTH, queue_depth as f64, QUEUE_DEPTH as f64),
            (HealthAlarm, alarm_count > 0, alarm_count as f64, 1.0),
        ];
        for (latched, (kind, condition, value, threshold)) in self.latched.iter_mut().zip(checks) {
            let fires = condition && !*latched;
            *latched = condition;
            if !fires {
                continue;
            }
            let burn = (kind == BurnRate).then(|| self.burn.burn_window());
            let trigger = TriggerRecord { kind, t_ns, seq, value, threshold, burn };
            self.triggers_fired += 1;
            match self.active.as_mut() {
                Some(inc) => inc.triggers.push(trigger),
                None if self.sealed.is_none() => {
                    // Freeze the pre-incident window: the ring contents
                    // (which already include this event and its
                    // terminals) become the incident's capture base.
                    self.active = Some(ActiveIncident {
                        trigger_t_ns: t_ns,
                        triggers: vec![trigger],
                        events: self.events.buf.iter().copied().collect(),
                        terminals: self.terminals.buf.iter().copied().collect(),
                        pre_events_evicted: self.events.evicted,
                        pre_terminals_evicted: self.terminals.evicted,
                    });
                }
                // The incident is sealed: firings only count.
                None => {}
            }
        }
    }

    /// Closes the recorder at drain: seals any open incident, computes
    /// each incident's root-cause report (pure arithmetic on the
    /// captured rows — the service models quote invocation phases), and
    /// returns the outcome.
    pub fn finalize(mut self, services: &[ServiceModel], model_of: &[usize]) -> FlightOutcome {
        self.seal();
        let incidents = self
            .sealed
            .iter()
            .map(|(inc, end, arrivals)| self.build_dump(inc, *end, *arrivals, services, model_of))
            .collect();
        FlightOutcome {
            incidents,
            classes: self.classes.clone(),
            events_seen: self.events.seen,
            events_retained: self.events.buf.len() as u64,
            events_evicted: self.events.evicted,
            terminals_seen: self.terminals.seen,
            terminals_retained: self.terminals.buf.len() as u64,
            terminals_evicted: self.terminals.evicted,
            triggers_fired: self.triggers_fired,
        }
    }

    fn build_dump(
        &self,
        inc: &ActiveIncident,
        window_end_ns: f64,
        arrivals_at_seal: u64,
        services: &[ServiceModel],
        model_of: &[usize],
    ) -> IncidentDump {
        let window_start_ns = inc.events.first().map_or(inc.trigger_t_ns, |e| e.t_ns);
        let window_ns = (window_end_ns - window_start_ns).max(0.0);

        // Latency waterfall over the window's completed terminals.
        let mut waterfall = LatencyWaterfall::default();
        for r in inc.terminals.iter().filter(|r| r.outcome.is_completed()) {
            let queue_ns = r.queue_ns();
            let batch_window_ns = queue_ns.min(self.policy_window_ns);
            let instance = r.instance.max(0) as usize;
            let class = self.classes[r.class.max(0) as usize];
            let phases =
                services[model_of[instance]].invocation_phases(class, r.batch_size as usize);
            waterfall.completed += 1;
            waterfall.total_ms += r.latency_ns() / 1e6;
            waterfall.queueing_ms += (queue_ns - batch_window_ns) / 1e6;
            waterfall.batch_window_ms += batch_window_ns / 1e6;
            waterfall.overhead_ms += phases.overhead_ns / 1e6;
            waterfall.projection_ms += phases.projection_ns / 1e6;
            waterfall.qk_fill_ms += phases.qk_fill_ns / 1e6;
            waterfall.softmax_stream_ms += phases.softmax_stream_ns / 1e6;
            waterfall.av_drain_ms += phases.av_drain_ns / 1e6;
        }

        // Arrival-rate delta vs the trailing pre-window baseline. The
        // seal-time arrival snapshot counts arrivals up to the window
        // end, so subtracting the window's own arrivals leaves exactly
        // the pre-window run — arrivals after the incident never dilute
        // the baseline.
        let window_arrivals =
            inc.events.iter().filter(|e| e.kind == FlightEventKind::Arrive).count() as u64;
        let baseline_arrivals = arrivals_at_seal.saturating_sub(window_arrivals);
        let window_rps =
            if window_ns > 0.0 { window_arrivals as f64 / (window_ns * 1e-9) } else { 0.0 };
        let baseline_rps = if window_start_ns > 0.0 {
            baseline_arrivals as f64 / (window_start_ns * 1e-9)
        } else {
            0.0
        };
        let arrival = ArrivalDelta {
            window_arrivals,
            window_rps,
            baseline_rps,
            ratio: if baseline_rps > 0.0 { window_rps / baseline_rps } else { 0.0 },
        };

        // Per-class terminal breakdown, class-legend order.
        let mut per_class: Vec<ClassIncidentStats> = self
            .classes
            .iter()
            .map(|&class| ClassIncidentStats {
                class,
                arrivals: 0,
                good: 0,
                late: 0,
                expired: 0,
                rejected: 0,
            })
            .collect();
        for e in inc.events.iter().filter(|e| e.kind == FlightEventKind::Arrive) {
            if e.class >= 0 {
                per_class[e.class as usize].arrivals += 1;
            }
        }
        for r in &inc.terminals {
            if r.class < 0 {
                continue;
            }
            let c = &mut per_class[r.class as usize];
            match r.outcome {
                RequestOutcome::Good => c.good += 1,
                RequestOutcome::Late => c.late += 1,
                RequestOutcome::Expired => c.expired += 1,
                RequestOutcome::Rejected => c.rejected += 1,
            }
        }

        // Per-instance saturation from instance-free busy intervals
        // clipped to the window.
        let mut per_instance: Vec<InstanceIncidentStats> = (0..self.fleet)
            .map(|instance| InstanceIncidentStats {
                instance,
                batches: 0,
                completions: 0,
                busy_ns: 0.0,
                busy_fraction: 0.0,
            })
            .collect();
        for e in inc.events.iter().filter(|e| e.kind == FlightEventKind::InstanceFree) {
            if e.instance < 0 {
                continue;
            }
            let s = &mut per_instance[e.instance as usize];
            s.batches += 1;
            let start = e.dispatch_ns.max(window_start_ns);
            let end = e.t_ns.min(window_end_ns);
            s.busy_ns += (end - start).max(0.0);
        }
        for r in inc.terminals.iter().filter(|r| r.outcome.is_completed()) {
            if r.instance >= 0 {
                per_instance[r.instance as usize].completions += 1;
            }
        }
        for s in &mut per_instance {
            s.busy_fraction = if window_ns > 0.0 { s.busy_ns / window_ns } else { 0.0 };
        }

        // K slowest completed requests, slowest first, ties by id.
        let mut completed: Vec<&TerminalRecord> =
            inc.terminals.iter().filter(|r| r.outcome.is_completed()).collect();
        completed.sort_by(|a, b| b.latency_ns().total_cmp(&a.latency_ns()).then(a.id.cmp(&b.id)));
        let exemplars = completed
            .iter()
            .take(EXEMPLARS)
            .map(|r| IncidentExemplar {
                id: r.id,
                class: self.classes[r.class.max(0) as usize],
                outcome: r.outcome,
                latency_ms: r.latency_ns() / 1e6,
                queue_ms: r.queue_ns() / 1e6,
                batch_size: r.batch_size,
                instance: if r.instance < 0 { None } else { Some(r.instance as usize) },
            })
            .collect();

        IncidentDump {
            triggers: inc.triggers.clone(),
            window_start_ns,
            window_end_ns,
            post_trigger_ns: POST_TRIGGER_NS,
            classes: self.classes.clone(),
            events: inc.events.clone(),
            terminals: inc.terminals.clone(),
            pre_events_evicted: inc.pre_events_evicted,
            pre_terminals_evicted: inc.pre_terminals_evicted,
            report: IncidentReport { waterfall, arrival, per_class, per_instance, exemplars },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServiceModel, ServiceModelConfig};
    use crate::request::{ModelKind, Request};

    fn tiny_class() -> RequestClass {
        RequestClass::new(ModelKind::Tiny, 16)
    }

    fn recorder() -> FlightRecorder {
        FlightRecorder::new(vec![tiny_class()], 2, 50_000.0)
    }

    fn request(id: u64, arrive_ns: f64) -> Request {
        Request { id, class: tiny_class(), arrive_ns, client: None }
    }

    /// An arrival at `(t, seq)` that settles at `queued` requests, with
    /// `alarms` health alarms raised so far.
    fn arrive_event(r: &mut FlightRecorder, t: f64, seq: u64, queued: usize, alarms: usize) {
        let row = r.row(t, seq, &EventKind::Arrive(request(seq, t)), &[]);
        r.on_event(row, queued, 0, alarms);
    }

    /// A tiny-class terminal; `ran` is a completion's `(dispatch_ns,
    /// instance, batch_size)`.
    fn terminal(
        id: u64,
        outcome: RequestOutcome,
        arrive_ns: f64,
        finish_ns: f64,
        ran: Option<(f64, usize, usize)>,
    ) -> Terminal {
        Terminal { id, class: tiny_class(), outcome, arrive_ns, finish_ns, ran }
    }

    fn finalize(r: FlightRecorder) -> FlightOutcome {
        let model = ServiceModel::new(ServiceModelConfig::default(), &[tiny_class()]);
        r.finalize(&[model], &[0, 0])
    }

    #[test]
    fn ring_eviction_preserves_conservation() {
        // Ten rows more than a ring holds, none of which trips a trigger
        // (an empty queue, every request good).
        let mut r = recorder();
        let n = RING_ROWS as u64 + 10;
        for i in 0..n {
            let t = i as f64 * 10.0;
            arrive_event(&mut r, t, i, 0, 0);
            r.on_terminal(&terminal(i, RequestOutcome::Good, t, t, Some((t, 0, 1))));
        }
        let out = finalize(r);
        assert_eq!(out.events_seen, n);
        assert_eq!(out.events_retained, RING_ROWS as u64);
        assert_eq!(out.events_evicted, 10);
        assert_eq!(out.events_seen, out.events_retained + out.events_evicted);
        assert_eq!(out.terminals_seen, out.terminals_retained + out.terminals_evicted);
        assert_eq!(out.terminals_evicted, 10);
        assert!(out.incidents.is_empty(), "no trigger fired");
        assert_eq!(out.triggers_fired, 0);
    }

    #[test]
    fn two_triggers_on_one_event_record_in_priority_order() {
        // An expiry burst and the queue-depth threshold cross on the same
        // (time, seq) event; the incident must record ExpiryBurst before
        // QueueDepth with identical timestamps. The 32 terminals stay
        // below the burn trigger's 64-terminal gate.
        let mut r = recorder();
        arrive_event(&mut r, 100.0, 0, 1, 0);
        // The expiries land while processing event (200.0, 1), which
        // also settles at the threshold queue depth.
        for id in 10..10 + EXPIRY_BURST as u64 {
            r.on_terminal(&terminal(id, RequestOutcome::Expired, 50.0, 200.0, None));
        }
        arrive_event(&mut r, 200.0, 1, QUEUE_DEPTH, 0);
        let out = finalize(r);
        assert_eq!(out.triggers_fired, 2);
        assert_eq!(out.incidents.len(), 1);
        let triggers = &out.incidents[0].triggers;
        assert_eq!(triggers.len(), 2);
        assert_eq!(triggers[0].kind, TriggerKind::ExpiryBurst);
        assert_eq!(triggers[1].kind, TriggerKind::QueueDepth);
        assert_eq!((triggers[0].t_ns, triggers[0].seq), (200.0, 1));
        assert_eq!((triggers[1].t_ns, triggers[1].seq), (200.0, 1));
        assert_eq!((triggers[0].value, triggers[0].threshold), (32.0, 32.0));
        assert_eq!((triggers[1].value, triggers[1].threshold), (192.0, 192.0));
    }

    #[test]
    fn triggers_latch_and_rearm_on_condition_clear() {
        let mut r = recorder();
        arrive_event(&mut r, 10.0, 0, QUEUE_DEPTH, 0); // crossing: fires
        arrive_event(&mut r, 20.0, 1, QUEUE_DEPTH + 1, 0); // still high: latched, no fire
        arrive_event(&mut r, 30.0, 2, 1, 0); // clears: re-arms
        arrive_event(&mut r, 40.0, 3, QUEUE_DEPTH, 0); // crossing again: fires
        assert_eq!(r.triggers_fired, 2);
        let out = finalize(r);
        let at: Vec<f64> = out.incidents[0].triggers.iter().map(|t| t.t_ns).collect();
        assert_eq!(at, [10.0, 40.0], "both firings land in the open incident");
    }

    #[test]
    fn burn_trigger_embeds_a_burn_window() {
        // 32 good and 32 late terminals at 10 ns: an error rate of 0.5,
        // burn 50, which counts only once all 64 are in the window.
        let mut r = recorder();
        let outcome = |id: u64| if id < 32 { RequestOutcome::Good } else { RequestOutcome::Late };
        let last = BURN_MIN_EVENTS as u64 - 1;
        for id in 0..last {
            r.on_terminal(&terminal(id, outcome(id), 0.0, 10.0, Some((5.0, 0, 1))));
        }
        arrive_event(&mut r, 10.0, 0, 0, 0);
        assert_eq!(r.triggers_fired, 0, "63 terminals are below the gate");
        r.on_terminal(&terminal(last, outcome(last), 0.0, 10.0, Some((5.0, 0, 1))));
        arrive_event(&mut r, 10.0, 1, 0, 0);
        assert_eq!(r.triggers_fired, 1);
        let out = finalize(r);
        let trigger = &out.incidents[0].triggers[0];
        assert_eq!(trigger.kind, TriggerKind::BurnRate);
        let burn = trigger.burn.as_ref().expect("burn trigger embeds its window");
        assert_eq!(burn.window_ns, 1e7);
        assert!((burn.peak_error_rate - 0.5).abs() < 1e-12);
        assert!((burn.peak_burn_rate - 50.0).abs() < 1e-9);
        assert_eq!(burn.first_breach_ns, Some(10.0));
    }

    #[test]
    fn incident_seals_after_post_trigger_window() {
        let mut r = recorder();
        let end = 10.0 + POST_TRIGGER_NS;
        arrive_event(&mut r, 10.0, 0, QUEUE_DEPTH, 0); // trigger
        arrive_event(&mut r, end, 1, 1, 0); // the window's last instant
        arrive_event(&mut r, end + 10.0, 2, QUEUE_DEPTH, 0); // past it: seals first
        let out = finalize(r);
        assert_eq!(out.incidents.len(), 1);
        let inc = &out.incidents[0];
        assert_eq!(inc.events.len(), 2, "the sealing event stays outside the window");
        assert_eq!(inc.window_end_ns, end);
        assert_eq!(inc.post_trigger_ns, 1e7);
        // The sealing event crosses the threshold again, but the run's one
        // incident is sealed: the firing only counts.
        assert_eq!(out.triggers_fired, 2);
        assert_eq!(inc.triggers.len(), 1);
        assert_eq!(out.events_seen, 3);
    }

    #[test]
    fn health_alarm_trigger_fires_on_the_first_alarm() {
        let mut r = recorder();
        arrive_event(&mut r, 10.0, 0, 0, 0);
        assert_eq!(r.triggers_fired, 0, "no alarm yet");
        arrive_event(&mut r, 20.0, 1, 0, 1);
        assert_eq!(r.triggers_fired, 1);
        let inc = r.active.as_ref().expect("the first alarm opens an incident");
        let t = &inc.triggers[0];
        assert_eq!((t.kind, t.value, t.threshold), (TriggerKind::HealthAlarm, 1.0, 1.0));
        // The monitor's count never falls, so the trigger stays latched.
        arrive_event(&mut r, 30.0, 2, 0, 2);
        assert_eq!(r.triggers_fired, 1);
    }

    #[test]
    fn dump_round_trips_through_object_json() {
        let mut r = recorder();
        r.on_terminal(&terminal(7, RequestOutcome::Good, 0.0, 90.0, Some((40.0, 1, 2))));
        let idle = InFlight { class: tiny_class(), dispatch_ns: 0.0, members: Vec::new() };
        let busy =
            InFlight { dispatch_ns: 40.0, members: vec![request(7, 0.0); 2], ..idle.clone() };
        let row = r.row(90.0, 3, &EventKind::InstanceFree(1), &[idle, busy]);
        r.on_event(row, QUEUE_DEPTH, 0, 0);
        let out = finalize(r);
        assert_eq!(out.incidents.len(), 1);
        let dump = &out.incidents[0];
        let obj = dump.to_object_json();
        assert!(obj.get("traceEvents").is_some(), "Perfetto needs traceEvents");
        let back = IncidentDump::from_object_json(&obj).expect("round trip");
        assert_eq!(&back, dump);
        // The report attributed the completion.
        assert_eq!(dump.report.waterfall.completed, 1);
        assert_eq!(dump.report.per_instance[1].completions, 1);
        assert_eq!(dump.report.exemplars.len(), 1);
        assert_eq!(dump.report.exemplars[0].id, 7);
    }

    #[test]
    fn from_object_json_rejects_plain_chrome_traces() {
        let plain = ChromeTrace::new().to_object_json(vec![]);
        let err = IncidentDump::from_object_json(&plain).expect_err("no sidecar");
        assert!(err.contains(FLIGHT_SIDECAR_KEY), "{err}");
    }

    #[test]
    fn records_round_trip_through_their_compact_rows() {
        let e = EventRecord {
            t_ns: 123.5,
            seq: 42,
            kind: FlightEventKind::InstanceFree,
            class: 1,
            instance: 3,
            batch_size: 8,
            queue_depth: 17,
            batch_occupancy: 9,
            dispatch_ns: 100.25,
        };
        assert_eq!(EventRecord::from(<[f64; 9]>::from(e)), e);
        let json = serde_json::to_string(&e).expect("serializes");
        assert!(json.starts_with('['), "compact row encoding: {json}");
        assert_eq!(serde_json::from_str::<EventRecord>(&json).expect("parses"), e);
        let t = TerminalRecord {
            id: 9,
            class: 0,
            outcome: RequestOutcome::Expired,
            arrive_ns: 1.0,
            dispatch_ns: -1.0,
            finish_ns: 7.5,
            batch_size: 0,
            instance: -1,
        };
        assert_eq!(TerminalRecord::from(<[f64; 8]>::from(t)), t);
        let json = serde_json::to_string(&t).expect("serializes");
        assert!(json.starts_with('['), "compact row encoding: {json}");
        assert_eq!(serde_json::from_str::<TerminalRecord>(&json).expect("parses"), t);
    }
}
