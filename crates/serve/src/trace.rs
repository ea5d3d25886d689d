//! Request-lifecycle tracing: one fixed-size record per request and per
//! batch, span trees rendered from those records when they are read,
//! and a queue-depth / busy-instance timeseries sampler — everything the
//! SLO monitor and the Perfetto export consume.
//!
//! # Records
//!
//! The event loop pushes one [`BatchTrace`] per finished batch and one
//! 32-byte `RequestTrace` per terminal event. Each record keeps only
//! what no other record of the run determines. A batch keeps its
//! instance, class, size, dispatch time, the event loop's
//! `finish − dispatch` and its [`InvocationPhases`]. A request keeps its
//! id, arrival time, the event loop's `terminal − arrive`, its outcome,
//! its class as a rank into the trace's class legend (classes in order
//! of first terminal event) and, when it completed, the index of its
//! batch as a `u32`. Its batch size and instance are its batch's, read
//! when something asks: [`ServeTrace::requests`] joins each record with
//! its batch into a [`RequestView`], the full row.
//!
//! # Span model
//!
//! Span trees exist only while something reads them — the sidecar
//! writer, [`ServeTrace::to_chrome`], [`ServeTrace::validate`] and the
//! SLO exemplars — and [`ServeTrace::request_span`] and
//! [`BatchTrace::span`] are the only code that knows their shape.
//!
//! Every request renders to exactly one root [`Span`] (category
//! `"request"`, named `req{id} {class}`) covering arrival → terminal
//! event:
//!
//! - **good / late** completions get a `"queue"` child (arrival →
//!   dispatch) and an `"invoke"` child (dispatch → finish): their batch's
//!   `"invocation"` span, whose children are the five sequential hardware
//!   phases (`overhead`, `projection`, `qk_fill`, `softmax_stream`,
//!   `av_drain`);
//! - **expired** requests get a `"queue"` child spanning their whole
//!   (futile) wait;
//! - **rejected** requests get a zero-duration root at their rejection
//!   instant.
//!
//! Every batch renders to that `"invocation"` span, named
//! `{class} x{size}`, on its instance lane.
//!
//! Conservation therefore holds by construction: the number of root
//! spans equals the number of arrivals, and every admitted request's
//! tree closes at its terminal event.
//!
//! # Determinism
//!
//! Records are plain data appended by the totally ordered event loop —
//! never a live enter/exit API — and the renderer repeats the f64
//! operations that building each span in the event loop would (the
//! queue child's `dispatch − arrive`, the phases laid end to end from
//! dispatch), so the serialized trace is a pure function of the
//! [`crate::ServeConfig`]. Reading a sidecar back inverts the rendering:
//! [`ServeTrace::from_object_json`] rebuilds each record from its row
//! and spans, and rejects the file, naming the request or batch, when a
//! span does not re-render to the same bits or a row's batch size or
//! instance is not its batch's (0 and none for a request that never
//! ran). The CI byte-diff legs rerun `star_cli serve --trace` under
//! different `STAR_EXEC_THREADS` values and `diff` the files.
//!
//! # Perfetto layout
//!
//! [`ServeTrace::to_chrome`] lowers the trace onto three process lanes:
//! pid 0 `"system"` carries the queue-depth and busy-instance counter
//! tracks (plus per-instance device-health counter tracks — temperature,
//! accuracy margin, wear reads — when the run was health-monitored),
//! pid 1 `"requests"` carries one thread lane per request id,
//! and pids `100 + i` carry the per-instance batch invocation spans.
//! [`ServeTrace::to_object_json`] wraps those events in Chrome's object
//! form and embeds the machine-readable trace itself under
//! [`TRACE_SIDECAR_KEY`] — Perfetto ignores unknown top-level keys, so
//! one file serves both the UI and `star_cli trace-analyze`.

use crate::health::FleetHealthSample;
use crate::model::InvocationPhases;
use crate::request::RequestClass;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use star_telemetry::{ChromeTrace, Span};
use std::collections::HashMap;

/// Top-level JSON key under which [`ServeTrace::to_object_json`] embeds
/// the machine-readable trace next to `traceEvents`.
pub const TRACE_SIDECAR_KEY: &str = "starServe";

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Completed within the deadline.
    Good,
    /// Completed past the deadline.
    Late,
    /// Admitted but dropped at dispatch after out-waiting the deadline.
    Expired,
    /// Refused at admission (queue full).
    Rejected,
}

impl RequestOutcome {
    /// Stable lower-case label used in trace args and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Good => "good",
            RequestOutcome::Late => "late",
            RequestOutcome::Expired => "expired",
            RequestOutcome::Rejected => "rejected",
        }
    }

    /// True when the request executed (good or late).
    pub fn is_completed(self) -> bool {
        matches!(self, RequestOutcome::Good | RequestOutcome::Late)
    }

    /// True when the request burned SLO error budget (anything but
    /// [`RequestOutcome::Good`]).
    pub fn is_violation(self) -> bool {
        self != RequestOutcome::Good
    }
}

/// `RequestTrace::batch` of a request that ran in no batch.
const NO_BATCH: u32 = u32::MAX;

/// One request's closed lifecycle as the trace stores it: the fields no
/// other record of the run determines (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RequestTrace {
    id: u64,
    arrive_ns: f64,
    latency_ns: f64,
    /// Index into [`ServeTrace::batches`] of the batch it ran in, or
    /// [`NO_BATCH`].
    batch: u32,
    /// Rank into [`ServeTrace`]'s class legend.
    class: u16,
    outcome: RequestOutcome,
}

/// One request's full row, joined from its record and its batch's when
/// read ([`ServeTrace::requests`]). Its span tree is rendered from it by
/// [`ServeTrace::request_span`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestView {
    /// Request id (arrival order).
    pub id: u64,
    /// Batching class.
    pub class: RequestClass,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// Size of the batch it executed in (0 unless completed).
    pub batch_size: usize,
    /// Instance that executed it (`None` unless completed).
    pub instance: Option<usize>,
    /// Arrival time, ns; a rejected request's is its rejection event's
    /// time.
    pub arrive_ns: f64,
    /// The event loop's `terminal − arrive`, ns (0 for a rejected
    /// request).
    pub latency_ns: f64,
    /// Index into [`ServeTrace::batches`] of the batch it executed in
    /// (`None` unless completed).
    pub batch: Option<usize>,
}

impl RequestView {
    /// Arrival → terminal-event duration, ns.
    pub fn latency_ns(&self) -> f64 {
        self.latency_ns
    }

    /// Terminal-event time, ns: the end of the request's root span.
    pub fn finish_ns(&self) -> f64 {
        self.arrive_ns + self.latency_ns
    }
}

/// One batched invocation on its instance lane, as a fixed-size record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTrace {
    /// Instance that ran the batch.
    pub instance: usize,
    /// Class of every member.
    pub class: RequestClass,
    /// Number of member requests.
    pub size: usize,
    /// Dispatch time, ns.
    pub dispatch_ns: f64,
    /// The event loop's `finish − dispatch`, ns.
    pub dur_ns: f64,
    /// The five hardware phases the invocation splits into.
    pub phases: InvocationPhases,
}

impl BatchTrace {
    /// The batch's span (category `"invocation"`, named
    /// `{class} x{size}`) with its five phase children.
    pub fn span(&self) -> Span {
        self.invocation(format!("{} x{}", self.class, self.size))
    }

    /// The `"invocation"` span under `name` — the batch's own span, or
    /// a member request's `"invoke"` child — covering dispatch →
    /// finish, whose children are the five sequential hardware phases
    /// placed back to back from dispatch.
    ///
    /// `dur_ns` is the event loop's measured interval; the phase
    /// durations sum to the service model's latency, which equals it up
    /// to one ulp — inside [`star_telemetry::SPAN_EPS_NS`], so
    /// [`Span::validate`] accepts the tree.
    fn invocation(&self, name: impl Into<String>) -> Span {
        let mut root = Span::leaf(name, "invocation", self.dispatch_ns, self.dur_ns);
        let mut t = self.dispatch_ns;
        for (cat, dur) in self.phases.as_categories() {
            root.push_child(Span::leaf(cat, cat, t, dur));
            t += dur;
        }
        root
    }
}

/// One sample of system state, taken after every event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSample {
    /// Sample time, ns.
    pub t_ns: f64,
    /// Requests queued across all classes.
    pub queued: u64,
    /// Instances executing a batch.
    pub busy: u64,
}

/// Everything one traced simulation emits.
///
/// It serializes in the span-tree form described in the module docs,
/// rendering each span as it is written, and deserializes only a file
/// whose every span re-renders from its record to the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTrace {
    /// Fleet size (number of instance lanes).
    pub fleet: usize,
    /// The run's latency SLO, ns.
    pub deadline_ns: f64,
    /// Time of the last event, ns.
    pub makespan_ns: f64,
    /// The classes the request records rank into, in order of first
    /// terminal event.
    classes: Vec<RequestClass>,
    /// One record per arrival, in terminal-event order.
    requests: Vec<RequestTrace>,
    /// One entry per dispatched batch, in completion order.
    pub batches: Vec<BatchTrace>,
    /// Queue-depth / busy-instance timeseries (one sample per distinct
    /// event time, post-event state).
    pub samples: Vec<SystemSample>,
    /// Device-health timeseries (empty unless the run was health-
    /// monitored; see [`crate::health`]). Sampled on the monitor's
    /// deterministic grid, rendered as per-instance temperature /
    /// accuracy-margin / wear counter tracks in the Perfetto export.
    pub health: Vec<FleetHealthSample>,
}

impl ServeTrace {
    /// A new, empty trace for a `fleet`-instance run under `deadline_ns`.
    pub fn new(fleet: usize, deadline_ns: f64) -> Self {
        ServeTrace {
            fleet,
            deadline_ns,
            makespan_ns: 0.0,
            classes: Vec::new(),
            requests: Vec::new(),
            batches: Vec::new(),
            samples: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Appends one request's record: a completed request names the index
    /// of its batch in [`ServeTrace::batches`], any other `None`.
    ///
    /// # Panics
    ///
    /// Panics past 65 536 classes or 2³² − 1 batches; a run within
    /// [`crate::sim::MAX_ARRIVALS`] stays far below both.
    pub(crate) fn push_request(
        &mut self,
        id: u64,
        class: RequestClass,
        outcome: RequestOutcome,
        arrive_ns: f64,
        latency_ns: f64,
        batch: Option<usize>,
    ) {
        let rank = match self.classes.iter().position(|&c| c == class) {
            Some(rank) => rank,
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        };
        let batch = batch.map_or(NO_BATCH, |b| {
            u32::try_from(b).ok().filter(|&b| b != NO_BATCH).expect("batch index fits in u32")
        });
        self.requests.push(RequestTrace {
            id,
            arrive_ns,
            latency_ns,
            batch,
            class: u16::try_from(rank).expect("class rank fits in u16"),
            outcome,
        });
    }

    /// Every request's full row, in terminal-event order.
    ///
    /// # Panics
    ///
    /// Panics when reading a completed request whose batch is no longer
    /// in [`ServeTrace::batches`].
    pub fn requests(&self) -> impl ExactSizeIterator<Item = RequestView> + '_ {
        self.requests.iter().map(|r| self.view(r))
    }

    /// `r` joined with its batch's record.
    fn view(&self, r: &RequestTrace) -> RequestView {
        let batch = (r.batch != NO_BATCH).then_some(r.batch as usize);
        let ran = batch.map(|b| &self.batches[b]);
        RequestView {
            id: r.id,
            class: self.classes[usize::from(r.class)],
            outcome: r.outcome,
            batch_size: ran.map_or(0, |b| b.size),
            instance: ran.map(|b| b.instance),
            arrive_ns: r.arrive_ns,
            latency_ns: r.latency_ns,
            batch,
        }
    }

    /// Renders `r`'s span tree (category `"request"`, named
    /// `req{id} {class}`), arrival → terminal event, with the children
    /// the module docs list for its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `r` completed but does not index one of
    /// [`ServeTrace::batches`].
    pub fn request_span(&self, r: &RequestView) -> Span {
        let root =
            Span::leaf(format!("req{} {}", r.id, r.class), "request", r.arrive_ns, r.latency_ns);
        match r.outcome {
            RequestOutcome::Rejected => root,
            // The whole (futile) lifetime was spent queued.
            RequestOutcome::Expired => {
                root.with_child(Span::leaf("queue", "queue", r.arrive_ns, r.latency_ns))
            }
            RequestOutcome::Good | RequestOutcome::Late => {
                let b = &self.batches[r.batch.expect("a completed request records its batch")];
                root.with_child(Span::leaf(
                    "queue",
                    "queue",
                    r.arrive_ns,
                    b.dispatch_ns - r.arrive_ns,
                ))
                .with_child(b.invocation("invoke"))
            }
        }
    }

    /// Validates every span tree in the trace (see [`Span::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first invariant violation found.
    pub fn validate(&self) -> Result<(), String> {
        for r in self.requests() {
            self.request_span(&r).validate().map_err(|e| format!("request {}: {e}", r.id))?;
        }
        for (i, b) in self.batches.iter().enumerate() {
            b.span().validate().map_err(|e| format!("batch {i}: {e}"))?;
        }
        Ok(())
    }

    /// Lowers the trace onto Chrome trace-event lanes (see the module
    /// docs for the pid/tid layout).
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_process(0, "system");
        t.name_process(1, "requests");
        for i in 0..self.fleet {
            t.name_process(100 + i as u64, format!("instance {i}"));
        }
        for r in self.requests() {
            self.request_span(&r).emit_chrome(
                &mut t,
                1,
                r.id,
                json!({
                    "outcome": r.outcome.as_str(),
                    "batch": r.batch_size,
                    "instance": r.instance.map(|i| i as u64),
                }),
            );
        }
        for b in &self.batches {
            b.span().emit_chrome(
                &mut t,
                100 + b.instance as u64,
                0,
                json!({ "class": b.class.to_string(), "batch": b.size }),
            );
        }
        for s in &self.samples {
            t.counter_ns("queue depth", s.t_ns, 0, vec![("queued".to_string(), s.queued as f64)]);
            t.counter_ns("busy instances", s.t_ns, 0, vec![("busy".to_string(), s.busy as f64)]);
        }
        for h in &self.health {
            let series = |f: fn(&crate::health::InstanceHealthSample) -> f64| {
                h.instances
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("i{i}"), f(s)))
                    .collect::<Vec<_>>()
            };
            t.counter_ns("health: temperature K", h.t_ns, 0, series(|s| s.temperature_kelvin));
            t.counter_ns("health: accuracy margin", h.t_ns, 0, series(|s| s.accuracy_margin));
            t.counter_ns("health: wear reads", h.t_ns, 0, series(|s| s.reads as f64));
        }
        t
    }

    /// The trace as Chrome's object-form JSON: `traceEvents` for the
    /// Perfetto UI plus the machine-readable trace under
    /// [`TRACE_SIDECAR_KEY`] so analyses round-trip through the same
    /// file.
    pub fn to_object_json(&self) -> Value {
        let sidecar = serde_json::to_value(self).expect("trace serializes");
        self.to_chrome().to_object_json(vec![(TRACE_SIDECAR_KEY.to_string(), sidecar)])
    }

    /// Recovers the trace from [`ServeTrace::to_object_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message when the sidecar key is missing or malformed,
    /// when a request's or batch's span is not the one its record
    /// renders, or when a request's batch size or instance is not its
    /// batch's (the message names the request or batch).
    pub fn from_object_json(v: &Value) -> Result<Self, String> {
        let sidecar = v
            .get(TRACE_SIDECAR_KEY)
            .ok_or_else(|| format!("not a serve trace: missing `{TRACE_SIDECAR_KEY}` key"))?;
        ServeTrace::from_content(sidecar)
            .map_err(|e| format!("malformed `{TRACE_SIDECAR_KEY}` sidecar: {e}"))
    }
}

/// A request as the sidecar stores it: its full row and its rendered
/// span tree.
#[derive(Serialize, Deserialize)]
struct WireRequest {
    id: u64,
    class: RequestClass,
    outcome: RequestOutcome,
    batch_size: usize,
    instance: Option<usize>,
    span: Span,
}

/// A [`BatchTrace`] as the sidecar stores it.
#[derive(Serialize, Deserialize)]
struct WireBatch {
    instance: usize,
    class: RequestClass,
    size: usize,
    span: Span,
}

/// The sidecar as it is read, before its spans become records.
#[derive(Deserialize)]
struct WireTrace {
    fleet: usize,
    deadline_ns: f64,
    makespan_ns: f64,
    requests: Vec<WireRequest>,
    batches: Vec<WireBatch>,
    samples: Vec<SystemSample>,
    health: Vec<FleetHealthSample>,
}

impl Serialize for ServeTrace {
    fn to_content(&self) -> Value {
        let requests = self.requests().map(|r| {
            WireRequest {
                id: r.id,
                class: r.class,
                outcome: r.outcome,
                batch_size: r.batch_size,
                instance: r.instance,
                span: self.request_span(&r),
            }
            .to_content()
        });
        let batches = self.batches.iter().map(|b| {
            WireBatch { instance: b.instance, class: b.class, size: b.size, span: b.span() }
                .to_content()
        });
        Value::Map(vec![
            ("fleet".into(), self.fleet.to_content()),
            ("deadline_ns".into(), self.deadline_ns.to_content()),
            ("makespan_ns".into(), self.makespan_ns.to_content()),
            ("requests".into(), Value::Seq(requests.collect())),
            ("batches".into(), Value::Seq(batches.collect())),
            ("samples".into(), self.samples.to_content()),
            ("health".into(), self.health.to_content()),
        ])
    }
}

impl Deserialize for ServeTrace {
    fn from_content(content: &Value) -> Result<Self, serde::DeError> {
        let wire = WireTrace::from_content(content)?;
        ServeTrace::from_wire(wire).map_err(serde::DeError::custom)
    }
}

impl ServeTrace {
    /// Turns each wire span back into its record and keeps it only if
    /// the record renders that span to the same bits and its row's batch
    /// size and instance are the ones its batch gives. A completed
    /// request finds its batch by instance and dispatch time.
    fn from_wire(wire: WireTrace) -> Result<Self, String> {
        let mut trace = ServeTrace {
            fleet: wire.fleet,
            deadline_ns: wire.deadline_ns,
            makespan_ns: wire.makespan_ns,
            classes: Vec::new(),
            requests: Vec::with_capacity(wire.requests.len()),
            batches: Vec::with_capacity(wire.batches.len()),
            samples: wire.samples,
            health: wire.health,
        };
        let mut by_dispatch = HashMap::with_capacity(wire.batches.len());
        for (i, b) in wire.batches.into_iter().enumerate() {
            let phases = match b.span.children.as_slice() {
                [overhead, projection, qk_fill, softmax_stream, av_drain] => InvocationPhases {
                    overhead_ns: overhead.dur_ns,
                    projection_ns: projection.dur_ns,
                    qk_fill_ns: qk_fill.dur_ns,
                    softmax_stream_ns: softmax_stream.dur_ns,
                    av_drain_ns: av_drain.dur_ns,
                },
                other => return Err(format!("batch {i}: {} phase spans, not 5", other.len())),
            };
            let record = BatchTrace {
                instance: b.instance,
                class: b.class,
                size: b.size,
                dispatch_ns: b.span.start_ns,
                dur_ns: b.span.dur_ns,
                phases,
            };
            if !same_bits(&record.span(), &b.span) {
                return Err(format!("batch {i}: its span is not the one its record renders"));
            }
            by_dispatch.insert((record.instance, record.dispatch_ns.to_bits()), i);
            trace.batches.push(record);
        }
        for r in wire.requests {
            let batch = if r.outcome.is_completed() {
                let dispatch_ns = r.span.children.get(1).map(|invoke| invoke.start_ns);
                let found = r
                    .instance
                    .zip(dispatch_ns)
                    .and_then(|(inst, t)| by_dispatch.get(&(inst, t.to_bits())).copied())
                    .filter(|&i| {
                        (trace.batches[i].class, trace.batches[i].size) == (r.class, r.batch_size)
                    });
                Some(found.ok_or_else(|| {
                    format!(
                        "request {}: no {} x{} batch on its instance starts where its \
                         invoke span does",
                        r.id, r.class, r.batch_size
                    )
                })?)
            } else if r.batch_size != 0 || r.instance.is_some() {
                return Err(format!(
                    "request {}: {}, so it ran in no batch, yet its row gives batch size \
                     {} and instance {:?}",
                    r.id,
                    r.outcome.as_str(),
                    r.batch_size,
                    r.instance
                ));
            } else {
                None
            };
            trace.push_request(r.id, r.class, r.outcome, r.span.start_ns, r.span.dur_ns, batch);
            let view = trace.view(trace.requests.last().expect("just pushed"));
            if !same_bits(&trace.request_span(&view), &r.span) {
                return Err(format!(
                    "request {}: its span is not the one its record renders",
                    r.id
                ));
            }
        }
        Ok(trace)
    }
}

/// Whether two span trees are equal down to the bits of every time.
fn same_bits(a: &Span, b: &Span) -> bool {
    a.name == b.name
        && a.cat == b.cat
        && a.start_ns.to_bits() == b.start_ns.to_bits()
        && a.dur_ns.to_bits() == b.dur_ns.to_bits()
        && a.children.len() == b.children.len()
        && a.children.iter().zip(&b.children).all(|(x, y)| same_bits(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServiceModel, ServiceModelConfig};
    use crate::request::ModelKind;

    fn tiny_phases(batch: usize) -> InvocationPhases {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let m = ServiceModel::new(ServiceModelConfig::default(), &[class]);
        m.invocation_phases(class, batch)
    }

    #[test]
    fn invocation_span_children_are_the_five_phases() {
        let phases = tiny_phases(4);
        let batch = BatchTrace {
            instance: 0,
            class: RequestClass::new(ModelKind::Tiny, 16),
            size: 4,
            dispatch_ns: 1000.0,
            dur_ns: phases.sum(),
            phases,
        };
        let span = batch.span();
        span.validate().expect("valid invocation span");
        assert_eq!(span.children.len(), 5);
        let cats: Vec<&str> = span.children.iter().map(|c| c.cat.as_str()).collect();
        assert_eq!(cats, ["overhead", "projection", "qk_fill", "softmax_stream", "av_drain"]);
        // Children tile the interval: each starts where the previous ends.
        for pair in span.children.windows(2) {
            assert!((pair[1].start_ns - pair[0].end_ns()).abs() < 1e-9);
        }
        let child_sum: f64 = span.children.iter().map(|c| c.dur_ns).sum();
        assert!((child_sum - span.dur_ns).abs() < 1e-6);
    }

    #[test]
    fn outcome_labels_and_predicates() {
        assert_eq!(RequestOutcome::Good.as_str(), "good");
        assert!(RequestOutcome::Good.is_completed());
        assert!(!RequestOutcome::Good.is_violation());
        assert!(RequestOutcome::Late.is_completed());
        assert!(RequestOutcome::Late.is_violation());
        assert!(!RequestOutcome::Expired.is_completed());
        assert!(RequestOutcome::Rejected.is_violation());
    }

    #[test]
    fn object_json_round_trips() {
        let phases = tiny_phases(2);
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let mut trace = ServeTrace::new(2, 2e6);
        trace.makespan_ns = 5000.0;
        trace.batches.push(BatchTrace {
            instance: 1,
            class,
            size: 2,
            dispatch_ns: 1000.0,
            dur_ns: 4000.0,
            phases,
        });
        trace.push_request(0, class, RequestOutcome::Good, 0.0, 5000.0, Some(0));
        trace.samples.push(SystemSample { t_ns: 0.0, queued: 1, busy: 0 });
        // The view reads the batch size and instance off the batch.
        let view = trace.requests().next().expect("one request");
        assert_eq!((view.batch_size, view.instance, view.batch), (2, Some(1), Some(0)));
        // The records render the request's tree: queued until dispatch,
        // then its batch's invocation span under the name `invoke`.
        let mut invoke = trace.batches[0].span();
        assert_eq!(invoke.name, format!("{class} x2"));
        invoke.name = "invoke".into();
        assert_eq!(
            trace.request_span(&view),
            Span::leaf(format!("req0 {class}"), "request", 0.0, 5000.0)
                .with_child(Span::leaf("queue", "queue", 0.0, 1000.0))
                .with_child(invoke)
        );
        let obj = trace.to_object_json();
        assert!(obj.get("traceEvents").is_some(), "Perfetto needs traceEvents");
        let back = ServeTrace::from_object_json(&obj).expect("round trip");
        assert_eq!(back, trace);
    }

    #[test]
    fn a_request_record_keeps_32_bytes() {
        // Batch size and instance are read from the batch record; the
        // class is a rank into the trace's legend.
        let size = std::mem::size_of::<RequestTrace>();
        assert!(size <= 32, "{size} bytes");
    }

    /// The `key` entry of a JSON map, for editing.
    fn entry<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Map(entries) => {
                &mut entries.iter_mut().find(|(k, _)| k == key).expect("key present").1
            }
            other => panic!("expected a map holding `{key}`, got {other:?}"),
        }
    }

    #[test]
    fn from_object_json_rejects_a_batch_on_a_request_that_never_ran() {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let mut trace = ServeTrace::new(1, 1e6);
        trace.push_request(4, class, RequestOutcome::Rejected, 10.0, 0.0, None);
        trace.push_request(7, class, RequestOutcome::Expired, 20.0, 2e6, None);
        let dump = trace.to_object_json();
        assert_eq!(ServeTrace::from_object_json(&dump).expect("as written"), trace);
        for (index, id) in [(0, 4), (1, 7)] {
            type Edit = fn(&mut Value);
            let sized: Edit = |row| *entry(row, "batch_size") = Value::U64(2);
            let placed: Edit = |row| *entry(row, "instance") = Value::U64(0);
            for (what, edit) in [("batch size", sized), ("instance", placed)] {
                let mut bad = dump.clone();
                match entry(entry(&mut bad, TRACE_SIDECAR_KEY), "requests") {
                    Value::Seq(rows) => edit(&mut rows[index]),
                    other => panic!("expected the request rows, got {other:?}"),
                }
                let err = ServeTrace::from_object_json(&bad).expect_err(what);
                assert!(err.contains(&format!("request {id}:")), "{what}: {err}");
            }
        }
    }

    #[test]
    fn from_object_json_rejects_plain_chrome_traces() {
        let plain = ChromeTrace::new().to_object_json(vec![]);
        let err = ServeTrace::from_object_json(&plain).expect_err("no sidecar");
        assert!(err.contains(TRACE_SIDECAR_KEY), "{err}");
    }

    #[test]
    fn chrome_layout_has_system_request_and_instance_lanes() {
        let trace = ServeTrace::new(3, 1e6);
        let chrome = trace.to_chrome();
        let arr = match chrome.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        // 1 system + 1 requests + 3 instances = 5 metadata records.
        assert_eq!(arr.len(), 5);
        assert!(arr.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
    }
}
