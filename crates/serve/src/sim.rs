//! The deterministic discrete-event serving simulator.
//!
//! One [`simulate`] call models a fleet of `fleet` STAR accelerator
//! instances fed from bounded per-class queues by an arrival process. The
//! event loop is **fully ordered**: events are processed in `(time,
//! sequence-number)` order, every random draw comes from one seeded
//! `ChaCha8Rng` consumed in event order, and all collections iterate
//! deterministically (the class table in class order, the idle set in
//! instance order). Two runs with the same [`ServeConfig`] therefore
//! produce bitwise-identical reports.
//!
//! Events are popped in one `(time, seq)` order, the same single total
//! order STAR's global pipeline runs its stages in. They come from two
//! sources merged at every pop:
//!
//! - an **open-loop arrival cursor** — the generated [`ArrivalTrace`]
//!   and the index of its next arrival, instead of every arrival pushed
//!   up front. Arrival `i` is event `i`, so on an exact time tie the
//!   cursor pops before the heap, whose events number from the trace
//!   length on;
//! - **one binary heap** for everything else (window expiries,
//!   invocation completions, scale checks, closed-loop arrivals). It
//!   holds O(fleet + classes) events in an open-loop run.
//!
//! Every metric the loop records goes through one per-run
//! [`star_telemetry::Tally`]: accumulators registered at construction,
//! seeded from the active registry and published back at finalize, so
//! the registry holds the same bytes as per-call facade updates would
//! have left, without a lock or a map lookup per event.
//!
//! Parallelism lives *outside* the event loop: parameter sweeps fan whole
//! simulations out over `star-exec` (see [`crate::sweep`]).
//!
//! # Event model
//!
//! - `Arrive` — a request enters. If the queue bound is hit it is
//!   rejected (backpressure); otherwise it joins its class queue.
//! - `WindowExpire` — a class's oldest request has waited out the batch
//!   window; the batcher may now dispatch a partial batch.
//! - `InstanceFree` — an invocation finished; its requests complete and
//!   the instance returns to the idle set. The event carries only the
//!   instance: each instance owns one in-flight batch slot, filled at
//!   dispatch and drained here with its capacity kept.
//!
//! After every event the dispatcher greedily matches idle instances with
//! *ready* class queues (full batch, expired window, or zero window),
//! scanning the class table once per dispatch attempt (`Sim::pick_ready`).
//! Requests whose deadline has already passed while queueing are dropped
//! at dispatch time (they could only waste accelerator time).
//!
//! # Observers
//!
//! [`simulate_observed`] attaches the observers an [`Observe`] set
//! switches on; none of them moves the report. A request ends at one of
//! three sites (rejection at admission, deadline expiry at dispatch,
//! completion), and each builds one `Terminal` record that one
//! `observe_terminal` call hands to every attached observer.

use crate::arrival::{exp_sample, generate_open_loop, ArrivalProcess, ArrivalTrace, WorkloadMix};
use crate::batch::BatchPolicy;
use crate::blame::{BlameOutcome, BlameRecorder};
use crate::control::autoscale::ScalerState;
use crate::control::{
    ClassShare, ControlConfig, ControlReport, DequeuePolicy, PlacementPolicy, ScaleDirection,
};
use crate::flight::{FlightConfig, FlightOutcome, FlightRecorder};
use crate::health::{FleetHealthReport, HealthConfig, HealthMonitor};
use crate::model::{ServiceModel, ServiceModelConfig, ServicePhase};
use crate::profile::{phase, SimProfile, TIMING_STRIDE};
use crate::request::{Request, RequestClass};
use crate::slo::{order_key, ClassSloReport, LatencyStats, ServeReport};
use crate::trace::{BatchTrace, RequestOutcome, RequestTrace, ServeTrace, SystemSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use star_telemetry::{CounterId, GaugeId, HistogramId, Tally};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::time::Instant;

/// Complete description of one serving experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of accelerator instances.
    pub fleet: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Request-class mix.
    pub mix: WorkloadMix,
    /// Arrivals stop at this time; the simulation then drains, ns.
    pub horizon_ns: f64,
    /// RNG seed (arrivals, class sampling, think times).
    pub seed: u64,
    /// Admission bound: arrivals beyond this many *queued* requests are
    /// rejected.
    pub max_queue: usize,
    /// Per-request latency SLO, ns. Completions within it count toward
    /// goodput; requests that out-wait it in the queue are dropped at
    /// dispatch.
    pub deadline_ns: f64,
    /// Hardware operating point of every instance.
    pub service: ServiceModelConfig,
    /// Fleet control plane: dequeue policy, placement, autoscaler,
    /// heterogeneous per-instance engines. The default is a strict
    /// no-op — the simulation is then bitwise identical to a config
    /// without a control plane at all.
    pub control: ControlConfig,
}

impl ServeConfig {
    /// A small, fast configuration for tests and examples: a tiny model
    /// class, Poisson arrivals, two instances.
    pub fn example() -> Self {
        use crate::request::ModelKind;
        ServeConfig {
            fleet: 2,
            policy: BatchPolicy::new(4, 50_000.0),
            arrival: ArrivalProcess::poisson(20_000.0),
            mix: WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 16)),
            horizon_ns: 5e6,
            seed: 42,
            max_queue: 64,
            deadline_ns: 2e6,
            service: ServiceModelConfig::default(),
            control: ControlConfig::default(),
        }
    }

    fn validate(&self) {
        assert!(self.fleet > 0, "fleet must hold at least one instance");
        assert!(self.max_queue > 0, "queue bound must be positive");
        assert!(
            self.deadline_ns.is_finite() && self.deadline_ns > 0.0,
            "deadline must be positive"
        );
        assert!(self.horizon_ns.is_finite() && self.horizon_ns > 0.0, "horizon must be positive");
        self.control.validate(self.fleet);
    }
}

/// An instance's in-flight batch slot: filled at dispatch, drained when
/// the instance frees. `members` is empty while the instance is idle and
/// keeps its capacity from batch to batch.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) class: RequestClass,
    pub(crate) dispatch_ns: f64,
    pub(crate) members: Vec<Request>,
}

/// One request's end as the event loop hands it to the observers: a
/// rejection, a deadline expiry or a completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Terminal {
    pub(crate) id: u64,
    pub(crate) class: RequestClass,
    pub(crate) outcome: RequestOutcome,
    pub(crate) arrive_ns: f64,
    /// The terminal event's time, ns.
    pub(crate) finish_ns: f64,
    /// A completed request's batch: `(dispatch_ns, instance, batch_size)`.
    pub(crate) ran: Option<(f64, usize, usize)>,
}

impl Terminal {
    fn of(req: &Request, outcome: RequestOutcome, finish_ns: f64) -> Self {
        Terminal {
            id: req.id,
            class: req.class,
            outcome,
            arrive_ns: req.arrive_ns,
            finish_ns,
            ran: None,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    Arrive(Request),
    WindowExpire(RequestClass),
    /// The instance's in-flight batch finished.
    InstanceFree(usize),
    /// Periodic autoscaler decision point (only scheduled when an
    /// autoscaler is configured).
    ScaleCheck,
}

/// One request class's row in the dispatcher's class table: its queue,
/// its pending batch-window wake-up, its attained service, and its
/// running totals (always maintained — they cost a handful of integer
/// bumps per request and feed [`ServeReport::per_class`]), plus its two
/// span-duration histograms in the run's tally.
#[derive(Debug, Clone)]
struct ClassRow {
    class: RequestClass,
    queue: VecDeque<Request>,
    /// When the class's pending `WindowExpire` wake-up fires, ns.
    armed_ns: Option<f64>,
    /// Busy time the class's batches have taken, ns: weighted-fair
    /// queueing's virtual-time input and the control report's shares.
    attained_ns: f64,
    arrivals: u64,
    rejected: u64,
    expired: u64,
    completed: u64,
    good: u64,
    late: u64,
    /// [`order_key`]s of the class's completion latencies, ns; sorted
    /// once at finalize.
    latency_keys: Vec<u64>,
    latency_us: HistogramId,
    queue_us: HistogramId,
}

impl ClassRow {
    fn new(class: RequestClass, tel: &mut Tally) -> Self {
        ClassRow {
            class,
            queue: VecDeque::new(),
            armed_ns: None,
            attained_ns: 0.0,
            arrivals: 0,
            rejected: 0,
            expired: 0,
            completed: 0,
            good: 0,
            late: 0,
            latency_keys: Vec::new(),
            latency_us: tel.histogram(
                &format!("serve.class.{class}.latency_us"),
                &star_telemetry::DEFAULT_BUCKET_BOUNDS,
            ),
            queue_us: tel.histogram(
                &format!("serve.class.{class}.queue_us"),
                &star_telemetry::DEFAULT_BUCKET_BOUNDS,
            ),
        }
    }
}

#[derive(Debug, Clone)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: time first (finite by construction), then the
        // creation sequence number as the deterministic tie-break.
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// Handles to the fleet-wide metrics in the run's [`Tally`] (the
/// per-class histograms live in [`ClassRow`]).
#[derive(Debug)]
struct MetricIds {
    arrived: CounterId,
    rejected: CounterId,
    admitted: CounterId,
    expired: CounterId,
    completed: CounterId,
    late: CounterId,
    dispatched: CounterId,
    latency_us: HistogramId,
    queue_us: HistogramId,
    batch_size: HistogramId,
    energy_pj: GaugeId,
}

impl MetricIds {
    fn register(tel: &mut Tally) -> Self {
        let decade = &star_telemetry::DEFAULT_BUCKET_BOUNDS;
        MetricIds {
            arrived: tel.counter("serve.requests.arrived"),
            rejected: tel.counter("serve.requests.rejected"),
            admitted: tel.counter("serve.requests.admitted"),
            expired: tel.counter("serve.requests.expired"),
            completed: tel.counter("serve.requests.completed"),
            late: tel.counter("serve.requests.late"),
            dispatched: tel.counter("serve.batches.dispatched"),
            latency_us: tel.histogram("serve.latency_us", decade),
            queue_us: tel.histogram("serve.queue_us", decade),
            batch_size: tel.histogram("serve.batch.size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            energy_pj: tel.gauge("serve.energy.total_pj"),
        }
    }
}

/// The simulator state.
struct Sim<'a> {
    cfg: &'a ServeConfig,
    /// Distinct service models of the fleet (one entry for a
    /// homogeneous fleet; heterogeneous configs dedupe, since building
    /// a `ServiceModel` is the expensive part).
    services: Vec<ServiceModel>,
    /// Instance slot → index into `services`.
    model_of: Vec<usize>,
    /// The open-loop arrivals; empty for a closed loop. Arrival `i` has
    /// id `i` and is event seq `i` (see [`Sim::next_event`]).
    arrival_trace: ArrivalTrace,
    /// The arrival the cursor pops next.
    next_arrival: usize,
    /// Every other pending event, popped in `(time, seq)` order.
    events: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    next_request_id: u64,
    rng: ChaCha8Rng,
    /// One row per request class of the mix, sorted by class.
    classes: Vec<ClassRow>,
    queued_total: usize,
    idle: BTreeSet<usize>,
    /// One batch slot per instance slot.
    in_flight: Vec<InFlight>,
    /// The batch being formed; dispatch swaps it with the chosen
    /// instance's drained slot.
    batch: Vec<Request>,
    /// True iff any control-plane knob is on; only then does the run
    /// build a [`ControlReport`].
    control_active: bool,
    /// Instances currently active (== fleet without an autoscaler).
    active_count: usize,
    /// Autoscaler runtime state (present iff configured).
    scaler: Option<ScalerState>,
    /// Every metric the loop records, published at finalize.
    tel: Tally,
    ids: MetricIds,
    // Accounting; outcome counts live in the class rows.
    batches: u64,
    /// [`order_key`]s of every completion's queueing delay, ns; sorted
    /// once at finalize.
    queue_delay_keys: Vec<u64>,
    busy_ns: Vec<f64>,
    energy_pj: f64,
    in_system: u64,
    max_in_system: u64,
    makespan_ns: f64,
    // The observers an `Observe` set attaches (see the module doc). The
    // boxed ones leave only an `is_some` check in the hot loop's cache
    // footprint.
    trace: Option<ServeTrace>,
    health: Option<HealthMonitor>,
    profile: Option<Box<SimProfile>>,
    flight: Option<Box<FlightRecorder>>,
    blame: Option<Box<BlameRecorder>>,
    /// Whether the profiled event in hand reads the clock.
    timing: bool,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a ServeConfig, observe: &Observe) -> Self {
        cfg.validate();
        let classes = cfg.mix.classes();
        let capacity = cfg.control.capacity(cfg.fleet);
        let initial_active = cfg.control.initial_active(cfg.fleet);
        // Dedupe per-instance engine configs into distinct service
        // models (model construction is the expensive part — a
        // two-format q5.3/q3.5 fleet builds two models, not `capacity`).
        let (services, model_of) = if cfg.control.instance_services.is_empty() {
            (vec![ServiceModel::new(cfg.service.clone(), &classes)], vec![0; capacity])
        } else {
            let mut distinct: Vec<ServiceModelConfig> = Vec::new();
            let mut model_of = Vec::with_capacity(capacity);
            for svc in &cfg.control.instance_services {
                let idx = match distinct.iter().position(|c| c == svc) {
                    Some(idx) => idx,
                    None => {
                        distinct.push(svc.clone());
                        distinct.len() - 1
                    }
                };
                model_of.push(idx);
            }
            let services = distinct.into_iter().map(|c| ServiceModel::new(c, &classes)).collect();
            (services, model_of)
        };
        let flight = observe.flight.then(|| {
            Box::new(FlightRecorder::new(classes.clone(), capacity, cfg.policy.window_ns))
        });
        let blame = observe.blame.then(|| {
            Box::new(BlameRecorder::new(
                classes.clone(),
                cfg.policy.window_ns,
                cfg.control.dequeue.name(),
                cfg.control.placement.name(),
            ))
        });
        let mut tel = Tally::new();
        let ids = MetricIds::register(&mut tel);
        let mut rows: Vec<ClassRow> = classes.iter().map(|&c| ClassRow::new(c, &mut tel)).collect();
        rows.sort_by_key(|r| r.class);
        rows.dedup_by_key(|r| r.class);
        let trace = observe.trace.then(|| ServeTrace::new(capacity, cfg.deadline_ns));
        let format = cfg.service.qformat();
        let health = observe.health.map(|hc| HealthMonitor::new(hc, capacity, format));
        let scaler =
            cfg.control.autoscale.clone().map(|a| ScalerState::new(a, capacity, initial_active));
        Sim {
            cfg,
            services,
            model_of,
            arrival_trace: ArrivalTrace::default(),
            next_arrival: 0,
            events: BinaryHeap::new(),
            event_seq: 0,
            next_request_id: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5EB5_E001),
            classes: rows,
            queued_total: 0,
            idle: (0..initial_active).collect(),
            in_flight: vec![
                InFlight { class: classes[0], dispatch_ns: 0.0, members: Vec::new() };
                capacity
            ],
            batch: Vec::new(),
            control_active: !cfg.control.is_noop(),
            active_count: initial_active,
            scaler,
            tel,
            ids,
            batches: 0,
            queue_delay_keys: Vec::new(),
            busy_ns: vec![0.0; capacity],
            energy_pj: 0.0,
            in_system: 0,
            max_in_system: 0,
            makespan_ns: 0.0,
            trace,
            health,
            profile: observe.profile.then(|| Box::new(SimProfile::new())),
            flight,
            blame,
            timing: false,
        }
    }

    /// Enters a profiled phase: `None` when profiling is off, otherwise
    /// the start time when this event is timed (see
    /// [`crate::profile`]'s *Sampled timing*) and `Some(None)` when it is
    /// only counted. Pair with [`Sim::tock`]; when profiling is off this
    /// is one branch and no clock read.
    #[inline]
    fn tick(&self) -> Option<Option<Instant>> {
        self.profile.as_ref().map(|_| self.timing.then(Instant::now))
    }

    /// [`Sim::tick`] gated on a second condition (e.g. "only time the
    /// trace-emit block when a trace is actually attached"), so optional
    /// subsystems that are off don't pollute phase call counts.
    #[inline]
    fn tick_if(&self, active: bool) -> Option<Option<Instant>> {
        if active {
            self.tick()
        } else {
            None
        }
    }

    /// Leaves a phase entered by [`Sim::tick`]: counts the call against
    /// `phase_idx`, with its interval when it was timed.
    #[inline]
    fn tock(&mut self, phase_idx: usize, t0: Option<Option<Instant>>) {
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            match t0 {
                Some(t0) => p.wall.record(phase_idx, t0.elapsed()),
                None => p.wall.count(phase_idx),
            }
        }
    }

    /// Samples post-event system state onto the trace timeseries (one
    /// sample per distinct event time; later events at the same instant
    /// overwrite, so the sample reflects the settled state).
    fn record_sample(&mut self, now: f64) {
        let Some(t) = self.trace.as_mut() else { return };
        let queued = self.queued_total as u64;
        let busy = (self.active_count - self.idle.len()) as u64;
        if let Some(last) = t.samples.last_mut() {
            if last.t_ns == now {
                last.queued = queued;
                last.busy = busy;
                return;
            }
        }
        t.samples.push(SystemSample { t_ns: now, queued, busy });
    }

    /// Pops the next event in global `(time, seq)` order: the arrival
    /// cursor's head or the heap's top, whichever comes first. The cursor
    /// wins an exact time tie because its seq is below every heap
    /// event's, so this is the order one heap holding both would pop in.
    fn next_event(&mut self) -> Option<Event> {
        let i = self.next_arrival;
        let cursor_first = i < self.arrival_trace.len()
            && self.events.peek().is_none_or(|Reverse(top)| {
                self.arrival_trace.time_ns(i).total_cmp(&top.time).is_le()
            });
        if cursor_first {
            // An open-loop arrival's id is its trace index, i.e. its seq.
            self.next_arrival += 1;
            let req = self.arrival_trace.request(i);
            return Some(Event { time: req.arrive_ns, seq: req.id, kind: EventKind::Arrive(req) });
        }
        let Reverse(event) = self.events.pop()?;
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.heap_pops += 1;
        }
        Some(event)
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite(), "event times must be finite");
        let seq = self.event_seq;
        self.event_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.heap_pushes += 1;
            p.work.heap_peak = p.work.heap_peak.max(self.events.len() as u64);
        }
    }

    /// Loads the open-loop trace into the arrival cursor, or pushes the
    /// first request of every closed-loop client.
    fn seed_arrivals(&mut self) {
        match self.cfg.arrival {
            ArrivalProcess::Poisson(_) | ArrivalProcess::Mmpp(_) => {
                let trace = generate_open_loop(
                    &self.cfg.arrival,
                    &self.cfg.mix,
                    self.cfg.horizon_ns,
                    self.cfg.seed,
                );
                debug_assert!(
                    (1..trace.len()).all(|i| trace.time_ns(i - 1) <= trace.time_ns(i)),
                    "the cursor pops in trace order, so the trace must be time-sorted"
                );
                self.next_request_id = trace.len() as u64;
                // Arrivals own seqs 0..n; every pushed event numbers from n.
                self.event_seq = trace.len() as u64;
                // No class completes more requests than arrive in it, so
                // reserving those bounds keeps the sample vectors from
                // growing, and copying, during the loop.
                self.queue_delay_keys.reserve_exact(trace.len());
                let mut bounds = vec![0; self.classes.len()];
                for (class, count) in trace.class_counts() {
                    bounds[self.row_of(class)] += count;
                }
                for (row, bound) in self.classes.iter_mut().zip(bounds) {
                    row.latency_keys.reserve_exact(bound);
                }
                self.arrival_trace = trace;
            }
            ArrivalProcess::ClosedLoop(crate::arrival::ClosedLoopArrival { clients, think_ns }) => {
                assert!(clients > 0, "closed loop needs at least one client");
                assert!(think_ns > 0.0, "think time must be positive");
                for client in 0..clients {
                    let t = exp_sample(&mut self.rng, think_ns);
                    self.issue_client_request(client, t);
                }
            }
        }
    }

    /// Schedules the next request of a closed-loop client at `t` (no-op
    /// past the horizon, which is how the closed loop drains).
    fn issue_client_request(&mut self, client: usize, t: f64) {
        if t >= self.cfg.horizon_ns {
            return;
        }
        let class = self.cfg.mix.sample(&mut self.rng);
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.push_event(
            t,
            EventKind::Arrive(Request { id, class, arrive_ns: t, client: Some(client) }),
        );
    }

    /// A finished (or failed) closed-loop request lets its client think,
    /// then issue the next one.
    fn client_think_and_reissue(&mut self, client: Option<usize>, now: f64) {
        if let (Some(client), ArrivalProcess::ClosedLoop(loop_cfg)) = (client, &self.cfg.arrival) {
            let think = exp_sample(&mut self.rng, loop_cfg.think_ns);
            self.issue_client_request(client, now + think);
        }
    }

    /// The class table row of `class`.
    fn row_of(&self, class: RequestClass) -> usize {
        self.classes.binary_search_by_key(&class, |r| r.class).expect("mix classes pre-registered")
    }

    /// Hands one request's end to every attached observer: the trace
    /// record (timed as the trace-emit phase), the flight recorder's
    /// terminal row, and blame's rejection and expiry counts.
    fn observe_terminal(&mut self, t: Terminal) {
        let tt = self.tick_if(self.trace.is_some());
        if let Some(trace) = self.trace.as_mut() {
            trace.requests.push(RequestTrace {
                id: t.id,
                class: t.class,
                outcome: t.outcome,
                batch_size: t.ran.map_or(0, |(_, _, size)| size),
                instance: t.ran.map(|(_, instance, _)| instance),
                arrive_ns: t.arrive_ns,
                latency_ns: t.finish_ns - t.arrive_ns,
                // A completed request's batch is the one just pushed.
                batch: t.ran.map(|_| trace.batches.len() - 1),
            });
        }
        self.tock(phase::TRACE_EMIT, tt);
        if let Some(f) = self.flight.as_deref_mut() {
            f.on_terminal(&t);
        }
        if let Some(b) = self.blame.as_deref_mut() {
            b.on_terminal(&t);
        }
    }

    fn on_arrive(&mut self, now: f64, req: Request) {
        let row = self.row_of(req.class);
        self.classes[row].arrivals += 1;
        self.tel.count(self.ids.arrived, 1);
        if self.queued_total >= self.cfg.max_queue {
            self.classes[row].rejected += 1;
            if let Some(s) = self.scaler.as_mut() {
                s.note_violation(req.class);
            }
            self.tel.count(self.ids.rejected, 1);
            // A rejected request's whole lifecycle is one instant: an
            // arrival's event time is its `arrive_ns`.
            self.observe_terminal(Terminal::of(&req, RequestOutcome::Rejected, now));
            self.client_think_and_reissue(req.client, now);
            return;
        }
        self.tel.count(self.ids.admitted, 1);
        self.in_system += 1;
        self.max_in_system = self.max_in_system.max(self.in_system);
        self.queued_total += 1;
        self.classes[row].queue.push_back(req);
        self.try_dispatch(now);
    }

    fn on_window_expire(&mut self, now: f64, class: RequestClass) {
        let row = self.row_of(class);
        let armed = &mut self.classes[row].armed_ns;
        if *armed == Some(now) {
            *armed = None;
        }
        self.try_dispatch(now);
    }

    fn on_instance_free(&mut self, now: f64, instance: usize) {
        // The members leave the slot for the loop below and return to it,
        // drained with their capacity kept, before the instance idles.
        let slot = &mut self.in_flight[instance];
        let (class, dispatch_ns) = (slot.class, slot.dispatch_ns);
        let mut members = std::mem::take(&mut slot.members);
        let size = members.len();
        debug_assert!(
            members.iter().all(|r| r.class == class),
            "batches never mix request classes"
        );
        // Hardware phase decomposition, computed once per batch for the
        // trace's batch record, which every member's record indexes, and
        // for blame.
        let tt = self.tick_if(self.trace.is_some());
        let phases = (self.trace.is_some() || self.blame.is_some())
            .then(|| self.services[self.model_of[instance]].invocation_phases(class, size));
        if let (Some(b), Some(p)) = (self.blame.as_deref_mut(), phases.as_ref()) {
            b.on_batch(instance, class, dispatch_ns, now, &members, p);
        }
        if let (Some(t), Some(p)) = (self.trace.as_mut(), phases.as_ref()) {
            t.batches.push(BatchTrace {
                instance,
                class,
                size,
                dispatch_ns,
                dur_ns: now - dispatch_ns,
                phases: *p,
            });
        }
        self.tock(phase::TRACE_EMIT, tt);
        let row = self.row_of(class);
        for req in members.drain(..) {
            let latency = now - req.arrive_ns;
            let queue_ns = dispatch_ns - req.arrive_ns;
            let good = latency <= self.cfg.deadline_ns;
            self.in_system -= 1;
            let acc = &mut self.classes[row];
            acc.completed += 1;
            acc.latency_keys.push(order_key(latency));
            if good {
                acc.good += 1;
                if let Some(s) = self.scaler.as_mut() {
                    s.note_completed(req.class);
                }
            } else {
                acc.late += 1;
                if let Some(s) = self.scaler.as_mut() {
                    s.note_violation(req.class);
                }
                self.tel.count(self.ids.late, 1);
            }
            self.tel.count(self.ids.completed, 1);
            self.tel.observe(self.ids.latency_us, latency / 1e3);
            self.tel.observe(self.ids.queue_us, queue_ns / 1e3);
            // Per-class span-duration histograms: the dashboard view of
            // the per-request span tree's two lifecycle children.
            self.tel.observe(acc.latency_us, latency / 1e3);
            self.tel.observe(acc.queue_us, queue_ns / 1e3);
            let outcome = if good { RequestOutcome::Good } else { RequestOutcome::Late };
            let ran = Some((dispatch_ns, instance, size));
            self.observe_terminal(Terminal { ran, ..Terminal::of(&req, outcome, now) });
            self.queue_delay_keys.push(order_key(queue_ns));
            self.client_think_and_reissue(req.client, now);
        }
        self.in_flight[instance].members = members;
        self.idle.insert(instance);
        self.try_dispatch(now);
    }

    /// One autoscaler decision point: evaluate the scale rule from the
    /// current queue depth and the per-class outcome counts accumulated
    /// since the last check, execute the action if possible, and arm the
    /// next check. Scale-up activates the lowest inactive slot and
    /// immediately offers it to the dispatcher; scale-down drains the
    /// highest *idle* active slot (never a busy one — if nothing is
    /// idle the decision lapses and is re-evaluated next check). Checks
    /// stop at the horizon so the drain phase terminates.
    fn on_scale_check(&mut self, now: f64) {
        let queued = self.queued_total;
        let scaler = self.scaler.as_mut().expect("scale check implies an autoscaler");
        let decision = scaler.decide(now, queued);
        let interval = scaler.cfg.check_interval_ns;
        let mut scaled_up = false;
        match decision.direction {
            Some(ScaleDirection::Up) => {
                if let Some(i) = scaler.lowest_inactive() {
                    scaler.record(now, ScaleDirection::Up, i, queued, decision.burn_hot);
                    self.active_count += 1;
                    self.idle.insert(i);
                    scaled_up = true;
                }
            }
            Some(ScaleDirection::Down) => {
                // The highest idle index: drained instances re-activate
                // last, so low slots accumulate the steady-state load.
                if let Some(&i) = self.idle.iter().next_back() {
                    scaler.record(now, ScaleDirection::Down, i, queued, decision.burn_hot);
                    self.active_count -= 1;
                    self.idle.remove(&i);
                }
            }
            None => {}
        }
        let next = now + interval;
        if next <= self.cfg.horizon_ns {
            self.push_event(next, EventKind::ScaleCheck);
        }
        if scaled_up {
            // A fresh instance may unblock queued work right now.
            self.try_dispatch(now);
        }
    }

    /// Greedily matches idle instances with ready class queues.
    fn try_dispatch(&mut self, now: f64) {
        let td = self.tick();
        if let Some(p) = self.profile.as_deref_mut() {
            p.work.dispatch_rounds += 1;
        }
        self.dispatch_loop(now);
        self.tock(phase::DISPATCH, td);
    }

    /// The dequeue key of a class whose queue head is `head`: the
    /// dequeue policy's comparator, ties broken by head id. FIFO keys by
    /// head arrival; weighted-fair by the class's attained service over
    /// its weight (a virtual time — least-served-first); EDF by the
    /// head's absolute deadline.
    fn priority_key(&self, row: &ClassRow, head: &Request) -> (f64, u64) {
        let key = match &self.cfg.control.dequeue {
            DequeuePolicy::Fifo => head.arrive_ns,
            DequeuePolicy::WeightedFair(p) => row.attained_ns / p.weight(row.class),
            DequeuePolicy::EarliestDeadline(p) => {
                head.arrive_ns + p.deadline_ns(row.class, self.cfg.deadline_ns)
            }
        };
        (key, head.id)
    }

    /// One pass over the class table: returns the row of the ready class
    /// with the least [`Sim::priority_key`] under `f64::total_cmp` (head
    /// ids are unique, so the order is total), and arms a wake-up for
    /// each queued class still waiting on its batch window.
    ///
    /// Readiness is [`BatchPolicy::head_ready`], evaluated afresh at
    /// `now`. A waiting class gets one `WindowExpire` at its window's
    /// end, re-armed only when no wake-up in `(now, end]` is pending.
    /// Rows are visited in class order, so wake-ups are pushed in class
    /// order.
    fn pick_ready(&mut self, now: f64) -> Option<usize> {
        let mut best: Option<(f64, u64, usize)> = None;
        for row in 0..self.classes.len() {
            let r = &self.classes[row];
            let Some(head) = r.queue.front() else { continue };
            if self.cfg.policy.head_ready(r.queue.len(), now, head.arrive_ns) {
                let (key, id) = self.priority_key(r, head);
                if best.is_none_or(|(k, i, _)| key.total_cmp(&k).then(id.cmp(&i)).is_lt()) {
                    best = Some((key, id, row));
                }
                continue;
            }
            let (class, expiry) = (r.class, self.cfg.policy.expiry_ns(head.arrive_ns));
            if !r.armed_ns.is_some_and(|t| t > now && t <= expiry) {
                self.classes[row].armed_ns = Some(expiry);
                self.push_event(expiry, EventKind::WindowExpire(class));
            }
        }
        best.map(|(_, _, row)| row)
    }

    fn dispatch_loop(&mut self, now: f64) {
        while !self.idle.is_empty() {
            let Some(row) = self.pick_ready(now) else { break };
            if let Some(p) = self.profile.as_deref_mut() {
                // One scan per dispatch attempt — a pure function of the
                // batch sequence, whatever the fleet size. Also
                // attributed to the active dequeue-policy branch so the
                // work goldens pin each policy's share.
                p.work.dispatch_scans += 1;
                match &self.cfg.control.dequeue {
                    DequeuePolicy::Fifo => p.work.dispatch_scans_fifo += 1,
                    DequeuePolicy::WeightedFair(_) => p.work.dispatch_scans_wfq += 1,
                    DequeuePolicy::EarliestDeadline(_) => p.work.dispatch_scans_edf += 1,
                }
            }
            self.form_batch(now, row);
            if self.batch.is_empty() {
                continue; // everything at the head had expired
            }
            let class = self.classes[row].class;
            let size = self.batch.len();
            // Placement: the control plane's policy (the lowest idle
            // index by default). With the health monitor's wear-leveling
            // policy on, a deterministic round-robin cursor spreads
            // invocations across the fleet and takes precedence (zero
            // RNG draws on every path — placement chooses *which*
            // instance runs the batch, never when or what).
            let instance = match self.health.as_mut() {
                Some(h) if h.wear_leveling() => h.pick_instance(&self.idle),
                _ => self.place_instance(class, size),
            };
            debug_assert!(
                self.scaler.as_ref().is_none_or(|s| s.is_active(instance)),
                "dispatch only targets active instances"
            );
            let tc = self.tick();
            let cost = self.services[self.model_of[instance]].batch_cost(class, size);
            self.tock(phase::BATCH_COST, tc);
            let th = self.tick_if(self.health.is_some());
            if let Some(h) = self.health.as_mut() {
                h.on_dispatch(instance, class, size, &cost);
            }
            self.tock(phase::HEALTH_DISPATCH, th);
            self.idle.remove(&instance);
            self.busy_ns[instance] += cost.latency_ns;
            self.energy_pj += cost.energy_pj;
            self.classes[row].attained_ns += cost.latency_ns;
            self.batches += 1;
            if let Some(p) = self.profile.as_deref_mut() {
                p.work.batches_formed += 1;
                p.work.batch_members += size as u64;
            }
            self.tel.count(self.ids.dispatched, 1);
            self.tel.observe(self.ids.batch_size, size as f64);
            self.tel.add(self.ids.energy_pj, cost.energy_pj);
            // The batch moves into the instance's slot, and the slot's
            // drained vector becomes the next batch: once every vector
            // has grown, dispatch allocates nothing.
            let slot = &mut self.in_flight[instance];
            debug_assert!(slot.members.is_empty(), "only an idle instance is dispatched to");
            slot.class = class;
            slot.dispatch_ns = now;
            std::mem::swap(&mut slot.members, &mut self.batch);
            self.push_event(now + cost.latency_ns, EventKind::InstanceFree(instance));
        }
    }

    /// Picks the idle instance for a batch under the control plane's
    /// placement policy. Deterministic: the idle set iterates in
    /// ascending instance order and comparisons are strict, so ties
    /// always break to the lowest index; no RNG is consumed. On a
    /// homogeneous fleet, fastest-eligible and energy-greedy both
    /// degenerate to first-idle (every instance quotes the same cost).
    fn place_instance(&self, class: RequestClass, size: usize) -> usize {
        let first = *self.idle.first().expect("loop guard: idle set non-empty");
        match self.cfg.control.placement {
            PlacementPolicy::FirstIdle => first,
            PlacementPolicy::LeastLoaded => {
                let mut best = first;
                let mut best_busy = f64::INFINITY;
                for &i in &self.idle {
                    if self.busy_ns[i] < best_busy {
                        best_busy = self.busy_ns[i];
                        best = i;
                    }
                }
                best
            }
            PlacementPolicy::FastestEligible | PlacementPolicy::EnergyGreedy => {
                let greedy_energy = self.cfg.control.placement == PlacementPolicy::EnergyGreedy;
                // Quote each *distinct* model once, not each instance.
                let mut quote: Vec<Option<f64>> = vec![None; self.services.len()];
                let mut best = first;
                let mut best_cost = f64::INFINITY;
                for &i in &self.idle {
                    let m = self.model_of[i];
                    let c = *quote[m].get_or_insert_with(|| {
                        let cost = self.services[m].batch_cost(class, size);
                        if greedy_energy {
                            cost.energy_pj
                        } else {
                            cost.latency_ns
                        }
                    });
                    if c < best_cost {
                        best_cost = c;
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Pops up to `max_batch` requests from the queue of class table row
    /// `row` into the empty [`Sim::batch`], dropping any whose deadline
    /// already lapsed in the queue.
    fn form_batch(&mut self, now: f64, row: usize) {
        debug_assert!(self.batch.is_empty(), "the last batch was dispatched");
        let mut dead: Vec<Request> = Vec::new();
        {
            let q = &mut self.classes[row].queue;
            while self.batch.len() < self.cfg.policy.max_batch {
                let Some(head) = q.front() else { break };
                if now - head.arrive_ns > self.cfg.deadline_ns {
                    dead.push(q.pop_front().expect("head exists"));
                    self.queued_total -= 1;
                    self.in_system -= 1;
                    continue;
                }
                self.batch.push(q.pop_front().expect("head exists"));
                self.queued_total -= 1;
            }
        }
        if !dead.is_empty() {
            // One update for the whole sweep: `count(id, n)` folds
            // identically to n unit counts in every registry snapshot.
            self.tel.count(self.ids.expired, dead.len() as u64);
            if let Some(p) = self.profile.as_deref_mut() {
                p.work.expired_drops += dead.len() as u64;
            }
        }
        for req in dead {
            self.classes[row].expired += 1;
            if let Some(s) = self.scaler.as_mut() {
                s.note_violation(req.class);
            }
            self.observe_terminal(Terminal::of(&req, RequestOutcome::Expired, now));
            self.client_think_and_reissue(req.client, now);
        }
    }

    fn run(mut self) -> SimOutcome {
        let run_start = self.profile.is_some().then(Instant::now);
        self.seed_arrivals();
        if let Some(s) = &self.scaler {
            // The first decision point; each check arms its successor
            // until the horizon. Its seq follows the arrival trace's.
            let first = s.cfg.check_interval_ns;
            if first <= self.cfg.horizon_ns {
                self.push_event(first, EventKind::ScaleCheck);
            }
        }
        // One pop per event, in global (time, seq) order — the single
        // total order that makes every run bitwise replayable.
        while let Some(event) = self.next_event() {
            self.makespan_ns = self.makespan_ns.max(event.time);
            if let Some(p) = self.profile.as_deref_mut() {
                self.timing = p.work.events_total % TIMING_STRIDE == 0;
                p.work.events_total += 1;
                match &event.kind {
                    EventKind::Arrive(_) => p.work.events_arrive += 1,
                    EventKind::WindowExpire(_) => p.work.events_window_expire += 1,
                    EventKind::InstanceFree(_) => p.work.events_instance_free += 1,
                    EventKind::ScaleCheck => p.work.events_scale_check += 1,
                }
            }
            // The flight row reads an instance's batch slot before the
            // handler drains it.
            let frow = self
                .flight
                .as_ref()
                .map(|f| f.row(event.time, event.seq, &event.kind, &self.in_flight));
            let t0 = self.tick();
            match event.kind {
                EventKind::Arrive(req) => {
                    self.on_arrive(event.time, req);
                    self.tock(phase::ARRIVE, t0);
                }
                EventKind::WindowExpire(class) => {
                    self.on_window_expire(event.time, class);
                    self.tock(phase::WINDOW_EXPIRE, t0);
                }
                EventKind::InstanceFree(instance) => {
                    self.on_instance_free(event.time, instance);
                    self.tock(phase::INSTANCE_FREE, t0);
                }
                EventKind::ScaleCheck => {
                    self.on_scale_check(event.time);
                    self.tock(phase::SCALE_CHECK, t0);
                }
            }
            if let Some(p) = self.profile.as_deref_mut() {
                // Post-event settled state, same convention as the trace
                // timeseries sample below.
                p.work.queue_depth_hist.record(self.queued_total as u64);
                let ahead = self.arrival_trace.len() - self.next_arrival;
                p.work.backlog_hist.record((self.events.len() + ahead) as u64);
            }
            let ts = self.tick();
            self.record_sample(event.time);
            if let Some(h) = self.health.as_mut() {
                h.maybe_sample(event.time);
            }
            if let Some(row) = frow {
                // Post-event settled state, same convention as the
                // sample hooks above; occupancy = in-flight requests
                // currently executing in batches.
                let alarms = self.health.as_ref().map_or(0, HealthMonitor::alarm_count);
                let occupancy = (self.in_system as usize).saturating_sub(self.queued_total);
                self.flight
                    .as_deref_mut()
                    .expect("row built only when the recorder is attached")
                    .on_event(row, self.queued_total, occupancy, alarms);
            }
            self.tock(phase::SAMPLE_HOOKS, ts);
        }
        debug_assert_eq!(self.queued_total, 0, "drain leaves no queued request");
        debug_assert_eq!(self.in_system, 0, "every admitted request completes or expires");
        let tf = self.profile.is_some().then(Instant::now);
        let tel_ops = self.tel.updates();
        self.tel.publish();
        let makespan_s = (self.makespan_ns * 1e-9).max(f64::MIN_POSITIVE);
        if let Some(t) = self.trace.as_mut() {
            t.makespan_ns = self.makespan_ns;
        }
        // One in-place sort per sample set; the overall latency summary
        // merges the sorted per-class sets.
        for row in &mut self.classes {
            row.latency_keys.sort_unstable();
        }
        self.queue_delay_keys.sort_unstable();
        let latency_runs: Vec<&[u64]> =
            self.classes.iter().map(|a| a.latency_keys.as_slice()).collect();
        let per_class: Vec<ClassSloReport> = self
            .classes
            .iter()
            .map(|a| ClassSloReport {
                class: a.class,
                arrivals: a.arrivals,
                completed: a.completed,
                good: a.good,
                late: a.late,
                rejected: a.rejected,
                expired: a.expired,
                goodput_rps: a.good as f64 / makespan_s,
                latency: LatencyStats::from_sorted_keys(&a.latency_keys),
            })
            .collect();
        let utilization: Vec<f64> =
            self.busy_ns.iter().map(|b| b / self.makespan_ns.max(f64::MIN_POSITIVE)).collect();
        let mean_utilization = utilization.iter().sum::<f64>() / utilization.len() as f64;
        // Fleet totals are the class rows' exact integer sums; once the run
        // drains, every batched request has completed.
        let total = |count: fn(&ClassSloReport) -> u64| per_class.iter().map(count).sum::<u64>();
        let completed = total(|c| c.completed);
        let good = total(|c| c.good);
        let report = ServeReport {
            arrivals: total(|c| c.arrivals),
            completed,
            good,
            late: total(|c| c.late),
            rejected: total(|c| c.rejected),
            expired: total(|c| c.expired),
            makespan_ns: self.makespan_ns,
            offered_rps: self.cfg.arrival.offered_rps(),
            throughput_rps: completed as f64 / makespan_s,
            goodput_rps: good as f64 / makespan_s,
            latency: LatencyStats::from_sorted_runs(&latency_runs),
            queue_delay: LatencyStats::from_sorted_keys(&self.queue_delay_keys),
            batches: self.batches,
            mean_batch_size: if self.batches == 0 {
                0.0
            } else {
                completed as f64 / self.batches as f64
            },
            utilization,
            mean_utilization,
            total_energy_pj: self.energy_pj,
            energy_per_request_nj: if completed == 0 {
                0.0
            } else {
                self.energy_pj / 1e3 / completed as f64
            },
            max_in_system: self.max_in_system,
            per_class,
        };
        let control = self.control_active.then(|| {
            let total_attained: f64 = self.classes.iter().map(|a| a.attained_ns).sum();
            let shares: Vec<ClassShare> = self
                .classes
                .iter()
                .map(|a| ClassShare {
                    class: a.class,
                    completed: a.completed,
                    attained_ns: a.attained_ns,
                    share: if total_attained > 0.0 { a.attained_ns / total_attained } else { 0.0 },
                    weight: match &self.cfg.control.dequeue {
                        DequeuePolicy::WeightedFair(p) => p.weight(a.class),
                        _ => 1.0,
                    },
                })
                .collect();
            let (
                scale_events,
                final_active,
                peak_active,
                min_active,
                instance_seconds,
                converge_ns,
            ) = match self.scaler.as_mut() {
                Some(s) => {
                    let integral_ns = s.close_integral(self.makespan_ns);
                    let peak = s.peak_active;
                    // Convergence: when the fleet first reached its
                    // peak size (0 if it never moved).
                    let converge =
                        s.events.iter().find(|e| e.active_after == peak).map_or(0.0, |e| e.t_ns);
                    (
                        std::mem::take(&mut s.events),
                        s.active_count(),
                        peak,
                        s.min_active,
                        integral_ns * 1e-9,
                        converge,
                    )
                }
                None => (
                    Vec::new(),
                    self.active_count,
                    self.active_count,
                    self.active_count,
                    self.active_count as f64 * self.makespan_ns * 1e-9,
                    0.0,
                ),
            };
            ControlReport {
                dequeue: self.cfg.control.dequeue.name().to_string(),
                placement: self.cfg.control.placement.name().to_string(),
                shares,
                scale_events,
                final_active,
                peak_active,
                min_active,
                instance_seconds,
                converge_ns,
            }
        });
        let mut trace = self.trace;
        let health = self.health.map(|monitor| {
            let (health_report, samples) = monitor.finalize(report.makespan_ns);
            if let Some(t) = trace.as_mut() {
                t.health = samples;
            }
            health_report
        });
        let profile = self.profile.take().map(|mut p| {
            p.work.telemetry_ops = tel_ops;
            if let Some(tf) = tf {
                p.wall.record(phase::FINALIZE, tf.elapsed());
            }
            if let Some(start) = run_start {
                p.wall_total_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            }
            *p
        });
        let flight = self.flight.take().map(|f| f.finalize(&self.services, &self.model_of));
        let blame = self.blame.take().map(|b| b.finalize());
        SimOutcome { report, trace, health, profile, control, flight, blame }
    }
}

/// One simulation's report plus the output of every observer it ran
/// with; an observer that was not attached leaves its field `None`.
#[derive(Debug)]
pub struct SimOutcome {
    /// The SLO report.
    pub report: ServeReport,
    /// One record per request and per batch, from which the span trees
    /// are rendered when read, and the system-state timeseries (present
    /// when requested; see [`crate::trace`]).
    pub trace: Option<ServeTrace>,
    /// Fleet device-health report (present when the run was monitored;
    /// see [`crate::health`]).
    pub health: Option<FleetHealthReport>,
    /// Simulator self-profile: deterministic work counters + wall-clock
    /// phase attribution (present when requested; see [`crate::profile`]).
    pub profile: Option<SimProfile>,
    /// Control-plane report: fairness shares, the scale-event timeline,
    /// and fleet-cost figures (present iff any [`ControlConfig`] knob is
    /// on; see [`crate::control`]).
    pub control: Option<ControlReport>,
    /// Flight-recorder outcome: sealed incident dumps plus ring
    /// conservation counters (present when the recorder was attached;
    /// see [`crate::flight`]).
    pub flight: Option<FlightOutcome>,
    /// Critical-path blame: per-request latency decomposition, the
    /// blocking-chain table, and fleet-wide blame aggregation (present
    /// when requested; see [`crate::blame`]).
    pub blame: Option<BlameOutcome>,
}

/// The observers a run attaches; the default attaches none. No observer
/// draws from the RNG or feeds back into event arithmetic, so the report
/// is the plain run's bit for bit whatever the set (wear-leveling
/// placement, opt-in through [`HealthConfig::wear_leveling`], is the one
/// exception).
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Per-request and per-batch trace records (see [`crate::trace`]).
    pub trace: bool,
    /// The device-health monitor (see [`crate::health`]); a traced run
    /// then also carries the health timeseries.
    pub health: Option<HealthConfig>,
    /// The self-profiler (see [`crate::profile`]).
    pub profile: bool,
    /// The incident flight recorder (see [`crate::flight`]).
    pub flight: bool,
    /// Critical-path blame (see [`crate::blame`]).
    pub blame: bool,
}

/// Runs the serving simulation and returns its report.
///
/// # Panics
///
/// Panics on invalid configuration (zero fleet, non-positive deadline,
/// horizon, or queue bound; unknown classes).
pub fn simulate(cfg: &ServeConfig) -> ServeReport {
    Sim::new(cfg, &Observe::default()).run().report
}

/// Runs the simulation with the observers `observe` attaches; each one
/// that is attached fills its field of the returned [`SimOutcome`].
///
/// # Panics
///
/// Panics on an invalid configuration, as [`simulate`] does.
pub fn simulate_observed(cfg: &ServeConfig, observe: &Observe) -> SimOutcome {
    Sim::new(cfg, observe).run()
}

/// [`simulate_observed`] with the self-profiler alone. It stays beside
/// [`simulate_observed`] because the benchmark package (`benchmark/`)
/// calls it.
pub fn simulate_profiled(cfg: &ServeConfig) -> SimOutcome {
    simulate_observed(cfg, &Observe { profile: true, ..Observe::default() })
}

/// Runs the simulation with one service phase's latency lever scaled —
/// the what-if engine's counterfactual hook (see [`crate::blame`]).
/// The scaling is applied to the constructed service models, not the
/// configuration, so intervention runs never perturb config
/// serialization; `scale = None` is exactly [`simulate`].
pub(crate) fn simulate_scaled(
    cfg: &ServeConfig,
    scale: Option<(ServicePhase, f64)>,
) -> ServeReport {
    let mut sim = Sim::new(cfg, &Observe::default());
    if let Some((phase, factor)) = scale {
        for s in &mut sim.services {
            s.scale_phase(phase, factor);
        }
    }
    sim.run().report
}

/// [`simulate_observed`] with the [`Observe`] fields as positional
/// arguments. It stays because the benchmark package (`benchmark/`)
/// calls it. `_shards` is ignored: it once chose how many heaps the event
/// queue was split across, and every count produced the one-heap loop's
/// bytes. A `Some` `flight` attaches the recorder; [`FlightConfig`] has
/// no fields.
pub fn simulate_full(
    cfg: &ServeConfig,
    _shards: usize,
    trace: bool,
    health: Option<&HealthConfig>,
    profile: bool,
    flight: Option<&FlightConfig>,
    blame: bool,
) -> SimOutcome {
    simulate_observed(
        cfg,
        &Observe { trace, health: health.copied(), profile, flight: flight.is_some(), blame },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    #[test]
    fn conservation_no_request_lost() {
        let cfg = ServeConfig::example();
        let r = simulate(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
        assert_eq!(r.completed, r.good + r.late);
    }

    #[test]
    fn next_event_pops_the_cursor_first_on_a_time_tie() {
        let cfg = ServeConfig::example();
        let class = cfg.mix.classes()[0];
        let mut sim = Sim::new(&cfg, &Observe::default());
        sim.seed_arrivals();
        let n = sim.arrival_trace.len() as u64;
        assert!(n > 2, "the example trace has arrivals");
        let first = sim.arrival_trace.time_ns(0);
        sim.push_event(first, EventKind::WindowExpire(class));
        let arrival = sim.next_event().expect("arrival 0");
        assert!(matches!(arrival.kind, EventKind::Arrive(ref r) if r.id == 0));
        assert_eq!((arrival.time, arrival.seq), (first, 0));
        let tied = sim.next_event().expect("the tied heap event");
        assert!(matches!(tied.kind, EventKind::WindowExpire(_)));
        assert_eq!((tied.time, tied.seq), (first, n), "heap events number from n");
        let rest: Vec<u64> = std::iter::from_fn(|| sim.next_event()).map(|e| e.seq).collect();
        assert_eq!(rest, (1..n).collect::<Vec<_>>(), "the cursor drains in trace order");
    }

    #[test]
    fn next_event_pops_the_heap_alone_when_the_cursor_is_empty() {
        let mut cfg = ServeConfig::example();
        cfg.arrival = ArrivalProcess::closed_loop(3, 50_000.0);
        let class = cfg.mix.classes()[0];
        let mut sim = Sim::new(&cfg, &Observe::default());
        sim.seed_arrivals();
        assert!(sim.arrival_trace.is_empty(), "a closed loop has no cursor");
        let mut clients: Vec<u64> =
            std::iter::from_fn(|| sim.next_event()).map(|e| e.seq).collect();
        clients.sort_unstable();
        assert_eq!(clients, vec![0, 1, 2], "one pushed first request per client");
        sim.push_event(5.0, EventKind::WindowExpire(class));
        sim.push_event(5.0, EventKind::ScaleCheck);
        sim.push_event(1.0, EventKind::ScaleCheck);
        let order: Vec<(f64, u64)> =
            std::iter::from_fn(|| sim.next_event()).map(|e| (e.time, e.seq)).collect();
        assert_eq!(order, vec![(1.0, 5), (5.0, 3), (5.0, 4)]);
    }

    #[test]
    fn pick_ready_orders_ready_classes_and_arms_waiting_ones() {
        use crate::arrival::WorkloadMix;
        let classes = [16, 32, 64].map(|seq| RequestClass::new(ModelKind::Tiny, seq));
        let mut cfg = ServeConfig {
            policy: BatchPolicy::new(4, 50_000.0),
            mix: WorkloadMix::new(classes.iter().map(|&c| (c, 1.0)).collect()),
            ..ServeConfig::example()
        };
        // A fresh three-class table with `(row, id, arrive_ns)` queued.
        fn sim_with<'a>(cfg: &'a ServeConfig, queued: &[(usize, u64, f64)]) -> Sim<'a> {
            let mut sim = Sim::new(cfg, &Observe::default());
            for &(row, id, arrive_ns) in queued {
                let class = sim.classes[row].class;
                sim.classes[row].queue.push_back(Request { id, class, arrive_ns, client: None });
            }
            sim
        }

        // FIFO, both windows over: equal head arrivals, the lower id wins.
        let mut sim = sim_with(&cfg, &[(0, 9, 100.0), (1, 4, 100.0)]);
        assert_eq!(sim.pick_ready(60_000.0), Some(1));
        assert!(sim.events.is_empty(), "no class is waiting");

        // A full queue is ready before its window ends, ahead of an older
        // head still waiting; the waiting class is armed exactly once.
        let full: Vec<(usize, u64, f64)> = (1..=4).map(|id| (2, id, 10.0 * id as f64)).collect();
        let mut sim = sim_with(&cfg, &[&[(0, 0, 0.0)], full.as_slice()].concat());
        assert_eq!(sim.pick_ready(20_000.0), Some(2));
        assert_eq!(sim.events.len(), 1, "one wake-up for the waiting class");
        let Reverse(wake) = sim.events.peek().expect("armed");
        assert!(matches!(wake.kind, EventKind::WindowExpire(c) if c == classes[0]));
        assert_eq!(wake.time, 50_000.0);
        assert_eq!(sim.pick_ready(20_000.0), Some(2));
        assert_eq!(sim.events.len(), 1, "a second pass at the same time arms nothing");

        // Weighted-fair: the least attained service over weight wins.
        cfg.control.dequeue =
            DequeuePolicy::weighted_fair(vec![(classes[1], 2.0), (classes[2], 4.0)]);
        let mut sim = sim_with(&cfg, &[(0, 0, 0.0), (1, 1, 10.0), (2, 2, 20.0)]);
        for (row, attained) in [100.0, 150.0, 440.0].into_iter().enumerate() {
            sim.classes[row].attained_ns = attained;
        }
        assert_eq!(sim.pick_ready(60_000.0), Some(1), "150 / 2 < 100 / 1 < 440 / 4");

        // EDF: the earliest absolute deadline wins.
        cfg.control.dequeue = DequeuePolicy::earliest_deadline(vec![
            (classes[0], 900.0),
            (classes[1], 500.0),
            (classes[2], 100.0),
        ]);
        let mut sim = sim_with(&cfg, &[(0, 0, 0.0), (1, 1, 100.0), (2, 2, 650.0)]);
        assert_eq!(sim.pick_ready(60_000.0), Some(1), "600 < 750 < 900");
    }

    #[test]
    fn same_seed_bitwise_identical() {
        let cfg = ServeConfig::example();
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a, b);
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(simulate(&other), a);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        // tests/observers.rs pins every observer's invisibility; this
        // checks the trace's own accounting against its report.
        let cfg = ServeConfig::example();
        let traced = simulate_observed(&cfg, &Observe { trace: true, ..Observe::default() });
        let report = &traced.report;
        let trace = traced.trace.expect("trace requested");
        // Conservation: one root span per arrival, one invocation span
        // per batch; every tree satisfies the span invariants.
        assert_eq!(trace.requests.len() as u64, report.arrivals);
        let completed = trace.requests.iter().filter(|r| r.outcome.is_completed()).count();
        assert_eq!(completed as u64, report.completed);
        assert_eq!(trace.batches.len() as u64, report.batches);
        assert_eq!(trace.makespan_ns, report.makespan_ns);
        trace.validate().expect("all span trees valid");
        assert!(!trace.samples.is_empty());
    }

    #[test]
    fn per_class_breakdown_sums_to_totals() {
        use crate::arrival::WorkloadMix;
        let mut cfg = ServeConfig::example();
        cfg.mix = WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.7),
            (RequestClass::new(ModelKind::Tiny, 32), 0.3),
        ]);
        let r = simulate(&cfg);
        assert_eq!(r.per_class.len(), 2);
        let sum =
            |f: fn(&crate::slo::ClassSloReport) -> u64| -> u64 { r.per_class.iter().map(f).sum() };
        assert_eq!(sum(|c| c.arrivals), r.arrivals);
        assert_eq!(sum(|c| c.completed), r.completed);
        assert_eq!(sum(|c| c.good), r.good);
        assert_eq!(sum(|c| c.late), r.late);
        assert_eq!(sum(|c| c.rejected), r.rejected);
        assert_eq!(sum(|c| c.expired), r.expired);
        // Classes are reported in class order and goodput splits too.
        assert!(r.per_class[0].class < r.per_class[1].class);
        let goodput: f64 = r.per_class.iter().map(|c| c.goodput_rps).sum();
        assert!((goodput - r.goodput_rps).abs() < 1e-6 * r.goodput_rps.max(1.0));
    }

    #[test]
    fn utilization_and_latency_sane() {
        let cfg = ServeConfig::example();
        let r = simulate(&cfg);
        assert_eq!(r.utilization.len(), cfg.fleet);
        for u in &r.utilization {
            assert!((0.0..=1.0 + 1e-9).contains(u), "{u}");
        }
        // Latency can never beat the batch-of-one service floor.
        let model = ServiceModel::new(cfg.service.clone(), &cfg.mix.classes());
        let floor_ms = model.unit_latency_ns(RequestClass::new(ModelKind::Tiny, 16)) / 1e6;
        assert!(r.latency.p50_ms >= floor_ms * 0.999, "{} < {floor_ms}", r.latency.p50_ms);
        assert!(r.latency.max_ms >= r.latency.p99_ms);
        assert!(r.latency.p99_ms >= r.latency.p50_ms);
    }

    #[test]
    fn closed_loop_bounds_outstanding_requests() {
        let clients = 5;
        let mut cfg = ServeConfig::example();
        cfg.arrival = ArrivalProcess::closed_loop(clients, 50_000.0);
        let r = simulate(&cfg);
        assert!(r.completed > 0);
        assert!(r.max_in_system <= clients as u64, "{}", r.max_in_system);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn tiny_queue_rejects_under_overload() {
        let mut cfg = ServeConfig::example();
        cfg.max_queue = 2;
        cfg.fleet = 1;
        cfg.arrival = ArrivalProcess::poisson(200_000.0);
        let r = simulate(&cfg);
        assert!(r.rejected > 0, "overload must trip admission control");
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn batching_beats_baseline_at_saturation() {
        // Fleet-2 capacity for the example's Tiny class: ~74 krps at
        // batch 1, ~215 krps at batch 8 — 120 krps saturates the
        // baseline but not the batcher.
        let mut batched = ServeConfig::example();
        batched.arrival = ArrivalProcess::poisson(120_000.0);
        batched.policy = BatchPolicy::new(8, 100_000.0);
        batched.max_queue = 512;
        let mut baseline = batched.clone();
        baseline.policy = BatchPolicy::no_batching();
        let rb = simulate(&batched);
        let r1 = simulate(&baseline);
        assert!(rb.mean_batch_size > 1.0, "{}", rb.mean_batch_size);
        assert!(
            rb.goodput_rps > r1.goodput_rps,
            "batched {} vs baseline {}",
            rb.goodput_rps,
            r1.goodput_rps
        );
    }

    #[test]
    fn mmpp_burst_traffic_runs() {
        let mut cfg = ServeConfig::example();
        cfg.arrival = ArrivalProcess::mmpp(5_000.0, 80_000.0, 1e6, 5e5);
        let r = simulate(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.arrivals, r.completed + r.rejected + r.expired);
    }

    #[test]
    fn telemetry_records_request_lifecycle() {
        let cfg = ServeConfig::example();
        let (report, snap) = star_telemetry::with_scoped(|| simulate(&cfg));
        assert_eq!(snap.counters["serve.requests.arrived"], report.arrivals);
        assert_eq!(snap.counters["serve.requests.completed"], report.completed);
        assert_eq!(snap.counters["serve.batches.dispatched"], report.batches);
        assert_eq!(snap.histograms["serve.latency_us"].total, report.completed);
        assert!(snap.gauges["serve.energy.total_pj"] > 0.0);
    }

    #[test]
    #[should_panic(expected = "fleet")]
    fn zero_fleet_rejected() {
        let mut cfg = ServeConfig::example();
        cfg.fleet = 0;
        let _ = simulate(&cfg);
    }

    #[test]
    fn health_monitoring_is_observation_only() {
        // tests/observers.rs pins that the monitor perturbs nothing; this
        // checks its ledgers against the report.
        let cfg = ServeConfig::example();
        let hc = HealthConfig::default();
        let monitored =
            simulate_observed(&cfg, &Observe { health: Some(hc), ..Observe::default() });
        let report = &monitored.report;
        let health = monitored.health.expect("health requested");
        assert_eq!(health.instances.len(), cfg.fleet);
        assert!(!health.wear_leveling);

        // Ledger accounting identities against the event loop's own
        // counters: ledger invocations/requests == dispatched batches /
        // completed requests, and busy time reconciles with the
        // utilization vector.
        let inv: u64 = health.instances.iter().map(|i| i.ledger.invocations).sum();
        let req: u64 = health.instances.iter().map(|i| i.ledger.requests).sum();
        assert_eq!(inv, report.batches);
        assert_eq!(req, report.completed);
        for (i, u) in report.utilization.iter().enumerate() {
            let ledger_busy = health.instances[i].ledger.busy_ns;
            assert!(
                (ledger_busy - u * report.makespan_ns).abs() <= 1e-6 * ledger_busy.max(1.0),
                "instance {i}"
            );
        }
        let energy: f64 = health.instances.iter().map(|i| i.ledger.energy_pj).sum();
        assert!((energy - report.total_energy_pj).abs() <= 1e-9 * energy.max(1.0));

        // The per-op accounting identity: ledger ops equal costed
        // invocations × ops/invocation, summed over the trace's batches.
        let traced = simulate_observed(
            &cfg,
            &Observe { trace: true, health: Some(hc), ..Observe::default() },
        );
        let trace = traced.trace.expect("trace requested");
        let health = traced.health.expect("health requested");
        let mut expected = 0u64;
        for b in &trace.batches {
            expected += crate::health::invocation_wear(b.class, b.size).cam_searches;
        }
        let cam: u64 = health.instances.iter().map(|i| i.ledger.cam_searches).sum();
        assert_eq!(cam, expected, "ledger writes == costed invocations x writes/invocation");
        assert!(!trace.health.is_empty(), "trace carries the health timeseries");
    }

    #[test]
    fn profiled_run_matches_unprofiled_report() {
        // tests/observers.rs pins that profiling perturbs nothing; this
        // checks the work counters against the report.
        let cfg = ServeConfig::example();
        let profiled = simulate_profiled(&cfg);
        let report = &profiled.report;
        let p = profiled.profile.expect("profile requested");

        // Work-counter accounting identities against the report.
        let w = &p.work;
        assert_eq!(w.events_arrive, report.arrivals);
        assert_eq!(w.batches_formed, report.batches);
        assert_eq!(w.batch_members, report.completed);
        assert_eq!(w.expired_drops, report.expired);
        assert_eq!(
            w.events_total,
            w.events_arrive
                + w.events_window_expire
                + w.events_instance_free
                + w.events_scale_check
        );
        assert_eq!(w.events_scale_check, 0, "no autoscaler configured");
        assert_eq!(w.dispatch_scans_fifo, w.dispatch_scans, "FIFO default owns every scan");
        assert_eq!(w.dispatch_scans_wfq + w.dispatch_scans_edf, 0);
        assert_eq!(w.events_instance_free, report.batches, "one free event per invocation");
        assert_eq!(w.heap_pushes, w.heap_pops, "the heap drains completely");
        assert_eq!(w.queue_depth_hist.total(), w.events_total);
        assert_eq!(w.backlog_hist.total(), w.events_total);
        assert!(w.heap_peak > 0);
        assert!(w.dispatch_rounds > 0);
        assert!(w.dispatch_scans >= w.batches_formed);
        assert!(w.telemetry_ops > 0);

        // Wall-clock attribution: machine-dependent values, but the call
        // counts are deterministic consequences of the event counts.
        assert_eq!(p.wall.stats(phase::ARRIVE).calls, w.events_arrive);
        assert_eq!(p.wall.stats(phase::INSTANCE_FREE).calls, w.events_instance_free);
        assert_eq!(p.wall.stats(phase::SAMPLE_HOOKS).calls, w.events_total);
        assert_eq!(p.wall.stats(phase::DISPATCH).calls, w.dispatch_rounds);
        assert_eq!(p.wall.stats(phase::BATCH_COST).calls, w.batches_formed);
        assert_eq!(p.wall.stats(phase::FINALIZE).calls, 1);
        assert_eq!(p.wall.stats(phase::TRACE_EMIT).calls, 0, "no trace attached");
        assert_eq!(p.wall.stats(phase::HEALTH_DISPATCH).calls, 0, "no monitor attached");
        assert!(p.wall_total_ns > 0);
        assert!(p.events_per_sec() > 0.0);
    }

    #[test]
    fn profiled_with_composes_with_trace_and_health() {
        let cfg = ServeConfig::example();
        let health = Some(HealthConfig::default());
        let full = simulate_observed(
            &cfg,
            &Observe { trace: true, health, profile: true, ..Observe::default() },
        );
        let p = full.profile.expect("profile requested");
        // One trace-emit interval per batch and per request.
        let trace = full.trace.expect("trace requested");
        let emits = (trace.batches.len() + trace.requests.len()) as u64;
        assert_eq!(p.wall.stats(phase::TRACE_EMIT).calls, emits);
        assert_eq!(p.wall.stats(phase::HEALTH_DISPATCH).calls, p.work.batches_formed);
    }

    #[test]
    fn wear_leveling_reduces_ledger_skew() {
        // Light load on a wide fleet: lowest-index placement starves the
        // high instances, round-robin spreads the work.
        let mut cfg = ServeConfig::example();
        cfg.fleet = 4;
        cfg.arrival = ArrivalProcess::poisson(5_000.0);
        let monitored = |wear_leveling| {
            let health = HealthConfig { wear_leveling };
            simulate_observed(&cfg, &Observe { health: Some(health), ..Observe::default() })
        };
        let (off, on) = (monitored(false), monitored(true));
        let (off_h, on_h) = (off.health.expect("health"), on.health.expect("health"));
        assert!(off_h.wear_skew > on_h.wear_skew, "{} vs {}", off_h.wear_skew, on_h.wear_skew);
        assert!(on_h.wear_leveling);
        // Placement changes *which* instance runs a batch, never the
        // batching or timing decisions: identical totals and latency.
        let rows = |h: &crate::health::FleetHealthReport| -> u64 {
            h.instances.iter().map(|i| i.ledger.rows).sum()
        };
        assert_eq!(rows(&off_h), rows(&on_h));
        assert_eq!(off.report.completed, on.report.completed);
        assert_eq!(off.report.latency, on.report.latency);
        assert_eq!(off.report.goodput_rps, on.report.goodput_rps);
    }

    #[test]
    fn monitored_telemetry_publishes_health_gauges() {
        let cfg = ServeConfig::example();
        let health = Some(HealthConfig::default());
        let (outcome, snap) = star_telemetry::with_scoped(|| {
            simulate_observed(&cfg, &Observe { health, ..Observe::default() })
        });
        let health = outcome.health.expect("health");
        for i in 0..cfg.fleet {
            let reads = snap.gauges[&format!("serve.health.i{i}.reads")];
            assert_eq!(reads, health.instances[i].ledger.reads() as f64);
            assert!(snap.gauges.contains_key(&format!("serve.health.i{i}.temperature_k")));
            assert!(snap.gauges.contains_key(&format!("serve.health.i{i}.accuracy_margin")));
        }
        assert_eq!(snap.gauges["serve.health.wear_skew"], health.wear_skew);
    }

    #[test]
    fn flight_recording_is_observation_only() {
        // tests/observers.rs pins that the recorder perturbs nothing; this
        // checks its rings against the report and the profiler.
        let cfg = ServeConfig::example();
        let recorded =
            simulate_observed(&cfg, &Observe { flight: true, profile: true, ..Observe::default() });
        let report = &recorded.report;
        let flight = recorded.flight.expect("flight requested");

        // Ring conservation and accounting identities against the
        // report and the self-profiler's event counts.
        assert_eq!(flight.events_seen, flight.events_retained + flight.events_evicted);
        assert_eq!(flight.terminals_seen, flight.terminals_retained + flight.terminals_evicted);
        assert_eq!(
            flight.terminals_seen,
            report.completed + report.rejected + report.expired,
            "every request reaches exactly one terminal row"
        );
        let work = recorded.profile.expect("profile requested").work;
        assert_eq!(flight.events_seen, work.events_total);
    }

    #[test]
    fn flight_triggers_fire_under_overload() {
        // The tiny-queue overload config floods a 1-instance fleet, so
        // the burn and expiry-burst triggers have material to fire on
        // (its 16-request queue never reaches the queue-depth trigger).
        let cfg = ServeConfig {
            fleet: 1,
            arrival: ArrivalProcess::poisson(120_000.0),
            max_queue: 16,
            deadline_ns: 1e6,
            ..ServeConfig::example()
        };
        let out = simulate_observed(&cfg, &Observe { flight: true, ..Observe::default() });
        let flight = out.flight.expect("flight requested");
        assert!(flight.triggers_fired > 0, "overload must trip a trigger");
        assert_eq!(flight.incidents.len(), 1, "one incident budgeted");
        let dump = &flight.incidents[0];
        assert_eq!(dump.triggers[0].kind, crate::flight::TriggerKind::BurnRate);
        assert!(dump.window_start_ns <= dump.triggers[0].t_ns);
        assert!(dump.triggers[0].t_ns <= dump.window_end_ns);
        // The report's waterfall reconciles: components sum to total.
        let w = &dump.report.waterfall;
        if w.completed > 0 {
            assert!(
                (w.component_sum_ms() - w.total_ms).abs() <= 1e-6 * w.total_ms.max(1e-9),
                "waterfall components sum to total latency"
            );
        }
        // Per-class terminals in the window never exceed the run totals.
        let good: u64 = dump.report.per_class.iter().map(|c| c.good).sum();
        let rejected: u64 = dump.report.per_class.iter().map(|c| c.rejected).sum();
        assert!(good <= out.report.good);
        assert!(rejected <= out.report.rejected);
    }
}
