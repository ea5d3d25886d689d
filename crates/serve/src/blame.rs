//! Critical-path blame attribution and the deterministic what-if engine.
//!
//! The self-profiler (PR 6) attributes *simulator wall-clock*; this
//! module attributes *simulated request latency*. Every completed
//! request's end-to-end latency is split into causally-labelled
//! components:
//!
//! - **admission** — queued behind other ready work (the dispatcher
//!   chose other classes, or the batch ahead of this one on the same
//!   class);
//! - **hold** — the batch-window hold: the batcher deliberately waited
//!   for more members before the batch was dispatchable;
//! - **busy** — the chosen instance was still draining its *previous*
//!   invocation (the blocking edge the chain analysis follows);
//! - the five [`InvocationPhases`] — `overhead`, `projection`,
//!   `qk_fill`, `softmax_stream`, `av_drain` — once on hardware.
//!
//! # Conservation identity
//!
//! The eight components sum **bitwise** to the end-to-end latency. The
//! same residual discipline as
//! [`ServiceModel::invocation_phases`](crate::model::ServiceModel::invocation_phases)
//! makes that exact rather than approximate: `av_drain` is
//! computed as `latency − analytic` with `analytic` accumulated in the
//! *same left-associated grouping* [`RequestBlame::components_sum`]
//! uses. The analytic prefix is within a factor of two of the latency
//! (the drain is one pipeline row of a multi-row invocation), so by
//! Sterbenz's lemma the subtraction is exact and the recomposition
//! rounds to the latency itself. `admission` is likewise the exact
//! queue-side residual `(queue − hold) − busy`, which keeps it honest
//! at the cost of admitting ulp-scale negatives.
//!
//! # Batch readiness
//!
//! A batch's *ready time* is when its membership first became
//! dispatchable: `min(last member arrival, head arrival + window,
//! dispatch)`. Members arriving before it are holding for the window;
//! any gap from ready to dispatch is the instance's fault (`busy`, up
//! to the previous invocation's completion) or the scheduler's
//! (`admission`). Blocking is intra-instance by construction —
//! invocations on one instance are serial — so every blocking edge
//! points at the same instance's previous batch, and chains of
//! back-to-back blocked invocations surface as [`BlockingChain`]s.
//!
//! # What-if engine
//!
//! Coz-style causal profiling made exact by re-simulation: a
//! [`WhatIf`] intervention re-runs the *same seeded workload* under a
//! counterfactual (one service phase scaled, the batch window zeroed,
//! one more instance, a different placement policy) and reports
//! Δp99 / Δgoodput / Δenergy against the baseline as a ranked
//! "optimize this next" table. [`WhatIf::Identity`] reproduces the
//! baseline bitwise — the engine's determinism witness.
//!
//! # Determinism
//!
//! The recorder consumes **zero RNG draws** and performs no event
//! arithmetic: it only observes batch completions. Reports, traces,
//! goldens, and telemetry are bitwise identical with blame on or off,
//! at any `STAR_EXEC_THREADS` (the `observers` suite and CI pin both).

use crate::control::PlacementPolicy;
use crate::flight::row_from_content;
use crate::model::{InvocationPhases, ServicePhase};
use crate::request::{Request, RequestClass};
use crate::sim::{simulate_scaled, ServeConfig, Terminal};
use crate::slo::ServeReport;
use crate::trace::RequestOutcome;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use star_telemetry::ChromeTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Top-level JSON key under which [`BlameOutcome::to_object_json`]
/// embeds the machine-readable blame sidecar next to `traceEvents`
/// (the blame analogue of [`crate::trace::TRACE_SIDECAR_KEY`]).
pub const BLAME_SIDECAR_KEY: &str = "starServeBlame";

/// Blocking chains kept in the report.
const TOP_CHAINS: usize = 5;

/// One completed request's blame decomposition. Serializes as the
/// compact number array `[id, class, arrive_ns, latency_ns,
/// admission_ns, hold_ns, busy_ns, overhead_ns, projection_ns,
/// qk_fill_ns, softmax_stream_ns, av_drain_ns, instance, batch,
/// blocker]` (classes are ranks into the outcome's legend; `blocker`
/// is −1 when the request waited on no prior invocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestBlame {
    /// Request id.
    pub id: u64,
    /// Class rank into the outcome's class legend.
    pub class: i16,
    /// Arrival time, ns.
    pub arrive_ns: f64,
    /// End-to-end latency (arrival → completion), ns — exactly the
    /// simulator's own `finish − arrive`.
    pub latency_ns: f64,
    /// Queued behind other ready work, ns (exact residual; may carry
    /// ulp-scale negatives).
    pub admission_ns: f64,
    /// Batch-window hold, ns (bounded by the window length).
    pub hold_ns: f64,
    /// Blocked on the instance's previous invocation, ns.
    pub busy_ns: f64,
    /// Invocation overhead phase, ns.
    pub overhead_ns: f64,
    /// Projection phase, ns.
    pub projection_ns: f64,
    /// `QKᵀ` pipeline-fill phase, ns.
    pub qk_fill_ns: f64,
    /// Softmax streaming phase, ns.
    pub softmax_stream_ns: f64,
    /// Pipeline-drain residual, ns (absorbs the recomposition's
    /// rounding noise — see the module docs).
    pub av_drain_ns: f64,
    /// Instance that executed the request.
    pub instance: u32,
    /// Blame-table id of the batch it rode in.
    pub batch: u64,
    /// Blame-table id of the batch it was blocked behind (−1: none).
    pub blocker: i64,
}

impl RequestBlame {
    /// The eight components recomposed in the **pinned left-associated
    /// grouping** the residual was computed against — equals
    /// [`RequestBlame::latency_ns`] bitwise (the conservation
    /// identity; a proptest pins it).
    pub fn components_sum(&self) -> f64 {
        ((((((self.admission_ns + self.hold_ns) + self.busy_ns) + self.overhead_ns)
            + self.projection_ns)
            + self.qk_fill_ns)
            + self.softmax_stream_ns)
            + self.av_drain_ns
    }

    /// The components as `(label, duration_ns)` pairs in causal order.
    pub fn components(&self) -> [(&'static str, f64); 8] {
        [
            ("admission", self.admission_ns),
            ("hold", self.hold_ns),
            ("busy", self.busy_ns),
            ("overhead", self.overhead_ns),
            ("projection", self.projection_ns),
            ("qk_fill", self.qk_fill_ns),
            ("softmax_stream", self.softmax_stream_ns),
            ("av_drain", self.av_drain_ns),
        ]
    }
}

impl From<RequestBlame> for [f64; 15] {
    fn from(r: RequestBlame) -> Self {
        [
            r.id as f64,
            f64::from(r.class),
            r.arrive_ns,
            r.latency_ns,
            r.admission_ns,
            r.hold_ns,
            r.busy_ns,
            r.overhead_ns,
            r.projection_ns,
            r.qk_fill_ns,
            r.softmax_stream_ns,
            r.av_drain_ns,
            f64::from(r.instance),
            r.batch as f64,
            r.blocker as f64,
        ]
    }
}

impl From<[f64; 15]> for RequestBlame {
    fn from(v: [f64; 15]) -> Self {
        RequestBlame {
            id: v[0] as u64,
            class: v[1] as i16,
            arrive_ns: v[2],
            latency_ns: v[3],
            admission_ns: v[4],
            hold_ns: v[5],
            busy_ns: v[6],
            overhead_ns: v[7],
            projection_ns: v[8],
            qk_fill_ns: v[9],
            softmax_stream_ns: v[10],
            av_drain_ns: v[11],
            instance: v[12] as u32,
            batch: v[13] as u64,
            blocker: v[14] as i64,
        }
    }
}

impl Serialize for RequestBlame {
    fn to_content(&self) -> serde::Content {
        <[f64; 15]>::from(*self).to_content()
    }
}

impl Deserialize for RequestBlame {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        row_from_content::<15>(content, "request blame row").map(RequestBlame::from)
    }
}

/// One dispatched invocation in the blame table (ids are completion
/// order, so a blocking edge always points at a smaller id).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchBlame {
    /// Blame-table id (completion order).
    pub id: u64,
    /// Class rank into the outcome's class legend.
    pub class: i16,
    /// Instance that executed it.
    pub instance: u32,
    /// Member count.
    pub size: u32,
    /// When its membership first became dispatchable, ns.
    pub ready_ns: f64,
    /// Dispatch time, ns.
    pub dispatch_ns: f64,
    /// Completion time, ns.
    pub done_ns: f64,
    /// Ready-to-dispatch time spent waiting for the instance's previous
    /// invocation to drain, ns.
    pub busy_wait_ns: f64,
    /// Blame-table id of the previous invocation it waited on (−1: the
    /// instance was already free).
    pub blocker: i64,
}

/// Blame components aggregated over a set of completed requests
/// (milliseconds; accumulated in completion order, so the figures are
/// bitwise reproducible run-to-run).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlameComponents {
    /// Requests aggregated.
    pub requests: u64,
    /// Summed end-to-end latency, ms.
    pub total_ms: f64,
    /// Summed admission wait, ms.
    pub admission_ms: f64,
    /// Summed batch-window hold, ms.
    pub hold_ms: f64,
    /// Summed instance-busy wait, ms.
    pub busy_ms: f64,
    /// Summed overhead phase, ms.
    pub overhead_ms: f64,
    /// Summed projection phase, ms.
    pub projection_ms: f64,
    /// Summed `QKᵀ` fill phase, ms.
    pub qk_fill_ms: f64,
    /// Summed softmax streaming phase, ms.
    pub softmax_stream_ms: f64,
    /// Summed pipeline-drain residual, ms.
    pub av_drain_ms: f64,
}

impl BlameComponents {
    fn add(&mut self, r: &RequestBlame) {
        self.requests += 1;
        self.total_ms += r.latency_ns / 1e6;
        self.admission_ms += r.admission_ns / 1e6;
        self.hold_ms += r.hold_ns / 1e6;
        self.busy_ms += r.busy_ns / 1e6;
        self.overhead_ms += r.overhead_ns / 1e6;
        self.projection_ms += r.projection_ns / 1e6;
        self.qk_fill_ms += r.qk_fill_ns / 1e6;
        self.softmax_stream_ms += r.softmax_stream_ns / 1e6;
        self.av_drain_ms += r.av_drain_ns / 1e6;
    }

    /// The components as `(label, summed_ms)` pairs in causal order.
    pub fn pairs(&self) -> [(&'static str, f64); 8] {
        [
            ("admission", self.admission_ms),
            ("hold", self.hold_ms),
            ("busy", self.busy_ms),
            ("overhead", self.overhead_ms),
            ("projection", self.projection_ms),
            ("qk_fill", self.qk_fill_ms),
            ("softmax_stream", self.softmax_stream_ms),
            ("av_drain", self.av_drain_ms),
        ]
    }

    /// `component / total` shares in the same order as
    /// [`BlameComponents::pairs`] (zeros when no requests).
    pub fn shares(&self) -> [f64; 8] {
        let t = self.total_ms;
        let mut out = [0.0; 8];
        if t > 0.0 {
            for (o, (_, v)) in out.iter_mut().zip(self.pairs()) {
                *o = v / t;
            }
        }
        out
    }
}

/// Blame aggregated over one request class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassBlame {
    /// The class.
    pub class: RequestClass,
    /// Its aggregated components.
    pub components: BlameComponents,
}

/// Blame aggregated over one instance's completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceBlame {
    /// Instance index.
    pub instance: u32,
    /// Invocations it completed.
    pub batches: u64,
    /// Aggregated components of the requests it served (`busy_ms` is
    /// the wait its own previous invocations caused).
    pub components: BlameComponents,
}

/// Busy-wait attributed from a victim class to the class of the
/// blocking invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockedPair {
    /// Class whose requests waited.
    pub victim: RequestClass,
    /// Class of the invocation they waited on.
    pub blocker: RequestClass,
    /// Blocked requests.
    pub requests: u64,
    /// Summed busy wait, ms.
    pub busy_ms: f64,
}

/// A maximal run of back-to-back blocked invocations on one instance:
/// each link dispatched only after waiting for its predecessor to
/// drain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingChain {
    /// Blame-table id of the chain's final batch.
    pub tail: u64,
    /// Invocations in the chain (≥ 2: the tail plus what it waited on).
    pub length: u32,
    /// Total busy wait accumulated along the chain, ms.
    pub blocked_ms: f64,
    /// Instance the chain ran on.
    pub instance: u32,
    /// Class rank of the tail batch.
    pub class: i16,
}

/// The fleet-wide blame report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlameReport {
    /// Dequeue-policy label the run used.
    pub dequeue: String,
    /// Placement-policy label the run used.
    pub placement: String,
    /// Batch-window length, ns.
    pub window_ns: f64,
    /// Completed requests (each one decomposed).
    pub completed: u64,
    /// Rejected requests (no latency to decompose — admission refused).
    pub rejected: u64,
    /// Requests dropped at dispatch with an expired deadline.
    pub expired: u64,
    /// Total futile queue wait of expired requests, ms.
    pub expired_wait_ms: f64,
    /// The tail threshold: the run's exact p99 latency, ms.
    pub p99_latency_ms: f64,
    /// Components over every completed request.
    pub overall: BlameComponents,
    /// Components over the p99 tail (requests at or above the
    /// threshold) — compare against `overall` to see what the tail
    /// waits on that the mean does not.
    pub tail: BlameComponents,
    /// Per-class breakdown, class order.
    pub per_class: Vec<ClassBlame>,
    /// Per-instance breakdown, instance order.
    pub per_instance: Vec<InstanceBlame>,
    /// Victim-class × blocker-class busy-wait matrix, class order.
    pub blocking: Vec<BlockedPair>,
    /// The five maximal blocking chains with the most accumulated wait.
    pub chains: Vec<BlockingChain>,
}

fn render_components(out: &mut String, label: &str, c: &BlameComponents) {
    let _ =
        writeln!(out, "  {label:<10} {:>8} requests, {:>12.3} ms total", c.requests, c.total_ms);
    let shares = c.shares();
    for ((name, ms), share) in c.pairs().iter().zip(shares) {
        let _ = writeln!(out, "    {name:<16} {ms:>12.3} ms  {:>5.1}%", share * 100.0);
    }
}

impl BlameReport {
    /// Human-readable blame tables.
    pub fn render(&self, classes: &[RequestClass]) -> String {
        let class_name = |rank: i16| -> String {
            classes.get(rank.max(0) as usize).map_or_else(|| "?".to_string(), ToString::to_string)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path blame (dequeue={}, placement={}, window={:.1} us)",
            self.dequeue,
            self.placement,
            self.window_ns / 1e3
        );
        let _ = writeln!(
            out,
            "  completed {}  rejected {}  expired {} ({:.3} ms futile wait)",
            self.completed, self.rejected, self.expired, self.expired_wait_ms
        );
        render_components(&mut out, "overall", &self.overall);
        let _ = writeln!(out, "  p99 tail (latency >= {:.3} ms)", self.p99_latency_ms);
        render_components(&mut out, "tail", &self.tail);
        for cb in &self.per_class {
            render_components(&mut out, &cb.class.to_string(), &cb.components);
        }
        for ib in &self.per_instance {
            let _ = writeln!(
                out,
                "  instance {}: {} invocations, busy wait {:.3} ms of {:.3} ms total",
                ib.instance, ib.batches, ib.components.busy_ms, ib.components.total_ms
            );
        }
        if !self.blocking.is_empty() {
            let _ = writeln!(out, "  blocking matrix (victim <- blocker):");
            for p in &self.blocking {
                let _ = writeln!(
                    out,
                    "    {} <- {}: {} requests, {:.3} ms",
                    p.victim, p.blocker, p.requests, p.busy_ms
                );
            }
        }
        if !self.chains.is_empty() {
            let _ = writeln!(out, "  top blocking chains:");
            for c in &self.chains {
                let _ = writeln!(
                    out,
                    "    batch {} ({} on instance {}): length {}, {:.3} ms blocked",
                    c.tail,
                    class_name(c.class),
                    c.instance,
                    c.length,
                    c.blocked_ms
                );
            }
        }
        out
    }
}

/// Everything a blamed simulation produces: the aggregated report plus
/// the full per-request and per-batch blame tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlameOutcome {
    /// Class legend the rank fields index into.
    pub classes: Vec<RequestClass>,
    /// The aggregated report.
    pub report: BlameReport,
    /// Per-request decompositions, completion order.
    pub requests: Vec<RequestBlame>,
    /// Per-batch blocking table, completion order.
    pub batches: Vec<BatchBlame>,
}

impl BlameOutcome {
    /// Human-readable blame tables.
    pub fn render(&self) -> String {
        self.report.render(&self.classes)
    }

    /// Chrome-trace view: one counter track of the overall component
    /// shares plus a lane per blocking chain (the blocked interval
    /// ending at the tail batch's dispatch).
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_process(0, "blame");
        let series = self
            .report
            .overall
            .pairs()
            .iter()
            .map(|&(name, ms)| (name.to_string(), ms))
            .collect::<Vec<_>>();
        t.counter_ns("blame components (ms)", 0.0, 0, series);
        for c in &self.report.chains {
            let Some(tail) = self.batches.get(c.tail as usize) else { continue };
            let start_ns = tail.dispatch_ns - c.blocked_ms * 1e6;
            t.complete_ns(
                format!("chain b{} x{}", c.tail, c.length),
                "blocking",
                start_ns,
                c.blocked_ms * 1e6,
                0,
                u64::from(c.instance),
                json!({ "length": c.length, "blocked_ms": c.blocked_ms }),
            );
        }
        t
    }

    /// Serializes as a Chrome trace object with the machine-readable
    /// outcome embedded under [`BLAME_SIDECAR_KEY`].
    pub fn to_object_json(&self) -> Value {
        let sidecar = serde_json::to_value(self).expect("blame outcome serializes");
        self.to_chrome().to_object_json(vec![(BLAME_SIDECAR_KEY.to_string(), sidecar)])
    }

    /// Recovers the outcome from [`BlameOutcome::to_object_json`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a message when the sidecar key is missing or malformed.
    pub fn from_object_json(v: &Value) -> Result<Self, String> {
        let sidecar = v
            .get(BLAME_SIDECAR_KEY)
            .ok_or_else(|| format!("not a blame dump: missing `{BLAME_SIDECAR_KEY}` key"))?;
        serde_json::from_value(sidecar.clone())
            .map_err(|e| format!("malformed `{BLAME_SIDECAR_KEY}` sidecar: {e}"))
    }
}

/// The blame observer the simulator drives: one call per completed
/// batch (plus terminal counts), zero RNG draws, no event arithmetic.
#[derive(Debug)]
pub(crate) struct BlameRecorder {
    classes: Vec<RequestClass>,
    window_ns: f64,
    dequeue: String,
    placement: String,
    /// Per-instance previous invocation: (blame-table batch id,
    /// completion time) — the blocking edge's source.
    last_done: BTreeMap<u32, (u64, f64)>,
    requests: Vec<RequestBlame>,
    batches: Vec<BatchBlame>,
    rejected: u64,
    expired: u64,
    expired_wait_ns: f64,
}

impl BlameRecorder {
    /// A recorder over the run's class legend and policy labels.
    pub fn new(classes: Vec<RequestClass>, window_ns: f64, dequeue: &str, placement: &str) -> Self {
        BlameRecorder {
            classes,
            window_ns,
            dequeue: dequeue.to_string(),
            placement: placement.to_string(),
            last_done: BTreeMap::new(),
            requests: Vec::new(),
            batches: Vec::new(),
            rejected: 0,
            expired: 0,
            expired_wait_ns: 0.0,
        }
    }

    /// Rank of `class` in the legend (−1 when absent — cannot happen
    /// for classes the simulator feeds us, but total anyway).
    fn rank(&self, class: RequestClass) -> i16 {
        self.classes.iter().position(|&c| c == class).map_or(-1, |i| i as i16)
    }

    /// One request's end: counts a rejection (nothing to decompose), or
    /// a deadline expiry and its futile queue wait. Completions are
    /// decomposed per batch by [`BlameRecorder::on_batch`].
    pub fn on_terminal(&mut self, t: &Terminal) {
        match t.outcome {
            RequestOutcome::Rejected => self.rejected += 1,
            RequestOutcome::Expired => {
                self.expired += 1;
                self.expired_wait_ns += t.finish_ns - t.arrive_ns;
            }
            RequestOutcome::Good | RequestOutcome::Late => {}
        }
    }

    /// One completed invocation: decomposes every member's latency.
    /// Called from the simulator's `InstanceFree` handler in completion
    /// order, before the members are consumed.
    pub fn on_batch(
        &mut self,
        instance: usize,
        class: RequestClass,
        dispatch_ns: f64,
        done_ns: f64,
        members: &[Request],
        phases: &InvocationPhases,
    ) {
        debug_assert!(!members.is_empty(), "batches are never empty");
        let instance = instance as u32;
        let bid = self.batches.len() as u64;
        let rank = self.rank(class);
        let mut first_arrive = f64::INFINITY;
        let mut last_arrive = f64::NEG_INFINITY;
        for r in members {
            first_arrive = first_arrive.min(r.arrive_ns);
            last_arrive = last_arrive.max(r.arrive_ns);
        }
        // When the membership first became dispatchable: the arrival
        // that completed it, or the head's window expiry — whichever
        // came first — never later than the dispatch itself.
        let ready_ns = last_arrive.min(first_arrive + self.window_ns).min(dispatch_ns);
        let prev = self.last_done.get(&instance).copied();
        // The instance stopped being the bottleneck when its previous
        // invocation drained (clamped to the dispatch: any later wait
        // is the scheduler's, not the instance's).
        let busy_end_ns = prev.map_or(f64::NEG_INFINITY, |(_, done)| done).min(dispatch_ns);
        let busy_wait_ns = (busy_end_ns - ready_ns).max(0.0);
        let blocker = match prev {
            Some((prev_bid, _)) if busy_wait_ns > 0.0 => prev_bid as i64,
            _ => -1,
        };
        for r in members {
            // Same float ops as the simulator's own latency / queue
            // bookkeeping — the totals being attributed are *its*
            // totals, not recomputations.
            let latency_ns = done_ns - r.arrive_ns;
            let queue_ns = dispatch_ns - r.arrive_ns;
            let hold_ns = (ready_ns - r.arrive_ns).max(0.0);
            let busy_ns = (busy_end_ns - r.arrive_ns.max(ready_ns)).max(0.0);
            // Exact queue-side residual: whatever the hold and the
            // instance don't explain was spent queued behind other
            // ready work.
            let admission_ns = (queue_ns - hold_ns) - busy_ns;
            let member_blocker = if busy_ns > 0.0 { blocker } else { -1 };
            // Service-side residual, same grouping as
            // `components_sum` — the Sterbenz discipline that makes
            // the eight components recompose to `latency_ns` bitwise.
            let analytic = (((((admission_ns + hold_ns) + busy_ns) + phases.overhead_ns)
                + phases.projection_ns)
                + phases.qk_fill_ns)
                + phases.softmax_stream_ns;
            let av_drain_ns = latency_ns - analytic;
            let row = RequestBlame {
                id: r.id,
                class: rank,
                arrive_ns: r.arrive_ns,
                latency_ns,
                admission_ns,
                hold_ns,
                busy_ns,
                overhead_ns: phases.overhead_ns,
                projection_ns: phases.projection_ns,
                qk_fill_ns: phases.qk_fill_ns,
                softmax_stream_ns: phases.softmax_stream_ns,
                av_drain_ns,
                instance,
                batch: bid,
                blocker: member_blocker,
            };
            debug_assert_eq!(
                row.components_sum(),
                row.latency_ns,
                "blame components must recompose bitwise"
            );
            self.requests.push(row);
        }
        self.batches.push(BatchBlame {
            id: bid,
            class: rank,
            instance,
            size: members.len() as u32,
            ready_ns,
            dispatch_ns,
            done_ns,
            busy_wait_ns,
            blocker,
        });
        self.last_done.insert(instance, (bid, done_ns));
    }

    /// Aggregates the tables into the fleet-wide report.
    pub fn finalize(self) -> BlameOutcome {
        let BlameRecorder {
            classes,
            window_ns,
            dequeue,
            placement,
            last_done: _,
            requests,
            batches,
            rejected,
            expired,
            expired_wait_ns,
        } = self;
        let mut overall = BlameComponents::default();
        let mut tail = BlameComponents::default();
        let mut per_class: BTreeMap<i16, BlameComponents> = BTreeMap::new();
        let mut per_instance: BTreeMap<u32, (u64, BlameComponents)> = BTreeMap::new();
        let mut blocking: BTreeMap<(i16, i16), (u64, f64)> = BTreeMap::new();
        // The exact p99 order statistic, same convention as
        // `LatencyStats::from_ns_samples`. Under `total_cmp` it is one
        // bit pattern, so selecting it reads what a full sort would.
        let threshold_ns = {
            let mut latencies: Vec<f64> = requests.iter().map(|r| r.latency_ns).collect();
            if latencies.is_empty() {
                f64::INFINITY
            } else {
                let n = latencies.len();
                let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
                *latencies.select_nth_unstable_by(rank - 1, f64::total_cmp).1
            }
        };
        for r in &requests {
            overall.add(r);
            if r.latency_ns >= threshold_ns {
                tail.add(r);
            }
            per_class.entry(r.class).or_default().add(r);
            per_instance.entry(r.instance).or_default().1.add(r);
            if r.busy_ns > 0.0 && r.blocker >= 0 {
                let blocker_class = batches[r.blocker as usize].class;
                let cell = blocking.entry((r.class, blocker_class)).or_default();
                cell.0 += 1;
                cell.1 += r.busy_ns / 1e6;
            }
        }
        for b in &batches {
            per_instance.entry(b.instance).or_default().0 += 1;
        }
        // Chain DP over the blocking edges (edges point backwards in
        // completion order, so one forward pass suffices), then keep
        // the heaviest *maximal* chains — a chain's prefixes never
        // shadow it in the top-K.
        let mut chain_len: Vec<u32> = vec![1; batches.len()];
        let mut chain_blocked: Vec<f64> = vec![0.0; batches.len()];
        let mut extended: Vec<bool> = vec![false; batches.len()];
        for (i, b) in batches.iter().enumerate() {
            if b.blocker >= 0 {
                let p = b.blocker as usize;
                chain_len[i] = chain_len[p] + 1;
                chain_blocked[i] = b.busy_wait_ns + chain_blocked[p];
                extended[p] = true;
            } else {
                chain_blocked[i] = b.busy_wait_ns;
            }
        }
        let mut chains: Vec<BlockingChain> = batches
            .iter()
            .enumerate()
            .filter(|&(i, _)| !extended[i] && chain_len[i] >= 2)
            .map(|(i, b)| BlockingChain {
                tail: b.id,
                length: chain_len[i],
                blocked_ms: chain_blocked[i] / 1e6,
                instance: b.instance,
                class: b.class,
            })
            .collect();
        chains.sort_by(|a, b| b.blocked_ms.total_cmp(&a.blocked_ms).then(a.tail.cmp(&b.tail)));
        chains.truncate(TOP_CHAINS);
        let report = BlameReport {
            dequeue,
            placement,
            window_ns,
            completed: requests.len() as u64,
            rejected,
            expired,
            expired_wait_ms: expired_wait_ns / 1e6,
            p99_latency_ms: if threshold_ns.is_finite() { threshold_ns / 1e6 } else { 0.0 },
            overall,
            tail,
            per_class: per_class
                .into_iter()
                .map(|(rank, components)| ClassBlame {
                    class: classes[rank.max(0) as usize],
                    components,
                })
                .collect(),
            per_instance: per_instance
                .into_iter()
                .map(|(instance, (batches, components))| InstanceBlame {
                    instance,
                    batches,
                    components,
                })
                .collect(),
            blocking: blocking
                .into_iter()
                .map(|((victim, blocker), (requests, busy_ms))| BlockedPair {
                    victim: classes[victim.max(0) as usize],
                    blocker: classes[blocker.max(0) as usize],
                    requests,
                    busy_ms,
                })
                .collect(),
            chains,
        };
        BlameOutcome { classes, report, requests, batches }
    }
}

/// A phase-scaling intervention: `factor` on one [`ServicePhase`]'s
/// latency lever (0.5 halves it, 2.0 doubles it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseScale {
    /// The phase to scale.
    pub phase: ServicePhase,
    /// The latency factor (finite, positive).
    pub factor: f64,
}

/// One counterfactual the what-if engine re-simulates. Every variant
/// re-runs the *same seeded workload* — the comparison is causal, not
/// statistical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WhatIf {
    /// No change — must reproduce the baseline bitwise (the engine's
    /// determinism witness; a test pins it).
    Identity,
    /// Scale one service phase's latency lever.
    ScalePhase(PhaseScale),
    /// Zero the batch window (dispatch eagerly, hold for nothing).
    ZeroWindow,
    /// Add one instance to the fleet (heterogeneous fleets clone their
    /// last engine).
    AddInstance,
    /// Swap the placement policy.
    Placement(PlacementPolicy),
}

impl WhatIf {
    /// Stable label for tables and goldens.
    pub fn label(&self) -> String {
        match self {
            WhatIf::Identity => "identity".to_string(),
            WhatIf::ScalePhase(s) => format!("scale {} x{}", s.phase.as_str(), s.factor),
            WhatIf::ZeroWindow => "zero batch window".to_string(),
            WhatIf::AddInstance => "+1 instance".to_string(),
            WhatIf::Placement(p) => format!("placement {}", p.name()),
        }
    }

    /// The counterfactual configuration plus the post-construction
    /// phase scaling (kept out of the config so intervention runs never
    /// perturb config serialization).
    pub fn apply(&self, base: &ServeConfig) -> (ServeConfig, Option<(ServicePhase, f64)>) {
        let mut cfg = base.clone();
        let scale = match self {
            WhatIf::Identity => None,
            WhatIf::ScalePhase(s) => Some((s.phase, s.factor)),
            WhatIf::ZeroWindow => {
                cfg.policy.window_ns = 0.0;
                None
            }
            WhatIf::AddInstance => {
                cfg.fleet += 1;
                if let Some(last) = cfg.control.instance_services.last().cloned() {
                    cfg.control.instance_services.push(last);
                }
                None
            }
            WhatIf::Placement(p) => {
                cfg.control.placement = *p;
                None
            }
        };
        (cfg, scale)
    }

    /// The standard intervention menu the CLI and A11 run: halve each
    /// of the five service phases, zero the window, add an instance,
    /// and try least-loaded placement.
    pub fn standard() -> Vec<WhatIf> {
        let mut v: Vec<WhatIf> = ServicePhase::ALL
            .iter()
            .map(|&phase| WhatIf::ScalePhase(PhaseScale { phase, factor: 0.5 }))
            .collect();
        v.push(WhatIf::ZeroWindow);
        v.push(WhatIf::AddInstance);
        v.push(WhatIf::Placement(PlacementPolicy::LeastLoaded));
        v
    }
}

/// One what-if table row: the intervention's absolute metrics plus its
/// deltas against the baseline (negative Δp99 = faster tail).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfRow {
    /// Intervention label ("baseline" for the reference row).
    pub label: String,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Goodput, requests/s.
    pub goodput_rps: f64,
    /// Energy per completed request, nJ.
    pub energy_per_request_nj: f64,
    /// `p99 − baseline p99`, ms.
    pub delta_p99_ms: f64,
    /// `goodput − baseline goodput`, requests/s.
    pub delta_goodput_rps: f64,
    /// `energy/req − baseline energy/req`, nJ.
    pub delta_energy_nj: f64,
}

impl WhatIfRow {
    fn from_report(label: String, r: &ServeReport, base: &ServeReport) -> Self {
        WhatIfRow {
            label,
            p99_ms: r.latency.p99_ms,
            goodput_rps: r.goodput_rps,
            energy_per_request_nj: r.energy_per_request_nj,
            delta_p99_ms: r.latency.p99_ms - base.latency.p99_ms,
            delta_goodput_rps: r.goodput_rps - base.goodput_rps,
            delta_energy_nj: r.energy_per_request_nj - base.energy_per_request_nj,
        }
    }
}

/// The ranked "optimize this next" table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// The unmodified run's metrics.
    pub baseline: WhatIfRow,
    /// Interventions ranked by Δp99 ascending (best first; ties break
    /// on the label).
    pub interventions: Vec<WhatIfRow>,
}

impl WhatIfReport {
    /// The top-ranked intervention (`None` when the menu was empty).
    pub fn best(&self) -> Option<&WhatIfRow> {
        self.interventions.first()
    }

    /// Human-readable ranked table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "what-if (baseline: p99 {:.3} ms, goodput {:.0} rps, {:.1} nJ/req)",
            self.baseline.p99_ms, self.baseline.goodput_rps, self.baseline.energy_per_request_nj
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>11} {:>12} {:>12}",
            "intervention", "p99 ms", "d p99 ms", "d goodput", "d nJ/req"
        );
        for r in &self.interventions {
            let _ = writeln!(
                out,
                "  {:<28} {:>10.3} {:>+11.3} {:>+12.1} {:>+12.2}",
                r.label, r.p99_ms, r.delta_p99_ms, r.delta_goodput_rps, r.delta_energy_nj
            );
        }
        out
    }
}

/// Runs every intervention on the same seeded workload as `base`, the
/// report of `cfg`'s own run, and ranks the outcomes by Δp99 against it.
/// Deterministic end to end: each run is an ordinary simulation, so the
/// table is bitwise reproducible at any thread count.
pub fn run_what_ifs(
    cfg: &ServeConfig,
    base: &ServeReport,
    interventions: &[WhatIf],
) -> WhatIfReport {
    let baseline = WhatIfRow::from_report("baseline".to_string(), base, base);
    let mut rows: Vec<WhatIfRow> = interventions
        .iter()
        .map(|w| {
            let (wcfg, scale) = w.apply(cfg);
            let r = simulate_scaled(&wcfg, scale);
            WhatIfRow::from_report(w.label(), &r, base)
        })
        .collect();
    rows.sort_by(|a, b| a.delta_p99_ms.total_cmp(&b.delta_p99_ms).then(a.label.cmp(&b.label)));
    WhatIfReport { baseline, interventions: rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, simulate_observed, Observe, SimOutcome};

    fn blamed(cfg: &ServeConfig, trace: bool) -> SimOutcome {
        simulate_observed(cfg, &Observe { trace, blame: true, ..Observe::default() })
    }

    fn blamed_example() -> BlameOutcome {
        blamed(&ServeConfig::example(), false).blame.expect("blame attached")
    }

    #[test]
    fn components_recompose_bitwise() {
        let out = blamed_example();
        assert!(!out.requests.is_empty());
        for r in &out.requests {
            assert_eq!(r.components_sum(), r.latency_ns, "req {}", r.id);
        }
    }

    #[test]
    fn blame_is_observation_only() {
        let cfg = ServeConfig::example();
        let plain = simulate(&cfg);
        assert_eq!(plain, blamed(&cfg, false).report);
    }

    #[test]
    fn decomposition_matches_lifecycle_records() {
        let cfg = ServeConfig::example();
        let outcome = blamed(&cfg, true);
        let blame = outcome.blame.as_ref().expect("blame attached");
        let trace = outcome.trace.as_ref().expect("trace attached");
        let completed: Vec<_> =
            trace.requests.iter().filter(|r| r.outcome.is_completed()).collect();
        assert_eq!(blame.requests.len(), completed.len());
        for (b, rec) in blame.requests.iter().zip(completed) {
            assert_eq!(b.id, rec.id);
            assert_eq!(b.arrive_ns, rec.arrive_ns);
            assert_eq!(b.latency_ns, rec.latency_ns());
            assert_eq!(Some(b.instance as usize), rec.instance);
            // Queue-side components recompose to the record's queue
            // delay up to rounding; service-side to the service time.
            let queue_ns = trace.batches[rec.batch.expect("completed")].dispatch_ns - rec.arrive_ns;
            let queue = (b.admission_ns + b.hold_ns) + b.busy_ns;
            assert!(
                (queue - queue_ns).abs() <= 1e-6 * queue_ns.abs().max(1.0),
                "queue side: {queue} vs {queue_ns}"
            );
        }
        let report = &blame.report;
        assert_eq!(report.completed, outcome.report.completed);
        assert_eq!(report.rejected, outcome.report.rejected);
        assert_eq!(report.expired, outcome.report.expired);
        assert_eq!(report.p99_latency_ms, outcome.report.latency.p99_ms);
    }

    #[test]
    fn hold_is_bounded_by_the_window() {
        let out = blamed_example();
        let w = out.report.window_ns;
        for r in &out.requests {
            assert!(r.hold_ns <= w * (1.0 + 1e-12), "hold {} > window {w}", r.hold_ns);
            assert!(r.hold_ns >= 0.0 && r.busy_ns >= 0.0);
            // Admission is an exact residual: non-negative up to
            // ulp-scale rounding.
            assert!(r.admission_ns >= -1e-6 * r.latency_ns.abs(), "{}", r.admission_ns);
        }
    }

    #[test]
    fn blocking_edges_point_backwards_on_the_same_instance() {
        let out = blamed_example();
        for b in &out.batches {
            if b.blocker >= 0 {
                let p = &out.batches[b.blocker as usize];
                assert!(p.id < b.id, "blocker completes first");
                assert_eq!(p.instance, b.instance, "blocking is intra-instance");
                assert!(p.done_ns <= b.dispatch_ns + 1e-9);
                assert!(b.busy_wait_ns > 0.0);
            }
        }
        for c in &out.report.chains {
            assert!(c.length >= 2);
            assert!(c.blocked_ms > 0.0);
        }
    }

    #[test]
    fn aggregates_cover_every_request() {
        let out = blamed_example();
        let per_class: u64 = out.report.per_class.iter().map(|c| c.components.requests).sum();
        let per_instance: u64 = out.report.per_instance.iter().map(|i| i.components.requests).sum();
        assert_eq!(per_class, out.report.overall.requests);
        assert_eq!(per_instance, out.report.overall.requests);
        assert_eq!(out.report.overall.requests, out.requests.len() as u64);
        assert!(out.report.tail.requests >= 1);
        assert!(out.report.tail.requests <= out.report.overall.requests);
        let batches: u64 = out.report.per_instance.iter().map(|i| i.batches).sum();
        assert_eq!(batches, out.batches.len() as u64);
    }

    #[test]
    fn compact_rows_round_trip() {
        let r = RequestBlame {
            id: 7,
            class: 1,
            arrive_ns: 10.5,
            latency_ns: 99.25,
            admission_ns: 1.0,
            hold_ns: 2.0,
            busy_ns: 3.0,
            overhead_ns: 4.0,
            projection_ns: 5.0,
            qk_fill_ns: 6.0,
            softmax_stream_ns: 7.0,
            av_drain_ns: 71.25,
            instance: 3,
            batch: 11,
            blocker: -1,
        };
        assert_eq!(RequestBlame::from(<[f64; 15]>::from(r)), r);
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(json.starts_with('['), "compact row encoding: {json}");
        assert_eq!(serde_json::from_str::<RequestBlame>(&json).expect("parses"), r);
    }

    #[test]
    fn object_json_round_trips_and_rejects_plain_traces() {
        let out = blamed_example();
        let v = out.to_object_json();
        let back = BlameOutcome::from_object_json(&v).expect("round trips");
        assert_eq!(back, out);
        let plain = ChromeTrace::new().to_object_json(vec![]);
        let err = BlameOutcome::from_object_json(&plain).expect_err("no sidecar");
        assert!(err.contains(BLAME_SIDECAR_KEY), "{err}");
    }

    #[test]
    fn render_names_every_component() {
        let out = blamed_example();
        let text = out.render();
        for (name, _) in out.report.overall.pairs() {
            assert!(text.contains(name), "missing {name}:\n{text}");
        }
        assert!(text.contains("p99 tail"));
    }

    #[test]
    fn what_if_identity_reproduces_the_baseline_bitwise() {
        let cfg = ServeConfig::example();
        let report = run_what_ifs(&cfg, &simulate(&cfg), &[WhatIf::Identity]);
        let id = &report.interventions[0];
        assert_eq!(id.label, "identity");
        assert_eq!(id.p99_ms, report.baseline.p99_ms);
        assert_eq!(id.goodput_rps, report.baseline.goodput_rps);
        assert_eq!(id.energy_per_request_nj, report.baseline.energy_per_request_nj);
        assert_eq!(id.delta_p99_ms, 0.0);
        assert_eq!(id.delta_goodput_rps, 0.0);
        assert_eq!(id.delta_energy_nj, 0.0);
    }

    #[test]
    fn what_if_ranks_by_delta_p99() {
        let cfg = ServeConfig::example();
        let report = run_what_ifs(&cfg, &simulate(&cfg), &WhatIf::standard());
        assert_eq!(report.interventions.len(), WhatIf::standard().len());
        for pair in report.interventions.windows(2) {
            assert!(pair[0].delta_p99_ms <= pair[1].delta_p99_ms);
        }
        let text = report.render();
        assert!(text.contains("baseline"), "{text}");
        assert!(text.contains("+1 instance"), "{text}");
    }

    #[test]
    fn what_if_labels_are_stable() {
        assert_eq!(WhatIf::Identity.label(), "identity");
        assert_eq!(WhatIf::ZeroWindow.label(), "zero batch window");
        assert_eq!(WhatIf::AddInstance.label(), "+1 instance");
        assert_eq!(
            WhatIf::ScalePhase(PhaseScale { phase: ServicePhase::SoftmaxStream, factor: 0.5 })
                .label(),
            "scale softmax_stream x0.5"
        );
        assert_eq!(
            WhatIf::Placement(PlacementPolicy::LeastLoaded).label(),
            "placement least_loaded"
        );
    }
}
