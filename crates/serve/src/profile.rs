//! Simulator self-profiling: what does the event loop itself cost?
//!
//! Every other module in this crate measures the **modeled system**
//! (simulated latency, goodput, wear). This module measures the
//! **simulator**: how much work the single-threaded event loop in
//! [`crate::sim`] performs to produce a report, and where its wall-clock
//! time goes. The ROADMAP's scale arc (fleet-of-hundreds sweeps, 2k–32k
//! sequence lengths) multiplies event counts by orders of magnitude;
//! making the loop faster needs data on *where* its work goes and exact
//! counts proving each change did no more of it.
//!
//! # Dual-track design
//!
//! A [`SimProfile`] carries two kinds of numbers with very different
//! trust properties:
//!
//! 1. [`WorkCounters`] — **deterministic work accounting**: events
//!    processed per type, event-heap push/pop totals and peak, dispatcher
//!    rounds and queue scans, batches formed, metric updates, plus
//!    power-of-two histograms of queue depth and event backlog.
//!    These depend only on the [`crate::ServeConfig`], never on the
//!    machine, thread count, or load — so CI can gate them as hard
//!    budgets and goldens can pin them byte-exactly.
//! 2. Wall-clock **phase attribution** — a
//!    [`star_telemetry::PhaseProfiler`] over the loop's hot phases.
//!    These numbers are machine-dependent by nature and are emitted only
//!    into report-style sidecars, never into deterministic outputs.
//!
//! # The no-perturbation invariant
//!
//! Profiling must observe the simulation without changing it: it
//! consumes zero RNG draws and perturbs no event arithmetic, so a
//! profiled run's [`crate::ServeReport`] and trace bytes are bitwise
//! identical to an unprofiled run at any `STAR_EXEC_THREADS` — the same
//! contract tracing and health monitoring established, and
//! `tests/observers.rs` pins it.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use star_telemetry::{ChromeTrace, PhaseProfiler};

/// Number of buckets in a [`Pow2Hist`].
pub const HIST_BUCKETS: usize = 16;

/// Wall-clock phase identifiers, indices into the profile's
/// [`PhaseProfiler`]. The first five are **disjoint** top-level regions
/// of the event loop (their sum approximates total loop time); the rest
/// are **nested** inside them (attribution detail, double-counted by
/// design — `dispatch` runs inside the three event handlers,
/// `batch_cost` and `health_dispatch` inside `dispatch`).
pub mod phase {
    /// `Arrive` event handling (admission, enqueue, dispatch attempt).
    pub const ARRIVE: usize = 0;
    /// `WindowExpire` event handling.
    pub const WINDOW_EXPIRE: usize = 1;
    /// `InstanceFree` event handling (completion accounting, spans).
    pub const INSTANCE_FREE: usize = 2;
    /// Post-event sampling: trace timeseries + health monitor grid.
    pub const SAMPLE_HOOKS: usize = 3;
    /// Report assembly (and the metric publish) after the loop drains.
    pub const FINALIZE: usize = 4;
    /// Nested: the greedy dispatcher (`try_dispatch`).
    pub const DISPATCH: usize = 5;
    /// Nested: hardware batch costing (`ServiceModel::batch_cost`).
    pub const BATCH_COST: usize = 6;
    /// Nested: span/trace construction in the event handlers.
    pub const TRACE_EMIT: usize = 7;
    /// Nested: health-monitor dispatch accounting.
    pub const HEALTH_DISPATCH: usize = 8;
    /// `ScaleCheck` event handling (autoscaler decisions; a top-level
    /// event-handler region like the first three, but listed after the
    /// nested phases to keep existing indices stable).
    pub const SCALE_CHECK: usize = 9;

    /// Phase names, indexed by the constants above.
    pub const NAMES: [&str; 10] = [
        "arrive",
        "window_expire",
        "instance_free",
        "sample_hooks",
        "finalize",
        "dispatch",
        "batch_cost",
        "trace_emit",
        "health_dispatch",
        "scale_check",
    ];

    /// Number of phases that form the disjoint top-level partition.
    pub const TOP_LEVEL: usize = 5;
}

/// A power-of-two bucketed histogram of small non-negative integers:
/// bucket 0 counts zeros, bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs the overflow. Fixed
/// shape, integer counts — deterministic and golden-pinnable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pow2Hist {
    /// Bucket counts, `HIST_BUCKETS` long.
    pub counts: Vec<u64>,
}

impl Default for Pow2Hist {
    fn default() -> Self {
        Pow2Hist { counts: vec![0; HIST_BUCKETS] }
    }
}

impl Pow2Hist {
    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 { 0 } else { (64 - v.leading_zeros()) as usize };
        self.counts[idx.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index of the highest non-empty bucket (`None` when empty); the
    /// observed maximum lies in `[2^(i-1), 2^i)` for bucket `i ≥ 1`.
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

/// Deterministic work accounting for one simulation run.
///
/// Every field is a pure function of the [`crate::ServeConfig`]: two runs
/// of the same config produce identical counters on any machine at any
/// `STAR_EXEC_THREADS`. Scalar counters are exposed by name through
/// [`WorkCounters::scalars`] so the work goldens can iterate them
/// without schema coupling.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkCounters {
    /// Events processed, total: arrivals popped off the open-loop
    /// cursor plus events popped off the heap.
    pub events_total: u64,
    /// `Arrive` events processed.
    pub events_arrive: u64,
    /// `WindowExpire` events processed.
    pub events_window_expire: u64,
    /// `InstanceFree` events processed.
    pub events_instance_free: u64,
    /// `ScaleCheck` events processed (0 without an autoscaler).
    pub events_scale_check: u64,
    /// Events pushed onto the binary heap: windows armed, invocations
    /// scheduled, scale checks and closed-loop arrivals. Open-loop
    /// arrivals ride the arrival cursor and are never pushed.
    pub heap_pushes: u64,
    /// Events popped off the binary heap: `events_total` minus the
    /// open-loop arrivals. Equals `heap_pushes` once the run drains — a
    /// conservation identity kept checkable, not assumed.
    pub heap_pops: u64,
    /// Largest binary-heap length observed after any push: O(fleet +
    /// classes) in an open-loop run, O(clients) in a closed one.
    pub heap_peak: u64,
    /// Calls into the greedy dispatcher (`try_dispatch`).
    pub dispatch_rounds: u64,
    /// Dispatch attempts: passes over the class table that found a ready
    /// class in the dispatcher's match-and-dispatch loop (one per batch
    /// formed, plus one per all-expired head sweep). A pure function of
    /// the workload's batch sequence — fleet size does not change it.
    pub dispatch_scans: u64,
    /// `dispatch_scans` attributed to the FIFO dequeue branch (the
    /// whole count in the default config). The three policy-branch
    /// counters partition `dispatch_scans`, keeping the ±5% CI work
    /// budgets meaningful per policy now that dequeue order is
    /// pluggable.
    pub dispatch_scans_fifo: u64,
    /// `dispatch_scans` attributed to the weighted-fair branch.
    pub dispatch_scans_wfq: u64,
    /// `dispatch_scans` attributed to the earliest-deadline branch.
    pub dispatch_scans_edf: u64,
    /// Batches dispatched to an instance.
    pub batches_formed: u64,
    /// Requests carried by those batches.
    pub batch_members: u64,
    /// Requests dropped at dispatch because their deadline lapsed queued.
    pub expired_drops: u64,
    /// Metric updates issued by the event loop: count / add / observe
    /// calls on its per-run [`star_telemetry::Tally`], recorded or not.
    /// The health monitor's own telemetry is not included.
    pub telemetry_ops: u64,
    /// Queued-request total observed after each event.
    pub queue_depth_hist: Pow2Hist,
    /// Pending events observed after each event: the heap's length plus
    /// the open-loop arrivals still on the cursor.
    pub backlog_hist: Pow2Hist,
}

impl WorkCounters {
    /// Scalar counters as stable `(name, value)` pairs, the unit of
    /// budget gating. Histograms are excluded: their shape is pinned by
    /// goldens instead.
    pub fn scalars(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events_total", self.events_total),
            ("events_arrive", self.events_arrive),
            ("events_window_expire", self.events_window_expire),
            ("events_instance_free", self.events_instance_free),
            ("events_scale_check", self.events_scale_check),
            ("heap_pushes", self.heap_pushes),
            ("heap_pops", self.heap_pops),
            ("heap_peak", self.heap_peak),
            ("dispatch_rounds", self.dispatch_rounds),
            ("dispatch_scans", self.dispatch_scans),
            ("dispatch_scans_fifo", self.dispatch_scans_fifo),
            ("dispatch_scans_wfq", self.dispatch_scans_wfq),
            ("dispatch_scans_edf", self.dispatch_scans_edf),
            ("batches_formed", self.batches_formed),
            ("batch_members", self.batch_members),
            ("expired_drops", self.expired_drops),
            ("telemetry_ops", self.telemetry_ops),
        ]
    }

    /// Events per simulated request admitted into the system — the
    /// scale-free work figure a faster event loop must lower.
    pub fn events_per_request(&self) -> f64 {
        if self.batch_members == 0 {
            0.0
        } else {
            self.events_total as f64 / self.batch_members as f64
        }
    }
}

/// The self-profile of one simulation run: deterministic work counters
/// plus machine-dependent wall-clock phase attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimProfile {
    /// Deterministic work accounting (machine-independent, CI-gateable).
    pub work: WorkCounters,
    /// Wall-clock phase attribution (machine-dependent, report-only).
    pub wall: PhaseProfiler,
    /// Total wall-clock time of the run, ns (seed → report, inclusive).
    pub wall_total_ns: u64,
}

impl SimProfile {
    /// A fresh profile with zeroed counters and the standard phase set.
    pub fn new() -> Self {
        SimProfile {
            work: WorkCounters::default(),
            wall: PhaseProfiler::new(&phase::NAMES),
            wall_total_ns: 0,
        }
    }

    /// Simulated events processed per wall-clock second — the headline
    /// simulator-speed figure `star_cli serve --profile` prints.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_total_ns == 0 {
            0.0
        } else {
            self.work.events_total as f64 / (self.wall_total_ns as f64 / 1e9)
        }
    }

    /// Human-readable rendering: the work-counter table followed by the
    /// top-phases wall-clock table.
    pub fn render(&self) -> String {
        let mut out = String::from("work counters (deterministic):\n");
        for (name, v) in self.work.scalars() {
            out.push_str(&format!("  {name:<22} {v:>14}\n"));
        }
        out.push_str(&format!(
            "  {:<22} {:>14.2}\n",
            "events_per_request",
            self.work.events_per_request()
        ));
        let depth = self.work.queue_depth_hist.max_bucket().unwrap_or(0);
        let backlog = self.work.backlog_hist.max_bucket().unwrap_or(0);
        out.push_str(&format!(
            "  queue depth < 2^{depth}, backlog < 2^{backlog} (pow2 buckets)\n\n"
        ));
        out.push_str(&self.wall.render_table("wall-clock phases (machine-dependent)"));
        out.push_str(&format!(
            "  total {:.3} ms, {:.0} events/sec\n",
            self.wall_total_ns as f64 / 1e6,
            self.events_per_sec()
        ));
        out
    }

    /// The deterministic half as a JSON value — the only part a golden
    /// fixture may pin (wall-clock numbers never reproduce).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    pub fn work_json(&self) -> Value {
        serde_json::to_value(&self.work).expect("work counters serialize")
    }

    /// Chrome meta-trace of the simulator's own time: phase totals laid
    /// out proportionally on one lane, with the work counters embedded as
    /// a sidecar under [`PROFILE_SIDECAR_KEY`] in the object form.
    pub fn to_chrome(&self) -> ChromeTrace {
        self.wall.to_chrome("star-serve simulator")
    }

    /// Object-form trace JSON with the full profile (work + wall) as a
    /// machine-readable sidecar.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    pub fn to_object_json(&self) -> Value {
        self.to_chrome().to_object_json(vec![(
            PROFILE_SIDECAR_KEY.to_string(),
            json!({
                "work": serde_json::to_value(&self.work).expect("serializes"),
                "wall": serde_json::to_value(&self.wall).expect("serializes"),
                "wallTotalNs": self.wall_total_ns,
                "eventsPerSec": self.events_per_sec(),
            }),
        )])
    }
}

impl Default for SimProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// Top-level key under which the profile sidecar is embedded in the
/// Chrome-object export (Perfetto ignores unknown keys).
pub const PROFILE_SIDECAR_KEY: &str = "starServeProfile";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_hist_buckets_by_leading_zeros() {
        let mut h = Pow2Hist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(u64::MAX);
        assert_eq!(h.counts[0], 1, "zeros");
        assert_eq!(h.counts[1], 1, "[1,2)");
        assert_eq!(h.counts[2], 2, "[2,4)");
        assert_eq!(h.counts[3], 1, "[4,8)");
        assert_eq!(h.counts[HIST_BUCKETS - 1], 1, "overflow");
        assert_eq!(h.total(), 6);
        assert_eq!(h.max_bucket(), Some(HIST_BUCKETS - 1));
        assert_eq!(Pow2Hist::default().max_bucket(), None);
    }

    #[test]
    fn scalars_cover_every_counter_field() {
        let w = WorkCounters { events_total: 10, batch_members: 4, ..WorkCounters::default() };
        let pairs = w.scalars();
        assert_eq!(pairs.len(), 17);
        assert!(pairs.contains(&("events_total", 10)));
        assert!((w.events_per_request() - 2.5).abs() < 1e-12);
        assert_eq!(WorkCounters::default().events_per_request(), 0.0);
    }

    #[test]
    fn phase_names_match_indices() {
        assert_eq!(phase::NAMES[phase::ARRIVE], "arrive");
        assert_eq!(phase::NAMES[phase::FINALIZE], "finalize");
        assert_eq!(phase::NAMES[phase::HEALTH_DISPATCH], "health_dispatch");
        assert_eq!(phase::NAMES[phase::SCALE_CHECK], "scale_check");
        assert_eq!(phase::NAMES.len(), 10);
        assert!(phase::TOP_LEVEL <= phase::NAMES.len());
    }

    #[test]
    fn profile_renders_and_serializes() {
        let mut p = SimProfile::new();
        p.work.events_total = 100;
        p.work.batch_members = 50;
        p.wall.record(phase::ARRIVE, std::time::Duration::from_micros(5));
        p.wall_total_ns = 10_000;
        let text = p.render();
        assert!(text.contains("events_total"), "{text}");
        assert!(text.contains("arrive"), "{text}");
        let json = serde_json::to_string(&p).expect("serialize");
        let back: SimProfile = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, p);
        assert!((p.events_per_sec() - 1e7).abs() < 1.0);
    }

    #[test]
    fn object_json_embeds_sidecar_and_trace_events() {
        let mut p = SimProfile::new();
        p.wall.record(phase::DISPATCH, std::time::Duration::from_micros(2));
        let obj = p.to_object_json();
        assert!(obj.get("traceEvents").is_some());
        let sidecar = obj.get(PROFILE_SIDECAR_KEY).expect("sidecar present");
        assert!(sidecar.get("work").is_some());
        assert!(sidecar.get("wall").is_some());
    }
}
