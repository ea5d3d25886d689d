//! star-telemetry: the instrumentation layer of the STAR reproduction.
//!
//! Six pieces:
//!
//! 1. [`Registry`] — named counters, accumulating/level gauges, and
//!    fixed-bucket histograms with snapshot / diff / reset and pretty +
//!    JSON rendering ([`registry`]).
//! 2. A process-wide recording facade — [`count`], [`add`], [`set`],
//!    [`observe`] — that simulator code calls without threading a registry
//!    through every API. Records to a thread-local scoped registry when
//!    one is installed (see [`with_scoped`]), else to the [`global`]
//!    registry. Disabled registries cost one relaxed atomic load per call.
//! 3. [`ChromeTrace`] — Chrome trace-event JSON emission for Perfetto
//!    ([`chrome`]): complete events, counter tracks, and the object form
//!    that embeds machine-readable extras next to `traceEvents`.
//!    Pipeline-semantics-aware exporters live in `star-core::trace`; this
//!    crate owns only the format.
//! 4. [`Span`] — request-lifecycle span trees ([`span`]): validated nested
//!    intervals that lower onto [`ChromeTrace`] lanes. The serving layer
//!    builds one tree per simulated request.
//! 5. [`PhaseProfiler`] — wall-clock self-profiling primitives
//!    ([`profile`]): scoped-timer accumulators that attribute the
//!    *simulator's own* execution time to named phases. Unlike everything
//!    above, these measure real machine time, so their numbers belong only
//!    in report-only sidecars — never in deterministic outputs.
//! 6. [`Tally`] — per-run metric handles ([`tally`]): typed, `Vec`-indexed
//!    accumulators registered once against the active registry, seeded
//!    from its current state and published back under one lock, for hot
//!    loops that would otherwise pay the facade's lookup and lock per
//!    update. The serving simulator records all its metrics this way;
//!    the registry ends up byte-identical to what the facade calls
//!    would have left.
//!
//! # Naming convention
//!
//! Metric names are dot-separated `<layer>.<unit>.<event>` hierarchies:
//! `device.rram.writes`, `crossbar.cam.searches`, `star.exp.lut_hits`,
//! `pipeline.softmax.stall_ns`. Accumulating physical quantities carry a
//! unit suffix (`_pj`, `_ns`).
//!
//! # Example
//!
//! ```
//! let (value, snap) = star_telemetry::with_scoped(|| {
//!     star_telemetry::count("crossbar.cam.searches", 3);
//!     star_telemetry::add("star.energy.exp_pj", 0.125);
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(snap.counters["crossbar.cam.searches"], 3);
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod profile;
pub mod registry;
pub mod span;
pub mod tally;

pub use chrome::{ChromeTrace, CounterEvent, TraceEvent};
pub use profile::{PhaseProfiler, PhaseStats};
pub use registry::{
    geometric_bounds, HistogramSnapshot, Registry, Snapshot, DEFAULT_BUCKET_BOUNDS,
};
pub use span::{Span, SPAN_EPS_NS};
pub use tally::{CounterId, GaugeId, HistogramId, Tally};

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Rc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide registry. Created enabled on first use.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Enable/disable the global registry (scoped registries are unaffected).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global registry records.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Run `f` with a fresh registry installed for the current thread; every
/// facade call made by `f` (on this thread) lands in that registry instead
/// of the global one. Returns `f`'s result and the captured snapshot.
/// Scopes nest: the innermost active scope wins.
///
/// This is the isolation mechanism for tests — `#[test]`s run on separate
/// threads, so concurrent scoped tests never observe each other's counts.
pub fn with_scoped<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let reg = Rc::new(Registry::new());
    SCOPED.with(|s| s.borrow_mut().push(Rc::clone(&reg)));
    // Pop the scope even if `f` panics, so a failed test cannot leak its
    // registry into later work on a reused test thread.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _guard = PopOnDrop;
    let out = f();
    let snap = reg.snapshot();
    (out, snap)
}

/// This thread's innermost scoped registry, if any.
fn active_scope() -> Option<Rc<Registry>> {
    SCOPED.with(|s| s.borrow().last().map(Rc::clone))
}

fn dispatch(f: impl FnOnce(&Registry)) {
    match active_scope() {
        Some(reg) => f(&reg),
        None => f(global()),
    }
}

/// Add `n` to counter `name` in the active registry.
pub fn count(name: &str, n: u64) {
    dispatch(|r| r.count(name, n));
}

/// Add `v` to accumulating gauge `name` in the active registry.
pub fn add(name: &str, v: f64) {
    dispatch(|r| r.add(name, v));
}

/// Set level gauge `name` to `v` in the active registry.
pub fn set(name: &str, v: f64) {
    dispatch(|r| r.set(name, v));
}

/// Record `value` into histogram `name` (default decade buckets).
pub fn observe(name: &str, value: f64) {
    dispatch(|r| r.observe(name, value));
}

/// Record `value` into histogram `name`, creating it with `bounds`.
pub fn observe_with(name: &str, value: f64, bounds: &[f64]) {
    dispatch(|r| r.observe_with(name, value, bounds));
}

/// Folds `snap` into the active (scoped-or-global) registry with the
/// commutative [`Registry::merge`].
///
/// This is the parent half of the thread-merged telemetry protocol used by
/// the `star-exec` parallel regions: each worker task runs under
/// [`with_scoped`] (worker threads have their own scope stacks, so their
/// metrics never race the parent's), returns its [`Snapshot`] alongside
/// its result, and the parent absorbs the snapshots in index order. The
/// merge being commutative makes the folded totals identical for every
/// worker count and schedule.
///
/// ```
/// let ((), outer) = star_telemetry::with_scoped(|| {
///     let worker_snaps: Vec<star_telemetry::Snapshot> = (0..4)
///         .map(|_| star_telemetry::with_scoped(|| star_telemetry::count("w.tasks", 1)).1)
///         .collect();
///     for snap in &worker_snaps {
///         star_telemetry::absorb(snap);
///     }
/// });
/// assert_eq!(outer.counters["w.tasks"], 4);
/// ```
pub fn absorb(snap: &Snapshot) {
    dispatch(|r| r.merge(snap));
}

/// Snapshot the active (scoped-or-global) registry.
pub fn snapshot() -> Snapshot {
    match active_scope() {
        Some(reg) => reg.snapshot(),
        None => global().snapshot(),
    }
}

/// Reset the active (scoped-or-global) registry.
pub fn reset() {
    dispatch(|r| r.reset());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_isolates_from_global() {
        let marker = "test.scoped.marker";
        let ((), snap) = with_scoped(|| {
            count(marker, 5);
        });
        assert_eq!(snap.counters[marker], 5);
        // Nothing leaked into the global registry.
        assert_eq!(global().counter_value(marker), 0);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let ((), outer) = with_scoped(|| {
            count("outer.only", 1);
            let ((), inner) = with_scoped(|| {
                count("inner.only", 2);
            });
            assert_eq!(inner.counters["inner.only"], 2);
            assert!(!inner.counters.contains_key("outer.only"));
        });
        assert_eq!(outer.counters["outer.only"], 1);
        assert!(!outer.counters.contains_key("inner.only"));
    }

    #[test]
    fn scope_pops_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = with_scoped(|| panic!("boom"));
        });
        assert!(caught.is_err());
        // The facade is back on the global registry for this thread.
        let ((), snap) = with_scoped(|| count("after.panic", 1));
        assert_eq!(snap.counters["after.panic"], 1);
    }

    #[test]
    fn facade_covers_all_metric_kinds() {
        let ((), snap) = with_scoped(|| {
            count("c", 1);
            add("g.acc", 2.5);
            set("g.level", 7.0);
            observe("h", 3.0);
            observe_with("h.custom", 0.5, &[1.0, 2.0]);
        });
        assert_eq!(snap.counters["c"], 1);
        assert!((snap.gauges["g.acc"] - 2.5).abs() < 1e-12);
        assert!((snap.gauges["g.level"] - 7.0).abs() < 1e-12);
        assert_eq!(snap.histograms["h"].total, 1);
        assert_eq!(snap.histograms["h.custom"].counts, vec![1, 0, 0]);
    }

    #[test]
    fn snapshot_and_reset_follow_active_scope() {
        let ((), _) = with_scoped(|| {
            count("x", 3);
            let mid = snapshot();
            assert_eq!(mid.counters["x"], 3);
            reset();
            assert!(snapshot().is_empty());
        });
    }
}
