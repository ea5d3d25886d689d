//! Wall-clock phase profiling primitives: scoped timers that attribute a
//! host program's *own* execution time to named phases.
//!
//! Everything else in this crate instruments the **modeled hardware**
//! (simulated nanoseconds, crossbar operation counts). This module
//! instruments the **simulator itself**: real `std::time::Instant`
//! nanoseconds spent inside regions the caller wraps. The two time
//! domains must never mix — wall-clock numbers are machine-dependent and
//! belong only in report-only sidecars, while the deterministic outputs
//! (reports, traces, golden fixtures) must stay byte-identical whether a
//! profiler is attached or not. The serving simulator's self-profiling
//! layer (`star-serve::profile`) builds on these primitives and pins that
//! invariant with tests.
//!
//! # Design
//!
//! Phases are pre-registered (`PhaseProfiler::new(&["dispatch", ...])`)
//! and addressed by index, so the record path is two array ops and no
//! hashing. Recording takes an elapsed [`Duration`] rather than owning
//! the clock: callers decide where `Instant::now()` is sampled, which
//! lets a host skip the clock reads entirely when profiling is off.
//!
//! A host may also time only a sample of a phase's calls. Every call is
//! counted exactly — [`PhaseProfiler::record`] for a timed call,
//! [`PhaseProfiler::count`] for one that read no clock — and a phase's
//! [`PhaseStats::total_ns`] extrapolates its timed calls' time to all of
//! its calls. Accumulated stats render as a top-phases table or as a
//! Chrome meta-trace through the same [`ChromeTrace`] machinery the
//! simulated-time exporters use.

use crate::chrome::ChromeTrace;
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::time::Duration;

/// Wall-clock statistics of one named phase, as read from a
/// [`PhaseProfiler`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Calls of the phase, timed or not: exact.
    pub calls: u64,
    /// Calls whose interval was timed (`≤ calls`); the host picks which.
    pub timed: u64,
    /// Estimated wall-clock time across all calls, ns: the timed calls'
    /// total scaled by `calls / timed` (0 when no call was timed), exact
    /// when every call was timed. A timed interval includes the clock
    /// reads of any phase timed inside it.
    pub total_ns: u64,
    /// Longest timed interval, ns.
    pub max_ns: u64,
}

impl PhaseStats {
    /// Mean interval length, ns (0 when no call was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// One phase's running sums: every call, and the time of the timed ones.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct PhaseSums {
    calls: u64,
    timed: u64,
    timed_ns: u64,
    max_ns: u64,
}

impl PhaseSums {
    /// Folds one timed call into the sums.
    fn record(&mut self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.calls += 1;
        self.timed += 1;
        self.timed_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// The sums as stats, the timed time scaled by `calls / timed`.
    fn stats(&self) -> PhaseStats {
        let total_ns = if self.timed == 0 {
            0
        } else {
            let scaled =
                u128::from(self.timed_ns) * u128::from(self.calls) / u128::from(self.timed);
            u64::try_from(scaled).unwrap_or(u64::MAX)
        };
        PhaseStats { calls: self.calls, timed: self.timed, total_ns, max_ns: self.max_ns }
    }
}

/// A set of named phases with accumulated wall-clock stats.
///
/// ```
/// use star_telemetry::PhaseProfiler;
/// use std::time::Duration;
///
/// let mut p = PhaseProfiler::new(&["dispatch", "costing"]);
/// p.record(0, Duration::from_micros(3));
/// p.record(1, Duration::from_micros(1));
/// p.record(0, Duration::from_micros(2));
/// assert_eq!(p.stats(0).calls, 2);
/// assert_eq!(p.stats(0).total_ns, 5_000);
/// // Two untimed calls: counted, and estimated at the timed calls' mean.
/// p.count(0);
/// p.count(0);
/// assert_eq!((p.stats(0).calls, p.stats(0).timed), (4, 2));
/// assert_eq!(p.stats(0).total_ns, 10_000);
/// assert!(p.render_table("hot phases").contains("dispatch"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfiler {
    names: Vec<String>,
    sums: Vec<PhaseSums>,
}

impl PhaseProfiler {
    /// A profiler with one zeroed accumulator per phase name.
    pub fn new(names: &[&str]) -> Self {
        PhaseProfiler {
            names: names.iter().map(|n| n.to_string()).collect(),
            sums: vec![PhaseSums::default(); names.len()],
        }
    }

    /// Number of registered phases.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no phase is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of phase `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Accumulated stats of phase `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn stats(&self, idx: usize) -> PhaseStats {
        self.sums[idx].stats()
    }

    /// Folds one timed call of phase `idx`, `elapsed` long.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn record(&mut self, idx: usize, elapsed: Duration) {
        self.sums[idx].record(elapsed);
    }

    /// Counts one untimed call of phase `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn count(&mut self, idx: usize) {
        self.sums[idx].calls += 1;
    }

    /// `(name, stats)` pairs in registration order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, PhaseStats)> + '_ {
        self.names.iter().map(String::as_str).zip(self.sums.iter().map(PhaseSums::stats))
    }

    /// Total estimated time across all phases, ns. When phases nest this
    /// double-counts by design; hosts that want a partition should keep
    /// their top-level phases disjoint.
    pub fn total_ns(&self) -> u64 {
        self.entries().map(|(_, s)| s.total_ns).sum()
    }

    /// Aligned top-phases table, longest total first (ties broken by
    /// registration order so the rendering is deterministic for equal
    /// inputs). Shares are relative to the summed total.
    pub fn render_table(&self, title: &str) -> String {
        let stats: Vec<PhaseStats> = self.entries().map(|(_, s)| s).collect();
        let mut order: Vec<usize> = (0..stats.len()).collect();
        order.sort_by(|&a, &b| stats[b].total_ns.cmp(&stats[a].total_ns).then(a.cmp(&b)));
        let total = self.total_ns().max(1) as f64;
        let width = self.names.iter().map(String::len).max().unwrap_or(5).max(5);
        let mut out = String::new();
        out.push_str(&format!(
            "{title}:\n  {:<width$} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}\n",
            "phase", "calls", "timed", "total us", "mean ns", "max ns", "share"
        ));
        for i in order {
            let s = &stats[i];
            out.push_str(&format!(
                "  {:<width$} {:>12} {:>12} {:>12.1} {:>12.1} {:>12} {:>6.1}%\n",
                self.names[i],
                s.calls,
                s.timed,
                s.total_ns as f64 / 1e3,
                s.mean_ns(),
                s.max_ns,
                s.total_ns as f64 / total * 100.0
            ));
        }
        out
    }

    /// Lowers the estimated phase totals onto a Chrome meta-trace: one
    /// process lane named `process`, one complete event per phase laid
    /// back-to-back in registration order (the layout shows *attribution
    /// shares*, not real concurrency — the host is single-threaded wall
    /// time). Open in <https://ui.perfetto.dev> like any other trace.
    pub fn to_chrome(&self, process: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_process(0, process);
        let mut cursor_ns = 0.0f64;
        for (i, (name, s)) in self.entries().enumerate() {
            if s.calls == 0 {
                continue;
            }
            t.complete_ns(
                name,
                "sim-profile",
                cursor_ns,
                s.total_ns as f64,
                0,
                i as u64,
                json!({
                    "calls": s.calls,
                    "timed": s.timed,
                    "mean_ns": s.mean_ns(),
                    "max_ns": s.max_ns,
                }),
            );
            cursor_ns += s.total_ns as f64;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_track_max() {
        let mut s = PhaseSums::default();
        assert_eq!(s.stats().mean_ns(), 0.0);
        s.record(Duration::from_nanos(100));
        s.record(Duration::from_nanos(300));
        let timed = s.stats();
        assert_eq!((timed.calls, timed.timed), (2, 2));
        assert_eq!(timed.total_ns, 400);
        assert_eq!(timed.max_ns, 300);
        assert!((timed.mean_ns() - 200.0).abs() < 1e-12);
        // Untimed calls scale the timed total by calls / timed and keep
        // the timed mean and max.
        s.calls += 2;
        let sampled = s.stats();
        assert_eq!((sampled.calls, sampled.timed), (4, 2));
        assert_eq!(sampled.total_ns, 800);
        assert_eq!(sampled.max_ns, 300);
        assert!((sampled.mean_ns() - 200.0).abs() < 1e-12);
        let untimed = PhaseSums { calls: 3, ..PhaseSums::default() }.stats();
        assert_eq!((untimed.calls, untimed.timed, untimed.total_ns), (3, 0, 0));
    }

    #[test]
    fn profiler_records_by_index() {
        let mut p = PhaseProfiler::new(&["a", "b", "c"]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        p.record(1, Duration::from_nanos(50));
        p.record(1, Duration::from_nanos(70));
        assert_eq!(p.name(1), "b");
        assert_eq!(p.stats(1).calls, 2);
        assert_eq!(p.stats(0).calls, 0);
        assert_eq!(p.total_ns(), 120);
        let entries: Vec<_> = p.entries().collect();
        assert_eq!(entries[1].0, "b");
        assert_eq!(entries[1].1.total_ns, 120);
    }

    #[test]
    fn table_sorts_by_total_descending() {
        let mut p = PhaseProfiler::new(&["cold", "hot"]);
        p.record(0, Duration::from_nanos(10));
        p.record(1, Duration::from_nanos(990));
        let table = p.render_table("phases");
        let hot_at = table.find("hot").expect("hot listed");
        let cold_at = table.find("cold").expect("cold listed");
        assert!(hot_at < cold_at, "hot phase first:\n{table}");
        assert!(table.contains("99.0%"), "{table}");
    }

    #[test]
    fn chrome_meta_trace_lays_phases_back_to_back() {
        let mut p = PhaseProfiler::new(&["a", "skipped", "b"]);
        p.record(0, Duration::from_nanos(2_000));
        p.record(2, Duration::from_nanos(1_000));
        let t = p.to_chrome("simulator");
        // The zero-call phase is omitted.
        assert_eq!(t.len(), 2);
        let json = t.to_json_string();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid");
        let events = match v {
            serde_json::Value::Seq(e) => e,
            other => panic!("expected array, got {other:?}"),
        };
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        // Second event starts where the first ends (2 us in).
        assert_eq!(complete[1].get("ts").and_then(serde_json::Value::as_f64), Some(2.0));
    }

    #[test]
    fn profiler_serializes_round_trip() {
        let mut p = PhaseProfiler::new(&["x"]);
        p.record(0, Duration::from_nanos(42));
        let json = serde_json::to_string(&p).expect("serialize");
        let back: PhaseProfiler = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, p);
    }
}
