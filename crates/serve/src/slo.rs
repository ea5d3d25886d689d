//! SLO accounting: exact latency quantiles, goodput, utilization, energy
//! per request, and the burn-rate monitor.
//!
//! The tracker keeps every raw latency sample as an `order_key` and
//! sorts each sample set once at the end, so the reported p50/p95/p99 are
//! **exact order statistics**, not bucket estimates; the overall summary
//! reads a merge of the sorted per-class sets, so no sample is stored or
//! sorted twice (the `star-telemetry` histograms recorded alongside give the
//! bucketed view for dashboards; see
//! `star_telemetry::HistogramSnapshot::quantile` for the estimator's
//! bounded-relative-error guarantee).
//!
//! # Burn-rate monitoring
//!
//! [`SloAnalysis::from_trace`] applies the SRE error-budget model to a
//! finished [`ServeTrace`]: with availability target `T` (fraction of
//! requests that must complete within the deadline), the error budget is
//! `1 − T` and the **burn rate** of a window is its violation fraction
//! divided by the budget — burn 1.0 consumes the budget exactly at the
//! sustainable rate, burn 14 is the classic "page now" threshold. The
//! analysis slides each [`SloPolicy`] window length over the terminal-event
//! timeline (two pointers, exact, no bucketing) and reports the peak
//! burn per window plus the earliest instant any window first reached
//! burn ≥ 1 ([`BurnWindow::first_breach_ns`]), the run-level
//! time-to-first-violation, a per-class goodput/p99 breakdown, and the K
//! slowest completed requests as exemplars with their full span-phase
//! decomposition.

use crate::request::RequestClass;
use crate::trace::{RequestOutcome, ServeTrace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Exact order-statistic summary of a latency sample set, in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean, ms.
    pub mean_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Maximum, ms.
    pub max_ms: f64,
}

/// The `u64` image of `f64::total_cmp` order: `order_key(a) <
/// order_key(b)` exactly when `a.total_cmp(&b)` is `Less`, and equal keys
/// are equal bits, so an unstable sort of keys yields the one sequence a
/// stable `total_cmp` sort of the values would. [`from_key`] inverts it.
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value whose [`order_key`] is `key`, bit for bit.
fn from_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

impl LatencyStats {
    /// Summary of `samples_ns` (nanosecond samples; order irrelevant).
    /// Returns the zero summary when empty.
    pub fn from_ns_samples(samples_ns: &[f64]) -> Self {
        let mut keys: Vec<u64> = samples_ns.iter().map(|&x| order_key(x)).collect();
        keys.sort_unstable();
        LatencyStats::from_sorted_keys(&keys)
    }

    /// Summary of the samples whose [`order_key`]s are `keys`, which must
    /// be ascending. Returns the zero summary when empty.
    pub(crate) fn from_sorted_keys(keys: &[u64]) -> Self {
        LatencyStats::from_ascending(keys.len(), keys.iter().copied())
    }

    /// Summary of the union of ascending key sets, read through one
    /// k-way merge (the set itself when there is one).
    pub(crate) fn from_sorted_runs(runs: &[&[u64]]) -> Self {
        if let [keys] = runs {
            return LatencyStats::from_sorted_keys(keys);
        }
        // A linear scan of the run heads per key: a mix holds a handful
        // of classes.
        let mut heads = vec![0; runs.len()];
        let merged = std::iter::from_fn(|| {
            let (run, key) = (0..runs.len())
                .filter_map(|r| runs[r].get(heads[r]).map(|&k| (r, k)))
                .min_by_key(|&(_, k)| k)?;
            heads[run] += 1;
            Some(key)
        });
        LatencyStats::from_ascending(runs.iter().map(|r| r.len()).sum(), merged)
    }

    /// Summary of the `n` ascending keys `keys` yields. The mean sums the
    /// samples in ascending order.
    fn from_ascending(n: usize, keys: impl Iterator<Item = u64>) -> Self {
        if n == 0 {
            return LatencyStats::default();
        }
        // Exact order statistics: rank ⌈q·n⌉ (1-based), clamped.
        let ranks = [0.50, 0.95, 0.99].map(|q| ((q * n as f64).ceil() as usize).clamp(1, n) - 1);
        let mut picks = [0.0; 3];
        let mut max = 0.0;
        let sum: f64 = keys
            .enumerate()
            .map(|(i, key)| {
                let x = from_key(key);
                for (pick, &rank) in picks.iter_mut().zip(&ranks) {
                    if i == rank {
                        *pick = x;
                    }
                }
                max = x;
                x
            })
            .sum();
        let [p50, p95, p99] = picks;
        LatencyStats {
            count: n as u64,
            mean_ms: sum / n as f64 / 1e6,
            p50_ms: p50 / 1e6,
            p95_ms: p95 / 1e6,
            p99_ms: p99 / 1e6,
            max_ms: max / 1e6,
        }
    }
}

/// Everything one serving simulation reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests that entered the system (admitted + rejected).
    pub arrivals: u64,
    /// Requests that finished executing.
    pub completed: u64,
    /// Completions within the deadline.
    pub good: u64,
    /// Completions past the deadline.
    pub late: u64,
    /// Arrivals refused at admission (queue full).
    pub rejected: u64,
    /// Admitted requests dropped at dispatch because their deadline had
    /// already passed while they queued.
    pub expired: u64,
    /// Time of the last event, ns (the simulation makespan).
    pub makespan_ns: f64,
    /// Long-run offered load, requests per second.
    pub offered_rps: f64,
    /// Completions per second of makespan.
    pub throughput_rps: f64,
    /// Within-deadline completions per second of makespan — the headline
    /// serving metric.
    pub goodput_rps: f64,
    /// End-to-end latency summary over completions.
    pub latency: LatencyStats,
    /// Queueing-delay summary over completions.
    pub queue_delay: LatencyStats,
    /// Accelerator invocations issued.
    pub batches: u64,
    /// Mean requests per invocation.
    pub mean_batch_size: f64,
    /// Per-instance busy fraction of the makespan.
    pub utilization: Vec<f64>,
    /// Mean utilization across the fleet.
    pub mean_utilization: f64,
    /// Total energy across all invocations, pJ.
    pub total_energy_pj: f64,
    /// Energy per completed request, nJ.
    pub energy_per_request_nj: f64,
    /// Peak number of requests simultaneously in the system (queued +
    /// executing). For closed-loop runs this never exceeds the client
    /// count.
    pub max_in_system: u64,
    /// Per-class breakdown (one entry per class in the workload mix,
    /// class order), so mixed workloads expose which class pays the
    /// latency/goodput price.
    pub per_class: Vec<ClassSloReport>,
}

/// The SLO report restricted to one request class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSloReport {
    /// The request class.
    pub class: RequestClass,
    /// Requests of this class that entered the system.
    pub arrivals: u64,
    /// Completions (good + late).
    pub completed: u64,
    /// Completions within the deadline.
    pub good: u64,
    /// Completions past the deadline.
    pub late: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Dropped at dispatch after out-waiting the deadline.
    pub expired: u64,
    /// Within-deadline completions per second of makespan.
    pub goodput_rps: f64,
    /// End-to-end latency summary over this class's completions.
    pub latency: LatencyStats,
}

/// The availability target and rolling-window lengths an
/// [`SloAnalysis`] measures burn against, recorded in the analysis:
/// 99% availability over 1 ms / 10 ms / 50 ms rolling windows — sized
/// for simulation horizons of ~100 ms, the scaled-down analogue of the
/// 5 m / 1 h / 6 h production ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Availability target: the fraction of requests that must complete
    /// within the deadline.
    pub target: f64,
    /// Rolling window lengths, ns. Short windows catch fast burns,
    /// long windows catch slow leaks (the SRE multi-window pattern).
    pub windows_ns: Vec<f64>,
}

impl SloPolicy {
    /// The error budget `1 − target`.
    pub fn budget(&self) -> f64 {
        1.0 - self.target
    }
}

/// Burn-rate findings for one rolling window length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurnWindow {
    /// Window length, ns.
    pub window_ns: f64,
    /// Worst violation fraction observed in any window position.
    pub peak_error_rate: f64,
    /// `peak_error_rate / budget` — the headline burn rate.
    pub peak_burn_rate: f64,
    /// Earliest terminal-event time at which this window's trailing
    /// error rate first reached burn ≥ 1 (`None` if it never did).
    pub first_breach_ns: Option<f64>,
}

/// The incremental two-pointer trailing-window sweep behind every
/// burn-rate number in the workspace — one implementation shared by the
/// batch analysis ([`SloAnalysis::from_trace`] feeds a finished terminal
/// timeline through it) and the flight recorder's online burn trigger
/// (`crate::flight` evaluates it per event against a live stream).
///
/// Push terminals in time order with [`BurnSweep::push`], then call
/// [`BurnSweep::evaluate`] with the current time to evict everything at
/// or before the left edge `now − window_ns` and read the trailing
/// `(burn_rate, in_window)`. Peaks and the first-breach instant latch
/// only when at least `min_events` terminals are in the window, and a
/// breach means `rate / budget >= threshold` — the batch analysis uses
/// `threshold = 1.0, min_events = 1`, which reproduces the plain
/// `rate >= budget` test bit-for-bit (for positive doubles `r`, `b`,
/// `r >= b ⟺ fl(r/b) >= 1.0`: unequal doubles differ by at least one
/// ulp, which the division's half-ulp rounding error cannot bridge).
#[derive(Debug, Clone)]
pub(crate) struct BurnSweep {
    window_ns: f64,
    budget: f64,
    threshold: f64,
    min_events: usize,
    /// `(finish_ns, is_violation)` terminals inside the trailing window.
    window: VecDeque<(f64, bool)>,
    bad: u64,
    peak_error_rate: f64,
    first_breach_ns: Option<f64>,
}

impl BurnSweep {
    /// A sweep over trailing windows of `window_ns` against `budget`
    /// (the error budget `1 − target`), breaching at
    /// `burn >= threshold` once `min_events` terminals are in window
    /// (`0` and `1` are equivalent: the gate only runs on a non-empty
    /// window).
    pub fn new(window_ns: f64, budget: f64, threshold: f64, min_events: usize) -> Self {
        BurnSweep {
            window_ns,
            budget,
            threshold,
            min_events,
            window: VecDeque::new(),
            bad: 0,
            peak_error_rate: 0.0,
            first_breach_ns: None,
        }
    }

    /// Appends one terminal. Terminals must arrive in time order.
    pub fn push(&mut self, finish_ns: f64, violation: bool) {
        self.window.push_back((finish_ns, violation));
        if violation {
            self.bad += 1;
        }
    }

    /// Evicts terminals at or before the left edge and returns the
    /// current `(burn_rate, in_window)` — `(0.0, 0)` when the window is
    /// empty.
    pub fn evaluate(&mut self, now: f64) -> (f64, usize) {
        while let Some(&(t, bad)) = self.window.front() {
            if t <= now - self.window_ns {
                if bad {
                    self.bad -= 1;
                }
                self.window.pop_front();
            } else {
                break;
            }
        }
        if self.window.is_empty() {
            return (0.0, 0);
        }
        let rate = self.bad as f64 / self.window.len() as f64;
        if self.window.len() >= self.min_events {
            self.peak_error_rate = self.peak_error_rate.max(rate);
            if self.first_breach_ns.is_none() && rate / self.budget >= self.threshold {
                self.first_breach_ns = Some(now);
            }
        }
        (rate / self.budget, self.window.len())
    }

    /// The sweep's findings so far as a [`BurnWindow`].
    pub fn burn_window(&self) -> BurnWindow {
        BurnWindow {
            window_ns: self.window_ns,
            peak_error_rate: self.peak_error_rate,
            peak_burn_rate: self.peak_error_rate / self.budget,
            first_breach_ns: self.first_breach_ns,
        }
    }
}

/// One worst-request exemplar: a slow request with its span-phase
/// decomposition, the row of the "where did the time go" table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Request id.
    pub id: u64,
    /// Request class.
    pub class: RequestClass,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// End-to-end latency, ms.
    pub latency_ms: f64,
    /// Per-category span durations, ms (`queue`, `invocation`, and the
    /// five hardware phases; the root `request` category is omitted).
    pub breakdown_ms: BTreeMap<String, f64>,
}

/// The full SLO analysis of one traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAnalysis {
    /// The policy analyzed against.
    pub policy: SloPolicy,
    /// Terminal events considered (= arrivals).
    pub total: u64,
    /// Requests that burned budget (late + expired + rejected).
    pub violations: u64,
    /// `1 − violations / total` (1.0 for an empty run).
    pub availability: f64,
    /// Earliest terminal-event time of any violation.
    pub time_to_first_violation_ns: Option<f64>,
    /// One entry per policy window, policy order.
    pub windows: Vec<BurnWindow>,
    /// Per-class goodput/latency breakdown, class order.
    pub per_class: Vec<ClassSloReport>,
    /// The K slowest completed requests, slowest first.
    pub exemplars: Vec<Exemplar>,
}

impl SloAnalysis {
    /// Analyzes a finished trace against the [`SloPolicy`], keeping the
    /// `k` slowest completed requests as exemplars.
    pub fn from_trace(trace: &ServeTrace, k: usize) -> Self {
        let policy = SloPolicy { target: 0.99, windows_ns: vec![1e6, 1e7, 5e7] };
        // Terminal events ordered by time (ties by request id): the
        // timeline the rolling windows slide over.
        let mut events: Vec<(f64, u64, bool)> = trace
            .requests
            .iter()
            .map(|r| (r.finish_ns(), r.id, r.outcome.is_violation()))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let total = events.len() as u64;
        let violations = events.iter().filter(|e| e.2).count() as u64;
        let availability = if total == 0 { 1.0 } else { 1.0 - violations as f64 / total as f64 };
        let time_to_first_violation_ns = events.iter().find(|e| e.2).map(|e| e.0);

        let budget = policy.budget();
        let windows = policy
            .windows_ns
            .iter()
            .map(|&window_ns| {
                // The shared sweep at threshold 1.0 / min_events 1 is the
                // plain `rate >= budget` breach test, bit-for-bit.
                let mut sweep = BurnSweep::new(window_ns, budget, 1.0, 1);
                for &(t, _, violation) in &events {
                    sweep.push(t, violation);
                    sweep.evaluate(t);
                }
                sweep.burn_window()
            })
            .collect();

        let per_class = per_class_from_trace(trace);

        // K slowest completed requests, slowest first (ties by id so the
        // table is deterministic). Only these K render their span trees.
        let mut completed: Vec<&crate::trace::RequestTrace> =
            trace.requests.iter().filter(|r| r.outcome.is_completed()).collect();
        completed.sort_by(|a, b| b.latency_ns().total_cmp(&a.latency_ns()).then(a.id.cmp(&b.id)));
        let exemplars = completed
            .iter()
            .take(k)
            .map(|r| {
                let mut cats = BTreeMap::new();
                trace.request_span(r).accumulate_categories(&mut cats);
                cats.remove("request");
                Exemplar {
                    id: r.id,
                    class: r.class,
                    outcome: r.outcome,
                    latency_ms: r.latency_ns() / 1e6,
                    breakdown_ms: cats.into_iter().map(|(c, ns)| (c, ns / 1e6)).collect(),
                }
            })
            .collect();

        SloAnalysis {
            policy,
            total,
            violations,
            availability,
            time_to_first_violation_ns,
            windows,
            per_class,
            exemplars,
        }
    }
}

/// Recomputes the per-class breakdown from a trace (the standalone path
/// `star_cli trace-analyze` uses; the simulator fills
/// [`ServeReport::per_class`] with the same numbers directly).
fn per_class_from_trace(trace: &ServeTrace) -> Vec<ClassSloReport> {
    #[derive(Default)]
    struct Accum {
        arrivals: u64,
        completed: u64,
        good: u64,
        late: u64,
        rejected: u64,
        expired: u64,
        latencies_ns: Vec<f64>,
    }
    let mut by_class: BTreeMap<RequestClass, Accum> = BTreeMap::new();
    for r in &trace.requests {
        let a = by_class.entry(r.class).or_default();
        a.arrivals += 1;
        match r.outcome {
            RequestOutcome::Good => {
                a.completed += 1;
                a.good += 1;
                a.latencies_ns.push(r.latency_ns());
            }
            RequestOutcome::Late => {
                a.completed += 1;
                a.late += 1;
                a.latencies_ns.push(r.latency_ns());
            }
            RequestOutcome::Expired => a.expired += 1,
            RequestOutcome::Rejected => a.rejected += 1,
        }
    }
    let makespan_s = (trace.makespan_ns * 1e-9).max(f64::MIN_POSITIVE);
    by_class
        .into_iter()
        .map(|(class, a)| ClassSloReport {
            class,
            arrivals: a.arrivals,
            completed: a.completed,
            good: a.good,
            late: a.late,
            rejected: a.rejected,
            expired: a.expired,
            goodput_rps: a.good as f64 / makespan_s,
            latency: LatencyStats::from_ns_samples(&a.latencies_ns),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_ns_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = LatencyStats::from_ns_samples(&[2_000_000.0]);
        assert_eq!(s.count, 1);
        for v in [s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms] {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_order_statistics() {
        // 100 samples: 1..=100 ms.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e6).collect();
        let s = LatencyStats::from_ns_samples(&samples);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn order_independent() {
        let a = LatencyStats::from_ns_samples(&[3.0, 1.0, 2.0]);
        let b = LatencyStats::from_ns_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Runs 1 000 cases of `check`, case `i` drawing from a generator
    /// seeded with `i`; a failure names its seed.
    fn for_each_case(check: impl Fn(&mut ChaCha8Rng) -> Result<(), String>) {
        for seed in 0..1_000 {
            if let Err(e) = check(&mut ChaCha8Rng::seed_from_u64(seed)) {
                panic!("case seed {seed}: {e}");
            }
        }
    }

    /// An `f64` of any bit pattern, weighted towards NaN of either sign,
    /// ±0.0, ±inf and subnormals.
    fn edgy_f64(rng: &mut ChaCha8Rng) -> f64 {
        let bits: u64 = rng.gen();
        match rng.gen_range(0..6u32) {
            0 => f64::from_bits(bits | 0x7ff0_0000_0000_0001), // NaN
            1 => f64::from_bits(bits & 1 << 63),               // ±0.0
            2 => f64::from_bits(bits & 1 << 63 | 0x7ff0_0000_0000_0000), // ±inf
            3 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // subnormal
            _ => f64::from_bits(bits),
        }
    }

    /// The summary as written before sample keys: a copy, a stable
    /// `total_cmp` sort and an ascending sum.
    fn reference_stats(samples_ns: &[f64]) -> LatencyStats {
        if samples_ns.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted: Vec<f64> = samples_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let pick = |q: f64| -> f64 {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1] / 1e6
        };
        let sum: f64 = sorted.iter().sum();
        LatencyStats {
            count: n as u64,
            mean_ms: sum / n as f64 / 1e6,
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
            max_ms: sorted[n - 1] / 1e6,
        }
    }

    fn stats_bits(s: &LatencyStats) -> [u64; 6] {
        let [mean, p50, p95, p99, max] =
            [s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms].map(f64::to_bits);
        [s.count, mean, p50, p95, p99, max]
    }

    /// Up to 300 samples drawn from a pool of at most 12 values, so
    /// values repeat; a third of the cases mix in edge values.
    fn sample_set(rng: &mut ChaCha8Rng) -> Vec<f64> {
        let edgy = rng.gen_range(0..3u32) == 0;
        let pool: Vec<f64> = (0..rng.gen_range(1..=12usize))
            .map(|_| if edgy { edgy_f64(rng) } else { rng.gen_range(0.0..5e6) })
            .collect();
        (0..rng.gen_range(0..=300usize)).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
    }

    #[test]
    fn order_keys_follow_total_cmp_and_invert_bit_for_bit() {
        for_each_case(|rng| {
            for _ in 0..64 {
                let (a, b) = (edgy_f64(rng), edgy_f64(rng));
                if order_key(a).cmp(&order_key(b)) != a.total_cmp(&b) {
                    return Err(format!(
                        "{a:e} ({:#x}) vs {b:e} ({:#x})",
                        a.to_bits(),
                        b.to_bits()
                    ));
                }
                if from_key(order_key(a)).to_bits() != a.to_bits() {
                    return Err(format!("{:#x} does not round-trip", a.to_bits()));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn keyed_stats_match_the_stable_sort_reference() {
        for_each_case(|rng| {
            let samples = sample_set(rng);
            let (got, want) = (LatencyStats::from_ns_samples(&samples), reference_stats(&samples));
            if stats_bits(&got) != stats_bits(&want) {
                let (g, w) = (stats_bits(&got), stats_bits(&want));
                return Err(format!("bits {g:x?} != {w:x?} over {samples:?}"));
            }
            Ok(())
        });
    }

    #[test]
    fn merged_class_runs_give_the_overall_stats() {
        for_each_case(|rng| {
            let samples = sample_set(rng);
            let mut runs: Vec<Vec<u64>> = vec![Vec::new(); rng.gen_range(1..=4usize)];
            for &x in &samples {
                let class = rng.gen_range(0..runs.len());
                runs[class].push(order_key(x));
            }
            for run in &mut runs {
                run.sort_unstable();
            }
            let slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            let merged = LatencyStats::from_sorted_runs(&slices);
            let want = reference_stats(&samples);
            if stats_bits(&merged) != stats_bits(&want) {
                let (g, w) = (stats_bits(&merged), stats_bits(&want));
                return Err(format!("bits {g:x?} != {w:x?} over {} runs", runs.len()));
            }
            Ok(())
        });
    }

    use crate::model::InvocationPhases;
    use crate::request::ModelKind;
    use crate::trace::{BatchTrace, RequestTrace};

    /// One request per `(finish, outcome)`, each 1 µs long unless
    /// rejected; a completed one runs alone in a 1 µs batch of pure
    /// overhead, dispatched on arrival.
    fn synthetic_trace(outcomes: &[(f64, RequestOutcome)]) -> ServeTrace {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let mut trace = ServeTrace::new(1, 1e6);
        for (i, &(finish_ns, outcome)) in outcomes.iter().enumerate() {
            let dur = if outcome == RequestOutcome::Rejected { 0.0 } else { 1000.0 };
            let completed = outcome.is_completed();
            if completed {
                trace.batches.push(BatchTrace {
                    instance: 0,
                    class,
                    size: 1,
                    dispatch_ns: finish_ns - dur,
                    dur_ns: dur,
                    phases: InvocationPhases {
                        overhead_ns: dur,
                        projection_ns: 0.0,
                        qk_fill_ns: 0.0,
                        softmax_stream_ns: 0.0,
                        av_drain_ns: 0.0,
                    },
                });
            }
            trace.requests.push(RequestTrace {
                id: i as u64,
                class,
                outcome,
                batch_size: usize::from(completed),
                instance: completed.then_some(0),
                arrive_ns: finish_ns - dur,
                latency_ns: dur,
                batch: completed.then(|| trace.batches.len() - 1),
            });
            trace.makespan_ns = trace.makespan_ns.max(finish_ns);
        }
        trace
    }

    #[test]
    fn empty_trace_is_fully_available() {
        let trace = ServeTrace::new(1, 1e6);
        let a = SloAnalysis::from_trace(&trace, 3);
        assert_eq!(a.total, 0);
        assert_eq!(a.availability, 1.0);
        assert!(a.time_to_first_violation_ns.is_none());
        assert!(a.windows.iter().all(|w| w.peak_burn_rate == 0.0 && w.first_breach_ns.is_none()));
        assert!(a.exemplars.is_empty());
        assert!(a.per_class.is_empty());
    }

    #[test]
    fn burn_rate_flags_a_violation_burst() {
        use RequestOutcome::{Good, Late};
        // 10 good requests 2 ms apart, then 2 ms later a burst of 5 late
        // ones 1 µs apart.
        let mut events: Vec<(f64, RequestOutcome)> =
            (0..10).map(|i| (2e6 * (i + 1) as f64, Good)).collect();
        events.extend((0..5).map(|i| (2.2e7 + 1e3 * i as f64, Late)));
        let trace = synthetic_trace(&events);
        let a = SloAnalysis::from_trace(&trace, 2);
        assert_eq!(a.policy.target, 0.99);
        assert_eq!(a.policy.windows_ns, [1e6, 1e7, 5e7]);
        assert_eq!(a.total, 15);
        assert_eq!(a.violations, 5);
        assert!((a.availability - 10.0 / 15.0).abs() < 1e-12);
        assert_eq!(a.time_to_first_violation_ns, Some(2.2e7));
        // Every window first breaches on the burst's first request.
        assert!(a.windows.iter().all(|w| w.first_breach_ns == Some(2.2e7)));
        // The 1 ms window holds only the burst → burn = 1 / 0.01.
        let short = &a.windows[0];
        assert!((short.peak_error_rate - 1.0).abs() < 1e-12);
        assert!((short.peak_burn_rate - 100.0).abs() < 1e-9);
        // The 10 ms window also holds the last four good requests.
        assert!((a.windows[1].peak_error_rate - 5.0 / 9.0).abs() < 1e-12);
        // The 50 ms window spans the run, diluting the burst to 5/15.
        assert!((a.windows[2].peak_error_rate - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn all_good_run_never_breaches() {
        use RequestOutcome::Good;
        let events: Vec<(f64, RequestOutcome)> =
            (0..20).map(|i| (1e4 * (i + 1) as f64, Good)).collect();
        let a = SloAnalysis::from_trace(&synthetic_trace(&events), 3);
        assert_eq!(a.violations, 0);
        assert_eq!(a.availability, 1.0);
        assert!(a.time_to_first_violation_ns.is_none());
        for w in &a.windows {
            assert_eq!(w.peak_burn_rate, 0.0);
            assert!(w.first_breach_ns.is_none());
        }
        // Exemplars still list the slowest completions.
        assert_eq!(a.exemplars.len(), 3);
        assert!(a.exemplars[0].latency_ms >= a.exemplars[1].latency_ms);
    }

    #[test]
    fn rejected_requests_burn_budget_but_are_not_exemplars() {
        use RequestOutcome::{Good, Rejected};
        let a = SloAnalysis::from_trace(
            &synthetic_trace(&[(1e4, Good), (2e4, Rejected), (3e4, Good)]),
            10,
        );
        assert_eq!(a.violations, 1);
        assert_eq!(a.time_to_first_violation_ns, Some(2e4));
        // Only completed requests can be latency exemplars.
        assert_eq!(a.exemplars.len(), 2);
        let pc = &a.per_class[0];
        assert_eq!((pc.arrivals, pc.completed, pc.rejected), (3, 2, 1));
    }

    #[test]
    fn burn_sweep_matches_naive_window_recompute() {
        // A deterministic, clumpy terminal timeline with a violation
        // burst in the middle.
        let mut events: Vec<(f64, bool)> = (0..200u64)
            .map(|i| {
                let t = ((i * i) % 977) as f64 * 37.0 + i as f64;
                (t, i % 7 == 0 || (60..75).contains(&i))
            })
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(window_ns, budget) in &[(100.0, 0.01), (1500.0, 0.05), (1e6, 0.25)] {
            let mut sweep = BurnSweep::new(window_ns, budget, 1.0, 1);
            // Naive O(n²) recompute of the same trailing windows.
            let mut peak: f64 = 0.0;
            let mut first_breach = None;
            for (right, &(t, _)) in events.iter().enumerate() {
                sweep.push(t, events[right].1);
                sweep.evaluate(t);
                let in_window: Vec<_> =
                    events[..=right].iter().filter(|e| e.0 > t - window_ns).collect();
                let bad = in_window.iter().filter(|e| e.1).count();
                let rate = bad as f64 / in_window.len() as f64;
                peak = peak.max(rate);
                if first_breach.is_none() && rate >= budget {
                    first_breach = Some(t);
                }
            }
            let w = sweep.burn_window();
            assert_eq!(w.peak_error_rate, peak, "window {window_ns}");
            assert_eq!(w.peak_burn_rate, peak / budget, "window {window_ns}");
            assert_eq!(w.first_breach_ns, first_breach, "window {window_ns}");
        }
    }

    #[test]
    fn burn_sweep_gates_on_min_events_and_threshold() {
        let mut s = BurnSweep::new(10.0, 0.1, 2.0, 3);
        // One all-bad terminal: burn 10, but below the min-events gate —
        // nothing latches.
        s.push(1.0, true);
        let (burn, n) = s.evaluate(1.0);
        assert_eq!(n, 1);
        assert!((burn - 10.0).abs() < 1e-12);
        assert_eq!(s.burn_window().peak_error_rate, 0.0);
        assert!(s.burn_window().first_breach_ns.is_none());
        // Three terminals, two bad: rate 2/3, burn ≈ 6.7 ≥ threshold 2.
        s.push(2.0, false);
        s.push(3.0, true);
        s.evaluate(3.0);
        assert_eq!(s.burn_window().first_breach_ns, Some(3.0));
        assert!((s.burn_window().peak_error_rate - 2.0 / 3.0).abs() < 1e-12);
        // Far-future evaluation evicts everything.
        assert_eq!(s.evaluate(1e6), (0.0, 0));
        // The latched peak and breach survive eviction.
        assert_eq!(s.burn_window().first_breach_ns, Some(3.0));
    }
}
