//! The metric registry: named counters, accumulators, gauges, and
//! fixed-bucket histograms, read back as a [`Snapshot`] and folded
//! together with [`Registry::merge`].
//!
//! Names are dot-separated hierarchies, lowest-frequency component first:
//! `<layer>.<unit>.<event>` — e.g. `crossbar.cam.searches`,
//! `device.rram.writes`, `star.exp.lut_hits`,
//! `pipeline.softmax.stall_ns`. The registry itself imposes no schema;
//! the convention keeps the pretty renderer's grouping meaningful.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default histogram bucket upper bounds (decade-spaced). Values above the
/// last bound land in the overflow bucket.
///
/// Decade spacing gives a *coarse* quantile guarantee: relative error up
/// to 9 (see [`HistogramSnapshot::quantile`]). Metrics that need tight
/// tail estimates should pass closer-spaced bounds to
/// [`Registry::observe_with`].
pub const DEFAULT_BUCKET_BOUNDS: [f64; 10] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Histogram {
    /// Upper bounds of the finite buckets (ascending).
    bounds: Vec<f64>,
    /// One count per finite bucket plus a trailing overflow bucket:
    /// `counts.len() == bounds.len() + 1`.
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: f64,
}

impl Histogram {
    pub(crate) fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0 }
    }

    pub(crate) fn observe(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
    }

    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Immutable view of a histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the bucket counts, or
    /// `None` when the histogram is empty.
    ///
    /// Within the bucket holding the target rank the value is linearly
    /// interpolated between the bucket's edges (the first finite bucket's
    /// lower edge is taken as 0, the Prometheus convention for
    /// non-negative observations). A rank that lands in the overflow
    /// bucket clamps to the last finite bound — the histogram cannot know
    /// how far above it the tail reaches, so heavy-tailed inputs report a
    /// *lower bound* on the true quantile. Callers that need exact tail
    /// quantiles (e.g. the serving SLO tracker) should keep the raw
    /// samples.
    ///
    /// # Accuracy guarantee
    ///
    /// The estimate carries a **documented relative-error bound** whenever
    /// every observation lies strictly inside the finite bucket range
    /// `(bounds[0], bounds[last]]`:
    ///
    /// > `|est − exact| / exact ≤ max_i (bounds[i] − bounds[i−1]) / bounds[i−1]`
    ///
    /// where `exact` is the order statistic of rank `max(1, ⌈q·n⌉)` (the
    /// same rank convention this method targets). *Proof:* the cumulative
    /// bucket counts put the rank-`r` sample in a unique bucket
    /// `(lo, hi]`; both the true order statistic and the interpolated
    /// estimate lie inside `[lo, hi]` of that bucket, so their difference
    /// is at most `hi − lo` while the true value is at least `lo > 0`.
    /// Geometric bounds `b, b·(1+α), b·(1+α)², …` (the DDSketch layout,
    /// Masson et al., VLDB 2019) make it a uniform `α` across the whole
    /// range, and a property test enforces it over seeded samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        // Target rank in 1..=total (q = 0 maps to the first observation).
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            seen += count;
            if seen >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket: clamp to the last finite bound.
                    return Some(self.bounds.last().copied().unwrap_or(f64::INFINITY));
                }
                let hi = self.bounds[i];
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                // Position of the rank inside this bucket, interpolated.
                let into = (rank - (seen - count)) as f64 / count as f64;
                return Some(lo + (hi - lo) * into);
            }
        }
        unreachable!("total > 0 implies some bucket holds the rank");
    }

    /// The `(p50, p95, p99)` latency-style summary, or `None` when empty.
    pub fn quantile_summary(&self) -> Option<(f64, f64, f64)> {
        Some((self.quantile(0.50)?, self.quantile(0.95)?, self.quantile(0.99)?))
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The recording primitives, each looking its name up first and
/// allocating the name's `String` only when it inserts.
impl Inner {
    fn count(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    fn add(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g += v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    fn store(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    fn observe(&mut self, name: &str, value: f64, bounds: &[f64]) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }
}

/// A registry of named metrics.
///
/// All mutation goes through `&self` (interior mutability), so a registry
/// can be shared freely — the global registry is a `&'static Registry`.
/// When disabled, every recording call is a single relaxed atomic load.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Registry { enabled: AtomicBool::new(true), inner: Mutex::new(Inner::default()) }
    }

    /// Whether recording calls currently take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording (snapshots work regardless).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means a panic elsewhere mid-record; metric
        // state stays structurally valid, so keep going.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn count(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.lock().count(name, n);
        }
    }

    /// Add `v` to the accumulating gauge `name` (creating it at zero).
    /// Used for additive physical quantities: energy, busy time, charge.
    pub fn add(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.lock().add(name, v);
        }
    }

    /// Set gauge `name` to `v` (last-write-wins; for levels, not totals).
    pub fn set(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.lock().store(name, v);
        }
    }

    /// Record `value` into histogram `name`, creating it with `bounds` if
    /// absent. Bounds of an existing histogram are kept as-is.
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        if self.is_enabled() {
            self.lock().observe(name, value, bounds);
        }
    }

    /// Applies a [`crate::Batch`]'s updates under one lock, as the
    /// matching [`Registry::count`], [`Registry::add`] and
    /// [`Registry::observe_with`] calls would one by one. A disabled
    /// registry is not locked.
    pub(crate) fn apply(
        &self,
        counters: &[(&str, u64)],
        gauges: &[(&str, f64)],
        observations: &[(&str, f64, &[f64])],
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        for &(name, n) in counters {
            inner.count(name, n);
        }
        for &(name, v) in gauges {
            inner.add(name, v);
        }
        for &(name, value, bounds) in observations {
            inner.observe(name, value, bounds);
        }
    }

    /// Gauge `name`'s current value, `None` when absent — the seed a
    /// [`crate::Tally`] continues an accumulating gauge from.
    pub(crate) fn read_gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Histogram `name`'s bounds and sum with its counts zeroed, `None`
    /// when absent — the seed a [`crate::Tally`] continues a histogram
    /// from (it publishes bucket increments, not totals).
    pub(crate) fn read_histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).map(|h| Histogram {
            bounds: h.bounds.clone(),
            counts: vec![0; h.counts.len()],
            sum: h.sum,
        })
    }

    /// Writes a [`crate::Tally`]'s accumulators back under one lock.
    /// Counters and histogram buckets are *added*, so no integer update
    /// is ever lost; gauge values and histogram sums are *stored*, which
    /// is exact as long as nothing else wrote those names since the
    /// tally read its seeds. A histogram whose resident bounds no longer
    /// match folds the increments into its overflow bucket, as
    /// [`Registry::merge`] does.
    pub(crate) fn write_back<'a>(
        &self,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
        gauges: impl IntoIterator<Item = (&'a str, f64)>,
        histograms: impl IntoIterator<Item = (&'a str, &'a Histogram)>,
    ) {
        let mut inner = self.lock();
        for (name, n) in counters {
            inner.count(name, n);
        }
        for (name, v) in gauges {
            inner.store(name, v);
        }
        for (name, h) in histograms {
            match inner.histograms.get_mut(name) {
                None => {
                    inner.histograms.insert(name.to_string(), h.clone());
                }
                Some(mine) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.sum = h.sum;
                }
                Some(mine) => {
                    *mine.counts.last_mut().expect("histograms have an overflow bucket") +=
                        h.total();
                    mine.sum = h.sum;
                }
            }
        }
    }

    /// Capture the current state of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            total: h.total(),
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Folds a snapshot into this registry: counters and gauges add,
    /// histograms add bucket-wise. This is the **commutative** reduction
    /// used to fold per-worker scoped registries back into the parent
    /// after a parallel region — because every combination is addition,
    /// the merged totals are independent of the order workers finished in,
    /// which is what makes parallel telemetry deterministic.
    ///
    /// Two caveats, both documented properties rather than surprises:
    ///
    /// - *Level* gauges (written with [`Registry::set`]) are merged
    ///   additively like accumulators. Last-write-wins has no commutative
    ///   merge; parallel code should only record additive quantities
    ///   (which is all the simulator's hot paths do).
    /// - Histograms whose bucket bounds differ from the resident ones
    ///   cannot be aligned bucket-by-bucket; their observations are folded
    ///   into the resident histogram's overflow bucket (count and sum are
    ///   preserved exactly).
    pub fn merge(&self, other: &Snapshot) {
        let mut inner = self.lock();
        for (name, &v) in &other.counters {
            *inner.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            *inner.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, h) in &other.histograms {
            match inner.histograms.get_mut(name) {
                None => {
                    inner.histograms.insert(
                        name.clone(),
                        Histogram {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                        },
                    );
                }
                Some(mine) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.sum += h.sum;
                }
                Some(mine) => {
                    // Incompatible bucket layouts: preserve totals in the
                    // overflow bucket rather than dropping observations.
                    *mine.counts.last_mut().expect("histograms have an overflow bucket") += h.total;
                    mine.sum += h.sum;
                }
            }
        }
    }
}

/// A point-in-time copy of a [`Registry`], serializable and mergeable
/// into another registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Accumulators and level gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Aligned, human-readable table of every metric.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(8);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {v:>14.4}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                match h.quantile_summary() {
                    Some((p50, p95, p99)) => out.push_str(&format!(
                        "  {name:<width$}  n={} mean={:.4} p50~{p50:.4} p95~{p95:.4} p99~{p99:.4}\n",
                        h.total,
                        h.mean()
                    )),
                    None => {
                        out.push_str(&format!("  {name:<width$}  n={} mean={:.4}\n", h.total, h.mean()))
                    }
                }
                for (i, count) in h.counts.iter().enumerate() {
                    if *count == 0 {
                        continue;
                    }
                    let label = if i < h.bounds.len() {
                        format!("<= {:.3e}", h.bounds[i])
                    } else {
                        "overflow".to_string()
                    };
                    out.push_str(&format!("    {label:<12} {count:>10}\n"));
                }
            }
        }
        out
    }

    /// JSON form (object with `counters` / `gauges` / `histograms`).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("snapshot serializes")
    }

    /// Per-histogram quantile summaries as JSON — one object per
    /// histogram with `count`, `mean`, and estimated `p50`/`p95`/`p99`
    /// (see [`HistogramSnapshot::quantile`] for the estimation and
    /// overflow-clamping semantics). Empty histograms are omitted. This
    /// is what the experiment sidecars embed next to the raw buckets so
    /// downstream tooling gets tail summaries without re-deriving them.
    pub fn quantile_summaries(&self) -> serde_json::Value {
        let mut out = Vec::new();
        for (name, h) in &self.histograms {
            if let Some((p50, p95, p99)) = h.quantile_summary() {
                out.push((
                    name.clone(),
                    serde_json::json!({
                        "count": h.total,
                        "mean": h.mean(),
                        "p50": p50,
                        "p95": p95,
                        "p99": p99,
                    }),
                ));
            }
        }
        serde_json::Value::Map(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `value` into histogram `name` with the default buckets.
    fn observe(r: &Registry, name: &str, value: f64) {
        r.observe_with(name, value, &DEFAULT_BUCKET_BOUNDS);
    }

    /// A fresh registry's snapshot after merging `first`, then `second`.
    fn merge_into_fresh(first: &Snapshot, second: &Snapshot) -> Snapshot {
        let r = Registry::new();
        r.merge(first);
        r.merge(second);
        r.snapshot()
    }

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        assert!(r.snapshot().is_empty());
        r.count("a.b.c", 2);
        r.count("a.b.c", 3);
        assert_eq!(r.snapshot().counters["a.b.c"], 5);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::new();
        r.set_enabled(false);
        r.count("x", 1);
        r.add("y", 2.0);
        observe(&r, "z", 3.0);
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        r.count("x", 1);
        assert_eq!(r.snapshot().counters["x"], 1);
    }

    #[test]
    fn gauges_add_and_set() {
        let r = Registry::new();
        r.add("energy", 1.5);
        r.add("energy", 2.5);
        r.set("level", 7.0);
        r.set("level", 3.0);
        assert_eq!(r.read_gauge("energy"), Some(4.0));
        assert_eq!(r.read_gauge("level"), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = Registry::new();
        for v in [0.5, 5.0, 5e7] {
            observe(&r, "h", v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.total, 3);
        assert_eq!(*h.counts.last().unwrap(), 1, "5e7 overflows");
        assert!((h.mean() - (0.5 + 5.0 + 5e7) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn render_and_json_round_trip() {
        let r = Registry::new();
        r.count("crossbar.cam.searches", 12);
        r.add("star.energy.exp_pj", 3.25);
        observe(&r, "pipeline.row_ns", 42.0);
        let snap = r.snapshot();
        let pretty = snap.render_pretty();
        assert!(pretty.contains("crossbar.cam.searches"));
        assert!(pretty.contains("star.energy.exp_pj"));
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: Snapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_adds_every_metric_kind() {
        let a = Registry::new();
        a.count("ops", 3);
        a.add("energy", 1.5);
        observe(&a, "h", 2.0);
        let b = Registry::new();
        b.count("ops", 4);
        b.count("only_b", 1);
        b.add("energy", 0.5);
        observe(&b, "h", 3.0);
        a.merge(&b.snapshot());
        let merged = a.snapshot();
        assert_eq!(merged.counters["ops"], 7);
        assert_eq!(merged.counters["only_b"], 1);
        assert!((merged.gauges["energy"] - 2.0).abs() < 1e-12);
        assert_eq!(merged.histograms["h"].total, 2);
        assert!((merged.histograms["h"].sum - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let src = Registry::new();
        src.count("x", 9);
        src.add("g", 4.25);
        src.observe_with("h", 1.5, &[1.0, 2.0]);
        let snap = src.snapshot();
        let dst = Registry::new();
        dst.merge(&snap);
        assert_eq!(dst.snapshot(), snap);
    }

    #[test]
    fn merged_snapshots_commute() {
        let a = Registry::new();
        a.count("ops", 2);
        observe(&a, "h", 0.5);
        let b = Registry::new();
        b.count("ops", 5);
        b.add("e", 1.0);
        observe(&b, "h", 7.0);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(merge_into_fresh(&sa, &sb), merge_into_fresh(&sb, &sa));
    }

    #[test]
    fn merge_mismatched_bounds_preserves_totals_in_overflow() {
        let a = Registry::new();
        a.observe_with("h", 0.5, &[1.0, 2.0]);
        let b = Registry::new();
        b.observe_with("h", 0.5, &[10.0]);
        b.observe_with("h", 0.25, &[10.0]);
        a.merge(&b.snapshot());
        let h = &a.snapshot().histograms["h"];
        assert_eq!(h.bounds, vec![1.0, 2.0], "resident bounds win");
        assert_eq!(h.total, 3, "no observation dropped");
        assert_eq!(*h.counts.last().unwrap(), 2, "foreign observations land in overflow");
        assert!((h.sum - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let h = HistogramSnapshot {
            bounds: DEFAULT_BUCKET_BOUNDS.to_vec(),
            counts: vec![0; DEFAULT_BUCKET_BOUNDS.len() + 1],
            total: 0,
            sum: 0.0,
        };
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile_summary(), None);
        // Empty histograms never appear in summaries.
        let r = Registry::new();
        r.count("not.a.histogram", 1);
        assert_eq!(r.snapshot().quantile_summaries(), serde_json::Value::Map(vec![]));
    }

    #[test]
    fn quantile_single_sample() {
        let r = Registry::new();
        r.observe_with("h", 5.0, &[1.0, 10.0, 100.0]);
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        // One sample in (1, 10]: every quantile interpolates inside that
        // bucket and with a single count lands on the upper bound.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(10.0), "q={q}");
        }
        assert_eq!(h.quantile_summary(), Some((10.0, 10.0, 10.0)));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let r = Registry::new();
        // 100 observations uniform over the (0, 1] bucket, 100 over (1, 2].
        for _ in 0..100 {
            r.observe_with("h", 0.5, &[1.0, 2.0]);
            r.observe_with("h", 1.5, &[1.0, 2.0]);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        // Rank 100 of 200 is the last of the first bucket → its upper edge.
        assert_eq!(h.quantile(0.5), Some(1.0));
        // Rank 150 is halfway through the second bucket → 1.5.
        assert_eq!(h.quantile(0.75), Some(1.5));
        // Rank 1 is 1/100 into the first bucket.
        assert!((h.quantile(0.0).unwrap() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn quantile_heavy_tail_clamps_to_last_bound() {
        let r = Registry::new();
        // 1 in-range observation, 99 far past the last bound: the p50 and
        // p99 both live in the overflow bucket, which clamps to the last
        // finite bound (a documented lower bound, not an estimate).
        r.observe_with("h", 0.5, &[1.0, 2.0]);
        for _ in 0..99 {
            r.observe_with("h", 1e12, &[1.0, 2.0]);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.99), Some(2.0));
        // The single in-range sample is still reachable at q = 0.
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let r = Registry::new();
        observe(&r, "h", 1.0);
        let snap = r.snapshot();
        let _ = snap.histograms["h"].quantile(1.5);
    }

    #[test]
    fn quantile_summaries_render_json() {
        let r = Registry::new();
        for v in [1.0, 2.0, 3.0, 500.0] {
            r.observe_with("serve.latency", v, &[10.0, 1000.0]);
        }
        let snap = r.snapshot();
        let json = snap.quantile_summaries();
        let entry = json.get("serve.latency").expect("histogram summarized");
        assert_eq!(entry.get("count").and_then(serde_json::Value::as_f64), Some(4.0));
        assert!(entry.get("p50").is_some());
        assert!(entry.get("p95").is_some());
        assert!(entry.get("p99").is_some());
        let pretty = snap.render_pretty();
        assert!(pretty.contains("p99~"), "{pretty}");
    }
}
