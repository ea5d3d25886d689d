//! Request-lifecycle span trees.
//!
//! A [`Span`] is a named, categorized `[start, start + dur)` interval with
//! nested children — the building block for per-request tracing: one root
//! span per request, child spans for each lifecycle phase (queue, batch
//! formation, invocation), grandchildren for the hardware cost
//! decomposition (overhead, projection GEMMs, attention pipeline stages).
//!
//! The model is deliberately *offline*: spans are plain serializable data
//! built by the (deterministic, single-threaded) simulator event loop, not
//! a live `enter`/`exit` API with ambient state. That keeps trace bytes a
//! pure function of the simulation seed — the property every byte-diff CI
//! leg checks.
//!
//! # Invariants
//!
//! [`Span::validate`] enforces the structural contract consumers rely on:
//!
//! - durations are finite and non-negative,
//! - every child lies within its parent's interval,
//! - siblings are chronologically ordered and non-overlapping,
//! - child durations sum to at most the parent duration,
//!
//! all up to [`SPAN_EPS_NS`] of floating-point slack.
//!
//! Spans lower to Chrome trace-event JSON (nested `ph:"X"` complete
//! events) via [`Span::emit_chrome`], so a span tree renders natively in
//! <https://ui.perfetto.dev> as a stack of slices.

use crate::chrome::ChromeTrace;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Absolute tolerance, in nanoseconds, used by [`Span::validate`] for
/// interval-containment and duration-sum checks. Spans are built from
/// chains of `f64` additions over ~1e6 ns quantities whose accumulated
/// rounding error is far below a picosecond; 1e-3 ns of slack admits that
/// noise while still catching any real accounting bug.
pub const SPAN_EPS_NS: f64 = 1e-3;

/// One node of a span tree: a named interval with nested children.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Label shown on the trace slice (e.g. `"req42 bert-base/seq128"`).
    pub name: String,
    /// Category — the *kind* of phase (e.g. `"queue"`, `"softmax_rows"`).
    /// Aggregations (histograms, the trace-analyze attribution table) key
    /// on the category, names stay free-form.
    pub cat: String,
    /// Start time, ns since simulation start.
    pub start_ns: f64,
    /// Duration, ns (non-negative).
    pub dur_ns: f64,
    /// Nested sub-spans, chronological.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span (no children).
    pub fn leaf(
        name: impl Into<String>,
        cat: impl Into<String>,
        start_ns: f64,
        dur_ns: f64,
    ) -> Self {
        Span { name: name.into(), cat: cat.into(), start_ns, dur_ns, children: Vec::new() }
    }

    /// Appends `child` and returns `self` (builder style). Children must be
    /// pushed in chronological order; [`Span::validate`] checks it.
    pub fn with_child(mut self, child: Span) -> Self {
        self.children.push(child);
        self
    }

    /// Appends a child in place.
    pub fn push_child(&mut self, child: Span) {
        self.children.push(child);
    }

    /// End of the interval, ns.
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.dur_ns
    }

    /// Checks the structural invariants of the whole tree (see the module
    /// docs), returning the first violation as a human-readable message.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.start_ns.is_finite() || !self.dur_ns.is_finite() {
            return Err(format!("span `{}`: non-finite interval", self.name));
        }
        if self.dur_ns < 0.0 {
            return Err(format!("span `{}`: negative duration {}", self.name, self.dur_ns));
        }
        let mut child_sum = 0.0;
        let mut cursor = self.start_ns - SPAN_EPS_NS;
        for child in &self.children {
            child.validate()?;
            if child.start_ns < self.start_ns - SPAN_EPS_NS
                || child.end_ns() > self.end_ns() + SPAN_EPS_NS
            {
                return Err(format!(
                    "child `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    child.name,
                    child.start_ns,
                    child.end_ns(),
                    self.name,
                    self.start_ns,
                    self.end_ns()
                ));
            }
            if child.start_ns < cursor {
                return Err(format!(
                    "child `{}` starts at {} before its elder sibling ends at {cursor}",
                    child.name, child.start_ns
                ));
            }
            cursor = child.end_ns() - SPAN_EPS_NS;
            child_sum += child.dur_ns;
        }
        if child_sum > self.dur_ns + SPAN_EPS_NS {
            return Err(format!(
                "children of `{}` sum to {child_sum} ns > parent {} ns",
                self.name, self.dur_ns
            ));
        }
        Ok(())
    }

    /// Adds every span's duration into `out`, keyed by category — the
    /// "where did the time go" attribution a trace analyzer renders.
    /// Parent and child durations are *both* counted (a parent's entry is
    /// its full interval, not its self-time), so compare categories at one
    /// tree depth against each other.
    pub fn accumulate_categories(&self, out: &mut BTreeMap<String, f64>) {
        *out.entry(self.cat.clone()).or_insert(0.0) += self.dur_ns;
        for child in &self.children {
            child.accumulate_categories(out);
        }
    }

    /// Lowers the tree onto `trace` as nested Chrome complete events on
    /// lane `(pid, tid)`. `root_args` is attached to the root event;
    /// children carry their category as the only argument.
    pub fn emit_chrome(&self, trace: &mut ChromeTrace, pid: u64, tid: u64, root_args: Value) {
        trace.complete_ns(
            self.name.clone(),
            self.cat.clone(),
            self.start_ns,
            self.dur_ns,
            pid,
            tid,
            root_args,
        );
        for child in &self.children {
            child.emit_chrome(trace, pid, tid, json!({}));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_tree() -> Span {
        Span::leaf("req0", "request", 100.0, 1000.0)
            .with_child(Span::leaf("queue", "queue", 100.0, 400.0))
            .with_child(
                Span::leaf("invoke", "invocation", 500.0, 600.0)
                    .with_child(Span::leaf("oh", "overhead", 500.0, 100.0))
                    .with_child(Span::leaf("proj", "projection", 600.0, 200.0))
                    .with_child(Span::leaf("sm", "softmax_rows", 800.0, 300.0)),
            )
    }

    #[test]
    fn valid_tree_passes() {
        let root = request_tree();
        root.validate().expect("valid tree");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].children.len(), 3);
        assert_eq!(root.end_ns(), 1100.0);
    }

    #[test]
    fn category_attribution_sums_durations() {
        let mut out = BTreeMap::new();
        request_tree().accumulate_categories(&mut out);
        assert_eq!(out["request"], 1000.0);
        assert_eq!(out["queue"], 400.0);
        assert_eq!(out["overhead"], 100.0);
        assert_eq!(out["softmax_rows"], 300.0);
    }

    #[test]
    fn escaping_child_rejected() {
        let root = Span::leaf("p", "request", 0.0, 100.0)
            .with_child(Span::leaf("c", "queue", 50.0, 100.0));
        let err = root.validate().expect_err("child escapes");
        assert!(err.contains("escapes"), "{err}");
    }

    #[test]
    fn overlapping_siblings_rejected() {
        let root = Span::leaf("p", "request", 0.0, 100.0)
            .with_child(Span::leaf("a", "queue", 0.0, 60.0))
            .with_child(Span::leaf("b", "invocation", 40.0, 30.0));
        let err = root.validate().expect_err("siblings overlap");
        assert!(err.contains("sibling"), "{err}");
    }

    #[test]
    fn oversubscribed_children_rejected() {
        let root = Span::leaf("p", "request", 0.0, 100.0)
            .with_child(Span::leaf("a", "queue", 0.0, 80.0))
            .with_child(Span::leaf("b", "invocation", 80.0, 20.0))
            // A third child fits the interval only by overlapping; force
            // the duration-sum check instead by shrinking the parent.
            ;
        root.validate().expect("exactly full parent is fine");
        let tight = Span::leaf("p", "request", 0.0, 99.0)
            .with_child(Span::leaf("a", "queue", 0.0, 80.0))
            .with_child(Span::leaf("b", "invocation", 80.0, 19.5));
        let err = tight.validate().expect_err("sum exceeds parent");
        assert!(err.contains("escapes") || err.contains("sum"), "{err}");
    }

    #[test]
    fn negative_and_non_finite_rejected() {
        assert!(Span::leaf("x", "c", 0.0, -1.0).validate().is_err());
        assert!(Span::leaf("x", "c", f64::NAN, 1.0).validate().is_err());
        assert!(Span::leaf("x", "c", 0.0, f64::INFINITY).validate().is_err());
    }

    #[test]
    fn chrome_emission_preserves_tree_size_and_order() {
        let root = request_tree();
        let mut trace = ChromeTrace::new();
        root.emit_chrome(&mut trace, 7, 42, json!({"outcome": "good"}));
        assert_eq!(trace.len(), 6, "one event per span of the tree");
        let arr = match trace.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        // Root first, with its args; every event on the requested lane.
        assert_eq!(arr[0].get("name").and_then(Value::as_str), Some("req0"));
        assert_eq!(
            arr[0].get("args").and_then(|a| a.get("outcome")).and_then(Value::as_str),
            Some("good")
        );
        for e in &arr {
            assert_eq!(e.get("pid").and_then(Value::as_f64), Some(7.0));
            assert_eq!(e.get("tid").and_then(Value::as_f64), Some(42.0));
        }
    }

    #[test]
    fn serde_round_trip() {
        let root = request_tree();
        let json = serde_json::to_string(&root).expect("serialize");
        let back: Span = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, root);
    }
}
