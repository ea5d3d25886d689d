//! Dynamic batching policy.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the batcher packs queued requests into accelerator invocations.
///
/// A class queue becomes *ready for dispatch* when it holds `max_batch`
/// requests **or** its oldest request has waited `window_ns` — the
/// classic size-or-timeout dynamic batcher. `window_ns = 0` dispatches
/// greedily (whatever is queued, up to `max_batch`, as soon as an
/// instance frees up); `max_batch = 1` disables batching entirely and is
/// the baseline every serving experiment compares against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Largest number of requests packed into one invocation.
    pub max_batch: usize,
    /// Longest time the oldest queued request may wait for the batch to
    /// fill before being dispatched anyway, ns.
    pub window_ns: f64,
}

impl BatchPolicy {
    /// A size-or-timeout policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `window_ns` is negative/non-finite.
    pub fn new(max_batch: usize, window_ns: f64) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        assert!(window_ns.is_finite() && window_ns >= 0.0, "window must be finite, non-negative");
        BatchPolicy { max_batch, window_ns }
    }

    /// The no-batching baseline: every request executes alone, greedily.
    pub fn no_batching() -> Self {
        BatchPolicy::new(1, 0.0)
    }

    /// True when the policy can never group two requests.
    pub fn is_baseline(&self) -> bool {
        self.max_batch == 1
    }

    /// The instant a queue head arriving at `head_arrive_ns` stops
    /// waiting for its batch to fill, ns.
    pub fn expiry_ns(&self, head_arrive_ns: f64) -> f64 {
        head_arrive_ns + self.window_ns
    }

    /// The size-or-timeout readiness predicate: a class queue of
    /// `queue_len` requests whose head arrived at `head_arrive_ns` is
    /// dispatchable at `now_ns` when it fills a batch or its window has
    /// elapsed. This is the one readiness rule: the dispatcher's pass
    /// over its class table evaluates it both to pick a class and to
    /// arm a waiting class's window.
    pub fn head_ready(&self, queue_len: usize, now_ns: f64, head_arrive_ns: f64) -> bool {
        queue_len >= self.max_batch || now_ns >= self.expiry_ns(head_arrive_ns)
    }
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_baseline() {
            write!(f, "batch1")
        } else {
            write!(f, "batch{}@{:.0}us", self.max_batch, self.window_ns / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(BatchPolicy::no_batching().to_string(), "batch1");
        assert_eq!(BatchPolicy::new(8, 50_000.0).to_string(), "batch8@50us");
        assert!(BatchPolicy::no_batching().is_baseline());
        assert!(!BatchPolicy::new(8, 0.0).is_baseline());
    }

    #[test]
    fn readiness_predicate() {
        let p = BatchPolicy::new(4, 50_000.0);
        assert_eq!(p.expiry_ns(10_000.0), 60_000.0);
        // Full batch is ready regardless of time.
        assert!(p.head_ready(4, 0.0, 10_000.0));
        assert!(p.head_ready(5, 0.0, 10_000.0));
        // Partial batch waits for the window …
        assert!(!p.head_ready(3, 59_999.9, 10_000.0));
        // … and becomes ready exactly at expiry (inclusive boundary).
        assert!(p.head_ready(3, 60_000.0, 10_000.0));
        assert!(p.head_ready(1, 60_000.1, 10_000.0));
        // Greedy window: ready the moment anything is queued.
        let greedy = BatchPolicy::new(8, 0.0);
        assert!(greedy.head_ready(1, 5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_rejected() {
        let _ = BatchPolicy::new(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_window_rejected() {
        let _ = BatchPolicy::new(2, -1.0);
    }
}
