//! The dispatcher's ready-queue index.
//!
//! [`ReadyIndex`] replaces the per-class linear scan the self-profiler
//! flagged in `dispatch_scans`: class readiness is maintained
//! incrementally at the points where it can change, so each dispatch
//! iteration is an `O(log c)` indexed pop instead of an `O(c)` sweep.

use crate::request::RequestClass;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

/// Incremental index of dispatch-ready request classes.
///
/// The serial dispatcher rescanned every class queue on each iteration to
/// find the ready class with the longest-waiting head and to arm batch
/// windows for the rest — the `dispatch_scans ≈ 1.1–1.3× events` cost the
/// self-profiler measured. This index maintains the same information
/// incrementally: a class is **ready** (its oldest request is
/// dispatchable now) or **flagged** (queued but waiting on its batch
/// window), and transitions happen only where readiness can actually
/// change — enqueue, head change after batch formation, and the
/// window-arming step of a dispatch iteration. Readiness is monotone
/// between head changes (queue length only grows, time only advances), so
/// evaluating it at those points reproduces the serial scan's decisions
/// — and therefore its event stream — exactly.
///
/// Ready classes are ordered by `(head arrival time, head request id)`,
/// the serial scan's selection key. Arrival times are non-negative finite,
/// so their IEEE-754 bit patterns order identically to their values and
/// the key can live in a `BTreeSet` of integers.
#[derive(Debug, Default)]
pub(crate) struct ReadyIndex {
    ready: BTreeSet<(u64, u64, RequestClass)>,
    keys: BTreeMap<RequestClass, (u64, u64)>,
    flagged: BTreeSet<RequestClass>,
}

impl ReadyIndex {
    /// A fresh, empty index.
    pub(crate) fn new() -> Self {
        ReadyIndex::default()
    }

    /// The selection key of a queue head: `(arrival bits, id)`. Valid
    /// because event times are non-negative and finite.
    pub(crate) fn ready_key(arrive_ns: f64, id: u64) -> (u64, u64) {
        debug_assert!(
            arrive_ns.is_finite() && arrive_ns >= 0.0,
            "arrival times are non-negative finite"
        );
        (arrive_ns.to_bits(), id)
    }

    /// Marks `class` ready under `key`, replacing any previous state.
    pub(crate) fn set_ready(&mut self, class: RequestClass, key: (u64, u64)) {
        self.clear(class);
        self.keys.insert(class, key);
        self.ready.insert((key.0, key.1, class));
    }

    /// Marks `class` flagged (queued, not yet dispatchable), replacing
    /// any previous state.
    pub(crate) fn set_flagged(&mut self, class: RequestClass) {
        self.clear(class);
        self.flagged.insert(class);
    }

    /// Removes `class` from both the ready and flagged sets.
    pub(crate) fn clear(&mut self, class: RequestClass) {
        if let Some((t, id)) = self.keys.remove(&class) {
            self.ready.remove(&(t, id, class));
        }
        self.flagged.remove(&class);
    }

    /// The ready class whose head has waited longest (ties by request
    /// id; ids are unique so the order is total).
    pub(crate) fn best(&self) -> Option<RequestClass> {
        self.ready.first().map(|&(_, _, class)| class)
    }

    /// First flagged class in class order (cursor start for the arming
    /// sweep; the sweep may promote the cursor's class without
    /// invalidating [`ReadyIndex::next_flagged_after`]).
    pub(crate) fn first_flagged(&self) -> Option<RequestClass> {
        self.flagged.first().copied()
    }

    /// The flagged class after `class` in class order.
    pub(crate) fn next_flagged_after(&self, class: RequestClass) -> Option<RequestClass> {
        self.flagged.range((Excluded(class), Unbounded)).next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    fn class(seq: usize) -> RequestClass {
        RequestClass::new(ModelKind::Tiny, seq)
    }

    #[test]
    fn ready_index_orders_by_wait_then_id() {
        let mut idx = ReadyIndex::new();
        idx.set_ready(class(16), ReadyIndex::ready_key(200.0, 9));
        idx.set_ready(class(32), ReadyIndex::ready_key(100.0, 12));
        assert_eq!(idx.best(), Some(class(32)), "older head wins");
        idx.set_ready(class(64), ReadyIndex::ready_key(100.0, 3));
        assert_eq!(idx.best(), Some(class(64)), "equal arrival: lower id wins");
        idx.clear(class(64));
        assert_eq!(idx.best(), Some(class(32)));
        // Re-marking replaces the old key (no stale entries linger).
        idx.set_ready(class(32), ReadyIndex::ready_key(500.0, 12));
        assert_eq!(idx.best(), Some(class(16)));
    }

    #[test]
    fn ready_key_bits_order_like_values() {
        // Non-negative finite f64 bit patterns sort like the values —
        // the property the integer ready-set key relies on.
        let times = [0.0, 1e-9, 0.5, 1.0, 50_000.0, 5e7, 1e308];
        for w in times.windows(2) {
            assert!(
                ReadyIndex::ready_key(w[0], 0) < ReadyIndex::ready_key(w[1], 0),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn flagged_cursor_survives_promotion() {
        let mut idx = ReadyIndex::new();
        idx.set_flagged(class(16));
        idx.set_flagged(class(32));
        idx.set_flagged(class(64));
        let first = idx.first_flagged().expect("flagged");
        assert_eq!(first, class(16));
        // Promoting the cursor's class must not derail the sweep.
        idx.set_ready(first, ReadyIndex::ready_key(1.0, 1));
        assert_eq!(idx.next_flagged_after(first), Some(class(32)));
        assert_eq!(idx.next_flagged_after(class(32)), Some(class(64)));
        assert_eq!(idx.next_flagged_after(class(64)), None);
        // A flagged class never appears ready and vice versa.
        assert_eq!(idx.best(), Some(class(16)));
        idx.set_flagged(class(16));
        assert_eq!(idx.best(), None);
    }
}
