//! The deterministic autoscaler: add and drain instances from signals
//! already in the event loop.
//!
//! Scale decisions are evaluated on a fixed cadence by `ScaleCheck`
//! events — ordinary `(time, seq)` events in the simulator's totally
//! ordered queue, so byte-identical replay survives any
//! `STAR_EXEC_THREADS`. The decision inputs are
//! exact integers maintained in event order: the global queue depth and
//! each class's good and violated outcomes since the previous check,
//! read as the class table's running totals less those seen at that
//! check (the in-loop analogue of `slo.rs`'s post-hoc burn-rate
//! windows). No RNG is consumed anywhere.
//!
//! Scale-up activates the lowest inactive instance index; scale-down
//! drains the highest *idle* active index (a busy instance is never
//! interrupted — if nothing is idle, the decision is skipped and
//! retried at the next check). Both are pure functions of the event
//! history, so the scale-event timeline is as replayable as the rest of
//! the run.

use serde::{Deserialize, Serialize};

/// Configuration of the deterministic autoscaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// The fleet never drains below this many active instances.
    pub min_instances: usize,
    /// The fleet never grows beyond this many active instances.
    pub max_instances: usize,
    /// Cadence of the `ScaleCheck` decision events, ns.
    pub check_interval_ns: f64,
    /// Scale up when the global queue depth reaches this many requests.
    pub up_queue_depth: usize,
    /// Scale down only when the global queue depth is at or below this.
    pub down_queue_depth: usize,
    /// Per-interval violation budget: a class whose
    /// `(late + expired + rejected) / outcomes` fraction since the last
    /// check exceeds this burns budget "hot" and triggers scale-up
    /// (mirrors `SloPolicy::budget()`'s 1 − target).
    pub slo_budget: f64,
    /// Minimum time between two scale actions, ns.
    pub cooldown_ns: f64,
}

impl AutoscaleConfig {
    /// An autoscaler between `min_instances` and `max_instances` with
    /// moderate defaults: 1 ms checks, scale up at queue depth 8 or a
    /// hot burn interval, scale down below depth 2, 2 ms cooldown.
    pub fn new(min_instances: usize, max_instances: usize) -> Self {
        AutoscaleConfig {
            min_instances,
            max_instances,
            check_interval_ns: 1e6,
            up_queue_depth: 8,
            down_queue_depth: 2,
            slo_budget: 0.01,
            cooldown_ns: 2e6,
        }
    }

    /// Panics on degenerate bounds or non-finite/negative times.
    pub(crate) fn validate(&self) {
        assert!(self.min_instances >= 1, "autoscaler must keep at least one instance active");
        assert!(
            self.min_instances <= self.max_instances,
            "autoscaler min_instances must not exceed max_instances"
        );
        assert!(
            self.check_interval_ns.is_finite() && self.check_interval_ns > 0.0,
            "check interval must be positive"
        );
        assert!(
            self.cooldown_ns.is_finite() && self.cooldown_ns >= 0.0,
            "cooldown must be finite and non-negative"
        );
        assert!(
            self.slo_budget.is_finite() && (0.0..1.0).contains(&self.slo_budget),
            "slo budget must lie in [0, 1)"
        );
        assert!(
            self.down_queue_depth <= self.up_queue_depth,
            "scale-down threshold must not exceed the scale-up threshold"
        );
    }
}

/// Direction of one scale action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDirection {
    /// An instance was activated.
    Up,
    /// An idle instance was drained.
    Down,
}

/// One entry of the scale-event timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Decision time, ns.
    pub t_ns: f64,
    /// Whether the fleet grew or shrank.
    pub direction: ScaleDirection,
    /// Active instances after the action.
    pub active_after: usize,
    /// Global queue depth at the decision.
    pub queued: usize,
    /// Whether a class burned its per-interval violation budget.
    pub burn_hot: bool,
}

/// What a scale check decided (before the simulator attempts it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaleDecision {
    pub(crate) direction: Option<ScaleDirection>,
    pub(crate) burn_hot: bool,
}

/// Runtime state of the autoscaler: active flags, each class's outcome
/// totals at the last check, the timeline, and the active-instance time
/// integral behind the instance-seconds cost figure.
#[derive(Debug)]
pub(crate) struct ScalerState {
    pub(crate) cfg: AutoscaleConfig,
    active: Vec<bool>,
    active_count: usize,
    last_action_ns: f64,
    /// Per class-table row, the cumulative `(good, violated)` counts the
    /// previous check read.
    seen: Vec<(u64, u64)>,
    pub(crate) events: Vec<ScaleEvent>,
    /// `Σ active_count · dt` over all activity changes so far, ns.
    integral_ns: f64,
    last_change_ns: f64,
    pub(crate) peak_active: usize,
    pub(crate) min_active: usize,
}

impl ScalerState {
    /// A scaler over `capacity` instance slots with the first
    /// `initial_active` of them active, judging `classes` request classes.
    pub(crate) fn new(
        cfg: AutoscaleConfig,
        capacity: usize,
        initial_active: usize,
        classes: usize,
    ) -> Self {
        debug_assert!(initial_active >= 1 && initial_active <= capacity);
        let mut active = vec![false; capacity];
        for slot in active.iter_mut().take(initial_active) {
            *slot = true;
        }
        ScalerState {
            cfg,
            active,
            active_count: initial_active,
            last_action_ns: f64::NEG_INFINITY,
            seen: vec![(0, 0); classes],
            events: Vec::new(),
            integral_ns: 0.0,
            last_change_ns: 0.0,
            peak_active: initial_active,
            min_active: initial_active,
        }
    }

    /// Whether instance `i` is currently active.
    pub(crate) fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Currently active instances.
    pub(crate) fn active_count(&self) -> usize {
        self.active_count
    }

    /// Evaluates the scale decision at `now` with the current global
    /// queue depth and each class's cumulative `(good, violated)` counts,
    /// violated being late, expired or rejected, in class-table order.
    /// A class burns hot when its outcomes since the previous check
    /// violate more than the budget. The caller attempts the action and
    /// reports back via [`ScalerState::record`] (a decision that cannot
    /// be executed — e.g. scale-down with no idle instance — costs
    /// nothing and is retried next check).
    pub(crate) fn decide(
        &mut self,
        now: f64,
        queued_total: usize,
        totals: impl IntoIterator<Item = (u64, u64)>,
    ) -> ScaleDecision {
        let mut burn_hot = false;
        for (seen, (good, violated)) in self.seen.iter_mut().zip(totals) {
            let (good_since, violated_since) = (good - seen.0, violated - seen.1);
            let outcomes = (good_since + violated_since).max(1);
            burn_hot |= violated_since as f64 > self.cfg.slo_budget * outcomes as f64;
            *seen = (good, violated);
        }
        if now - self.last_action_ns < self.cfg.cooldown_ns {
            return ScaleDecision { direction: None, burn_hot };
        }
        let direction = if (queued_total >= self.cfg.up_queue_depth || burn_hot)
            && self.active_count < self.cfg.max_instances
        {
            Some(ScaleDirection::Up)
        } else if queued_total <= self.cfg.down_queue_depth
            && !burn_hot
            && self.active_count > self.cfg.min_instances
        {
            Some(ScaleDirection::Down)
        } else {
            None
        };
        ScaleDecision { direction, burn_hot }
    }

    /// The lowest inactive instance index, if any (the scale-up target).
    pub(crate) fn lowest_inactive(&self) -> Option<usize> {
        self.active.iter().position(|a| !a)
    }

    /// Records an executed scale action: flips `instance`, advances the
    /// activity integral, stamps the cooldown, and appends the timeline
    /// entry.
    pub(crate) fn record(
        &mut self,
        now: f64,
        direction: ScaleDirection,
        instance: usize,
        queued: usize,
        burn_hot: bool,
    ) {
        self.integral_ns += self.active_count as f64 * (now - self.last_change_ns);
        self.last_change_ns = now;
        match direction {
            ScaleDirection::Up => {
                debug_assert!(!self.active[instance]);
                self.active[instance] = true;
                self.active_count += 1;
            }
            ScaleDirection::Down => {
                debug_assert!(self.active[instance]);
                self.active[instance] = false;
                self.active_count -= 1;
            }
        }
        self.peak_active = self.peak_active.max(self.active_count);
        self.min_active = self.min_active.min(self.active_count);
        self.last_action_ns = now;
        self.events.push(ScaleEvent {
            t_ns: now,
            direction,
            active_after: self.active_count,
            queued,
            burn_hot,
        });
    }

    /// Closes the activity integral at `makespan_ns` and returns the
    /// total active instance-time, ns.
    pub(crate) fn close_integral(&mut self, makespan_ns: f64) -> f64 {
        self.integral_ns += self.active_count as f64 * (makespan_ns - self.last_change_ns);
        self.last_change_ns = makespan_ns;
        self.integral_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_validate() {
        let cfg = AutoscaleConfig::new(1, 8);
        cfg.validate();
        assert_eq!(cfg.min_instances, 1);
        assert_eq!(cfg.max_instances, 8);
    }

    #[test]
    #[should_panic(expected = "min_instances")]
    fn inverted_bounds_rejected() {
        AutoscaleConfig::new(4, 2).validate();
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_min_rejected() {
        AutoscaleConfig::new(0, 2).validate();
    }

    #[test]
    fn queue_depth_drives_both_directions() {
        let mut s = ScalerState::new(AutoscaleConfig::new(1, 4), 4, 2, 0);
        // Deep queue scales up.
        let d = s.decide(1e6, 50, []);
        assert_eq!(d.direction, Some(ScaleDirection::Up));
        s.record(1e6, ScaleDirection::Up, s.lowest_inactive().expect("slot"), 50, d.burn_hot);
        assert_eq!(s.active_count(), 3);
        assert!(s.is_active(2));
        // Cooldown suppresses the next decision.
        assert!(s.decide(1.5e6, 50, []).direction.is_none());
        // Empty queue after cooldown scales down.
        let d = s.decide(4e6, 0, []);
        assert_eq!(d.direction, Some(ScaleDirection::Down));
        s.record(4e6, ScaleDirection::Down, 2, 0, d.burn_hot);
        assert_eq!(s.active_count(), 2);
        assert!(!s.is_active(2));
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.peak_active, 3);
        assert_eq!(s.min_active, 2);
    }

    #[test]
    fn burn_rate_triggers_scale_up_even_with_shallow_queue() {
        let mut s = ScalerState::new(AutoscaleConfig::new(1, 4), 4, 1, 2);
        // A clean first interval is not hot.
        assert!(!s.decide(1e6, 0, [(900, 0), (40, 0)]).burn_hot);
        // 95 good and 5 violated since the last check in one class.
        let d = s.decide(2e6, 0, [(995, 5), (40, 0)]);
        assert!(d.burn_hot, "5% violations burn a 1% budget");
        assert_eq!(d.direction, Some(ScaleDirection::Up));
        // Only outcomes since the last check count: none is not hot.
        let d = s.decide(3e6, 0, [(995, 5), (40, 0)]);
        assert!(!d.burn_hot);
    }

    #[test]
    fn bounds_are_respected() {
        let mut s = ScalerState::new(AutoscaleConfig::new(2, 3), 3, 2, 0);
        // At min, an empty queue cannot scale down below min_instances.
        assert!(s.decide(1e6, 0, []).direction.is_none());
        let d = s.decide(4e6, 100, []);
        assert_eq!(d.direction, Some(ScaleDirection::Up));
        s.record(4e6, ScaleDirection::Up, 2, 100, false);
        // At max, a deep queue cannot scale further up.
        assert!(s.decide(9e6, 100, []).direction.is_none());
    }

    #[test]
    fn integral_accumulates_instance_time() {
        let mut s = ScalerState::new(AutoscaleConfig::new(1, 4), 4, 2, 0);
        s.record(10.0, ScaleDirection::Up, 2, 9, false);
        s.record(30.0, ScaleDirection::Down, 2, 0, false);
        // 2 instances for 10 ns, 3 for 20 ns, then 2 until 100 ns.
        assert_eq!(s.close_integral(100.0), 2.0 * 10.0 + 3.0 * 20.0 + 2.0 * 70.0);
    }

    #[test]
    fn scale_event_serde_round_trip() {
        let e = ScaleEvent {
            t_ns: 5e6,
            direction: ScaleDirection::Up,
            active_after: 3,
            queued: 17,
            burn_hot: true,
        };
        let json = serde_json::to_string(&e).expect("serialize");
        let back: ScaleEvent = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, e);
    }
}
