//! Per-run metric handles: a [`Tally`] of typed, `Vec`-indexed
//! accumulators for code that records the same few metrics millions of
//! times.
//!
//! Every facade call ([`crate::count`], [`crate::add`],
//! [`crate::observe_with`]) looks up the active scope, takes the
//! registry's `Mutex` and searches a `BTreeMap<String, _>`. A tally pays
//! for that once per metric, when it registers the name, and once per
//! run, when [`Tally::publish`] writes everything back under one lock.
//! An update in between is one load of the registry's `enabled` flag
//! and an add into a `Vec` slot.
//!
//! # Exactness
//!
//! Registration seeds each accumulator from the registry's current
//! state for its name, and every update repeats the registry's own
//! arithmetic on that seed:
//!
//! - a registered metric that is never recorded stays absent;
//! - every update honours the registry's `enabled` flag at call time;
//! - a first [`Tally::add`] to an absent gauge stores `v` itself;
//! - an existing histogram keeps its bounds.
//!
//! So after [`Tally::publish`] the registry holds exactly what the same
//! facade calls, made op by op, would have left, f64 sums included. That
//! holds whenever nothing else records the tally's names into its
//! registry between registration and publish: always for a scoped
//! registry, which is thread-local, and for the global registry while
//! one simulation at a time records into it. Counters and histogram
//! buckets are published as increments, so integer counts never lose an
//! update even when that condition fails.
//!
//! ```
//! use star_telemetry::Tally;
//!
//! let ((), snap) = star_telemetry::with_scoped(|| {
//!     star_telemetry::add("serve.energy_pj", 1.5);
//!     let mut tally = Tally::new();
//!     let requests = tally.counter("serve.requests");
//!     let energy = tally.gauge("serve.energy_pj");
//!     let size = tally.histogram("serve.batch", &[1.0, 4.0, 16.0]);
//!     for n in [3.0, 5.0] {
//!         tally.count(requests, 1);
//!         tally.add(energy, 0.25);
//!         tally.observe(size, n);
//!     }
//!     tally.publish();
//! });
//! assert_eq!(snap.counters["serve.requests"], 2);
//! assert_eq!(snap.gauges["serve.energy_pj"], 2.0);
//! assert_eq!(snap.histograms["serve.batch"].counts, vec![0, 1, 1, 0]);
//! ```

use crate::registry::{Histogram, Registry};
use std::rc::Rc;

/// Handle to a counter registered with [`Tally::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to an accumulating gauge registered with [`Tally::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram registered with [`Tally::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// The registry a tally seeds from and publishes to.
#[derive(Debug)]
enum Binding {
    Global(&'static Registry),
    Scoped(Rc<Registry>),
}

impl Binding {
    fn registry(&self) -> &Registry {
        match self {
            Binding::Global(r) => r,
            Binding::Scoped(r) => r,
        }
    }
}

#[derive(Debug)]
struct CounterSlot {
    name: String,
    /// Sum of this tally's increments (published as one increment).
    delta: u64,
    recorded: bool,
}

#[derive(Debug)]
struct GaugeSlot {
    name: String,
    /// The registry's value at registration plus every add since;
    /// `None` while the gauge is absent.
    value: Option<f64>,
    recorded: bool,
}

#[derive(Debug)]
struct HistogramSlot {
    name: String,
    /// Bounds for creating the histogram if it is absent at first
    /// observation.
    bounds: Vec<f64>,
    /// The resident bounds and sum at registration with zeroed counts,
    /// then every observation since; `None` while absent.
    hist: Option<Histogram>,
}

/// A set of typed, `Vec`-indexed metric accumulators, registered once
/// against one registry and published back to it in one write. See the
/// [module docs](self) for the exactness contract.
#[derive(Debug)]
pub struct Tally {
    binding: Binding,
    counters: Vec<CounterSlot>,
    gauges: Vec<GaugeSlot>,
    histograms: Vec<HistogramSlot>,
    updates: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Self::new()
    }
}

impl Tally {
    /// An empty tally bound to the active registry: this thread's
    /// innermost [`crate::with_scoped`] registry, else the global one.
    pub fn new() -> Self {
        let binding = match crate::active_scope() {
            Some(reg) => Binding::Scoped(reg),
            None => Binding::Global(crate::global()),
        };
        Self::bound(binding)
    }

    fn bound(binding: Binding) -> Self {
        Tally {
            binding,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            updates: 0,
        }
    }

    /// Registers counter `name`. Registering a name twice returns the
    /// first handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|s| s.name == name) {
            return CounterId(i);
        }
        self.counters.push(CounterSlot { name: name.to_string(), delta: 0, recorded: false });
        CounterId(self.counters.len() - 1)
    }

    /// Registers accumulating gauge `name`, seeded with the registry's
    /// current value. Registering a name twice returns the first handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|s| s.name == name) {
            return GaugeId(i);
        }
        let value = self.binding.registry().read_gauge(name);
        self.gauges.push(GaugeSlot { name: name.to_string(), value, recorded: false });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers histogram `name`, seeded with the registry's resident
    /// bounds and sum; `bounds` apply only if it is still absent at the
    /// first observation. Registering a name twice returns the first
    /// handle.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|s| s.name == name) {
            return HistogramId(i);
        }
        let hist = self.binding.registry().read_histogram(name);
        self.histograms.push(HistogramSlot {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            hist,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter, as [`Registry::count`] would.
    #[inline]
    pub fn count(&mut self, id: CounterId, n: u64) {
        self.updates += 1;
        if self.binding.registry().is_enabled() {
            let slot = &mut self.counters[id.0];
            slot.delta += n;
            slot.recorded = true;
        }
    }

    /// Adds `v` to an accumulating gauge, as [`Registry::add`] would.
    #[inline]
    pub fn add(&mut self, id: GaugeId, v: f64) {
        self.updates += 1;
        if self.binding.registry().is_enabled() {
            let slot = &mut self.gauges[id.0];
            slot.value = Some(match slot.value {
                Some(g) => g + v,
                None => v,
            });
            slot.recorded = true;
        }
    }

    /// Records `value` into a histogram, as [`Registry::observe_with`]
    /// would.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.updates += 1;
        if self.binding.registry().is_enabled() {
            let slot = &mut self.histograms[id.0];
            slot.hist.get_or_insert_with(|| Histogram::new(&slot.bounds)).observe(value);
        }
    }

    /// Update calls made so far, recorded or not (the self-profiler's
    /// telemetry op count).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Writes every recorded accumulator back to the registry under one
    /// lock. Metrics that were registered but never recorded are left
    /// as they are.
    pub fn publish(self) {
        let counters =
            self.counters.iter().filter(|s| s.recorded).map(|s| (s.name.as_str(), s.delta));
        let gauges = self
            .gauges
            .iter()
            .filter(|s| s.recorded)
            .filter_map(|s| Some((s.name.as_str(), s.value?)));
        let histograms = self
            .histograms
            .iter()
            .filter_map(|s| Some((s.name.as_str(), s.hist.as_ref()?)))
            .filter(|(_, h)| h.total() > 0);
        self.binding.registry().write_back(counters, gauges, histograms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_BUCKET_BOUNDS;
    use proptest::prelude::*;

    /// An empty tally bound to `registry` instead of the active one.
    fn tally_on(registry: &Rc<Registry>) -> Tally {
        Tally::bound(Binding::Scoped(Rc::clone(registry)))
    }

    /// The tally-vs-facade name universe: per kind, a name the registry
    /// already holds, one it does not, and one that is registered but
    /// never recorded. `h.rebound` is resident with bounds other than the
    /// ones it is registered and observed with.
    const TALLY_COUNTERS: [&str; 3] = ["c.present", "c.absent", "c.unused"];
    const TALLY_GAUGES: [&str; 3] = ["g.present", "g.absent", "g.unused"];
    const TALLY_HISTOGRAMS: [&str; 5] =
        ["h.present", "h.rebound", "h.absent", "h.default", "h.unused"];
    const BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

    /// Bounds each histogram is registered (and facade-observed) with.
    fn tally_bounds(name: &str) -> &'static [f64] {
        match name {
            "h.default" => &DEFAULT_BUCKET_BOUNDS,
            _ => &BATCH_BOUNDS,
        }
    }

    /// The state both registries start from.
    fn prepopulate(reg: &Registry) {
        reg.count("c.present", 5);
        reg.add("g.present", 0.1);
        reg.add("g.present", 0.2);
        reg.observe_with("h.present", 0.3, &BATCH_BOUNDS);
        reg.observe_with("h.present", 40.0, &BATCH_BOUNDS);
        reg.observe_with("h.rebound", 0.7, &[0.5, 50.0]);
        reg.count("other.counter", 1);
    }

    /// One recording op: `(kind, name index, count, value)`; the value
    /// selector maps a few draws onto `-0.0`, `0.0` and a value past every
    /// histogram's last bound.
    fn tally_ops() -> impl Strategy<Value = Vec<(u8, usize, u64, f64)>> {
        prop::collection::vec(
            (0u8..3, 0usize..5, 0u64..50, 0u8..8, -1e3f64..1e3).prop_map(|(kind, i, n, sel, v)| {
                let value = match sel {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 3e9,
                    _ => v,
                };
                (kind, i, n, value)
            }),
            0..48,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tally_publishes_what_facade_calls_leave(
            ops in tally_ops(),
            off_start in 0usize..48,
            off_len in 0usize..12,
        ) {
            let facade = Registry::new();
            let twin = Rc::new(Registry::new());
            prepopulate(&facade);
            prepopulate(&twin);
            let mut tally = tally_on(&twin);
            let counters: Vec<_> = TALLY_COUNTERS.iter().map(|n| tally.counter(n)).collect();
            let gauges: Vec<_> = TALLY_GAUGES.iter().map(|n| tally.gauge(n)).collect();
            let histograms: Vec<_> =
                TALLY_HISTOGRAMS.iter().map(|n| tally.histogram(n, tally_bounds(n))).collect();
            // `*.unused` (the last name of each kind) is never recorded.
            for (i, &(kind, name, n, v)) in ops.iter().enumerate() {
                let on = !(off_start..off_start + off_len).contains(&i);
                facade.set_enabled(on);
                twin.set_enabled(on);
                match kind {
                    0 => {
                        let i = name % (TALLY_COUNTERS.len() - 1);
                        facade.count(TALLY_COUNTERS[i], n);
                        tally.count(counters[i], n);
                    }
                    1 => {
                        let i = name % (TALLY_GAUGES.len() - 1);
                        facade.add(TALLY_GAUGES[i], v);
                        tally.add(gauges[i], v);
                    }
                    _ => {
                        let i = name % (TALLY_HISTOGRAMS.len() - 1);
                        let h = TALLY_HISTOGRAMS[i];
                        facade.observe_with(h, v, tally_bounds(h));
                        tally.observe(histograms[i], v);
                    }
                }
            }
            facade.set_enabled(true);
            twin.set_enabled(true);
            prop_assert_eq!(tally.updates(), ops.len() as u64);
            tally.publish();
            let (want, got) = (facade.snapshot(), twin.snapshot());
            prop_assert_eq!(
                serde_json::to_string(&got).expect("serialize"),
                serde_json::to_string(&want).expect("serialize")
            );
            prop_assert!(!got.counters.contains_key("c.unused"));
            prop_assert!(!got.gauges.contains_key("g.unused"));
            prop_assert!(!got.histograms.contains_key("h.unused"));
            prop_assert_eq!(&got.histograms["h.rebound"].bounds, &vec![0.5, 50.0]);
        }
    }

    #[test]
    fn scoped_tally_matches_facade_calls() {
        let record = |tally: bool| {
            crate::with_scoped(|| {
                crate::add("g", 0.1);
                crate::observe_with("h", 0.3, &[1.0, 2.0]);
                if tally {
                    let mut t = Tally::new();
                    let (c, g, h) = (t.counter("c"), t.gauge("g"), t.histogram("h", &[5.0]));
                    for v in [0.2, -0.0, 7.5] {
                        t.count(c, 2);
                        t.add(g, v);
                        t.observe(h, v);
                    }
                    t.publish();
                } else {
                    for v in [0.2, -0.0, 7.5] {
                        crate::count("c", 2);
                        crate::add("g", v);
                        crate::observe_with("h", v, &[5.0]);
                    }
                }
            })
            .1
        };
        let (facade, tally) = (record(false), record(true));
        assert_eq!(tally, facade);
        assert_eq!(tally.histograms["h"].bounds, vec![1.0, 2.0], "resident bounds win");
    }

    #[test]
    fn publish_adds_counts_written_meanwhile() {
        let reg = Rc::new(Registry::new());
        let mut tally = tally_on(&reg);
        let (c, h) = (tally.counter("c"), tally.histogram("h", &[1.0]));
        tally.count(c, 3);
        tally.observe(h, 0.5);
        reg.count("c", 4);
        reg.observe_with("h", 2.0, &[10.0]);
        tally.publish();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.histograms["h"].total, 2, "no observation dropped");
    }

    #[test]
    fn registering_a_name_twice_shares_one_slot() {
        let mut tally = Tally::new();
        assert_eq!(tally.counter("x"), tally.counter("x"));
        assert_eq!(tally.gauge("x"), tally.gauge("x"));
        assert_eq!(tally.histogram("x", &[1.0]), tally.histogram("x", &[2.0]));
    }
}
