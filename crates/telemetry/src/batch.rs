//! One-shot metric updates: a [`Batch`] of counter increments, gauge
//! adds and histogram observations under static names, published to
//! the active registry with one scope lookup and one lock.
//!
//! A [`crate::Tally`] serves a loop that updates the same few metrics
//! many times and must leave each gauge's f64 sum exactly as the
//! per-call adds would, so it registers every name and seeds every
//! accumulator from the registry. A batch serves code that knows its
//! whole update at once and charges each gauge one precomputed amount:
//! it registers nothing, allocates no name, and sums the adds it is
//! given for one gauge, in call order, into one add.
//!
//! ```
//! use star_telemetry::Batch;
//!
//! let ((), snap) = star_telemetry::with_scoped(|| {
//!     star_telemetry::add("array.energy_pj", 1.5);
//!     let mut batch = Batch::new();
//!     batch.count("array.reads", 4);
//!     batch.add("array.energy_pj", 4.0 * 0.25);
//!     batch.add("array.energy_pj", 0.5);
//!     batch.observe("array.row_len", 4.0, &[2.0, 8.0]);
//!     batch.publish();
//! });
//! assert_eq!(snap.counters["array.reads"], 4);
//! assert_eq!(snap.gauges["array.energy_pj"], 1.5 + (1.0 + 0.5));
//! assert_eq!(snap.histograms["array.row_len"].counts, vec![0, 1, 0]);
//! ```

/// Counter increments, gauge adds and histogram observations waiting
/// to be published together. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Batch {
    counters: Vec<(&'static str, u64)>,
    /// One entry per gauge: the sum of its adds, in call order.
    gauges: Vec<(&'static str, f64)>,
    observations: Vec<(&'static str, f64, &'static [f64])>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` when published.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counters.push((name, n));
    }

    /// Adds `v` to accumulating gauge `name` when published. Adds to a
    /// gauge the batch already holds are summed into its one add.
    pub fn add(&mut self, name: &'static str, v: f64) {
        match self.gauges.iter_mut().find(|(gauge, _)| *gauge == name) {
            Some((_, sum)) => *sum += v,
            None => self.gauges.push((name, v)),
        }
    }

    /// Records `value` into histogram `name` when published, creating
    /// it with `bounds` if absent.
    pub fn observe(&mut self, name: &'static str, value: f64, bounds: &'static [f64]) {
        self.observations.push((name, value, bounds));
    }

    /// Applies every update to the active registry (this thread's
    /// innermost [`crate::with_scoped`] registry, else the global one)
    /// under one lock, then empties the batch, keeping its buffers for
    /// the next use. A disabled registry takes nothing and is not
    /// locked.
    pub fn publish(&mut self) {
        crate::dispatch(|r| r.apply(&self.counters, &self.gauges, &self.observations));
        self.counters.clear();
        self.gauges.clear();
        self.observations.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_applies_what_facade_calls_leave() {
        let ((), facade) = crate::with_scoped(|| {
            crate::add("g", 0.1);
            crate::count("c", 2);
            crate::count("c", 3);
            crate::add("g", 0.2 + 0.3);
            crate::observe_with("h", 7.5, &[5.0]);
        });
        let ((), batch) = crate::with_scoped(|| {
            crate::add("g", 0.1);
            let mut b = Batch::new();
            b.count("c", 2);
            b.add("g", 0.2);
            b.count("c", 3);
            b.add("g", 0.3);
            b.observe("h", 7.5, &[5.0]);
            b.publish();
            // Published updates are gone; a second publish adds nothing.
            b.publish();
        });
        assert_eq!(batch, facade);
    }

    #[test]
    fn disabled_registry_takes_nothing() {
        let ((), snap) = crate::with_scoped(|| {
            let mut b = Batch::new();
            b.count("c", 1);
            b.add("g", 1.0);
            crate::active_scope().expect("scoped").set_enabled(false);
            b.publish();
        });
        assert!(snap.is_empty());
    }
}
