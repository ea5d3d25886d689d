//! Crossbar array geometry and shared cost accounting.

use serde::{Deserialize, Serialize};
use star_device::{Area, Energy, Latency, TechnologyParams};
use star_telemetry::Batch;
use std::cell::RefCell;
use std::fmt;

/// Rows × columns shape of a crossbar array.
///
/// # Examples
///
/// ```
/// use star_crossbar::Geometry;
///
/// // The paper's CAM/SUB crossbar for 9-bit data: 512 rows, 18 columns.
/// let g = Geometry::new(512, 18);
/// assert_eq!(g.cells(), 9216);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    rows: usize,
    cols: usize,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds 65 536 (beyond any
    /// practical array).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        assert!(rows <= 65_536 && cols <= 65_536, "crossbar dimension too large");
        Geometry { rows, cols }
    }

    /// Number of wordlines.
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of bitlines.
    pub fn cols(self) -> usize {
        self.cols
    }

    /// Total cell count.
    pub fn cells(self) -> usize {
        self.rows * self.cols
    }

    /// Silicon area of the bare cell array under the technology's cell
    /// footprint (periphery is accounted separately per array type).
    pub fn cell_array_area(self, tech: &TechnologyParams) -> Area {
        tech.rram_cell_area() * self.cells() as f64
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Energy and latency of one array operation.
///
/// Operations on crossbars return their result alongside nothing; cost is
/// queried via per-op cost methods and accumulated in each array's
/// [`Ledger`]. `OpCost` is the unit of exchange between the functional
/// simulators and the architecture models.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OpCost {
    /// Dynamic energy of the operation.
    pub energy: Energy,
    /// Latency of the operation.
    pub latency: Latency,
}

impl OpCost {
    /// The free operation.
    pub const ZERO: OpCost = OpCost { energy: Energy::ZERO, latency: Latency::ZERO };

    /// Creates an op cost.
    pub fn new(energy: Energy, latency: Latency) -> Self {
        OpCost { energy, latency }
    }

    /// Sequential composition: energies add, latencies add.
    pub fn then(self, next: OpCost) -> OpCost {
        OpCost { energy: self.energy + next.energy, latency: self.latency + next.latency }
    }

    /// Parallel composition: energies add, latency is the maximum.
    pub fn alongside(self, other: OpCost) -> OpCost {
        OpCost {
            energy: self.energy + other.energy,
            latency: if self.latency >= other.latency { self.latency } else { other.latency },
        }
    }

    /// `n` back-to-back repetitions.
    pub fn repeat(self, n: u64) -> OpCost {
        OpCost { energy: self.energy * n as f64, latency: self.latency * n as f64 }
    }
}

impl std::ops::Add for OpCost {
    type Output = OpCost;

    fn add(self, rhs: OpCost) -> OpCost {
        self.then(rhs)
    }
}

impl std::iter::Sum for OpCost {
    fn sum<I: Iterator<Item = OpCost>>(iter: I) -> OpCost {
        iter.fold(OpCost::ZERO, OpCost::then)
    }
}

/// Running op counts of one array: one `u64` per op kind, priced when
/// read. Each kind's cost is fixed when the array is built, so energy
/// and busy time are Σ count × cost over the kinds, in kind order: one
/// multiply per kind however many ops were charged, and a charge of `n`
/// ops is one addition to a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger<const K: usize> {
    counts: [u64; K],
    costs: [OpCost; K],
}

impl<const K: usize> Ledger<K> {
    /// An empty ledger pricing kind `k` at `costs[k]`.
    pub(crate) fn new(costs: [OpCost; K]) -> Self {
        Ledger { counts: [0; K], costs }
    }

    /// Charges `n` ops of `kind`: adds `n` to its count, and to `batch`
    /// adds `n` to counter `ops` and `n × cost` to gauge `energy`. A
    /// charge of zero ops changes nothing.
    pub(crate) fn charge(
        &mut self,
        kind: usize,
        n: u64,
        batch: &mut Batch,
        ops: &'static str,
        energy: &'static str,
    ) {
        if n == 0 {
            return;
        }
        self.counts[kind] += n;
        batch.count(ops, n);
        batch.add(energy, self.costs[kind].repeat(n).energy.value());
    }

    /// Ops charged per kind.
    pub fn counts(&self) -> [u64; K] {
        self.counts
    }

    /// The cost of one op of each kind.
    pub fn costs(&self) -> [OpCost; K] {
        self.costs
    }

    /// Everything charged, priced: energy and busy time, each Σ count ×
    /// cost over the kinds, in kind order.
    pub fn total(&self) -> OpCost {
        self.counts
            .iter()
            .zip(&self.costs)
            .fold(OpCost::ZERO, |sum, (&n, cost)| sum.then(cost.repeat(n)))
    }

    /// Total dynamic energy charged.
    pub fn energy(&self) -> Energy {
        self.total().energy
    }
}

thread_local! {
    /// The batch [`record`] charges into, reused so that a recording
    /// call allocates nothing.
    static RECORDING: RefCell<Batch> = RefCell::new(Batch::new());
}

/// Publishes one charge made outside any caller's batch: what a
/// recording method (`search`, `subtract`, `read_row`, …) does after its
/// peek. `charge` must only charge (`charge_*`), never record.
pub(crate) fn record(charge: impl FnOnce(&mut Batch)) {
    RECORDING.with(|batch| {
        let mut batch = batch.borrow_mut();
        charge(&mut batch);
        batch.publish();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let g = Geometry::new(256, 18);
        assert_eq!(g.rows(), 256);
        assert_eq!(g.cols(), 18);
        assert_eq!(g.cells(), 4608);
        assert_eq!(g.to_string(), "256x18");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dim() {
        let _ = Geometry::new(0, 8);
    }

    #[test]
    fn cell_array_area_scales() {
        let tech = TechnologyParams::cmos32();
        let small = Geometry::new(128, 128).cell_array_area(&tech);
        let big = Geometry::new(256, 128).cell_array_area(&tech);
        assert!((big.value() / small.value() - 2.0).abs() < 1e-12);
        // 128×128 at 4F², 32 nm: 16384 · 0.004096 µm² ≈ 67.1 µm².
        assert!((small.value() - 67.108864).abs() < 1e-6);
    }

    #[test]
    fn op_cost_composition() {
        let a = OpCost::new(Energy::new(1.0), Latency::new(2.0));
        let b = OpCost::new(Energy::new(3.0), Latency::new(1.0));
        let s = a.then(b);
        assert_eq!(s.energy.value(), 4.0);
        assert_eq!(s.latency.value(), 3.0);
        let p = a.alongside(b);
        assert_eq!(p.energy.value(), 4.0);
        assert_eq!(p.latency.value(), 2.0);
        let r = a.repeat(3);
        assert_eq!(r.energy.value(), 3.0);
        assert_eq!(r.latency.value(), 6.0);
    }

    #[test]
    fn op_cost_sum() {
        let total: OpCost = (0..4).map(|_| OpCost::new(Energy::new(0.5), Latency::new(1.0))).sum();
        assert_eq!(total.energy.value(), 2.0);
        assert_eq!(total.latency.value(), 4.0);
    }

    #[test]
    fn ledger_accumulates() {
        let costs = [
            OpCost::new(Energy::new(1.0), Latency::new(2.0)),
            OpCost::new(Energy::new(0.5), Latency::new(0.5)),
        ];
        let mut l = Ledger::new(costs);
        let mut batch = Batch::new();
        l.charge(0, 1, &mut batch, "ops", "energy");
        l.charge(1, 3, &mut batch, "ops", "energy");
        assert_eq!((l.counts(), l.costs()), ([1, 3], costs));
        assert_eq!(l.total(), OpCost::new(Energy::new(2.5), Latency::new(3.5)));
    }
}
