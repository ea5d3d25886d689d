//! RRAM cell model.

use crate::noise::StuckFault;
use crate::tech::TechnologyParams;
use serde::{Deserialize, Serialize};

/// Counter of programmed cells. A cell records nothing itself: each
/// array store call adds the number of cells it programmed, once.
pub const RRAM_WRITES: &str = "device.rram.writes";

/// One programmable single-bit RRAM crosspoint cell.
///
/// A cell stores a *level*, 0 or 1, mapped onto the ends of the
/// conductance window `[g_hrs, g_lrs]`: the CAM, LUT and bit-sliced VMM
/// arrays all store one bit per cell.
///
/// # Examples
///
/// ```
/// use star_device::{RramCell, TechnologyParams};
///
/// let tech = TechnologyParams::cmos32();
/// let mut cell = RramCell::new(&tech);
/// cell.program_ideal(1);
/// assert!((cell.conductance() - tech.g_lrs()).abs() < 1e-12);
/// cell.program_ideal(0);
/// assert!((cell.conductance() - tech.g_hrs()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RramCell {
    conductance: f64,
    g_hrs: f64,
    g_lrs: f64,
    fault: StuckFault,
}

impl RramCell {
    /// Creates a fresh cell, erased to HRS.
    pub fn new(tech: &TechnologyParams) -> Self {
        RramCell {
            conductance: tech.g_hrs(),
            g_hrs: tech.g_hrs(),
            g_lrs: tech.g_lrs(),
            fault: StuckFault::None,
        }
    }

    /// The cell's fault state.
    pub fn fault(&self) -> StuckFault {
        self.fault
    }

    /// Marks the cell defective.
    pub fn set_fault(&mut self, fault: StuckFault) {
        self.fault = fault;
    }

    /// Target conductance for a level: `g_hrs + level·(g_lrs − g_hrs)`.
    ///
    /// # Panics
    ///
    /// Panics if `level > 1`.
    pub fn target_conductance(&self, level: u16) -> f64 {
        assert!(level < 2, "level {level} out of range 0..2");
        self.g_hrs + level as f64 * (self.g_lrs - self.g_hrs)
    }

    /// Programs the cell to `level`. The caller counts the write under
    /// [`RRAM_WRITES`].
    ///
    /// # Panics
    ///
    /// Panics if `level > 1`.
    pub fn program_ideal(&mut self, level: u16) {
        self.conductance = self.target_conductance(level);
    }

    /// The effective conductance, honouring stuck faults.
    pub fn conductance(&self) -> f64 {
        match self.fault {
            StuckFault::None => self.conductance,
            StuckFault::StuckOn => self.g_lrs,
            StuckFault::StuckOff => self.g_hrs,
        }
    }

    /// True if the cell currently stores a "1" (top half of the window) —
    /// the digital interpretation used by CAM/LUT arrays.
    pub fn stores_one(&self) -> bool {
        self.conductance() > (self.g_hrs + self.g_lrs) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::cmos32()
    }

    #[test]
    fn fresh_cell_is_hrs() {
        let t = tech();
        let c = RramCell::new(&t);
        assert_eq!(c.conductance(), t.g_hrs());
        assert!(!c.stores_one());
    }

    #[test]
    fn binary_programming() {
        let t = tech();
        let mut c = RramCell::new(&t);
        c.program_ideal(1);
        assert!(c.stores_one());
        assert!((c.conductance() - t.g_lrs()).abs() < 1e-15);
        c.program_ideal(0);
        assert!(!c.stores_one());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn program_rejects_bad_level() {
        let mut c = RramCell::new(&tech());
        c.program_ideal(2);
    }

    #[test]
    fn stuck_faults_override() {
        let t = tech();
        let mut c = RramCell::new(&t);
        c.program_ideal(1);
        c.set_fault(StuckFault::StuckOff);
        assert!(!c.stores_one());
        assert!((c.conductance() - t.g_hrs()).abs() < 1e-15);
        c.set_fault(StuckFault::StuckOn);
        assert!(c.stores_one());
    }

    #[test]
    fn read_energy_higher_for_lrs() {
        let t = tech();
        let mut hi = RramCell::new(&t);
        hi.program_ideal(1);
        let lo = RramCell::new(&t);
        let energy = |c: &RramCell| t.cell_read_energy(c.conductance()).value();
        assert!(energy(&hi) > energy(&lo));
    }
}
