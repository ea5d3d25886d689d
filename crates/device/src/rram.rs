//! RRAM cell model.

use crate::noise::{NoiseModel, StuckFault};
use crate::tech::TechnologyParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One programmable RRAM crosspoint cell.
///
/// A cell stores a discrete *level* in `[0, levels)` mapped linearly onto
/// the conductance window `[g_hrs, g_lrs]`. Single-bit cells (`levels = 2`)
/// are what the CAM, LUT and bit-sliced VMM arrays use; multi-level cells
/// are available for denser VMM mappings.
///
/// # Examples
///
/// ```
/// use star_device::{RramCell, TechnologyParams};
///
/// let tech = TechnologyParams::cmos32();
/// let mut cell = RramCell::new(2, &tech);
/// cell.program_ideal(1);
/// assert!((cell.conductance() - tech.g_lrs()).abs() < 1e-12);
/// cell.program_ideal(0);
/// assert!((cell.conductance() - tech.g_hrs()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RramCell {
    levels: u16,
    level: u16,
    conductance: f64,
    g_hrs: f64,
    g_lrs: f64,
    fault: StuckFault,
}

impl RramCell {
    /// Creates a fresh cell (erased to HRS) with the given number of levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(levels: u16, tech: &TechnologyParams) -> Self {
        assert!(levels >= 2, "a memory cell needs at least two levels");
        RramCell {
            levels,
            level: 0,
            conductance: tech.g_hrs(),
            g_hrs: tech.g_hrs(),
            g_lrs: tech.g_lrs(),
            fault: StuckFault::None,
        }
    }

    /// Number of programmable levels.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// The last programmed level (defects ignore it at read time).
    pub fn level(&self) -> u16 {
        self.level
    }

    /// The cell's fault state.
    pub fn fault(&self) -> StuckFault {
        self.fault
    }

    /// Marks the cell defective.
    pub fn set_fault(&mut self, fault: StuckFault) {
        self.fault = fault;
    }

    /// Target conductance for a level under the linear mapping.
    pub fn target_conductance(&self, level: u16) -> f64 {
        assert!(level < self.levels, "level {level} out of range 0..{}", self.levels);
        let t = level as f64 / (self.levels - 1) as f64;
        self.g_hrs + t * (self.g_lrs - self.g_hrs)
    }

    /// Programs the cell to `level` with no variation.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    pub fn program_ideal(&mut self, level: u16) {
        star_telemetry::count("device.rram.writes", 1);
        self.conductance = self.target_conductance(level);
        self.level = level;
    }

    /// Programs the cell to `level`, applying the noise model's
    /// device-to-device variation.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    pub fn program<R: Rng + ?Sized>(&mut self, level: u16, noise: &NoiseModel, rng: &mut R) {
        star_telemetry::count("device.rram.writes", 1);
        let target = self.target_conductance(level);
        self.conductance = noise.program(target, rng).clamp(self.g_hrs * 0.1, self.g_lrs * 10.0);
        self.level = level;
    }

    /// The effective conductance, honouring stuck faults.
    pub fn conductance(&self) -> f64 {
        match self.fault {
            StuckFault::None => self.conductance,
            StuckFault::StuckOn => self.g_lrs,
            StuckFault::StuckOff => self.g_hrs,
        }
    }

    /// Ideal (noiseless) current through the cell at `voltage`.
    pub fn ideal_current(&self, voltage: f64) -> f64 {
        self.conductance() * voltage
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tech() -> TechnologyParams {
        TechnologyParams::cmos32()
    }

    #[test]
    fn fresh_cell_is_hrs() {
        let c = RramCell::new(2, &tech());
        assert_eq!(c.level(), 0);
        assert!(!c.stores_one());
    }

    #[test]
    fn binary_programming() {
        let t = tech();
        let mut c = RramCell::new(2, &t);
        c.program_ideal(1);
        assert!(c.stores_one());
        assert!((c.conductance() - t.g_lrs()).abs() < 1e-15);
        c.program_ideal(0);
        assert!(!c.stores_one());
    }

    #[test]
    fn multilevel_targets_are_monotone() {
        let t = tech();
        let c = RramCell::new(16, &t);
        let mut prev = 0.0;
        for lvl in 0..16 {
            let g = c.target_conductance(lvl);
            assert!(g > prev, "level {lvl}");
            prev = g;
        }
        assert!((c.target_conductance(15) - t.g_lrs()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn program_rejects_bad_level() {
        let mut c = RramCell::new(4, &tech());
        c.program_ideal(4);
    }

    #[test]
    fn stuck_faults_override() {
        let t = tech();
        let mut c = RramCell::new(2, &t);
        c.program_ideal(1);
        c.set_fault(StuckFault::StuckOff);
        assert!(!c.stores_one());
        assert!((c.conductance() - t.g_hrs()).abs() < 1e-15);
        c.set_fault(StuckFault::StuckOn);
        assert!(c.stores_one());
    }

    #[test]
    fn noisy_program_near_target() {
        let t = tech();
        let mut c = RramCell::new(2, &t);
        let noise = NoiseModel::new(0.03, 0.0, 0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            c.program(1, &noise, &mut rng);
            sum += c.conductance();
        }
        let mean = sum / n as f64;
        assert!((mean / t.g_lrs() - 1.0).abs() < 0.01, "ratio {}", mean / t.g_lrs());
    }

    #[test]
    fn ohms_law() {
        let t = tech();
        let mut c = RramCell::new(2, &t);
        c.program_ideal(1);
        let i = c.ideal_current(0.2);
        assert!((i - 0.2 * t.g_lrs()).abs() < 1e-15);
    }

    #[test]
    fn read_energy_higher_for_lrs() {
        let t = tech();
        let mut hi = RramCell::new(2, &t);
        hi.program_ideal(1);
        let lo = RramCell::new(2, &t);
        let energy = |c: &RramCell| t.cell_read_energy(c.conductance()).value();
        assert!(energy(&hi) > energy(&lo));
    }
}
