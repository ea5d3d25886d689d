//! Chip-level infrastructure: on-chip interconnect, activation buffering,
//! and clocking — the components behind the RRAM accelerators' "background
//! power" (the part of the chip that burns energy whether or not a
//! crossbar is firing).
//!
//! ISAAC's breakdown is the reference: at chip level the crossbars
//! themselves are a minority of the power; the H-tree/bus, eDRAM buffers,
//! and clock distribution dominate. The [`ChipInfrastructure`] model
//! assembles those from per-component constants so the accelerator models'
//! shared background-power figure is *derived* rather than asserted.

use crate::cost::{Energy, Power};
use serde::{Deserialize, Serialize};

/// On-chip interconnect (H-tree / shared bus) energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectModel {
    /// Wire energy per bit per millimetre (32 nm: ≈0.08 pJ/bit/mm).
    pub energy_per_bit_mm: Energy,
    /// Average on-chip transfer distance in mm.
    pub mean_distance_mm: f64,
    /// Router/arbiter overhead per 64-bit flit.
    pub flit_overhead: Energy,
}

impl InterconnectModel {
    /// 32 nm defaults: 0.08 pJ/bit/mm wires, 5 mm mean hops on a
    /// reticle-scale die, 2 pJ router overhead per flit.
    pub fn cmos32() -> Self {
        InterconnectModel {
            energy_per_bit_mm: Energy::new(0.08),
            mean_distance_mm: 5.0,
            flit_overhead: Energy::new(2.0),
        }
    }

    /// Energy to move `bytes` across the chip.
    pub fn transfer_energy(&self, bytes: u64) -> Energy {
        let bits = bytes as f64 * 8.0;
        let wire = self.energy_per_bit_mm * (bits * self.mean_distance_mm);
        let flits = (bytes as f64 / 8.0).ceil();
        wire + self.flit_overhead * flits
    }

    /// Sustained power at a transfer bandwidth (bytes/s), with router
    /// overhead amortized over full flits.
    pub fn power_at_bandwidth(&self, bytes_per_sec: f64) -> Power {
        assert!(bytes_per_sec >= 0.0, "bandwidth must be non-negative");
        // Amortized pJ/byte over a large transfer; pJ/B × B/s × 1e-9 = mW.
        let pj_per_byte = self.transfer_energy(4096).value() / 4096.0;
        Power::new(pj_per_byte * bytes_per_sec * 1e-9)
    }
}

impl Default for InterconnectModel {
    fn default() -> Self {
        Self::cmos32()
    }
}

/// The always-on chip infrastructure of an RRAM accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipInfrastructure {
    /// eDRAM/SRAM activation storage in MiB.
    pub buffer_mib: f64,
    /// Buffer standby + refresh power per MiB.
    pub buffer_power_per_mib: Power,
    /// Clock-tree power.
    pub clock_power: Power,
    /// Interconnect model.
    pub interconnect: InterconnectModel,
    /// Sustained activation bandwidth the interconnect carries (bytes/s).
    pub sustained_bandwidth: f64,
    /// Leakage of the (many) idle crossbar tiles and their periphery.
    pub array_leakage: Power,
}

impl ChipInfrastructure {
    /// An ISAAC-class chip: 64 MiB eDRAM (≈150 mW/MiB standby+refresh),
    /// 2.5 W clock tree, 20 GB/s sustained activation traffic, 1.6 W of
    /// array/periphery leakage.
    pub fn isaac_class() -> Self {
        ChipInfrastructure {
            buffer_mib: 64.0,
            buffer_power_per_mib: Power::new(150.0),
            clock_power: Power::from_watts(2.5),
            interconnect: InterconnectModel::cmos32(),
            sustained_bandwidth: 20e9,
            array_leakage: Power::from_watts(1.6),
        }
    }

    /// Total background power: what the accelerator burns independent of
    /// the compute it schedules.
    pub fn background_power(&self) -> Power {
        self.buffer_power_per_mib * self.buffer_mib
            + self.clock_power
            + self.interconnect.power_at_bandwidth(self.sustained_bandwidth)
            + self.array_leakage
    }
}

impl Default for ChipInfrastructure {
    fn default() -> Self {
        Self::isaac_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_energy_scales_linearly() {
        let ic = InterconnectModel::cmos32();
        let one = ic.transfer_energy(64);
        let two = ic.transfer_energy(128);
        assert!((two.value() / one.value() - 2.0).abs() < 1e-9);
        // 64 bytes = 512 bits × 0.08 pJ × 5 mm + 8 flits × 2 pJ = 220.8 pJ.
        assert!((one.value() - 220.8).abs() < 1e-9, "{one}");
    }

    #[test]
    fn bandwidth_power() {
        let ic = InterconnectModel::cmos32();
        // Amortized: 0.08·8·5 + 2/8 = 3.45 pJ/byte; ×20 GB/s = 69 mW.
        let p = ic.power_at_bandwidth(20e9);
        assert!((p.as_watts() - 0.069).abs() < 0.001, "{p}");
    }

    #[test]
    fn isaac_class_background_power_matches_calibration() {
        // The RRAM accelerator presets share a 14.5 W background-power
        // constant (EXPERIMENTS.md); the component assembly must land in
        // the same range, making that constant a derived quantity.
        let chip = ChipInfrastructure::isaac_class();
        let p = chip.background_power().as_watts();
        assert!((13.0..16.0).contains(&p), "background power {p} W");
    }

    #[test]
    fn buffer_dominates() {
        let chip = ChipInfrastructure::isaac_class();
        let buffers = (chip.buffer_power_per_mib * chip.buffer_mib).as_watts();
        assert!(buffers > chip.background_power().as_watts() * 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_rejected() {
        let _ = InterconnectModel::cmos32().power_at_bandwidth(-1.0);
    }
}
