//! CMOS peripheral and digital block cost models.
//!
//! Everything that is not an RRAM cell: sense amplifiers, matchline
//! periphery, counters, dividers, adders, SRAM, and the floating-point units
//! of the CMOS softmax baselines. Constants are 32 nm figures derived from
//! Horowitz's ISSCC 2014 energy survey (FP/INT op energies, SRAM access)
//! and the ISAAC component table, scaled to 32 nm where the source reports a
//! different node. Each block documents its anchor.

use crate::cost::{Area, Energy, Latency, Power};
use serde::{Deserialize, Serialize};

/// A generic digital block: fixed area, energy per operation, latency per
/// operation, and optional static (leakage) power.
///
/// All concrete peripheral models reduce to this record so cost aggregation
/// is uniform.
///
/// # Examples
///
/// ```
/// use star_device::peripherals::BlockSpec;
/// use star_device::cost::{Area, Energy, Latency, Power};
///
/// let b = BlockSpec::new(Area::new(100.0), Energy::new(0.5), Latency::new(1.0), Power::new(0.01));
/// assert_eq!(b.energy_for_ops(10).value(), 5.0);
/// // Average power when used at 50% duty: dynamic + static.
/// let p = b.average_power(0.5);
/// assert!((p.value() - 0.26).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlockSpec {
    area: Area,
    energy_per_op: Energy,
    latency_per_op: Latency,
    static_power: Power,
}

impl BlockSpec {
    /// Creates a block spec.
    pub fn new(
        area: Area,
        energy_per_op: Energy,
        latency_per_op: Latency,
        static_power: Power,
    ) -> Self {
        BlockSpec { area, energy_per_op, latency_per_op, static_power }
    }

    /// Silicon area.
    pub fn area(self) -> Area {
        self.area
    }

    /// Dynamic energy of one operation.
    pub fn energy_per_op(self) -> Energy {
        self.energy_per_op
    }

    /// Latency of one operation.
    pub fn latency_per_op(self) -> Latency {
        self.latency_per_op
    }

    /// Static (leakage) power.
    pub fn static_power(self) -> Power {
        self.static_power
    }

    /// Dynamic energy of `n` operations.
    pub fn energy_for_ops(self, n: u64) -> Energy {
        self.energy_per_op * n as f64
    }

    /// Average power at a given activity factor (operations per possible
    /// cycle, in `[0, 1]`): dynamic power at full duty scaled by activity,
    /// plus leakage.
    ///
    /// # Panics
    ///
    /// Panics if activity is outside `[0, 1]` or latency is zero while
    /// activity is nonzero.
    pub fn average_power(self, activity: f64) -> Power {
        assert!((0.0..=1.0).contains(&activity), "activity factor must be in [0, 1]");
        if activity == 0.0 {
            return self.static_power;
        }
        assert!(self.latency_per_op.value() > 0.0, "latency must be positive for active blocks");
        let dynamic = (self.energy_per_op / self.latency_per_op) * activity;
        Power::new(dynamic.value() + self.static_power.value())
    }

    /// A block `n` times replicated (area, leakage scale; per-op costs are
    /// per instance).
    pub fn replicate(self, n: usize) -> BlockSpec {
        BlockSpec {
            area: self.area * n as f64,
            energy_per_op: self.energy_per_op,
            latency_per_op: self.latency_per_op,
            static_power: self.static_power * n as f64,
        }
    }
}

/// Factory for the 32 nm peripheral library.
///
/// Anchors:
/// - FP32 add 0.45 pJ / mult 1.85 pJ / div 7.4 pJ (Horowitz 45 nm figures,
///   ×0.5 area/energy shrink to 32 nm; divide ≈ 4× multiply).
/// - INT add energy ≈ 0.015 pJ per 8 bits.
/// - SRAM: 400 µm² and ≈1 pJ per 32-bit access per KB bank.
/// - Sense amp: 1.5 µm², 2 fJ per sense (ISAAC S+H/SA scaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PeripheralLibrary;

impl PeripheralLibrary {
    /// Current-mode sense amplifier (per bitline/matchline).
    pub fn sense_amp() -> BlockSpec {
        BlockSpec::new(Area::new(1.5), Energy::from_fj(2.0), Latency::new(0.5), Power::new(2e-5))
    }

    /// TCAM matchline precharge/evaluate periphery, per row of `cols`
    /// cells: precharge energy scales with the line capacitance.
    pub fn matchline(cols: usize) -> BlockSpec {
        BlockSpec::new(
            Area::new(2.0),
            Energy::from_fj(0.5 * cols as f64),
            Latency::new(1.0),
            Power::new(1e-5),
        )
    }

    /// An `n`-input OR-merge tree (the Fig. 1 matchline merge).
    pub fn or_tree(n: usize) -> BlockSpec {
        let gates = n.saturating_sub(1).max(1) as f64;
        BlockSpec::new(
            Area::new(0.5 * gates),
            Energy::from_fj(0.05 * gates),
            Latency::new(0.1 * (n.max(2) as f64).log2().ceil()),
            Power::new(5e-7 * gates),
        )
    }

    /// Priority encoder over `n` matchlines (finds the first '1' row —
    /// the descending-order max-find).
    pub fn priority_encoder(n: usize) -> BlockSpec {
        BlockSpec::new(
            Area::new(0.8 * n as f64),
            Energy::from_fj(0.1 * n as f64),
            Latency::new(0.2 * (n.max(2) as f64).log2().ceil()),
            Power::new(1e-6 * n as f64),
        )
    }

    /// One up-counter of `bits` bits (the exponential-stage histogram
    /// counters).
    pub fn counter(bits: u8) -> BlockSpec {
        BlockSpec::new(
            Area::new(2.0 * bits as f64),
            Energy::from_fj(5.0 * bits as f64),
            Latency::new(1.0),
            Power::new(2e-6 * bits as f64),
        )
    }

    /// Fixed-point divider of `bits` bits (radix-2, one quotient bit per
    /// cycle, pipelined to one division/cycle throughput).
    pub fn fixed_divider(bits: u8) -> BlockSpec {
        let b = bits as f64;
        BlockSpec::new(
            Area::new(15.0 * b * b),
            Energy::new(0.02 * b * b / 81.0), // anchored: 9-bit divide ≈ 0.02 pJ
            Latency::new(1.0),
            Power::new(1e-4 * b),
        )
    }

    /// Fixed-point adder of `bits` bits.
    pub fn int_adder(bits: u8) -> BlockSpec {
        let b = bits as f64;
        BlockSpec::new(
            Area::new(10.0 * b),
            Energy::new(0.015 * b / 8.0),
            Latency::new(1.0),
            Power::new(5e-6 * b),
        )
    }

    /// Shift-and-add accumulator of `bits` bits (bit-serial VMM readout
    /// merge, ISAAC-style).
    pub fn shift_add(bits: u8) -> BlockSpec {
        let b = bits as f64;
        BlockSpec::new(
            Area::new(25.0 * b),
            Energy::new(0.01 * b / 8.0),
            Latency::new(1.0),
            Power::new(8e-6 * b),
        )
    }

    /// Fixed-point multiplier of `bits` × `bits`.
    pub fn int_multiplier(bits: u8) -> BlockSpec {
        let b = bits as f64;
        BlockSpec::new(
            Area::new(5.0 * b * b),
            Energy::new(0.001 * b * b), // 12-bit ≈ 0.14 pJ, 32 nm Horowitz scaling
            Latency::new(1.0),
            Power::new(2e-5 * b),
        )
    }

    /// A small register-file lookup table (`entries` words of `bits` bits)
    /// — flip-flop based, far cheaper per access than an SRAM bank.
    pub fn register_lut(entries: usize, bits: u8) -> BlockSpec {
        let total_bits = (entries * bits as usize) as f64;
        BlockSpec::new(
            Area::new(0.8 * total_bits),
            Energy::new(0.05),
            Latency::new(1.0),
            Power::new(2e-7 * total_bits),
        )
    }

    /// Pipeline registers + control FSM for one deeply pipelined datapath
    /// lane, sized by its register-bit count.
    pub fn pipeline_control(register_bits: usize) -> BlockSpec {
        let b = register_bits as f64;
        BlockSpec::new(
            Area::new(8.0 * b),
            Energy::new(0.0001 * b),
            Latency::new(1.0),
            Power::new(4e-7 * b),
        )
    }

    /// FP32 adder (Horowitz anchor, scaled to 32 nm).
    pub fn fp32_adder() -> BlockSpec {
        BlockSpec::new(Area::new(2200.0), Energy::new(0.45), Latency::new(1.0), Power::new(0.02))
    }

    /// FP32 multiplier.
    pub fn fp32_multiplier() -> BlockSpec {
        BlockSpec::new(Area::new(3900.0), Energy::new(1.85), Latency::new(1.0), Power::new(0.04))
    }

    /// FP32 divider (≈4× multiplier cost, multi-cycle).
    pub fn fp32_divider() -> BlockSpec {
        BlockSpec::new(Area::new(7800.0), Energy::new(7.4), Latency::new(4.0), Power::new(0.08))
    }

    /// SRAM bank of `kib` KiB with a 32-bit port.
    pub fn sram(kib: f64) -> BlockSpec {
        assert!(kib > 0.0, "SRAM size must be positive");
        BlockSpec::new(
            Area::new(400.0 * kib),
            Energy::new(0.8 + 0.2 * kib),
            Latency::new(1.0),
            Power::new(0.002 * kib),
        )
    }

    /// CMOS exponential unit of the baseline softmax: a 32-bit LUT of
    /// `2^addr_bits` entries in SRAM plus interpolation arithmetic.
    pub fn exp_unit(addr_bits: u8) -> BlockSpec {
        let entries = 1u64 << addr_bits;
        let kib = (entries * 4) as f64 / 1024.0;
        let lut = Self::sram(kib.max(0.25));
        let interp = Self::fp32_multiplier();
        let add = Self::fp32_adder();
        BlockSpec::new(
            lut.area() + interp.area() + add.area(),
            lut.energy_per_op() + interp.energy_per_op() + add.energy_per_op(),
            Latency::new(2.0),
            Power::new(
                lut.static_power().value()
                    + interp.static_power().value()
                    + add.static_power().value(),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_power_components() {
        let b =
            BlockSpec::new(Area::new(1.0), Energy::new(2.0), Latency::new(4.0), Power::new(0.1));
        assert_eq!(b.average_power(0.0).value(), 0.1);
        assert_eq!(b.average_power(1.0).value(), 0.6); // 2/4 + 0.1
        assert_eq!(b.average_power(0.5).value(), 0.35);
    }

    #[test]
    #[should_panic(expected = "activity factor")]
    fn rejects_bad_activity() {
        let b = BlockSpec::default();
        let _ = b.average_power(1.5);
    }

    #[test]
    fn replicate_scales_area_and_leakage() {
        let b = PeripheralLibrary::counter(9).replicate(256);
        assert_eq!(b.area().value(), 2.0 * 9.0 * 256.0);
        assert_eq!(
            b.energy_per_op().value(),
            PeripheralLibrary::counter(9).energy_per_op().value()
        );
    }

    #[test]
    fn fp_units_ordering() {
        // Sanity: divide > multiply > add in both area and energy.
        let a = PeripheralLibrary::fp32_adder();
        let m = PeripheralLibrary::fp32_multiplier();
        let d = PeripheralLibrary::fp32_divider();
        assert!(a.energy_per_op() < m.energy_per_op());
        assert!(m.energy_per_op() < d.energy_per_op());
        assert!(a.area() < m.area());
        assert!(m.area() < d.area());
    }

    #[test]
    fn matchline_energy_scales_with_width() {
        let narrow = PeripheralLibrary::matchline(16);
        let wide = PeripheralLibrary::matchline(32);
        assert!((wide.energy_per_op().value() / narrow.energy_per_op().value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn divider_quadratic_in_bits() {
        let d8 = PeripheralLibrary::fixed_divider(8);
        let d16 = PeripheralLibrary::fixed_divider(16);
        assert!((d16.area().value() / d8.area().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exp_unit_dominates_int_blocks() {
        let exp = PeripheralLibrary::exp_unit(8);
        let ctr = PeripheralLibrary::counter(9);
        assert!(exp.area().value() > 50.0 * ctr.area().value());
    }

    #[test]
    fn energy_for_ops_linear() {
        let b = PeripheralLibrary::int_adder(8);
        assert!((b.energy_for_ops(100).value() - 100.0 * b.energy_per_op().value()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sram_rejects_zero_size() {
        let _ = PeripheralLibrary::sram(0.0);
    }
}
