//! ADC and DAC models.
//!
//! The MatMul engine follows ReTransformer's configuration: 128×128
//! crossbars read out through **5-bit** SAR ADCs. The cost scaling laws are
//! anchored at the ISAAC design point (8-bit SAR ADC, 1.28 GS/s: ≈1200 µm²,
//! ≈2.4 pJ/conversion at 32 nm) and scale exponentially in resolution, which
//! is the standard survey fit for SAR converters (energy and area roughly
//! double per extra bit once the capacitive DAC dominates).

use crate::cost::{Area, Energy, Latency};
use serde::{Deserialize, Serialize};

/// A successive-approximation ADC.
///
/// # Examples
///
/// ```
/// use star_device::AdcSpec;
///
/// let adc = AdcSpec::sar(5);
/// assert_eq!(adc.bits(), 5);
/// // Three bits below the 8-bit anchor: an eighth of its area.
/// assert_eq!(adc.area().value(), 150.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcSpec {
    bits: u8,
    area: Area,
    conversion_energy: Energy,
    conversion_latency: Latency,
}

/// ISAAC anchor point: 8-bit SAR at 32 nm.
const ANCHOR_BITS: u8 = 8;
const ANCHOR_AREA_UM2: f64 = 1200.0;
const ANCHOR_ENERGY_PJ: f64 = 2.4;
/// Conversion time at the anchor design's 1.28 GS/s.
const ANCHOR_LATENCY_NS: f64 = 0.78;

impl AdcSpec {
    /// Creates a SAR ADC of the given resolution using the survey scaling
    /// law (cost halves per bit removed below the 8-bit anchor).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 12 (outside the fitted range).
    pub fn sar(bits: u8) -> Self {
        assert!((1..=12).contains(&bits), "SAR model fitted for 1..=12 bits, got {bits}");
        let scale = 2f64.powi(bits as i32 - ANCHOR_BITS as i32);
        AdcSpec {
            bits,
            area: Area::new(ANCHOR_AREA_UM2 * scale),
            conversion_energy: Energy::new(ANCHOR_ENERGY_PJ * scale),
            // SAR latency grows linearly with bits (one comparison per bit).
            conversion_latency: Latency::new(ANCHOR_LATENCY_NS * bits as f64 / ANCHOR_BITS as f64),
        }
    }

    /// Resolution in bits.
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Silicon area of one converter.
    pub fn area(self) -> Area {
        self.area
    }

    /// Energy per conversion.
    pub fn conversion_energy(self) -> Energy {
        self.conversion_energy
    }

    /// Time per conversion.
    pub fn conversion_latency(self) -> Latency {
        self.conversion_latency
    }
}

/// A wordline driver / 1-bit DAC.
///
/// Both ISAAC-style bit-serial VMM inputs and CAM search drives only need
/// binary wordline voltages, so the input "DAC" is a simple driver. Costs
/// are per wordline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverSpec {
    area: Area,
    energy_per_toggle: Energy,
}

impl DriverSpec {
    /// A 32 nm wordline driver: ~0.6 µm² and ~1 fJ per toggle (inverter
    /// chain driving a 128-cell line at 0.2 V).
    pub fn wordline32() -> Self {
        DriverSpec { area: Area::new(0.6), energy_per_toggle: Energy::from_fj(1.0) }
    }

    /// Area of one driver.
    pub fn area(self) -> Area {
        self.area
    }

    /// Energy of one activation.
    pub fn energy_per_toggle(self) -> Energy {
        self.energy_per_toggle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_anchored_at_8bit() {
        let a8 = AdcSpec::sar(8);
        assert_eq!(a8.area().value(), 1200.0);
        assert_eq!(a8.conversion_energy().value(), 2.4);
        let a5 = AdcSpec::sar(5);
        assert!((a5.area().value() - 150.0).abs() < 1e-9); // 1200 / 2³
        assert!((a5.conversion_energy().value() - 0.3).abs() < 1e-12);
        assert!(a5.conversion_latency().value() < a8.conversion_latency().value());
    }

    #[test]
    #[should_panic(expected = "fitted for")]
    fn sar_rejects_out_of_range_bits() {
        let _ = AdcSpec::sar(13);
    }

    #[test]
    fn driver_costs() {
        let d = DriverSpec::wordline32();
        assert!(d.area().value() > 0.0);
        assert!((d.energy_per_toggle().value() - 0.001).abs() < 1e-12);
    }
}
