//! Temperature dependence of RRAM conduction.
//!
//! HRS conduction in HfO₂ cells is thermally activated (trap-assisted
//! tunnelling): conductance rises with temperature following an Arrhenius
//! law, which *shrinks the on/off window* and with it the CAM sense
//! margin. LRS conduction is metallic-filament dominated and nearly
//! temperature-flat. The model quantifies how much margin the STAR
//! engine's arrays retain across the commercial/industrial range.

use serde::{Deserialize, Serialize};

/// Boltzmann constant in eV/K.
const K_B: f64 = 8.617_333e-5;

/// Arrhenius temperature model for the HRS conductance.
///
/// # Examples
///
/// ```
/// use star_device::TemperatureModel;
///
/// let m = TemperatureModel::typical();
/// // Hotter ⇒ leakier HRS ⇒ smaller on/off window.
/// assert!(m.hrs_conductance_factor(358.15) > 1.0);
/// assert!(m.on_off_factor(358.15) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureModel {
    /// HRS activation energy in eV (HfO₂ trap-assisted: ≈0.2 eV).
    pub hrs_activation_ev: f64,
    /// LRS activation energy in eV (metallic filament: ≈0.02 eV).
    pub lrs_activation_ev: f64,
    /// Reference temperature in K (room temperature).
    pub reference_kelvin: f64,
}

impl TemperatureModel {
    /// Typical HfO₂ constants: 0.2 eV HRS, 0.02 eV LRS, 300 K reference.
    pub fn typical() -> Self {
        TemperatureModel {
            hrs_activation_ev: 0.2,
            lrs_activation_ev: 0.02,
            reference_kelvin: 300.0,
        }
    }

    /// Arrhenius factor `exp(−Ea/k·(1/T − 1/T₀))` for an activation energy.
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is not positive and finite (NaN and ±∞ would
    /// otherwise propagate silently into every downstream margin).
    fn arrhenius(&self, activation_ev: f64, kelvin: f64) -> f64 {
        assert!(kelvin > 0.0 && kelvin.is_finite(), "temperature must be positive finite kelvin");
        if kelvin == self.reference_kelvin {
            // Exactly 1 at the reference point: the factor is defined as
            // a ratio to T₀, and callers compare against 1.0 exactly.
            return 1.0;
        }
        (-(activation_ev / K_B) * (1.0 / kelvin - 1.0 / self.reference_kelvin)).exp()
    }

    /// HRS conductance multiplier at a temperature (1.0 at reference).
    pub fn hrs_conductance_factor(&self, kelvin: f64) -> f64 {
        self.arrhenius(self.hrs_activation_ev, kelvin)
    }

    /// LRS conductance multiplier at a temperature.
    pub fn lrs_conductance_factor(&self, kelvin: f64) -> f64 {
        self.arrhenius(self.lrs_activation_ev, kelvin)
    }

    /// On/off-ratio multiplier at a temperature (< 1 when hot: the window
    /// closes because HRS leaks faster than LRS gains).
    pub fn on_off_factor(&self, kelvin: f64) -> f64 {
        self.lrs_conductance_factor(kelvin) / self.hrs_conductance_factor(kelvin)
    }
}

impl Default for TemperatureModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_identity() {
        let m = TemperatureModel::typical();
        assert!((m.hrs_conductance_factor(300.0) - 1.0).abs() < 1e-12);
        assert!((m.on_off_factor(300.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_closes_with_heat_and_opens_with_cold() {
        let m = TemperatureModel::typical();
        assert!(m.on_off_factor(358.15) < 1.0); // 85 °C
        assert!(m.on_off_factor(233.15) > 1.0); // −40 °C
                                                // Monotone in temperature.
        let mut prev = f64::INFINITY;
        for t in [233.15, 273.15, 300.0, 358.15, 398.15] {
            let f = m.on_off_factor(t);
            assert!(f < prev, "T={t}");
            prev = f;
        }
    }

    #[test]
    fn industrial_range_keeps_sense_margin() {
        // The 100:1 room-temperature window must stay above a 10:1 sense
        // requirement across −40…85 °C — the quantitative backing for
        // treating CAM decisions as temperature-robust in the simulator.
        let m = TemperatureModel::typical();
        for t in [233.15, 273.15, 300.0, 330.0, 358.15] {
            assert!(100.0 * m.on_off_factor(t) >= 10.0, "T={t}");
        }
        // But a 125 °C hotspot with a weak 20:1 window is not safe.
        assert!(20.0 * m.on_off_factor(398.15) < 10.0);
    }

    #[test]
    fn known_magnitude_at_85c() {
        // 0.2 eV over 300→358.15 K: exp(-0.2/k·(1/358.15−1/300)) ≈ 3.5×.
        let m = TemperatureModel::typical();
        let f = m.hrs_conductance_factor(358.15);
        assert!((3.0..4.0).contains(&f), "{f}");
    }

    #[test]
    #[should_panic(expected = "positive finite kelvin")]
    fn zero_kelvin_rejected() {
        let _ = TemperatureModel::typical().hrs_conductance_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "positive finite kelvin")]
    fn nan_kelvin_rejected() {
        let _ = TemperatureModel::typical().on_off_factor(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive finite kelvin")]
    fn infinite_kelvin_rejected() {
        let _ = TemperatureModel::typical().lrs_conductance_factor(f64::INFINITY);
    }

    #[test]
    fn reference_boundary_is_exactly_one() {
        // The explicit guard: at exactly T₀ every factor is 1.0 — not
        // merely within an epsilon — so gauges comparing against the
        // pristine point see no spurious drift.
        let m = TemperatureModel::typical();
        assert_eq!(m.hrs_conductance_factor(300.0), 1.0);
        assert_eq!(m.lrs_conductance_factor(300.0), 1.0);
        assert_eq!(m.on_off_factor(300.0), 1.0);
    }

    #[test]
    fn extreme_boundary_kelvins_stay_finite() {
        let m = TemperatureModel::typical();
        // Cryogenic floor (77 K, liquid nitrogen): HRS freezes out, the
        // window opens enormously, and nothing underflows to NaN.
        let cold = m.hrs_conductance_factor(77.0);
        assert!(cold > 0.0 && cold < 1e-9, "{cold}");
        let window = m.on_off_factor(77.0);
        assert!(window.is_finite() && window > 1.0, "{window}");
        // Extreme heat: the factor approaches exp(Ea/(k·T₀)) — finite
        // and positive, never an overflow.
        let hot = m.hrs_conductance_factor(1e6);
        assert!(hot.is_finite() && hot > 1.0);
        let limit = (0.2f64 / 8.617_333e-5 / 300.0).exp();
        assert!(hot < limit * 1.001, "{hot} vs limit {limit}");
        assert!(m.on_off_factor(1e6) > 0.0);
    }
}
