//! Analog non-ideality models.
//!
//! NeuroSim (the paper's crossbar simulator) models device
//! non-idealities; we expose read noise and stuck cells as an injectable
//! [`NoiseModel`] so experiments run both ideal and noisy. All randomness is
//! drawn from caller-provided RNGs so simulations stay reproducible.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A permanent cell defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StuckFault {
    /// No defect.
    #[default]
    None,
    /// Cell stuck at low resistance (always conducts).
    StuckOn,
    /// Cell stuck at high resistance (never conducts).
    StuckOff,
}

/// Stochastic non-ideality parameters for RRAM cells.
///
/// - `read_sigma`: relative Gaussian spread of each read current
///   (cycle-to-cycle / thermal noise).
/// - `stuck_on_rate` / `stuck_off_rate`: probability that a cell is
///   permanently stuck, applied at array construction.
///
/// # Examples
///
/// ```
/// use star_device::NoiseModel;
///
/// let ideal = NoiseModel::ideal();
/// assert_eq!(ideal, NoiseModel::new(0.0, 0.0, 0.0));
/// let noisy = NoiseModel::new(0.02, 1e-4, 1e-4);
/// assert_ne!(noisy, ideal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Relative Gaussian sigma of read current.
    pub read_sigma: f64,
    /// Probability a cell is stuck-on.
    pub stuck_on_rate: f64,
    /// Probability a cell is stuck-off.
    pub stuck_off_rate: f64,
}

impl NoiseModel {
    /// Creates a noise model.
    ///
    /// # Panics
    ///
    /// Panics if the sigma is negative/non-finite or any rate is outside
    /// `[0, 1]` (or the two rates sum above 1).
    pub fn new(read_sigma: f64, stuck_on_rate: f64, stuck_off_rate: f64) -> Self {
        assert!(read_sigma >= 0.0 && read_sigma.is_finite(), "read sigma must be >= 0");
        assert!((0.0..=1.0).contains(&stuck_on_rate), "stuck-on rate must be a probability");
        assert!((0.0..=1.0).contains(&stuck_off_rate), "stuck-off rate must be a probability");
        assert!(stuck_on_rate + stuck_off_rate <= 1.0, "fault rates must sum to at most 1");
        NoiseModel { read_sigma, stuck_on_rate, stuck_off_rate }
    }

    /// The ideal (noise-free, fault-free) model.
    pub fn ideal() -> Self {
        NoiseModel { read_sigma: 0.0, stuck_on_rate: 0.0, stuck_off_rate: 0.0 }
    }

    /// Applies read noise to a sensed current/conductance.
    pub fn read<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        if self.read_sigma == 0.0 {
            return value;
        }
        star_telemetry::count("device.noise.read_draws", 1);
        let z: f64 = sample_standard_normal(rng);
        value * (1.0 + self.read_sigma * z)
    }

    /// Samples whether a freshly fabricated cell is defective.
    pub fn sample_fault<R: Rng + ?Sized>(&self, rng: &mut R) -> StuckFault {
        if self.stuck_on_rate == 0.0 && self.stuck_off_rate == 0.0 {
            return StuckFault::None;
        }
        star_telemetry::count("device.noise.fault_draws", 1);
        let u: f64 = rng.gen();
        if u < self.stuck_on_rate {
            StuckFault::StuckOn
        } else if u < self.stuck_on_rate + self.stuck_off_rate {
            StuckFault::StuckOff
        } else {
            StuckFault::None
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Box–Muller standard normal sample (avoids a rand_distr dependency).
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x57A12)
    }

    #[test]
    fn ideal_is_identity() {
        let m = NoiseModel::ideal();
        let mut r = rng();
        assert_eq!(m.read(0.4, &mut r), 0.4);
        assert_eq!(m.sample_fault(&mut r), StuckFault::None);
    }

    #[test]
    fn read_noise_spread_matches_sigma() {
        let m = NoiseModel::new(0.05, 0.0, 0.0);
        let mut r = rng();
        let samples: Vec<f64> = (0..4000).map(|_| m.read(1.0, &mut r)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 0.05).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn fault_rates_respected() {
        let m = NoiseModel::new(0.0, 0.02, 0.03);
        let mut r = rng();
        let mut on = 0;
        let mut off = 0;
        let n = 20000;
        for _ in 0..n {
            match m.sample_fault(&mut r) {
                StuckFault::StuckOn => on += 1,
                StuckFault::StuckOff => off += 1,
                StuckFault::None => {}
            }
        }
        assert!((on as f64 / n as f64 - 0.02).abs() < 0.01);
        assert!((off as f64 / n as f64 - 0.03).abs() < 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = NoiseModel::new(0.01, 1e-4, 1e-4);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert_eq!(m.read(1e-5, &mut r1), m.read(1e-5, &mut r2));
            assert_eq!(m.sample_fault(&mut r1), m.sample_fault(&mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_rates_above_one() {
        let _ = NoiseModel::new(0.0, 0.6, 0.6);
    }
}
