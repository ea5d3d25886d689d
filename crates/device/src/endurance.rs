//! RRAM endurance and retention models.
//!
//! These matter to the STAR comparison in a way the paper only implies:
//! every table in the STAR softmax engine (the value CAM, the exponential
//! LUT/VMM) is programmed **once** and only ever read, whereas PipeLayer
//! must reprogram crossbars with dynamic K/V/score matrices on every
//! inference — which burns write endurance. The `a4_endurance` harness
//! turns this into a lifetime comparison.

use serde::{Deserialize, Serialize};

/// Cycling-endurance model: cells fail after a (Weibull-distributed)
/// number of SET/RESET cycles.
///
/// # Examples
///
/// ```
/// use star_device::EnduranceModel;
///
/// let m = EnduranceModel::typical(); // 10⁹-cycle class HfO₂
/// assert!(m.failure_probability_at(1e3) < 1e-6);
/// assert!(m.failure_probability_at(1e10) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnduranceModel {
    /// Characteristic endurance (Weibull scale) in cycles.
    pub endurance_cycles: f64,
    /// Weibull shape parameter (steepness of the wear-out cliff).
    pub weibull_shape: f64,
}

impl EnduranceModel {
    /// A mature HfO₂ RRAM: 10⁹-cycle characteristic endurance, shape 2.
    pub fn typical() -> Self {
        EnduranceModel { endurance_cycles: 1e9, weibull_shape: 2.0 }
    }

    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive and finite.
    pub fn new(endurance_cycles: f64, weibull_shape: f64) -> Self {
        assert!(
            endurance_cycles > 0.0 && endurance_cycles.is_finite(),
            "endurance must be positive"
        );
        assert!(weibull_shape > 0.0 && weibull_shape.is_finite(), "shape must be positive");
        EnduranceModel { endurance_cycles, weibull_shape }
    }

    /// Probability that a cell has failed after `writes` program cycles.
    /// The count is fractional because the health layer's read-disturb
    /// write-*equivalents* accumulate continuously. Explicitly 0 at (or
    /// below) zero writes: a never-written cell cannot have worn out,
    /// and the Weibull expression must not be asked to evaluate
    /// `0^shape` at extreme shape parameters.
    pub fn failure_probability_at(&self, writes: f64) -> f64 {
        star_telemetry::count("device.endurance.queries", 1);
        if writes <= 0.0 {
            return 0.0;
        }
        let x = writes / self.endurance_cycles;
        1.0 - (-(x.powf(self.weibull_shape))).exp()
    }

    /// Writes after which the per-cell failure probability reaches
    /// `target` (the usable lifetime at a reliability target).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not strictly between 0 and 1.
    pub fn writes_at_failure_probability(&self, target: f64) -> f64 {
        assert!(target > 0.0 && target < 1.0, "failure-probability target must be in (0, 1)");
        self.endurance_cycles * (-(1.0 - target).ln()).powf(1.0 / self.weibull_shape)
    }

    /// Lifetime in *inferences* for a device that performs
    /// `writes_per_inference` program cycles on its hottest cell per
    /// inference, at a per-cell reliability target. Returns
    /// `f64::INFINITY` when nothing is ever written (the STAR softmax
    /// engine's read-only tables).
    pub fn lifetime_inferences(&self, writes_per_inference: u64, target: f64) -> f64 {
        if writes_per_inference == 0 {
            return f64::INFINITY;
        }
        self.writes_at_failure_probability(target) / writes_per_inference as f64
    }
}

impl Default for EnduranceModel {
    fn default() -> Self {
        Self::typical()
    }
}

/// Conductance retention model: programmed conductance drifts toward HRS
/// as `g(t) = g₀ · (1 + t/t₀)^(−ν)` (power-law drift).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionModel {
    /// Drift exponent ν (typical retentive HfO₂: ~0.005).
    pub drift_nu: f64,
    /// Reference time t₀ in seconds.
    pub reference_seconds: f64,
}

impl RetentionModel {
    /// A mature HfO₂ cell: ν = 0.005 against a 1-second reference.
    pub fn typical() -> Self {
        RetentionModel { drift_nu: 0.005, reference_seconds: 1.0 }
    }

    /// Multiplicative conductance factor after `seconds` of retention.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative.
    pub fn drift_factor(&self, seconds: f64) -> f64 {
        assert!(seconds >= 0.0, "retention time must be non-negative");
        if seconds == 0.0 {
            // Exactly 1 at t = 0: a freshly programmed cell has drifted
            // by definition not at all, independent of ν or t₀ rounding.
            return 1.0;
        }
        (1.0 + seconds / self.reference_seconds).powf(-self.drift_nu)
    }

    /// Time until the conductance window shrinks below `margin` of its
    /// programmed value (when the stored bit becomes unreliable for a
    /// given sense margin).
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not strictly between 0 and 1.
    pub fn seconds_to_margin(&self, margin: f64) -> f64 {
        assert!(margin > 0.0 && margin < 1.0, "margin must be in (0, 1)");
        self.reference_seconds * (margin.powf(-1.0 / self.drift_nu) - 1.0)
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_probability_monotone() {
        let m = EnduranceModel::typical();
        let mut prev = -1.0;
        for w in [0.0, 1e3, 1e6, 1e9, 1e11] {
            let p = m.failure_probability_at(w);
            assert!(p >= prev, "not monotone at {w}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        assert_eq!(m.failure_probability_at(0.0), 0.0);
    }

    #[test]
    fn lifetime_inverse_to_writes() {
        let m = EnduranceModel::typical();
        let a = m.lifetime_inferences(10, 1e-4);
        let b = m.lifetime_inferences(100, 1e-4);
        assert!((a / b - 10.0).abs() < 1e-9);
    }

    #[test]
    fn read_only_lives_forever() {
        let m = EnduranceModel::typical();
        assert_eq!(m.lifetime_inferences(0, 1e-4), f64::INFINITY);
    }

    #[test]
    fn writes_at_target_round_trips() {
        let m = EnduranceModel::new(1e8, 2.0);
        let target = 1e-3;
        let w = m.writes_at_failure_probability(target);
        let p = m.failure_probability_at(w.trunc());
        assert!((p - target).abs() / target < 0.01, "p {p}");
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn bad_target_rejected() {
        let _ = EnduranceModel::typical().writes_at_failure_probability(1.0);
    }

    #[test]
    fn zero_writes_boundary_is_exact() {
        // The explicit guard: a never-written cell has exactly zero
        // failure probability for *any* Weibull parameters, including
        // shapes where 0^β would be numerically delicate.
        for shape in [0.1, 0.5, 1.0, 2.0, 10.0] {
            let m = EnduranceModel::new(1e9, shape);
            assert_eq!(m.failure_probability_at(0.0), 0.0, "shape {shape}");
            // Fractional exposure below zero (a degenerate caller) is
            // clamped, not NaN.
            assert_eq!(m.failure_probability_at(-1.0), 0.0, "shape {shape}");
        }
    }

    #[test]
    fn fractional_and_integer_probabilities_agree() {
        // Whole cycle counts follow the Weibull CDF 1 − exp(−(w/η)^β).
        let m = EnduranceModel::typical();
        for w in [1u64, 1_000, 1_000_000_000] {
            let cdf = 1.0 - (-(w as f64 / m.endurance_cycles).powf(m.weibull_shape)).exp();
            assert_eq!(m.failure_probability_at(w as f64), cdf, "w={w}");
        }
        // The fractional form is monotone through sub-cycle exposures
        // (on a small-scale model so the probabilities stay above f64
        // rounding of `1 − exp(−x)`).
        let weak = EnduranceModel::new(10.0, 2.0);
        assert!(weak.failure_probability_at(0.5) > 0.0);
        assert!(weak.failure_probability_at(0.5) < weak.failure_probability_at(1.5));
    }

    #[test]
    fn zero_retention_time_boundary_is_exact() {
        // drift_factor(0) == 1 exactly, for any ν and reference time.
        for nu in [1e-6, 0.005, 0.5] {
            for t0 in [1e-3, 1.0, 1e3] {
                let r = RetentionModel { drift_nu: nu, reference_seconds: t0 };
                assert_eq!(r.drift_factor(0.0), 1.0, "nu {nu} t0 {t0}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_retention_time_rejected() {
        let _ = RetentionModel::typical().drift_factor(-1.0);
    }

    #[test]
    fn drift_decreases_over_time() {
        let r = RetentionModel::typical();
        assert_eq!(r.drift_factor(0.0), 1.0);
        let day = r.drift_factor(86_400.0);
        let year = r.drift_factor(3.15e7);
        assert!(day < 1.0 && year < day);
        // ν = 0.005 keeps >90 % of the window after a year.
        assert!(year > 0.9, "{year}");
    }

    #[test]
    fn seconds_to_margin_round_trips() {
        let r = RetentionModel::typical();
        let t = r.seconds_to_margin(0.9);
        assert!((r.drift_factor(t) - 0.9).abs() < 1e-9);
        assert!(t > 3.15e7, "a 10 % margin should hold for years, got {t} s");
    }
}
