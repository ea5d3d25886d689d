//! Integration tests over the extension surfaces — the design-space
//! explorer, the temperature model behind the digital CAM, and stochastic
//! rounding — all via the facade crate.

use star::core::design_space::{pareto_front, DesignSpace};
use star::fixed::QFormat;
use star::workload::{Dataset, ScoreTrace};

#[test]
fn design_space_keeps_paper_config_on_frontier() {
    // Evaluate at the paper's sequence length (128 columns). At short rows
    // the 16- and 18-bit exponential words are statistically tied (the error
    // gap is ~1e-8, below the trace sampling noise), so whether the paper
    // config survives strict Pareto filtering there is a coin flip on the
    // RNG stream. At 128 columns the extra LUT precision is a consistent
    // win across seeds and the assertion is meaningful.
    let trace = ScoreTrace::generate(Dataset::Mrpc, 48, 128, 0xE57);
    let space = DesignSpace::paper_neighborhood();
    let points = space.evaluate(&trace.rows).expect("all build");
    assert_eq!(points.len(), space.len());
    let front = pareto_front(&points);
    // The paper's 9-bit configuration is Pareto-optimal.
    assert!(
        front
            .iter()
            .any(|p| p.format == QFormat::MRPC && p.exp_word_bits == 18 && p.quotient_bits == 16),
        "paper config missing from frontier: {front:#?}"
    );
}

#[test]
fn temperature_margins_back_the_digital_cam_model() {
    // The crossbar simulator treats CAM decisions as noise-robust; the
    // device-level justification is that the on/off window stays far above
    // the sense requirement across the industrial temperature range.
    use star::device::{TechnologyParams, TemperatureModel};
    let tech = TechnologyParams::cmos32();
    let temp = TemperatureModel::typical();
    for kelvin in [233.15, 300.0, 358.15] {
        assert!(temp.readable_at(kelvin, tech.on_off_ratio(), 10.0), "T={kelvin}");
    }
}

#[test]
fn stochastic_rounding_unbiased_through_engine_inputs() {
    use star::fixed::Fixed;
    let fmt = QFormat::CNEWS;
    let target = 3.1; // between 3.0 and 3.25 on the q5.2 grid
    let n = 4096;
    let mean: f64 = (0..n)
        .map(|i| {
            let dither = (i as f64 * 0.618_033_988_75) % 1.0;
            Fixed::from_f64_stochastic(target, fmt, dither).to_f64()
        })
        .sum::<f64>()
        / n as f64;
    assert!((mean - target).abs() < 0.01, "mean {mean}");
}
