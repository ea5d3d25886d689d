//! Integration tests over the extension surfaces — the design-space
//! explorer and the temperature model behind the digital CAM — via the
//! facade crate.

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
        // The sense amplifier needs a 10:1 LRS/HRS current ratio.
        assert!(tech.on_off_ratio() * temp.on_off_factor(kelvin) >= 10.0, "T={kelvin}");
    }
}
