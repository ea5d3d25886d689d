//! Failure injection: how device non-idealities (read noise, stuck cells)
//! degrade the STAR softmax engine, and how the CAM stages' digital sense
//! margins contain the damage.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use star::attention::{ExactSoftmax, RowSoftmax};
use star::core::{StarSoftmax, StarSoftmaxConfig};
use star::device::NoiseModel;
use star::fixed::QFormat;
use star::workload::{Dataset, ScoreTrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The MRPC proxy: top-score gaps are resolvable at the engine's 9-bit
    // format, so any argmax flips below are caused by injected faults.
    let rows = ScoreTrace::generate(Dataset::Mrpc, 64, 64, 0xFA17).rows;
    let mut exact = ExactSoftmax::new();
    let reference: Vec<Vec<f64>> = rows.iter().map(|r| exact.softmax_row(r)).collect();

    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "read noise", "stuck-on", "stuck-off", "mean |err|", "top1 agree", "faults"
    );
    for (read_sigma, stuck) in
        [(0.0, 0.0), (0.02, 0.0), (0.05, 0.0), (0.0, 1e-3), (0.0, 1e-2), (0.05, 1e-2)]
    {
        let noise = NoiseModel::new(read_sigma, stuck, stuck);
        let cfg = StarSoftmaxConfig::new(QFormat::MRPC).with_noise(noise).with_seed(0xFA);
        let mut engine = StarSoftmax::new(cfg)?;

        let mut err_sum = 0.0;
        let mut agree = 0usize;
        for (row, reference) in rows.iter().zip(&reference) {
            let p = engine.softmax_row(row);
            err_sum +=
                p.iter().zip(reference).map(|(a, b)| (a - b).abs()).sum::<f64>() / p.len() as f64;
            if star::attention::argmax(&p) == star::attention::argmax(reference) {
                agree += 1;
            }
        }
        println!(
            "{:>12.3} {:>12.0e} {:>12.0e} {:>14.3e} {:>14.3} {:>8}",
            read_sigma,
            stuck,
            stuck,
            err_sum / rows.len() as f64,
            agree as f64 / rows.len() as f64,
            engine.fault_events()
        );
    }
    println!("\nSmall read noise is absorbed by the CAM sense margins; stuck cells");
    println!("surface as fault-recovery events and only degrade accuracy gradually.");
    Ok(())
}
