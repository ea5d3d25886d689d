//! The §II precision study as an interactive tool: generate calibrated
//! score traces for each dataset proxy, sweep fixed-point formats through
//! the STAR engine, and report the minimal format that keeps accuracy.
//!
//! ```sh
//! cargo run --release --example precision_explorer
//! ```

use star::core::precision::{minimal_format, sweep_formats, AccuracyBar};
use star::workload::{Dataset, ScoreTrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bar = AccuracyBar { min_top1: 0.995, max_mean_abs_error: 2e-3 };
    println!(
        "accuracy bar: top-1 ≥ {:.3}, mean |err| ≤ {:.0e}\n",
        bar.min_top1, bar.max_mean_abs_error
    );

    for dataset in Dataset::ALL {
        let trace = ScoreTrace::generate(dataset, 96, 64, 7 + dataset as u64);
        let (lo, hi) = trace.score_range();
        println!("{dataset}: {} rows, scores in [{lo:.2}, {hi:.2}]", trace.len());

        let points = sweep_formats(&trace.rows, 3..=6, 0..=4)?;
        let best = minimal_format(&points, bar).ok_or("no format clears the bar")?;
        let paper = dataset.paper_format();
        println!(
            "  minimal format {} ({} bits)  —  paper reports {} ({} bits)\n",
            best.format,
            best.total_bits,
            paper,
            paper.total_bits()
        );
    }
    Ok(())
}
