//! E4 — the §II precision analysis: the minimal fixed-point format per
//! dataset that keeps model accuracy. Paper: CNEWS 8 bits (6-bit integer
//! field incl. sign + 2 fraction), MRPC 9 bits (6 + 3), CoLA 7 bits
//! (5 + 2).

use star_bench::{e4_bitwidth_json, e4_sweeps, finalize_experiment, header, E4_BAR};

fn main() {
    let sweeps = e4_sweeps();
    for sweep in &sweeps {
        let (min_seen, max_seen) = sweep.score_range;
        header(&format!(
            "E4: {} proxy (score range [{min_seen:.2}, {max_seen:.2}])",
            sweep.dataset
        ));
        println!(
            "  {:>8} {:>6} {:>12} {:>12} {:>8} {:>10}",
            "format", "bits", "meanAbsErr", "KL", "top1", "verdict"
        );
        for p in &sweep.points {
            println!(
                "  {:>8} {:>6} {:>12.2e} {:>12.2e} {:>8.3} {:>10}",
                p.format.to_string(),
                p.total_bits,
                p.mean_abs_error,
                p.mean_kl,
                p.top1_agreement,
                if E4_BAR.accepts(p) { "pass" } else { "fail" }
            );
        }

        let best = sweep.minimal();
        let paper = sweep.dataset.paper_format();
        println!(
            "\n  minimal format: {} ({} bits)   paper: {} ({} bits)   match: {}",
            best.format,
            best.total_bits,
            paper,
            paper.total_bits(),
            best.format == paper
        );
    }

    let (path, telemetry) =
        finalize_experiment("e4_bitwidth", &e4_bitwidth_json(&sweeps)).expect("write results");
    println!("\nwrote {}", path.display());
    println!("wrote {}", telemetry.display());
}
