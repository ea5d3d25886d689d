//! E1–E5: the paper's own tables, figure and sizing facts.
//!
//! Each `e*` function is one [`crate::EXPERIMENTS`] entry: it prints the
//! paper-vs-measured tables and returns the JSON for `results/<name>.json`.
//! Everything here is a closed-form cost model or a seeded sweep: no RNG
//! without a fixed seed, no clock, no environment.

use crate::{compare_line, header};
use serde::Serialize;
use serde_json::Value;
use star_arch::{Accelerator, GpuModel, PerfReport, RramAccelerator};
use star_attention::{AttentionConfig, RowSoftmax};
use star_core::precision::{minimal_format, sweep_formats, AccuracyBar, SweepPoint};
use star_core::{CmosBaselineSoftmax, Softermax, SoftmaxEngine, StarSoftmax, StarSoftmaxConfig};
use star_fixed::QFormat;
use star_workload::{Dataset, ScoreTrace};

#[derive(Serialize)]
struct SharePoint {
    seq_len: usize,
    matmul_us: f64,
    softmax_us: f64,
    softmax_share: f64,
    softmax_exceeds_matmul: bool,
}

/// E1 — the intro observation: softmax latency share of BERT-base
/// attention on the GPU grows with sequence length, overtaking matrix
/// multiplication at sequence length 512 (the paper quotes a share
/// reaching up to 59.20 %).
pub(crate) fn e1() -> Value {
    let gpu = GpuModel::titan_rtx();
    let seq_lens = [64usize, 128, 256, 384, 512, 640, 768, 896, 1024];

    header("E1: softmax latency share on GPU (BERT-base attention)");
    println!(
        "  {:>7} {:>12} {:>12} {:>9} {:>10}",
        "seq", "matmul[us]", "softmax[us]", "share", "sm>mm"
    );
    let mut points = Vec::new();
    for n in seq_lens {
        let b = gpu.attention_breakdown(&AttentionConfig::bert_base(n));
        let p = SharePoint {
            seq_len: n,
            matmul_us: b.matmul().as_us(),
            softmax_us: b.softmax.as_us(),
            softmax_share: b.softmax_share(),
            softmax_exceeds_matmul: b.softmax > b.matmul(),
        };
        println!(
            "  {:>7} {:>12.1} {:>12.1} {:>8.1}% {:>10}",
            p.seq_len,
            p.matmul_us,
            p.softmax_us,
            p.softmax_share * 100.0,
            p.softmax_exceeds_matmul
        );
        points.push(p);
    }

    let crossover = gpu.crossover_seq_len(&seq_lens).expect("crossover exists");
    let max_share = points.iter().map(|p| p.softmax_share).fold(0.0, f64::max);
    header("E1: paper anchors");
    println!("{}", compare_line("crossover sequence length", 512.0, crossover as f64));
    println!("{}", compare_line("max softmax share (%)", 59.20, max_share * 100.0));

    serde_json::json!({
        "points": points,
        "crossover_seq_len": crossover,
        "max_share": max_share,
        "paper": {"crossover_seq_len": 512, "max_share": 0.592},
    })
}

/// The paper's Table I operating point: CNEWS 8-bit softmax designs.
///
/// Returns `(baseline, softermax, star)` engines ready for cost queries.
///
/// # Panics
///
/// Panics if the paper configuration fails to build (a programming error).
fn table1_engines() -> (CmosBaselineSoftmax, Softermax, StarSoftmax) {
    let format = QFormat::CNEWS;
    let baseline = CmosBaselineSoftmax::new(8);
    let softermax = Softermax::new(format, 8);
    let star = StarSoftmax::new(StarSoftmaxConfig::new(format)).expect("valid engine");
    (baseline, softermax, star)
}

/// E2 — Table I: area and power of the softmax designs, normalized to the
/// baseline CMOS softmax. Evaluated as in the paper at the BERT-base /
/// CNEWS operating point (8-bit softmax, sequence length 128).
pub(crate) fn e2() -> Value {
    // The paper's Table I operating point: CNEWS 8-bit, seq len 128.
    let (baseline, softermax, star) = table1_engines();

    let base_sheet = baseline.cost_sheet();
    let soft_sheet = softermax.cost_sheet();
    let star_sheet = star.cost_sheet();

    header("E2 / Table I: itemized budgets");
    for sheet in [&base_sheet, &soft_sheet, &star_sheet] {
        println!("{}", sheet.to_table());
    }

    let soft_area = soft_sheet.area_ratio_to(&base_sheet);
    let soft_power = soft_sheet.power_ratio_to(&base_sheet);
    let star_area = star_sheet.area_ratio_to(&base_sheet);
    let star_power = star_sheet.power_ratio_to(&base_sheet);

    header("E2 / Table I: normalized to baseline CMOS softmax");
    println!("{}", compare_line("softermax area ratio", 0.33, soft_area));
    println!("{}", compare_line("softermax power ratio", 0.12, soft_power));
    println!("{}", compare_line("ours (8-bit) area ratio", 0.06, star_area));
    println!("{}", compare_line("ours (8-bit) power ratio", 0.05, star_power));

    header("E2: derived vs-Softermax ratios quoted in the text");
    println!("{}", compare_line("ours/softermax area", 0.20, star_area / soft_area));
    println!("{}", compare_line("ours/softermax power", 0.44, star_power / soft_power));

    // Throughput context at the Table I operating point.
    header("E2: per-row cost at seq len 128 (context)");
    for (name, cost) in [
        (baseline.name().to_owned(), baseline.row_cost(128)),
        (softermax.name().to_owned(), softermax.row_cost(128)),
        (star.name().to_owned(), star.row_cost(128)),
    ] {
        println!(
            "  {:<28} {:>10.1} ns {:>12.2} pJ",
            name,
            cost.latency.value(),
            cost.energy.value()
        );
    }

    // The machine-readable result: the sheets and ratios the tables above
    // printed, with the paper anchors embedded.
    serde_json::json!({
        "baseline": {
            "area_um2": base_sheet.total_area().value(),
            "power_mw": base_sheet.total_power().value(),
        },
        "softermax": {
            "area_um2": soft_sheet.total_area().value(),
            "power_mw": soft_sheet.total_power().value(),
            "area_ratio": soft_area, "power_ratio": soft_power,
            "paper": {"area_ratio": 0.33, "power_ratio": 0.12},
        },
        "star_8bit": {
            "area_um2": star_sheet.total_area().value(),
            "power_mw": star_sheet.total_power().value(),
            "area_ratio": star_area, "power_ratio": star_power,
            "paper": {"area_ratio": 0.06, "power_ratio": 0.05},
        },
    })
}

/// The four Fig. 3 designs evaluated on one BERT-base attention layer at
/// sequence length `seq`, in the paper's order: GPU, PipeLayer,
/// ReTransformer, STAR.
fn fig3_reports(seq: usize) -> Vec<PerfReport> {
    let cfg = AttentionConfig::bert_base(seq);
    vec![
        GpuModel::titan_rtx().evaluate(&cfg),
        RramAccelerator::pipelayer().evaluate(&cfg),
        RramAccelerator::retransformer().evaluate(&cfg),
        RramAccelerator::star().evaluate(&cfg),
    ]
}

/// E3 — Fig. 3: computing efficiency (GOPs/s/W) of GPU, PipeLayer,
/// ReTransformer and STAR on one BERT-base attention layer (seq 128), and
/// STAR's improvement factors over each.
pub(crate) fn e3() -> Value {
    let reports: Vec<PerfReport> = fig3_reports(128);

    header("E3 / Fig. 3: per-design evaluation (BERT-base attention, seq 128)");
    println!(
        "  {:<18} {:>12} {:>14} {:>14} {:>12}",
        "design", "latency[us]", "energy[uJ]", "avg power[W]", "GOPs/s/W"
    );
    for r in &reports {
        println!(
            "  {:<18} {:>12.1} {:>14.1} {:>14.2} {:>12.2}",
            r.name,
            r.latency.as_us(),
            r.total_energy.value() * 1e-6,
            r.avg_power.as_watts(),
            r.efficiency_gops_per_watt
        );
    }

    let star = &reports[3];
    header("E3 / Fig. 3: paper anchors");
    println!(
        "{}",
        compare_line("STAR efficiency (GOPs/s/W)", 612.66, star.efficiency_gops_per_watt)
    );
    println!("{}", compare_line("gain over GPU", 30.63, star.efficiency_gain_over(&reports[0])));
    println!(
        "{}",
        compare_line("gain over PipeLayer", 4.32, star.efficiency_gain_over(&reports[1]))
    );
    println!(
        "{}",
        compare_line("gain over ReTransformer", 1.31, star.efficiency_gain_over(&reports[2]))
    );

    serde_json::json!({
        "reports": reports,
        "paper": {
            "star_gops_per_watt": 612.66,
            "gain_over_gpu": 30.63,
            "gain_over_pipelayer": 4.32,
            "gain_over_retransformer": 1.31,
        },
    })
}

/// E4's "high model accuracy" bar: top-1 agreement of at least 0.995 and
/// a mean absolute probability error of at most 2e-3.
const E4_BAR: AccuracyBar = AccuracyBar { min_top1: 0.995, max_mean_abs_error: 2e-3 };

/// One dataset proxy's E4 format sweep.
struct E4Sweep {
    /// The dataset the proxy trace stands in for.
    dataset: Dataset,
    /// Smallest and largest score in the proxy trace.
    score_range: (f64, f64),
    /// Every candidate format, cheapest first.
    points: Vec<SweepPoint>,
}

impl E4Sweep {
    /// The cheapest format that clears [`E4_BAR`].
    ///
    /// # Panics
    ///
    /// Panics if no candidate clears the bar (a calibration regression).
    fn minimal(&self) -> &SweepPoint {
        minimal_format(&self.points, E4_BAR).expect("some format passes")
    }
}

/// E4 — the §II precision analysis: the minimal fixed-point format per
/// dataset that keeps model accuracy. Paper: CNEWS 8 bits (6-bit integer
/// field incl. sign + 2 fraction), MRPC 9 bits (6 + 3), CoLA 7 bits
/// (5 + 2).
///
/// One sweep per dataset in [`Dataset::ALL`] order: 192 proxy rows of 64
/// scores each, evaluated through the STAR engine at every `q(int, frac)`
/// with `int` in 3..=6 and `frac` in 0..=4 (60 engine builds in all).
pub(crate) fn e4() -> Value {
    let sweeps: Vec<E4Sweep> = Dataset::ALL
        .iter()
        .map(|&dataset| {
            let trace = ScoreTrace::generate(dataset, 192, 64, 0x0E4 + dataset as u64);
            let points = sweep_formats(&trace.rows, 3..=6, 0..=4).expect("sweep");
            E4Sweep { dataset, score_range: trace.score_range(), points }
        })
        .collect();
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

    // Per dataset, the minimal format next to the paper's, and every
    // sweep point.
    let datasets: Vec<Value> = sweeps
        .iter()
        .map(|s| {
            let best = s.minimal();
            let paper = s.dataset.paper_format();
            serde_json::json!({
                "dataset": s.dataset.to_string(),
                "minimal_format": {"int_bits": best.format.int_bits(), "frac_bits": best.format.frac_bits(), "total_bits": best.total_bits},
                "paper_format": {"int_bits": paper.int_bits(), "frac_bits": paper.frac_bits(), "total_bits": paper.total_bits()},
                "matches_paper": best.format == paper,
                "sweep": s.points,
            })
        })
        .collect();
    serde_json::json!({"datasets": datasets})
}

/// E5 — the §III engine sizing facts: the CAM/SUB crossbar is 512×18 and
/// the CAM/LUT/VMM crossbars 256×18 for 9-bit data; removing the sign bit
/// halves the exponential-stage CAM.
pub(crate) fn e5() -> Value {
    header("E5: crossbar geometry per input format");
    println!(
        "  {:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "format", "bits", "cam/sub", "exp-cam", "lut", "vmm(phys)"
    );
    let mut rows = Vec::new();
    for (name, fmt) in [("CoLA", QFormat::COLA), ("CNEWS", QFormat::CNEWS), ("MRPC", QFormat::MRPC)]
    {
        let engine = StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("valid engine");
        let g = engine.geometry();
        println!(
            "  {:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
            name,
            fmt.total_bits(),
            g.cam_sub.to_string(),
            g.exp_cam.to_string(),
            g.lut.to_string(),
            g.vmm.to_string()
        );
        rows.push(serde_json::json!({
            "dataset": name,
            "total_bits": fmt.total_bits(),
            "cam_sub": [g.cam_sub.rows(), g.cam_sub.cols()],
            "exp_cam": [g.exp_cam.rows(), g.exp_cam.cols()],
            "lut": [g.lut.rows(), g.lut.cols()],
            "vmm": [g.vmm.rows(), g.vmm.cols()],
        }));
    }

    // The paper's quoted sizes are for the 9-bit configuration.
    let nine = StarSoftmax::new(StarSoftmaxConfig::new(QFormat::MRPC)).expect("valid engine");
    let g = nine.geometry();
    header("E5: paper anchors (9-bit configuration)");
    println!(
        "  cam/sub {} (paper 512x18)   lut {} (paper 256x18)   sign removal halves exp rows: {}",
        g.cam_sub,
        g.lut,
        g.exp_cam.rows() * 2 == g.cam_sub.rows()
    );
    assert_eq!((g.cam_sub.rows(), g.cam_sub.cols()), (512, 18));
    assert_eq!((g.lut.rows(), g.lut.cols()), (256, 18));

    serde_json::json!({"configurations": rows})
}
