//! A1–A7: ablations and design-space sweeps around the paper's operating
//! points.
//!
//! Each `a*` function is one [`crate::EXPERIMENTS`] entry: it prints its
//! tables and returns the JSON for `results/<name>.json`. The parallel
//! sweeps fan out over `star-exec` and reduce in sweep order, so the
//! tables, the JSON and the telemetry are byte-identical for every worker
//! count.

use crate::header;
use serde_json::Value;
use star_arch::{
    gops_per_watt, Accelerator, GpuModel, MatMulEngine, MatMulEngineConfig, RramAccelerator,
};
use star_attention::AttentionConfig;
use star_core::design_space::{pareto_front, DesignSpace};
use star_core::precision::evaluate_format;
use star_core::{PipelineMode, SoftmaxEngine, StarSoftmax, StarSoftmaxConfig};
use star_device::{EnduranceModel, Energy, RetentionModel};
use star_exec::Executor;
use star_fixed::QFormat;
use star_workload::{Dataset, ScoreTrace};

/// A1 (ablation) — pipeline granularity: STAR's vector-grained pipeline
/// against the operand-grained discipline of prior work and no pipelining
/// at all, across sequence lengths. Isolates the contribution of the §II
/// "vector-grained pipeline" from the softmax engine itself.
pub(crate) fn a1() -> Value {
    header("A1: STAR efficiency vs pipeline granularity");
    println!(
        "  {:>6} {:>18} {:>18} {:>18} {:>14}",
        "seq", "unpipelined", "operand-grained", "vector-grained", "vec/operand"
    );
    let mut rows = Vec::new();
    for n in [64usize, 128, 256, 384, 512] {
        let cfg = AttentionConfig::bert_base(n);
        let effs: Vec<f64> = PipelineMode::ALL
            .iter()
            .map(|&m| {
                RramAccelerator::star_with_pipeline(m).evaluate(&cfg).efficiency_gops_per_watt
            })
            .collect();
        let speedup = effs[2] / effs[1];
        println!(
            "  {:>6} {:>18.2} {:>18.2} {:>18.2} {:>13.3}x",
            n, effs[0], effs[1], effs[2], speedup
        );
        rows.push(serde_json::json!({
            "seq_len": n,
            "unpipelined_gops_per_watt": effs[0],
            "operand_grained_gops_per_watt": effs[1],
            "vector_grained_gops_per_watt": effs[2],
            "vector_over_operand": speedup,
        }));
    }

    header("A1: isolating the two contributions at seq 128 (vs ReTransformer)");
    let cfg = AttentionConfig::bert_base(128);
    let retx = RramAccelerator::retransformer().evaluate(&cfg);
    // Engine only: STAR softmax hardware but operand-grained scheduling.
    let engine_only =
        RramAccelerator::star_with_pipeline(PipelineMode::OperandGrained).evaluate(&cfg);
    let full = RramAccelerator::star().evaluate(&cfg);
    println!("  retransformer             {:>10.2} GOPs/s/W", retx.efficiency_gops_per_watt);
    println!(
        "  + rram softmax engine     {:>10.2} GOPs/s/W ({:+.1} %)",
        engine_only.efficiency_gops_per_watt,
        (engine_only.efficiency_gain_over(&retx) - 1.0) * 100.0
    );
    println!(
        "  + vector-grained pipeline {:>10.2} GOPs/s/W ({:+.1} % over engine-only)",
        full.efficiency_gops_per_watt,
        (full.efficiency_gain_over(&engine_only) - 1.0) * 100.0
    );

    serde_json::json!({
        "sweep": rows,
        "contributions_seq128": {
            "retransformer": retx.efficiency_gops_per_watt,
            "engine_only": engine_only.efficiency_gops_per_watt,
            "engine_plus_pipeline": full.efficiency_gops_per_watt,
        },
    })
}

/// A2 (ablation) — the §II precision/efficiency trade-off: how engine
/// area, power, and attention accuracy move as the softmax bitwidth steps
/// through the three paper formats (7, 8, 9 bits) and beyond.
pub(crate) fn a2() -> Value {
    // A fixed evaluation trace with wide coverage: the MRPC proxy (the
    // most demanding distribution).
    let trace = ScoreTrace::generate(Dataset::Mrpc, 128, 64, 0xA2);

    header("A2: softmax engine bitwidth vs cost and accuracy (MRPC proxy)");
    println!(
        "  {:>8} {:>6} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "format", "bits", "area[um^2]", "power[mW]", "meanAbsErr", "KL", "top1"
    );
    let formats = [
        QFormat::new(4, 1).expect("valid"),
        QFormat::COLA,                      // 7 bits
        QFormat::CNEWS,                     // 8 bits
        QFormat::MRPC,                      // 9 bits
        QFormat::new(6, 4).expect("valid"), // 11 bits
    ];
    let mut rows = Vec::new();
    for fmt in formats {
        let point = evaluate_format(fmt, &trace.rows).expect("engine builds");
        let engine = StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("engine builds");
        let row_cost = engine.row_cost(128);
        println!(
            "  {:>8} {:>6} {:>12.1} {:>12.3} {:>12.2e} {:>10.2e} {:>8.3}",
            fmt.to_string(),
            fmt.total_bits(),
            point.engine_area_um2,
            point.engine_power_mw,
            point.mean_abs_error,
            point.mean_kl,
            point.top1_agreement
        );
        rows.push(serde_json::json!({
            "format": fmt.to_string(),
            "total_bits": fmt.total_bits(),
            "area_um2": point.engine_area_um2,
            "power_mw": point.engine_power_mw,
            "mean_abs_error": point.mean_abs_error,
            "mean_kl": point.mean_kl,
            "top1_agreement": point.top1_agreement,
            "row_latency_ns": row_cost.latency.value(),
            "row_energy_pj": row_cost.energy.value(),
        }));
    }

    println!("  shape check: area/power grow with bits, error falls with bits");
    serde_json::json!({"sweep": rows})
}

/// A3 (ablation) — MatMul engine design space: ADC resolution and
/// crossbar size sweep around the paper's §III operating point (128×128,
/// 5-bit ADC), evaluated on the tile VMM cost and the resulting STAR-style
/// layer efficiency.
pub(crate) fn a3() -> Value {
    let cfg = AttentionConfig::bert_base(128);
    let ops = cfg.attention_ops().matmul_ops();

    header("A3: ADC resolution sweep (128x128 arrays)");
    println!(
        "  {:>9} {:>16} {:>16} {:>16}",
        "adc bits", "tile E [pJ]", "layer E [uJ]", "matmul GOPs/J"
    );
    let mut adc_rows = Vec::new();
    for bits in [4u8, 5, 6, 7, 8] {
        let engine = MatMulEngine::new(MatMulEngineConfig::paper().with_adc_bits(bits));
        let (layer_energy, _) = layer_matmul_cost(&engine, &cfg);
        let eff = gops_per_watt(ops, layer_energy);
        println!(
            "  {:>9} {:>16.1} {:>16.1} {:>16.1}",
            bits,
            engine.tile_vmm_cost().energy.value(),
            layer_energy.value() * 1e-6,
            eff
        );
        adc_rows.push(serde_json::json!({
            "adc_bits": bits,
            "tile_energy_pj": engine.tile_vmm_cost().energy.value(),
            "layer_energy_uj": layer_energy.value() * 1e-6,
            "matmul_gops_per_joule": eff,
        }));
    }

    header("A3: crossbar size sweep (5-bit ADC)");
    println!("  {:>9} {:>10} {:>16} {:>16}", "size", "tiles", "layer E [uJ]", "matmul GOPs/J");
    let mut size_rows = Vec::new();
    for size in [64usize, 128, 256] {
        let engine = MatMulEngine::new(MatMulEngineConfig::paper().with_crossbar_size(size));
        let tiles = engine.tile_count(cfg.d_model, cfg.d_model);
        let (layer_energy, _) = layer_matmul_cost(&engine, &cfg);
        let eff = gops_per_watt(ops, layer_energy);
        println!("  {:>9} {:>10} {:>16.1} {:>16.1}", size, tiles, layer_energy.value() * 1e-6, eff);
        size_rows.push(serde_json::json!({
            "crossbar_size": size,
            "proj_tiles": tiles,
            "layer_energy_uj": layer_energy.value() * 1e-6,
            "matmul_gops_per_joule": eff,
        }));
    }

    header("A3: cell density sweep (128x128 arrays, 5-bit ADC)");
    println!(
        "  {:>14} {:>10} {:>16} {:>16}",
        "bits/cell", "tiles", "layer E [uJ]", "matmul GOPs/J"
    );
    let mut mlc_rows = Vec::new();
    for bpc in [1u8, 2, 4] {
        let engine = MatMulEngine::new(MatMulEngineConfig::paper().with_bits_per_cell(bpc));
        let tiles = engine.tile_count(cfg.d_model, cfg.d_model);
        let (layer_energy, _) = layer_matmul_cost(&engine, &cfg);
        let eff = gops_per_watt(ops, layer_energy);
        println!("  {:>14} {:>10} {:>16.1} {:>16.1}", bpc, tiles, layer_energy.value() * 1e-6, eff);
        mlc_rows.push(serde_json::json!({
            "bits_per_cell": bpc,
            "proj_tiles": tiles,
            "layer_energy_uj": layer_energy.value() * 1e-6,
            "matmul_gops_per_joule": eff,
        }));
    }

    serde_json::json!({"adc_sweep": adc_rows, "size_sweep": size_rows, "mlc_sweep": mlc_rows})
}

/// Matmul-only energy/latency of one attention layer (projections +
/// per-head score/context GEMMs).
fn layer_matmul_cost(
    engine: &MatMulEngine,
    cfg: &AttentionConfig,
) -> (Energy, star_device::Latency) {
    let n = cfg.seq_len;
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let heads = cfg.num_heads as f64;
    let proj = engine.gemm_cost(n, d, d).repeat(4);
    let qk = engine.gemm_cost(n, dh, n);
    let av = engine.gemm_cost(n, n, dh);
    let energy = proj.energy + (qk.energy + av.energy) * heads;
    (energy, proj.latency + qk.latency + av.latency)
}

/// A4 (ablation) — endurance: STAR's softmax tables (and ReTransformer's
/// decomposed dataflow) never write RRAM after deployment, while PipeLayer
/// reprograms crossbars with K/V/score matrices on every inference. Under
/// a cycling-endurance model this translates into device lifetime.
pub(crate) fn a4() -> Value {
    let cfg = AttentionConfig::bert_base(128);
    let endurance = EnduranceModel::typical();
    let target = 1e-4; // per-cell failure budget

    header("A4: write traffic and lifetime (BERT-base, 12 layers)");
    println!("  {:>16} {:>20} {:>22}", "design", "hot-cell writes/inf", "lifetime [inferences]");
    let mut rows = Vec::new();
    for accel in
        [RramAccelerator::pipelayer(), RramAccelerator::retransformer(), RramAccelerator::star()]
    {
        let writes = accel.hot_cell_writes_per_layer() * cfg.num_layers as u64;
        let life = accel.lifetime_inferences(&cfg, &endurance, target);
        let life_str =
            if life.is_infinite() { "unlimited".to_owned() } else { format!("{life:.3e}") };
        println!("  {:>16} {:>20} {:>22}", Accelerator::name(&accel), writes, life_str);
        rows.push(serde_json::json!({
            "design": Accelerator::name(&accel),
            "hot_cell_writes_per_inference": writes,
            "lifetime_inferences": if life.is_infinite() { None } else { Some(life) },
        }));
    }

    // Retention: how long the STAR engine's one-time-programmed tables
    // hold their sense margin.
    let retention = RetentionModel::typical();
    let years = retention.seconds_to_margin(0.9) / 3.15e7;
    header("A4: retention of STAR's one-time-programmed tables");
    println!("  conductance window holds 90 % margin for {years:.1} years");

    serde_json::json!({
        "endurance_model": endurance,
        "failure_target": target,
        "designs": rows,
        "star_table_retention_years_at_90pct": years,
    })
}

/// A5 (ablation) — model-level sweep: computing efficiency of all four
/// designs across sequence lengths, at both attention-layer and full
/// 12-layer BERT-base granularity. Shows where STAR's advantage grows
/// (softmax-heavy long sequences) and how the FFN dilutes it.
///
/// The per-sequence-length evaluations are independent, so they fan out
/// across the `star-exec` pool; rows are computed in parallel and printed
/// in sweep order, byte-identical for every worker count.
pub(crate) fn a5() -> Value {
    let seq_lens = [64usize, 128, 256, 512];
    let exec = Executor::from_env();

    // One task per sequence length: evaluate all four designs at both
    // granularities. Results come back in sweep order.
    let evaluated = exec.par_map(&seq_lens, |_, &n| {
        let (rows, snap) = star_telemetry::with_scoped(|| {
            let gpu = GpuModel::titan_rtx();
            let pl = RramAccelerator::pipelayer();
            let rt = RramAccelerator::retransformer();
            let st = RramAccelerator::star();
            let cfg = AttentionConfig::bert_base(n);
            let layer = [
                gpu.evaluate(&cfg).efficiency_gops_per_watt,
                pl.evaluate(&cfg).efficiency_gops_per_watt,
                rt.evaluate(&cfg).efficiency_gops_per_watt,
                st.evaluate(&cfg).efficiency_gops_per_watt,
            ];
            let model = [
                gpu.model_efficiency(&cfg),
                pl.evaluate_model(&cfg).efficiency_gops_per_watt,
                rt.evaluate_model(&cfg).efficiency_gops_per_watt,
                st.evaluate_model(&cfg).efficiency_gops_per_watt,
            ];
            (layer, model)
        });
        (n, rows, snap)
    });
    for (_, _, snap) in &evaluated {
        star_telemetry::absorb(snap);
    }

    header("A5: attention-layer efficiency vs sequence length [GOPs/s/W]");
    println!(
        "  {:>6} {:>10} {:>12} {:>15} {:>10} {:>12}",
        "seq", "gpu", "pipelayer", "retransformer", "star", "star/retx"
    );
    let mut layer_rows = Vec::new();
    for (n, (e, _), _) in &evaluated {
        println!(
            "  {:>6} {:>10.2} {:>12.2} {:>15.2} {:>10.2} {:>11.3}x",
            n,
            e[0],
            e[1],
            e[2],
            e[3],
            e[3] / e[2]
        );
        layer_rows.push(serde_json::json!({
            "seq_len": n, "gpu": e[0], "pipelayer": e[1], "retransformer": e[2], "star": e[3],
        }));
    }

    header("A5: full 12-layer model efficiency vs sequence length [GOPs/s/W]");
    println!(
        "  {:>6} {:>10} {:>12} {:>15} {:>10} {:>12}",
        "seq", "gpu", "pipelayer", "retransformer", "star", "star/retx"
    );
    let mut model_rows = Vec::new();
    for (n, (_, e), _) in &evaluated {
        println!(
            "  {:>6} {:>10.2} {:>12.2} {:>15.2} {:>10.2} {:>11.3}x",
            n,
            e[0],
            e[1],
            e[2],
            e[3],
            e[3] / e[2]
        );
        model_rows.push(serde_json::json!({
            "seq_len": n, "gpu": e[0], "pipelayer": e[1], "retransformer": e[2], "star": e[3],
        }));
    }

    serde_json::json!({"attention_layer": layer_rows, "full_model": model_rows})
}

struct ModelEval {
    layer_eff: [f64; 4],
    latency_ms: f64,
    energy_mj: f64,
    chip_area_mm2: f64,
    model_eff: f64,
}

/// A6 (ablation) — does the STAR story survive model scale? The paper
/// evaluates BERT-base; here the same accelerators run BERT-large and a
/// GPT-2-small-shaped decoder, at layer and full-model granularity.
///
/// Models are evaluated in parallel on the `star-exec` pool and reported
/// in zoo order, byte-identical for every worker count.
pub(crate) fn a6() -> Value {
    let models: [(&str, AttentionConfig); 3] = [
        ("bert-base", AttentionConfig::bert_base(128)),
        ("bert-large", AttentionConfig::bert_large(128)),
        ("gpt2-small", AttentionConfig::gpt2_small(256)),
    ];

    let evaluated = Executor::from_env().par_map(&models, |_, (name, cfg)| {
        let (eval, snap) = star_telemetry::with_scoped(|| {
            let gpu = GpuModel::titan_rtx();
            let pl = RramAccelerator::pipelayer();
            let rt = RramAccelerator::retransformer();
            let st = RramAccelerator::star();
            let layer_eff = [
                gpu.evaluate(cfg).efficiency_gops_per_watt,
                pl.evaluate(cfg).efficiency_gops_per_watt,
                rt.evaluate(cfg).efficiency_gops_per_watt,
                st.evaluate(cfg).efficiency_gops_per_watt,
            ];
            assert!(
                layer_eff[0] < layer_eff[1]
                    && layer_eff[1] < layer_eff[2]
                    && layer_eff[2] < layer_eff[3],
                "{name}: ordering broke: {layer_eff:?}"
            );
            let r = st.evaluate_model(cfg);
            let area = st.area_sheet(cfg).total_area();
            ModelEval {
                layer_eff,
                latency_ms: r.latency.as_us() / 1000.0,
                energy_mj: r.total_energy.value() * 1e-9,
                chip_area_mm2: area.as_mm2(),
                model_eff: r.efficiency_gops_per_watt,
            }
        });
        (eval, snap)
    });
    for (_, snap) in &evaluated {
        star_telemetry::absorb(snap);
    }

    header("A6: attention-layer efficiency per model [GOPs/s/W]");
    println!(
        "  {:<12} {:>6} {:>8} {:>10} {:>14} {:>10} {:>11}",
        "model", "seq", "gpu", "pipelayer", "retransformer", "star", "star/retx"
    );
    let mut rows = Vec::new();
    for ((name, cfg), (eval, _)) in models.iter().zip(&evaluated) {
        let e = eval.layer_eff;
        println!(
            "  {:<12} {:>6} {:>8.2} {:>10.2} {:>14.2} {:>10.2} {:>10.3}x",
            name,
            cfg.seq_len,
            e[0],
            e[1],
            e[2],
            e[3],
            e[3] / e[2]
        );
        rows.push(serde_json::json!({
            "model": name, "seq_len": cfg.seq_len, "d_model": cfg.d_model,
            "num_layers": cfg.num_layers,
            "gpu": e[0], "pipelayer": e[1], "retransformer": e[2], "star": e[3],
        }));
    }

    header("A6: full-model latency and chip area (STAR)");
    println!(
        "  {:<12} {:>14} {:>16} {:>18}",
        "model", "latency [ms]", "energy [mJ]", "chip area [mm^2]"
    );
    let mut model_rows = Vec::new();
    for ((name, _), (eval, _)) in models.iter().zip(&evaluated) {
        println!(
            "  {:<12} {:>14.3} {:>16.3} {:>18.1}",
            name, eval.latency_ms, eval.energy_mj, eval.chip_area_mm2
        );
        model_rows.push(serde_json::json!({
            "model": name,
            "latency_ms": eval.latency_ms,
            "energy_mj": eval.energy_mj,
            "chip_area_mm2": eval.chip_area_mm2,
            "efficiency_gops_per_watt": eval.model_eff,
        }));
    }

    serde_json::json!({"attention_layer": rows, "star_full_model": model_rows})
}

/// A7 (ablation) — engine design-space exploration: evaluate the
/// neighbourhood of the paper's operating points over (input format ×
/// exponential word width × divider precision) and report the Pareto
/// frontier of (area, power, accuracy). Shows the paper's configuration
/// choices sit on (or next to) the frontier.
pub(crate) fn a7() -> Value {
    let trace = ScoreTrace::generate(Dataset::Mrpc, 96, 64, 0xA7);
    let space = DesignSpace::paper_neighborhood();
    let exec = Executor::from_env();
    header(&format!("A7: evaluating {} engine configurations on the MRPC proxy", space.len()));
    // Worker count goes to stderr: stdout must be byte-identical for
    // every `STAR_EXEC_THREADS`.
    eprintln!("A7: {} worker(s)", exec.threads());

    // Configurations fan out across the pool; results (and telemetry, via
    // the scoped-capture + ordered-merge protocol) are byte-identical for
    // every worker count.
    let points = space.evaluate_par(&exec, &trace.rows).expect("all configurations build");
    let front = pareto_front(&points);

    println!(
        "  {:>8} {:>8} {:>8} {:>12} {:>10} {:>12} {:>8} {:>7}",
        "format", "expbits", "quot", "area[um^2]", "power[mW]", "meanAbsErr", "top1", "pareto"
    );
    for p in &points {
        let on_front = front.contains(p);
        println!(
            "  {:>8} {:>8} {:>8} {:>12.1} {:>10.3} {:>12.2e} {:>8.3} {:>7}",
            p.format.to_string(),
            p.exp_word_bits,
            p.quotient_bits,
            p.area_um2,
            p.power_mw,
            p.mean_abs_error,
            p.top1_agreement,
            if on_front { "*" } else { "" }
        );
    }

    header("A7: Pareto frontier (area ↑ / error ↓ trade)");
    for p in &front {
        println!(
            "  {:>8} exp{:<2} q{:<2}  {:>10.1} um^2  {:>8.3} mW  err {:.2e}",
            p.format.to_string(),
            p.exp_word_bits,
            p.quotient_bits,
            p.area_um2,
            p.power_mw,
            p.mean_abs_error
        );
    }
    println!("  frontier size: {} of {}", front.len(), points.len());

    serde_json::json!({"points": points, "pareto_front": front})
}
