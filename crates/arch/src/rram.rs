//! The RRAM accelerator models: PipeLayer, ReTransformer, and STAR.
//!
//! All three share the same crossbar MatMul cost model and the same chip
//! background power; they differ exactly where the literature says they
//! differ:
//!
//! | | input coding | attention pipeline | softmax | intermediate writes |
//! |---|---|---|---|---|
//! | PipeLayer | spike (16-cycle) | unpipelined | shared CMOS unit | writes K, V and the score matrix into crossbars |
//! | ReTransformer | 8-bit bit-serial | operand-grained | shared CMOS unit | avoided via matrix decomposition |
//! | STAR | 8-bit bit-serial | **vector-grained** | **RRAM softmax engine** | avoided |

use crate::accelerator::{gops_per_watt, Accelerator, PerfReport};
use crate::matmul_engine::{MatMulEngine, MatMulEngineConfig};
use serde::{Deserialize, Serialize};
use star_attention::AttentionConfig;
use star_core::{
    attention_pipeline_latency, BuildStarError, CmosBaselineSoftmax, PipelineMode, RowStageLatency,
    SoftmaxEngine, StarSoftmax, StarSoftmaxConfig,
};
use star_crossbar::OpCost;
use star_device::{Energy, Latency, Power};
use star_fixed::QFormat;
use std::fmt;

/// Cost model for programming intermediate matrices into RRAM crossbars
/// (what PipeLayer must do for the dynamic K, V and score matrices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WriteModel {
    /// Program-and-verify time for one crossbar row.
    pub row_program: Latency,
    /// Programming energy per cell.
    pub cell_energy: Energy,
}

impl WriteModel {
    /// NeuroSim-flavoured defaults: 410 ns multi-pulse programming per row
    /// (between a bare 100 ns SET and a 1 µs full write-verify), 10 pJ per
    /// cell SET/RESET — the constants
    /// [`star_device::TechnologyParams::cmos32`] keeps as `write_row_ns` /
    /// `write_cell_pj`.
    pub fn typical() -> Self {
        let tech = star_device::TechnologyParams::cmos32();
        WriteModel {
            row_program: Latency::new(tech.write_row_ns),
            cell_energy: Energy::new(tech.write_cell_pj),
        }
    }

    /// Cost of programming an `rows × cols` matrix of `bits`-bit values
    /// (one cell per bit).
    pub fn matrix_cost(&self, rows: usize, cols: usize, bits: u8) -> (Latency, Energy) {
        let cells = (rows * cols * bits as usize) as f64;
        (self.row_program * rows as f64, self.cell_energy * cells)
    }
}

/// One attention layer's price on a design before its rows are
/// pipelined: what [`Accelerator::evaluate`] composes into a report and
/// what a serving model batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// The four projection GEMMs (`n × d · d`), run as sequential phases.
    pub projection: OpCost,
    /// Per-row stage latencies: `QKᵀ`, softmax over the replicated
    /// engines, `P·V`.
    pub stages: RowStageLatency,
    /// Dynamic energy of the attention core: every row of every head
    /// through all three stages.
    pub core_energy: Energy,
}

/// Which softmax hardware an RRAM accelerator carries.
enum SoftmaxUnit {
    /// A shared digital CMOS softmax (PipeLayer / ReTransformer).
    Cmos(CmosBaselineSoftmax),
    /// The STAR crossbar softmax engine, possibly replicated.
    Star(Box<StarSoftmax>),
}

impl SoftmaxUnit {
    fn row_cost(&self, n: usize) -> OpCost {
        match self {
            SoftmaxUnit::Cmos(u) => u.row_cost(n),
            SoftmaxUnit::Star(u) => u.row_cost(n),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            SoftmaxUnit::Cmos(_) => "cmos",
            SoftmaxUnit::Star(_) => "star-rram",
        }
    }
}

impl fmt::Debug for SoftmaxUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())
    }
}

/// A parameterized RRAM attention accelerator.
///
/// Use the presets — [`RramAccelerator::pipelayer`],
/// [`RramAccelerator::retransformer`], [`RramAccelerator::star`] — or
/// assemble a custom design for ablations.
///
/// # Examples
///
/// ```
/// use star_arch::{Accelerator, RramAccelerator};
/// use star_attention::AttentionConfig;
///
/// let star = RramAccelerator::star();
/// let retx = RramAccelerator::retransformer();
/// let cfg = AttentionConfig::bert_base(128);
/// let gain = star.evaluate(&cfg).efficiency_gain_over(&retx.evaluate(&cfg));
/// assert!(gain > 1.0); // STAR wins (paper: 1.31×)
/// ```
#[derive(Debug)]
pub struct RramAccelerator {
    name: String,
    matmul: MatMulEngine,
    softmax: SoftmaxUnit,
    /// Softmax engine replication (round-robin across rows).
    softmax_units: usize,
    pipeline: PipelineMode,
    writes: Option<WriteModel>,
    /// Chip background power: clock tree, buffers, eDRAM refresh, leakage —
    /// identical across the three RRAM designs (same chip infrastructure).
    background_power: Power,
}

/// Shared chip background power for all RRAM presets. Derived from the
/// [`star_device::ChipInfrastructure`] component assembly (eDRAM buffers +
/// clock tree + interconnect + array leakage land at ≈13.8 W for an
/// ISAAC-class chip); fixed here so the three designs stay exactly
/// comparable. See EXPERIMENTS.md.
const BACKGROUND_POWER_W: f64 = 14.5;

impl RramAccelerator {
    /// PipeLayer (HPCA'17): spike-coded inputs, no attention pipelining, a
    /// shared CMOS softmax, and crossbar writes for every dynamic matrix.
    pub fn pipelayer() -> Self {
        let mm = MatMulEngineConfig { input_bits: 16, ..MatMulEngineConfig::paper() };
        RramAccelerator {
            name: "pipelayer".into(),
            matmul: MatMulEngine::new(mm),
            softmax: SoftmaxUnit::Cmos(CmosBaselineSoftmax::new(3)),
            softmax_units: 1,
            pipeline: PipelineMode::Unpipelined,
            writes: Some(WriteModel::typical()),
            background_power: Power::from_watts(BACKGROUND_POWER_W),
        }
    }

    /// ReTransformer (ICCAD'20): matrix decomposition avoids intermediate
    /// writes, operand-grained pipelining, shared CMOS softmax.
    pub fn retransformer() -> Self {
        RramAccelerator {
            name: "retransformer".into(),
            matmul: MatMulEngine::new(MatMulEngineConfig::paper()),
            softmax: SoftmaxUnit::Cmos(CmosBaselineSoftmax::new(3)),
            softmax_units: 1,
            pipeline: PipelineMode::OperandGrained,
            writes: None,
            background_power: Power::from_watts(BACKGROUND_POWER_W),
        }
    }

    /// STAR (this paper): ReTransformer's MatMul engine plus the RRAM
    /// softmax engine (9-bit configuration, 10 interleaved engine copies —
    /// the engine is tiny, so replication balances the pipeline against
    /// the MatMul row rate at negligible area cost) and the vector-grained
    /// pipeline.
    pub fn star() -> Self {
        Self::star_with(QFormat::MRPC, 10).expect("paper formats build valid engines")
    }

    /// STAR with an explicit softmax format and engine replication (the
    /// serving model's operating point).
    ///
    /// # Errors
    ///
    /// Returns [`BuildStarError`] if the engine cannot be built for the
    /// format.
    ///
    /// # Panics
    ///
    /// Panics if `softmax_units` is zero.
    pub fn star_with(format: QFormat, softmax_units: usize) -> Result<Self, BuildStarError> {
        assert!(softmax_units > 0, "need at least one softmax engine");
        let engine = StarSoftmax::new(StarSoftmaxConfig::new(format))?;
        Ok(RramAccelerator {
            name: format!("star-{}bit", format.total_bits()),
            matmul: MatMulEngine::new(MatMulEngineConfig::paper()),
            softmax: SoftmaxUnit::Star(Box::new(engine)),
            softmax_units,
            pipeline: PipelineMode::VectorGrained,
            writes: None,
            background_power: Power::from_watts(BACKGROUND_POWER_W),
        })
    }

    /// A STAR variant with a different pipeline mode (ablation A1).
    pub fn star_with_pipeline(mode: PipelineMode) -> Self {
        let mut a = Self::star();
        a.pipeline = mode;
        a.name = format!("star-{:?}", mode).to_lowercase();
        a
    }

    /// The MatMul engine model.
    pub fn matmul_engine(&self) -> &MatMulEngine {
        &self.matmul
    }

    /// One attention layer's projections, row stages and core energy at
    /// `config` (heads run on parallel array banks and per-head softmax
    /// paths, identically for all designs).
    pub fn layer_cost(&self, config: &AttentionConfig) -> LayerCost {
        let n = config.seq_len;
        let d = config.d_model;
        let dh = config.d_head();
        let qk = self.matmul.row_cost(dh, n);
        let av = self.matmul.row_cost(n, dh);
        let sm = self.softmax.row_cost(n);
        let softmax = sm.latency * (1.0 / self.softmax_units as f64);
        LayerCost {
            projection: self.matmul.gemm_cost(n, d, d).repeat(4),
            stages: RowStageLatency::new(qk.latency, softmax, av.latency),
            core_energy: (qk.energy + av.energy + sm.energy) * (n as f64) * config.num_heads as f64,
        }
    }

    /// Crossbar program cycles on the hottest cell per attention layer:
    /// designs that write intermediates (PipeLayer) reprogram the K/V and
    /// score arrays once per layer per inference; the others never write
    /// after deployment.
    pub fn hot_cell_writes_per_layer(&self) -> u64 {
        u64::from(self.writes.is_some())
    }

    /// Inference lifetime under an endurance model at a per-cell
    /// reliability target: infinite for write-free designs.
    pub fn lifetime_inferences(
        &self,
        config: &AttentionConfig,
        endurance: &star_device::EnduranceModel,
        target: f64,
    ) -> f64 {
        let writes = self.hot_cell_writes_per_layer() * config.num_layers as u64;
        endurance.lifetime_inferences(writes, target)
    }

    /// Itemized chip-area budget for running a configuration: resident
    /// weight crossbars for every layer (the PIM premise — all projection
    /// and FFN weights live in RRAM), the per-head softmax hardware, and
    /// activation row buffers.
    pub fn area_sheet(&self, config: &AttentionConfig) -> star_device::CostSheet {
        use star_device::peripherals::PeripheralLibrary;
        let d = config.d_model;
        let f = config.d_ff;
        let layers = config.num_layers;
        let mut sheet = star_device::CostSheet::new(format!("{}-chip", self.name));

        // Weight arrays: 4 d×d projections + d×d_ff + d_ff×d FFN per layer.
        let proj = self.matmul.cost_sheet("proj-weights", d, d, 0.0);
        let ff1 = self.matmul.cost_sheet("ffn-expand", d, f, 0.0);
        let ff2 = self.matmul.cost_sheet("ffn-contract", f, d, 0.0);
        let weight_area = proj.total_area() * 4.0 + ff1.total_area() + ff2.total_area();
        sheet.add(
            format!("weight crossbars x{layers} layers"),
            weight_area * layers as f64,
            star_device::Power::ZERO,
        );

        // Softmax hardware: one path per head; STAR additionally replicates
        // `softmax_units` engines per path.
        let per_path = match &self.softmax {
            SoftmaxUnit::Cmos(u) => u.cost_sheet().total_area(),
            SoftmaxUnit::Star(u) => u.cost_sheet().total_area() * self.softmax_units as f64,
        };
        sheet.add(
            format!("softmax hardware x{} heads", config.num_heads),
            per_path * config.num_heads as f64,
            star_device::Power::ZERO,
        );

        // Activation buffers: double-buffered seq×d activations at 8 bits.
        let kib = (config.seq_len * d) as f64 / 1024.0;
        let buf = PeripheralLibrary::sram(kib.max(0.25));
        sheet.add("activation buffers x2", buf.area() * 2.0, star_device::Power::ZERO);
        sheet
    }

    /// Evaluates the full encoder stack (`num_layers` attention layers plus
    /// their feed-forward GEMMs), producing a model-level report.
    pub fn evaluate_model(&self, config: &AttentionConfig) -> PerfReport {
        let layer = self.evaluate(config);
        let n = config.seq_len;
        let d = config.d_model;
        let f = config.d_ff;
        let layers = config.num_layers as f64;
        // FFN: expansion + contraction GEMMs per layer on the MatMul engine.
        let ffn = self.matmul.gemm_cost(n, d, f).then(self.matmul.gemm_cost(n, f, d));
        let latency = (layer.latency + ffn.latency) * layers;
        let dynamic_energy = (layer.dynamic_energy + ffn.energy) * layers;
        let total_energy = dynamic_energy + self.background_power * latency;
        let ops = config.model_ops().total_ops();
        PerfReport {
            name: format!("{}-model", self.name),
            ops,
            latency,
            dynamic_energy,
            total_energy,
            avg_power: total_energy / latency,
            efficiency_gops_per_watt: gops_per_watt(ops, total_energy),
            matmul_latency: (layer.matmul_latency + ffn.latency) * layers,
            softmax_latency: layer.softmax_latency * layers,
            write_latency: layer.write_latency * layers,
        }
    }
}

impl Accelerator for RramAccelerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, config: &AttentionConfig) -> PerfReport {
        let n = config.seq_len;
        let dh = config.d_head();
        let heads = config.num_heads as f64;
        let LayerCost { projection: proj, stages, core_energy } = self.layer_cost(config);
        let core_latency = attention_pipeline_latency(n, stages, self.pipeline);

        // Intermediate RRAM writes (PipeLayer): K, V, and the score matrix
        // per head; heads program in parallel banks.
        let (write_latency, write_energy) = match self.writes {
            Some(w) => {
                let (lk, ek) = w.matrix_cost(dh, n, 8);
                let (lv, ev) = w.matrix_cost(n, dh, 8);
                let (ls, es) = w.matrix_cost(n, n, 8);
                (lk + lv + ls, (ek + ev + es) * heads)
            }
            None => (Latency::ZERO, Energy::ZERO),
        };

        let latency = proj.latency + core_latency + write_latency;
        let dynamic_energy = proj.energy + core_energy + write_energy;
        let total_energy = dynamic_energy + self.background_power * latency;
        let ops = config.attention_ops().total_ops();

        // Softmax's serialized contribution to the end-to-end time.
        let softmax_latency = match self.pipeline {
            PipelineMode::Unpipelined | PipelineMode::OperandGrained => stages.softmax * n as f64,
            PipelineMode::VectorGrained => {
                // Only exposed if softmax is the bottleneck stage.
                let bottleneck = stages.bottleneck();
                if stages.softmax.value() >= bottleneck.value() {
                    stages.softmax * n as f64
                } else {
                    Latency::ZERO
                }
            }
        };

        PerfReport {
            name: self.name.clone(),
            ops,
            latency,
            dynamic_energy,
            total_energy,
            avg_power: total_energy / latency,
            efficiency_gops_per_watt: gops_per_watt(ops, total_energy),
            matmul_latency: proj.latency + (stages.qk + stages.av) * n as f64,
            softmax_latency,
            write_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AttentionConfig {
        AttentionConfig::bert_base(128)
    }

    #[test]
    fn fig3_ordering() {
        let gpu = crate::GpuModel::titan_rtx();
        let pl = RramAccelerator::pipelayer().evaluate(&cfg());
        let rt = RramAccelerator::retransformer().evaluate(&cfg());
        let st = RramAccelerator::star().evaluate(&cfg());
        let gp = gpu.evaluate(&cfg());
        assert!(
            gp.efficiency_gops_per_watt < pl.efficiency_gops_per_watt,
            "gpu {} < pipelayer {}",
            gp.efficiency_gops_per_watt,
            pl.efficiency_gops_per_watt
        );
        assert!(pl.efficiency_gops_per_watt < rt.efficiency_gops_per_watt);
        assert!(rt.efficiency_gops_per_watt < st.efficiency_gops_per_watt);
    }

    #[test]
    fn star_latency_beats_baselines() {
        let pl = RramAccelerator::pipelayer().evaluate(&cfg());
        let rt = RramAccelerator::retransformer().evaluate(&cfg());
        let st = RramAccelerator::star().evaluate(&cfg());
        assert!(st.latency < rt.latency);
        assert!(rt.latency < pl.latency);
    }

    #[test]
    fn pipelayer_pays_for_writes() {
        let pl = RramAccelerator::pipelayer().evaluate(&cfg());
        let rt = RramAccelerator::retransformer().evaluate(&cfg());
        assert!(pl.write_latency.value() > 0.0);
        assert_eq!(rt.write_latency.value(), 0.0);
    }

    #[test]
    fn star_hides_softmax_in_pipeline() {
        let st = RramAccelerator::star().evaluate(&cfg());
        let rt = RramAccelerator::retransformer().evaluate(&cfg());
        assert!(st.softmax_share() < rt.softmax_share());
    }

    #[test]
    fn write_model_matrix_cost() {
        let w = WriteModel::typical();
        let (lat, en) = w.matrix_cost(128, 128, 8);
        assert_eq!(lat.value(), 128.0 * 410.0); // 128 rows × 410 ns
        assert_eq!(en.value(), 128.0 * 128.0 * 8.0 * 10.0);
    }

    #[test]
    fn pipeline_ablation_ordering() {
        let modes =
            [PipelineMode::Unpipelined, PipelineMode::OperandGrained, PipelineMode::VectorGrained];
        let effs: Vec<f64> = modes
            .iter()
            .map(|&m| {
                RramAccelerator::star_with_pipeline(m).evaluate(&cfg()).efficiency_gops_per_watt
            })
            .collect();
        assert!(effs[0] <= effs[1] && effs[1] <= effs[2], "{effs:?}");
    }

    #[test]
    fn more_softmax_units_help_until_balanced() {
        let one = RramAccelerator::star_with(QFormat::MRPC, 1).expect("builds").evaluate(&cfg());
        let eight = RramAccelerator::star_with(QFormat::MRPC, 8).expect("builds").evaluate(&cfg());
        assert!(eight.latency <= one.latency);
    }

    #[test]
    #[should_panic(expected = "at least one softmax engine")]
    fn zero_units_rejected() {
        let _ = RramAccelerator::star_with(QFormat::MRPC, 0);
    }

    #[test]
    fn background_power_is_component_derived() {
        // The preset constant must sit within 10 % of the component-level
        // chip-infrastructure assembly.
        let derived = star_device::ChipInfrastructure::isaac_class().background_power().as_watts();
        assert!(
            (derived - BACKGROUND_POWER_W).abs() / BACKGROUND_POWER_W < 0.10,
            "derived {derived} vs preset {BACKGROUND_POWER_W}"
        );
    }

    #[test]
    fn area_sheet_softmax_is_negligible() {
        // The paper's premise: the softmax engine's area is a rounding
        // error next to the weight crossbars (even replicated 10× per
        // head), so vector-grained pipelining is nearly free in silicon.
        let cfg = AttentionConfig::bert_base(128);
        let sheet = RramAccelerator::star().area_sheet(&cfg);
        let weights = sheet
            .items()
            .iter()
            .find(|i| i.name.starts_with("weight"))
            .expect("weights entry")
            .area;
        let softmax = sheet
            .items()
            .iter()
            .find(|i| i.name.starts_with("softmax"))
            .expect("softmax entry")
            .area;
        assert!(softmax.value() < weights.value() * 0.05, "softmax {softmax} weights {weights}");
        // Replicated 10× per head, STAR's softmax silicon lands in the
        // same class as the CMOS units it replaces (a few×), while cutting
        // power ~20× per engine — and both stay far below the weight
        // arrays.
        let retx = RramAccelerator::retransformer().area_sheet(&cfg);
        let cmos = retx
            .items()
            .iter()
            .find(|i| i.name.starts_with("softmax"))
            .expect("softmax entry")
            .area;
        assert!(softmax.value() < cmos.value() * 4.0, "star {softmax} vs cmos {cmos}");
        assert!(cmos.value() < weights.value() * 0.05);
    }

    #[test]
    fn endurance_lifetimes() {
        let endurance = star_device::EnduranceModel::typical();
        let cfg = AttentionConfig::bert_base(128);
        let star = RramAccelerator::star();
        let pl = RramAccelerator::pipelayer();
        assert_eq!(star.hot_cell_writes_per_layer(), 0);
        assert_eq!(pl.hot_cell_writes_per_layer(), 1);
        assert_eq!(star.lifetime_inferences(&cfg, &endurance, 1e-4), f64::INFINITY);
        let pl_life = pl.lifetime_inferences(&cfg, &endurance, 1e-4);
        assert!(pl_life.is_finite());
        // 12 writes per inference against a 1e9-cycle device: finite but large.
        assert!(pl_life > 1e5 && pl_life < 1e9, "{pl_life}");
    }

    #[test]
    fn model_level_report_consistent() {
        let cfg = AttentionConfig::bert_base(128);
        let star = RramAccelerator::star();
        let layer = star.evaluate(&cfg);
        let model = star.evaluate_model(&cfg);
        assert!(model.ops > layer.ops * 12); // FFN adds ops beyond 12 layers
        assert!(model.latency.value() > layer.latency.value() * 12.0);
        assert!(model.total_energy.value() > layer.total_energy.value() * 12.0);
        // Model-level efficiency stays in the same regime (FFN is pure
        // matmul, which is more efficient than attention).
        assert!(model.efficiency_gops_per_watt > layer.efficiency_gops_per_watt * 0.5);
        assert!(model.name.ends_with("-model"));
    }

    #[test]
    fn model_level_ordering_preserved() {
        let cfg = AttentionConfig::bert_base(128);
        let pl = RramAccelerator::pipelayer().evaluate_model(&cfg);
        let rt = RramAccelerator::retransformer().evaluate_model(&cfg);
        let st = RramAccelerator::star().evaluate_model(&cfg);
        let gpu_eff = crate::GpuModel::titan_rtx().model_efficiency(&cfg);
        assert!(gpu_eff < pl.efficiency_gops_per_watt);
        assert!(pl.efficiency_gops_per_watt < rt.efficiency_gops_per_watt);
        assert!(rt.efficiency_gops_per_watt < st.efficiency_gops_per_watt);
    }
}
