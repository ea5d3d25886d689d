//! The service-time model: what one accelerator invocation costs.
//!
//! A serving instance is one STAR accelerator (`star-arch`'s
//! [`RramAccelerator::star_with`] operating point: ReTransformer-style
//! MatMul engine + replicated RRAM softmax engines + vector-grained
//! pipeline). A batch of `B` same-class requests executes as **one**
//! invocation:
//!
//! - the per-request projection GEMMs serialize (`B ×` the single-request
//!   projection latency — every request has its own tokens, nothing to
//!   amortize),
//! - the attention cores of all `B` requests stream *back-to-back through
//!   the row pipeline without draining it*, so the pipeline fill/drain
//!   term is paid once per batch instead of once per request
//!   ([`attention_pipeline_latency`] over `B · seq` rows),
//! - a fixed per-invocation overhead (`invoke_overhead_ns`: host → device
//!   round trip, activation-buffer staging, pipeline reconfiguration) is
//!   paid once per batch — the dominant amortization lever, as in every
//!   real serving stack.
//!
//! The projection, row stages and core energy are the accelerator's own
//! [`RramAccelerator::layer_cost`], the one computation `star-arch`'s
//! evaluation also reads, and the background power is that evaluation's
//! residual. At `B = 1` the latency is therefore exactly the `star-arch`
//! single-layer evaluation plus the invocation overhead (a unit test pins
//! this).

use crate::request::RequestClass;
use serde::{Deserialize, Serialize};
use star_arch::{Accelerator, RramAccelerator};
use star_core::{attention_pipeline_latency, PipelineMode, RowStageLatency};
use star_fixed::QFormat;
use std::collections::BTreeMap;

/// Hardware operating point of every instance in the simulated fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceModelConfig {
    /// Softmax fixed-point format (integer, fraction bits).
    pub format: (u8, u8),
    /// Replicated softmax engines per instance (the paper's operating
    /// point interleaves 10).
    pub softmax_units: usize,
    /// Fixed per-invocation overhead: host dispatch, activation staging
    /// into the double-buffered SRAM, pipeline reconfiguration. Paid once
    /// per batch. See EXPERIMENTS.md "Calibration constants".
    pub invoke_overhead_ns: f64,
}

impl Default for ServiceModelConfig {
    /// The paper operating point (MRPC q5.3, 10 engines) with a 20 µs
    /// invocation overhead.
    fn default() -> Self {
        ServiceModelConfig { format: (5, 3), softmax_units: 10, invoke_overhead_ns: 20_000.0 }
    }
}

impl ServiceModelConfig {
    /// The configured [`QFormat`].
    ///
    /// # Panics
    ///
    /// Panics if the stored bit widths are invalid.
    pub fn qformat(&self) -> QFormat {
        QFormat::new(self.format.0, self.format.1).expect("valid stored format")
    }
}

/// Precomputed per-class costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassService {
    /// Per-row stage latencies (qk, softmax/units, av), ns.
    pub stages: RowStageLatency,
    /// Per-request fixed latency (projection GEMMs), ns.
    pub per_request_fixed_ns: f64,
    /// Per-request dynamic energy, pJ.
    pub per_request_energy_pj: f64,
    /// Instance background power while the invocation runs, mW.
    pub background_power_mw: f64,
}

/// Latency and energy of one batched invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchCost {
    /// End-to-end invocation latency, ns.
    pub latency_ns: f64,
    /// Total energy (dynamic + background), pJ.
    pub energy_pj: f64,
}

/// Sequential phase decomposition of one batched invocation — the
/// hardware-cost half of a request's span tree.
///
/// The five phases partition [`BatchCost::latency_ns`] *exactly*: the
/// first four are the analytically attributable terms of the vector-
/// grained pipeline formula and the last (`av_drain_ns`) is the residual,
/// so `sum() == batch_cost(class, batch).latency_ns` bit-for-bit and span
/// trees built from these phases always reconcile with the event loop's
/// service times.
///
/// Phase meanings, in chronological order:
///
/// 1. `overhead_ns` — host dispatch, activation staging, pipeline
///    reconfiguration (`invoke_overhead_ns`, paid once per batch).
/// 2. `projection_ns` — the `B` serialized per-request projection GEMMs.
/// 3. `qk_fill_ns` — first `QKᵀ` row through the MatMul engine (pipeline
///    fill).
/// 4. `softmax_stream_ns` — the softmax stage of row 0 plus the
///    steady-state streaming of the remaining `B·seq − 1` rows at the
///    bottleneck rate (this is where the STAR engine's row latency
///    shows up).
/// 5. `av_drain_ns` — the final `P·V` row draining the pipeline
///    (residual term).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationPhases {
    /// Per-batch invocation overhead, ns.
    pub overhead_ns: f64,
    /// Serialized projection GEMMs for all batch members, ns.
    pub projection_ns: f64,
    /// Pipeline fill: the first `QKᵀ` row, ns.
    pub qk_fill_ns: f64,
    /// Softmax of row 0 plus steady-state streaming of the remaining
    /// rows at the bottleneck rate, ns.
    pub softmax_stream_ns: f64,
    /// Pipeline drain: the final `P·V` row (residual so the five phases
    /// sum exactly to the invocation latency), ns.
    pub av_drain_ns: f64,
}

impl InvocationPhases {
    /// Total latency — equals [`BatchCost::latency_ns`] exactly.
    pub fn sum(&self) -> f64 {
        self.overhead_ns
            + self.projection_ns
            + self.qk_fill_ns
            + self.softmax_stream_ns
            + self.av_drain_ns
    }

    /// The phases as `(category, duration)` pairs in chronological order,
    /// using the span categories the trace layer emits.
    pub fn as_categories(&self) -> [(&'static str, f64); 5] {
        [
            ("overhead", self.overhead_ns),
            ("projection", self.projection_ns),
            ("qk_fill", self.qk_fill_ns),
            ("softmax_stream", self.softmax_stream_ns),
            ("av_drain", self.av_drain_ns),
        ]
    }
}

/// One of the five sequential phases of a batched invocation — the unit
/// the what-if engine's `ScalePhase` intervention targets (see
/// [`crate::blame`]). Each variant names the [`InvocationPhases`] term it
/// scales and the physical lever behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServicePhase {
    /// Per-batch invocation overhead (`invoke_overhead_ns`): host
    /// dispatch, staging, reconfiguration.
    Overhead,
    /// The serialized per-request projection GEMMs
    /// (`per_request_fixed_ns`).
    Projection,
    /// The `QKᵀ` row stage of the pipeline (`stages.qk`). Scaling it
    /// moves both the fill term and — when it is the bottleneck — the
    /// steady-state streaming rate, exactly as a faster MatMul engine
    /// would.
    QkFill,
    /// The softmax row stage (`stages.softmax`) — the STAR engine's
    /// latency lever (more replicated engines, a faster design).
    SoftmaxStream,
    /// The `P·V` row stage (`stages.av`): drain term plus its share of
    /// the bottleneck rate.
    AvDrain,
}

impl ServicePhase {
    /// Every phase, in chronological order.
    pub const ALL: [ServicePhase; 5] = [
        ServicePhase::Overhead,
        ServicePhase::Projection,
        ServicePhase::QkFill,
        ServicePhase::SoftmaxStream,
        ServicePhase::AvDrain,
    ];

    /// Stable lower-snake name, matching the trace layer's span
    /// categories.
    pub fn as_str(self) -> &'static str {
        match self {
            ServicePhase::Overhead => "overhead",
            ServicePhase::Projection => "projection",
            ServicePhase::QkFill => "qk_fill",
            ServicePhase::SoftmaxStream => "softmax_stream",
            ServicePhase::AvDrain => "av_drain",
        }
    }
}

/// The service-time oracle the event loop queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    config: ServiceModelConfig,
    classes: BTreeMap<RequestClass, ClassService>,
}

impl ServiceModel {
    /// Builds the model for `classes` at the `config` operating point.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, if the softmax engine cannot be
    /// built for the format, or if `softmax_units` is zero.
    pub fn new(config: ServiceModelConfig, classes: &[RequestClass]) -> Self {
        assert!(!classes.is_empty(), "service model needs at least one class");
        assert!(
            config.invoke_overhead_ns.is_finite() && config.invoke_overhead_ns >= 0.0,
            "invocation overhead must be finite and non-negative"
        );
        let accelerator = RramAccelerator::star_with(config.qformat(), config.softmax_units)
            .expect("paper formats build engines");
        let mut map = BTreeMap::new();
        for &class in classes {
            map.entry(class).or_insert_with(|| Self::class_service(&accelerator, class));
        }
        ServiceModel { config, classes: map }
    }

    fn class_service(accelerator: &RramAccelerator, class: RequestClass) -> ClassService {
        let cfg = class.config();
        let layer = accelerator.layer_cost(&cfg);
        // Background power from the arch-level evaluation: the residual
        // (total − dynamic) / latency.
        let report = accelerator.evaluate(&cfg);
        let background_power_mw =
            (report.total_energy.value() - report.dynamic_energy.value()) / report.latency.value();
        ClassService {
            stages: layer.stages,
            per_request_fixed_ns: layer.projection.latency.value(),
            per_request_energy_pj: layer.projection.energy.value() + layer.core_energy.value(),
            background_power_mw,
        }
    }

    /// The operating point.
    pub fn config(&self) -> &ServiceModelConfig {
        &self.config
    }

    /// The per-class cost sheet.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not registered at construction.
    pub fn class(&self, class: RequestClass) -> &ClassService {
        self.classes
            .get(&class)
            .unwrap_or_else(|| panic!("class {class} not registered in the service model"))
    }

    /// Latency and energy of one invocation executing `batch` same-class
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `class` is unknown.
    pub fn batch_cost(&self, class: RequestClass, batch: usize) -> BatchCost {
        assert!(batch > 0, "batch must hold at least one request");
        let c = self.class(class);
        let rows = batch * class.seq_len;
        let core = attention_pipeline_latency(rows, c.stages, PipelineMode::VectorGrained).value();
        let latency_ns =
            self.config.invoke_overhead_ns + batch as f64 * c.per_request_fixed_ns + core;
        let energy_pj = batch as f64 * c.per_request_energy_pj + c.background_power_mw * latency_ns;
        BatchCost { latency_ns, energy_pj }
    }

    /// The sequential phase decomposition of one invocation (see
    /// [`InvocationPhases`]). The phases sum to
    /// [`ServiceModel::batch_cost`]'s `latency_ns` *exactly* — the last
    /// phase is computed as the residual, so floating-point rounding in
    /// the analytic terms can never make span trees disagree with the
    /// event loop's service times.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `class` is unknown.
    pub fn invocation_phases(&self, class: RequestClass, batch: usize) -> InvocationPhases {
        let total = self.batch_cost(class, batch).latency_ns;
        let c = self.class(class);
        let rows = (batch * class.seq_len) as f64;
        let overhead_ns = self.config.invoke_overhead_ns;
        let projection_ns = batch as f64 * c.per_request_fixed_ns;
        let qk_fill_ns = c.stages.qk.value();
        let softmax_stream_ns =
            c.stages.softmax.value() + (rows - 1.0) * c.stages.bottleneck().value();
        // Residual drain term: nominally the final `P·V` row; numerically
        // it absorbs the rounding noise of the analytic terms. Computing
        // it as `total − S` with `S` accumulated in *the same grouping*
        // `sum()` uses makes the recomposition exact: `S` is within a
        // factor of two of `total` (the drain is one row of a multi-row
        // invocation), so by Sterbenz's lemma the subtraction is exact and
        // `S + (total − S)` rounds to `total` itself.
        let analytic = ((overhead_ns + projection_ns) + qk_fill_ns) + softmax_stream_ns;
        let av_drain_ns = total - analytic;
        InvocationPhases { overhead_ns, projection_ns, qk_fill_ns, softmax_stream_ns, av_drain_ns }
    }

    /// Scales one service phase's latency lever by `factor` across every
    /// class — the counterfactual hardware behind the what-if engine's
    /// `ScalePhase` intervention ("what if softmax rows were 2× faster?").
    ///
    /// Only *latency* terms move; per-request dynamic energy stays put
    /// (the background-power term still shifts with latency through
    /// [`ServiceModel::batch_cost`], as it would on real hardware that
    /// finishes earlier). `factor == 1.0` is an exact no-op: IEEE
    /// multiplication by 1.0 is the identity, so the scaled model is
    /// bitwise the original.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scale_phase(&mut self, phase: ServicePhase, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "phase scale factor must be finite positive");
        match phase {
            ServicePhase::Overhead => self.config.invoke_overhead_ns *= factor,
            ServicePhase::Projection => {
                for c in self.classes.values_mut() {
                    c.per_request_fixed_ns *= factor;
                }
            }
            ServicePhase::QkFill => {
                for c in self.classes.values_mut() {
                    c.stages.qk = c.stages.qk * factor;
                }
            }
            ServicePhase::SoftmaxStream => {
                for c in self.classes.values_mut() {
                    c.stages.softmax = c.stages.softmax * factor;
                }
            }
            ServicePhase::AvDrain => {
                for c in self.classes.values_mut() {
                    c.stages.av = c.stages.av * factor;
                }
            }
        }
    }

    /// The batch-of-one service latency — the zero-queueing floor every
    /// latency distribution sits on.
    pub fn unit_latency_ns(&self, class: RequestClass) -> f64 {
        self.batch_cost(class, 1).latency_ns
    }

    /// The saturated throughput of one instance running back-to-back
    /// batches of size `batch`, requests per second.
    pub fn peak_rps(&self, class: RequestClass, batch: usize) -> f64 {
        batch as f64 / (self.batch_cost(class, batch).latency_ns * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;

    fn model(classes: &[RequestClass]) -> ServiceModel {
        ServiceModel::new(ServiceModelConfig::default(), classes)
    }

    #[test]
    fn batch_of_one_matches_arch_evaluation() {
        let class = RequestClass::new(ModelKind::BertBase, 128);
        let m = model(&[class]);
        let report = RramAccelerator::star().evaluate(&class.config());
        let unit = m.batch_cost(class, 1);
        let expected = report.latency.value() + m.config().invoke_overhead_ns;
        assert!(
            (unit.latency_ns - expected).abs() < 1e-6,
            "serve {} vs arch {}",
            unit.latency_ns,
            expected
        );
    }

    #[test]
    fn builds_one_engine() {
        // The service model reads its prices from one STAR accelerator,
        // so it programs the cells of exactly one softmax engine.
        let class = RequestClass::new(ModelKind::BertBase, 128);
        let writes = |snap: star_telemetry::Snapshot| snap.counters["device.rram.writes"];
        let (_, served) = star_telemetry::with_scoped(|| model(&[class]));
        let (_, engine) = star_telemetry::with_scoped(|| {
            star_core::StarSoftmax::new(star_core::StarSoftmaxConfig::new(QFormat::MRPC))
        });
        assert_eq!(writes(served), writes(engine));
    }

    #[test]
    fn batching_amortizes_fixed_costs() {
        let class = RequestClass::new(ModelKind::BertBase, 128);
        let m = model(&[class]);
        let unit = m.batch_cost(class, 1);
        let batch8 = m.batch_cost(class, 8);
        // Per-request latency strictly improves with batching…
        assert!(batch8.latency_ns / 8.0 < unit.latency_ns);
        // …and so does throughput.
        assert!(m.peak_rps(class, 8) > m.peak_rps(class, 1));
        // A batch still takes longer than a single request end-to-end.
        assert!(batch8.latency_ns > unit.latency_ns);
    }

    #[test]
    fn batch_energy_scales_with_members() {
        let class = RequestClass::new(ModelKind::Tiny, 16);
        let m = model(&[class]);
        let one = m.batch_cost(class, 1);
        let four = m.batch_cost(class, 4);
        assert!(four.energy_pj > one.energy_pj);
        // Amortizing the invocation overhead and pipeline fill across the
        // batch strictly saves energy versus four separate invocations
        // (the background power burns for less total time).
        assert!(four.energy_pj < 4.0 * one.energy_pj);
    }

    #[test]
    fn longer_sequences_cost_more() {
        let short = RequestClass::new(ModelKind::BertBase, 64);
        let long = RequestClass::new(ModelKind::BertBase, 256);
        let m = model(&[short, long]);
        assert!(m.unit_latency_ns(long) > m.unit_latency_ns(short));
    }

    #[test]
    fn invocation_phases_sum_exactly_to_batch_cost() {
        let class = RequestClass::new(ModelKind::BertBase, 128);
        let m = model(&[class]);
        for batch in [1usize, 2, 4, 8, 16] {
            let cost = m.batch_cost(class, batch);
            let phases = m.invocation_phases(class, batch);
            // Bit-exact recomposition: the residual-drain construction
            // plus Sterbenz's lemma make this an equality, not a bound.
            assert_eq!(phases.sum(), cost.latency_ns, "batch {batch}");
            // Every phase is non-negative and chronologically meaningful.
            for (cat, dur) in phases.as_categories() {
                assert!(dur >= 0.0, "phase {cat} negative at batch {batch}: {dur}");
            }
        }
    }

    #[test]
    fn invocation_phases_scale_with_batch() {
        let class = RequestClass::new(ModelKind::BertBase, 128);
        let m = model(&[class]);
        let p1 = m.invocation_phases(class, 1);
        let p8 = m.invocation_phases(class, 8);
        // Overhead is per-batch: identical.
        assert_eq!(p1.overhead_ns, p8.overhead_ns);
        // Projection serializes per request: 8×.
        assert!((p8.projection_ns - 8.0 * p1.projection_ns).abs() < 1e-6);
        // The softmax stream grows with the row count.
        assert!(p8.softmax_stream_ns > p1.softmax_stream_ns);
        // The fill phase is one row regardless of batch.
        assert_eq!(p1.qk_fill_ns, p8.qk_fill_ns);
    }

    #[test]
    fn scale_phase_moves_only_its_lever() {
        let class = RequestClass::new(ModelKind::BertBase, 128);
        for phase in ServicePhase::ALL {
            let baseline = model(&[class]);
            let mut scaled = baseline.clone();
            scaled.scale_phase(phase, 0.5);
            // Halving any latency lever strictly shrinks the invocation.
            assert!(
                scaled.batch_cost(class, 8).latency_ns < baseline.batch_cost(class, 8).latency_ns,
                "{phase:?}"
            );
            // The identity factor is bitwise a no-op.
            let mut identity = baseline.clone();
            identity.scale_phase(phase, 1.0);
            assert_eq!(identity, baseline, "{phase:?}");
            // Phase decomposition still reconciles exactly after scaling.
            let p = scaled.invocation_phases(class, 8);
            assert_eq!(p.sum(), scaled.batch_cost(class, 8).latency_ns, "{phase:?}");
        }
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn scale_phase_rejects_zero_factor() {
        let class = RequestClass::new(ModelKind::Tiny, 8);
        let mut m = model(&[class]);
        m.scale_phase(ServicePhase::Overhead, 0.0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_class_rejected() {
        let m = model(&[RequestClass::new(ModelKind::Tiny, 8)]);
        let _ = m.batch_cost(RequestClass::new(ModelKind::Tiny, 32), 1);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_rejected() {
        let class = RequestClass::new(ModelKind::Tiny, 8);
        let m = model(&[class]);
        let _ = m.batch_cost(class, 0);
    }
}
