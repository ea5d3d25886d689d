//! Property-based tests for the softmax engines and the pipeline model.

use proptest::prelude::*;
use star_core::{
    attention_pipeline_latency, fixed_divide, simulate_pipeline, CmosBaselineSoftmax, PipelineMode,
    RowDurations, RowSoftmax, RowStageLatency, Softermax, SoftmaxEngine, StarSoftmax,
    StarSoftmaxConfig, UtilizationReport,
};
use star_device::Latency;
use star_fixed::QFormat;

fn paper_formats() -> impl Strategy<Value = QFormat> {
    prop::sample::select(vec![QFormat::COLA, QFormat::CNEWS, QFormat::MRPC])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fixed_divide_never_exceeds_true_quotient(n in 0u64..1_000_000, d in 1u64..1_000_000, q in 1u8..=24) {
        let approx = fixed_divide(n, d, q);
        let truth = n as f64 / d as f64;
        prop_assert!(approx <= truth + 1e-12);
        prop_assert!(truth - approx <= 2f64.powi(-(q as i32)) + 1e-12);
    }

    #[test]
    fn pipeline_mode_ordering(qk in 0.1f64..1000.0, sm in 0.1f64..1000.0, av in 0.1f64..1000.0, rows in 1usize..600) {
        let stages = RowStageLatency::new(Latency::new(qk), Latency::new(sm), Latency::new(av));
        let flat = attention_pipeline_latency(rows, stages, PipelineMode::Unpipelined);
        let op = attention_pipeline_latency(rows, stages, PipelineMode::OperandGrained);
        let vec = attention_pipeline_latency(rows, stages, PipelineMode::VectorGrained);
        prop_assert!(vec.value() <= op.value() + 1e-9);
        prop_assert!(op.value() <= flat.value() + 1e-9);
        // Lower bound: nothing beats the bottleneck stage times rows.
        prop_assert!(vec.value() + 1e-9 >= stages.bottleneck().value() * rows as f64);
        // Upper bound: nothing exceeds fully serial execution.
        prop_assert!(vec.value() <= stages.serial().value() * rows as f64 + 1e-9);
    }

    #[test]
    fn event_simulator_agrees_with_formula(
        qk in 0.1f64..500.0,
        sm in 0.1f64..500.0,
        av in 0.1f64..500.0,
        rows in 1usize..200,
    ) {
        let stages = RowStageLatency::new(Latency::new(qk), Latency::new(sm), Latency::new(av));
        let durations = RowDurations::uniform(rows, qk, sm, av);
        for mode in PipelineMode::ALL {
            let formula = attention_pipeline_latency(rows, stages, mode).value();
            let sim = simulate_pipeline(&durations, mode).makespan.value();
            prop_assert!(
                (sim - formula).abs() < 1e-6 * formula.max(1.0),
                "{:?}: sim {} vs formula {}",
                mode, sim, formula
            );
        }
    }

    #[test]
    fn star_probabilities_for_all_paper_formats(
        fmt in paper_formats(),
        row in prop::collection::vec(-10.0f64..10.0, 1..48),
    ) {
        let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("engine");
        let p = engine.softmax_row(&row);
        let sum: f64 = p.iter().sum();
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(sum > 0.9 && sum <= 1.0 + 1e-9, "sum {} at {}", sum, fmt);
        prop_assert_eq!(engine.fault_events(), 0);
    }

    #[test]
    fn star_argmax_agrees_when_gap_resolvable(
        fmt in paper_formats(),
        row in prop::collection::vec(-10.0f64..10.0, 2..32),
        winner in any::<prop::sample::Index>(),
    ) {
        // Give one element a clearly resolvable lead.
        let mut row = row;
        let w = winner.index(row.len());
        let lead = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 4.0 * fmt.resolution() + 1.0;
        row[w] = lead;
        let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("engine");
        let p = engine.softmax_row(&row);
        prop_assert_eq!(star_attention::argmax(&p), w);
    }

    #[test]
    fn softermax_probabilities_bounded(row in prop::collection::vec(-20.0f64..20.0, 1..48)) {
        let mut unit = Softermax::new(QFormat::MRPC, 4);
        let p = unit.softmax_row(&row);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        let sum: f64 = p.iter().sum();
        prop_assert!(sum <= 1.05, "sum {}", sum);
    }

    #[test]
    fn engine_costs_scale_sanely(n in 1usize..512, lanes in 1usize..16) {
        let cmos = CmosBaselineSoftmax::new(lanes);
        let cost = cmos.row_cost(n);
        prop_assert!(cost.latency.value() > 0.0);
        prop_assert!(cost.energy.value() > 0.0);
        // Energy is work-proportional, independent of lane count.
        let other = CmosBaselineSoftmax::new(lanes + 1);
        prop_assert!((other.row_cost(n).energy.value() - cost.energy.value()).abs() < 1e-9);
    }

    #[test]
    fn busy_plus_stall_sums_to_makespan_every_mode(
        qk in prop::collection::vec(0.0f64..500.0, 1..64),
        sm_scale in 0.0f64..500.0,
        av_scale in 0.0f64..500.0,
    ) {
        // Non-uniform rows: derive the other stages from the QK draw so
        // all three vectors share a length without extra generators.
        let rows = qk.len();
        let sm: Vec<f64> = qk.iter().map(|&v| (v * 0.7 + sm_scale).min(999.0)).collect();
        let av: Vec<f64> = qk.iter().map(|&v| (v * 1.3 + av_scale).min(999.0)).collect();
        let durations = RowDurations { qk, softmax: sm, av };
        for mode in PipelineMode::ALL {
            let report = UtilizationReport::from_durations(&durations, mode);
            let makespan = simulate_pipeline(&durations, mode).makespan.value();
            prop_assert!((report.makespan_ns - makespan).abs() < 1e-9);
            let lanes: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
            prop_assert_eq!(lanes, vec!["qk", "softmax#0", "pv"]);
            for stage in &report.stages {
                prop_assert!(
                    (stage.busy_ns + stage.stall_ns - report.makespan_ns).abs() < 1e-9,
                    "{:?} lane {} rows {}: busy {} stall {} makespan {}",
                    mode, &stage.name, rows, stage.busy_ns, stage.stall_ns, report.makespan_ns
                );
                prop_assert!(stage.occupancy >= 0.0 && stage.occupancy <= 1.0 + 1e-12);
            }
            // The softmax lane accounts for exactly the total softmax work.
            let sm_total: f64 = durations.softmax.iter().sum();
            prop_assert!((report.stages[1].busy_ns - sm_total).abs() < 1e-6);
        }
    }

    #[test]
    fn telemetry_counters_deterministic_across_same_seed_runs(
        fmt in paper_formats(),
        row in prop::collection::vec(-8.0f64..8.0, 1..32),
    ) {
        let run = || {
            star_telemetry::with_scoped(|| {
                let mut engine =
                    StarSoftmax::new(StarSoftmaxConfig::new(fmt)).expect("engine");
                engine.softmax_row(&row)
            })
        };
        let (out_a, snap_a) = run();
        let (out_b, snap_b) = run();
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(&snap_a.counters, &snap_b.counters);
        prop_assert!(!snap_a.counters.is_empty());
        prop_assert_eq!(snap_a.counters["star.softmax.rows"], 1);
        prop_assert_eq!(snap_a.counters["star.softmax.elements"], row.len() as u64);
    }

    #[test]
    fn star_engine_area_monotone_in_bits(ia in 3u8..=6, fa in 0u8..=3) {
        let small = QFormat::new(ia, fa).expect("valid");
        let big = QFormat::new(ia + 1, fa + 1).expect("valid");
        let a = StarSoftmax::new(StarSoftmaxConfig::new(small)).expect("engine");
        let b = StarSoftmax::new(StarSoftmaxConfig::new(big)).expect("engine");
        prop_assert!(
            b.cost_sheet().total_area().value() > a.cost_sheet().total_area().value()
        );
    }
}
