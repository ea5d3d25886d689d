//! Property-based tests for the metric registry: merge algebra, serde
//! round-trips and the histogram quantile accuracy guarantee.

use proptest::prelude::*;
use star_telemetry::{Registry, Snapshot, DEFAULT_BUCKET_BOUNDS};

/// A small closed name universe so draws collide and exercise merging.
fn names() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "device.adc.conversions",
        "crossbar.cam.searches",
        "star.exp.lut_hits",
        "pipeline.softmax.stall_ns",
    ])
}

fn apply_counts(reg: &Registry, ops: &[(&str, u64)]) {
    for (name, n) in ops {
        reg.count(name, *n);
    }
}

/// A fresh registry's snapshot after merging `first`, then `second`.
fn merge_into_fresh(first: &Snapshot, second: &Snapshot) -> Snapshot {
    let reg = Registry::new();
    reg.merge(first);
    reg.merge(second);
    reg.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_serde_round_trips(
        ops in prop::collection::vec((names(), 1u64..1000), 0..16),
        gauge in -1e3f64..1e3,
    ) {
        let reg = Registry::new();
        apply_counts(&reg, &ops);
        reg.set("pipeline.engines", gauge);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: Snapshot = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &snap);
    }

    #[test]
    fn merge_is_commutative_and_associative(
        a in prop::collection::vec((names(), 1u64..1000), 0..16),
        b in prop::collection::vec((names(), 1u64..1000), 0..16),
        c in prop::collection::vec((names(), 1u64..1000), 0..16),
        values in prop::collection::vec(-1e3f64..1e3, 3),
    ) {
        let snaps: Vec<Snapshot> = [(&a, values[0]), (&b, values[1]), (&c, values[2])]
            .iter()
            .map(|(ops, v)| {
                let reg = Registry::new();
                apply_counts(&reg, ops);
                reg.add("star.energy.exp_pj", *v);
                reg.observe_with("star.softmax.row_len", v.abs(), &DEFAULT_BUCKET_BOUNDS);
                reg.snapshot()
            })
            .collect();
        let (sa, sb, sc) = (&snaps[0], &snaps[1], &snaps[2]);
        // IEEE-754 addition is commutative, so two-way merges are
        // *bit-identical* in either order …
        prop_assert_eq!(merge_into_fresh(sa, sb), merge_into_fresh(sb, sa));
        // … but not associative: regrouping three merges may move the last
        // ulp of an f64 gauge. The integer parts (counters, histogram
        // bucket counts) are exactly associative; float accumulators agree
        // to rounding. This is precisely why the executor's call sites
        // fold worker snapshots in *index order* — a fixed fold order plus
        // commutativity makes parallel telemetry bit-deterministic.
        let left = merge_into_fresh(&merge_into_fresh(sa, sb), sc);
        let right = merge_into_fresh(sa, &merge_into_fresh(sb, sc));
        prop_assert_eq!(&left.counters, &right.counters);
        for (name, lh) in &left.histograms {
            let rh = &right.histograms[name];
            prop_assert_eq!(&lh.counts, &rh.counts);
            prop_assert_eq!(lh.total, rh.total);
            prop_assert!((lh.sum - rh.sum).abs() <= 1e-9 * lh.sum.abs().max(1.0));
        }
        for (name, lv) in &left.gauges {
            let rv = right.gauges[name];
            prop_assert!((lv - rv).abs() <= 1e-9 * lv.abs().max(1.0));
        }
    }

    #[test]
    fn merge_equals_running_both_workloads_in_one_registry(
        a in prop::collection::vec((names(), 1u64..1000), 0..16),
        b in prop::collection::vec((names(), 1u64..1000), 0..16),
    ) {
        // Two "workers" record independently and merge into a parent …
        let (wa, wb) = (Registry::new(), Registry::new());
        apply_counts(&wa, &a);
        apply_counts(&wb, &b);
        let parent = Registry::new();
        parent.merge(&wa.snapshot());
        parent.merge(&wb.snapshot());
        // … which is indistinguishable from one serial registry that ran
        // the concatenated workload.
        let serial = Registry::new();
        apply_counts(&serial, &a);
        apply_counts(&serial, &b);
        prop_assert_eq!(parent.snapshot(), serial.snapshot());
    }

    #[test]
    fn quantile_estimate_within_bucket_relative_error(
        // Log-uniform samples strictly inside the covered range
        // (exp(0.1..13.8) ⊂ (1, 1e6)); mixed sizes exercise small-n ranks.
        log_samples in prop::collection::vec(0.1f64..13.8, 1..400),
        alpha in 0.05f64..0.5,
        q in 0.0f64..1.0,
    ) {
        let samples: Vec<f64> = log_samples.iter().map(|l| l.exp()).collect();
        // Geometric bounds 1, γ, γ², … with γ = 1 + α, up to 1e6.
        let bounds: Vec<f64> =
            std::iter::successors(Some(1.0f64), |&b| (b < 1e6).then_some(b * (1.0 + alpha)))
                .collect();
        let reg = Registry::new();
        for &s in &samples {
            reg.observe_with("h", s, &bounds);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        // The guarantee `quantile` documents: the widest bucket's width
        // relative to its lower edge, which the layout makes α.
        let bound = bounds.windows(2).map(|w| (w[1] - w[0]) / w[0]).fold(0.0, f64::max);
        prop_assert!((bound - alpha).abs() < 1e-9, "bound {bound} vs alpha {alpha}");

        // Exact order statistic under the same rank convention as
        // `HistogramSnapshot::quantile`: rank = max(1, ceil(q*n)).
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact = sorted[rank - 1];

        let est = h.quantile(q).expect("non-empty histogram");
        let rel = (est - exact).abs() / exact;
        prop_assert!(
            rel <= bound + 1e-9,
            "q={q} est={est} exact={exact} rel={rel} > bound={bound}"
        );
    }

    #[test]
    fn disabled_registry_records_nothing(
        ops in prop::collection::vec((names(), 1u64..1000), 0..16),
    ) {
        let reg = Registry::new();
        reg.set_enabled(false);
        apply_counts(&reg, &ops);
        reg.add("g", 1.0);
        reg.observe_with("h", 2.0, &DEFAULT_BUCKET_BOUNDS);
        prop_assert!(reg.snapshot().is_empty());
        reg.set_enabled(true);
        reg.count("c", 1);
        prop_assert_eq!(reg.snapshot().counters["c"], 1);
    }
}
