//! Property-based tests for the metric registry: snapshot/reset/diff
//! algebra, serde round-trips, the histogram quantile accuracy
//! guarantee, and the equivalence of a `Tally` with facade calls.

use proptest::prelude::*;
use star_telemetry::{geometric_bounds, Registry, Snapshot, Tally, DEFAULT_BUCKET_BOUNDS};
use std::rc::Rc;

/// The tally-vs-facade name universe: per kind, a name the registry
/// already holds, one it does not, and one that is registered but never
/// recorded. `h.rebound` is resident with bounds other than the ones it
/// is registered and observed with.
const TALLY_COUNTERS: [&str; 3] = ["c.present", "c.absent", "c.unused"];
const TALLY_GAUGES: [&str; 3] = ["g.present", "g.absent", "g.unused"];
const TALLY_HISTOGRAMS: [&str; 5] = ["h.present", "h.rebound", "h.absent", "h.default", "h.unused"];
const BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Bounds each histogram is registered (and facade-observed) with.
fn tally_bounds(name: &str) -> &'static [f64] {
    match name {
        "h.default" => &DEFAULT_BUCKET_BOUNDS,
        _ => &BATCH_BOUNDS,
    }
}

/// The state both registries start from.
fn prepopulate(reg: &Registry) {
    reg.count("c.present", 5);
    reg.add("g.present", 0.1);
    reg.add("g.present", 0.2);
    reg.observe_with("h.present", 0.3, &BATCH_BOUNDS);
    reg.observe_with("h.present", 40.0, &BATCH_BOUNDS);
    reg.observe_with("h.rebound", 0.7, &[0.5, 50.0]);
    reg.count("other.counter", 1);
}

/// One recording op: `(kind, name index, count, value)`; the value
/// selector maps a few draws onto `-0.0`, `0.0` and a value past every
/// histogram's last bound.
fn tally_ops() -> impl Strategy<Value = Vec<(u8, usize, u64, f64)>> {
    prop::collection::vec(
        (0u8..3, 0usize..5, 0u64..50, 0u8..8, -1e3f64..1e3).prop_map(|(kind, i, n, sel, v)| {
            let value = match sel {
                0 => -0.0,
                1 => 0.0,
                2 => 3e9,
                _ => v,
            };
            (kind, i, n, value)
        }),
        0..48,
    )
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_recovers_second_batch(
        first in prop::collection::vec((names(), 1u64..1000), 0..16),
        second in prop::collection::vec((names(), 1u64..1000), 0..16),
    ) {
        let reg = Registry::new();
        apply_counts(&reg, &first);
        let a = reg.snapshot();
        apply_counts(&reg, &second);
        let b = reg.snapshot();
        let delta = b.diff(&a);

        // The diff is exactly the second batch, independent of the first.
        let only_second = Registry::new();
        apply_counts(&only_second, &second);
        prop_assert_eq!(&delta.counters, &only_second.snapshot().counters);
    }

    #[test]
    fn snapshot_reset_diff_round_trips(
        ops in prop::collection::vec((names(), 1u64..1000), 1..24),
        gauge in -1e6f64..1e6,
    ) {
        let reg = Registry::new();
        apply_counts(&reg, &ops);
        reg.add("star.energy.exp_pj", gauge);
        reg.observe("star.softmax.row_len", 64.0);
        let before = reg.snapshot();
        prop_assert!(!before.is_empty());

        // Snapshot → reset → the registry is empty again.
        reg.reset();
        prop_assert!(reg.snapshot().is_empty());

        // Replaying the same operations reproduces the snapshot exactly.
        apply_counts(&reg, &ops);
        reg.add("star.energy.exp_pj", gauge);
        reg.observe("star.softmax.row_len", 64.0);
        let after = reg.snapshot();
        prop_assert_eq!(&after, &before);

        // A snapshot diffed against itself is empty.
        prop_assert!(after.diff(&before).is_empty());
    }

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
                reg.observe("star.softmax.row_len", v.abs());
                reg.snapshot()
            })
            .collect();
        let (sa, sb, sc) = (&snaps[0], &snaps[1], &snaps[2]);
        // IEEE-754 addition is commutative, so two-way merges are
        // *bit-identical* in either order …
        prop_assert_eq!(sa.merged(sb), sb.merged(sa));
        // … but not associative: regrouping three merges may move the last
        // ulp of an f64 gauge. The integer parts (counters, histogram
        // bucket counts) are exactly associative; float accumulators agree
        // to rounding. This is precisely why the executor's call sites
        // fold worker snapshots in *index order* — a fixed fold order plus
        // commutativity makes parallel telemetry bit-deterministic.
        let left = sa.merged(sb).merged(sc);
        let right = sa.merged(&sb.merged(sc));
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
    fn quantile_estimate_honors_relative_error_bound(
        // Log-uniform samples strictly inside the covered range
        // (exp(0.1..13.8) ⊂ (1, 1e6)); mixed sizes exercise small-n ranks.
        log_samples in prop::collection::vec(0.1f64..13.8, 1..400),
        alpha in 0.05f64..0.5,
        q in 0.0f64..1.0,
    ) {
        let samples: Vec<f64> = log_samples.iter().map(|l| l.exp()).collect();
        let bounds = geometric_bounds(alpha, 1.0, 1e6);
        let reg = Registry::new();
        for &s in &samples {
            reg.observe_with("h", s, &bounds);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        let bound = h.relative_error_bound().expect("geometric layout is bounded");
        // The layout's guarantee is the construction parameter.
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
    fn tally_publishes_what_facade_calls_leave(
        ops in tally_ops(),
        off_start in 0usize..48,
        off_len in 0usize..12,
    ) {
        let facade = Registry::new();
        let twin = Rc::new(Registry::new());
        prepopulate(&facade);
        prepopulate(&twin);
        let mut tally = Tally::bound_to(Rc::clone(&twin));
        let counters: Vec<_> = TALLY_COUNTERS.iter().map(|n| tally.counter(n)).collect();
        let gauges: Vec<_> = TALLY_GAUGES.iter().map(|n| tally.gauge(n)).collect();
        let histograms: Vec<_> =
            TALLY_HISTOGRAMS.iter().map(|n| tally.histogram(n, tally_bounds(n))).collect();
        // `*.unused` (the last name of each kind) is never recorded.
        for (i, &(kind, name, n, v)) in ops.iter().enumerate() {
            let on = !(off_start..off_start + off_len).contains(&i);
            facade.set_enabled(on);
            twin.set_enabled(on);
            match kind {
                0 => {
                    let i = name % (TALLY_COUNTERS.len() - 1);
                    facade.count(TALLY_COUNTERS[i], n);
                    tally.count(counters[i], n);
                }
                1 => {
                    let i = name % (TALLY_GAUGES.len() - 1);
                    facade.add(TALLY_GAUGES[i], v);
                    tally.add(gauges[i], v);
                }
                _ => {
                    let i = name % (TALLY_HISTOGRAMS.len() - 1);
                    let h = TALLY_HISTOGRAMS[i];
                    facade.observe_with(h, v, tally_bounds(h));
                    tally.observe(histograms[i], v);
                }
            }
        }
        facade.set_enabled(true);
        twin.set_enabled(true);
        prop_assert_eq!(tally.updates(), ops.len() as u64);
        tally.publish();
        let (want, got) = (facade.snapshot(), twin.snapshot());
        prop_assert_eq!(
            serde_json::to_string(&got).expect("serialize"),
            serde_json::to_string(&want).expect("serialize")
        );
        prop_assert!(!got.counters.contains_key("c.unused"));
        prop_assert!(!got.gauges.contains_key("g.unused"));
        prop_assert!(!got.histograms.contains_key("h.unused"));
        prop_assert_eq!(&got.histograms["h.rebound"].bounds, &vec![0.5, 50.0]);
    }

    #[test]
    fn disabled_registry_records_nothing(
        ops in prop::collection::vec((names(), 1u64..1000), 0..16),
    ) {
        let reg = Registry::new();
        reg.set_enabled(false);
        apply_counts(&reg, &ops);
        reg.add("g", 1.0);
        reg.observe("h", 2.0);
        prop_assert!(reg.snapshot().is_empty());
        reg.set_enabled(true);
        reg.count("c", 1);
        prop_assert_eq!(reg.counter_value("c"), 1);
    }
}
