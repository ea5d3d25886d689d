//! Property-based tests for the executor's determinism contract: for any
//! input and any worker count, `par_map` is byte-identical to the serial
//! path and returns every result at its input's position.

use proptest::prelude::*;
use star_exec::Executor;

/// Worker counts exercised everywhere: the serial fallback, a small pool,
/// and an oversubscribed pool (more workers than this machine has cores).
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_map_is_bit_identical_across_worker_counts(
        xs in prop::collection::vec(-1e3f64..1e3, 0..64),
    ) {
        // A transcendental per-item function: if scheduling affected order
        // of evaluation *within* an item, bits would move.
        let serial: Vec<f64> = xs.iter().map(|&x| (x.sin() * 1e3).exp().sqrt()).collect();
        for workers in WORKER_COUNTS {
            let par = Executor::new(workers).par_map(&xs, |_, &x| (x.sin() * 1e3).exp().sqrt());
            // Compare raw bits, not approximate equality.
            let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(serial_bits, par_bits, "workers={}", workers);
        }
    }

    #[test]
    fn par_map_indices_match_positions(
        n in 0usize..80,
        workers in 1usize..9,
    ) {
        let items: Vec<usize> = (0..n).collect();
        let out = Executor::new(workers).par_map(&items, |i, &x| (i, x));
        prop_assert_eq!(out.len(), n);
        for (pos, (i, x)) in out.iter().enumerate() {
            prop_assert_eq!(pos, *i);
            prop_assert_eq!(pos, *x);
        }
    }
}
