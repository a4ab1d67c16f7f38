//! Property-based tests for lattices and interval relations.

use proptest::prelude::*;

use psn_lattice::{allen_relation, enumerate_lattice, History};
use psn_sim::time::SimTime;

#[path = "support/strobed.rs"]
mod strobed;
use strobed::strobed_history;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lattice size always lies between the chain bound and the
    /// unconstrained bound.
    #[test]
    fn lattice_size_is_bracketed(
        n in 2usize..4,
        per_proc in 1usize..4,
        lags in proptest::collection::vec(0usize..12, 1..8),
    ) {
        let h = strobed_history(n, per_proc, &lags);
        let stats = enumerate_lattice(&h, 10_000_000);
        prop_assert!(!stats.truncated);
        prop_assert!(stats.states >= h.chain_cuts(), "below chain bound");
        prop_assert!(stats.states as f64 <= h.unconstrained_cuts() + 0.5, "above O(p^n)");
        prop_assert_eq!(stats.levels.iter().sum::<u64>(), stats.states);
    }

    /// The empty cut and the full cut are always consistent.
    #[test]
    fn extreme_cuts_consistent(
        n in 2usize..4,
        per_proc in 1usize..4,
        lags in proptest::collection::vec(0usize..12, 1..8),
    ) {
        let h = strobed_history(n, per_proc, &lags);
        let empty = vec![0; n];
        let full: Vec<usize> = (0..n).map(|p| h.len_of(p)).collect();
        prop_assert!(h.is_consistent(&empty));
        prop_assert!(h.is_consistent(&full));
    }

    /// can_advance from a consistent cut always produces a consistent cut.
    #[test]
    fn advancement_preserves_consistency(
        n in 2usize..4,
        per_proc in 1usize..4,
        lags in proptest::collection::vec(0usize..12, 1..8),
        steps in proptest::collection::vec(0usize..4, 0..12),
    ) {
        let h = strobed_history(n, per_proc, &lags);
        let mut cut = vec![0usize; n];
        for &s in &steps {
            let p = s % n;
            if h.can_advance(&cut, p) {
                cut[p] += 1;
                prop_assert!(h.is_consistent(&cut), "advance broke consistency at {cut:?}");
            }
        }
    }

    /// Allen relations partition: exactly one relation holds per pair, and
    /// swapping arguments yields the inverse.
    #[test]
    fn allen_partition_and_inverse(
        a0 in 0u64..50, alen in 1u64..50,
        b0 in 0u64..50, blen in 1u64..50,
    ) {
        let a = (SimTime::from_millis(a0), SimTime::from_millis(a0 + alen));
        let b = (SimTime::from_millis(b0), SimTime::from_millis(b0 + blen));
        let r = allen_relation(a, b);
        prop_assert_eq!(allen_relation(b, a), r.inverse());
    }

    /// Immediate strobe delivery (lag 0 everywhere) gives the chain.
    #[test]
    fn zero_lag_gives_chain(n in 2usize..5, per_proc in 1usize..5) {
        let h = strobed_history(n, per_proc, &[0]);
        let stats = enumerate_lattice(&h, 1_000_000);
        prop_assert_eq!(stats.states, h.chain_cuts());
        prop_assert_eq!(stats.levels.iter().copied().max().unwrap_or(0), 1);
    }
}
