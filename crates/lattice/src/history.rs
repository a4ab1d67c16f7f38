//! Vector-stamped per-process histories and consistent cuts.
//!
//! A **cut** of an n-process execution is a vector `(c₁ … cₙ)`: the first
//! `cᵢ` events of each process. A cut is **consistent** (a possible global
//! state) iff no excluded event happens-before an included event under the
//! partial order carried by the stamps. The same machinery serves both
//! causality-based Mattern/Fidge stamps *and* strobe-vector stamps — the
//! strobe-induced partial order is artificial (paper §4.2), but it prunes
//! the state lattice exactly the same way.

use serde::{Deserialize, Serialize};

use psn_clocks::VectorStamp;

/// Per-process sequences of vector-stamped events, in local order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct History {
    /// `stamps[p]` = the stamps of process p's events, in occurrence order.
    pub stamps: Vec<Vec<VectorStamp>>,
}

impl History {
    /// Build from per-process stamp sequences. Local sequences must be
    /// stampwise non-decreasing (debug-asserted): a process's own history
    /// is totally ordered.
    pub fn new(stamps: Vec<Vec<VectorStamp>>) -> Self {
        #[cfg(debug_assertions)]
        for seq in &stamps {
            for w in seq.windows(2) {
                debug_assert!(
                    w[0].le(&w[1]),
                    "a process's local stamps must be monotone: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        History { stamps }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.stamps.len()
    }

    /// Events at process `p`.
    pub fn len_of(&self, p: usize) -> usize {
        self.stamps[p].len()
    }

    /// Total number of events.
    pub fn total_events(&self) -> usize {
        self.stamps.iter().map(Vec::len).sum()
    }

    /// Is the cut `(c₁ … cₙ)` consistent? `cut[p]` counts included events
    /// of process p.
    ///
    /// Condition: for every included event `e` and every process `j`, the
    /// first *excluded* event of `j` must not happen-before `e` (strictly:
    /// equal stamps are concurrent, not dependent). It suffices to test
    /// each process's *last included* event, since local histories are
    /// monotone.
    pub fn is_consistent(&self, cut: &[usize]) -> bool {
        assert_eq!(cut.len(), self.stamps.len());
        for (i, &ci) in cut.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            assert!(ci <= self.stamps[i].len(), "cut out of range");
            let last_included = &self.stamps[i][ci - 1];
            for (j, &cj) in cut.iter().enumerate() {
                if i == j || cj >= self.stamps[j].len() {
                    continue;
                }
                let first_excluded = &self.stamps[j][cj];
                if first_excluded.lt(last_included) {
                    return false;
                }
            }
        }
        true
    }

    /// Given a consistent `cut`, can process `i` advance by one event while
    /// staying consistent? (The incremental test used by lattice BFS.)
    pub fn can_advance(&self, cut: &[usize], i: usize) -> bool {
        let ci = cut[i];
        if ci >= self.stamps[i].len() {
            return false;
        }
        let e = &self.stamps[i][ci];
        for (j, &cj) in cut.iter().enumerate() {
            if j == i || cj >= self.stamps[j].len() {
                continue;
            }
            // Adjust for the event being added at i itself: after advancing,
            // j's first excluded event is unchanged.
            let first_excluded = &self.stamps[j][cj];
            if first_excluded.lt(e) {
                return false;
            }
        }
        true
    }

    /// The number of cuts if *no* ordering constrained them: Πₚ (lenₚ + 1),
    /// the paper's O(pⁿ) (p events at each of n processes).
    pub fn unconstrained_cuts(&self) -> f64 {
        self.stamps.iter().map(|s| (s.len() + 1) as f64).product()
    }

    /// The number of cuts if the order were total: Σₚ lenₚ + 1 — the
    /// paper's "linear order of np states" at Δ = 0.
    pub fn chain_cuts(&self) -> u64 {
        self.total_events() as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(v: &[u64]) -> VectorStamp {
        VectorStamp::from_slice(v)
    }

    /// Two processes, one message 0→1: e01 is p0's send (stamp [1,0]);
    /// p1's events: f1 local [0,1], f2 receive of the message [1,2].
    fn messaged_history() -> History {
        History::new(vec![vec![vs(&[1, 0])], vec![vs(&[0, 1]), vs(&[1, 2])]])
    }

    #[test]
    fn empty_cut_is_consistent() {
        let h = messaged_history();
        assert!(h.is_consistent(&[0, 0]));
        assert!(h.is_consistent(&[1, 0]));
        assert!(h.is_consistent(&[0, 1]));
    }

    #[test]
    fn receive_without_send_is_inconsistent() {
        let h = messaged_history();
        // Including p1's receive (2 events) without p0's send is not a
        // possible global state.
        assert!(!h.is_consistent(&[0, 2]));
        assert!(h.is_consistent(&[1, 2]));
    }

    #[test]
    fn full_cut_is_consistent() {
        let h = messaged_history();
        assert!(h.is_consistent(&[1, 2]));
    }

    #[test]
    fn can_advance_matches_is_consistent() {
        let h = messaged_history();
        // From (0,1): advancing p1 to its receive needs p0's send first.
        assert!(!h.can_advance(&[0, 1], 1));
        assert!(h.can_advance(&[0, 1], 0));
        // From (1,1): now p1 may advance.
        assert!(h.can_advance(&[1, 1], 1));
        // Cannot advance past the end.
        assert!(!h.can_advance(&[1, 2], 1));
    }

    #[test]
    fn concurrent_events_allow_all_interleavings() {
        // Two processes, no communication: every cut is consistent.
        let h = History::new(vec![vec![vs(&[1, 0]), vs(&[2, 0])], vec![vs(&[0, 1])]]);
        for c0 in 0..=2 {
            for c1 in 0..=1 {
                assert!(h.is_consistent(&[c0, c1]), "cut ({c0},{c1})");
            }
        }
        assert_eq!(h.unconstrained_cuts(), 6.0);
        assert_eq!(h.chain_cuts(), 4);
    }

    #[test]
    fn equal_stamps_are_not_dependencies() {
        // Strobe clocks can assign equal stamps to events at different
        // processes; equality must not create a false dependency.
        let h = History::new(vec![vec![vs(&[1, 1])], vec![vs(&[1, 1])]]);
        assert!(h.is_consistent(&[1, 0]));
        assert!(h.is_consistent(&[0, 1]));
        assert!(h.is_consistent(&[1, 1]));
    }

    #[test]
    fn totals() {
        let h = messaged_history();
        assert_eq!(h.num_processes(), 2);
        assert_eq!(h.len_of(1), 2);
        assert_eq!(h.total_events(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_bounds_checked() {
        let h = messaged_history();
        h.is_consistent(&[2, 0]);
    }
}
