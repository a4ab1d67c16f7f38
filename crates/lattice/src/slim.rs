//! The slim-lattice measurements (paper §4.2.4).
//!
//! "Although the control messages for the strobe clock create artificial
//! causal dependencies, these are useful because they help to approximate
//! instantaneous observation by eliminating many of the O(pⁿ) states in
//! which the corresponding intervals did not overlap. … The faster the
//! strobe transmissions, the leaner is the lattice. When Δ = 0, the result
//! is a linear order of np states. … This gives the 'slim lattice
//! postulate' for consistent global states in sensornet observations."
//!
//! [`SlimReport`] packages everything experiment E4 prints: measured
//! lattice size vs the unconstrained O(pⁿ) bound and the Δ = 0 chain bound.

use serde::{Deserialize, Serialize};

use crate::history::History;
use crate::lattice::{enumerate_lattice, LatticeStats};

/// Slim-lattice measurements for one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlimReport {
    /// Number of consistent states found (lower bound if truncated).
    pub states: u64,
    /// The unconstrained bound Πᵢ(pᵢ+1) — the O(pⁿ) worst case.
    pub unconstrained: f64,
    /// The total-order bound Σᵢpᵢ + 1 — the Δ = 0 chain.
    pub chain: u64,
    /// Width of the widest level (1 for a chain).
    pub width: u64,
    /// states / unconstrained.
    pub slimness: f64,
    /// True if enumeration hit the cap.
    pub truncated: bool,
}

/// Measure the lattice induced by `history`, capped at `cap` states.
pub fn measure(history: &History, cap: u64) -> SlimReport {
    let stats: LatticeStats = enumerate_lattice(history, cap);
    SlimReport {
        states: stats.states,
        unconstrained: history.unconstrained_cuts(),
        chain: history.chain_cuts(),
        width: stats.width(),
        slimness: stats.slimness(history),
        truncated: stats.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_gives_chain() {
        // Δ = 0 (strobes delivered before the next event): the lattice is
        // the paper's "linear order of np states".
        let h = History::strobed(3, 4, &[0]);
        let r = measure(&h, 1_000_000);
        assert_eq!(r.states, r.chain, "Δ=0 collapses the lattice to a chain");
        assert_eq!(r.width, 1);
    }

    #[test]
    fn slower_strobes_fatten_the_lattice() {
        let fast = measure(&History::strobed(3, 4, &[1]), 1_000_000);
        let slow = measure(&History::strobed(3, 4, &[6]), 1_000_000);
        let none = measure(&History::strobed(3, 4, &[usize::MAX / 2]), 1_000_000);
        assert!(fast.states <= slow.states, "faster strobes ⇒ leaner lattice");
        assert!(slow.states <= none.states);
        assert!(none.states as f64 >= fast.states as f64 * 2.0, "effect is substantial");
    }

    #[test]
    fn no_strobes_is_unconstrained() {
        // Strobes that never arrive leave all interleavings possible.
        let h = History::strobed(3, 3, &[usize::MAX / 2]);
        let r = measure(&h, 1_000_000);
        assert!((r.states as f64 - r.unconstrained).abs() < 1e-9, "O(p^n) states");
        assert!((r.slimness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slimness_decreases_with_strobe_speed() {
        let fast = measure(&History::strobed(4, 3, &[0]), 1_000_000);
        let none = measure(&History::strobed(4, 3, &[usize::MAX / 2]), 1_000_000);
        assert!(fast.slimness < 0.1);
        assert!((none.slimness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_reports() {
        let h = History::strobed(4, 5, &[usize::MAX / 2]);
        let r = measure(&h, 50);
        assert!(r.truncated);
        assert!(r.states > 50);
    }
}
