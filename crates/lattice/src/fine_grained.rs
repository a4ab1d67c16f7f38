//! Fine-grained causality-based interval relations (paper §3.1.1.b.i).
//!
//! "Refining these further, a complete suite of 40 orthogonal
//! relationships among time intervals at two different physical locations
//! (see [7, 8, 20, 21]) was used to specify causality-based relationships
//! among the local values that held during the local time intervals."
//!
//! Kshemkalyani's interval theory classifies a pair of intervals
//! (X at location i, Y at location j) by the causality relations between
//! their four bounding-event pairs: lo(X)↔lo(Y), lo(X)↔hi(Y),
//! hi(X)↔lo(Y), hi(X)↔hi(Y). Each pair is `Before` (→), `After` (←) or
//! `Concurrent` (‖) under the vector-stamp partial order, giving a
//! **relation code** of four trits. Monotonicity of local histories
//! (lo ≤ hi at both ends) makes only a subset of the 3⁴ = 81 codes
//! *achievable* — the dense classification the paper's citation counts 40
//! orthogonal relations in (our code space collapses a few of their
//! distinctions that need message-chain information beyond stamp order).
//! The coarse `Possibly`/`Definitely` overlap tests used by the detectors
//! are projections of this code ([`RelationCode::possibly_overlaps`],
//! [`RelationCode::definitely_overlaps`]). No detector needs the full
//! code, so the module is compiled for tests only: it is the independent
//! derivation [`StampedInterval`]'s overlap tests are checked against.

use crate::intervals::StampedInterval;
use psn_clocks::{Causality, Timestamp, VectorStamp};

/// The causality relation of one bounding-event pair, collapsed to three
/// values (Equal counts as Concurrent: neither strictly precedes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Trit {
    /// The X-side event strictly precedes the Y-side event.
    Before,
    /// The Y-side event strictly precedes the X-side event.
    After,
    /// Neither precedes (concurrent or equal stamps).
    Concurrent,
}

fn trit(a: &VectorStamp, b: &VectorStamp) -> Trit {
    match a.causality(b) {
        Causality::Before => Trit::Before,
        Causality::After => Trit::After,
        Causality::Concurrent | Causality::Equal => Trit::Concurrent,
    }
}

/// The fine-grained relation code of an interval pair (X, Y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelationCode {
    /// lo(X) vs lo(Y).
    pub(crate) lo_lo: Trit,
    /// lo(X) vs hi(Y).
    pub(crate) lo_hi: Trit,
    /// hi(X) vs lo(Y).
    pub(crate) hi_lo: Trit,
    /// hi(X) vs hi(Y).
    pub(crate) hi_hi: Trit,
}

impl RelationCode {
    /// Classify the pair (X, Y).
    pub fn classify(x: &StampedInterval, y: &StampedInterval) -> RelationCode {
        RelationCode {
            lo_lo: trit(&x.lo, &y.lo),
            lo_hi: trit(&x.lo, &y.hi),
            hi_lo: trit(&x.hi, &y.lo),
            hi_hi: trit(&x.hi, &y.hi),
        }
    }

    /// The code with X and Y swapped.
    pub fn inverse(self) -> RelationCode {
        let flip = |t: Trit| match t {
            Trit::Before => Trit::After,
            Trit::After => Trit::Before,
            Trit::Concurrent => Trit::Concurrent,
        };
        RelationCode {
            lo_lo: flip(self.lo_lo),
            lo_hi: flip(self.hi_lo),
            hi_lo: flip(self.lo_hi),
            hi_hi: flip(self.hi_hi),
        }
    }

    /// X surely precedes Y (projection: hi(X) → lo(Y)).
    pub fn surely_precedes(self) -> bool {
        self.hi_lo == Trit::Before
    }

    /// The `Possibly`-overlap projection: neither surely precedes.
    pub fn possibly_overlaps(self) -> bool {
        self.hi_lo != Trit::Before && {
            // Y surely precedes X is lo(X) after hi(Y).
            self.lo_hi != Trit::After
        }
    }

    /// The `Definitely`-overlap projection: each open precedes the other's
    /// close.
    pub fn definitely_overlaps(self) -> bool {
        self.lo_hi == Trit::Before && self.hi_lo == Trit::After
    }

    /// A compact display string, e.g. `→‖←‖`.
    pub fn as_str(self) -> String {
        [self.lo_lo, self.lo_hi, self.hi_lo, self.hi_hi]
            .iter()
            .map(|t| match t {
                Trit::Before => '→',
                Trit::After => '←',
                Trit::Concurrent => '‖',
            })
            .collect()
    }

    /// Is this code *achievable* by real intervals? Necessary internal
    /// consistency constraints from the monotonicity lo ≤ hi at both
    /// intervals, under a partial order:
    ///
    /// 1. hi(X) → lo(Y) forces every other pair `Before`;
    /// 2. hi(Y) → lo(X) forces every other pair `After`;
    /// 3. lo(X) → lo(Y) forces lo(X) → hi(Y);
    /// 4. lo(Y) → lo(X) forces lo(Y) → hi(X);
    /// 5. hi(X) → hi(Y) forces lo(X) → hi(Y);
    /// 6. hi(Y) → hi(X) forces lo(Y) → hi(X).
    pub fn is_consistent(self) -> bool {
        use Trit::*;
        if self.hi_lo == Before
            && (self.lo_lo != Before || self.lo_hi != Before || self.hi_hi != Before)
        {
            return false;
        }
        if self.lo_hi == After
            && (self.lo_lo != After || self.hi_lo != After || self.hi_hi != After)
        {
            return false;
        }
        if self.lo_lo == Before && self.lo_hi != Before {
            return false;
        }
        if self.lo_lo == After && self.hi_lo != After {
            return false;
        }
        if self.hi_hi == Before && self.lo_hi != Before {
            return false;
        }
        if self.hi_hi == After && self.hi_lo != After {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strobed::strobed_history;
    use proptest::prelude::*;

    fn vs(v: &[u64]) -> VectorStamp {
        VectorStamp::from_slice(v)
    }
    fn iv(lo: &[u64], hi: &[u64]) -> StampedInterval {
        StampedInterval { lo: vs(lo), hi: vs(hi) }
    }

    #[test]
    fn fully_ordered_pair() {
        let x = iv(&[1, 0], &[2, 0]);
        let y = iv(&[2, 1], &[2, 2]); // y's open saw x's close
        let c = RelationCode::classify(&x, &y);
        assert_eq!(c.hi_lo, Trit::Before);
        assert!(c.surely_precedes());
        assert!(!c.possibly_overlaps());
        assert!(c.is_consistent());
        assert_eq!(c.as_str(), "→→→→");
    }

    #[test]
    fn fully_concurrent_pair() {
        let x = iv(&[1, 0], &[2, 0]);
        let y = iv(&[0, 1], &[0, 2]);
        let c = RelationCode::classify(&x, &y);
        assert_eq!(c.as_str(), "‖‖‖‖");
        assert!(c.possibly_overlaps());
        assert!(!c.definitely_overlaps());
        assert!(c.is_consistent());
    }

    #[test]
    fn definite_overlap_code() {
        // Cross-knowledge both ways.
        let x = iv(&[1, 0], &[3, 2]);
        let y = iv(&[1, 1], &[3, 3]);
        let c = RelationCode::classify(&x, &y);
        assert!(c.definitely_overlaps());
        assert!(c.possibly_overlaps(), "definite implies possible");
        assert_eq!(c.lo_hi, Trit::Before);
        assert_eq!(c.hi_lo, Trit::After);
    }

    #[test]
    fn inverse_swaps_roles() {
        let x = iv(&[1, 0], &[2, 0]);
        let y = iv(&[2, 1], &[2, 2]);
        let c = RelationCode::classify(&x, &y);
        let ci = RelationCode::classify(&y, &x);
        assert_eq!(c.inverse(), ci);
        assert_eq!(c.inverse().inverse(), c);
    }

    #[test]
    fn projections_agree_with_stamped_interval() {
        let pairs = [
            (iv(&[1, 0], &[2, 0]), iv(&[2, 1], &[2, 2])),
            (iv(&[1, 0], &[2, 0]), iv(&[0, 1], &[0, 2])),
            (iv(&[1, 0], &[3, 2]), iv(&[1, 1], &[3, 3])),
            (iv(&[1, 1], &[3, 3]), iv(&[1, 0], &[3, 2])),
        ];
        for (x, y) in &pairs {
            let c = RelationCode::classify(x, y);
            assert_eq!(c.surely_precedes(), x.surely_precedes(y));
            assert_eq!(c.possibly_overlaps(), x.possibly_overlaps(y));
            assert_eq!(c.definitely_overlaps(), x.definitely_overlaps(y));
        }
    }

    #[test]
    fn achievable_code_count_is_a_strict_subset_of_81() {
        // Brute-force over random-ish interval pairs in a 2-process stamp
        // space: every observed code must be consistent, and the count of
        // *consistent* codes is well below the 81 raw combinations —
        // the "orthogonal relationships" are a constrained family.
        use Trit::*;
        let all = [Before, After, Concurrent];
        let mut consistent = 0;
        for &a in &all {
            for &b in &all {
                for &c in &all {
                    for &d in &all {
                        let code = RelationCode { lo_lo: a, lo_hi: b, hi_lo: c, hi_hi: d };
                        if code.is_consistent() {
                            consistent += 1;
                        }
                    }
                }
            }
        }
        assert!(consistent < 81, "constraints must prune");
        assert!(consistent >= 13, "at least the Allen-like core remains, got {consistent}");
    }

    #[test]
    fn observed_codes_are_always_consistent() {
        // Generate interval pairs from every monotone stamp combination in
        // a small grid and verify classify() never produces an
        // inconsistent code.
        let grid: Vec<VectorStamp> =
            (0..3u64).flat_map(|a| (0..3u64).map(move |b| VectorStamp::from(vec![a, b]))).collect();
        let mut seen = std::collections::HashSet::new();
        for lo_x in &grid {
            for hi_x in &grid {
                if !lo_x.le(hi_x) {
                    continue;
                }
                for lo_y in &grid {
                    for hi_y in &grid {
                        if !lo_y.le(hi_y) {
                            continue;
                        }
                        let c = RelationCode::classify(
                            &StampedInterval { lo: lo_x.clone(), hi: hi_x.clone() },
                            &StampedInterval { lo: lo_y.clone(), hi: hi_y.clone() },
                        );
                        assert!(c.is_consistent(), "inconsistent observed code {}", c.as_str());
                        seen.insert(c);
                    }
                }
            }
        }
        assert!(seen.len() > 10, "a rich family of codes occurs, got {}", seen.len());
    }

    proptest! {
        /// Fine-grained relation codes from real stamp pairs are always
        /// internally consistent, and their projections match the interval
        /// tests.
        #[test]
        fn relation_codes_consistent_on_generated_intervals(
            n in 2usize..4,
            per_proc in 2usize..5,
            lags in proptest::collection::vec(0usize..10, 1..8),
        ) {
            let h = strobed_history(n, per_proc, &lags);
            // Build intervals from consecutive stamp pairs at each process.
            let mut intervals: Vec<StampedInterval> = Vec::new();
            for p in 0..n {
                for w in 0..h.len_of(p).saturating_sub(1) {
                    intervals.push(StampedInterval {
                        lo: h.stamps[p][w].clone(),
                        hi: h.stamps[p][w + 1].clone(),
                    });
                }
            }
            for x in &intervals {
                for y in &intervals {
                    let c = RelationCode::classify(x, y);
                    prop_assert!(c.is_consistent(), "inconsistent code {}", c.as_str());
                    prop_assert_eq!(c.surely_precedes(), x.surely_precedes(y));
                    prop_assert_eq!(c.possibly_overlaps(), x.possibly_overlaps(y));
                    prop_assert_eq!(c.definitely_overlaps(), x.definitely_overlaps(y));
                    prop_assert_eq!(c.inverse(), RelationCode::classify(y, x));
                }
            }
        }
    }
}
