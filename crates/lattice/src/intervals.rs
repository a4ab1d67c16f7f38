//! Interval relations.
//!
//! Two layers, matching the paper's two specification families (§3.1):
//!
//! - **Allen's 13 relations** on real-time intervals — the relative-timing
//!   relations of §3.1.1.a.ii ("X before Y, X overlaps Y, …"), applicable
//!   when a linear time base exists;
//! - **causality-based interval tests** on vector-stamped intervals — the
//!   partial-order analogues used by the strobe/causal detectors: can two
//!   intervals have overlapped instantaneously? does one surely precede the
//!   other?

use serde::{Deserialize, Serialize};

use psn_clocks::VectorStamp;
use psn_sim::time::SimTime;

/// Allen's interval algebra: the 13 basic relations between two real-time
/// intervals `[a.0, a.1)` and `[b.0, b.1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Allen {
    /// a ends before b starts.
    Before,
    /// a ends exactly where b starts.
    Meets,
    /// a starts first, they overlap, b ends last.
    Overlaps,
    /// same start, a ends first.
    Starts,
    /// a strictly inside b.
    During,
    /// same end, a starts last.
    Finishes,
    /// identical intervals.
    Equal,
    /// inverse of Before.
    After,
    /// inverse of Meets.
    MetBy,
    /// inverse of Overlaps.
    OverlappedBy,
    /// inverse of Starts.
    StartedBy,
    /// inverse of During.
    Contains,
    /// inverse of Finishes.
    FinishedBy,
}

impl Allen {
    /// The inverse relation (swap the two intervals).
    pub fn inverse(self) -> Allen {
        use Allen::*;
        match self {
            Before => After,
            After => Before,
            Meets => MetBy,
            MetBy => Meets,
            Overlaps => OverlappedBy,
            OverlappedBy => Overlaps,
            Starts => StartedBy,
            StartedBy => Starts,
            During => Contains,
            Contains => During,
            Finishes => FinishedBy,
            FinishedBy => Finishes,
            Equal => Equal,
        }
    }
}

#[cfg(test)]
impl Allen {
    /// Do the two intervals share at least one instant under this relation?
    pub(crate) fn intersects(self) -> bool {
        !matches!(self, Allen::Before | Allen::After | Allen::Meets | Allen::MetBy)
    }
}

/// Classify two half-open real-time intervals. Both must be non-empty
/// (`start < end`); panics otherwise.
pub fn allen_relation(a: (SimTime, SimTime), b: (SimTime, SimTime)) -> Allen {
    assert!(a.0 < a.1 && b.0 < b.1, "intervals must be non-empty");
    use core::cmp::Ordering::*;
    match (a.0.cmp(&b.0), a.1.cmp(&b.1)) {
        (Equal, Equal) => Allen::Equal,
        (Equal, Less) => Allen::Starts,
        (Equal, Greater) => Allen::StartedBy,
        (Less, Equal) => Allen::FinishedBy,
        (Greater, Equal) => Allen::Finishes,
        (Less, Less) => {
            if a.1 < b.0 {
                Allen::Before
            } else if a.1 == b.0 {
                Allen::Meets
            } else {
                Allen::Overlaps
            }
        }
        (Greater, Greater) => {
            if b.1 < a.0 {
                Allen::After
            } else if b.1 == a.0 {
                Allen::MetBy
            } else {
                Allen::OverlappedBy
            }
        }
        (Less, Greater) => Allen::Contains,
        (Greater, Less) => Allen::During,
    }
}

/// A vector-stamped interval at one process: the stamps of its bounding
/// events (`lo` = the event that opened it, `hi` = the event that closed
/// it; an interval still open at run end uses the process's final stamp).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StampedInterval {
    /// Stamp at the interval's opening event.
    pub lo: VectorStamp,
    /// Stamp at (or up to) the interval's closing event.
    pub hi: VectorStamp,
}

impl StampedInterval {
    /// Does X surely precede Y in the partial order: X's close
    /// happened-before Y's open?
    pub fn surely_precedes(&self, other: &StampedInterval) -> bool {
        self.hi.lt(&other.lo)
    }

    /// Could X and Y have overlapped in some consistent observation?
    /// (Neither surely precedes the other — the `Possibly`-flavoured
    /// overlap test the strobe-vector detector uses.)
    pub fn possibly_overlaps(&self, other: &StampedInterval) -> bool {
        !self.surely_precedes(other) && !other.surely_precedes(self)
    }

    /// Do X and Y *definitely* overlap: each interval's open
    /// happened-before the other's close? (The `Definitely`-flavoured
    /// test: every consistent observer sees a common instant.)
    pub fn definitely_overlaps(&self, other: &StampedInterval) -> bool {
        self.lo.lt(&other.hi) && other.lo.lt(&self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> (SimTime, SimTime) {
        (SimTime::from_millis(a), SimTime::from_millis(b))
    }

    #[test]
    fn all_thirteen_relations() {
        assert_eq!(allen_relation(iv(0, 1), iv(2, 3)), Allen::Before);
        assert_eq!(allen_relation(iv(2, 3), iv(0, 1)), Allen::After);
        assert_eq!(allen_relation(iv(0, 2), iv(2, 3)), Allen::Meets);
        assert_eq!(allen_relation(iv(2, 3), iv(0, 2)), Allen::MetBy);
        assert_eq!(allen_relation(iv(0, 2), iv(1, 3)), Allen::Overlaps);
        assert_eq!(allen_relation(iv(1, 3), iv(0, 2)), Allen::OverlappedBy);
        assert_eq!(allen_relation(iv(0, 1), iv(0, 2)), Allen::Starts);
        assert_eq!(allen_relation(iv(0, 2), iv(0, 1)), Allen::StartedBy);
        assert_eq!(allen_relation(iv(1, 2), iv(0, 3)), Allen::During);
        assert_eq!(allen_relation(iv(0, 3), iv(1, 2)), Allen::Contains);
        assert_eq!(allen_relation(iv(1, 2), iv(0, 2)), Allen::Finishes);
        assert_eq!(allen_relation(iv(0, 2), iv(1, 2)), Allen::FinishedBy);
        assert_eq!(allen_relation(iv(0, 1), iv(0, 1)), Allen::Equal);
    }

    #[test]
    fn inverse_is_involutive_and_correct() {
        use Allen::*;
        for r in [
            Before,
            Meets,
            Overlaps,
            Starts,
            During,
            Finishes,
            Equal,
            After,
            MetBy,
            OverlappedBy,
            StartedBy,
            Contains,
            FinishedBy,
        ] {
            assert_eq!(r.inverse().inverse(), r);
        }
        // Swapping arguments yields the inverse.
        let (a, b) = (iv(0, 2), iv(1, 3));
        assert_eq!(allen_relation(a, b).inverse(), allen_relation(b, a));
    }

    #[test]
    fn intersects_matches_set_semantics() {
        assert!(!allen_relation(iv(0, 1), iv(2, 3)).intersects());
        assert!(!allen_relation(iv(0, 2), iv(2, 3)).intersects(), "half-open: meets is empty");
        assert!(allen_relation(iv(0, 2), iv(1, 3)).intersects());
        assert!(allen_relation(iv(1, 2), iv(0, 3)).intersects());
        // Every pair on a small grid agrees with raw arithmetic on
        // half-open intervals.
        let grid = || (0..8).flat_map(|a| (a + 1..9).map(move |b| iv(a, b)));
        for a in grid() {
            for b in grid() {
                let raw = a.0 < b.1 && b.0 < a.1;
                assert_eq!(allen_relation(a, b).intersects(), raw, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        let _ = allen_relation(iv(1, 1), iv(0, 2));
    }

    fn vs(v: &[u64]) -> VectorStamp {
        VectorStamp::from_slice(v)
    }

    #[test]
    fn surely_precedes_via_stamps() {
        // X at p0 closed at [2,0]; Y at p1 opened at [2,1] (saw X's close).
        let x = StampedInterval { lo: vs(&[1, 0]), hi: vs(&[2, 0]) };
        let y = StampedInterval { lo: vs(&[2, 1]), hi: vs(&[2, 2]) };
        assert!(x.surely_precedes(&y));
        assert!(!y.surely_precedes(&x));
        assert!(!x.possibly_overlaps(&y));
    }

    #[test]
    fn concurrent_intervals_possibly_overlap() {
        let x = StampedInterval { lo: vs(&[1, 0]), hi: vs(&[2, 0]) };
        let y = StampedInterval { lo: vs(&[0, 1]), hi: vs(&[0, 2]) };
        assert!(x.possibly_overlaps(&y));
        assert!(!x.definitely_overlaps(&y), "no information forcing overlap");
    }

    #[test]
    fn definite_overlap_requires_cross_knowledge() {
        // X = [ [1,0], [3,2] ]: X's close saw Y's open.
        // Y = [ [1,1], [3,3] ]: Y's open saw X's open, Y's close saw X's close.
        let x = StampedInterval { lo: vs(&[1, 0]), hi: vs(&[3, 2]) };
        let y = StampedInterval { lo: vs(&[1, 1]), hi: vs(&[3, 3]) };
        assert!(x.definitely_overlaps(&y));
        assert!(x.possibly_overlaps(&y), "definite implies possible");
    }
}
