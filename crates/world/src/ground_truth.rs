//! Ground-truth predicate evaluation over a timeline.
//!
//! The paper's detection problem (§3.3): detect **each occurrence** of a
//! predicate φ on sensed attribute values under the *Instantaneously*
//! modality. Ground truth is computed exactly here: replay the timeline,
//! evaluate φ on the piecewise-constant world state, and emit the maximal
//! intervals in which φ held. Detector outputs are scored against these
//! intervals (false negatives = missed truth intervals, false positives =
//! detections with no overlapping truth interval).

use serde::{Deserialize, Serialize};

use psn_sim::time::{SimDuration, SimTime};

use crate::object::WorldState;
use crate::timeline::Timeline;

/// A maximal interval during which the predicate was true in ground truth.
/// `end == None` means it still held at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruthInterval {
    /// When the predicate became true.
    pub start: SimTime,
    /// When it became false again, if it did.
    pub end: Option<SimTime>,
}

impl TruthInterval {
    /// Length of the interval, treating an open end as extending to `horizon`.
    pub fn duration(&self, horizon: SimTime) -> SimDuration {
        self.end.unwrap_or(horizon).saturating_since(self.start)
    }

    /// Does the instant `t` fall inside this interval?
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && self.end.map(|e| t < e).unwrap_or(true)
    }

    /// Does `[a, b)` overlap this interval?
    pub fn overlaps(&self, a: SimTime, b: SimTime) -> bool {
        let end = self.end.unwrap_or(SimTime::MAX);
        self.start < b && a < end
    }
}

/// Exact truth intervals of `pred` over the timeline.
pub fn truth_intervals(
    timeline: &Timeline,
    pred: impl Fn(&WorldState) -> bool,
) -> Vec<TruthInterval> {
    let mut intervals = Vec::new();
    let mut open: Option<SimTime> = None;

    let initial = timeline.initial_state();
    if pred(&initial) {
        open = Some(SimTime::ZERO);
    }
    let mut state = initial;
    for e in &timeline.events {
        state.set(e.key, e.value);
        let holds = pred(&state);
        match (open, holds) {
            (None, true) => open = Some(e.at),
            (Some(start), false) => {
                intervals.push(TruthInterval { start, end: Some(e.at) });
                open = None;
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        intervals.push(TruthInterval { start, end: None });
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{AttrKey, AttrValue, ObjectSpec};
    use crate::timeline::WorldEvent;
    use proptest::prelude::*;

    fn counter_timeline(changes: &[(u64, i64)]) -> Timeline {
        let objects = vec![ObjectSpec {
            id: 0,
            name: "c".into(),
            attrs: vec![("v".into(), AttrValue::Int(0))],
        }];
        let events = changes
            .iter()
            .enumerate()
            .map(|(i, &(ms, v))| WorldEvent {
                id: i,
                at: SimTime::from_millis(ms),
                key: AttrKey::new(0, 0),
                value: AttrValue::Int(v),
                caused_by: vec![],
            })
            .collect();
        Timeline::new(objects, events)
    }

    const K: AttrKey = AttrKey { object: 0, attr: 0 };

    #[test]
    fn single_occurrence() {
        let t = counter_timeline(&[(10, 5), (20, 0)]);
        let ivs = truth_intervals(&t, |s| s.get_int(K) > 3);
        assert_eq!(
            ivs,
            vec![TruthInterval {
                start: SimTime::from_millis(10),
                end: Some(SimTime::from_millis(20))
            }]
        );
    }

    #[test]
    fn multiple_occurrences_are_separate() {
        let t = counter_timeline(&[(10, 5), (20, 0), (30, 9), (40, 1), (50, 7)]);
        let ivs = truth_intervals(&t, |s| s.get_int(K) > 3);
        assert_eq!(ivs.len(), 3, "every occurrence counts — detectors must not 'hang'");
        assert_eq!(ivs[2].start, SimTime::from_millis(50));
        assert_eq!(ivs[2].end, None, "last occurrence still open");
    }

    #[test]
    fn true_from_start() {
        let t = counter_timeline(&[(10, 0)]);
        let ivs = truth_intervals(&t, |s| s.get_int(K) < 1);
        // Initially 0 (<1: true), stays 0 at 10ms: single open interval.
        assert_eq!(ivs, vec![TruthInterval { start: SimTime::ZERO, end: None }]);
    }

    #[test]
    fn never_true() {
        let t = counter_timeline(&[(10, 1), (20, 2)]);
        assert!(truth_intervals(&t, |s| s.get_int(K) > 100).is_empty());
    }

    #[test]
    fn repeated_true_values_do_not_split() {
        let t = counter_timeline(&[(10, 5), (20, 6), (30, 7), (40, 0)]);
        let ivs = truth_intervals(&t, |s| s.get_int(K) > 3);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].end, Some(SimTime::from_millis(40)));
    }

    #[test]
    fn interval_predicates() {
        let iv =
            TruthInterval { start: SimTime::from_millis(10), end: Some(SimTime::from_millis(20)) };
        assert!(iv.contains(SimTime::from_millis(10)));
        assert!(iv.contains(SimTime::from_millis(19)));
        assert!(!iv.contains(SimTime::from_millis(20)), "half-open");
        assert!(iv.overlaps(SimTime::from_millis(15), SimTime::from_millis(25)));
        assert!(!iv.overlaps(SimTime::from_millis(20), SimTime::from_millis(25)));
        assert_eq!(iv.duration(SimTime::from_secs(1)), SimDuration::from_millis(10));
        let open = TruthInterval { start: SimTime::from_millis(10), end: None };
        assert_eq!(open.duration(SimTime::from_millis(25)), SimDuration::from_millis(15));
        assert!(open.contains(SimTime::from_secs(100)));
    }

    proptest! {
        /// The predicate's value at any instant matches interval membership.
        #[test]
        fn truth_intervals_match_pointwise_evaluation(
            changes in proptest::collection::vec((0u64..10_000, -50i64..50), 0..30),
            probe_ms in 0u64..10_000,
            thresh in -20i64..20,
        ) {
            let t = counter_timeline(&changes);
            let pred = |s: &WorldState| s.get_int(AttrKey::new(0, 0)) > thresh;
            let ivs = truth_intervals(&t, pred);
            let probe = SimTime::from_millis(probe_ms);
            let by_interval = ivs.iter().any(|iv| iv.contains(probe));
            let by_state = pred(&t.state_at(probe));
            prop_assert_eq!(by_interval, by_state);
        }
    }
}
