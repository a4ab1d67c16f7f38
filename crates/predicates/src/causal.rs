//! `Possibly` / `Definitely` detection of conjunctive predicates over
//! vector-stamped intervals (paper §3.1.1.b, §4.2; Cooper–Marzullo
//! modalities, Garg–Waldecker style interval advancement).
//!
//! Each conjunct φₚ is locally evaluable at process p; its truth intervals
//! are bounded by p's sense events, stamped with a vector-clock family:
//!
//! - **causality-based** Mattern/Fidge stamps: the paper's §4.2.1 note
//!   applies — when merely *observing* the world plane, sensors exchange no
//!   computation messages, "the Mattern/Fidge vector clock protocol has no
//!   occasion to invoke rules VC2 or VC3", so cross-process intervals are
//!   always mutually concurrent: `Possibly` trivially holds and
//!   `Definitely` never does. This degeneracy is itself one of the paper's
//!   observations, reproduced in the tests.
//! - **strobe vector** stamps: the artificial strobe order relates
//!   intervals across processes, making `Definitely`-style detection
//!   meaningful — the paper's §4.2 "partial order as an implementation
//!   tool" (\[17\]-style concurrent event detection).
//!
//! Every occurrence is reported (no "hanging" after the first).

use serde::{Deserialize, Serialize};

use psn_clocks::{ProcessId, VectorStamp};
use psn_core::ExecutionTrace;
use psn_lattice::stream::{AdvancementFrontier, FrontierInterval, PeerGate};
use psn_lattice::StampedInterval;
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue, WorldState};

use crate::spec::{Compiled, Conjunct};

/// Which vector stamps bound the intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StampFamily {
    /// Mattern/Fidge causal stamps (degenerate for pure observation).
    Causal,
    /// Strobe vector stamps (SVC1–SVC2).
    StrobeVector,
}

/// One detected conjunctive occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalOccurrence {
    /// Latest truth start among the matched per-process intervals.
    pub truth_start: SimTime,
    /// Earliest truth end among them (None if some interval never closed).
    pub truth_end: Option<SimTime>,
    /// True if the intervals *definitely* overlapped (every observer sees a
    /// common instant), not merely possibly.
    pub definitely: bool,
}

/// One conjunct's truth-interval builder: replays the reports of the
/// conjunct's process in local order and emits each closed interval at its
/// falling edge. The sealed replay in [`detect_conjunctive`] and the
/// streaming detector's hold-back path share it.
#[derive(Debug, Clone)]
pub(crate) struct ConjunctBuilder {
    pub(crate) process: ProcessId,
    state: Compiled,
    holds: bool,
    /// `(lo stamp, truth start)` of the currently open interval.
    open: Option<(VectorStamp, SimTime)>,
    last_stamp: VectorStamp,
}

impl ConjunctBuilder {
    pub(crate) fn new(conjunct: &Conjunct, initial: &WorldState, n_stamp: usize) -> Self {
        let state = conjunct.expr.compile(initial);
        let holds = state.holds();
        let open = holds.then(|| (VectorStamp::zero(n_stamp), SimTime::ZERO));
        ConjunctBuilder {
            process: conjunct.process,
            state,
            holds,
            open,
            last_stamp: VectorStamp::zero(n_stamp),
        }
    }

    /// Apply one report of this conjunct's process (`attr = value`, sensed
    /// at `truth`, stamped `stamp`); a falling edge returns the closed
    /// interval.
    pub(crate) fn apply(
        &mut self,
        attr: AttrKey,
        value: AttrValue,
        truth: SimTime,
        stamp: &VectorStamp,
    ) -> Option<FrontierInterval> {
        self.state.set(attr, value);
        self.last_stamp = stamp.clone();
        let now = self.state.holds();
        let out = match (self.holds, now) {
            (false, true) => {
                self.open = Some((stamp.clone(), truth));
                None
            }
            (true, false) => {
                let (lo, t0) = self.open.take().expect("open interval");
                Some(FrontierInterval {
                    stamped: StampedInterval { lo, hi: stamp.clone() },
                    truth_start: t0,
                    truth_end: Some(truth),
                })
            }
            _ => None,
        };
        self.holds = now;
        out
    }

    /// The still-open interval, closed at the last applied stamp.
    pub(crate) fn trailing(&self) -> Option<FrontierInterval> {
        self.open.as_ref().map(|(lo, t0)| FrontierInterval {
            stamped: StampedInterval { lo: lo.clone(), hi: self.last_stamp.clone() },
            truth_start: *t0,
            truth_end: None,
        })
    }

    /// What this conjunct can still produce, for the Δ-bound GC.
    pub(crate) fn gate(&self) -> PeerGate {
        PeerGate { open: self.open.is_some(), floor: self.last_stamp.clone() }
    }
}

/// Detect every `Possibly`-overlapping combination of conjunct intervals
/// (one per conjunct), flagging those that `Definitely` overlap.
///
/// Each conjunct's process replays its reports (by `sense_seq`) through a
/// `ConjunctBuilder` under the stamps `family` selects; the closed
/// intervals and the trailing one go to one [`AdvancementFrontier`], whose
/// Garg–Waldecker advancement runs once over them.
pub fn detect_conjunctive(
    trace: &ExecutionTrace,
    conjuncts: &[Conjunct],
    initial: &WorldState,
    family: StampFamily,
) -> Vec<CausalOccurrence> {
    assert!(!conjuncts.is_empty(), "need at least one conjunct");
    let n_stamp = trace.n + 1; // stamps cover sensors + root
    let mut frontier = AdvancementFrontier::new(conjuncts.len());
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let mut reports: Vec<_> =
            trace.log.reports.iter().filter(|r| r.report.process == conjunct.process).collect();
        reports.sort_by_key(|r| r.report.sense_seq);
        let mut builder = ConjunctBuilder::new(conjunct, initial, n_stamp);
        for r in reports {
            let stamp = match family {
                StampFamily::Causal => &r.report.stamps.vector,
                StampFamily::StrobeVector => &r.report.stamps.strobe_vector,
            };
            if let Some(iv) =
                builder.apply(r.report.key, r.report.value, r.report.stamps.truth, stamp)
            {
                frontier.push(i, iv);
            }
        }
        if let Some(iv) = builder.trailing() {
            frontier.push(i, iv);
        }
    }
    let mut occurrences = Vec::new();
    frontier.advance(&mut occurrences);
    occurrences
        .into_iter()
        .map(|o| CausalOccurrence {
            truth_start: o.truth_start,
            truth_end: o.truth_end,
            definitely: o.definitely,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Expr;
    use psn_core::{run_execution, ExecutionConfig};
    use psn_sim::delay::DelayModel;
    use psn_sim::time::{SimDuration, SimTime};
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};
    use psn_world::{truth_intervals, AttrKey};

    /// Two-door exhibition; conjuncts: door d busy (x_d − y_d > k).
    fn busy_conjuncts(k: i64) -> Vec<Conjunct> {
        (0..2)
            .map(|d| Conjunct {
                process: d,
                expr: Expr::var(AttrKey::new(d, 0))
                    .sub(Expr::var(AttrKey::new(d, 1)))
                    .gt(Expr::int(k)),
            })
            .collect()
    }

    fn scenario() -> psn_world::Scenario {
        exhibition::generate(
            &ExhibitionParams {
                doors: 2,
                arrival_rate_hz: 3.0,
                mean_stay: SimDuration::from_secs(60),
                duration: SimTime::from_secs(600),
                capacity: 100,
            },
            23,
        )
    }

    #[test]
    fn causal_stamps_never_definitely_overlap() {
        // Sensors exchange no computation messages, so Mattern/Fidge stamps
        // at different processes are always concurrent: Definitely is
        // unattainable — the paper's degeneracy observation (§4.2.1).
        let s = scenario();
        let trace = run_execution(&s, &ExecutionConfig::default());
        let occ = detect_conjunctive(
            &trace,
            &busy_conjuncts(3),
            &s.timeline.initial_state(),
            StampFamily::Causal,
        );
        assert!(!occ.is_empty(), "Possibly fires (everything is concurrent)");
        assert!(
            occ.iter().all(|o| !o.definitely),
            "Definitely must never hold under pure-observation causal clocks"
        );
    }

    #[test]
    fn strobe_stamps_enable_definitely() {
        // With Δ=0 strobes, cross-process knowledge exists: genuinely
        // overlapping busy periods are detected as Definitely.
        let s = scenario();
        let trace = run_execution(
            &s,
            &ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() },
        );
        let occ = detect_conjunctive(
            &trace,
            &busy_conjuncts(3),
            &s.timeline.initial_state(),
            StampFamily::StrobeVector,
        );
        // Ground truth: does the conjunction ever hold?
        let pred = crate::spec::Predicate::Conjunctive(busy_conjuncts(3));
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        if truth.is_empty() {
            assert!(occ.iter().all(|o| !o.definitely));
        } else {
            assert!(
                occ.iter().any(|o| o.definitely),
                "truth has {} overlaps but none detected Definitely",
                truth.len()
            );
        }
    }

    #[test]
    fn every_occurrence_reported() {
        let s = scenario();
        let trace = run_execution(
            &s,
            &ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() },
        );
        let pred = crate::spec::Predicate::Conjunctive(busy_conjuncts(2));
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        let occ = detect_conjunctive(
            &trace,
            &busy_conjuncts(2),
            &s.timeline.initial_state(),
            StampFamily::StrobeVector,
        );
        let definite = occ.iter().filter(|o| o.definitely).count();
        // With Δ=0, Definitely occurrences track the true overlaps closely.
        assert!(
            definite + 1 >= truth.len() && definite <= truth.len() + 1,
            "definite {definite} vs truth {}",
            truth.len()
        );
    }

    #[test]
    fn single_conjunct_is_trivially_definite() {
        let s = scenario();
        let trace = run_execution(&s, &ExecutionConfig::default());
        let one = vec![busy_conjuncts(3).remove(0)];
        let occ = detect_conjunctive(
            &trace,
            &one,
            &s.timeline.initial_state(),
            StampFamily::StrobeVector,
        );
        assert!(occ.iter().all(|o| o.definitely));
    }

    #[test]
    #[should_panic(expected = "at least one conjunct")]
    fn empty_conjuncts_rejected() {
        let s = scenario();
        let trace = run_execution(&s, &ExecutionConfig::default());
        let _ = detect_conjunctive(&trace, &[], &s.timeline.initial_state(), StampFamily::Causal);
    }
}
