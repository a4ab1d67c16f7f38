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

use psn_clocks::VectorStamp;
use psn_core::ExecutionTrace;
use psn_lattice::StampedInterval;
use psn_sim::time::SimTime;
use psn_world::WorldState;

use crate::spec::Conjunct;

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

/// A conjunct's truth interval at one process, with stamps and truth times.
#[derive(Debug, Clone)]
struct LocalInterval {
    stamped: StampedInterval,
    truth_start: SimTime,
    truth_end: Option<SimTime>,
}

/// Build the per-process truth intervals of each conjunct by replaying that
/// process's reports in local order.
fn local_intervals(
    trace: &ExecutionTrace,
    conjunct: &Conjunct,
    initial: &WorldState,
    family: StampFamily,
    n_stamp: usize,
) -> Vec<LocalInterval> {
    let mut reports: Vec<_> =
        trace.log.reports.iter().filter(|r| r.report.process == conjunct.process).collect();
    reports.sort_by_key(|r| r.report.sense_seq);

    let mut state = conjunct.expr.compile(initial);
    let stamp_of = |r: &psn_core::ReceivedReport| -> VectorStamp {
        match family {
            StampFamily::Causal => r.report.stamps.vector.clone(),
            StampFamily::StrobeVector => r.report.stamps.strobe_vector.clone(),
        }
    };

    let mut out = Vec::new();
    let mut holds = state.holds();
    let mut open: Option<(VectorStamp, SimTime)> =
        if holds { Some((VectorStamp::zero(n_stamp), SimTime::ZERO)) } else { None };
    let mut last_stamp = VectorStamp::zero(n_stamp);
    for r in &reports {
        let relevant = state.set(r.report.key, r.report.value).is_some();
        let s = stamp_of(r);
        last_stamp = s.clone();
        let now = if relevant { state.holds() } else { holds };
        match (holds, now) {
            (false, true) => open = Some((s, r.report.stamps.truth)),
            (true, false) => {
                let (lo, t0) = open.take().expect("open");
                out.push(LocalInterval {
                    stamped: StampedInterval { lo, hi: s },
                    truth_start: t0,
                    truth_end: Some(r.report.stamps.truth),
                });
            }
            _ => {}
        }
        holds = now;
    }
    if let Some((lo, t0)) = open {
        out.push(LocalInterval {
            stamped: StampedInterval { lo, hi: last_stamp },
            truth_start: t0,
            truth_end: None,
        });
    }
    out
}

/// Detect every `Possibly`-overlapping combination of conjunct intervals
/// (one per conjunct), flagging those that `Definitely` overlap.
///
/// Uses Garg–Waldecker style advancement: while some interval surely
/// precedes another, advance it; when no interval surely precedes any
/// other, the current combination possibly overlaps — record it and
/// advance the earliest-ending interval.
pub fn detect_conjunctive(
    trace: &ExecutionTrace,
    conjuncts: &[Conjunct],
    initial: &WorldState,
    family: StampFamily,
) -> Vec<CausalOccurrence> {
    assert!(!conjuncts.is_empty(), "need at least one conjunct");
    let n_stamp = trace.n + 1; // stamps cover sensors + root
    let lists: Vec<Vec<LocalInterval>> =
        conjuncts.iter().map(|c| local_intervals(trace, c, initial, family, n_stamp)).collect();
    let mut idx = vec![0usize; lists.len()];
    let mut out = Vec::new();

    'outer: loop {
        for (p, list) in lists.iter().enumerate() {
            if idx[p] >= list.len() {
                break 'outer;
            }
        }
        // Find an interval that surely precedes another: it cannot be part
        // of any overlapping combination with the current (or any later)
        // intervals of that peer — advance it.
        let mut advanced = false;
        'pairs: for p in 0..lists.len() {
            for q in 0..lists.len() {
                if p == q {
                    continue;
                }
                let xp = &lists[p][idx[p]].stamped;
                let xq = &lists[q][idx[q]].stamped;
                if xp.surely_precedes(xq) {
                    idx[p] += 1;
                    advanced = true;
                    break 'pairs;
                }
            }
        }
        if advanced {
            continue;
        }
        // Pairwise possibly-overlapping: an occurrence.
        let current: Vec<&LocalInterval> =
            lists.iter().enumerate().map(|(p, l)| &l[idx[p]]).collect();
        let definitely = (0..current.len()).all(|p| {
            (0..current.len())
                .all(|q| p == q || current[p].stamped.definitely_overlaps(&current[q].stamped))
        }) || current.len() == 1;
        let truth_start = current.iter().map(|iv| iv.truth_start).max().expect("nonempty");
        let truth_end = current
            .iter()
            .map(|iv| iv.truth_end)
            .min_by_key(|e| e.unwrap_or(SimTime::MAX))
            .expect("nonempty");
        out.push(CausalOccurrence { truth_start, truth_end, definitely });
        // Advance the earliest-ending interval to look for the next
        // occurrence (every-occurrence semantics).
        let p_min = (0..current.len())
            .min_by_key(|&p| current[p].truth_end.unwrap_or(SimTime::MAX))
            .expect("nonempty");
        idx[p_min] += 1;
    }
    out
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
