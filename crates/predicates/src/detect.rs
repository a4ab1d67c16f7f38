//! Every-occurrence detection under the *Instantaneously* modality.
//!
//! The problem specification of §3.3: detect **each occurrence** of a
//! predicate φ on sensed world attributes (the paper stresses that earlier
//! algorithms detect only the first occurrence and then "hang").
//!
//! All detectors share one skeleton: the root P₀ reconstructs the global
//! state by replaying the reports **in the order a clock discipline says
//! they happened**, evaluating φ after each update and emitting rising /
//! falling edges. That edge state machine is written once, as `Sweep`:
//! [`detect_occurrences`] feeds it a whole trace sorted by the discipline's
//! key, and the streaming detector ([`crate::stream`]) feeds it each report
//! its hold-back releases. The disciplines differ only in the ordering key:
//!
//! | Discipline | Orders by | Error behaviour (paper) |
//! |---|---|---|
//! | `Oracle` | ground-truth sense times | exact (the ideal observer) |
//! | `SyncedPhysical` | ε-synced readings | FN (and FP) for races shorter than ≈2ε (Mayo–Kearns) |
//! | `UnsyncedPhysical` | raw drifting readings | errors grow with offset/drift |
//! | `Arrival` | arrival order at P₀ | errors within the delay spread |
//! | `ScalarStrobe` | strobe scalar stamps | FN **and** FP under races within Δ |
//! | `VectorStrobe` | linear extension of the strobe vector order | FN only, with races flagged into the **borderline bin** |
//!
//! The vector-strobe detector reproduces the consensus flavour of \[24\]:
//! besides ordering, it uses the vector stamps to recognize *races*
//! (concurrent reports near an edge) — every detection involved in a race
//! is placed in the borderline bin, and near-miss occurrences that exist
//! under an adjacent reordering of concurrent reports are emitted as
//! borderline detections. The application chooses the borderline policy
//! (treat as positive to err on the safe side — the §5 recommendation).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use psn_core::{ExecutionTrace, ReceivedReport};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue, WorldState};

use crate::spec::{Compiled, Predicate, SavedState};

/// One detected occurrence, in ground-truth coordinates (the truth times of
/// the sense events the detector attributed the edges to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// Truth time of the rising-edge report.
    pub start: SimTime,
    /// Truth time of the falling-edge report (None if still true at the
    /// end of the observation stream).
    pub end: Option<SimTime>,
    /// True if this detection was involved in a race (vector-strobe
    /// discipline only): the application's borderline bin.
    pub borderline: bool,
}

/// The clock discipline a detector orders reports by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Discipline {
    /// Ground-truth order: the unattainable ideal observer.
    Oracle,
    /// ε-synchronized physical clock readings (Mayo–Kearns / Stoller).
    SyncedPhysical,
    /// Raw, unsynchronized drifting oscillator readings.
    UnsyncedPhysical,
    /// Arrival order at the root.
    Arrival,
    /// Strobe scalar stamps (SSC1–SSC2), ties broken by process id.
    ScalarStrobe,
    /// Strobe vector stamps (SVC1–SVC2) via their scalar linear extension,
    /// with race detection into the borderline bin.
    VectorStrobe,
}

impl Discipline {
    /// All disciplines, for sweep experiments.
    pub const ALL: [Discipline; 6] = [
        Discipline::Oracle,
        Discipline::SyncedPhysical,
        Discipline::UnsyncedPhysical,
        Discipline::Arrival,
        Discipline::ScalarStrobe,
        Discipline::VectorStrobe,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Discipline::Oracle => "oracle",
            Discipline::SyncedPhysical => "phys-sync(ε)",
            Discipline::UnsyncedPhysical => "phys-unsync",
            Discipline::Arrival => "arrival",
            Discipline::ScalarStrobe => "strobe-scalar",
            Discipline::VectorStrobe => "strobe-vector",
        }
    }
}

type SweepKey = (i128, usize, usize);

/// Sort key for one report under a discipline. Every key is totalized with
/// `(process, sense_seq)` so sweeps are deterministic.
fn order_key(r: &ReceivedReport, arrival_idx: usize, d: Discipline) -> SweepKey {
    let p = r.report.process;
    let s = r.report.sense_seq;
    match d {
        Discipline::Oracle => (r.report.stamps.truth.as_nanos() as i128, p, s),
        Discipline::SyncedPhysical => (i128::from(r.report.stamps.synced.0), p, s),
        Discipline::UnsyncedPhysical => (i128::from(r.report.stamps.physical.0), p, s),
        Discipline::Arrival => (arrival_idx as i128, p, s),
        Discipline::ScalarStrobe | Discipline::VectorStrobe => {
            (i128::from(r.report.stamps.strobe_scalar.value), p, s)
        }
    }
}

/// Detect every occurrence of `predicate` in `trace` under `discipline`.
///
/// `initial` is the observed state before any report (deployment-time
/// calibration — typically the scenario's initial world state).
pub fn detect_occurrences(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    initial: &WorldState,
    discipline: Discipline,
) -> Vec<Detection> {
    // Order the observation stream per the discipline (a stable sort: equal
    // keys keep arrival order).
    let mut ordered: Vec<(SweepKey, &ReceivedReport)> = trace
        .log
        .reports
        .iter()
        .enumerate()
        .map(|(i, r)| (order_key(r, i, discipline), r))
        .collect();
    ordered.sort_by_key(|&(key, _)| key);

    // The race window for borderline classification: reports within this
    // many sweep positions of each other can be concurrent-and-adjacent.
    let window = (discipline == Discipline::VectorStrobe).then_some(trace.n.max(2));
    let mut sweep = Sweep::new(predicate, initial, window);
    let mut detections = Vec::new();
    // Positions count every sorted report, relevant or not.
    for (pos, &(_, r)) in ordered.iter().enumerate() {
        let rr = &r.report;
        detections.extend(sweep.step(pos, rr.key, rr.value, rr.stamps.truth, Some(r)));
    }
    detections.extend(sweep.finish());
    detections
}

/// The relational edge state machine: the observed state, whether φ holds
/// on it, and the open occurrence, advanced one report at a time in the
/// order a discipline gives. [`detect_occurrences`] feeds it a whole sorted
/// trace; the streaming detector feeds it each report its hold-back
/// releases, under `ScalarStrobe`.
#[derive(Debug, Clone)]
pub(crate) struct Sweep<'a> {
    state: Compiled,
    holds: bool,
    /// The open occurrence: its truth start, and whether its rising edge
    /// was involved in a race.
    open: Option<(SimTime, bool)>,
    /// `VectorStrobe` only: the recent history the race probes read.
    races: Option<RaceWindow<'a>>,
}

/// A [`Sweep`]'s observed state, verdict and open occurrence, copied by
/// [`Sweep::mark`] for [`Sweep::restore`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepMark {
    state: SavedState,
    holds: bool,
    open: Option<(SimTime, bool)>,
}

/// Recent relevant history for race probes.
#[derive(Debug, Clone)]
struct RaceWindow<'a> {
    /// Reports within this many sweep positions of each other can be
    /// concurrent-and-adjacent.
    width: usize,
    /// (position, report, the value of its key before it applied), oldest
    /// first.
    recent: VecDeque<(usize, &'a ReceivedReport, AttrValue)>,
}

impl<'a> RaceWindow<'a> {
    /// The history entries racing with `r` at position `pos`: within the
    /// window, another process's, concurrent in strobe-vector order. Newest
    /// first, and walked only at an edge or by the near-miss probe, so the
    /// vector comparisons are paid only there.
    fn racing<'s>(
        &'s self,
        pos: usize,
        r: &'s ReceivedReport,
    ) -> impl Iterator<Item = &'s (usize, &'a ReceivedReport, AttrValue)> + 's {
        self.recent.iter().rev().take_while(move |(i, ..)| pos - i <= self.width).filter(
            move |(_, s, _)| {
                s.report.process != r.report.process
                    && s.report.stamps.strobe_vector.concurrent(&r.report.stamps.strobe_vector)
            },
        )
    }
}

impl<'a> Sweep<'a> {
    /// A sweep of `predicate` from the observed state `initial`. A
    /// `race_window` (the `VectorStrobe` discipline) turns on race
    /// classification into the borderline bin and the near-miss probe.
    pub(crate) fn new(
        predicate: &Predicate,
        initial: &WorldState,
        race_window: Option<usize>,
    ) -> Self {
        let state = predicate.compile(initial);
        let holds = state.holds();
        Sweep {
            state,
            holds,
            open: holds.then_some((SimTime::ZERO, false)),
            races: race_window.map(|width| RaceWindow { width, recent: VecDeque::new() }),
        }
    }

    /// Whether a report on `key` can change the observed state.
    pub(crate) fn watches(&self, key: AttrKey) -> bool {
        self.state.watches(key)
    }

    /// Truth start of the open occurrence, if φ holds now.
    pub(crate) fn open_since(&self) -> Option<SimTime> {
        self.open.map(|(start, _)| start)
    }

    /// Apply the report at sweep position `pos` that sets `attr` to `value`
    /// (sensed at truth time `truth`), and return the occurrence it
    /// completes: a falling edge, or a near-miss blip. `report` is the
    /// report itself, which only a race window reads.
    pub(crate) fn step(
        &mut self,
        pos: usize,
        attr: AttrKey,
        value: AttrValue,
        truth: SimTime,
        report: Option<&'a ReceivedReport>,
    ) -> Option<Detection> {
        // An irrelevant report leaves the observed state, and so φ, as it
        // was: no edge, no probe, no history entry.
        let prev_value = self.state.set(attr, value)?;
        let now_holds = self.state.holds();
        let races = self.races.as_ref().zip(report);
        let is_race = || races.is_some_and(|(w, r)| w.racing(pos, r).next().is_some());

        let found = match (self.holds, now_holds) {
            (false, true) => {
                self.open = Some((truth, is_race()));
                None
            }
            (true, false) => {
                let (start, race_at_start) = self.open.take().expect("open interval");
                Some(Detection { start, end: Some(truth), borderline: race_at_start || is_race() })
            }
            // Near-miss probe (vector strobe only): if φ did not rise, but
            // would have risen had this report been ordered before an
            // adjacent concurrent report, the occurrence may exist in truth
            // — emit a borderline blip so the application can err on the
            // safe side.
            (false, false) => {
                let near_miss = races.is_some_and(|(w, r)| {
                    w.racing(pos, r).any(|(_, s, s_prev)| {
                        // Tentatively roll back S (as if R preceded it):
                        // write one slot, evaluate, restore it.
                        let cur =
                            self.state.set(s.report.key, *s_prev).expect("history is relevant");
                        let probe = self.state.holds();
                        self.state.set(s.report.key, cur);
                        probe
                    })
                });
                near_miss.then_some(Detection { start: truth, end: Some(truth), borderline: true })
            }
            (true, true) => None,
        };

        self.holds = now_holds;
        if let Some((w, r)) = self.races.as_mut().zip(report) {
            w.recent.push_back((pos, r, prev_value));
            if w.recent.len() > 2 * w.width {
                w.recent.pop_front();
            }
        }
        found
    }

    /// Copy what [`step`](Self::step) changes into `to`, for
    /// [`restore`](Self::restore). A race window's history is not copied, so
    /// only a sweep without one is marked.
    pub(crate) fn mark(&self, to: &mut SweepMark) {
        debug_assert!(self.races.is_none(), "a race window's history is not marked");
        self.state.save(&mut to.state);
        to.holds = self.holds;
        to.open = self.open;
    }

    /// Return to the point `from` marked.
    pub(crate) fn restore(&mut self, from: &SweepMark) {
        self.state.restore(&from.state);
        self.holds = from.holds;
        self.open = from.open;
    }

    /// End of stream: the occurrence still open, if any.
    pub(crate) fn finish(self) -> Option<Detection> {
        self.open.map(|(start, race)| Detection { start, end: None, borderline: race })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_core::{run_execution, ExecutionConfig};
    use psn_sim::delay::DelayModel;
    use psn_sim::time::{SimDuration, SimTime};
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};
    use psn_world::truth_intervals;

    fn scenario(rate: f64, cap: i64) -> psn_world::Scenario {
        exhibition::generate(
            &ExhibitionParams {
                doors: 3,
                arrival_rate_hz: rate,
                mean_stay: SimDuration::from_secs(40),
                duration: SimTime::from_secs(600),
                capacity: cap,
            },
            17,
        )
    }

    #[test]
    fn oracle_matches_ground_truth_exactly() {
        let s = scenario(2.0, 40);
        let trace = run_execution(&s, &ExecutionConfig::default());
        let pred = Predicate::occupancy_over(3, 40);
        let detected =
            detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        assert_eq!(detected.len(), truth.len(), "every occurrence, no hang");
        for (d, t) in detected.iter().zip(&truth) {
            assert_eq!(d.start, t.start);
            assert_eq!(d.end, t.end);
            assert!(!d.borderline);
        }
    }

    #[test]
    fn every_occurrence_is_detected_not_just_the_first() {
        let s = scenario(3.0, 60);
        let trace = run_execution(&s, &ExecutionConfig::default());
        let pred = Predicate::occupancy_over(3, 60);
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        if truth.len() < 2 {
            // Seed chosen to produce multiple occurrences; guard anyway.
            return;
        }
        let detected =
            detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
        assert!(detected.len() >= 2, "detector must not hang after the first occurrence");
    }

    #[test]
    fn synchronous_delay_strobe_equals_oracle() {
        // Δ = 0 with strobe-per-event: the strobe order is the truth order
        // (paper §4.2.3 item 5 / §4.2.4).
        let s = scenario(2.0, 40);
        let trace = run_execution(
            &s,
            &ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() },
        );
        let pred = Predicate::occupancy_over(3, 40);
        let init = s.timeline.initial_state();
        let oracle = detect_occurrences(&trace, &pred, &init, Discipline::Oracle);
        let scalar = detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe);
        let vector: Vec<Detection> =
            detect_occurrences(&trace, &pred, &init, Discipline::VectorStrobe)
                .into_iter()
                .map(|d| Detection { borderline: false, ..d })
                .collect();
        assert_eq!(scalar, oracle);
        assert_eq!(vector, oracle);
    }

    #[test]
    fn large_delay_causes_strobe_errors() {
        // Δ comparable to inter-event gaps: strobe order diverges from
        // truth, so edges move or appear/disappear.
        let s = scenario(5.0, 50);
        let trace = run_execution(
            &s,
            &ExecutionConfig {
                delay: DelayModel::delta(SimDuration::from_secs(2)),
                ..Default::default()
            },
        );
        let pred = Predicate::occupancy_over(3, 50);
        let init = s.timeline.initial_state();
        let oracle = detect_occurrences(&trace, &pred, &init, Discipline::Oracle);
        let scalar = detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe);
        assert_ne!(scalar, oracle, "2s delays at 5 ev/s must perturb detection");
    }

    #[test]
    fn vector_strobe_flags_borderline_under_races() {
        let s = scenario(8.0, 60);
        let trace = run_execution(
            &s,
            &ExecutionConfig {
                delay: DelayModel::delta(SimDuration::from_secs(1)),
                ..Default::default()
            },
        );
        let pred = Predicate::occupancy_over(3, 60);
        let detected = detect_occurrences(
            &trace,
            &pred,
            &s.timeline.initial_state(),
            Discipline::VectorStrobe,
        );
        assert!(
            detected.iter().any(|d| d.borderline),
            "high event rate with Δ=1s must produce races"
        );
    }

    #[test]
    fn disciplines_have_labels() {
        for d in Discipline::ALL {
            assert!(!d.label().is_empty());
        }
    }
}
