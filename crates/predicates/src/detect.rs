//! Every-occurrence detection under the *Instantaneously* modality.
//!
//! The problem specification of §3.3: detect **each occurrence** of a
//! predicate φ on sensed world attributes (the paper stresses that earlier
//! algorithms detect only the first occurrence and then "hang").
//!
//! All detectors share one skeleton: the root P₀ reconstructs the global
//! state by replaying the reports **in the order a clock discipline says
//! they happened**, evaluating φ after each update and emitting rising /
//! falling edges. The disciplines differ only in the ordering key:
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
use psn_world::{AttrValue, WorldState};

use crate::metrics::DetectorMetrics;
use crate::spec::Predicate;

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
    detect_occurrences_instrumented(
        trace,
        predicate,
        initial,
        discipline,
        &DetectorMetrics::disabled(),
    )
}

/// [`detect_occurrences`], recording occurrences emitted, borderline-bin
/// size, and per-occurrence detection latency vs ground truth into
/// `metrics`. Output is identical to the uninstrumented call.
pub fn detect_occurrences_instrumented(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    initial: &WorldState,
    discipline: Discipline,
    metrics: &DetectorMetrics,
) -> Vec<Detection> {
    detect_impl(trace, predicate, initial, discipline, metrics, None)
}

/// [`detect_occurrences`], additionally appending a stamped
/// [`psn_sim::trace::TraceKind::Process`] record (kind
/// [`psn_sim::trace::ProcessEventKind::Detect`]) to `sink` for every
/// occurrence the detector emits — at the root-local arrival time of the
/// report that completed it, stamped with the root's vector clock at that
/// receive, with `detail` naming the reporting process (`u64::MAX` for the
/// trailing still-open interval, which no report completed). Passing the
/// execution's own sealed [`psn_sim::trace::Trace`] (cloned) yields one
/// merged causal trace: sense → send → receive → **detect**, ready for
/// [`psn_sim::trace_analysis::TraceAnalysis::detection_chain`]. `sink` is
/// re-sealed before returning. Detection output is identical to the
/// untraced call.
pub fn detect_occurrences_traced(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    initial: &WorldState,
    discipline: Discipline,
    sink: &mut psn_sim::trace::Trace,
) -> Vec<Detection> {
    let out = detect_impl(
        trace,
        predicate,
        initial,
        discipline,
        &DetectorMetrics::disabled(),
        Some(sink),
    );
    sink.seal();
    out
}

fn detect_impl(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    initial: &WorldState,
    discipline: Discipline,
    metrics: &DetectorMetrics,
    mut sink: Option<&mut psn_sim::trace::Trace>,
) -> Vec<Detection> {
    use psn_sim::trace::{ClockStamp, ProcessEventKind, TraceKind};
    let root = trace.root_id();
    // The verdict record for an occurrence completed by report `r`: emitted
    // at the root, at r's arrival, stamped with the root's merged vector at
    // that receive (so the verdict inherits the receive's causal past).
    let emit = |sink: &mut Option<&mut psn_sim::trace::Trace>, r: Option<&ReceivedReport>| {
        if let Some(sink) = sink.as_deref_mut() {
            let (at, stamp, detail) = match r {
                Some(r) => (
                    r.arrived_at,
                    ClockStamp::vector(r.root_vector.as_slice()),
                    r.report.process as u64,
                ),
                None => (trace.ended_at, ClockStamp::None, u64::MAX),
            };
            sink.record(
                at,
                TraceKind::Process { actor: root, kind: ProcessEventKind::Detect, stamp, detail },
            );
        }
    };
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

    let mut state = predicate.compile(initial);
    let vector = discipline == Discipline::VectorStrobe;

    // The race window for borderline classification: reports within this
    // many sweep positions of each other can be concurrent-and-adjacent.
    let window = trace.n.max(2);

    let mut detections: Vec<Detection> = Vec::new();
    // (start, borderline, root-local arrival of the rising-edge report —
    // None for the deployment-time open interval).
    let mut open: Option<(SimTime, bool, Option<SimTime>)> = None;
    let mut holds = state.holds();
    if holds {
        open = Some((SimTime::ZERO, false, None));
    }
    // Recent relevant history for race probes: (index, report, the value of
    // its key before it applied), oldest first.
    let mut recent: VecDeque<(usize, &ReceivedReport, AttrValue)> = VecDeque::new();

    for (idx, &(_, r)) in ordered.iter().enumerate() {
        // An irrelevant report leaves the observed state, and so φ, as it
        // was: no edge, no probe, no history entry.
        let Some(prev_value) = state.set(r.report.key, r.report.value) else { continue };
        let now_holds = state.holds();
        // The history entries racing with `r`: within the window, another
        // process's, concurrent in strobe-vector order. Newest first, and
        // walked only at an edge or by the near-miss probe, so the vector
        // comparisons are paid only there.
        let racing = || {
            recent.iter().rev().take_while(|(i, ..)| idx - i <= window).filter(|(_, s, _)| {
                s.report.process != r.report.process
                    && s.report.stamps.strobe_vector.concurrent(&r.report.stamps.strobe_vector)
            })
        };
        let is_race = || vector && racing().next().is_some();

        match (holds, now_holds) {
            (false, true) => {
                open = Some((r.report.stamps.truth, is_race(), Some(r.arrived_at)));
            }
            (true, false) => {
                let (start, race_at_start, seen_at) = open.take().expect("open interval");
                let d = Detection {
                    start,
                    end: Some(r.report.stamps.truth),
                    borderline: race_at_start || is_race(),
                };
                metrics.on_occurrence(&d, seen_at);
                emit(&mut sink, Some(r));
                detections.push(d);
            }
            // Near-miss probe (vector strobe only): if φ did not rise, but
            // would have risen had this report been ordered before an
            // adjacent concurrent report, the occurrence may exist in truth
            // — emit a borderline blip so the application can err on the
            // safe side.
            (false, false) if vector => {
                for (_, s, s_prev) in racing() {
                    // Tentatively roll back S (as if R preceded it): write
                    // one slot, evaluate, restore it.
                    let cur = state.set(s.report.key, *s_prev).expect("history is relevant");
                    let probe = state.holds();
                    state.set(s.report.key, cur);
                    if probe {
                        let d = Detection {
                            start: r.report.stamps.truth,
                            end: Some(r.report.stamps.truth),
                            borderline: true,
                        };
                        metrics.on_occurrence(&d, Some(r.arrived_at));
                        emit(&mut sink, Some(r));
                        detections.push(d);
                        break;
                    }
                }
            }
            _ => {}
        }

        holds = now_holds;
        recent.push_back((idx, r, prev_value));
        if recent.len() > 2 * window {
            recent.pop_front();
        }
    }
    if let Some((start, race, seen_at)) = open {
        let d = Detection { start, end: None, borderline: race };
        metrics.on_occurrence(&d, seen_at);
        emit(&mut sink, None);
        detections.push(d);
    }
    detections
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
    fn instrumented_detection_is_identical_and_counts() {
        let s = scenario(8.0, 60);
        let trace = run_execution(
            &s,
            &ExecutionConfig {
                delay: DelayModel::delta(SimDuration::from_secs(1)),
                ..Default::default()
            },
        );
        let pred = Predicate::occupancy_over(3, 60);
        let init = s.timeline.initial_state();
        let plain = detect_occurrences(&trace, &pred, &init, Discipline::VectorStrobe);
        let m = psn_sim::metrics::Metrics::new();
        let dm = crate::metrics::DetectorMetrics::attach(&m);
        let inst =
            detect_occurrences_instrumented(&trace, &pred, &init, Discipline::VectorStrobe, &dm);
        assert_eq!(plain, inst, "metrics must not change detection output");
        let snap = m.snapshot();
        assert_eq!(snap.counter("detector.occurrences"), Some(inst.len() as u64));
        assert_eq!(
            snap.counter("detector.borderline"),
            Some(inst.iter().filter(|d| d.borderline).count() as u64)
        );
        let lat = snap.timer("detector.latency_ns").unwrap();
        assert!(lat.count >= 1, "report-triggered occurrences have a latency sample");
        assert!(lat.mean > 0.0, "Δ=1s delays give positive detection latency");
    }

    #[test]
    fn traced_detection_appends_stamped_verdicts() {
        let s = scenario(2.0, 40);
        let trace =
            run_execution(&s, &ExecutionConfig { record_sim_trace: true, ..Default::default() });
        let pred = Predicate::occupancy_over(3, 40);
        let init = s.timeline.initial_state();
        let plain = detect_occurrences(&trace, &pred, &init, Discipline::Arrival);
        let mut sink = trace.sim.clone();
        let before = sink.len();
        let traced =
            detect_occurrences_traced(&trace, &pred, &init, Discipline::Arrival, &mut sink);
        assert_eq!(plain, traced, "tracing must not change detection output");
        use psn_sim::trace::{ProcessEventKind, TraceKind};
        let verdicts: Vec<_> = sink
            .records()
            .iter()
            .filter(|r| {
                matches!(&r.kind, TraceKind::Process { kind: ProcessEventKind::Detect, .. })
            })
            .collect();
        assert_eq!(sink.len(), before + verdicts.len(), "only Detect records were appended");
        assert_eq!(verdicts.len(), traced.len(), "one verdict per occurrence");
        for (v, d) in verdicts.iter().zip(&traced) {
            if let TraceKind::Process { actor, stamp, detail, .. } = &v.kind {
                assert_eq!(*actor, trace.root_id());
                if d.end.is_some() {
                    assert!(stamp.as_vector().is_some(), "report-completed verdicts are stamped");
                    assert!(*detail < trace.n as u64);
                } else {
                    assert_eq!(*detail, u64::MAX, "trailing open interval has no reporter");
                }
            }
        }
        // The merged trace stays a valid total order: seal was called and
        // the verdict sits at the completing report's arrival time.
        assert!(sink.records().windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disciplines_have_labels() {
        for d in Discipline::ALL {
            assert!(!d.label().is_empty());
        }
    }
}
