//! An independent oracle for the paper's modalities (§3.3): brute force over
//! the lattice of consistent cuts, written from the definitions.
//!
//! Every other equivalence test in the workspace pins one detector to
//! another. This file is the root of that chain. It shares no code with the
//! detectors or the lattice crate: happened-before is componentwise `≤` and
//! `≠` on the strobe vectors' slices, the cuts are enumerated exhaustively,
//! and predicate values come only from `Expr::eval_bool` / `Predicate::eval`
//! over a plain map. (`History` and `enumerate_lattice` appear only as the
//! implementation the lattice check compares against.)
//!
//! The inputs are tiny exhibition worlds: 2–4 doors, the timeline truncated
//! to 12 events, Δ = 0 or Δ ∈ {50, 300, 1500} ms.
//!
//! - **Conjunctive.** `Possibly(φ)` holds when some consistent cut of the
//!   conjunct processes' reports satisfies every conjunct; `Definitely(φ)`
//!   when ⊥ satisfies φ or ⊤ cannot be reached from ⊥ through consistent ¬φ
//!   cuts. The detectors must agree exactly whenever every conjunct ends
//!   false. A conjunct still true at its process's last report has its
//!   trailing interval closed at that report's stamp by the detectors, not
//!   left open; there the detectors may miss (never over-report), and the
//!   misses are counted and pinned.
//! - **Relational.** Replaying the reports in `(strobe scalar, process,
//!   sense_seq)` order gives the occurrences every scalar-strobe detector
//!   must report. Replaying them in truth, ε-synced, raw physical or log
//!   order (ties broken the same way) gives what the `Oracle`,
//!   `SyncedPhysical`, `UnsyncedPhysical` and `Arrival` sweeps must report.
//! - **Lattice.** Counting the consistent cuts of the strobe history, in
//!   total and per level, gives what `enumerate_lattice` must return.

use std::collections::HashMap;

use pervasive_time::core::ReceivedReport;
use pervasive_time::lattice::{enumerate_lattice, History};
use pervasive_time::predicates::{
    detect_conjunctive, detect_occurrences, modal_status, modal_status_streaming, Discipline,
    ModalStatus, StampFamily, StreamingModal,
};
use pervasive_time::prelude::*;

/// Events kept from each generated timeline.
const MAX_EVENTS: usize = 12;
/// A conjunctive case is skipped when one conjunct process has more reports.
const MAX_CONJUNCT_REPORTS: usize = 7;
/// Seeds per (doors, delay) cell.
const SEEDS: u64 = 120;

/// Happened-before on vector stamps: componentwise `≤` and not equal.
fn hb(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x <= y) && a != b
}

/// Is the cut consistent: no excluded event happened-before an included one?
/// `events[p]` are process p's stamps in local order; `cut[p]` counts the
/// included ones.
fn consistent(events: &[Vec<Vec<u64>>], cut: &[usize]) -> bool {
    (0..events.len()).all(|i| {
        (0..cut[i]).all(|k| {
            (0..events.len())
                .all(|j| j == i || events[j][cut[j]..].iter().all(|x| !hb(x, &events[i][k])))
        })
    })
}

/// Every cut of the product space `Π (len_p + 1)`, in mixed-radix order.
fn all_cuts(lens: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![vec![0; lens.len()]];
    for (p, &len) in lens.iter().enumerate() {
        out = out
            .into_iter()
            .flat_map(|cut| {
                (0..=len).map(move |c| {
                    let mut next = cut.clone();
                    next[p] = c;
                    next
                })
            })
            .collect();
    }
    out
}

fn delays() -> [DelayModel; 4] {
    [
        DelayModel::Synchronous,
        DelayModel::delta(SimDuration::from_millis(50)),
        DelayModel::delta(SimDuration::from_millis(300)),
        DelayModel::delta(SimDuration::from_millis(1500)),
    ]
}

/// A tiny exhibition world run under `delay`: the timeline truncated to
/// [`MAX_EVENTS`] events.
fn tiny(doors: usize, delay: &DelayModel, seed: u64) -> (Scenario, ExecutionTrace) {
    let params = ExhibitionParams {
        doors,
        arrival_rate_hz: 1.0,
        mean_stay: SimDuration::from_secs(2),
        duration: SimTime::from_secs(60),
        capacity: 1,
    };
    let mut scenario = exhibition::generate(&params, seed);
    scenario.timeline.events.truncate(MAX_EVENTS);
    let trace = run_execution(
        &scenario,
        &ExecutionConfig { delay: delay.clone(), seed, ..Default::default() },
    );
    (scenario, trace)
}

/// Door d is busy: `x_d − y_d > k`.
fn busy(d: usize, k: i64) -> Conjunct {
    Conjunct {
        process: d,
        expr: Expr::var(AttrKey::new(d, 0)).sub(Expr::var(AttrKey::new(d, 1))).gt(Expr::int(k)),
    }
}

/// The hold-back every streaming detector gets: 2Δ + 1 ms.
fn hold_back(delay: &DelayModel) -> SimDuration {
    let delta = delay.delta_bound().expect("bounded delay").as_nanos();
    SimDuration::from_nanos(2 * delta + 1_000_000)
}

/// A variable source over the initial state plus applied reports.
fn reader<'a>(
    initial: &'a WorldState,
    applied: &'a HashMap<AttrKey, AttrValue>,
) -> impl Fn(AttrKey) -> AttrValue + 'a {
    move |k| applied.get(&k).copied().or_else(|| initial.get(k)).unwrap_or(AttrValue::Int(0))
}

/// The oracle's verdict on one conjunctive predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    possibly: bool,
    definitely: bool,
}

impl Verdict {
    fn of(s: ModalStatus) -> Verdict {
        Verdict { possibly: s.possibly > 0, definitely: s.definitely > 0 }
    }
}

/// One conjunctive case, reduced to what the definitions need.
struct ConjunctiveCase {
    /// Per conjunct: its process's report stamps in `sense_seq` order.
    events: Vec<Vec<Vec<u64>>>,
    /// Per conjunct: its value after each prefix of those reports
    /// (`truth[i][c]` after the first c).
    truth: Vec<Vec<bool>>,
}

impl ConjunctiveCase {
    /// `None` when a conjunct process has more than
    /// [`MAX_CONJUNCT_REPORTS`] reports.
    fn new(trace: &ExecutionTrace, conjuncts: &[Conjunct], initial: &WorldState) -> Option<Self> {
        let mut events = Vec::new();
        let mut truth = Vec::new();
        for c in conjuncts {
            let mut reports: Vec<_> =
                trace.log.reports.iter().filter(|r| r.report.process == c.process).collect();
            if reports.len() > MAX_CONJUNCT_REPORTS {
                return None;
            }
            reports.sort_by_key(|r| r.report.sense_seq);
            let mut applied = HashMap::new();
            let mut values = vec![c.expr.eval_bool(&reader(initial, &applied))];
            for r in &reports {
                applied.insert(r.report.key, r.report.value);
                values.push(c.expr.eval_bool(&reader(initial, &applied)));
            }
            events.push(
                reports.iter().map(|r| r.report.stamps.strobe_vector.as_slice().to_vec()).collect(),
            );
            truth.push(values);
        }
        Some(ConjunctiveCase { events, truth })
    }

    fn holds(&self, cut: &[usize]) -> bool {
        cut.iter().enumerate().all(|(i, &c)| self.truth[i][c])
    }

    fn ends_true(&self) -> bool {
        self.truth.iter().any(|t| *t.last().expect("the empty prefix"))
    }

    fn verdict(&self) -> Verdict {
        let lens: Vec<usize> = self.events.iter().map(Vec::len).collect();
        let possibly = all_cuts(&lens).iter().any(|c| consistent(&self.events, c) && self.holds(c));
        // Definitely: every path ⊥ → ⊤ meets φ. Search ⊤ from ⊥ through ¬φ
        // cuts only.
        let bottom = vec![0; lens.len()];
        let definitely = if self.holds(&bottom) {
            true
        } else {
            let mut seen = vec![bottom.clone()];
            let mut stack = vec![bottom];
            let mut top_reached = false;
            while let Some(cut) = stack.pop() {
                if cut == lens {
                    top_reached = true;
                    break;
                }
                for p in 0..lens.len() {
                    if cut[p] == lens[p] {
                        continue;
                    }
                    let mut next = cut.clone();
                    next[p] += 1;
                    if consistent(&self.events, &next)
                        && !self.holds(&next)
                        && !seen.contains(&next)
                    {
                        seen.push(next.clone());
                        stack.push(next);
                    }
                }
            }
            !top_reached
        };
        Verdict { possibly, definitely }
    }
}

/// The four conjunctive detector paths, as verdicts.
fn detector_verdicts(
    trace: &ExecutionTrace,
    conjuncts: &[Conjunct],
    initial: &WorldState,
    delay: &DelayModel,
) -> [(&'static str, Verdict); 4] {
    let pred = Predicate::Conjunctive(conjuncts.to_vec());
    let mut streaming = StreamingModal::new(&pred, initial, trace.n, hold_back(delay));
    for r in &trace.log.reports {
        streaming.offer(r);
    }
    assert_eq!(streaming.late_reports(), 0, "2Δ + 1 ms of hold-back releases in order");
    let occ = detect_conjunctive(trace, conjuncts, initial, StampFamily::StrobeVector);
    [
        ("modal_status", Verdict::of(modal_status(trace, &pred, initial))),
        ("modal_status_streaming", Verdict::of(modal_status_streaming(trace, &pred, initial))),
        ("StreamingModal", Verdict::of(streaming.seal())),
        (
            "detect_conjunctive",
            Verdict { possibly: !occ.is_empty(), definitely: occ.iter().any(|o| o.definitely) },
        ),
    ]
}

#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    skipped: usize,
    ends_false: usize,
    possibly: usize,
    definitely: usize,
    /// Cases with a conjunct still true at the end where `modal_status`
    /// reported less than the oracle.
    misses: usize,
}

#[test]
fn conjunctive_modalities_match_the_cut_lattice() {
    let mut tally = Tally::default();
    for doors in 2..=4 {
        for delay in delays() {
            for seed in 0..SEEDS {
                let (scenario, trace) = tiny(doors, &delay, seed);
                let initial = scenario.timeline.initial_state();
                for width in 2..=doors.min(3) {
                    for k in 0..=1 {
                        let conjuncts: Vec<Conjunct> = (0..width).map(|d| busy(d, k)).collect();
                        let Some(case) = ConjunctiveCase::new(&trace, &conjuncts, &initial) else {
                            tally.skipped += 1;
                            continue;
                        };
                        tally.cases += 1;
                        let oracle = case.verdict();
                        tally.possibly += usize::from(oracle.possibly);
                        tally.definitely += usize::from(oracle.definitely);
                        assert!(!oracle.definitely || oracle.possibly, "Definitely ⇒ Possibly");
                        let verdicts = detector_verdicts(&trace, &conjuncts, &initial, &delay);
                        let at = format!("doors {doors} {delay:?} seed {seed} width {width} k {k}");
                        if !case.ends_true() {
                            tally.ends_false += 1;
                            for (name, v) in verdicts {
                                assert_eq!(v, oracle, "{name} at {at}");
                            }
                            continue;
                        }
                        for (name, v) in verdicts {
                            assert!(
                                (!v.possibly || oracle.possibly)
                                    && (!v.definitely || oracle.definitely),
                                "{name} over-reports at {at}: {v:?} vs oracle {oracle:?}"
                            );
                        }
                        tally.misses += usize::from(verdicts[0].1 != oracle);
                    }
                }
            }
        }
    }
    println!("conjunctive oracle: {tally:?}");
    assert!(tally.cases > 1_000, "the grid must be dense: {tally:?}");
    assert!(tally.ends_false > tally.cases / 8, "many cases end false: {tally:?}");
    assert!(tally.possibly > 0 && tally.definitely > 0, "both modalities fire: {tally:?}");
    assert!(tally.definitely < tally.possibly, "and they differ: {tally:?}");
}

/// The minimised trailing-interval miss. Door 0 is busy from its 3rd report
/// to its 6th and last; door 1 becomes busy only after that report. Door 0
/// never leaves the busy state, so a consistent cut holds both conjuncts,
/// and with Δ = 0 every path ⊥ → ⊤ passes through one. The detectors close
/// door 0's trailing interval at its last report's stamp, which surely
/// precedes door 1's opening, and report nothing.
#[test]
fn trailing_interval_miss_is_pinned() {
    let delay = DelayModel::Synchronous;
    let (scenario, trace) = tiny(2, &delay, 8);
    let initial = scenario.timeline.initial_state();
    let conjuncts = vec![busy(0, 0), busy(1, 0)];
    let case = ConjunctiveCase::new(&trace, &conjuncts, &initial).expect("small enough");
    assert_eq!(case.truth[0].len(), 7, "door 0 reports six times");
    assert_eq!(case.truth[0][2..], [false, true, true, true, true], "busy from its 3rd report on");
    let door0_last = case.events[0].last().expect("door 0 reports");
    let door1_rise = case.truth[1].iter().position(|&t| t).expect("door 1 becomes busy");
    assert!(hb(door0_last, &case.events[1][door1_rise - 1]), "door 1 opens after door 0's last");

    assert_eq!(case.verdict(), Verdict { possibly: true, definitely: true }, "oracle");
    let pred = Predicate::Conjunctive(conjuncts.clone());
    assert_eq!(
        modal_status(&trace, &pred, &initial),
        ModalStatus { possibly: 0, definitely: 0, holding_now: false },
        "today's answer: the trailing interval is closed at the last report"
    );
    for (name, v) in detector_verdicts(&trace, &conjuncts, &initial, &delay) {
        assert_eq!(v, Verdict { possibly: false, definitely: false }, "{name}");
    }
}

/// What a replay orders a report by, given its position in the root's log.
type Reading = fn(usize, &ReceivedReport) -> i128;

/// The reading each replayed discipline orders reports by, written from its
/// definition: strobe scalar, truth, ε-synced reading, raw reading, or
/// position in the root's log. Ties break by `(process, sense_seq)`.
const REPLAYED: [(Discipline, Reading); 5] = [
    (Discipline::ScalarStrobe, |_, r| i128::from(r.report.stamps.strobe_scalar.value)),
    (Discipline::Oracle, |_, r| i128::from(r.report.stamps.truth.as_nanos())),
    (Discipline::SyncedPhysical, |_, r| i128::from(r.report.stamps.synced.0)),
    (Discipline::UnsyncedPhysical, |_, r| i128::from(r.report.stamps.physical.0)),
    (Discipline::Arrival, |pos, _| pos as i128),
];

/// The occurrences of `pred` when the reports are applied in `order`: a
/// rising edge opens one at the report's truth time, a falling edge closes
/// it, and one still open at the end has no end.
fn replay<'a>(
    pred: &Predicate,
    initial: &WorldState,
    order: impl Iterator<Item = &'a ReceivedReport>,
) -> Vec<Detection> {
    let mut applied = HashMap::new();
    let mut holds = pred.eval(&reader(initial, &applied));
    let mut open = holds.then_some(SimTime::ZERO);
    let mut found = Vec::new();
    for r in order {
        applied.insert(r.report.key, r.report.value);
        let now = pred.eval(&reader(initial, &applied));
        match (holds, now) {
            (false, true) => open = Some(r.report.stamps.truth),
            (true, false) => found.push(Detection {
                start: open.take().expect("open"),
                end: Some(r.report.stamps.truth),
                borderline: false,
            }),
            _ => {}
        }
        holds = now;
    }
    found.extend(open.map(|start| Detection { start, end: None, borderline: false }));
    found
}

#[test]
fn relational_occurrences_match_the_scalar_replay() {
    let mut cases = 0;
    let mut occurrences = 0;
    for doors in 2..=4 {
        for delay in delays() {
            for seed in 0..SEEDS {
                let (scenario, trace) = tiny(doors, &delay, seed);
                let initial = scenario.timeline.initial_state();
                let pred = Predicate::occupancy_over(doors, 1);
                let at = format!("doors {doors} {delay:?} seed {seed}");

                let replays: Vec<Vec<Detection>> = REPLAYED
                    .iter()
                    .map(|&(discipline, reading)| {
                        let mut order: Vec<_> = trace.log.reports.iter().enumerate().collect();
                        order.sort_by_key(|&(pos, r)| {
                            (reading(pos, r), r.report.process, r.report.sense_seq)
                        });
                        let expected = replay(&pred, &initial, order.into_iter().map(|(_, r)| r));
                        let found = detect_occurrences(&trace, &pred, &initial, discipline);
                        assert_eq!(
                            found, expected,
                            "detect_occurrences under {discipline:?} at {at}"
                        );
                        expected
                    })
                    .collect();
                // The scalar replay: what every scalar-strobe detector must report.
                let oracle = &replays[0];

                let mut streaming =
                    StreamingModal::new(&pred, &initial, trace.n, hold_back(&delay));
                for r in &trace.log.reports {
                    streaming.offer(r);
                }
                let (online, _) = streaming.readout();
                let closed = oracle.iter().filter(|d| d.end.is_some()).count();
                let open = oracle.last().filter(|d| d.end.is_none()).map(|d| d.start);
                assert_eq!(
                    (online.occurrences, online.holds, online.open_since),
                    (closed, open.is_some(), open),
                    "StreamingModal::readout at {at}"
                );
                let expected = ModalStatus {
                    possibly: oracle.len(),
                    definitely: oracle.len(),
                    holding_now: open.is_some(),
                };
                assert_eq!(modal_status(&trace, &pred, &initial), expected, "modal_status at {at}");
                assert_eq!(streaming.seal(), expected, "StreamingModal at {at}");
                cases += 1;
                occurrences += oracle.len();
            }
        }
    }
    println!("relational oracle: {cases} cases, {occurrences} occurrences");
    assert!(occurrences > cases / 2, "the occupancy predicate must fire");
}

#[test]
fn lattice_counts_match_brute_force() {
    let mut widest = 0;
    for doors in 2..=4 {
        for delay in delays() {
            for seed in 0..SEEDS {
                let (_, trace) = tiny(doors, &delay, seed);
                let mut senses = trace.log.sense_events();
                senses.sort_by_key(|e| (e.process, e.seq));
                let mut events = vec![Vec::new(); trace.n];
                for e in senses.iter().filter(|e| e.process < trace.n) {
                    events[e.process].push(e.stamps.strobe_vector.as_slice().to_vec());
                }
                let lens: Vec<usize> = events.iter().map(Vec::len).collect();
                let total: usize = lens.iter().sum();
                let mut levels = vec![0u64; total + 1];
                for cut in all_cuts(&lens) {
                    if consistent(&events, &cut) {
                        levels[cut.iter().sum::<usize>()] += 1;
                    }
                }
                let states: u64 = levels.iter().sum();
                widest = widest.max(*levels.iter().max().expect("⊥"));

                let history = History::new(
                    events
                        .iter()
                        .map(|p| p.iter().map(|s| VectorStamp::from_slice(s)).collect())
                        .collect(),
                );
                let stats = enumerate_lattice(&history, u64::MAX);
                let at = format!("doors {doors} {delay:?} seed {seed}");
                assert!(!stats.truncated, "{at}");
                assert_eq!(stats.states, states, "states at {at}");
                assert_eq!(stats.levels, levels, "levels at {at}");
            }
        }
    }
    assert!(widest > 1, "some Δ > 0 world must have concurrent events");
}
