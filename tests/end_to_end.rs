//! End-to-end integration: world generation → execution → detection →
//! scoring, across all four scenarios and all clock disciplines.

use pervasive_time::prelude::*;
use pervasive_time::world::scenarios::hospital::ATTR_INTRUSION;

fn exhibition_scenario(seed: u64) -> (Scenario, Predicate, SimTime) {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(600),
        capacity: 110,
    };
    (exhibition::generate(&params, seed), Predicate::occupancy_over(4, 110), params.duration)
}

#[test]
fn oracle_discipline_reproduces_truth_on_every_scenario() {
    // Exhibition.
    let (s, pred, _) = exhibition_scenario(3);
    let trace = run_execution(&s, &ExecutionConfig::default());
    let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    assert_eq!(det.len(), truth.len());

    // Office.
    let s = office::generate(&OfficeParams::default(), 4);
    let pred = Predicate::hot_and_occupied(1, 30.0);
    let trace = run_execution(&s, &ExecutionConfig::default());
    let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    assert_eq!(det.len(), truth.len());

    // Hospital.
    let s = hospital::generate(&HospitalParams::default(), 5);
    let pred = Predicate::Relational(Expr::var(AttrKey::new(4, ATTR_INTRUSION)));
    let trace = run_execution(&s, &ExecutionConfig::default());
    let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    assert_eq!(det.len(), truth.len());

    // Habitat.
    let s = habitat::generate(&HabitatParams::default(), 6);
    let pred = Predicate::Relational(Expr::var(AttrKey::new(0, 0)).ge(Expr::int(2)));
    let trace = run_execution(&s, &ExecutionConfig::default());
    let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    assert_eq!(det.len(), truth.len());
}

#[test]
fn all_disciplines_are_reasonable_at_small_delta() {
    // With Δ = 10ms and events seconds apart, every discipline should be
    // near-perfect (races essentially never happen).
    let (s, pred, horizon) = exhibition_scenario(9);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(10)),
        ..Default::default()
    };
    let trace = run_execution(&s, &cfg);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    assert!(!truth.is_empty(), "fixture must have occurrences");
    for d in Discipline::ALL {
        let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), d);
        let r = score(
            &det,
            &truth,
            horizon,
            SimDuration::from_millis(100),
            BorderlinePolicy::AsPositive,
        );
        assert!(
            r.recall() > 0.9,
            "discipline {} recall {} too low at tiny Δ",
            d.label(),
            r.recall()
        );
    }
}

#[test]
fn habitat_regime_strobes_are_near_perfect() {
    // The paper's target regime: event rate ≪ 1/Δ ⇒ strobe detection is
    // essentially exact even with Δ = 1 s.
    let s = habitat::generate(&HabitatParams::default(), 12);
    let pred = Predicate::Relational(Expr::var(AttrKey::new(2, 0)).ge(Expr::int(1)));
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_secs(1)),
        ..Default::default()
    };
    let trace = run_execution(&s, &cfg);
    let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
    let det =
        detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::VectorStrobe);
    let r = score(
        &det,
        &truth,
        SimTime::from_secs(86_400),
        SimDuration::from_secs(3),
        BorderlinePolicy::AsPositive,
    );
    assert_eq!(r.false_negatives, 0, "rare events: nothing should be missed");
    assert!(r.precision() > 0.95, "precision {}", r.precision());
}

#[test]
fn actuation_loop_reacts_to_detection() {
    use pervasive_time::core::{ReceivedReport, Report};
    use pervasive_time::world::AttrValue as AV;

    struct AlarmRule {
        fired: bool,
    }
    impl ActuationRule for AlarmRule {
        fn on_report(
            &mut self,
            report: &Report,
            _h: &[ReceivedReport],
        ) -> Vec<(usize, AttrKey, AV)> {
            if !self.fired && report.value.as_int() >= 3 {
                self.fired = true;
                vec![(report.process, report.key, AV::Bool(true))]
            } else {
                vec![]
            }
        }
    }

    let (s, _, _) = exhibition_scenario(21);
    let trace = pervasive_time::core::run_execution_with_rule(
        &s,
        &ExecutionConfig::default(),
        Box::new(AlarmRule { fired: false }),
    );
    assert_eq!(trace.log.actuations.len(), 1);
    let target = trace.log.actuations[0].target;
    let actuated = trace.log.events.iter().any(|e| e.process == target && e.kind.tag() == 'a');
    assert!(actuated, "the commanded sensor must record an 'a' event");
    // The actuate event is causally after the root's receive: its vector
    // clock must dominate the root's component.
    let a_event = trace.log.events.iter().find(|e| e.kind.tag() == 'a').expect("actuate event");
    assert!(
        a_event.stamps.vector.get(trace.root_id()) > 0,
        "actuation carries the root's causal influence (sense→send→receive→actuate)"
    );
}

#[test]
fn strobe_throttling_trades_messages_for_accuracy() {
    let (s, pred, horizon) = exhibition_scenario(33);
    let run_with = |every: usize| {
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(500)),
            strobes: StrobePolicy { every, ..Default::default() },
            seed: 1,
            ..Default::default()
        };
        let trace = run_execution(&s, &cfg);
        let det = detect_occurrences(
            &trace,
            &pred,
            &s.timeline.initial_state(),
            Discipline::VectorStrobe,
        );
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        let r =
            score(&det, &truth, horizon, SimDuration::from_secs(2), BorderlinePolicy::AsPositive);
        // F1: the harmonic mean of precision and recall.
        let (p, q) = (r.precision(), r.recall());
        (trace.net.broadcasts, if p + q == 0.0 { 0.0 } else { 2.0 * p * q / (p + q) })
    };
    let (msgs_every, f1_every) = run_with(1);
    let (msgs_throttled, f1_throttled) = run_with(8);
    assert!(msgs_throttled < msgs_every / 4, "throttling cuts broadcasts");
    assert!(
        f1_throttled <= f1_every + 0.05,
        "throttling must not magically improve accuracy ({f1_throttled} vs {f1_every})"
    );
}
