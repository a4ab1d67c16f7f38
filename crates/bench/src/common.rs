//! Shared scaffolding for the experiments.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use psn_clocks::VectorStamp;
use psn_core::{ExecutionConfig, ExecutionTrace};
use psn_lattice::History;
use psn_sim::delay::DelayModel;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::{Scenario, SensorAssignment};
use psn_world::{AttrKey, AttrValue, ObjectSpec, Timeline, WorldEvent};

/// A controlled two-sensor scenario: attribute A (object 0) is true during
/// `[a_on, a_off)` and attribute B (object 1) during `[b_on, b_off)` — the
/// knob experiments E1 and E6 turn to create precise overlaps/races.
pub(crate) fn two_pulse_scenario(
    a_on: SimTime,
    a_off: SimTime,
    b_on: SimTime,
    b_off: SimTime,
) -> Scenario {
    let objects = vec![
        ObjectSpec { id: 0, name: "A".into(), attrs: vec![("v".into(), AttrValue::Bool(false))] },
        ObjectSpec { id: 1, name: "B".into(), attrs: vec![("v".into(), AttrValue::Bool(false))] },
    ];
    let ev = |id: usize, at: SimTime, obj: usize, v: bool| WorldEvent {
        id,
        at,
        key: AttrKey::new(obj, 0),
        value: AttrValue::Bool(v),
        caused_by: vec![],
    };
    let events = vec![
        ev(0, a_on, 0, true),
        ev(1, a_off, 0, false),
        ev(2, b_on, 1, true),
        ev(3, b_off, 1, false),
    ];
    Scenario {
        name: "two-pulse".into(),
        timeline: Timeline::new(objects, events),
        sensing: SensorAssignment {
            watches: vec![vec![AttrKey::new(0, 0)], vec![AttrKey::new(1, 0)]],
        },
    }
}

/// The conjunction A ∧ B over the two-pulse scenario.
pub(crate) fn two_pulse_predicate() -> psn_predicates::Predicate {
    psn_predicates::Predicate::Relational(
        psn_predicates::Expr::var(AttrKey::new(0, 0))
            .and(psn_predicates::Expr::var(AttrKey::new(1, 0))),
    )
}

/// Extract the strobe-vector stamp history of the *sense* events, per
/// sensor process — the input to the slim-lattice measurements (E4).
pub fn strobe_history(trace: &ExecutionTrace) -> History {
    let mut stamps: Vec<Vec<VectorStamp>> = vec![Vec::new(); trace.n];
    let mut events: Vec<_> = trace.log.sense_events();
    events.sort_by_key(|e| (e.process, e.seq));
    for e in events {
        if e.process < trace.n {
            stamps[e.process].push(e.stamps.strobe_vector.clone());
        }
    }
    History::new(stamps)
}

/// Process-wide engine shard count for experiment cells (`experiments
/// --shards N`). `1` (default) runs one lane.
static SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Process-wide delay floor in ms (`experiments --delay-floor-ms X`).
/// Raising the floor gives the conservative sharded engine a nonzero
/// lookahead — a pure Δ-bounded model draws from `[0, Δ]`, whose zero
/// minimum forces the sequential fallback.
static DELAY_FLOOR_MS: AtomicU64 = AtomicU64::new(0);

/// Set the shard count every subsequent `delta_config` cell runs on.
pub fn set_shards(k: usize) {
    SHARDS.store(k.max(1), Ordering::Relaxed);
}

/// The configured shard count.
pub fn shards() -> usize {
    SHARDS.load(Ordering::Relaxed)
}

/// Set the delay floor (minimum network delay, ms) for subsequent
/// `delta_config` cells. The CI shard-equivalence job raises this for
/// *both* the sequential and the sharded leg, so the two runs stay
/// comparable while the sharded one has real lookahead.
pub fn set_delay_floor_ms(ms: u64) {
    DELAY_FLOOR_MS.store(ms, Ordering::Relaxed);
}

/// The configured delay floor.
pub(crate) fn delay_floor() -> SimDuration {
    SimDuration::from_millis(DELAY_FLOOR_MS.load(Ordering::Relaxed))
}

/// A Δ-bounded execution config with the given Δ and seed, honoring the
/// process-wide [`set_shards`] / [`set_delay_floor_ms`] overrides.
pub(crate) fn delta_config(delta: SimDuration, seed: u64) -> ExecutionConfig {
    let floor = delay_floor();
    let delay = if delta.is_zero() && floor.is_zero() {
        DelayModel::Synchronous
    } else {
        DelayModel::DeltaBounded { min: floor, max: delta.max(floor) }
    };
    ExecutionConfig { delay, seed, shards: shards(), ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_core::run_execution;
    use psn_world::truth_intervals;

    #[test]
    fn two_pulse_truth_is_the_overlap() {
        let s = two_pulse_scenario(
            SimTime::from_millis(100),
            SimTime::from_millis(300),
            SimTime::from_millis(250),
            SimTime::from_millis(500),
        );
        let pred = two_pulse_predicate();
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        assert_eq!(truth.len(), 1);
        assert_eq!(truth[0].start, SimTime::from_millis(250));
        assert_eq!(truth[0].end, Some(SimTime::from_millis(300)));
    }

    #[test]
    fn disjoint_pulses_never_hold() {
        let s = two_pulse_scenario(
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            SimTime::from_millis(300),
            SimTime::from_millis(400),
        );
        let pred = two_pulse_predicate();
        assert!(truth_intervals(&s.timeline, |st| pred.eval_state(st)).is_empty());
    }

    #[test]
    fn strobe_history_shape() {
        let s = two_pulse_scenario(
            SimTime::from_millis(100),
            SimTime::from_millis(300),
            SimTime::from_millis(250),
            SimTime::from_millis(500),
        );
        let trace = run_execution(&s, &delta_config(SimDuration::from_millis(10), 1));
        let h = strobe_history(&trace);
        assert_eq!(h.num_processes(), 2);
        assert_eq!(h.total_events(), 4);
    }

    #[test]
    fn family_bytes_scale() {
        let s = two_pulse_scenario(
            SimTime::from_millis(100),
            SimTime::from_millis(300),
            SimTime::from_millis(250),
            SimTime::from_millis(500),
        );
        let trace = run_execution(&s, &delta_config(SimDuration::from_millis(10), 1));
        let [scalar, vector, _] = psn_core::family_bytes(trace.n, trace.net.broadcasts, 0);
        assert!(vector > scalar, "O(n) > O(1) payloads");
        assert_eq!(vector, scalar * 3, "n+1 = 3 components");
    }
}
