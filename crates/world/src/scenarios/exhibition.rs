//! The exhibition-hall scenario (paper §5).
//!
//! "Consider a big exhibition hall … with d doors for entry-cum-exit and a
//! room capacity of 200 people. At each door, a sensor detects the movement
//! of people in and out … Each sensor is modeled as a process Pᵢ and tracks
//! two variables: xᵢ, the number of people entered through the monitored
//! door, and yᵢ, the number that have left. The global predicate … is
//! φ = Σᵢ (xᵢ − yᵢ) > 200."
//!
//! People arrive as a Poisson process, pick an entry door uniformly, stay
//! an exponential dwell time, and leave through a (possibly different)
//! uniformly chosen door. The **person is the covert channel**: the exit
//! event is `caused_by` the entry event, a causal edge the sensors cannot
//! observe (they see only per-door counter changes).

use serde::{Deserialize, Serialize};

use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::object::{AttrKey, AttrValue, ObjectSpec, WorldState};
use crate::timeline::{Timeline, WorldEvent};

use super::{Scenario, SensorAssignment};

/// Attribute index of xᵢ (entries) on a door object.
pub const ATTR_X: usize = 0;
/// Attribute index of yᵢ (exits) on a door object.
pub const ATTR_Y: usize = 1;

/// Parameters of the exhibition-hall generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExhibitionParams {
    /// Number of doors d (= number of sensor processes).
    pub doors: usize,
    /// Poisson arrival rate, people per second.
    pub arrival_rate_hz: f64,
    /// Mean stay inside the hall.
    pub mean_stay: SimDuration,
    /// Length of the run.
    pub duration: SimTime,
    /// Room capacity for the occupancy predicate (the paper's example
    /// uses 200).
    pub capacity: i64,
}

impl Default for ExhibitionParams {
    fn default() -> Self {
        ExhibitionParams {
            doors: 4,
            arrival_rate_hz: 1.0,
            mean_stay: SimDuration::from_secs(180),
            duration: SimTime::from_secs(1800),
            capacity: 200,
        }
    }
}

/// Generate the scenario deterministically from `params` and `seed`.
pub fn generate(params: &ExhibitionParams, seed: u64) -> Scenario {
    assert!(params.doors > 0, "need at least one door");
    let factory = RngFactory::new(seed);
    let mut arrivals_rng = factory.labeled_stream("exhibition.arrivals");
    let mut doors_rng = factory.labeled_stream("exhibition.doors");
    let mut stay_rng = factory.labeled_stream("exhibition.stay");

    let objects: Vec<ObjectSpec> = (0..params.doors)
        .map(|d| ObjectSpec {
            id: d,
            name: format!("door-{d}"),
            attrs: vec![("x".into(), AttrValue::Int(0)), ("y".into(), AttrValue::Int(0))],
        })
        .collect();

    let mut x = vec![0i64; params.doors];
    let mut y = vec![0i64; params.doors];
    let mut events: Vec<WorldEvent> = Vec::new();
    // Departures pending: (time, exit door, entry event id).
    let mut departures: Vec<(SimTime, usize, usize)> = Vec::new();

    let mut t = SimTime::ZERO;
    let mean_gap = 1.0 / params.arrival_rate_hz.max(1e-12);
    loop {
        t += arrivals_rng.exponential_duration(SimDuration::from_secs_f64(mean_gap));
        if t > params.duration {
            break;
        }
        // Flush departures due before this arrival.
        departures.sort_by_key(|&(at, _, _)| at);
        while let Some(&(at, door, entry_id)) = departures.first() {
            if at > t {
                break;
            }
            departures.remove(0);
            y[door] += 1;
            events.push(WorldEvent {
                id: events.len(),
                at,
                key: AttrKey::new(door, ATTR_Y),
                value: AttrValue::Int(y[door]),
                caused_by: vec![entry_id],
            });
        }
        let door_in = doors_rng.index(params.doors);
        x[door_in] += 1;
        let entry_id = events.len();
        events.push(WorldEvent {
            id: entry_id,
            at: t,
            key: AttrKey::new(door_in, ATTR_X),
            value: AttrValue::Int(x[door_in]),
            caused_by: vec![],
        });
        let leave_at = t + stay_rng.exponential_duration(params.mean_stay);
        if leave_at <= params.duration {
            departures.push((leave_at, doors_rng.index(params.doors), entry_id));
        }
    }
    // Flush remaining departures within the horizon.
    departures.sort_by_key(|&(at, _, _)| at);
    for (at, door, entry_id) in departures {
        if at > params.duration {
            continue;
        }
        y[door] += 1;
        events.push(WorldEvent {
            id: events.len(),
            at,
            key: AttrKey::new(door, ATTR_Y),
            value: AttrValue::Int(y[door]),
            caused_by: vec![entry_id],
        });
    }

    let sensing = SensorAssignment {
        watches: (0..params.doors)
            .map(|d| vec![AttrKey::new(d, ATTR_X), AttrKey::new(d, ATTR_Y)])
            .collect(),
    };

    Scenario {
        name: format!("exhibition-hall(d={}, λ={}/s)", params.doors, params.arrival_rate_hz),
        timeline: Timeline::new(objects, events),
        sensing,
    }
}

/// Current hall occupancy Σᵢ (xᵢ − yᵢ) in a world state.
pub fn occupancy(state: &WorldState, doors: usize) -> i64 {
    (0..doors)
        .map(|d| state.get_int(AttrKey::new(d, ATTR_X)) - state.get_int(AttrKey::new(d, ATTR_Y)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::truth_intervals;

    /// The §5 predicate: occupancy strictly above capacity.
    fn over_capacity(doors: usize, capacity: i64) -> impl Fn(&WorldState) -> bool {
        move |state| occupancy(state, doors) > capacity
    }

    fn small() -> ExhibitionParams {
        ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 2.0,
            mean_stay: SimDuration::from_secs(30),
            duration: SimTime::from_secs(600),
            capacity: 50,
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&small(), 42);
        let b = generate(&small(), 42);
        assert_eq!(a.timeline.events, b.timeline.events);
        let c = generate(&small(), 43);
        assert_ne!(a.timeline.events, c.timeline.events);
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let s = generate(&small(), 1);
        let mut last = SimTime::ZERO;
        for e in &s.timeline.events {
            assert!(e.at >= last);
            assert!(e.at <= SimTime::from_secs(600));
            last = e.at;
        }
        assert!(s.timeline.len() > 500, "≈2/s arrivals for 600s plus departures");
    }

    #[test]
    fn occupancy_never_negative_and_counters_monotone() {
        let s = generate(&small(), 7);
        let mut prev = WorldState::initial(&s.timeline.objects);
        s.timeline.replay(|state, e| {
            let occ = occupancy(state, 3);
            assert!(occ >= 0, "occupancy went negative at {}", e.at);
            // Counters are monotone: the new value exceeds the old.
            assert!(e.value.as_int() == prev.get_int(e.key) + 1);
            prev = state.clone();
        });
    }

    #[test]
    fn every_exit_is_caused_by_an_entry() {
        let s = generate(&small(), 9);
        let mut entries = 0;
        let mut exits = 0;
        for e in &s.timeline.events {
            if e.key.attr == ATTR_Y {
                exits += 1;
                assert_eq!(e.caused_by.len(), 1, "exit must have its covert cause");
                let cause = &s.timeline.events[e.caused_by[0]];
                assert_eq!(cause.key.attr, ATTR_X, "cause is an entry");
                assert!(cause.at < e.at, "cause precedes effect");
            } else {
                entries += 1;
                assert!(e.caused_by.is_empty(), "entries are spontaneous");
            }
        }
        assert!(exits <= entries);
        assert!(exits > 0, "some people left during the run");
    }

    #[test]
    fn sensing_assignment_covers_all_doors() {
        let s = generate(&small(), 3);
        assert_eq!(s.num_processes(), 3);
        for d in 0..3 {
            assert_eq!(s.sensing.process_for(AttrKey::new(d, ATTR_X)), Some(d));
            assert_eq!(s.sensing.process_for(AttrKey::new(d, ATTR_Y)), Some(d));
        }
    }

    #[test]
    fn over_capacity_predicate_fires_under_load() {
        // Heavy load: 10/s arriving, staying 60s ⇒ steady state ≈ 600 ≫ 50.
        let params = ExhibitionParams {
            doors: 2,
            arrival_rate_hz: 10.0,
            mean_stay: SimDuration::from_secs(60),
            duration: SimTime::from_secs(300),
            capacity: 50,
        };
        let s = generate(&params, 11);
        let ivs = truth_intervals(&s.timeline, over_capacity(2, 50));
        assert!(!ivs.is_empty(), "the hall must exceed capacity at some point");
    }

    #[test]
    fn light_load_never_exceeds_capacity() {
        let params = ExhibitionParams {
            doors: 2,
            arrival_rate_hz: 0.05,
            mean_stay: SimDuration::from_secs(10),
            duration: SimTime::from_secs(600),
            capacity: 50,
        };
        let s = generate(&params, 11);
        let ivs = truth_intervals(&s.timeline, over_capacity(2, 50));
        assert!(ivs.is_empty(), "≈0.5 expected occupancy cannot reach 50");
    }

    #[test]
    fn event_rate_matches_parameters() {
        let s = generate(&small(), 13);
        // Arrivals 2/s plus roughly equal departures ⇒ ≈4 events/s.
        let rate = s.event_rate_hz();
        assert!((2.5..6.0).contains(&rate), "rate = {rate}");
    }
}
