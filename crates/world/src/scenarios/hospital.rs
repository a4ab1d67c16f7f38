//! The hospital scenario (paper §5).
//!
//! "Consider a hospital where each visitor and patient has a RFID badge …
//! we could monitor the number of visitors in the waiting room. Or when a
//! visitor enters the infectious diseases ward."
//!
//! Wards form a hub-and-spoke graph (ward 0 is the waiting room/lobby).
//! Visitors walk between wards; each ward object tracks its visitor count,
//! and a distinguished *infectious* ward additionally raises an `intrusion`
//! flag while any visitor is inside. Visitor movements are covertly
//! chained, like the office scenario.

use serde::{Deserialize, Serialize};

use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::mobility::{RoomGraph, RoomWalker};
use crate::object::{AttrKey, AttrValue, ObjectSpec};
use crate::timeline::{Timeline, WorldEvent};

use super::{Scenario, SensorAssignment};

/// Attribute index of a ward's visitor count.
pub const ATTR_COUNT: usize = 0;
/// Attribute index of a ward's intrusion flag (meaningful on the
/// infectious ward; always false elsewhere).
pub const ATTR_INTRUSION: usize = 1;

/// Parameters of the hospital generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HospitalParams {
    /// Number of wards including the waiting room (ward 0).
    pub wards: usize,
    /// Index of the infectious-diseases ward.
    pub infectious_ward: usize,
    /// Number of visitors.
    pub visitors: usize,
    /// Mean dwell time in a ward.
    pub mean_dwell: SimDuration,
    /// Length of the run.
    pub duration: SimTime,
}

impl Default for HospitalParams {
    fn default() -> Self {
        HospitalParams {
            wards: 5,
            infectious_ward: 4,
            visitors: 6,
            mean_dwell: SimDuration::from_secs(300),
            duration: SimTime::from_secs(7200),
        }
    }
}

/// Generate the scenario deterministically from `params` and `seed`.
pub fn generate(params: &HospitalParams, seed: u64) -> Scenario {
    assert!(params.wards > 1, "need a lobby and at least one ward");
    assert!(params.infectious_ward < params.wards, "infectious ward out of range");
    let factory = RngFactory::new(seed);
    let graph = RoomGraph::lobby(params.wards);

    let objects: Vec<ObjectSpec> = (0..params.wards)
        .map(|w| ObjectSpec {
            id: w,
            name: if w == 0 {
                "waiting-room".into()
            } else if w == params.infectious_ward {
                format!("ward-{w}-infectious")
            } else {
                format!("ward-{w}")
            },
            attrs: vec![
                ("count".into(), AttrValue::Int(if w == 0 { params.visitors as i64 } else { 0 })),
                ("intrusion".into(), AttrValue::Bool(false)),
            ],
        })
        .collect();

    let mut count = vec![0i64; params.wards];
    count[0] = params.visitors as i64;
    let mut events: Vec<WorldEvent> = Vec::new();
    let mut walkers: Vec<RoomWalker> = (0..params.visitors)
        .map(|v| {
            let mut rng = factory.labeled_stream(&format!("hospital.visitor.{v}"));
            RoomWalker::new(0, params.mean_dwell, &mut rng)
        })
        .collect();
    let mut move_rngs: Vec<_> = (0..params.visitors)
        .map(|v| factory.labeled_stream(&format!("hospital.visitor.{v}.moves")))
        .collect();
    let mut chains: Vec<Option<usize>> = vec![None; params.visitors];

    loop {
        let next: Option<(SimTime, usize)> = walkers
            .iter()
            .enumerate()
            .map(|(v, w)| (w.next_move, v))
            .filter(|&(t, _)| t <= params.duration)
            .min();
        let Some((t, v)) = next else { break };
        let (old, new) = walkers[v].maybe_move(t, &graph, &mut move_rngs[v]).expect("due");
        if old == new {
            continue;
        }
        let prev_chain: Vec<usize> = chains[v].into_iter().collect();
        count[old] -= 1;
        let leave_id = events.len();
        events.push(WorldEvent {
            id: leave_id,
            at: t,
            key: AttrKey::new(old, ATTR_COUNT),
            value: AttrValue::Int(count[old]),
            caused_by: prev_chain,
        });
        count[new] += 1;
        let enter_id = events.len();
        events.push(WorldEvent {
            id: enter_id,
            at: t,
            key: AttrKey::new(new, ATTR_COUNT),
            value: AttrValue::Int(count[new]),
            caused_by: vec![leave_id],
        });
        chains[v] = Some(enter_id);

        // Intrusion flag on the infectious ward.
        let iw = params.infectious_ward;
        if old == iw && count[iw] == 0 {
            events.push(WorldEvent {
                id: events.len(),
                at: t,
                key: AttrKey::new(iw, ATTR_INTRUSION),
                value: AttrValue::Bool(false),
                caused_by: vec![leave_id],
            });
        }
        if new == iw && count[iw] == 1 {
            events.push(WorldEvent {
                id: events.len(),
                at: t,
                key: AttrKey::new(iw, ATTR_INTRUSION),
                value: AttrValue::Bool(true),
                caused_by: vec![enter_id],
            });
        }
    }

    let sensing = SensorAssignment {
        watches: (0..params.wards)
            .map(|w| vec![AttrKey::new(w, ATTR_COUNT), AttrKey::new(w, ATTR_INTRUSION)])
            .collect(),
    };

    Scenario {
        name: format!("hospital(wards={}, visitors={})", params.wards, params.visitors),
        timeline: Timeline::new(objects, events),
        sensing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::truth_intervals;
    use crate::object::WorldState;

    /// The waiting room is overcrowded: more than `limit` visitors in ward 0.
    fn waiting_room_over(limit: i64) -> impl Fn(&WorldState) -> bool {
        move |state| state.get_int(AttrKey::new(0, ATTR_COUNT)) > limit
    }

    /// Someone is inside the infectious ward.
    fn infectious_ward_breached(ward: usize) -> impl Fn(&WorldState) -> bool {
        move |state| state.get_bool(AttrKey::new(ward, ATTR_INTRUSION))
    }

    fn small() -> HospitalParams {
        HospitalParams {
            wards: 4,
            infectious_ward: 3,
            visitors: 5,
            mean_dwell: SimDuration::from_secs(60),
            duration: SimTime::from_secs(3600),
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(&small(), 2).timeline.events, generate(&small(), 2).timeline.events);
    }

    /// Collect the state at each *instant boundary* (after all events
    /// sharing a timestamp have applied). A leave/enter pair shares one
    /// timestamp, so invariants hold between instants, not between the two
    /// halves of a move.
    fn states_at_boundaries(s: &Scenario) -> Vec<crate::object::WorldState> {
        let mut out = Vec::new();
        let mut pending: Option<(psn_sim::time::SimTime, crate::object::WorldState)> = None;
        s.timeline.replay(|state, e| {
            if let Some((t, st)) = pending.take() {
                if t != e.at {
                    out.push(st);
                }
            }
            pending = Some((e.at, state.clone()));
        });
        if let Some((_, st)) = pending {
            out.push(st);
        }
        out
    }

    #[test]
    fn counts_conserve_visitors() {
        let s = generate(&small(), 4);
        for state in states_at_boundaries(&s) {
            let total: i64 = (0..4).map(|w| state.get_int(AttrKey::new(w, ATTR_COUNT))).sum();
            assert_eq!(total, 5, "visitors are conserved");
            for w in 0..4 {
                assert!(state.get_int(AttrKey::new(w, ATTR_COUNT)) >= 0);
            }
        }
    }

    #[test]
    fn intrusion_tracks_infectious_count() {
        let s = generate(&small(), 4);
        for state in states_at_boundaries(&s) {
            let c = state.get_int(AttrKey::new(3, ATTR_COUNT));
            let flag = state.get_bool(AttrKey::new(3, ATTR_INTRUSION));
            assert_eq!(flag, c > 0, "intrusion flag must mirror occupancy");
        }
    }

    #[test]
    fn breach_predicate_fires() {
        let s = generate(&small(), 6);
        let ivs = truth_intervals(&s.timeline, infectious_ward_breached(3));
        assert!(!ivs.is_empty(), "with 5 wandering visitors the ward gets entered");
    }

    #[test]
    fn waiting_room_starts_full() {
        let s = generate(&small(), 6);
        let ivs = truth_intervals(&s.timeline, waiting_room_over(3));
        assert!(!ivs.is_empty());
        assert_eq!(ivs[0].start, SimTime::ZERO, "all 5 visitors start in the lobby");
    }

    #[test]
    fn enter_caused_by_leave() {
        let s = generate(&small(), 8);
        let mut seen_pair = false;
        for e in &s.timeline.events {
            if e.key.attr == ATTR_COUNT && !e.caused_by.is_empty() {
                let c = &s.timeline.events[e.caused_by[0]];
                assert!(c.at <= e.at);
                seen_pair = true;
            }
        }
        assert!(seen_pair);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn infectious_ward_validated() {
        let params = HospitalParams { infectious_ward: 9, ..small() };
        let _ = generate(&params, 0);
    }
}
