//! The world-plane event timeline and its covert-channel causality.
//!
//! A scenario generator produces a [`Timeline`]: the complete ground-truth
//! sequence of attribute changes, each optionally *caused by* earlier
//! events through the world plane's covert channels C (the person walking
//! between doors, the pen handed from Bob to Tom, the wind spreading the
//! fire — paper §2.1 and §4.1). The network plane can sense the events but
//! **cannot observe the causal edges**: detectors never see `caused_by`.
//! The edges exist so experiments can quantify exactly how much of the
//! world's causality the network plane misses.

use serde::{Deserialize, Serialize};

use psn_sim::time::SimTime;

use crate::object::{AttrKey, AttrValue, ObjectSpec, WorldState};

/// Identity of a world event: its index in the timeline.
pub type WorldEventId = usize;

/// One ground-truth attribute change in the world plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldEvent {
    /// Dense id (== index in the timeline).
    pub id: WorldEventId,
    /// Ground-truth time of the change.
    pub at: SimTime,
    /// Which attribute changed.
    pub key: AttrKey,
    /// The new value.
    pub value: AttrValue,
    /// Earlier events that caused this one **through covert channels** —
    /// invisible to the network plane.
    pub caused_by: Vec<WorldEventId>,
}

/// The complete ground truth of one scenario run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    /// The world objects.
    pub objects: Vec<ObjectSpec>,
    /// Events sorted by time (stable for ties).
    pub events: Vec<WorldEvent>,
}

impl Timeline {
    /// Build a timeline, sorting events by time (stable) and renumbering
    /// ids to match the sorted order. `caused_by` references are remapped.
    pub fn new(objects: Vec<ObjectSpec>, mut events: Vec<WorldEvent>) -> Self {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| (events[i].at, i));
        let mut remap = vec![0usize; events.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            remap[events[old_id].id] = new_id;
        }
        let mut sorted: Vec<WorldEvent> = order
            .into_iter()
            .map(|i| {
                std::mem::replace(
                    &mut events[i],
                    WorldEvent {
                        id: 0,
                        at: SimTime::ZERO,
                        key: AttrKey::new(0, 0),
                        value: AttrValue::Bool(false),
                        caused_by: Vec::new(),
                    },
                )
            })
            .collect();
        for (new_id, e) in sorted.iter_mut().enumerate() {
            e.id = new_id;
            for c in &mut e.caused_by {
                *c = remap[*c];
            }
            e.caused_by.retain(|&c| c < new_id);
        }
        Timeline { objects, events: sorted }
    }

    /// The initial world state.
    pub fn initial_state(&self) -> WorldState {
        WorldState::initial(&self.objects)
    }

    /// The duration from time zero to the last event.
    pub fn duration(&self) -> SimTime {
        self.events.last().map(|e| e.at).unwrap_or(SimTime::ZERO)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replay the timeline, calling `f(state, event)` with the state
    /// *after* applying each event.
    pub fn replay(&self, mut f: impl FnMut(&WorldState, &WorldEvent)) {
        let mut state = self.initial_state();
        for e in &self.events {
            state.set(e.key, e.value);
            f(&state, e);
        }
    }
}

#[cfg(test)]
impl Timeline {
    /// The exact world state at time `t` (after all events with `at ≤ t`).
    pub(crate) fn state_at(&self, t: SimTime) -> WorldState {
        let mut state = self.initial_state();
        for e in &self.events {
            if e.at > t {
                break;
            }
            state.set(e.key, e.value);
        }
        state
    }

    /// Ground-truth causality through covert channels: is there a causal
    /// path from event `a` to event `b`? (Reflexive: an event reaches
    /// itself.) This is world-plane truth the network plane cannot see.
    pub(crate) fn world_causally_precedes(&self, a: WorldEventId, b: WorldEventId) -> bool {
        if a == b {
            return true;
        }
        if a > b {
            return false;
        }
        // Backwards DFS from b through caused_by edges.
        let mut stack = vec![b];
        let mut seen = vec![false; self.events.len()];
        while let Some(e) = stack.pop() {
            if e == a {
                return true;
            }
            if seen[e] {
                continue;
            }
            seen[e] = true;
            for &p in &self.events[e].caused_by {
                if p >= a {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Fraction of causally-related event pairs — a measure of how much
    /// hidden-channel structure a scenario has.
    pub(crate) fn causal_density(&self) -> f64 {
        let n = self.events.len();
        if n < 2 {
            return 0.0;
        }
        let mut related = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                if self.world_causally_precedes(a, b) {
                    related += 1;
                }
            }
        }
        related as f64 / (n * (n - 1) / 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: usize, ms: u64, obj: usize, val: i64, caused_by: Vec<usize>) -> WorldEvent {
        WorldEvent {
            id,
            at: SimTime::from_millis(ms),
            key: AttrKey::new(obj, 0),
            value: AttrValue::Int(val),
            caused_by,
        }
    }

    fn one_object() -> Vec<ObjectSpec> {
        vec![ObjectSpec { id: 0, name: "o".into(), attrs: vec![("a".into(), AttrValue::Int(0))] }]
    }

    #[test]
    fn new_sorts_and_renumbers() {
        let events = vec![
            ev(0, 30, 0, 3, vec![1]), // caused by the event that was id 1
            ev(1, 10, 0, 1, vec![]),
            ev(2, 20, 0, 2, vec![1]),
        ];
        let t = Timeline::new(one_object(), events);
        assert_eq!(t.events[0].at, SimTime::from_millis(10));
        assert_eq!(t.events[2].at, SimTime::from_millis(30));
        // The 30ms event (now id 2) is caused by the 10ms event (now id 0).
        assert_eq!(t.events[2].caused_by, vec![0]);
        assert_eq!(t.events[1].caused_by, vec![0]);
    }

    #[test]
    fn state_at_replays_prefix() {
        let t = Timeline::new(
            one_object(),
            vec![ev(0, 10, 0, 1, vec![]), ev(1, 20, 0, 2, vec![]), ev(2, 30, 0, 3, vec![])],
        );
        assert_eq!(t.state_at(SimTime::from_millis(5)).get_int(AttrKey::new(0, 0)), 0);
        assert_eq!(t.state_at(SimTime::from_millis(20)).get_int(AttrKey::new(0, 0)), 2);
        assert_eq!(t.state_at(SimTime::from_millis(99)).get_int(AttrKey::new(0, 0)), 3);
    }

    #[test]
    fn replay_visits_every_event_in_order() {
        let t = Timeline::new(one_object(), vec![ev(0, 20, 0, 2, vec![]), ev(1, 10, 0, 1, vec![])]);
        let mut seen = Vec::new();
        t.replay(|state, e| {
            seen.push((e.at, state.get_int(e.key)));
        });
        assert_eq!(seen, vec![(SimTime::from_millis(10), 1), (SimTime::from_millis(20), 2)]);
    }

    #[test]
    fn causality_is_transitive_and_directional() {
        let t = Timeline::new(
            one_object(),
            vec![
                ev(0, 10, 0, 1, vec![]),
                ev(1, 20, 0, 2, vec![0]),
                ev(2, 30, 0, 3, vec![1]),
                ev(3, 40, 0, 4, vec![]),
            ],
        );
        assert!(t.world_causally_precedes(0, 2), "transitive through 1");
        assert!(!t.world_causally_precedes(2, 0), "never backwards");
        assert!(!t.world_causally_precedes(0, 3), "no covert path");
        assert!(t.world_causally_precedes(1, 1), "reflexive");
    }

    /// Every generated `caused_by` edge is a covert causal path, and none
    /// runs backwards.
    #[test]
    fn generated_edges_are_covert_causal_paths() {
        use crate::scenarios::exhibition::{generate, ExhibitionParams};
        let params = ExhibitionParams {
            doors: 2,
            arrival_rate_hz: 2.0,
            mean_stay: psn_sim::time::SimDuration::from_secs(10),
            duration: SimTime::from_secs(60),
            capacity: 10,
        };
        for seed in 0..200 {
            let t = generate(&params, seed).timeline;
            for e in &t.events {
                for &c in &e.caused_by {
                    assert!(t.world_causally_precedes(c, e.id), "seed {seed}: {c} -> {}", e.id);
                    assert!(!t.world_causally_precedes(e.id, c), "seed {seed}: {} -> {c}", e.id);
                }
            }
        }
    }

    #[test]
    fn causal_density_bounds() {
        let independent = Timeline::new(
            one_object(),
            vec![ev(0, 1, 0, 1, vec![]), ev(1, 2, 0, 2, vec![]), ev(2, 3, 0, 3, vec![])],
        );
        assert_eq!(independent.causal_density(), 0.0);
        let chain = Timeline::new(
            one_object(),
            vec![ev(0, 1, 0, 1, vec![]), ev(1, 2, 0, 2, vec![0]), ev(2, 3, 0, 3, vec![1])],
        );
        assert_eq!(chain.causal_density(), 1.0);
        assert_eq!(Timeline::new(one_object(), vec![]).causal_density(), 0.0);
    }

    #[test]
    fn ties_keep_stable_order() {
        let t = Timeline::new(one_object(), vec![ev(0, 10, 0, 1, vec![]), ev(1, 10, 0, 2, vec![])]);
        assert_eq!(t.events[0].value, AttrValue::Int(1));
        assert_eq!(t.events[1].value, AttrValue::Int(2));
    }

    #[test]
    fn duration_is_last_event() {
        let t = Timeline::new(one_object(), vec![ev(0, 10, 0, 1, vec![]), ev(1, 99, 0, 2, vec![])]);
        assert_eq!(t.duration(), SimTime::from_millis(99));
        assert_eq!(Timeline::new(one_object(), vec![]).duration(), SimTime::ZERO);
    }
}
