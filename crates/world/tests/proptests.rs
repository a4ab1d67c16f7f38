//! Property-based tests for the world plane.

use proptest::prelude::*;

use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams, ATTR_X};
use psn_world::{truth_intervals, AttrKey, AttrValue, ObjectSpec, Timeline, WorldEvent};

fn arb_events(max: usize) -> impl Strategy<Value = Vec<(u64, i64)>> {
    proptest::collection::vec((0u64..10_000, -50i64..50), 0..max)
}

fn counter_timeline(changes: &[(u64, i64)]) -> Timeline {
    let objects =
        vec![ObjectSpec { id: 0, name: "c".into(), attrs: vec![("v".into(), AttrValue::Int(0))] }];
    let events = changes
        .iter()
        .enumerate()
        .map(|(i, &(ms, v))| WorldEvent {
            id: i,
            at: SimTime::from_millis(ms),
            key: AttrKey::new(0, 0),
            value: AttrValue::Int(v),
            caused_by: vec![],
        })
        .collect();
    Timeline::new(objects, events)
}

proptest! {
    /// Timeline::new sorts by time and renumbers ids densely.
    #[test]
    fn timeline_is_sorted_and_densely_numbered(changes in arb_events(40)) {
        let t = counter_timeline(&changes);
        for (i, e) in t.events.iter().enumerate() {
            prop_assert_eq!(e.id, i);
            if i > 0 {
                prop_assert!(t.events[i - 1].at <= e.at);
            }
        }
    }

    /// Truth intervals are disjoint, ordered, and only the last may be open.
    #[test]
    fn truth_intervals_are_disjoint_and_ordered(changes in arb_events(40), thresh in -20i64..20) {
        let t = counter_timeline(&changes);
        let ivs = truth_intervals(&t, |s| s.get_int(AttrKey::new(0, 0)) > thresh);
        for (i, iv) in ivs.iter().enumerate() {
            if let Some(end) = iv.end {
                prop_assert!(iv.start <= end);
            } else {
                prop_assert_eq!(i, ivs.len() - 1, "only the last interval may be open");
            }
            if i > 0 {
                let prev_end = ivs[i - 1].end.expect("non-last intervals are closed");
                prop_assert!(prev_end <= iv.start);
            }
        }
    }

    /// Exhibition generation invariants hold for arbitrary parameters.
    #[test]
    fn exhibition_invariants(
        doors in 1usize..6,
        rate in 0.1f64..6.0,
        stay_s in 5u64..120,
        seed in 0u64..1000,
    ) {
        let params = ExhibitionParams {
            doors,
            arrival_rate_hz: rate,
            mean_stay: SimDuration::from_secs(stay_s),
            duration: SimTime::from_secs(120),
            capacity: 10,
        };
        let s = exhibition::generate(&params, seed);
        // Counters are monotone non-decreasing and occupancy never negative.
        let mut x = vec![0i64; doors];
        let mut y = vec![0i64; doors];
        for e in &s.timeline.events {
            let v = e.value.as_int();
            if e.key.attr == ATTR_X {
                prop_assert_eq!(v, x[e.key.object] + 1);
                x[e.key.object] = v;
            } else {
                prop_assert_eq!(v, y[e.key.object] + 1);
                y[e.key.object] = v;
            }
            let occ: i64 = (0..doors).map(|d| x[d] - y[d]).sum();
            prop_assert!(occ >= 0, "occupancy negative");
        }
        // Total exits never exceed total entries.
        prop_assert!(y.iter().sum::<i64>() <= x.iter().sum::<i64>());
        // Sensing covers exactly the doors.
        prop_assert_eq!(s.num_processes(), doors);
    }

    /// Generation is a pure function of (params, seed).
    #[test]
    fn exhibition_deterministic(seed in 0u64..500) {
        let params = ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 1.0,
            mean_stay: SimDuration::from_secs(20),
            duration: SimTime::from_secs(60),
            capacity: 10,
        };
        let a = exhibition::generate(&params, seed);
        let b = exhibition::generate(&params, seed);
        prop_assert_eq!(a.timeline.events, b.timeline.events);
    }

    /// World causality is a DAG respecting time order.
    #[test]
    fn covert_causality_respects_time(seed in 0u64..200) {
        let params = ExhibitionParams {
            doors: 2,
            arrival_rate_hz: 2.0,
            mean_stay: SimDuration::from_secs(10),
            duration: SimTime::from_secs(60),
            capacity: 10,
        };
        let s = exhibition::generate(&params, seed);
        for e in &s.timeline.events {
            for &c in &e.caused_by {
                prop_assert!(c < e.id);
                prop_assert!(s.timeline.events[c].at <= e.at);
            }
        }
    }
}
