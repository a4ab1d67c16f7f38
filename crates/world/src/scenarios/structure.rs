//! Structure-monitoring scenario (paper §3.3: "several environments in the
//! urban setting (such as office, home, and **structure monitoring**)").
//!
//! Vibration sensors along a bridge/building truss. Background events are
//! rare; occasionally a *shock* (a truck, a gust) hits one segment and
//! **propagates through the structure** to neighbouring segments with a
//! short mechanical delay — a textbook covert channel: the causal coupling
//! travels through the steel, invisible to the network plane, producing
//! bursts of near-simultaneous events at different sensors (exactly the
//! race-rich regime where the borderline bin earns its keep).

use serde::{Deserialize, Serialize};

use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::object::{AttrKey, AttrValue, ObjectSpec};
use crate::timeline::{Timeline, WorldEvent};

use super::{Scenario, SensorAssignment};

/// Attribute index of a segment's vibration level (0 = calm).
pub const ATTR_VIBRATION: usize = 0;

/// Parameters of the structure-monitoring generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureParams {
    /// Number of instrumented segments (a chain).
    pub segments: usize,
    /// Poisson rate of shocks hitting the structure, per second.
    pub shock_rate_hz: f64,
    /// Mechanical propagation delay between adjacent segments.
    pub coupling_delay: SimDuration,
    /// How many hops a shock propagates in each direction.
    pub coupling_hops: usize,
    /// How long a segment rings before calming down.
    pub ring_down: SimDuration,
    /// Length of the run.
    pub duration: SimTime,
}

impl Default for StructureParams {
    fn default() -> Self {
        StructureParams {
            segments: 8,
            shock_rate_hz: 0.02,
            coupling_delay: SimDuration::from_millis(80),
            coupling_hops: 2,
            ring_down: SimDuration::from_secs(3),
            duration: SimTime::from_secs(3600),
        }
    }
}

/// Generate the scenario deterministically from `params` and `seed`.
pub fn generate(params: &StructureParams, seed: u64) -> Scenario {
    assert!(params.segments > 0, "need at least one segment");
    let factory = RngFactory::new(seed);
    let mut shocks = factory.labeled_stream("structure.shocks");

    let objects: Vec<ObjectSpec> = (0..params.segments)
        .map(|s| ObjectSpec {
            id: s,
            name: format!("segment-{s}"),
            attrs: vec![("vibration".into(), AttrValue::Int(0))],
        })
        .collect();

    // Vibration levels are event-counted: level increments on excitation,
    // decrements on ring-down. Track per-segment level to emit exact
    // values.
    let mut events: Vec<WorldEvent> = Vec::new();
    let mut level = vec![0i64; params.segments];
    // Pending level changes: (time, segment, +1/-1, cause event id or None)
    let mut pending: Vec<(SimTime, usize, i64, Option<usize>)> = Vec::new();

    let mut t = SimTime::ZERO;
    let mean_gap = SimDuration::from_secs_f64(1.0 / params.shock_rate_hz.max(1e-12));
    loop {
        t += shocks.exponential_duration(mean_gap);
        if t > params.duration {
            break;
        }
        let epicentre = shocks.index(params.segments);
        pending.push((t, epicentre, 1, None));
        // The shock rings down later.
        pending.push((t + params.ring_down, epicentre, -1, None));
    }

    // Process pending excitations in time order, spawning propagation to
    // neighbours as each excitation event materializes.
    while !pending.is_empty() {
        pending.sort_by_key(|&(at, seg, delta, _)| (at, seg, -delta));
        let (at, seg, delta, cause) = pending.remove(0);
        if at > params.duration {
            continue;
        }
        level[seg] = (level[seg] + delta).max(0);
        let id = events.len();
        events.push(WorldEvent {
            id,
            at,
            key: AttrKey::new(seg, ATTR_VIBRATION),
            value: AttrValue::Int(level[seg]),
            caused_by: cause.into_iter().collect(),
        });
        // A fresh excitation (not a ring-down) propagates to neighbours
        // through the structure (covert channel), if it is a primary or
        // still within the hop budget. Hop budget is encoded by chaining:
        // primary (cause None) propagates `coupling_hops`; we recompute
        // remaining hops by walking the cause chain.
        if delta > 0 {
            let mut hops_used = 0;
            let mut c = cause;
            while let Some(cid) = c {
                hops_used += 1;
                c = events[cid].caused_by.first().copied();
            }
            if hops_used < params.coupling_hops {
                for nb in [seg.wrapping_sub(1), seg + 1] {
                    if nb < params.segments && nb != seg {
                        let at2 = at + params.coupling_delay;
                        pending.push((at2, nb, 1, Some(id)));
                        pending.push((at2 + params.ring_down, nb, -1, Some(id)));
                    }
                }
            }
        }
    }

    let sensing = SensorAssignment {
        watches: (0..params.segments).map(|s| vec![AttrKey::new(s, ATTR_VIBRATION)]).collect(),
    };

    Scenario {
        name: format!("structure(segments={}, shocks={}/s)", params.segments, params.shock_rate_hz),
        timeline: Timeline::new(objects, events),
        sensing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::WorldState;

    /// The structural-alarm predicate: at least `k` segments vibrating at once
    /// (a propagating shock, as opposed to local noise).
    fn widespread_vibration(segments: usize, k: usize) -> impl Fn(&WorldState) -> bool {
        move |state| {
            (0..segments).filter(|&s| state.get_int(AttrKey::new(s, ATTR_VIBRATION)) > 0).count()
                >= k
        }
    }

    fn small() -> StructureParams {
        StructureParams {
            segments: 5,
            shock_rate_hz: 0.05,
            coupling_delay: SimDuration::from_millis(100),
            coupling_hops: 2,
            ring_down: SimDuration::from_secs(2),
            duration: SimTime::from_secs(1800),
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(&small(), 4).timeline.events, generate(&small(), 4).timeline.events);
    }

    #[test]
    fn vibration_levels_never_negative() {
        let s = generate(&small(), 6);
        for e in &s.timeline.events {
            assert!(e.value.as_int() >= 0);
        }
    }

    #[test]
    fn shocks_propagate_to_neighbours() {
        let s = generate(&small(), 6);
        // Some event must be caused by an event at an adjacent segment.
        let propagated = s.timeline.events.iter().any(|e| {
            e.caused_by.iter().any(|&c| {
                let cs = s.timeline.events[c].key.object;
                cs.abs_diff(e.key.object) == 1
            })
        });
        assert!(propagated, "structural coupling must appear in the causal graph");
    }

    #[test]
    fn propagation_respects_coupling_delay() {
        let s = generate(&small(), 6);
        for e in &s.timeline.events {
            for &c in &e.caused_by {
                let gap = e.at.saturating_since(s.timeline.events[c].at);
                assert!(
                    gap == SimDuration::from_millis(100)
                        || gap == SimDuration::from_millis(100) + SimDuration::from_secs(2),
                    "caused events lag by coupling delay (+ring-down), got {gap}"
                );
            }
        }
    }

    #[test]
    fn hop_budget_limits_spread() {
        // With 2 hops, a chain of causes never exceeds length 2.
        let s = generate(&small(), 9);
        for e in &s.timeline.events {
            let mut depth = 0;
            let mut c = e.caused_by.first().copied();
            while let Some(cid) = c {
                depth += 1;
                c = s.timeline.events[cid].caused_by.first().copied();
            }
            assert!(depth <= 2, "hop budget exceeded: {depth}");
        }
    }

    #[test]
    fn widespread_vibration_fires_on_propagating_shocks() {
        let s = generate(&small(), 11);
        let ivs = crate::ground_truth::truth_intervals(&s.timeline, widespread_vibration(5, 3));
        assert!(!ivs.is_empty(), "a shock with 2-hop coupling excites ≥3 segments");
        // And each such episode is short (ring-down bounded).
        for iv in &ivs {
            assert!(
                iv.duration(s.timeline.duration()).as_secs_f64() < 10.0,
                "episodes are transient"
            );
        }
    }

    #[test]
    fn bursty_causal_structure() {
        let s = generate(&small(), 13);
        assert!(s.timeline.causal_density() > 0.0, "covert coupling present");
        // Events cluster: the fraction of events within 500ms of another
        // event at a different segment is high (race-rich regime).
        let evs = &s.timeline.events;
        let clustered = evs
            .iter()
            .filter(|e| {
                evs.iter().any(|f| {
                    f.id != e.id
                        && f.key.object != e.key.object
                        && f.at.as_nanos().abs_diff(e.at.as_nanos()) < 500_000_000
                })
            })
            .count();
        assert!(
            clustered * 2 > evs.len(),
            "most events are in coupled bursts ({clustered}/{})",
            evs.len()
        );
    }
}
