//! On-demand synchronization for simultaneous task execution
//! (paper §4.2, citing Baumgartner et al. \[3\]).
//!
//! "The protocol performs on-demand clock synchronization and messages
//! required for continuous synchronization are avoided. … The network
//! stays unsynchronized most of the time but collaborates shortly before
//! the common event. An application is the collaborative sensing of highly
//! dynamic effects, e.g., locating the source of an audio signal, or
//! simultaneous playback of music."
//!
//! Protocol: an initiator announces a task to fire `lead` after its own
//! clock reading `T`. Each node runs one two-way exchange with the
//! initiator (TPSN-style offset estimate), converts `T + lead` into its
//! local clock, and fires its timer then. We measure the **spread** of
//! ground-truth firing times — with sync it is bounded by the exchange
//! jitter; without it, by the raw clock offsets.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use psn_clocks::Oscillator;
use psn_sim::delay::DelayModel;
use psn_sim::engine::{Actor, Context, Engine, Message};
use psn_sim::network::{ActorId, NetworkConfig};
use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::NODES_POISONED;

/// Parameters of one on-demand run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnDemandParams {
    /// Number of follower nodes (the initiator is extra).
    pub nodes: usize,
    /// How far ahead (initiator-clock time) the common task fires.
    pub lead: SimDuration,
    /// Message delay jitter bound.
    pub jitter: SimDuration,
    /// Fixed propagation delay.
    pub propagation: SimDuration,
    /// Max initial clock offset of followers.
    pub max_offset: SimDuration,
    /// Max |drift| in ppm.
    pub max_drift_ppm: f64,
    /// If false, skip the exchange and fire on raw local clocks — the
    /// unsynchronized baseline.
    pub synchronize: bool,
}

impl Default for OnDemandParams {
    fn default() -> Self {
        OnDemandParams {
            nodes: 8,
            lead: SimDuration::from_secs(2),
            jitter: SimDuration::from_micros(200),
            propagation: SimDuration::from_micros(10),
            max_offset: SimDuration::from_millis(50),
            max_drift_ppm: 40.0,
            synchronize: true,
        }
    }
}

/// Outcome: when each node actually fired, in ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnDemandOutcome {
    /// Ground-truth firing time of every node (initiator first).
    pub(crate) fire_times: Vec<SimTime>,
    /// max − min of the firing times: the simultaneity error.
    pub spread: SimDuration,
    /// Messages spent (0 when `synchronize` is false).
    pub messages: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum OdMsg {
    /// Initiator → all: the task fires at initiator-clock `at_reading`.
    Announce { at_reading: i64 },
    /// Follower → initiator: two-way exchange request (t1 = follower clock).
    Probe { t1: i64 },
    /// Initiator → follower: reply with its receive/send readings.
    ProbeReply { t1: i64, t2: i64 },
}
impl Message for OdMsg {
    fn size_bytes(&self) -> usize {
        match self {
            OdMsg::Announce { .. } => 8,
            OdMsg::Probe { .. } => 8,
            OdMsg::ProbeReply { .. } => 16,
        }
    }
}

struct Initiator {
    lead: SimDuration,
    oscillators: Arc<Mutex<Vec<Oscillator>>>,
    fire_times: Arc<Mutex<Vec<Option<SimTime>>>>,
}
impl Actor<OdMsg> for Initiator {
    fn on_start(&mut self, ctx: &mut Context<'_, OdMsg>) {
        let now_reading = self.oscillators.lock().expect(NODES_POISONED)[0].read(ctx.now()).0;
        let at_reading = now_reading + self.lead.as_nanos() as i64;
        ctx.broadcast(OdMsg::Announce { at_reading });
        ctx.set_timer(self.lead, 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, OdMsg>, from: ActorId, msg: OdMsg) {
        if let OdMsg::Probe { t1 } = msg {
            let t2 = self.oscillators.lock().expect(NODES_POISONED)[0].read(ctx.now()).0;
            ctx.send(from, OdMsg::ProbeReply { t1, t2 });
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, OdMsg>, _tag: u64) {
        self.fire_times.lock().expect(NODES_POISONED)[0] = Some(ctx.now());
    }
}

struct Follower {
    index: usize,
    synchronize: bool,
    oscillators: Arc<Mutex<Vec<Oscillator>>>,
    fire_times: Arc<Mutex<Vec<Option<SimTime>>>>,
    target_reading: Option<i64>, // initiator-clock firing reading
}

impl Follower {
    fn schedule_fire(&self, ctx: &mut Context<'_, OdMsg>, offset_est: i64) {
        // Convert the initiator-clock target into our clock, then into a
        // delay from now. offset_est = our_clock − initiator_clock.
        let target = self.target_reading.expect("announced") + offset_est;
        let now_local =
            self.oscillators.lock().expect(NODES_POISONED)[self.index].read(ctx.now()).0;
        let wait = (target - now_local).max(0) as u64;
        ctx.set_timer(SimDuration::from_nanos(wait), 1);
    }
}

impl Actor<OdMsg> for Follower {
    fn on_message(&mut self, ctx: &mut Context<'_, OdMsg>, _from: ActorId, msg: OdMsg) {
        match msg {
            OdMsg::Announce { at_reading } => {
                self.target_reading = Some(at_reading);
                if self.synchronize {
                    let t1 = self.oscillators.lock().expect(NODES_POISONED)[self.index]
                        .read(ctx.now())
                        .0;
                    ctx.send(0, OdMsg::Probe { t1 });
                } else {
                    // Fire on the raw local clock (no offset estimate).
                    self.schedule_fire(ctx, 0);
                }
            }
            OdMsg::ProbeReply { t1, t2 } => {
                let t4 =
                    self.oscillators.lock().expect(NODES_POISONED)[self.index].read(ctx.now()).0;
                // Two-way estimate assuming symmetric delay:
                // our_clock − initiator_clock ≈ ((t1 − t2) + (t4 − t2)) / 2.
                let offset_est = ((t1 - t2) + (t4 - t2)) / 2;
                self.schedule_fire(ctx, offset_est);
            }
            OdMsg::Probe { .. } => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, OdMsg>, _tag: u64) {
        self.fire_times.lock().expect(NODES_POISONED)[self.index] = Some(ctx.now());
    }
}

/// Run the protocol.
pub fn run_on_demand(params: &OnDemandParams, seed: u64) -> OnDemandOutcome {
    assert!(params.nodes >= 1, "need at least one follower");
    let factory = RngFactory::new(seed);
    let mut hw = factory.labeled_stream("ondemand.hw");
    let mut oscillators = vec![Oscillator::perfect()];
    oscillators.extend(
        (0..params.nodes)
            .map(|_| Oscillator::random(&mut hw, params.max_offset, params.max_drift_ppm, 1)),
    );
    let oscillators = Arc::new(Mutex::new(oscillators));
    let fire_times = Arc::new(Mutex::new(vec![None; params.nodes + 1]));

    let net = NetworkConfig::full_mesh(
        params.nodes + 1,
        DelayModel::DeltaBounded {
            min: params.propagation,
            max: params.propagation + params.jitter,
        },
    );
    let mut engine: Engine<OdMsg> = Engine::new(net, seed);
    engine.add_actor(Box::new(Initiator {
        lead: params.lead,
        oscillators: Arc::clone(&oscillators),
        fire_times: Arc::clone(&fire_times),
    }));
    for index in 1..=params.nodes {
        engine.add_actor(Box::new(Follower {
            index,
            synchronize: params.synchronize,
            oscillators: Arc::clone(&oscillators),
            fire_times: Arc::clone(&fire_times),
            target_reading: None,
        }));
    }
    engine.run();
    let fire_times: Vec<SimTime> = fire_times
        .lock()
        .expect(NODES_POISONED)
        .iter()
        .map(|t| t.expect("every node fired"))
        .collect();
    let min = fire_times.iter().min().copied().expect("nonempty");
    let max = fire_times.iter().max().copied().expect("nonempty");
    OnDemandOutcome {
        spread: max.saturating_since(min),
        fire_times,
        messages: engine.stats().messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_firing_is_tight() {
        let out = run_on_demand(&OnDemandParams::default(), 42);
        // Spread bounded by a few times the jitter (exchange asymmetry +
        // drift over the 2s lead), far below the 50ms raw offsets.
        assert!(out.spread < SimDuration::from_millis(2), "spread {} too large", out.spread);
    }

    #[test]
    fn unsynchronized_baseline_is_wide() {
        let params = OnDemandParams { synchronize: false, ..Default::default() };
        let sync = run_on_demand(&OnDemandParams::default(), 7);
        let raw = run_on_demand(&params, 7);
        assert!(
            raw.spread.as_nanos() > sync.spread.as_nanos() * 10,
            "raw {} vs sync {}",
            raw.spread,
            sync.spread
        );
    }

    #[test]
    fn message_cost_is_on_demand_only() {
        let params = OnDemandParams { nodes: 6, ..Default::default() };
        let out = run_on_demand(&params, 3);
        // announce (6) + probe (6) + reply (6) = 18; nothing periodic.
        assert_eq!(out.messages, 18);
        let raw = run_on_demand(&OnDemandParams { synchronize: false, ..params }, 3);
        assert_eq!(raw.messages, 6, "baseline only pays the announcement");
    }

    #[test]
    fn all_nodes_fire_near_the_lead() {
        let params = OnDemandParams::default();
        let out = run_on_demand(&params, 11);
        for &t in &out.fire_times {
            let err = t.as_secs_f64() - params.lead.as_secs_f64();
            assert!(err.abs() < 0.1, "fired at {t}, expected ≈{}", params.lead);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            run_on_demand(&OnDemandParams::default(), 5),
            run_on_demand(&OnDemandParams::default(), 5)
        );
    }

    #[test]
    fn spread_scales_with_jitter() {
        let tight = run_on_demand(
            &OnDemandParams { jitter: SimDuration::from_micros(10), ..Default::default() },
            9,
        );
        let loose = run_on_demand(
            &OnDemandParams { jitter: SimDuration::from_millis(20), ..Default::default() },
            9,
        );
        assert!(loose.spread > tight.spread);
    }
}
