//! Reference-Broadcast-Synchronization-like protocol.
//!
//! RBS (Elson et al.) exploits the broadcast medium: a reference node
//! broadcasts beacons; *receivers* timestamp the arrivals with their local
//! clocks and exchange those readings — sender-side nondeterminism cancels
//! because everyone timestamps the *same* physical broadcast, leaving only
//! receive-side jitter. Averaging over k beacons shrinks the residual
//! further.
//!
//! This simulation reproduces the protocol's *shape*: achieved skew scales
//! with the receive-jitter bound and improves with the number of beacons,
//! and the whole service costs messages — the paper's point that a
//! synchronized time base "does not come for free" (§3.2.1.a.ii).

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use psn_clocks::Oscillator;
use psn_sim::delay::DelayModel;
use psn_sim::engine::{Actor, Context, Engine, Message};
use psn_sim::network::{ActorId, NetworkConfig};
use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::skew::max_pairwise_skew;
use crate::NODES_POISONED;

/// Parameters of one RBS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbsParams {
    /// Number of receiver nodes to synchronize.
    pub receivers: usize,
    /// Number of reference beacons.
    pub beacons: usize,
    /// Gap between beacons.
    pub beacon_interval: SimDuration,
    /// Receive-side jitter bound (per-receiver delay is uniform in
    /// `[propagation, propagation + jitter]`).
    pub jitter: SimDuration,
    /// Fixed propagation delay (common mode; cancelled by the protocol).
    pub propagation: SimDuration,
    /// Max initial clock offset of the unsynchronized receivers.
    pub max_offset: SimDuration,
    /// Max |drift| in ppm.
    pub max_drift_ppm: f64,
}

impl Default for RbsParams {
    fn default() -> Self {
        RbsParams {
            receivers: 8,
            beacons: 10,
            beacon_interval: SimDuration::from_millis(100),
            jitter: SimDuration::from_micros(100),
            propagation: SimDuration::from_micros(5),
            max_offset: SimDuration::from_millis(20),
            max_drift_ppm: 30.0,
        }
    }
}

/// Outcome of a synchronization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncOutcome {
    /// Achieved max pairwise skew among the synchronized nodes, measured
    /// immediately after the corrections are applied.
    pub achieved_skew: SimDuration,
    /// Skew before the protocol ran (the unsynchronized baseline).
    pub(crate) initial_skew: SimDuration,
    /// Point-to-point messages the protocol consumed.
    pub messages: u64,
    /// Payload bytes the protocol consumed.
    pub bytes: u64,
    /// Ground-truth time at which the run completed.
    pub(crate) completed_at: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
enum RbsMsg {
    Beacon { seq: usize },
    Readings { from: usize, readings: Vec<i64> },
    Correct { delta_ns: i64 },
}

impl Message for RbsMsg {
    fn size_bytes(&self) -> usize {
        match self {
            RbsMsg::Beacon { .. } => 8,
            RbsMsg::Readings { readings, .. } => 8 + 8 * readings.len(),
            RbsMsg::Correct { .. } => 8,
        }
    }
}

/// Actor 0: the reference beacon source.
struct Reference {
    beacons: usize,
    interval: SimDuration,
    sent: usize,
}
impl Actor<RbsMsg> for Reference {
    fn on_start(&mut self, ctx: &mut Context<'_, RbsMsg>) {
        ctx.set_timer(self.interval, 0);
    }
    fn on_message(&mut self, _: &mut Context<'_, RbsMsg>, _: ActorId, _: RbsMsg) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, RbsMsg>, _tag: u64) {
        ctx.broadcast(RbsMsg::Beacon { seq: self.sent });
        self.sent += 1;
        if self.sent < self.beacons {
            ctx.set_timer(self.interval, 0);
        }
    }
}

/// Receivers: record beacon arrival readings; the hub (receiver index 0,
/// actor id 1) collects everyone's readings, computes offsets relative to
/// itself, and sends corrections.
struct Receiver {
    /// Index among receivers (0-based; actor id = index + 1).
    index: usize,
    receivers: usize,
    beacons: usize,
    oscillators: Arc<Mutex<Vec<Oscillator>>>,
    readings: Vec<i64>,
    /// Hub only: collected readings by receiver index.
    collected: Vec<Option<Vec<i64>>>,
    done: Arc<Mutex<Option<SimTime>>>,
}

impl Receiver {
    fn local_reading(&self, now: SimTime) -> i64 {
        self.oscillators.lock().expect(NODES_POISONED)[self.index].read(now).0
    }
}

impl Actor<RbsMsg> for Receiver {
    fn on_message(&mut self, ctx: &mut Context<'_, RbsMsg>, _from: ActorId, msg: RbsMsg) {
        match msg {
            RbsMsg::Beacon { seq } => {
                let r = self.local_reading(ctx.now());
                self.readings.push(r);
                if seq + 1 == self.beacons {
                    // Last beacon: ship readings to the hub (receiver 0).
                    if self.index == 0 {
                        self.collected[0] = Some(self.readings.clone());
                        self.maybe_finish(ctx);
                    } else {
                        ctx.send(
                            1, // hub actor id
                            RbsMsg::Readings { from: self.index, readings: self.readings.clone() },
                        );
                    }
                }
            }
            RbsMsg::Readings { from, readings } => {
                debug_assert_eq!(self.index, 0, "only the hub collects");
                self.collected[from] = Some(readings);
                self.maybe_finish(ctx);
            }
            RbsMsg::Correct { delta_ns } => {
                self.oscillators.lock().expect(NODES_POISONED)[self.index].adjust_offset(delta_ns);
            }
        }
    }
}

impl Receiver {
    fn maybe_finish(&mut self, ctx: &mut Context<'_, RbsMsg>) {
        if self.index != 0 || self.collected.iter().any(Option::is_none) {
            return;
        }
        let hub = self.collected[0].as_ref().expect("hub readings").clone();
        for i in 1..self.receivers {
            let peer = self.collected[i].as_ref().expect("peer readings");
            let k = hub.len().min(peer.len());
            // Mean difference peer − hub over the shared beacons: peer's
            // clock is ahead of the hub's by this much.
            let delta: i64 = (0..k).map(|b| peer[b] - hub[b]).sum::<i64>() / k as i64;
            ctx.send(i + 1, RbsMsg::Correct { delta_ns: -delta });
        }
        *self.done.lock().expect(NODES_POISONED) = Some(ctx.now());
    }
}

/// Run the protocol; returns the outcome.
pub fn run_rbs(params: &RbsParams, seed: u64) -> SyncOutcome {
    assert!(params.receivers >= 2, "need at least two receivers");
    assert!(params.beacons >= 1, "need at least one beacon");
    let factory = RngFactory::new(seed);
    let mut hw_rng = factory.labeled_stream("rbs.hardware");
    let oscillators: Vec<Oscillator> = (0..params.receivers)
        .map(|_| Oscillator::random(&mut hw_rng, params.max_offset, params.max_drift_ppm, 1))
        .collect();
    let initial_skew = max_pairwise_skew(&oscillators, SimTime::ZERO);
    let oscillators = Arc::new(Mutex::new(oscillators));
    let done = Arc::new(Mutex::new(None));

    let net = NetworkConfig::full_mesh(
        params.receivers + 1,
        DelayModel::DeltaBounded {
            min: params.propagation,
            max: params.propagation + params.jitter,
        },
    );
    let mut engine: Engine<RbsMsg> = Engine::new(net, seed);
    engine.add_actor(Box::new(Reference {
        beacons: params.beacons,
        interval: params.beacon_interval,
        sent: 0,
    }));
    for index in 0..params.receivers {
        engine.add_actor(Box::new(Receiver {
            index,
            receivers: params.receivers,
            beacons: params.beacons,
            oscillators: Arc::clone(&oscillators),
            readings: Vec::new(),
            collected: if index == 0 { vec![None; params.receivers] } else { Vec::new() },
            done: Arc::clone(&done),
        }));
    }
    let completed_at = engine.run();
    let achieved_skew = max_pairwise_skew(&oscillators.lock().expect(NODES_POISONED), completed_at);
    SyncOutcome {
        achieved_skew,
        initial_skew,
        messages: engine.stats().messages_sent,
        bytes: engine.stats().bytes_sent,
        completed_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbs_improves_skew_dramatically() {
        let out = run_rbs(&RbsParams::default(), 42);
        assert!(
            out.achieved_skew.as_nanos() * 10 < out.initial_skew.as_nanos(),
            "achieved {} vs initial {}",
            out.achieved_skew,
            out.initial_skew
        );
    }

    #[test]
    fn achieved_skew_scales_with_jitter() {
        let lo =
            run_rbs(&RbsParams { jitter: SimDuration::from_micros(10), ..Default::default() }, 7);
        let hi =
            run_rbs(&RbsParams { jitter: SimDuration::from_millis(10), ..Default::default() }, 7);
        assert!(
            hi.achieved_skew.as_nanos() > lo.achieved_skew.as_nanos() * 10,
            "lo {} hi {}",
            lo.achieved_skew,
            hi.achieved_skew
        );
    }

    #[test]
    fn more_beacons_tighten_the_estimate() {
        // Average over many seeds to see the averaging effect.
        let mean_skew = |beacons: usize| -> f64 {
            (0..20)
                .map(|s| {
                    run_rbs(&RbsParams { beacons, ..Default::default() }, s)
                        .achieved_skew
                        .as_nanos() as f64
                })
                .sum::<f64>()
                / 20.0
        };
        let few = mean_skew(1);
        let many = mean_skew(30);
        assert!(many < few, "averaging over beacons must help: 1→{few}, 30→{many}");
    }

    #[test]
    fn sync_is_not_free() {
        let params = RbsParams::default();
        let out = run_rbs(&params, 3);
        // k beacons × n+... broadcasts + readings + corrections.
        let min_expected =
            (params.beacons * params.receivers) as u64 + 2 * (params.receivers as u64 - 1);
        assert!(out.messages >= min_expected, "messages {} < {min_expected}", out.messages);
        assert!(out.bytes > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_rbs(&RbsParams::default(), 5);
        let b = run_rbs(&RbsParams::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn skew_cost_tradeoff_more_receivers_cost_more() {
        let small = run_rbs(&RbsParams { receivers: 4, ..Default::default() }, 1);
        let large = run_rbs(&RbsParams { receivers: 16, ..Default::default() }, 1);
        assert!(large.messages > small.messages * 2);
    }
}
