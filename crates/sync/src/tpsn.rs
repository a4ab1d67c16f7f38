//! TPSN-like sender-receiver pair-wise synchronization.
//!
//! TPSN (Ganeriwal et al.) builds a spanning tree and synchronizes each
//! node to its parent with a two-way exchange: the child sends a request
//! stamped with its local T1; the parent receives at its local T2 and
//! replies carrying (T1, T2, T3 = parent send time); the child receives at
//! its local T4 and estimates its offset relative to the parent as
//!
//! ```text
//! offset = ((T2 − T1) − (T4 − T3)) / 2
//! ```
//!
//! exact under symmetric delays; the residual error is half the request /
//! reply delay *asymmetry*. We simulate a star tree rooted at the reference
//! (depth 1) — enough to reproduce the protocol's accuracy and cost shape.
//! Multiple rounds are averaged.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use psn_clocks::Oscillator;
use psn_sim::delay::DelayModel;
use psn_sim::engine::{Actor, Context, Engine, Message};
use psn_sim::network::{ActorId, NetworkConfig};
use psn_sim::rng::RngFactory;
use psn_sim::time::{SimDuration, SimTime};

use crate::rbs::SyncOutcome;
use crate::skew::max_pairwise_skew;
use crate::NODES_POISONED;

/// Parameters of one TPSN run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpsnParams {
    /// Number of child nodes to synchronize to the reference.
    pub children: usize,
    /// Rounds of exchange per child (estimates are averaged).
    pub rounds: usize,
    /// Delay jitter bound (per message, uniform over
    /// `[propagation, propagation + jitter]`).
    pub jitter: SimDuration,
    /// Fixed symmetric propagation delay.
    pub propagation: SimDuration,
    /// Max initial clock offset of the children.
    pub max_offset: SimDuration,
    /// Max |drift| in ppm.
    pub max_drift_ppm: f64,
}

impl Default for TpsnParams {
    fn default() -> Self {
        TpsnParams {
            children: 8,
            rounds: 4,
            jitter: SimDuration::from_micros(100),
            propagation: SimDuration::from_micros(5),
            max_offset: SimDuration::from_millis(20),
            max_drift_ppm: 30.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TpsnMsg {
    Request { t1: i64 },
    Reply { t1: i64, t2: i64, t3: i64 },
}

impl Message for TpsnMsg {
    fn size_bytes(&self) -> usize {
        match self {
            TpsnMsg::Request { .. } => 8,
            TpsnMsg::Reply { .. } => 24,
        }
    }
}

/// The parent/reference: replies to requests with its own readings. Its
/// oscillator is the time standard (index 0 in the shared vector).
struct Parent {
    oscillators: Arc<Mutex<Vec<Oscillator>>>,
}
impl Actor<TpsnMsg> for Parent {
    fn on_message(&mut self, ctx: &mut Context<'_, TpsnMsg>, from: ActorId, msg: TpsnMsg) {
        if let TpsnMsg::Request { t1 } = msg {
            let t2 = self.oscillators.lock().expect(NODES_POISONED)[0].read(ctx.now()).0;
            let t3 = t2; // reply immediately: T3 == T2 in simulation
            ctx.send(from, TpsnMsg::Reply { t1, t2, t3 });
        }
    }
}

/// A child: performs `rounds` exchanges, averages the offset estimates,
/// and corrects its oscillator.
struct Child {
    index: usize, // 1-based index into the shared oscillator vec
    rounds: usize,
    done_rounds: usize,
    estimates: Vec<i64>,
    oscillators: Arc<Mutex<Vec<Oscillator>>>,
}

impl Child {
    fn send_request(&self, ctx: &mut Context<'_, TpsnMsg>) {
        let t1 = self.oscillators.lock().expect(NODES_POISONED)[self.index].read(ctx.now()).0;
        ctx.send(0, TpsnMsg::Request { t1 });
    }
}

impl Actor<TpsnMsg> for Child {
    fn on_start(&mut self, ctx: &mut Context<'_, TpsnMsg>) {
        self.send_request(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, TpsnMsg>, _from: ActorId, msg: TpsnMsg) {
        if let TpsnMsg::Reply { t1, t2, t3 } = msg {
            let t4 = self.oscillators.lock().expect(NODES_POISONED)[self.index].read(ctx.now()).0;
            // offset of child relative to parent.
            let offset = ((t2 - t1) - (t4 - t3)) / 2;
            self.estimates.push(offset);
            self.done_rounds += 1;
            if self.done_rounds < self.rounds {
                self.send_request(ctx);
            } else {
                let mean: i64 = self.estimates.iter().sum::<i64>() / self.estimates.len() as i64;
                // offset = parent − child, so the child adds it.
                self.oscillators.lock().expect(NODES_POISONED)[self.index].adjust_offset(mean);
            }
        }
    }
}

/// Run the protocol; returns the outcome (skews measured across the
/// reference plus all children).
pub fn run_tpsn(params: &TpsnParams, seed: u64) -> SyncOutcome {
    assert!(params.children >= 1, "need at least one child");
    assert!(params.rounds >= 1, "need at least one round");
    let factory = RngFactory::new(seed);
    let mut hw_rng = factory.labeled_stream("tpsn.hardware");
    let mut oscillators = vec![Oscillator::perfect()]; // the reference
    oscillators.extend(
        (0..params.children)
            .map(|_| Oscillator::random(&mut hw_rng, params.max_offset, params.max_drift_ppm, 1)),
    );
    let initial_skew = max_pairwise_skew(&oscillators, SimTime::ZERO);
    let oscillators = Arc::new(Mutex::new(oscillators));

    let net = NetworkConfig::full_mesh(
        params.children + 1,
        DelayModel::DeltaBounded {
            min: params.propagation,
            max: params.propagation + params.jitter,
        },
    );
    let mut engine: Engine<TpsnMsg> = Engine::new(net, seed);
    engine.add_actor(Box::new(Parent { oscillators: Arc::clone(&oscillators) }));
    for index in 1..=params.children {
        engine.add_actor(Box::new(Child {
            index,
            rounds: params.rounds,
            done_rounds: 0,
            estimates: Vec::new(),
            oscillators: Arc::clone(&oscillators),
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
    fn tpsn_synchronizes() {
        let out = run_tpsn(&TpsnParams::default(), 42);
        assert!(
            out.achieved_skew.as_nanos() * 10 < out.initial_skew.as_nanos(),
            "achieved {} vs initial {}",
            out.achieved_skew,
            out.initial_skew
        );
    }

    #[test]
    fn error_bounded_by_jitter() {
        // Residual error per child ≤ jitter/2 (asymmetry bound) plus drift;
        // across children pairwise ≤ jitter plus slack.
        let params = TpsnParams { jitter: SimDuration::from_micros(200), ..Default::default() };
        let out = run_tpsn(&params, 9);
        assert!(
            out.achieved_skew <= SimDuration::from_micros(300),
            "skew {} too large",
            out.achieved_skew
        );
    }

    #[test]
    fn message_cost_is_two_per_round_per_child() {
        let params = TpsnParams { children: 5, rounds: 3, ..Default::default() };
        let out = run_tpsn(&params, 1);
        assert_eq!(out.messages, 2 * 5 * 3, "request + reply per round per child");
    }

    #[test]
    fn more_rounds_usually_tighten() {
        let mean_skew = |rounds: usize| -> f64 {
            (0..20)
                .map(|s| {
                    run_tpsn(&TpsnParams { rounds, ..Default::default() }, s)
                        .achieved_skew
                        .as_nanos() as f64
                })
                .sum::<f64>()
                / 20.0
        };
        let one = mean_skew(1);
        let eight = mean_skew(8);
        assert!(eight < one, "averaging helps: 1→{one}, 8→{eight}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_tpsn(&TpsnParams::default(), 3), run_tpsn(&TpsnParams::default(), 3));
    }
}
