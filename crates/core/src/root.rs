//! The distinguished root process P₀ (paper §2.1).
//!
//! "In a common configuration, a distinguished process P₀ acts as a root or
//! back-end server that processes the sensed information." The root
//! collects reports, maintains its own causality-based clocks (ticking per
//! SC3/VC3 on each report), and optionally runs an **actuation rule** that
//! closes the sense → send → receive → actuate loop of §4.1. The root owns
//! its logs: its own receive and send events, the reports it received, and
//! the actuation commands it issued.

use psn_clocks::{ProcessId, VectorStamp};
use psn_sim::engine::{Actor, Context};
use psn_sim::network::ActorId;
use psn_world::{AttrKey, AttrValue};

use crate::bundle::{ClockBundle, ClockConfig};
use crate::event::{EventKind, ProcEvent};
use crate::log::{ActuationRecord, ReceivedReport};
use crate::message::{NetMsg, Report};

/// A rule the root evaluates online on each arriving report. Returning
/// commands closes the actuation loop.
pub trait ActuationRule: Send {
    /// Inspect the arriving report and the reports the root received
    /// before it, in arrival order: what P₀ knows, and nothing of the
    /// processes' local events. Return `(target process, attribute,
    /// command)` triples to actuate.
    fn on_report(
        &mut self,
        report: &Report,
        history: &[ReceivedReport],
    ) -> Vec<(ProcessId, AttrKey, AttrValue)>;
}

/// A no-op rule: observe only.
pub struct NoActuation;
impl ActuationRule for NoActuation {
    fn on_report(
        &mut self,
        _: &Report,
        _: &[ReceivedReport],
    ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
        Vec::new()
    }
}

/// The root actor.
pub(crate) struct RootProcess {
    id: ProcessId,
    n: usize,
    cfg: ClockConfig,
    bundle: Option<ClockBundle>,
    event_seq: usize,
    rule: Box<dyn ActuationRule>,
    /// Relay unseen strobes (multi-hop overlays where the root is a hub).
    flood: bool,
    /// Drop strobes whose integrity checksum fails (see
    /// [`crate::process::StrobePolicy::quarantine`]).
    quarantine: bool,
    seen_strobes: Vec<u64>,
    /// The root's own receive and send events, in recording order (since
    /// the last [`retire_events`](Self::retire_events)).
    events: Vec<ProcEvent>,
    /// The vector clock after merging the latest report: the root's
    /// knowledge frontier.
    frontier: VectorStamp,
    /// Reports in arrival order.
    reports: Vec<ReceivedReport>,
    /// Actuation commands issued.
    actuations: Vec<ActuationRecord>,
}

impl RootProcess {
    /// A root with actor id `id` (conventionally `n`, after the sensors).
    pub fn new(id: ProcessId, n: usize, cfg: ClockConfig, rule: Box<dyn ActuationRule>) -> Self {
        RootProcess {
            id,
            n,
            cfg,
            bundle: None,
            event_seq: 0,
            rule,
            flood: false,
            quarantine: false,
            seen_strobes: vec![0; n + 1],
            events: Vec::new(),
            frontier: VectorStamp::zero(n + 1),
            reports: Vec::new(),
            actuations: Vec::new(),
        }
    }

    /// Enable strobe flood relay at the root (builder style).
    pub(crate) fn with_flood(mut self, flood: bool) -> Self {
        self.flood = flood;
        self
    }

    /// Drop corrupted strobes instead of merging them (builder style).
    pub(crate) fn with_quarantine(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// The root's own receive and send events, in recording order.
    pub fn events(&self) -> &[ProcEvent] {
        &self.events
    }

    /// Drop the own events recorded so far and return how many there
    /// were: a live session keeps only what it reads back.
    pub(crate) fn retire_events(&mut self) -> usize {
        let retired = self.events.len();
        self.events.clear();
        retired
    }

    /// The reports received so far, in arrival order.
    pub fn reports(&self) -> &[ReceivedReport] {
        &self.reports
    }

    /// The actuation commands issued so far.
    pub fn actuations(&self) -> &[ActuationRecord] {
        &self.actuations
    }

    /// The vector clock after merging the latest report (zero before the
    /// first): component `p` counts the relevant events of process `p` the
    /// root's state causally reflects.
    pub fn frontier(&self) -> &VectorStamp {
        &self.frontier
    }

    /// Give up the logs (sealing an execution): own events, reports,
    /// actuations.
    pub(crate) fn into_logs(self) -> (Vec<ProcEvent>, Vec<ReceivedReport>, Vec<ActuationRecord>) {
        (self.events, self.reports, self.actuations)
    }
}

impl Actor<NetMsg> for RootProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.bundle = Some(ClockBundle::new(self.id, self.n + 1, &self.cfg, ctx.rng()));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: ActorId, msg: NetMsg) {
        let now = ctx.now();
        match msg {
            NetMsg::Report(msg) => {
                let (report, send_stamps) = msg.split();
                let bundle = self.bundle.as_mut().expect("started");
                // Receive event r: merge piggybacked stamps (SC3/VC3).
                let stamps = bundle.on_receive(&send_stamps, now);
                self.event_seq += 1;
                self.frontier = stamps.vector.clone();
                self.events.push(ProcEvent {
                    process: self.id,
                    seq: self.event_seq,
                    at: now,
                    kind: EventKind::Receive { from },
                    stamps,
                });
                let commands = self.rule.on_report(&report, &self.reports);
                self.reports.push(ReceivedReport { report, arrived_at: now });
                for (target, key, command) in commands {
                    self.actuations.push(ActuationRecord { at: now, target, key, command });
                    // The command is a computation message: a send event s
                    // at the root (SC2/VC2), stamps piggybacked.
                    let bundle = self.bundle.as_mut().expect("started");
                    let send_stamps = bundle.on_send(now);
                    self.event_seq += 1;
                    ctx.send(
                        target,
                        NetMsg::Actuate { key, command, stamps: Box::new(send_stamps.clone()) },
                    );
                    self.events.push(ProcEvent {
                        process: self.id,
                        seq: self.event_seq,
                        at: now,
                        kind: EventKind::Send { to: target },
                        stamps: send_stamps,
                    });
                }
            }
            NetMsg::Strobe { origin, seq, payload } => {
                if self.quarantine && !payload.verify() {
                    return; // corrupted in transit: drop, never relay
                }
                // The root participates in the strobe protocol as a
                // listener (it is in P, so system-wide broadcasts reach it).
                self.bundle.as_mut().expect("started").on_strobe(&payload);
                if origin < self.seen_strobes.len() && seq > self.seen_strobes[origin] {
                    self.seen_strobes[origin] = seq;
                    if self.flood {
                        ctx.broadcast(NetMsg::Strobe { origin, seq, payload });
                    }
                }
            }
            NetMsg::WorldSense { .. } | NetMsg::Actuate { .. } => {
                // The root senses nothing and is never actuated.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ExecutionLog;
    use crate::process::{SensorProcess, StrobePolicy};
    use psn_sim::delay::DelayModel;
    use psn_sim::engine::Engine;
    use psn_sim::network::NetworkConfig;
    use psn_sim::time::SimTime;

    /// Actuate back at the reporting process whenever value > 5.
    struct Threshold;
    impl ActuationRule for Threshold {
        fn on_report(
            &mut self,
            report: &Report,
            _: &[ReceivedReport],
        ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
            if report.value.as_int() > 5 {
                vec![(report.process, report.key, AttrValue::Bool(true))]
            } else {
                Vec::new()
            }
        }
    }

    /// The sealed log and the root's final frontier.
    fn run(rule: Box<dyn ActuationRule>) -> (ExecutionLog, VectorStamp) {
        let net = NetworkConfig::full_mesh(3, DelayModel::Synchronous);
        let mut engine = Engine::new(net, 1);
        for id in 0..2 {
            engine.add_actor(Box::new(SensorProcess::new(
                id,
                2,
                2,
                ClockConfig::default(),
                StrobePolicy::default(),
            )));
        }
        engine.add_actor(Box::new(RootProcess::new(2, 2, ClockConfig::default(), rule)));
        engine.inject(
            SimTime::from_millis(10),
            0,
            0,
            NetMsg::WorldSense {
                key: AttrKey::new(0, 0),
                value: AttrValue::Int(3),
                world_event: 0,
            },
        );
        engine.inject(
            SimTime::from_millis(20),
            1,
            1,
            NetMsg::WorldSense {
                key: AttrKey::new(1, 0),
                value: AttrValue::Int(9),
                world_event: 1,
            },
        );
        engine.run();
        let frontier = crate::execution::root(&engine, 2).frontier().clone();
        (crate::execution::into_trace(engine, 2).log, frontier)
    }

    #[test]
    fn root_collects_reports_in_order() {
        let (log, _) = run(Box::new(NoActuation));
        assert_eq!(log.reports.len(), 2);
        assert_eq!(log.reports[0].report.process, 0);
        assert_eq!(log.reports[1].report.process, 1);
        assert_eq!(log.reports[1].report.value, AttrValue::Int(9));
    }

    #[test]
    fn root_vector_advances_monotonically() {
        let (log, frontier) = run(Box::new(NoActuation));
        let receives = log.events_of(2);
        assert!(receives[0].stamps.vector.lt(&frontier), "the root's knowledge frontier grows");
        assert_eq!(receives[1].stamps.vector, frontier);
    }

    #[test]
    fn actuation_rule_closes_the_loop() {
        let (log, _) = run(Box::new(Threshold));
        assert_eq!(log.actuations.len(), 1, "only the report with value 9 triggers");
        assert_eq!(log.actuations[0].target, 1);
        // The actuated sensor recorded an 'a' event.
        let p1_events = log.events_of(1);
        assert!(p1_events.iter().any(|e| e.kind.tag() == 'a'));
    }

    #[test]
    fn receive_events_recorded_at_root() {
        let (log, _) = run(Box::new(NoActuation));
        let root_events = log.events_of(2);
        assert_eq!(root_events.len(), 2);
        assert!(root_events.iter().all(|e| e.kind.tag() == 'r'));
        // Root's vector clock merged the senders' components.
        let last = &root_events[1].stamps.vector;
        assert!(last[0] >= 1 && last[1] >= 1);
    }
}
