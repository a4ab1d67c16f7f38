//! The distinguished root process P₀ (paper §2.1).
//!
//! "In a common configuration, a distinguished process P₀ acts as a root or
//! back-end server that processes the sensed information." The root
//! collects reports, maintains its own causality-based clocks (ticking per
//! SC3/VC3 on each report), and optionally runs an **actuation rule** that
//! closes the sense → send → receive → actuate loop of §4.1.

use std::sync::Arc;

use parking_lot::Mutex;

use psn_clocks::ProcessId;
use psn_sim::engine::{Actor, Context};
use psn_sim::network::ActorId;
use psn_world::{AttrKey, AttrValue};

use crate::bundle::{ClockBundle, ClockConfig};
use crate::event::{EventKind, ProcEvent};
use crate::log::{ActuationRecord, ExecutionLog, ReceivedReport};
use crate::message::{NetMsg, Report};
use crate::metrics::ExecMetrics;

/// A rule the root evaluates online on each arriving report. Returning
/// commands closes the actuation loop.
pub trait ActuationRule: Send {
    /// Inspect the arriving report (and the history so far); return
    /// `(target process, attribute, command)` triples to actuate.
    fn on_report(
        &mut self,
        report: &Report,
        history: &ExecutionLog,
    ) -> Vec<(ProcessId, AttrKey, AttrValue)>;

    /// A deep copy of the rule's current state, used as the rollback
    /// checkpoint by the optimistic sharded mode
    /// ([`crate::execution::SpeculationMode::Optimistic`]). `None` (the
    /// default) makes the root unforkable, and the engine silently falls
    /// back to conservative windows — stateful rules opt in by cloning
    /// themselves here.
    fn fork(&self) -> Option<Box<dyn ActuationRule>> {
        None
    }
}

/// A no-op rule: observe only.
pub struct NoActuation;
impl ActuationRule for NoActuation {
    fn on_report(&mut self, _: &Report, _: &ExecutionLog) -> Vec<(ProcessId, AttrKey, AttrValue)> {
        Vec::new()
    }

    fn fork(&self) -> Option<Box<dyn ActuationRule>> {
        Some(Box::new(NoActuation))
    }
}

/// The root actor.
pub struct RootProcess {
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
    log: Arc<Mutex<ExecutionLog>>,
    metrics: ExecMetrics,
    trace_stamp: crate::process::TraceStampMode,
}

impl RootProcess {
    /// A root with actor id `id` (conventionally `n`, after the sensors).
    pub fn new(
        id: ProcessId,
        n: usize,
        cfg: ClockConfig,
        rule: Box<dyn ActuationRule>,
        log: Arc<Mutex<ExecutionLog>>,
    ) -> Self {
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
            log,
            metrics: ExecMetrics::disabled(),
            trace_stamp: crate::process::TraceStampMode::default(),
        }
    }

    /// Enable strobe flood relay at the root (builder style).
    pub fn with_flood(mut self, flood: bool) -> Self {
        self.flood = flood;
        self
    }

    /// Drop corrupted strobes instead of merging them (builder style).
    pub fn with_quarantine(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Which logical stamp to attach to structured trace records (builder
    /// style). Only consulted when the engine trace is enabled.
    pub fn with_trace_stamp(mut self, mode: crate::process::TraceStampMode) -> Self {
        self.trace_stamp = mode;
        self
    }

    /// Record semantic event counts and strobe byte accounting into
    /// `metrics` (builder style). Recording never changes behaviour.
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = metrics;
        self
    }
}

impl Actor<NetMsg> for RootProcess {
    fn fork(&self) -> Option<Box<dyn Actor<NetMsg> + Send>> {
        // Forkable exactly when the actuation rule is: the rule is the only
        // field without a structural clone. The log handle stays shared so
        // the speculation hooks' rollback reaches the fork's appends too.
        let rule = self.rule.fork()?;
        Some(Box::new(RootProcess {
            id: self.id,
            n: self.n,
            cfg: self.cfg.clone(),
            bundle: self.bundle.clone(),
            event_seq: self.event_seq,
            rule,
            flood: self.flood,
            quarantine: self.quarantine,
            seen_strobes: self.seen_strobes.clone(),
            log: Arc::clone(&self.log),
            metrics: self.metrics.clone(),
            trace_stamp: self.trace_stamp,
        }))
    }

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.bundle = Some(ClockBundle::new(self.id, self.n + 1, &self.cfg, ctx.rng()));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: ActorId, msg: NetMsg) {
        let now = ctx.now();
        match msg {
            NetMsg::Report(report) => {
                let bundle = self.bundle.as_mut().expect("started");
                // Receive event r: merge piggybacked stamps (SC3/VC3).
                let stamps = bundle.on_receive(&report.send_stamps, now);
                self.metrics.receives.inc();
                self.event_seq += 1;
                let root_vector = stamps.vector.clone();
                if ctx.trace_enabled() {
                    ctx.trace_process(
                        psn_sim::trace::ProcessEventKind::Receive,
                        self.trace_stamp.stamp_of(&stamps),
                        from as u64,
                    );
                }
                let mut log = self.log.lock();
                log.events.push(ProcEvent {
                    process: self.id,
                    seq: self.event_seq,
                    at: now,
                    kind: EventKind::Receive { from },
                    stamps,
                });
                log.reports.push(ReceivedReport { report: *report, arrived_at: now, root_vector });
                let report = &log.reports.last().expect("just pushed").report;
                let commands = self.rule.on_report(report, &log);
                for (target, key, command) in commands {
                    log.actuations.push(ActuationRecord { at: now, target, key, command });
                    drop(log);
                    // The command is a computation message: a send event s
                    // at the root (SC2/VC2), stamps piggybacked.
                    let bundle = self.bundle.as_mut().expect("started");
                    let send_stamps = bundle.on_send(now);
                    self.metrics.sends.inc();
                    self.event_seq += 1;
                    if ctx.trace_enabled() {
                        ctx.trace_process(
                            psn_sim::trace::ProcessEventKind::Send,
                            self.trace_stamp.stamp_of(&send_stamps),
                            target as u64,
                        );
                    }
                    ctx.send(
                        target,
                        NetMsg::Actuate { key, command, stamps: Box::new(send_stamps.clone()) },
                    );
                    log = self.log.lock();
                    log.events.push(ProcEvent {
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
                        self.metrics.on_strobe_broadcast();
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
            _: &ExecutionLog,
        ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
            if report.value.as_int() > 5 {
                vec![(report.process, report.key, AttrValue::Bool(true))]
            } else {
                Vec::new()
            }
        }

        fn fork(&self) -> Option<Box<dyn ActuationRule>> {
            Some(Box::new(Threshold))
        }
    }

    fn run(rule: Box<dyn ActuationRule>) -> Arc<Mutex<ExecutionLog>> {
        let log = ExecutionLog::shared();
        let net = NetworkConfig::full_mesh(3, DelayModel::Synchronous);
        let mut engine = Engine::new(net, 1);
        for id in 0..2 {
            engine.add_actor(Box::new(SensorProcess::new(
                id,
                2,
                2,
                ClockConfig::default(),
                StrobePolicy::default(),
                Arc::clone(&log),
            )));
        }
        engine.add_actor(Box::new(RootProcess::new(
            2,
            2,
            ClockConfig::default(),
            rule,
            Arc::clone(&log),
        )));
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
        log
    }

    #[test]
    fn root_collects_reports_in_order() {
        let log = run(Box::new(NoActuation));
        let log = log.lock();
        assert_eq!(log.reports.len(), 2);
        assert_eq!(log.reports[0].report.process, 0);
        assert_eq!(log.reports[1].report.process, 1);
        assert_eq!(log.reports[1].report.value, AttrValue::Int(9));
    }

    #[test]
    fn root_vector_advances_monotonically() {
        let log = run(Box::new(NoActuation));
        let log = log.lock();
        let v0 = &log.reports[0].root_vector;
        let v1 = &log.reports[1].root_vector;
        assert!(v0.lt(v1), "the root's knowledge frontier only grows");
    }

    #[test]
    fn actuation_rule_closes_the_loop() {
        let log = run(Box::new(Threshold));
        let log = log.lock();
        assert_eq!(log.actuations.len(), 1, "only the report with value 9 triggers");
        assert_eq!(log.actuations[0].target, 1);
        // The actuated sensor recorded an 'a' event.
        let p1_events = log.events_of(1);
        assert!(p1_events.iter().any(|e| e.kind.tag() == 'a'));
    }

    #[test]
    fn receive_events_recorded_at_root() {
        let log = run(Box::new(NoActuation));
        let log = log.lock();
        let root_events = log.events_of(2);
        assert_eq!(root_events.len(), 2);
        assert!(root_events.iter().all(|e| e.kind.tag() == 'r'));
        // Root's vector clock merged the senders' components.
        let last = &root_events[1].stamps.vector;
        assert!(last[0] >= 1 && last[1] >= 1);
    }
}
