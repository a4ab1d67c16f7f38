//! Running a complete execution: world plane → network plane → root.
//!
//! [`run_execution`] takes a generated [`Scenario`] (the ground-truth world
//! timeline plus the sensing assignment) and a network/clock configuration,
//! builds the ⟨P, L⟩ plane (n sensors + the root P₀ on a full mesh), injects
//! every world event into its watching sensor at its ground-truth time, and
//! runs to quiescence. The result is an [`ExecutionTrace`]: the complete
//! observable history every detector in `psn-predicates` consumes —
//! detectors built on different clocks therefore compare on *identical*
//! executions.

use std::any::Any;

use serde::{Deserialize, Serialize};

use psn_sim::delay::DelayModel;
use psn_sim::engine::Engine;
use psn_sim::loss::LossModel;
use psn_sim::metrics::{Metrics, PublishedCounters};
use psn_sim::network::{ActorId, NetStats, NetworkConfig, Topology};
use psn_sim::provider::ExternalEvent;
use psn_sim::time::SimTime;
use psn_world::Scenario;

use crate::bundle::ClockConfig;
use crate::log::ExecutionLog;
use crate::message::NetMsg;
use crate::process::{RecoveryPolicy, SensorProcess, StrobePolicy};
use crate::root::{ActuationRule, NoActuation, RootProcess};

/// Full configuration of one execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// The message-delay model (Δ).
    pub delay: DelayModel,
    /// The message-loss model.
    pub loss: LossModel,
    /// FIFO channels?
    pub fifo: bool,
    /// Clock hardware parameters (ε, offsets, drift).
    pub clocks: ClockConfig,
    /// Strobe policy.
    pub strobes: StrobePolicy,
    /// Overlay topology L over the n sensors + root (node `n`). `None`
    /// (default) uses a full mesh. For sparse overlays enable
    /// [`StrobePolicy::flood`] so System-wide_Broadcast still covers P.
    pub topology: Option<Topology>,
    /// Master seed (drives delays, losses, and clock imperfections — the
    /// world timeline has its own seed at generation time).
    pub seed: u64,
    /// Record the full network-plane trace (sent/delivered/lost messages,
    /// timers, notes and fault-plane events) into [`ExecutionTrace::sim`].
    /// Off by default (memory). The process events and their clock stamps
    /// are in [`ExecutionTrace::log`] whether or not this is set.
    pub record_sim_trace: bool,
    /// Hard stop for the simulation. `None` runs to quiescence — which is
    /// correct for purely event-driven runs but would never terminate with
    /// heartbeat strobes; when heartbeats are enabled and no end time is
    /// given, the run stops 30 s (sim time) after the last world event.
    pub end_time: Option<SimTime>,
    /// Fault script to install into the engine's fault plane (crashes,
    /// partitions, channel faults, clock faults). `None` (default) leaves
    /// the fault plane uninstalled — the hot path is untouched and the run
    /// is bit-identical to a faults-unaware build.
    pub faults: Option<psn_sim::fault::FaultScript>,
    /// How sensors come back from a crash (log replay, clock re-priming,
    /// ε-resync). Only consulted when `faults` crash-recovers a process.
    pub recovery: RecoveryPolicy,
    /// Number of engine shards to run on (see [`psn_sim::engine::Engine::set_shards`]).
    /// `1` (default) runs one lane. More shards execute the run in
    /// parallel but **bit-identically**: the result is the same for every
    /// shard count, for batch runs and live sessions
    /// ([`LiveExecution`](crate::live::LiveExecution), `psn-serve`) alike.
    /// Requires a delay model with a nonzero minimum (lookahead);
    /// zero-lookahead models keep one lane.
    pub shards: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            delay: DelayModel::delta(psn_sim::time::SimDuration::from_millis(100)),
            loss: LossModel::None,
            fifo: true,
            clocks: ClockConfig::default(),
            strobes: StrobePolicy::default(),
            topology: None,
            seed: 0,
            record_sim_trace: false,
            end_time: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
            shards: 1,
        }
    }
}

/// The observable outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// Number of sensor processes (the root has id `n`).
    pub n: usize,
    /// The complete log: process events, reports at the root, actuations.
    pub log: ExecutionLog,
    /// Network counters.
    pub net: NetStats,
    /// The network-plane trace (empty unless
    /// [`ExecutionConfig::record_sim_trace`] was set).
    pub sim: psn_sim::trace::Trace,
    /// Ground-truth end time of the run.
    pub ended_at: SimTime,
    /// Fault-plane counters (`None` when [`ExecutionConfig::faults`] was
    /// `None`, i.e. no plane was installed).
    pub faults: Option<psn_sim::fault::FaultStats>,
}

impl ExecutionTrace {
    /// The root's process id.
    pub fn root_id(&self) -> usize {
        self.n
    }
}

/// Run `scenario` under `cfg` with no actuation rule.
pub fn run_execution(scenario: &Scenario, cfg: &ExecutionConfig) -> ExecutionTrace {
    run_execution_with_rule(scenario, cfg, Box::new(NoActuation))
}

/// Run `scenario` under `cfg` with a custom actuation rule at the root.
pub fn run_execution_with_rule(
    scenario: &Scenario,
    cfg: &ExecutionConfig,
    rule: Box<dyn ActuationRule>,
) -> ExecutionTrace {
    run_execution_inner(scenario, cfg, rule, &Metrics::disabled())
}

/// Run `scenario` under `cfg` with the observability registry `metrics`
/// attached: the run publishes engine and execution metrics (events,
/// delivered/dropped messages, semantic event counts, strobe wire bytes by
/// clock discipline) when it ends, and times its phases (per-shard busy /
/// barrier-wait / exchange, coordinator drain, run wall) in the registry's
/// [`Metrics::telemetry`] view. The returned trace is bit-identical to an
/// uninstrumented [`run_execution`] of the same inputs.
pub fn run_execution_instrumented(
    scenario: &Scenario,
    cfg: &ExecutionConfig,
    metrics: &Metrics,
) -> ExecutionTrace {
    run_execution_inner(scenario, cfg, Box::new(NoActuation), metrics)
}

/// The world timeline as an injection sequence: each world event becomes an
/// [`ExternalEvent`] addressed to its watching sensor process at its
/// ground-truth time (events nobody watches are dropped). The batch path
/// hands it to [`Engine::feed`]; timeline-fed live sessions wrap it in a
/// [`psn_sim::provider::TimelineProvider`].
pub fn world_events(scenario: &Scenario) -> Vec<ExternalEvent<NetMsg>> {
    let mut out = Vec::with_capacity(scenario.timeline.events.len());
    for e in &scenario.timeline.events {
        if let Some(p) = scenario.sensing.process_for(e.key) {
            out.push(ExternalEvent {
                at: e.at,
                to: p,
                from: p,
                msg: NetMsg::WorldSense { key: e.key, value: e.value, world_event: e.id },
            });
        }
    }
    out
}

/// Build the engine for an `n`-sensor execution: network plane, shard
/// count, metrics, tracing, end-time policy, the n [`SensorProcess`] actors
/// plus the root, and the fault plane; and the publisher of its `exec.*`
/// counters. Shared by the batch runner and
/// [`LiveExecution`](crate::live::LiveExecution) so both paths wire the
/// actors identically — the precondition for batch/live bit-identity.
/// `heartbeat_horizon` bounds heartbeat-driven runs that set no explicit
/// end time (batch derives it from the scenario; live passes `None` and
/// paces the run itself).
pub(crate) fn build_engine(
    n: usize,
    cfg: &ExecutionConfig,
    rule: Box<dyn ActuationRule>,
    metrics: &Metrics,
    heartbeat_horizon: Option<SimTime>,
) -> (Engine<NetMsg>, PublishedCounters<8>) {
    assert!(n > 0, "execution needs at least one sensor process");
    let topology = match &cfg.topology {
        Some(t) => {
            assert_eq!(t.len(), n + 1, "topology must cover n sensors + the root");
            t.clone()
        }
        None => Topology::FullMesh { n: n + 1 },
    };
    let net = NetworkConfig {
        topology,
        delay: cfg.delay.clone(),
        loss: cfg.loss.clone(),
        fifo: cfg.fifo,
    };
    let mut engine: Engine<NetMsg> = Engine::new(net, cfg.seed);
    engine.set_shards(cfg.shards);
    engine.set_metrics(metrics);
    if cfg.record_sim_trace {
        engine.enable_trace();
    }
    match (cfg.end_time, cfg.strobes.heartbeat) {
        (Some(end), _) => engine.set_end_time(end),
        (None, Some(_)) => {
            // Recurring heartbeat timers never drain the queue on their
            // own; bound the run past the last world event.
            if let Some(horizon) = heartbeat_horizon {
                engine.set_end_time(horizon);
            }
        }
        (None, None) => {}
    }
    for id in 0..n {
        engine.add_actor(Box::new(
            SensorProcess::new(
                id,
                n,
                n, // root actor id
                cfg.clocks.clone(),
                cfg.strobes,
            )
            .with_recovery(cfg.recovery.clone()),
        ));
    }
    engine.add_actor(Box::new(
        RootProcess::new(n, n, cfg.clocks.clone(), rule)
            .with_flood(cfg.strobes.flood)
            .with_quarantine(cfg.strobes.quarantine),
    ));
    if let Some(script) = &cfg.faults {
        engine.install_faults(script);
    }
    (engine, PublishedCounters::attach(metrics, EXEC_COUNTERS))
}

/// E7's analytic wire bytes of an `n`-sensor execution with `broadcasts`
/// strobe broadcasts and `reports` reports, per clock family: `[scalar
/// strobe payloads, vector strobe payloads, causal report piggybacks]`. A
/// broadcast reaches the `n−1` peers plus the root; a scalar strobe is 8
/// bytes, a vector strobe and a report's causal vector `8·(n+1)`.
pub fn family_bytes(n: usize, broadcasts: u64, reports: u64) -> [u64; 3] {
    let (n, vector) = (n as u64, 8 * (n as u64 + 1));
    [broadcasts * n * 8, broadcasts * n * vector, reports * vector]
}

/// The counters [`publish_exec`] publishes, in its order.
const EXEC_COUNTERS: [&str; 8] = [
    "exec.senses",
    "exec.sends",
    "exec.receives",
    "exec.actuates",
    "exec.strobes_broadcast",
    "exec.strobe_scalar_bytes",
    "exec.strobe_vector_bytes",
    "exec.causal_piggyback_bytes",
];

/// Publish what the ⟨P, L, O, C⟩ planes of an `n`-sensor execution did:
/// the paper's semantic events (sense `n`, send `s`, receive `r`, actuate
/// `a`), strobe broadcasts, and the [`family_bytes`] of the strobes and
/// reports sent. It reads the counts the processes and the network keep
/// anyway: every report follows a sense, and every command the root sends
/// is an actuation it records.
pub(crate) fn publish_exec(engine: &Engine<NetMsg>, n: usize, exec: &mut PublishedCounters<8>) {
    let (mut senses, mut actuates) = (0, 0);
    for id in 0..n {
        senses += sensor(engine, id).senses();
        actuates += sensor(engine, id).actuates();
    }
    let root = root(engine, n);
    let strobes = engine.stats().broadcasts;
    let [scalar, vector, piggyback] = family_bytes(n, strobes, senses);
    let (commands, reports) = (root.actuations().len() as u64, root.reports().len() as u64);
    exec.publish([
        senses,
        senses + commands,
        reports,
        actuates,
        strobes,
        scalar,
        vector,
        piggyback,
    ]);
}

/// Sensor `id` of an engine [`build_engine`] wired, read in place.
pub(crate) fn sensor(engine: &Engine<NetMsg>, id: ActorId) -> &SensorProcess {
    let actor: &dyn Any = engine.actor(id).expect("sensors stay resident");
    actor.downcast_ref().expect("actors 0..n are sensors")
}

/// The root of an `n`-sensor engine [`build_engine`] wired, read in place.
pub(crate) fn root(engine: &Engine<NetMsg>, n: usize) -> &RootProcess {
    let actor: &dyn Any = engine.actor(n).expect("the root stays resident");
    actor.downcast_ref().expect("actor n is the root")
}

/// The engine → [`ExecutionTrace`] tail of the batch runner: finish the
/// engine (sealing its trace), read its counters, then take the `n`
/// sensors and the root out, drop the engine, and seal their logs into one
/// [`ExecutionLog`]: each log is moved, never copied (see
/// [`ExecutionLog::seal`]).
pub(crate) fn into_trace(mut engine: Engine<NetMsg>, n: usize) -> ExecutionTrace {
    let ended_at = engine.finish();
    let faults = engine.fault_stats();
    let net = engine.stats();
    let sim = engine.trace().clone();
    let mut logs = Vec::with_capacity(n + 1);
    for id in 0..n {
        let actor: Box<dyn Any> = engine.take_actor(id);
        logs.push(actor.downcast::<SensorProcess>().expect("actors 0..n are sensors").into_log());
    }
    let actor: Box<dyn Any> = engine.take_actor(n);
    let (events, reports, actuations) =
        actor.downcast::<RootProcess>().expect("actor n is the root").into_logs();
    logs.push(events);
    drop(engine);
    let log = ExecutionLog::seal(logs, reports, actuations);
    ExecutionTrace { n, log, net, sim, ended_at, faults }
}

fn run_execution_inner(
    scenario: &Scenario,
    cfg: &ExecutionConfig,
    rule: Box<dyn ActuationRule>,
    metrics: &Metrics,
) -> ExecutionTrace {
    let n = scenario.num_processes();
    assert!(n > 0, "scenario must have at least one sensor process");
    let horizon = scenario.timeline.duration() + psn_sim::time::SimDuration::from_secs(30);
    let (mut engine, mut exec) = build_engine(n, cfg, rule, metrics, Some(horizon));

    // The engine injects each world event as its clock reaches it, under
    // the inject id its list position gives, so the run is bit-identical
    // to injecting the whole timeline up front while the queue holds only
    // what is in flight. Sensing itself is immediate; only the network
    // plane has delays.
    engine.feed(world_events(scenario));
    engine.run();
    publish_exec(&engine, n, &mut exec);
    into_trace(engine, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProcEvent};
    use psn_sim::time::{SimDuration, SimTime};
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    fn tiny_scenario() -> Scenario {
        exhibition::generate(
            &ExhibitionParams {
                doors: 3,
                arrival_rate_hz: 1.0,
                mean_stay: SimDuration::from_secs(20),
                duration: SimTime::from_secs(120),
                capacity: 10,
            },
            7,
        )
    }

    #[test]
    fn every_world_event_yields_a_sense_and_a_report() {
        let s = tiny_scenario();
        let t = run_execution(&s, &ExecutionConfig::default());
        let senses = t.log.sense_events().len();
        assert_eq!(senses, s.timeline.len(), "each world event sensed once");
        assert_eq!(t.log.reports.len(), senses, "each sense reported (lossless)");
    }

    #[test]
    fn executions_are_deterministic() {
        let s = tiny_scenario();
        let cfg = ExecutionConfig::default();
        let a = run_execution(&s, &cfg);
        let b = run_execution(&s, &cfg);
        assert_eq!(a.log.events, b.log.events);
        assert_eq!(a.log.reports, b.log.reports);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn instrumented_run_is_identical_and_counts_semantics() {
        let s = tiny_scenario();
        let cfg = ExecutionConfig::default();
        let plain = run_execution(&s, &cfg);
        let m = psn_sim::metrics::Metrics::new();
        let inst = run_execution_instrumented(&s, &cfg, &m);
        assert_eq!(plain.log.events, inst.log.events, "metrics must not perturb the run");
        assert_eq!(plain.log.reports, inst.log.reports);
        assert_eq!(plain.net, inst.net);

        let snap = m.snapshot();
        let n = inst.n as u64;
        assert_eq!(snap.counter("exec.senses"), Some(inst.log.sense_events().len() as u64));
        assert_eq!(snap.counter("exec.receives"), Some(inst.log.reports.len() as u64));
        assert_eq!(snap.counter("exec.strobes_broadcast"), Some(inst.net.broadcasts));
        // Byte accounting reproduces the E7 analytic model exactly.
        assert_eq!(snap.counter("exec.strobe_scalar_bytes"), Some(inst.net.broadcasts * n * 8));
        assert_eq!(
            snap.counter("exec.strobe_vector_bytes"),
            Some(inst.net.broadcasts * n * 8 * (n + 1))
        );
        assert_eq!(snap.counter("engine.messages_delivered"), Some(inst.net.messages_delivered));
    }

    #[test]
    fn byte_accounting_matches_the_e7_model() {
        // n = 4 sensors: 2 broadcasts × 4 receivers × 8 bytes.
        // The vector payload is (n+1)× the scalar payload; one report
        // piggybacks one vector.
        assert_eq!(family_bytes(4, 2, 1), [64, 64 * 5, 8 * 5]);
    }

    #[test]
    fn process_logs_hold_one_send_per_sense_and_one_receive_per_report() {
        let s = tiny_scenario();
        let plain = run_execution(&s, &ExecutionConfig::default());
        let cfg = ExecutionConfig { record_sim_trace: true, ..Default::default() };
        let traced = run_execution(&s, &cfg);
        // Tracing is observational: the run itself is bit-identical.
        assert_eq!(plain.log.events, traced.log.events);
        assert_eq!(plain.log.reports, traced.log.reports);
        assert_eq!(plain.net, traced.net);
        assert!(plain.sim.is_empty() && !traced.sim.is_empty());

        let root = plain.root_id();
        let count =
            |f: &dyn Fn(&ProcEvent) -> bool| plain.log.events.iter().filter(|e| f(e)).count();
        for p in 0..plain.n {
            let senses = count(&|e| e.process == p && matches!(e.kind, EventKind::Sense { .. }));
            let sends = count(&|e| e.process == p && e.kind == EventKind::Send { to: root });
            assert!(senses > 0, "process {p} sensed");
            assert_eq!(sends, senses, "process {p}: one report send per sense");
        }
        let receives = count(&|e| e.process == root && matches!(e.kind, EventKind::Receive { .. }));
        assert_eq!(receives, plain.log.reports.len(), "one root receive per report");
        // Every sense's vector stamp has the sensing process's own
        // component set.
        for e in plain.log.sense_events() {
            assert!(e.stamps.vector.as_slice()[e.process] >= 1, "own component ticked");
        }
    }

    #[test]
    fn different_seed_changes_arrival_order_or_stamps() {
        let s = tiny_scenario();
        let a = run_execution(&s, &ExecutionConfig { seed: 1, ..Default::default() });
        let b = run_execution(&s, &ExecutionConfig { seed: 2, ..Default::default() });
        assert_ne!(a.log.reports, b.log.reports, "delays and clock noise differ");
    }

    #[test]
    fn strobe_throttling_reduces_broadcasts() {
        let s = tiny_scenario();
        let every1 = run_execution(
            &s,
            &ExecutionConfig {
                strobes: StrobePolicy { every: 1, ..Default::default() },
                ..Default::default()
            },
        );
        let every4 = run_execution(
            &s,
            &ExecutionConfig {
                strobes: StrobePolicy { every: 4, ..Default::default() },
                ..Default::default()
            },
        );
        assert!(every4.net.broadcasts < every1.net.broadcasts);
        assert!(every4.net.broadcasts >= every1.net.broadcasts / 5);
    }

    #[test]
    fn loss_drops_reports() {
        let s = tiny_scenario();
        let lossy = run_execution(
            &s,
            &ExecutionConfig { loss: LossModel::Bernoulli { p: 0.5 }, ..Default::default() },
        );
        assert!(lossy.net.messages_lost > 0);
        assert!(lossy.log.reports.len() < s.timeline.len(), "some reports were lost");
    }

    #[test]
    fn synchronous_delay_means_everything_arrives_instantly() {
        let s = tiny_scenario();
        let t = run_execution(
            &s,
            &ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() },
        );
        for r in &t.log.reports {
            assert_eq!(r.arrived_at, r.report.stamps.truth, "Δ=0: report arrives at sense time");
        }
    }

    #[test]
    fn faults_none_and_empty_script_agree() {
        let s = tiny_scenario();
        let off = run_execution(&s, &ExecutionConfig::default());
        let empty = run_execution(
            &s,
            &ExecutionConfig {
                faults: Some(psn_sim::fault::FaultScript::new()),
                ..Default::default()
            },
        );
        assert_eq!(off.log.events, empty.log.events, "an empty plane is observational");
        assert_eq!(off.log.reports, empty.log.reports);
        assert_eq!(off.net, empty.net);
        assert!(off.faults.is_none());
        assert_eq!(empty.faults, Some(psn_sim::fault::FaultStats::default()));
    }

    #[test]
    fn crash_recover_replays_log_and_rejoins() {
        use psn_sim::fault::{FaultScript, FaultSpec};
        let s = tiny_scenario();
        let crash_at = SimTime::from_secs(30);
        let back_at = SimTime::from_secs(60);
        let cfg = ExecutionConfig {
            faults: Some(FaultScript::new().with(
                crash_at,
                FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_secs(30)) },
            )),
            ..Default::default()
        };
        let t = run_execution(&s, &cfg);
        let stats = t.faults.as_ref().expect("plane installed");
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);

        let p0: Vec<_> = t.log.events_of(0).into_iter().filter(|e| e.kind.tag() == 'n').collect();
        assert!(p0.iter().any(|e| e.at < crash_at), "sensed before the crash");
        assert!(
            !p0.iter().any(|e| e.at >= crash_at && e.at < back_at),
            "no sense events while down"
        );
        assert!(p0.iter().any(|e| e.at >= back_at), "resumed sensing after recovery");

        // Log replay re-primed the counters: event seqs stay strictly
        // monotone across the crash instead of restarting from zero.
        let all0 = t.log.events_of(0);
        for w in all0.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq restarted: {} then {}", w[0].seq, w[1].seq);
        }
        // ... and the vector clock kept its pre-crash knowledge.
        let last = all0.last().unwrap();
        assert!(last.stamps.vector[0] as usize >= p0.len());

        // Deterministic: the same script replays byte-for-byte.
        let again = run_execution(&s, &cfg);
        assert_eq!(t.log.events, again.log.events);
        assert_eq!(t.faults, again.faults);

        // On two shards (which need a floored delay) recovery reads the
        // process's own log on whichever lane runs it: the log equals the
        // sequential one.
        let floored = ExecutionConfig { delay: floored_delay(), ..cfg };
        let seq = run_execution(&s, &floored);
        assert_eq!(seq.faults.as_ref().map(|f| f.recoveries), Some(1));
        let par = run_execution(&s, &ExecutionConfig { shards: 2, ..floored });
        assert_eq!(par.log.events, seq.log.events);
        assert_eq!(par.log.reports, seq.log.reports);
        assert_eq!(par.faults, seq.faults);
        assert_eq!(par.net, seq.net);
    }

    #[test]
    fn quarantine_confines_corrupted_strobes() {
        use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
        let s = tiny_scenario();
        let script = FaultScript::new().with(
            SimTime::ZERO,
            FaultSpec::Channel(ChannelFaultRule {
                from: Some(0),
                to: None,
                prob: 1.0,
                effect: ChannelEffect::Corrupt,
                duration: None,
            }),
        );
        let max_strobe = |t: &ExecutionTrace| {
            t.log.events.iter().map(|e| e.stamps.strobe_scalar.value).max().unwrap_or(0)
        };
        let open = run_execution(
            &s,
            &ExecutionConfig { faults: Some(script.clone()), ..Default::default() },
        );
        assert!(open.faults.as_ref().unwrap().corrupted > 0);
        assert!(
            max_strobe(&open) >= 1_000,
            "without quarantine the garbled stamp infects receivers"
        );
        let guarded = run_execution(
            &s,
            &ExecutionConfig {
                faults: Some(script),
                strobes: StrobePolicy { quarantine: true, ..Default::default() },
                ..Default::default()
            },
        );
        assert!(guarded.faults.as_ref().unwrap().corrupted > 0);
        assert!(max_strobe(&guarded) < 1_000, "quarantine drops garbled strobes at ingest");
    }

    /// A delay model with a nonzero floor: the sharded engine needs
    /// lookahead (`delta()` has `min = 0` and falls back to sequential).
    fn floored_delay() -> DelayModel {
        DelayModel::DeltaBounded {
            min: SimDuration::from_millis(40),
            max: SimDuration::from_millis(240),
        }
    }

    #[test]
    fn sharded_actuation_loop_matches_sequential() {
        use crate::message::Report;
        use psn_clocks::ProcessId;
        use psn_world::{AttrKey, AttrValue};

        // A stateful rule (running count) at the root.
        struct EveryOther {
            count: u64,
        }
        impl ActuationRule for EveryOther {
            fn on_report(
                &mut self,
                report: &Report,
                _: &[crate::log::ReceivedReport],
            ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
                self.count += 1;
                if self.count.is_multiple_of(2) {
                    vec![(report.process, report.key, AttrValue::Bool(true))]
                } else {
                    Vec::new()
                }
            }
        }

        let s = tiny_scenario();
        let seq = run_execution_with_rule(
            &s,
            &ExecutionConfig { delay: floored_delay(), ..Default::default() },
            Box::new(EveryOther { count: 0 }),
        );
        assert!(!seq.log.actuations.is_empty(), "the rule must actually actuate");
        let cfg = ExecutionConfig { delay: floored_delay(), shards: 4, ..Default::default() };
        let par = run_execution_with_rule(&s, &cfg, Box::new(EveryOther { count: 0 }));
        assert_eq!(seq.log.events, par.log.events);
        assert_eq!(seq.log.reports, par.log.reports);
        assert_eq!(seq.log.actuations, par.log.actuations);
        assert_eq!(seq.net, par.net);
    }

    /// A rule sees what P₀ knows: the reports received before the one in
    /// hand, one more at each call, in the same sequence on any shard count.
    #[test]
    fn actuation_rule_sees_the_reports_received_before() {
        use crate::log::ReceivedReport;
        use crate::message::Report;
        use psn_clocks::ProcessId;
        use psn_world::{AttrKey, AttrValue};
        use std::sync::{Arc, Mutex};

        struct HistoryLens(Arc<Mutex<Vec<usize>>>);
        impl ActuationRule for HistoryLens {
            fn on_report(
                &mut self,
                _: &Report,
                history: &[ReceivedReport],
            ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
                self.0.lock().unwrap().push(history.len());
                Vec::new()
            }
        }

        let s = tiny_scenario();
        let lens = |shards| {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let cfg = ExecutionConfig { delay: floored_delay(), shards, ..Default::default() };
            let t = run_execution_with_rule(&s, &cfg, Box::new(HistoryLens(Arc::clone(&seen))));
            let seen = std::mem::take(&mut *seen.lock().unwrap());
            assert_eq!(seen, (0..t.log.reports.len()).collect::<Vec<_>>(), "{shards} shard(s)");
            seen
        };
        let sequential = lens(1);
        assert!(!sequential.is_empty());
        assert_eq!(lens(2), sequential);
    }

    #[test]
    fn sharded_instrumented_counts_match_sequential() {
        let s = tiny_scenario();
        let m_seq = psn_sim::metrics::Metrics::new();
        let seq = run_execution_instrumented(
            &s,
            &ExecutionConfig { delay: floored_delay(), ..Default::default() },
            &m_seq,
        );
        let m_par = psn_sim::metrics::Metrics::new();
        let cfg = ExecutionConfig { delay: floored_delay(), shards: 4, ..Default::default() };
        let par = run_execution_instrumented(&s, &cfg, &m_par);
        assert_eq!(seq.log.events, par.log.events);
        let a = m_seq.snapshot();
        let b = m_par.snapshot();
        // Every counter of the run itself; `engine.windows` and
        // `engine.op_barriers` count how it was stepped.
        let names = EXEC_COUNTERS.into_iter().chain([
            "engine.events_processed",
            "engine.messages_delivered",
            "engine.messages_dropped",
        ]);
        for name in names.clone() {
            assert_eq!(a.counter(name), b.counter(name), "{name} differs across shard counts");
        }
        assert!(a.counter("exec.senses").unwrap() > 0);

        // A live session publishes after each advance what batch counts.
        for shards in [1, 2, 4] {
            let m = psn_sim::metrics::Metrics::new();
            let cfg = ExecutionConfig { delay: floored_delay(), shards, ..Default::default() };
            let mut live = crate::live::LiveExecution::new_full(
                s.num_processes(),
                cfg,
                Box::new(NoActuation),
                &m,
                Box::new(psn_sim::provider::TimelineProvider::new(world_events(&s))),
            );
            let end = s.timeline.duration() + SimDuration::from_secs(5);
            let mut t = SimTime::ZERO;
            while t < end {
                t += SimDuration::from_millis(2_500);
                live.advance_to(t).expect("the watermark only grows");
            }
            let c = m.snapshot();
            for name in names.clone() {
                assert_eq!(c.counter(name), a.counter(name), "live {name}, shards={shards}");
            }
        }
    }

    /// The world timeline enters the engine as its clock reaches it, so
    /// the queue holds what is in flight, not the whole timeline (2 000
    /// events here; up-front injection read a depth of 2 015).
    #[test]
    fn the_queue_holds_only_what_is_in_flight() {
        let params = ExhibitionParams {
            doors: 4,
            arrival_rate_hz: 40.0,
            mean_stay: SimDuration::from_secs(20),
            duration: SimTime::from_secs(40),
            capacity: 800,
        };
        let mut s = exhibition::generate(&params, 3);
        assert!(s.timeline.len() >= 2_000, "{} world events", s.timeline.len());
        s.timeline.events.truncate(2_000);
        let m = psn_sim::metrics::Metrics::new();
        let t = run_execution_instrumented(&s, &ExecutionConfig::default(), &m);
        assert_eq!(t.log.reports.len(), 2_000);
        let (_, high) = m.snapshot().gauge("engine.queue_depth").expect("gauge registered");
        assert!(high < 200, "queue depth high-water {high}");
    }

    #[test]
    fn report_vector_stamps_grow_per_process() {
        let s = tiny_scenario();
        let t = run_execution(&s, &ExecutionConfig::default());
        for p in 0..t.n {
            let reports = t.log.reports_of(p);
            for w in reports.windows(2) {
                assert!(
                    w[0].report.stamps.vector.lt(&w[1].report.stamps.vector),
                    "a process's own sense events are totally ordered"
                );
                assert!(w[0].report.sense_seq < w[1].report.sense_seq);
            }
        }
    }
}
