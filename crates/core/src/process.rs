//! The sensor/actuator process (paper §2.1–2.2).
//!
//! A `SensorProcess` is an active network entity with an independent
//! clock (the whole `ClockBundle`). Its behaviour per the execution
//! model:
//!
//! - on a significant change of a watched attribute it records a **sense
//!   event** `n`, ticks its clocks (SC1/VC1/SSC1/SVC1), **broadcasts a
//!   strobe** (per the strobe policy), and **sends a report** to the root
//!   P₀ (a send event `s`, rules SC2/VC2);
//! - on receiving a strobe it merges (SSC2/SVC2) without ticking;
//! - on receiving an actuation command from the root it records an
//!   **actuate event** `a` and outputs to the environment.

use psn_clocks::{LogicalClock, ProcessId};
use psn_sim::engine::{Actor, Context};
use psn_sim::fault::FaultEvent;
use psn_sim::network::ActorId;

use crate::bundle::{ClockBundle, ClockConfig, StrobePayload};
use crate::event::{EventKind, ProcEvent};
use crate::message::{NetMsg, ReportMsg};

/// Per-process strobe policy.
///
/// The paper (§4.2): "the strobe by a process can synchronize at any time.
/// However, this synchronization need not happen any more frequently than
/// the local sensing of relevant events" — `every = 1` is the maximum
/// event-driven rate; `heartbeat` adds optional *time-driven* strobes
/// (current clock value, no tick) so long-quiet processes still
/// disseminate what they know; `flood` makes receivers relay unseen
/// strobes, implementing the protocol's System-wide_Broadcast on overlays
/// that are not fully meshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StrobePolicy {
    /// Broadcast on every k-th sense event (1 = every event, the default).
    pub every: usize,
    /// Also broadcast the current clock (without ticking) at this period.
    pub heartbeat: Option<psn_sim::time::SimDuration>,
    /// Relay strobes not seen before to neighbours (multi-hop overlays).
    pub flood: bool,
    /// Drop strobes whose integrity checksum fails (corrupted in transit by
    /// the fault plane) instead of merging the garbled stamps. Off by
    /// default: the paper's protocol trusts the channel, and E13 measures
    /// exactly what that trust costs per discipline.
    pub quarantine: bool,
}

impl Default for StrobePolicy {
    fn default() -> Self {
        StrobePolicy { every: 1, heartbeat: None, flood: false, quarantine: false }
    }
}

/// How a sensor process restores its state when the fault plane recovers it
/// after a crash (the crash-recover model; crash-stop is simply a script
/// with no recovery entry).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryPolicy {
    /// Replay the process's durable log on restart: fast-forward the
    /// Lamport clock, merge-catch-up the vector clocks past the last stamp
    /// this process assigned, and restore the sense/event counters. With
    /// `false` the process restarts amnesiac at zero — its new stamps may
    /// collide with pre-crash ones (what E11 measures).
    pub replay_log: bool,
    /// Run a post-recovery resync round for the ε-synced physical clock
    /// (planned by [`psn_sync::plan_resync`]); until it completes the clock
    /// is desynced and ε-based detection windows are unsound for this
    /// process. `None` never resyncs.
    pub resync: Option<psn_sync::ResyncParams>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { replay_log: true, resync: Some(psn_sync::ResyncParams::default()) }
    }
}

/// Timer tag of the post-recovery resync completion.
const TIMER_RESYNC: u64 = 1;
/// Heartbeat timer tags are `TIMER_HEARTBEAT_BASE + generation`; the
/// generation bumps on every recovery so a pre-crash heartbeat chain that
/// survived the outage (its timer fired after the recovery) is recognised
/// as stale and dropped instead of doubling the heartbeat rate.
const TIMER_HEARTBEAT_BASE: u64 = 8;

/// A sensor/actuator process actor.
pub(crate) struct SensorProcess {
    id: ProcessId,
    n: usize,
    root: ActorId,
    cfg: ClockConfig,
    policy: StrobePolicy,
    bundle: Option<ClockBundle>,
    sense_count: usize,
    event_seq: usize,
    /// This process's strobe counter (event-driven + heartbeat strobes).
    strobe_seq: u64,
    /// Flood dedup: highest strobe seq seen per origin. Only under
    /// [`StrobePolicy::flood`]; nothing reads it otherwise.
    seen_strobes: Option<Vec<u64>>,
    /// This process's durable, append-only event log, in recording order
    /// (since the last [`retire_log`](Self::retire_log)).
    log: Vec<ProcEvent>,
    /// The last event [`retire_log`](Self::retire_log) took from `log`:
    /// what a recovery replays when `log` is empty.
    carried: Option<ProcEvent>,
    /// Sense events this process has recorded, retired ones included:
    /// durable with the log, so a recovery restores the sense counter
    /// without scanning it.
    logged_senses: usize,
    /// Actuate events this process has recorded, retired ones included.
    actuates: u64,
    recovery: RecoveryPolicy,
    /// Current heartbeat chain generation (see [`TIMER_HEARTBEAT_BASE`]).
    heartbeat_gen: u64,
}

impl SensorProcess {
    /// A process `id` among `n` sensors reporting to `root`.
    pub fn new(
        id: ProcessId,
        n: usize,
        root: ActorId,
        cfg: ClockConfig,
        policy: StrobePolicy,
    ) -> Self {
        SensorProcess {
            id,
            n,
            root,
            cfg,
            policy,
            bundle: None,
            sense_count: 0,
            event_seq: 0,
            strobe_seq: 0,
            seen_strobes: policy.flood.then(|| vec![0; n + 1]),
            log: Vec::new(),
            carried: None,
            logged_senses: 0,
            actuates: 0,
            recovery: RecoveryPolicy::default(),
            heartbeat_gen: 0,
        }
    }

    /// How to restore state when the fault plane recovers this process
    /// after a crash (builder style).
    pub(crate) fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Everything this process has recorded since the last
    /// [`retire_log`](Self::retire_log), in recording order.
    pub fn log(&self) -> &[ProcEvent] {
        &self.log
    }

    /// Drop the events recorded so far and return how many there were: a
    /// live session keeps only what it reads back. The last one is carried
    /// for a recovery to replay.
    pub(crate) fn retire_log(&mut self) -> usize {
        let retired = self.log.len();
        if let Some(last) = self.log.pop() {
            self.carried = Some(last);
        }
        self.log.clear();
        retired
    }

    /// Sense events recorded over the process's life, retired ones and
    /// those before a crash included.
    pub(crate) fn senses(&self) -> u64 {
        self.logged_senses as u64
    }

    /// Actuate events recorded over the process's life.
    pub(crate) fn actuates(&self) -> u64 {
        self.actuates
    }

    /// Give up the log (sealing an execution).
    pub(crate) fn into_log(self) -> Vec<ProcEvent> {
        self.log
    }

    fn next_strobe_seq(&mut self) -> u64 {
        self.strobe_seq += 1;
        self.strobe_seq
    }

    fn record(
        &mut self,
        at: psn_sim::time::SimTime,
        kind: EventKind,
        stamps: crate::bundle::StampSet,
    ) {
        self.event_seq += 1;
        self.logged_senses += usize::from(kind.is_relevant());
        self.log.push(ProcEvent { process: self.id, seq: self.event_seq, at, kind, stamps });
    }

    /// Broadcast the current clocks without ticking (heartbeat / recovery
    /// announce — the §4.2 synchronize-at-any-time strobe).
    fn broadcast_current_strobe(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let snap = self.bundle.as_mut().expect("started").snapshot(ctx.now());
        let payload = StrobePayload::new(snap.strobe_scalar, snap.strobe_vector);
        let seq = self.next_strobe_seq();
        ctx.broadcast(NetMsg::Strobe { origin: self.id, seq, payload });
    }

    /// The crash-recover protocol. The engine delivers this after the
    /// scripted downtime: rebuild volatile clock state (fresh hardware
    /// imperfections — a reboot), replay the durable log per the
    /// [`RecoveryPolicy`] to re-prime the logical clocks (Lamport
    /// fast-forward, vector merge-catch-up), desync the ε-clock until the
    /// planned resync round completes, restart the heartbeat chain, and
    /// announce a catch-up strobe so peers re-merge quickly.
    fn recover(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let mut bundle = ClockBundle::new(self.id, self.n + 1, &self.cfg, ctx.rng());
        if self.recovery.replay_log {
            if let Some(last) = self.log.last().or(self.carried.as_ref()) {
                bundle.lamport.fast_forward(last.stamps.lamport.value);
                bundle.vector.prime(&last.stamps.vector);
                // Strobe clocks re-prime via their merge rules (SSC2/SVC2):
                // absorbing our own last stamp never ticks.
                bundle.strobe_scalar.on_strobe(last.stamps.strobe_scalar);
                bundle.strobe_vector.on_strobe(&last.stamps.strobe_vector);
                self.event_seq = last.seq;
            } else {
                self.event_seq = 0;
            }
            self.sense_count = self.logged_senses;
        } else {
            // Amnesiac restart: counters at zero, clocks at zero — new
            // stamps may collide with pre-crash ones (E11 measures this).
            self.sense_count = 0;
            self.event_seq = 0;
        }
        // strobe_seq intentionally survives the crash conceptually: it is
        // monotone across incarnations (this object persists), so flood
        // dedup at peers stays sound.
        bundle.synced.desync(ctx.rng(), self.cfg.max_offset);
        self.bundle = Some(bundle);
        if let Some(params) = &self.recovery.resync {
            ctx.set_timer(psn_sync::plan_resync(params).completes_after, TIMER_RESYNC);
        }
        if let Some(period) = self.policy.heartbeat {
            self.heartbeat_gen += 1;
            ctx.set_timer(period, TIMER_HEARTBEAT_BASE + self.heartbeat_gen);
        }
        self.broadcast_current_strobe(ctx);
    }
}

impl Actor<NetMsg> for SensorProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Clock hardware imperfections come from this actor's own stream,
        // so the bundle is built here rather than in `new`.
        self.bundle = Some(ClockBundle::new(self.id, self.n + 1, &self.cfg, ctx.rng()));
        if let Some(period) = self.policy.heartbeat {
            ctx.set_timer(period, TIMER_HEARTBEAT_BASE + self.heartbeat_gen);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        if tag == TIMER_RESYNC {
            // The post-recovery sync round completed: the ε bound holds
            // again (see psn_sync::recovery for what the round costs).
            self.bundle.as_mut().expect("started").synced.resync(ctx.rng());
            return;
        }
        if tag != TIMER_HEARTBEAT_BASE + self.heartbeat_gen {
            return; // stale heartbeat chain from before a recovery
        }
        // Heartbeat strobe: broadcast the *current* clocks without ticking
        // (a pure "catch up" message — the §4.2 synchronize-at-any-time).
        self.broadcast_current_strobe(ctx);
        if let Some(period) = self.policy.heartbeat {
            ctx.set_timer(period, TIMER_HEARTBEAT_BASE + self.heartbeat_gen);
        }
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, NetMsg>, event: &FaultEvent) {
        match event {
            FaultEvent::Recover => self.recover(ctx),
            FaultEvent::Clock(kind) => {
                let now = ctx.now();
                let bundle = self.bundle.as_mut().expect("started");
                bundle.apply_clock_fault(*kind, now, ctx.rng(), &self.cfg);
            }
            FaultEvent::Crash => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, _from: ActorId, msg: NetMsg) {
        let now = ctx.now();
        match msg {
            NetMsg::WorldSense { key, value, world_event } => {
                let bundle = self.bundle.as_mut().expect("started");
                // The sense event n: tick all relevant-event clocks.
                let (stamps, strobe) = bundle.on_sense(now);
                self.sense_count += 1;
                self.record(now, EventKind::Sense { key, value, world_event }, stamps.clone());
                // Strobe broadcast per policy (SSC1/SVC1's
                // System-wide_Broadcast).
                if self.sense_count.is_multiple_of(self.policy.every) {
                    let seq = self.next_strobe_seq();
                    ctx.broadcast(NetMsg::Strobe { origin: self.id, seq, payload: strobe });
                }
                // The report to P0: a semantic send event s.
                let bundle = self.bundle.as_mut().expect("started");
                let send_stamps = bundle.on_send(now);
                self.record(now, EventKind::Send { to: self.root }, send_stamps.clone());
                ctx.send(
                    self.root,
                    NetMsg::Report(Box::new(ReportMsg {
                        process: self.id,
                        sense_seq: self.sense_count,
                        key,
                        value,
                        stamps,
                        send_stamps,
                        world_event,
                    })),
                );
            }
            NetMsg::Strobe { origin, seq, payload } => {
                if self.policy.quarantine && !payload.verify() {
                    // Corrupted in transit: drop instead of merging garbage
                    // (and never relay it).
                    return;
                }
                // Flood relay: forward strobes not seen before so the
                // System-wide_Broadcast covers multi-hop overlays.
                if let Some(seen) = &mut self.seen_strobes {
                    if origin < seen.len() && seq > seen[origin] {
                        seen[origin] = seq;
                        if origin != self.id {
                            let payload = payload.clone();
                            ctx.broadcast(NetMsg::Strobe { origin, seq, payload });
                        }
                    }
                }
                // SSC2/SVC2: merge, no tick, no logged event (control
                // message).
                self.bundle.as_mut().expect("started").on_strobe(payload);
            }
            NetMsg::Actuate { key, command, stamps: piggyback } => {
                // Receive event r (merge the root's stamps, SC3/VC3), then
                // the actuate event a — the sensor-side half of the §4.1
                // causal chain.
                let bundle = self.bundle.as_mut().expect("started");
                bundle.on_receive(&piggyback, now);
                let stamps = bundle.on_internal(now);
                self.actuates += 1;
                self.record(now, EventKind::Actuate { key, command }, stamps);
                ctx.note(format!("actuate {key:?} := {command:?}"));
            }
            NetMsg::Report(_) => {
                // Sensors do not process peer reports.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::delay::DelayModel;
    use psn_sim::engine::Engine;
    use psn_sim::network::NetworkConfig;
    use psn_sim::time::SimTime;
    use psn_world::{AttrKey, AttrValue};
    use std::any::Any;
    use std::sync::{Arc, Mutex};

    /// A dummy root that just absorbs messages.
    struct Sink;
    impl Actor<NetMsg> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, NetMsg>, _: ActorId, _: NetMsg) {}
    }

    /// Process `id`'s log, read from the engine without taking the actor.
    fn log_of(engine: &Engine<NetMsg>, id: ActorId) -> &[ProcEvent] {
        crate::execution::sensor(engine, id).log()
    }

    fn run_two_sensors(delay: DelayModel) -> Engine<NetMsg> {
        let net = NetworkConfig::full_mesh(3, delay);
        let mut engine = Engine::new(net, 42);
        for id in 0..2 {
            engine.add_actor(Box::new(SensorProcess::new(
                id,
                2,
                2,
                ClockConfig::default(),
                StrobePolicy::default(),
            )));
        }
        engine.add_actor(Box::new(Sink));
        // Two world events at 10ms (P0) and 20ms (P1).
        engine.inject(
            SimTime::from_millis(10),
            0,
            0,
            NetMsg::WorldSense {
                key: AttrKey::new(0, 0),
                value: AttrValue::Int(1),
                world_event: 0,
            },
        );
        engine.inject(
            SimTime::from_millis(20),
            1,
            1,
            NetMsg::WorldSense {
                key: AttrKey::new(1, 0),
                value: AttrValue::Int(5),
                world_event: 1,
            },
        );
        engine.run();
        engine
    }

    #[test]
    fn sense_records_event_and_send() {
        let engine = run_two_sensors(DelayModel::Synchronous);
        let p0 = log_of(&engine, 0);
        assert_eq!(p0.len(), 2, "sense + send");
        assert_eq!(p0[0].kind.tag(), 'n');
        assert_eq!(p0[1].kind.tag(), 's');
        assert_eq!(p0[0].stamps.strobe_vector.as_slice(), [1, 0, 0]);
    }

    #[test]
    fn strobes_synchronize_under_zero_delay() {
        let engine = run_two_sensors(DelayModel::Synchronous);
        // P1's sense at 20ms happens after P0's strobe arrived (Δ=0), so
        // P1's strobe vector covers P0's event.
        let p1_sense = &log_of(&engine, 1)[0];
        assert_eq!(p1_sense.stamps.strobe_vector.as_slice(), [1, 1, 0]);
        assert_eq!(p1_sense.stamps.strobe_scalar.value, 2, "caught up to 1, ticked to 2");
    }

    /// A sensor that first records every strobe payload exactly as the
    /// engine delivered it.
    struct Tapped {
        inner: SensorProcess,
        seen: Arc<Mutex<Vec<(ActorId, crate::bundle::StrobePayload)>>>,
    }
    impl Actor<NetMsg> for Tapped {
        fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: ActorId, msg: NetMsg) {
            if let NetMsg::Strobe { payload, .. } = &msg {
                self.seen.lock().unwrap().push((ctx.id(), payload.clone()));
            }
            self.inner.on_message(ctx, from, msg);
        }
    }

    /// A wide strobe's broadcast copies share one vector buffer, so
    /// `NetMsg::corrupt` must un-share before it writes: a channel fault on
    /// one recipient's copy garbles that copy and nothing else — not the
    /// other recipients' payloads, not the stamp the sender logged — and a
    /// quarantining receiver drops exactly that copy (E13's semantics).
    #[test]
    fn corrupting_one_copy_of_a_wide_broadcast_spares_the_others() {
        use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
        const SENSORS: usize = 10; // stamps are 11 wide: spilled, shared
        const VICTIM: ActorId = 3;
        let script = FaultScript::new().with(
            SimTime::ZERO,
            FaultSpec::Channel(ChannelFaultRule {
                from: Some(0),
                to: Some(VICTIM),
                prob: 1.0,
                effect: ChannelEffect::Corrupt,
                duration: None,
            }),
        );
        let sense = |id: usize| NetMsg::WorldSense {
            key: AttrKey::new(id, 0),
            value: AttrValue::Int(1),
            world_event: id,
        };
        let mut vector_hits = 0;
        for seed in 1..=8 {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let net = NetworkConfig::full_mesh(SENSORS + 1, DelayModel::Synchronous);
            let mut engine = Engine::new(net, seed);
            for id in 0..SENSORS {
                engine.add_actor(Box::new(Tapped {
                    inner: SensorProcess::new(
                        id,
                        SENSORS,
                        SENSORS,
                        ClockConfig::default(),
                        StrobePolicy { quarantine: true, ..Default::default() },
                    ),
                    seen: Arc::clone(&seen),
                }));
            }
            engine.add_actor(Box::new(Sink));
            engine.install_faults(&script);
            // P0 senses and strobes; then the victim senses (before any
            // other strobe could tell it about P0), then everyone else.
            engine.inject(SimTime::from_millis(10), 0, 0, sense(0));
            engine.inject(SimTime::from_millis(20), VICTIM, VICTIM, sense(VICTIM));
            for id in (1..SENSORS).filter(|&id| id != VICTIM) {
                engine.inject(SimTime::from_millis(30 + id as u64), id, id, sense(id));
            }
            engine.run();
            assert_eq!(engine.fault_stats().expect("plane installed").corrupted, 1);

            let mut expected = vec![0; SENSORS + 1];
            expected[0] = 1;
            let log_of = |id| {
                let actor: &dyn Any = engine.actor(id).expect("resident");
                actor.downcast_ref::<Tapped>().expect("a tapped sensor").inner.log()
            };
            assert_eq!(
                log_of(0)[0].stamps.strobe_vector.as_slice(),
                expected,
                "the sender's logged stamp shares the broadcast's buffer and must not move"
            );
            let from_p0: Vec<_> = seen
                .lock()
                .unwrap()
                .iter()
                .filter(|(_, p)| p.scalar.process == 0)
                .cloned()
                .collect();
            assert_eq!(from_p0.len(), SENSORS - 1, "every peer sensor got P0's strobe");
            for (to, payload) in &from_p0 {
                if *to == VICTIM {
                    assert!(!payload.verify(), "the victim's copy is the garbled one");
                    vector_hits += usize::from(payload.vector.as_slice() != expected);
                } else {
                    assert!(payload.verify(), "P{to}'s copy was garbled along with the victim's");
                    assert_eq!(payload.vector.as_slice(), expected);
                }
            }
            for id in 1..SENSORS {
                let knows_p0 = log_of(id)[0].stamps.strobe_vector[0];
                assert_eq!(
                    knows_p0,
                    u64::from(id != VICTIM),
                    "P{id}: quarantine dropped the wrong copies"
                );
            }
        }
        assert!(vector_hits > 0, "no seed garbled the vector: the shared buffer was never written");
    }

    #[test]
    fn delayed_strobes_leave_concurrency() {
        // Delay 50ms > gap 10ms: P1's sense at 20ms happens before P0's
        // strobe lands, so its stamp does not cover P0's event.
        let engine =
            run_two_sensors(DelayModel::Fixed(psn_sim::time::SimDuration::from_millis(50)));
        let p1_sense = &log_of(&engine, 1)[0];
        assert_eq!(p1_sense.stamps.strobe_vector.as_slice(), [0, 1, 0]);
        assert!(p1_sense
            .stamps
            .strobe_vector
            .concurrent(&log_of(&engine, 0)[0].stamps.strobe_vector));
    }
}
