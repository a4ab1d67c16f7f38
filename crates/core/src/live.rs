//! Live, incrementally stepped executions with snapshot/restore.
//!
//! The batch pipeline ([`run_execution`](crate::execution::run_execution))
//! feeds the engine a complete pre-built timeline and runs to quiescence. A
//! long-running detection service cannot: events arrive over the wire while
//! queries about the causal frontier and predicate status must be answered
//! *now*. [`LiveExecution`] drives the same engine and the same actors,
//! each owning its log, incrementally:
//!
//! 1. pull due events from an [`EventProvider`] (a pre-built timeline or a
//!    live channel), then take the due ones from the events handed to
//!    [`LiveExecution::ingest`] directly,
//! 2. inject them through the panic-free
//!    [`Engine::try_inject`](psn_sim::engine::Engine::try_inject) boundary,
//! 3. [`step_until`](psn_sim::engine::Engine::step_until) the watermark.
//!
//! Because the engine is built by the same builder as the batch path —
//! actors, fault plane and [`shards`](ExecutionConfig::shards) alike — and
//! steps through the engine's one advance at every shard count, a
//! timeline-fed live session replays **bit-identically** to the batch run
//! of the same scenario, and a snapshot restores at any shard count. Batch
//! stays a thin [`Engine::feed`](psn_sim::engine::Engine::feed) plus
//! [`run`](psn_sim::engine::Engine::run), since journalling every world
//! event and polling a provider would give up the feed's in-flight-only
//! queue.
//!
//! ## What a session keeps
//!
//! A session answers from what the root P₀ has received (paper §2.1): its
//! reports, its frontier and the counters. The process logs are read back
//! by nothing, so each advance first **retires** the process events the
//! previous one recorded; until then [`LiveExecution::recorded`] shows
//! them. Each sensor carries its last event, which a crash recovery with
//! [`replay_log`](crate::process::RecoveryPolicy::replay_log) replays, and
//! [`event_count`](LiveExecution::event_count) keeps counting what was
//! retired. The retained heap per ingest is then its report and its
//! journal entry, and the logs' buffers are reused from one advance to the
//! next instead of growing. A host that wants the whole log collects
//! [`recorded`](LiveExecution::recorded) after every advance; the batch
//! path keeps every log and seals it into an
//! [`ExecutionTrace`](crate::execution::ExecutionTrace).
//!
//! ## Snapshot / restore
//!
//! Determinism makes state capture trivial and exact: the engine's full
//! state is a pure function of `(n, config, injected events, watermark)`.
//! A [`LiveSnapshot`] therefore stores the durable ingest journal — every
//! event ever injected, in injection order — plus the watermark, and
//! [`LiveSnapshot::restore`] replays it through a fresh engine, then
//! retires what the replay recorded. The restored session's causal
//! frontier, reports, event count and network counters are byte-for-byte
//! those of the interrupted one: a restarted server loses nothing.
//! Injection *order* matters (inject ids feed delivery tie-breaking), which
//! is why the journal is kept in arrival order rather than time order.

use std::any::Any;

use serde::{Deserialize, Serialize};

use psn_clocks::{ProcessId, VectorStamp};
use psn_sim::engine::{Engine, EngineError};
use psn_sim::metrics::PublishedCounters;
use psn_sim::network::NetStats;
use psn_sim::provider::{EventProvider, ExternalEvent};
use psn_sim::time::SimTime;

use crate::event::ProcEvent;
use crate::execution::{build_engine, publish_exec, root, sensor, ExecutionConfig};
use crate::log::ReceivedReport;
use crate::message::NetMsg;
use crate::process::SensorProcess;
use crate::root::{ActuationRule, NoActuation, RootProcess};

/// One durably journalled ingest event (the serializable twin of
/// [`ExternalEvent`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// Delivery time.
    pub at: SimTime,
    /// Destination process.
    pub to: usize,
    /// Conventional source process.
    pub from: usize,
    /// The payload.
    pub msg: NetMsg,
}

/// Current snapshot format version.
pub(crate) const LIVE_SNAPSHOT_VERSION: u32 = 1;

/// A restartable capture of a live session: enough to rebuild the engine
/// state bit-exactly by deterministic replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// Format version.
    pub version: u32,
    /// Number of sensor processes.
    pub n: usize,
    /// The execution configuration (delay/loss/clocks/faults/seed…).
    pub config: ExecutionConfig,
    /// How far the session had been stepped.
    pub watermark: SimTime,
    /// Every injected event, in injection order.
    pub events: Vec<LoggedEvent>,
}

/// Why a [`LiveSnapshot`] could not be restored.
#[derive(Debug)]
pub enum RestoreError {
    /// The snapshot was written by an incompatible format version.
    Version {
        /// The version found in the snapshot.
        found: u32,
    },
    /// Replay hit the engine's injection boundary (a corrupted journal:
    /// out-of-range process or out-of-order times).
    Engine(EngineError),
    /// The snapshot holds a world-event id with no successor, so the
    /// restored session could not number its next ingest.
    WorldEventIdsExhausted,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Version { found } => write!(
                f,
                "snapshot format version {found} is not supported (expected {LIVE_SNAPSHOT_VERSION})"
            ),
            RestoreError::Engine(e) => write!(f, "snapshot replay failed: {e}"),
            RestoreError::WorldEventIdsExhausted => {
                write!(f, "snapshot world-event ids are exhausted")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<EngineError> for RestoreError {
    fn from(e: EngineError) -> Self {
        RestoreError::Engine(e)
    }
}

impl LiveSnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Rebuild a live session from this snapshot by deterministic replay,
    /// then hand future ingest to `provider`. The restored session's
    /// frontier, reports and counters equal the captured session's.
    pub fn restore(
        &self,
        provider: Box<dyn EventProvider<NetMsg>>,
    ) -> Result<LiveExecution, RestoreError> {
        self.restore_full(provider, Box::new(NoActuation), &psn_sim::metrics::Metrics::disabled())
    }

    /// [`restore`](Self::restore) with a custom actuation rule and metrics
    /// registry (mirrors [`LiveExecution::new_full`]).
    pub fn restore_full(
        &self,
        provider: Box<dyn EventProvider<NetMsg>>,
        rule: Box<dyn ActuationRule>,
        metrics: &psn_sim::metrics::Metrics,
    ) -> Result<LiveExecution, RestoreError> {
        if self.version != LIVE_SNAPSHOT_VERSION {
            return Err(RestoreError::Version { found: self.version });
        }
        let mut live =
            LiveExecution::new_full(self.n, self.config.clone(), rule, metrics, provider);
        // Replay the journal directly (not through the provider): events at
        // or past the watermark were journalled but not yet due, and replay
        // must reproduce the original injection order exactly so inject ids
        // — and with them delivery tie-breaks — match.
        for ev in &self.events {
            live.engine.try_inject(ev.at, ev.to, ev.from, ev.msg.clone())?;
            live.journal.push(ev.clone());
        }
        live.engine.step_until(self.watermark)?;
        publish_exec(&live.engine, live.n, &mut live.exec);
        live.watermark = self.watermark;
        live.retire_logs();
        Ok(live)
    }
}

/// A live (incrementally stepped) execution: the batch pipeline's engine
/// and actors, advanced by watermark with events pulled from an
/// [`EventProvider`].
pub struct LiveExecution {
    engine: Engine<NetMsg>,
    /// The `exec.*` counters, published after each advance.
    exec: PublishedCounters<8>,
    provider: Box<dyn EventProvider<NetMsg>>,
    n: usize,
    config: ExecutionConfig,
    watermark: SimTime,
    journal: Vec<LoggedEvent>,
    /// Events handed to [`ingest`](Self::ingest) and not yet due, in
    /// arrival order.
    pending: Vec<LoggedEvent>,
    rejected: u64,
    /// Process events retired from the logs so far.
    retired: usize,
    scratch: Vec<ExternalEvent<NetMsg>>,
    /// The registry's coordinator-slot handle; times the ingest drain.
    tel: psn_sim::telemetry::ShardTelemetry,
}

impl LiveExecution {
    /// Start a live session: `n` sensors plus the root under `cfg`, fed by
    /// `provider`, with no actuation rule and no metrics.
    pub fn new(n: usize, cfg: ExecutionConfig, provider: Box<dyn EventProvider<NetMsg>>) -> Self {
        Self::new_full(
            n,
            cfg,
            Box::new(NoActuation),
            &psn_sim::metrics::Metrics::disabled(),
            provider,
        )
    }

    /// Start a live session with a custom actuation rule and an
    /// observability registry: the engine publishes its metrics and times
    /// its phases there, and [`advance_to`](Self::advance_to) times its
    /// provider poll + inject drain on the coordinator slot. The actors
    /// are wired by the same builder as the batch path, so a timeline-fed
    /// live session replays batch runs bit-identically, registry or not.
    pub fn new_full(
        n: usize,
        cfg: ExecutionConfig,
        rule: Box<dyn ActuationRule>,
        metrics: &psn_sim::metrics::Metrics,
        provider: Box<dyn EventProvider<NetMsg>>,
    ) -> Self {
        let (engine, exec) = build_engine(n, &cfg, rule, metrics, None);
        LiveExecution {
            engine,
            exec,
            provider,
            n,
            config: cfg,
            watermark: SimTime::ZERO,
            journal: Vec::new(),
            pending: Vec::new(),
            rejected: 0,
            retired: 0,
            scratch: Vec::new(),
            tel: metrics.telemetry().coordinator(),
        }
    }

    /// Queue an event for injection once the watermark passes its time.
    /// Ingested events follow the provider's, in arrival order: what a
    /// `ChannelProvider` fed the same sequence would yield.
    pub fn ingest(&mut self, ev: LoggedEvent) {
        self.pending.push(ev);
    }

    /// Ingested events not yet due at the watermark, in arrival order.
    pub fn pending(&self) -> &[LoggedEvent] {
        &self.pending
    }

    /// Retire the process events the previous advance recorded (see the
    /// module doc), pull every due event from the provider and then from
    /// the [`ingest`](Self::ingest) buffer, inject it, and step the engine
    /// to `t`, then publish the `exec.*` counters. Returns the engine clock
    /// (`t`, unless a configured end time came first).
    ///
    /// Individual events the engine's boundary rejects (unknown process,
    /// time behind the watermark) are *counted and skipped* — a live
    /// service must keep running past one bad ingest — and visible via
    /// [`rejected`](Self::rejected).
    /// Only a regressing watermark fails the whole call.
    pub fn advance_to(&mut self, t: SimTime) -> Result<SimTime, EngineError> {
        if t < self.watermark {
            return Err(EngineError::TimeRegression { at: t, now: self.watermark });
        }
        self.retire_logs();
        // The poll + inject drain is coordinator work in the live session:
        // time it on the coordinator slot so serve-side profiles separate
        // ingest cost from engine stepping.
        let d0 = self.tel.start();
        let mut batch = std::mem::take(&mut self.scratch);
        self.provider.poll(t, &mut batch);
        // A stable partition in place: the due events leave in arrival
        // order, the rest close up behind them.
        batch.extend(self.pending.extract_if(.., |ev| ev.at < t).map(|ev| ExternalEvent {
            at: ev.at,
            to: ev.to,
            from: ev.from,
            msg: ev.msg,
        }));
        for ev in batch.drain(..) {
            match self.engine.try_inject(ev.at, ev.to, ev.from, ev.msg.clone()) {
                Ok(()) => {
                    self.journal.push(LoggedEvent {
                        at: ev.at,
                        to: ev.to,
                        from: ev.from,
                        msg: ev.msg,
                    });
                }
                Err(_) => self.rejected += 1,
            }
        }
        self.scratch = batch;
        self.tel.record(psn_sim::telemetry::Phase::CoordinatorDrain, d0);
        let now = self.engine.step_until(t)?;
        publish_exec(&self.engine, self.n, &mut self.exec);
        self.watermark = t;
        Ok(now)
    }

    /// Empty every process log into the running count, each sensor
    /// carrying its last event.
    fn retire_logs(&mut self) {
        for id in 0..self.n {
            let actor: &mut dyn Any = self.engine.actor_mut(id).expect("sensors stay resident");
            let sensor: &mut SensorProcess = actor.downcast_mut().expect("actors 0..n are sensors");
            self.retired += sensor.retire_log();
        }
        let actor: &mut dyn Any = self.engine.actor_mut(self.n).expect("the root stays resident");
        let root: &mut RootProcess = actor.downcast_mut().expect("actor n is the root");
        self.retired += root.retire_events();
    }

    /// Number of sensor processes (the root is process `n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// How far the session has been stepped: every event strictly before
    /// the watermark has been processed.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Events the injection boundary rejected (and skipped) so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The network counters so far: at the end of a timeline, the batch
    /// run's [`ExecutionTrace::net`](crate::execution::ExecutionTrace::net).
    pub fn net(&self) -> NetStats {
        self.engine.stats()
    }

    /// The durable ingest journal: every injected event, in injection
    /// order.
    pub fn journal(&self) -> &[LoggedEvent] {
        &self.journal
    }

    /// The **causal frontier**: the root's vector-clock knowledge after the
    /// latest report it has received — component `p` counts the relevant
    /// events of process `p` the root's state causally reflects. Before any
    /// report arrives the frontier is the zero vector (over n sensors + the
    /// root).
    pub fn frontier(&self) -> VectorStamp {
        root(&self.engine, self.n).frontier().clone()
    }

    /// The reports the root has received, in arrival order: read in place
    /// from the root's own log. `psn-serve` feeds the ones past its cursor
    /// to its per-predicate detectors.
    pub fn reports(&self) -> &[ReceivedReport] {
        root(&self.engine, self.n).reports()
    }

    /// How many events the processes have recorded, the root's included,
    /// retired ones too.
    pub fn event_count(&self) -> usize {
        self.retired + (0..=self.n).map(|p| self.recorded(p).len()).sum::<usize>()
    }

    /// The events process `p` (the root is `n`) recorded in the latest
    /// advance, in recording order; the next advance retires them. After a
    /// restore, nothing.
    pub fn recorded(&self, p: ProcessId) -> &[ProcEvent] {
        if p == self.n {
            root(&self.engine, self.n).events()
        } else {
            sensor(&self.engine, p).log()
        }
    }

    /// Capture a restartable snapshot of the session as of its watermark.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            version: LIVE_SNAPSHOT_VERSION,
            n: self.n,
            config: self.config.clone(),
            watermark: self.watermark,
            events: self.journal.clone(),
        }
    }
}

#[cfg(test)]
impl LiveExecution {
    /// True once neither the provider nor the ingest buffer holds an event.
    pub(crate) fn provider_exhausted(&self) -> bool {
        self.provider.exhausted() && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{run_execution, world_events, ExecutionTrace};
    use crate::log::ExecutionLog;
    use psn_sim::delay::DelayModel;
    use psn_sim::provider::TimelineProvider;
    use psn_sim::time::SimDuration;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};
    use psn_world::Scenario;

    fn scenario() -> Scenario {
        hall(3)
    }

    /// The exhibition hall with `doors` doors: one sensor per door and the
    /// root, so its vector stamps are `doors + 1` wide, inline up to 7 doors
    /// and spilled from 8.
    fn hall(doors: usize) -> Scenario {
        exhibition::generate(
            &ExhibitionParams {
                doors,
                arrival_rate_hz: 1.0,
                mean_stay: SimDuration::from_secs(20),
                duration: SimTime::from_secs(90),
                capacity: 10,
            },
            7,
        )
    }

    fn live_from(s: &Scenario, cfg: &ExecutionConfig) -> LiveExecution {
        LiveExecution::new(
            s.num_processes(),
            cfg.clone(),
            Box::new(TimelineProvider::new(world_events(s))),
        )
    }

    /// The process events a session's advances recorded, collected after
    /// each one: the whole log, which the session itself retires.
    struct Collected(Vec<Vec<ProcEvent>>);

    impl Collected {
        fn new(live: &LiveExecution) -> Self {
            Collected(vec![Vec::new(); live.n() + 1])
        }

        /// Advance `live` to `t` and collect what it recorded.
        fn advance(&mut self, live: &mut LiveExecution, t: SimTime) {
            live.advance_to(t).expect("monotone watermark");
            for (p, log) in self.0.iter_mut().enumerate() {
                log.extend_from_slice(live.recorded(p));
            }
        }

        /// Step to `end` in fixed chunks, then once more past the settle
        /// tail.
        fn drive(&mut self, live: &mut LiveExecution, end: SimTime, chunk: SimDuration) {
            let mut t = live.watermark();
            while t < end {
                t = t.saturating_add(chunk);
                self.advance(live, t);
            }
            self.advance(live, end.saturating_add(SimDuration::from_secs(30)));
        }

        /// Seal the collected logs with the session's reports, actuations,
        /// counters and finished engine trace, in the batch result's shape.
        fn seal(self, mut live: LiveExecution) -> ExecutionTrace {
            let ended_at = live.engine.finish();
            let root = root(&live.engine, live.n);
            let log =
                ExecutionLog::seal(self.0, root.reports().to_vec(), root.actuations().to_vec());
            ExecutionTrace {
                n: live.n,
                log,
                net: live.net(),
                sim: live.engine.trace().clone(),
                ended_at,
                faults: live.engine.fault_stats(),
            }
        }
    }

    /// Drive a fresh session of `s` under `cfg` to `end` in `chunk` steps
    /// and seal what it recorded.
    fn whole(
        s: &Scenario,
        cfg: &ExecutionConfig,
        end: SimTime,
        chunk: SimDuration,
    ) -> ExecutionTrace {
        let mut live = live_from(s, cfg);
        let mut rec = Collected::new(&live);
        rec.drive(&mut live, end, chunk);
        rec.seal(live)
    }

    /// The shards axis: the default Δ = 100 ms delay has no lookahead and
    /// keeps one lane; a floored, traced configuration splits into every
    /// shard count (the smallest hall has four actors).
    fn shard_axis(cfg: ExecutionConfig) -> Vec<(ExecutionConfig, usize)> {
        let delay = DelayModel::DeltaBounded {
            min: SimDuration::from_millis(40),
            max: SimDuration::from_millis(240),
        };
        let floored = ExecutionConfig { delay, record_sim_trace: true, ..cfg.clone() };
        let mut axis = vec![(cfg, 1)];
        axis.extend(
            [1, 2, 4].map(|shards| (ExecutionConfig { shards, ..floored.clone() }, shards)),
        );
        axis
    }

    /// Drive `s` under `cfg` live in `chunk` steps and compare everything
    /// observable with the batch run of the same configuration on one
    /// shard; the engine runs on `lanes` lanes.
    fn live_matches_batch(s: &Scenario, cfg: &ExecutionConfig, lanes: usize, chunk: SimDuration) {
        let batch = run_execution(s, &ExecutionConfig { shards: 1, ..cfg.clone() });
        let metrics = psn_sim::metrics::Metrics::new();
        let mut live = LiveExecution::new_full(
            s.num_processes(),
            cfg.clone(),
            Box::new(NoActuation),
            &metrics,
            Box::new(TimelineProvider::new(world_events(s))),
        );
        let mut rec = Collected::new(&live);
        rec.drive(&mut live, SimTime::from_secs(90), chunk);
        assert!(live.provider_exhausted());
        assert_eq!(metrics.telemetry().snapshot().shards.len(), lanes, "shards={}", cfg.shards);
        let events = live.event_count();
        let t = rec.seal(live);
        let shards = cfg.shards;
        assert_eq!(events, batch.log.events.len(), "shards={shards}: a running count");
        assert_eq!(t.log.events, batch.log.events, "shards={shards}");
        assert_eq!(t.log.reports, batch.log.reports, "shards={shards}");
        assert_eq!(t.log.actuations, batch.log.actuations, "shards={shards}");
        assert_eq!(t.net, batch.net, "shards={shards}");
        assert_eq!(t.faults, batch.faults, "shards={shards}");
        let jsonl = psn_sim::trace_export::jsonl;
        assert_eq!(jsonl(&t.sim), jsonl(&batch.sim), "shards={shards}");
    }

    #[test]
    fn live_stepping_matches_batch_bit_for_bit() {
        for (cfg, lanes) in shard_axis(ExecutionConfig::default()) {
            live_matches_batch(&scenario(), &cfg, lanes, SimDuration::from_millis(700));
        }
    }

    #[test]
    fn live_stepping_matches_batch_under_faults() {
        use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
        // Garbled and doubled strobes from the crashing sensor and another
        // one, throughout: in the 10-door hall they are wide, and wait on
        // receivers' pending lists across advances and the crash.
        let channel = |from, effect| {
            let rule =
                ChannelFaultRule { from: Some(from), to: None, prob: 0.3, effect, duration: None };
            FaultSpec::Channel(rule)
        };
        let script = FaultScript::new()
            .with(SimTime::ZERO, channel(1, ChannelEffect::Corrupt))
            .with(SimTime::ZERO, channel(2, ChannelEffect::Duplicate))
            .with(
                SimTime::from_secs(20),
                FaultSpec::Crash { actor: 1, recover_after: Some(SimDuration::from_secs(15)) },
            )
            .with(
                SimTime::from_secs(40),
                FaultSpec::Partition {
                    group: vec![0, 1],
                    heal_after: SimDuration::from_secs(10),
                    policy: psn_sim::fault::CutPolicy::Drop,
                },
            );
        let cfg = ExecutionConfig { faults: Some(script), ..Default::default() };
        for s in [scenario(), hall(10)] {
            let faults = run_execution(&s, &cfg).faults.expect("a fault plane");
            assert!(faults.corrupted > 0 && faults.duplicated > 0, "{faults:?}");
            for (cfg, lanes) in shard_axis(cfg.clone()) {
                live_matches_batch(&s, &cfg, lanes, SimDuration::from_millis(1300));
            }
        }
    }

    #[test]
    fn frontier_tracks_the_roots_vector_knowledge() {
        let s = scenario();
        let mut live = live_from(&s, &ExecutionConfig::default());
        assert_eq!(live.frontier(), VectorStamp::zero(s.num_processes() + 1));
        live.advance_to(SimTime::from_secs(45)).unwrap();
        let mid = live.frontier();
        live.advance_to(SimTime::from_secs(200)).unwrap();
        let end = live.frontier();
        assert!(mid.lt(&end), "the frontier only grows");
        assert!(!live.reports().is_empty());
        let root = s.num_processes();
        assert_eq!(live.recorded(root).last().map(|e| &e.stamps.vector), Some(&end));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let s = scenario();
        let cfg = ExecutionConfig::default();
        let cut = SimTime::from_secs(40);

        // Uninterrupted run.
        let mut whole = live_from(&s, &cfg);
        let mut rec = Collected::new(&whole);
        rec.drive(&mut whole, SimTime::from_secs(90), SimDuration::from_millis(900));
        let (whole_frontier, whole_events) = (whole.frontier(), whole.event_count());
        let whole_trace = rec.seal(whole);

        // Interrupted at `cut`: snapshot, drop the session, restore, and
        // feed the rest of the timeline.
        let mut first = live_from(&s, &cfg);
        let mut rec = Collected::new(&first);
        let mut t = SimTime::ZERO;
        while t < cut {
            t = t.saturating_add(SimDuration::from_millis(900));
            rec.advance(&mut first, t.min(cut));
        }
        let snap = first.snapshot();
        let json = snap.to_json();
        let cut_events = first.event_count();
        drop(first);

        let snap = LiveSnapshot::from_json(&json).expect("roundtrip");
        let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
        let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
        assert_eq!(second.watermark(), cut);
        assert_eq!(second.event_count(), cut_events, "the replay is counted");
        assert!((0..=second.n()).all(|p| second.recorded(p).is_empty()), "and retired");
        rec.drive(&mut second, SimTime::from_secs(90), SimDuration::from_millis(900));
        assert_eq!(second.frontier(), whole_frontier, "no causal frontier state lost");
        assert_eq!(second.event_count(), whole_events);
        let trace = rec.seal(second);
        assert_eq!(trace.log.events, whole_trace.log.events);
        assert_eq!(trace.log.reports, whole_trace.log.reports);
        assert_eq!(trace.net, whole_trace.net);
    }

    /// FNV-1a, the repo's content hash for golden values.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The snapshot is a file format: snapshots written before a change of
    /// representation must still restore, and `session.snapshot_bytes` must
    /// not drift. Pinned byte for byte: a scripted session's snapshot, and a
    /// journal holding every `NetMsg` variant with stamps wide enough to
    /// spill. The constants are the earlier formats' bytes with only the
    /// three retired config entries, the window discipline, the partition
    /// plan and the dense-FIFO limit (all `null`), and the trace stamp
    /// mode (`"Vector"`), removed.
    #[test]
    fn snapshot_json_is_pinned_byte_for_byte() {
        use crate::bundle::{StampSet, StrobePayload};
        use crate::message::ReportMsg;
        use psn_clocks::{PhysReading, ScalarStamp};
        use psn_world::{AttrKey, AttrValue};

        let mut live = live_from(&scenario(), &ExecutionConfig::default());
        live.advance_to(SimTime::from_secs(40)).unwrap();
        let json = live.snapshot().to_json();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (5544, 9697798942878055315),
            "scripted session"
        );

        let wide = |bump: u64| VectorStamp::from((0..10).map(|k| k * 3 + bump).collect::<Vec<_>>());
        let stamps = |bump: u64| StampSet {
            lamport: ScalarStamp { value: 7 + bump, process: 2 },
            vector: wide(bump),
            strobe_scalar: ScalarStamp { value: 4, process: 2 },
            strobe_vector: wide(bump + 1),
            physical: PhysReading(1_000_123),
            synced: PhysReading(1_000_000),
            truth: SimTime::from_millis(1),
        };
        let key = AttrKey::new(2, 0);
        let msgs = [
            NetMsg::WorldSense { key, value: AttrValue::Int(3), world_event: 5 },
            NetMsg::Strobe {
                origin: 2,
                seq: 9,
                payload: StrobePayload::new(ScalarStamp { value: 4, process: 2 }, wide(1)),
            },
            NetMsg::Report(Box::new(ReportMsg {
                process: 2,
                sense_seq: 1,
                key,
                value: AttrValue::Int(3),
                stamps: stamps(0),
                send_stamps: stamps(1),
                world_event: 5,
            })),
            NetMsg::Actuate { key, command: AttrValue::Bool(true), stamps: Box::new(stamps(2)) },
        ];
        let snap = LiveSnapshot {
            version: LIVE_SNAPSHOT_VERSION,
            n: 9,
            config: ExecutionConfig::default(),
            watermark: SimTime::from_secs(1),
            events: msgs
                .into_iter()
                .enumerate()
                .map(|(i, msg)| LoggedEvent {
                    at: SimTime::from_millis(i as u64),
                    to: 2,
                    from: 2,
                    msg,
                })
                .collect(),
        };
        let json = snap.to_json();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (1669, 18321840733920132792),
            "every message kind"
        );
        let back = LiveSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back.events, snap.events);
    }

    /// Snapshots written while `ExecutionConfig` still carried a window
    /// discipline, a shard plan, a dense-FIFO limit or a trace stamp mode
    /// restore: each retired entry is an unknown key the deserializer
    /// skips, whatever its value, and the restored session runs on exactly
    /// like an uninterrupted one (no such choice ever changed an output).
    #[test]
    fn snapshot_with_retired_speculation_key_restores_and_runs_on() {
        let s = scenario();
        let cfg = ExecutionConfig::default();
        let cut = SimTime::from_secs(40);
        let chunk = SimDuration::from_millis(900);
        let whole_trace = whole(&s, &cfg, SimTime::from_secs(90), chunk);

        let mut first = live_from(&s, &cfg);
        let mut head = Collected::new(&first);
        head.advance(&mut first, cut);
        let json = first.snapshot().to_json();
        let anchor = r#""shards":1"#;
        for retired in [
            r#","speculation":null"#,
            r#","speculation":"Optimistic""#,
            r#","shard_plan":null"#,
            r#","shard_plan":"Affinity""#,
            r#","fifo_dense_limit":null"#,
            r#","fifo_dense_limit":0"#,
            r#","trace_stamp":"Vector""#,
            r#","trace_stamp":"Scalar""#,
        ] {
            let old = json.replacen(anchor, &format!("{anchor}{retired}"), 1);
            assert_eq!(old.len(), json.len() + retired.len(), "fixture carries {retired}");
            let snap = LiveSnapshot::from_json(&old).expect("unknown key is skipped");
            let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
            let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
            let mut rec = Collected(head.0.clone());
            rec.drive(&mut second, SimTime::from_secs(90), chunk);
            let trace = rec.seal(second);
            assert_eq!(trace.log.events, whole_trace.log.events, "{retired}");
            assert_eq!(trace.log.reports, whole_trace.log.reports, "{retired}");
            assert_eq!(trace.net, whole_trace.net, "{retired}");
        }
    }

    #[test]
    fn snapshot_mid_window_with_active_faults_restores_exactly() {
        use psn_sim::fault::{FaultScript, FaultSpec};
        // Crash at 20 s recovering at 50 s: the 35 s cut lands *inside* the
        // outage, so restore must reproduce a crashed process mid-script.
        let script = FaultScript::new().with(
            SimTime::from_secs(20),
            FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_secs(30)) },
        );
        let s = scenario();
        let cfg = ExecutionConfig { faults: Some(script), ..Default::default() };
        let cut = SimTime::from_secs(35);
        let chunk = SimDuration::from_millis(1100);
        let whole_trace = whole(&s, &cfg, SimTime::from_secs(90), chunk);

        let mut first = live_from(&s, &cfg);
        let mut rec = Collected::new(&first);
        rec.advance(&mut first, cut);
        let snap = first.snapshot();
        drop(first);

        let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
        let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
        rec.drive(&mut second, SimTime::from_secs(90), chunk);
        let trace = rec.seal(second);
        assert_eq!(trace.log.events, whole_trace.log.events);
        assert_eq!(trace.log.reports, whole_trace.log.reports);
        assert_eq!(trace.faults, whole_trace.faults);
    }

    #[test]
    fn bad_provider_events_are_counted_not_fatal() {
        let s = scenario();
        let mut events = world_events(&s);
        // An event for a process that does not exist.
        events.insert(
            0,
            ExternalEvent {
                at: SimTime::from_secs(1),
                to: 999,
                from: 999,
                msg: events[0].msg.clone(),
            },
        );
        let mut live = LiveExecution::new(
            s.num_processes(),
            ExecutionConfig::default(),
            Box::new(TimelineProvider::new(events)),
        );
        live.advance_to(SimTime::from_secs(120)).unwrap();
        assert_eq!(live.rejected(), 1);
        let senses =
            (0..=live.n()).flat_map(|p| live.recorded(p)).filter(|e| e.kind.is_relevant()).count();
        assert_eq!(senses, s.timeline.len(), "the good events all landed");
        assert!(live.advance_to(SimTime::from_secs(1)).is_err(), "watermark cannot regress");
    }

    #[test]
    fn restore_rejects_unknown_versions() {
        let live = live_from(&scenario(), &ExecutionConfig::default());
        let mut snap = live.snapshot();
        snap.version = 99;
        let err = snap
            .restore(Box::new(TimelineProvider::new(Vec::new())))
            .err()
            .expect("version must be checked");
        assert!(matches!(err, RestoreError::Version { found: 99 }));
        assert!(format!("{err}").contains("99"));
    }

    /// Each advance retires what the previous one recorded: between
    /// advances, `recorded` holds exactly the latest advance's events, in
    /// recording order, and `event_count` keeps counting.
    #[test]
    fn recorded_holds_the_latest_advance() {
        let s = scenario();
        let mut live = live_from(&s, &ExecutionConfig::default());
        let mut total = 0;
        for (from, to) in [(0, 45), (45, 60), (60, 200)] {
            live.advance_to(SimTime::from_secs(to)).unwrap();
            let mut recorded = 0;
            for p in 0..=live.n() {
                let log = live.recorded(p);
                recorded += log.len();
                assert!(log.iter().all(|e| e.process == p));
                assert!(log.iter().all(|e| e.at >= SimTime::from_secs(from)), "retired");
                assert!(log.iter().all(|e| e.at < SimTime::from_secs(to)));
                for w in log.windows(2) {
                    assert!(w[0].at <= w[1].at, "recording order");
                }
            }
            assert!(recorded > 0, "[{from} s, {to} s) recorded events");
            total += recorded;
            assert_eq!(live.event_count(), total);
        }
    }

    /// A crash and a recovery that fall exactly on advance watermarks: the
    /// sensor recovers after its log was retired, and its replay reads the
    /// carried last event, as the batch run reads the last of its log.
    #[test]
    fn crash_recovery_across_a_retire_boundary_matches_batch() {
        use crate::process::RecoveryPolicy;
        use psn_sim::fault::{FaultScript, FaultSpec};
        let chunk = SimDuration::from_millis(2500);
        let script = FaultScript::new().with(
            SimTime::from_secs(20),
            FaultSpec::Crash { actor: 1, recover_after: Some(SimDuration::from_secs(15)) },
        );
        let recovery = RecoveryPolicy { replay_log: true, ..Default::default() };
        let cfg = ExecutionConfig { faults: Some(script), recovery, ..Default::default() };
        let s = scenario();
        for (cfg, _) in shard_axis(cfg) {
            let shards = cfg.shards;
            let batch = run_execution(&s, &ExecutionConfig { shards: 1, ..cfg.clone() });
            let mut live = live_from(&s, &cfg);
            let mut rec = Collected::new(&live);
            let mut t = SimTime::ZERO;
            while t < SimTime::from_secs(90) {
                t = t.saturating_add(chunk);
                rec.advance(&mut live, t);
            }
            rec.advance(&mut live, SimTime::from_secs(120));
            let trace = rec.seal(live);
            let before = |e: &&ProcEvent| e.process == 1 && e.at < SimTime::from_secs(20);
            assert!(batch.log.events.iter().any(|e| before(&e)), "P1 logged before its crash");
            assert_eq!(trace.log.events, batch.log.events, "shards={shards}");
            assert_eq!(trace.log.reports, batch.log.reports, "shards={shards}");
            assert_eq!(trace.net, batch.net, "shards={shards}");
            assert_eq!(trace.faults, batch.faults, "shards={shards}");
        }
    }
}
