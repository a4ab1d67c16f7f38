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
//! of the same scenario, and a snapshot restores at any shard count. The
//! two share one engine → [`ExecutionTrace`] tail; batch stays a thin
//! [`Engine::feed`](psn_sim::engine::Engine::feed) plus
//! [`run`](psn_sim::engine::Engine::run), since journalling every world
//! event and polling a provider would give up the feed's in-flight-only
//! queue.
//!
//! ## Snapshot / restore
//!
//! Determinism makes state capture trivial and exact: the engine's full
//! state is a pure function of `(n, config, injected events, watermark)`.
//! A [`LiveSnapshot`] therefore stores the durable ingest journal — every
//! event ever injected, in injection order — plus the watermark, and
//! [`LiveSnapshot::restore`] replays it through a fresh engine. The
//! restored session's causal frontier, log, and network counters are
//! byte-for-byte those of the interrupted one: a restarted server loses
//! nothing. Injection *order* matters (inject ids feed delivery
//! tie-breaking), which is why the journal is kept in arrival order rather
//! than time order.

use serde::{Deserialize, Serialize};

use psn_clocks::VectorStamp;
use psn_sim::engine::{Engine, EngineError};
use psn_sim::provider::{EventProvider, ExternalEvent};
use psn_sim::time::SimTime;

use crate::execution::{build_engine, into_trace, root, sensor, ExecutionConfig, ExecutionTrace};
use crate::log::ReceivedReport;
use crate::message::NetMsg;
use crate::root::{ActuationRule, NoActuation};

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

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Rebuild a live session from this snapshot by deterministic replay,
    /// then hand future ingest to `provider`. The restored session's
    /// frontier, log, and counters equal the captured session's.
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
        live.watermark = self.watermark;
        Ok(live)
    }
}

/// A live (incrementally stepped) execution: the batch pipeline's engine
/// and actors, advanced by watermark with events pulled from an
/// [`EventProvider`].
pub struct LiveExecution {
    engine: Engine<NetMsg>,
    provider: Box<dyn EventProvider<NetMsg>>,
    n: usize,
    config: ExecutionConfig,
    watermark: SimTime,
    journal: Vec<LoggedEvent>,
    /// Events handed to [`ingest`](Self::ingest) and not yet due, in
    /// arrival order.
    pending: Vec<LoggedEvent>,
    rejected: u64,
    scratch: Vec<ExternalEvent<NetMsg>>,
    /// Coordinator-slot handle of the attached telemetry registry (inert
    /// until [`LiveExecution::set_telemetry`]); times the ingest drain.
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

    /// Start a live session with a custom actuation rule and a metrics
    /// registry. The actors are wired by the same builder as the batch
    /// path, so a timeline-fed live session replays batch runs
    /// bit-identically.
    pub fn new_full(
        n: usize,
        cfg: ExecutionConfig,
        rule: Box<dyn ActuationRule>,
        metrics: &psn_sim::metrics::Metrics,
        provider: Box<dyn EventProvider<NetMsg>>,
    ) -> Self {
        let engine = build_engine(n, &cfg, rule, metrics, None);
        LiveExecution {
            engine,
            provider,
            n,
            config: cfg,
            watermark: SimTime::ZERO,
            journal: Vec::new(),
            pending: Vec::new(),
            rejected: 0,
            scratch: Vec::new(),
            tel: psn_sim::telemetry::ShardTelemetry::disabled(),
        }
    }

    /// Attach a phase-scoped wall-clock [`psn_sim::telemetry::Telemetry`]
    /// registry: the engine records its run phases (busy, barrier wait,
    /// exchange, …) and [`advance_to`](Self::advance_to) times its
    /// provider poll + inject drain on the coordinator slot. Strictly
    /// observational — the session's results are bit-identical with or
    /// without telemetry attached.
    pub fn set_telemetry(&mut self, t: &psn_sim::telemetry::Telemetry) {
        self.engine.set_telemetry(t);
        self.tel = t.coordinator();
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

    /// Pull every due event from the provider and then from the
    /// [`ingest`](Self::ingest) buffer, inject it, and step the engine to
    /// `t`. Returns the engine clock (`t`, unless the run halted
    /// or hit a configured end time first).
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
        self.watermark = t;
        Ok(now)
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
        match self.reports().last() {
            Some(r) => r.root_vector.clone(),
            None => VectorStamp::zero(self.n + 1),
        }
    }

    /// The reports the root has received, in arrival order: read in place
    /// from the root's own log. `psn-serve` feeds the ones past its cursor
    /// to its per-predicate detectors.
    pub fn reports(&self) -> &[ReceivedReport] {
        root(&self.engine, self.n).reports()
    }

    /// How many events the processes have recorded, the root's included.
    pub fn event_count(&self) -> usize {
        (0..self.n).map(|id| sensor(&self.engine, id).log().len()).sum::<usize>()
            + root(&self.engine, self.n).events().len()
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

    /// Finish the session: seal the engine trace and the process logs
    /// (moved, not copied) and return the final [`ExecutionTrace`] (the
    /// batch result shape).
    pub fn finish(self) -> ExecutionTrace {
        into_trace(self.engine, self.n)
    }
}

#[cfg(test)]
impl LiveExecution {
    /// True once neither the provider nor the ingest buffer holds an event.
    pub(crate) fn provider_exhausted(&self) -> bool {
        self.provider.exhausted() && self.pending.is_empty()
    }

    /// A detector-consumable view of the execution so far. The process
    /// logs are cloned and sealed exactly like the batch trace (events in
    /// `(at, process, seq)` order); `ended_at` is the current watermark.
    /// The simulator-internal trace is not included (it is still being
    /// written).
    pub(crate) fn trace_view(&self) -> ExecutionTrace {
        let root = root(&self.engine, self.n);
        let logs = (0..self.n)
            .map(|id| sensor(&self.engine, id).log().to_vec())
            .chain(std::iter::once(root.events().to_vec()))
            .collect();
        let log = crate::log::ExecutionLog::seal(
            logs,
            root.reports().to_vec(),
            root.actuations().to_vec(),
        );
        ExecutionTrace {
            n: self.n,
            log,
            net: self.engine.stats(),
            sim: psn_sim::trace::Trace::disabled(),
            ended_at: self.watermark,
            faults: self.engine.fault_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{run_execution, world_events};
    use psn_sim::delay::DelayModel;
    use psn_sim::provider::TimelineProvider;
    use psn_sim::time::SimDuration;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};
    use psn_world::Scenario;

    fn scenario() -> Scenario {
        exhibition::generate(
            &ExhibitionParams {
                doors: 3,
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

    /// Step to `end` in fixed chunks, then once more past the settle tail.
    fn drive(live: &mut LiveExecution, end: SimTime, chunk: SimDuration) {
        let mut t = live.watermark();
        while t < end {
            t = t.saturating_add(chunk);
            live.advance_to(t).expect("monotone watermark");
        }
        live.advance_to(end.saturating_add(SimDuration::from_secs(30))).expect("settle");
    }

    /// The shards axis: the default Δ = 100 ms delay has no lookahead and
    /// keeps one lane; a floored, traced configuration splits into every
    /// shard count (the scenario has four actors).
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

    /// Drive `cfg` live in `chunk` steps and compare everything observable
    /// with the batch run of the same configuration on one shard; the
    /// engine runs on `lanes` lanes.
    fn live_matches_batch(cfg: &ExecutionConfig, lanes: usize, chunk: SimDuration) {
        let s = scenario();
        let batch = run_execution(&s, &ExecutionConfig { shards: 1, ..cfg.clone() });
        let tel = psn_sim::telemetry::Telemetry::new();
        let mut live = live_from(&s, cfg);
        live.set_telemetry(&tel);
        drive(&mut live, SimTime::from_secs(90), chunk);
        assert!(live.provider_exhausted());
        assert_eq!(tel.snapshot().shards.len(), lanes, "shards={}", cfg.shards);
        let t = live.finish();
        let shards = cfg.shards;
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
            live_matches_batch(&cfg, lanes, SimDuration::from_millis(700));
        }
    }

    #[test]
    fn live_stepping_matches_batch_under_faults() {
        use psn_sim::fault::{FaultScript, FaultSpec};
        let script = FaultScript::new()
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
        for (cfg, lanes) in shard_axis(cfg) {
            live_matches_batch(&cfg, lanes, SimDuration::from_millis(1300));
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
        assert_eq!(live.reports().last().map(|r| &r.root_vector), Some(&end));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let s = scenario();
        let cfg = ExecutionConfig::default();
        let cut = SimTime::from_secs(40);

        // Uninterrupted run.
        let mut whole = live_from(&s, &cfg);
        drive(&mut whole, SimTime::from_secs(90), SimDuration::from_millis(900));
        let whole_frontier = whole.frontier();
        let whole_trace = whole.finish();

        // Interrupted at `cut`: snapshot, drop the session, restore, and
        // feed the rest of the timeline.
        let mut first = live_from(&s, &cfg);
        let mut t = SimTime::ZERO;
        while t < cut {
            t = t.saturating_add(SimDuration::from_millis(900));
            first.advance_to(t.min(cut)).unwrap();
        }
        let snap = first.snapshot();
        let json = snap.to_json();
        drop(first);

        let snap = LiveSnapshot::from_json(&json).expect("roundtrip");
        let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
        let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
        assert_eq!(second.watermark(), cut);
        let mut t = cut;
        while t < SimTime::from_secs(90) {
            t = t.saturating_add(SimDuration::from_millis(900));
            second.advance_to(t).unwrap();
        }
        second.advance_to(SimTime::from_secs(120)).unwrap();
        assert_eq!(second.frontier(), whole_frontier, "no causal frontier state lost");
        let trace = second.finish();
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
    /// two retired config entries, the window discipline and the partition
    /// plan (both `null`), removed.
    #[test]
    fn snapshot_json_is_pinned_byte_for_byte() {
        use crate::bundle::{StampSet, StrobePayload};
        use crate::message::Report;
        use psn_clocks::{PhysReading, ScalarStamp};
        use psn_world::{AttrKey, AttrValue};

        let mut live = live_from(&scenario(), &ExecutionConfig::default());
        live.advance_to(SimTime::from_secs(40)).unwrap();
        let json = live.snapshot().to_json();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (5591, 5638301643168460564),
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
            NetMsg::Report(Box::new(Report {
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
            (1716, 2577971987606110009),
            "every message kind"
        );
        let back = LiveSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back.events, snap.events);
    }

    /// Snapshots written while `ExecutionConfig` still carried a window
    /// discipline or a shard plan restore: each retired entry is an unknown
    /// key the deserializer skips, whatever its value, and the restored
    /// session runs on exactly like an uninterrupted one (neither choice
    /// ever changed an output).
    #[test]
    fn snapshot_with_retired_speculation_key_restores_and_runs_on() {
        let s = scenario();
        let cfg = ExecutionConfig::default();
        let cut = SimTime::from_secs(40);
        let mut whole = live_from(&s, &cfg);
        drive(&mut whole, SimTime::from_secs(90), SimDuration::from_millis(900));
        let whole_trace = whole.finish();

        let mut first = live_from(&s, &cfg);
        first.advance_to(cut).unwrap();
        let json = first.snapshot().to_json();
        let anchor = r#""fifo_dense_limit":null"#;
        for retired in [
            r#","speculation":null"#,
            r#","speculation":"Optimistic""#,
            r#","shard_plan":null"#,
            r#","shard_plan":"Affinity""#,
        ] {
            let old = json.replacen(anchor, &format!("{anchor}{retired}"), 1);
            assert_eq!(old.len(), json.len() + retired.len(), "fixture carries {retired}");
            let snap = LiveSnapshot::from_json(&old).expect("unknown key is skipped");
            let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
            let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
            drive(&mut second, SimTime::from_secs(90), SimDuration::from_millis(900));
            let trace = second.finish();
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

        let mut whole = live_from(&s, &cfg);
        drive(&mut whole, SimTime::from_secs(90), SimDuration::from_millis(1100));
        let whole_trace = whole.finish();

        let mut first = live_from(&s, &cfg);
        first.advance_to(cut).unwrap();
        let snap = first.snapshot();
        drop(first);

        let rest: Vec<_> = world_events(&s).into_iter().filter(|e| e.at >= cut).collect();
        let mut second = snap.restore(Box::new(TimelineProvider::new(rest))).expect("restore");
        drive(&mut second, SimTime::from_secs(90), SimDuration::from_millis(1100));
        let trace = second.finish();
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
        let senses = live.trace_view().log.sense_events().len();
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

    #[test]
    fn trace_view_is_queryable_mid_run() {
        let s = scenario();
        let mut live = live_from(&s, &ExecutionConfig::default());
        live.advance_to(SimTime::from_secs(45)).unwrap();
        let view = live.trace_view();
        assert_eq!(view.ended_at, SimTime::from_secs(45));
        assert!(!view.log.events.is_empty());
        // Canonical order, same as the batch trace.
        for w in view.log.events.windows(2) {
            assert!((w[0].at, w[0].process, w[0].seq) <= (w[1].at, w[1].process, w[1].seq));
        }
    }
}
