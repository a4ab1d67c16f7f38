//! The discrete-event engine.
//!
//! Actors (sensor/actuator processes, the world plane, the root P₀) exchange
//! messages through a configured [`NetworkConfig`]; the engine owns the
//! future-event list, samples delays and losses deterministically, and
//! dispatches callbacks. A whole run is a pure function of
//! `(actors, network, seed)` — no wall-clock, no thread scheduling, no
//! global state.
//!
//! Design notes:
//! - Callbacks receive a [`Context`] that *buffers* actions (sends, timers,
//!   …); the engine applies them after the callback returns. This keeps the
//!   borrow structure trivial and the application order deterministic.
//! - Every queue event carries a **canonical key** derived from its content
//!   (message id, `(actor, timer counter)`, fault-op index — see
//!   `event_key`), so simultaneous events fire in an order
//!   that does not depend on the order they were scheduled in. This is what
//!   lets a sharded engine ([`Engine::set_shards`]) replay a run
//!   bit-identically in parallel.
//! - Randomness is per-entity: each actor has a private stream, and the
//!   network/fault planes draw from **per-sender** labeled streams
//!   (`"engine.network.<id>"` / `"engine.faults.<id>"`), so one actor's
//!   draw sequence is a function of its own history only — independent of
//!   how actors are interleaved across shards.
//! - A pre-built external timeline is handed over once with
//!   [`Engine::feed`] and injected as the clock reaches it (see the `feed`
//!   module), so the queue holds only traffic in flight; the run equals
//!   one with every event [`Engine::inject`]ed up front.
//!
//! # One advance, any shard count
//!
//! [`Engine::run`] and [`Engine::step_until`] share one advance loop. At
//! the first advance the actors are partitioned into contiguous blocks, one
//! lane per shard ([`Engine::set_shards`]), and the lanes persist for the
//! engine's life. One lane runs its events inline. Several lanes advance
//! concurrently through half-open time windows `[t, t + L)`, where the
//! lookahead `L` is the network's minimum channel delay
//! (`DelayModel::min_bound`). A message sent at
//! `u ∈ [t, t+L)` arrives no earlier than `u + L ≥ t + L`, i.e. strictly
//! after the window — so shards cannot causally interact *within* a window
//! and may process their local events in parallel. Cross-shard messages are
//! routed into the destination shard's heap at the window barrier; because
//! heap order is total on `(time, canonical key)`, the arrival order is
//! immaterial. Fault-plane operations are coordinator sub-barriers: the
//! window is clipped at the next op time, the op applies under a write
//! lock, and windows resume. With `L = 0` (synchronous or `delta(Δ)`
//! delays) the engine keeps one lane.

use crate::fault::{CutPolicy, FaultEvent, FaultPlane, FaultScript, FaultStats, Parked, PlaneOp};
use crate::metrics::{Counter, Gauge, Metrics, Timer};
use crate::network::{ActorId, NetStats, NetworkConfig};
use crate::provider::ExternalEvent;
use crate::queue::{event_key, key_class};
use crate::rng::{RngFactory, RngStream};
use crate::telemetry::{Phase, Telemetry};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ClockStamp, FaultRecordKind, MsgId, ProcessEventKind, Trace, TraceKind};

use std::any::Any;
use std::sync::{Arc, RwLock};
use std::time::Instant;

mod feed;
mod lane;
mod sharded;

use crate::telemetry::ShardTelemetry;
use feed::Feed;
use lane::{FifoStore, Lane};
use sharded::Workers;

/// A typed error from the engine's *external* boundary — the operations a
/// long-running host (e.g. `psn-serve`) drives with data it did not
/// generate itself: injected events, incremental stepping, and post-run
/// actor recovery. Internal invariants (queue monotonicity, counter
/// overflow of engine-generated ids, worker liveness) remain
/// `debug_assert`/`expect`: they can only fire on an engine bug, never on
/// malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// An event or stepping bound lies before the engine's current time.
    /// Admitting it would break the monotone-time invariant every clock
    /// and trace consumer relies on.
    TimeRegression {
        /// The offending time.
        at: SimTime,
        /// The engine's current simulation time.
        now: SimTime,
    },
    /// An actor id outside the registered range.
    UnknownActor {
        /// The offending id.
        id: ActorId,
        /// How many actors are registered.
        actors: usize,
    },
    /// The actor was already recovered with [`Engine::take_actor`] /
    /// `Engine::try_take_actor`.
    ActorTaken {
        /// The already-taken id.
        id: ActorId,
    },
    /// The external-injection id space (2⁴⁰ ids, kept disjoint from
    /// engine-transmitted message ids) is exhausted.
    InjectIdsExhausted,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TimeRegression { at, now } => {
                write!(f, "time regression: t={at:?} is before engine time {now:?}")
            }
            EngineError::UnknownActor { id, actors } => {
                write!(f, "unknown actor {id} (engine has {actors})")
            }
            EngineError::ActorTaken { id } => write!(f, "actor {id} was already taken"),
            EngineError::InjectIdsExhausted => write!(f, "external injection id space exhausted"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A message payload. Sizes feed the byte-overhead accounting of
/// experiment E7 (strobe scalar O(1) vs strobe vector O(n) payloads).
///
/// `Send + Sync` because shard workers own messages (`Send`) and share the
/// fault plane's parked-message buffer behind a read lock (`Sync`); message
/// payloads are plain data, so the bounds are free. `'static` because an
/// [`Actor`] is `Any`, which needs every type it is generic over to own
/// its data.
pub trait Message: Clone + Send + Sync + 'static {
    /// The on-the-wire size of this payload, in bytes.
    fn size_bytes(&self) -> usize;

    /// Mutate the payload to model in-flight corruption (fault plane,
    /// [`crate::fault::ChannelEffect::Corrupt`]); return `true` if anything
    /// changed. All randomness must come from `rng` (the plane's per-sender
    /// stream). The default is incorruptible, so existing message types are
    /// unaffected until they opt in.
    fn corrupt(&mut self, _rng: &mut RngStream) -> bool {
        false
    }
}

/// Behaviour of one simulated entity.
///
/// All callbacks receive a [`Context`] through which the actor reads the
/// current time, draws randomness from its private stream, sends messages,
/// sets timers and annotates the trace (tests can also halt the run).
/// `Any` is a supertrait so a host can read a resident actor's state by its
/// concrete type ([`Engine::actor`]), write it between steps
/// ([`Engine::actor_mut`]), or take it back after the run
/// ([`Engine::take_actor`]) and downcast it.
pub trait Actor<M: Message>: Any {
    /// Called once before the first event, in actor-id order.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}
    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ActorId, msg: M);
    /// A timer set with [`Context::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _tag: u64) {}
    /// A fault-plane event hit this actor (see [`FaultEvent`]): recovery
    /// after a crash, or a clock fault. Default: ignore faults entirely —
    /// actors that model no recoverable state need no changes.
    fn on_fault(&mut self, _ctx: &mut Context<'_, M>, _event: &FaultEvent) {}
}

/// Buffered actions produced by an actor callback.
enum Action<M> {
    Send {
        to: ActorId,
        msg: M,
    },
    Broadcast {
        msg: M,
    },
    SetTimer {
        after: SimDuration,
        tag: u64,
    },
    Note {
        label: String,
    },
    // Boxed so the rarely-hot stamped payload (a ClockStamp is ~100 bytes
    // inline) doesn't widen every Action the dispatch loop moves; the box
    // is only ever allocated while tracing is enabled.
    Trace(Box<ProcessTrace>),
    #[cfg(test)]
    Halt,
}

struct ProcessTrace {
    kind: ProcessEventKind,
    stamp: ClockStamp,
    detail: u64,
}

/// The per-callback view an actor has of the simulation.
///
/// The action buffer is a reusable scratch vector owned by the engine, so
/// steady-state dispatch allocates nothing.
pub struct Context<'a, M> {
    now: SimTime,
    id: ActorId,
    trace_on: bool,
    rng: &'a mut RngStream,
    actions: &'a mut Vec<Action<M>>,
}

impl<M> Context<'_, M> {
    /// Current ground-truth simulation time.
    ///
    /// Real sensor processes must not base *protocol* decisions on this
    /// (they only have their own clocks); it exists so actors can model
    /// physical clock hardware and so test actors can assert on timing.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's private random stream.
    pub fn rng(&mut self) -> &mut RngStream {
        self.rng
    }

    /// Send `msg` to `to` through the network (delay/loss/topology apply).
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// System-wide broadcast to every *connected* peer (used by the strobe
    /// clock protocols, rules SVC1/SSC1).
    pub fn broadcast(&mut self, msg: M) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Arrange for [`Actor::on_timer`] to fire `after` from now with `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) {
        self.actions.push(Action::SetTimer { after, tag });
    }

    /// Record a free-form annotation in the trace.
    pub fn note(&mut self, label: impl Into<String>) {
        self.actions.push(Action::Note { label: label.into() });
    }

    /// Is trace recording on for this run? Actors use this to skip building
    /// stamps for [`Context::trace_process`] when nobody is listening.
    pub fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    /// Record a logically stamped semantic process event
    /// ([`TraceKind::Process`]) for this actor. No-op when tracing is off;
    /// recording is observational and cannot change the run.
    pub fn trace_process(&mut self, kind: ProcessEventKind, stamp: ClockStamp, detail: u64) {
        if self.trace_on {
            self.actions.push(Action::Trace(Box::new(ProcessTrace { kind, stamp, detail })));
        }
    }

    /// Stop the simulation after the current event is fully applied.
    #[cfg(test)]
    pub(crate) fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }
}

/// An event in the future-event list. Actor ids are stored as `u32` to keep
/// entries small — every queue entry is moved O(log n) times per heap
/// operation, so entry size is directly visible in engine throughput.
/// Fault operations are *not* queue events: the coordinator interleaves
/// them between windows (see [`Engine::set_shards`]), which is what lets
/// shard heaps stay private to their worker threads.
enum Pending<M> {
    Deliver { from: u32, to: u32, msg: M, id: u64 },
    Timer { actor: u32, tag: u64 },
}

enum Dispatch<M> {
    Start,
    Message { from: ActorId, msg: M },
    Timer { tag: u64 },
    Fault { event: FaultEvent },
}

/// Pre-registered engine metric handles (see [`crate::metrics`]). Recording
/// observes the simulation without feeding anything back into it — no RNG
/// draws, no event reordering — so enabling metrics cannot change a run.
/// Handles are atomics behind `Arc`s, so per-shard clones all feed the same
/// registry; counters are exact in either mode, while the point-in-time
/// gauges (`queue_depth`, `in_flight`) are sampling artifacts of whichever
/// lane last wrote them mid-run (the end-of-run values are exact).
#[derive(Clone)]
struct EngineMetrics {
    events: Counter,
    delivered: Counter,
    dropped: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
    run_wall: Timer,
    events_per_sec: Gauge,
    windows: Counter,
    op_barriers: Counter,
}

impl EngineMetrics {
    fn attach(m: &Metrics) -> Self {
        EngineMetrics {
            events: m.counter("engine.events_processed"),
            delivered: m.counter("engine.messages_delivered"),
            dropped: m.counter("engine.messages_dropped"),
            queue_depth: m.gauge("engine.queue_depth"),
            in_flight: m.gauge("engine.in_flight"),
            run_wall: m.timer_with_range("engine.run_wall_ns", 0.0, 1e10, 128),
            events_per_sec: m.gauge("engine.events_per_sec"),
            windows: m.counter("engine.windows"),
            op_barriers: m.counter("engine.op_barriers"),
        }
    }
}

/// Above this many topology nodes the per-channel FIFO clamp state switches
/// from a dense rank×n matrix to a hash map, so n = 10⁴-actor topologies
/// do not allocate O(n²) memory. Override per engine with
/// [`Engine::set_fifo_dense_limit`] (tests cross-validate the two paths).
pub const DENSE_ACTOR_LIMIT: usize = 2048;

/// The simulation engine.
pub struct Engine<M: Message> {
    /// One lane until the first advance, which splits it into the shard
    /// count's lanes (see [`Engine::set_shards`]); they are never merged
    /// back.
    lanes: Vec<Lane<M>>,
    /// The requested shard count, applied at the first advance.
    shards: usize,
    /// Shared with the shard workers of a sharded advance.
    network: Arc<NetworkConfig>,
    factory: RngFactory,
    end_time: SimTime,
    /// Ids for injected external deliveries: a small counter disjoint from
    /// transmitted ids (those start at `1 << 40`), so injections at an
    /// instant always sort before transmissions at the same instant.
    next_inject_id: u64,
    /// The fed timeline's events not yet injected (see [`Engine::feed`]).
    feed: Feed<M>,
    /// Next un-applied fault-plane operation (ops are time-sorted).
    op_cursor: usize,
    /// Whether the lanes are split and `on_start` dispatched. Both happen
    /// exactly once per engine, at the first `run`/`step_until` —
    /// incremental stepping must not re-arm start timers on every call.
    started: bool,
    /// The installed fault plane, if any. `None` on the hot path costs one
    /// predictable branch per event; see [`Engine::install_faults`].
    fault: Option<Box<FaultPlane<M>>>,
    /// The sealed trace: [`Engine::finish`] moves the lanes' staged records
    /// here.
    trace: Trace,
    m: EngineMetrics,
    /// Phase-scoped wall-clock telemetry registry. Disabled (inert, no
    /// clock reads) unless [`Engine::set_telemetry`] attached a live one.
    tel: Telemetry,
}

impl<M: Message> Engine<M> {
    /// Build an engine over the given network, with per-actor RNG streams
    /// derived from `seed`.
    pub fn new(network: NetworkConfig, seed: u64) -> Self {
        let m = EngineMetrics::attach(&Metrics::disabled());
        Engine {
            lanes: vec![Lane::new(m.clone())],
            shards: 1,
            network: Arc::new(network),
            factory: RngFactory::new(seed),
            end_time: SimTime::MAX,
            next_inject_id: 0,
            feed: Feed::default(),
            op_cursor: 0,
            started: false,
            fault: None,
            trace: Trace::disabled(),
            m,
            tel: Telemetry::disabled(),
        }
    }

    /// Run on `shards` lanes of contiguous actor blocks, advanced
    /// concurrently through lookahead windows. Every result — delivered
    /// events, per-actor RNG draws, trace, stats, fault effects — is
    /// **bit-identical** at every shard count, for [`Engine::run`] and
    /// [`Engine::step_until`] alike.
    ///
    /// `shards` is clamped to `[1, n]` and actor `i` runs on lane
    /// `i / ceil(n / shards)`, which keeps neighbour-heavy topologies
    /// (rings, grids) mostly intra-shard. A network with zero lookahead
    /// (`DelayModel::min_bound`) keeps one lane. The lanes
    /// are split at the first advance and persist, so the shard count is
    /// set once, before it: a later call panics.
    ///
    /// Caveat: a halt (`Context::halt`, a test hook) stops a sharded
    /// advance at the end of the window (or start batch) that observed it,
    /// not mid-window. `now()` reports the latest lane's time.
    pub fn set_shards(&mut self, shards: usize) {
        assert!(!self.started, "the shard count is set before the first advance");
        self.shards = shards;
    }

    /// Install a [`FaultScript`]: every scripted fault is expanded into a
    /// time-sorted operation list the run interleaves with queue events
    /// (ops at an instant apply before deliveries/timers at that instant).
    /// Call after [`Engine::add_actor`] (the plane sizes its crash mask
    /// from the actor count) and before [`Engine::run`]. The plane draws
    /// from its own per-sender streams (labels `"engine.faults.<id>"`,
    /// derived statelessly from the master seed), never from the network
    /// RNGs — an **empty** script is observationally identical to not
    /// installing one at all.
    pub fn install_faults(&mut self, script: &FaultScript) {
        let n = self.lanes[0].actors.len();
        let plane = FaultPlane::new(script, n);
        let rngs: Vec<RngStream> =
            (0..n).map(|id| self.factory.labeled_stream(&format!("engine.faults.{id}"))).collect();
        for lane in &mut self.lanes {
            lane.fault_rngs = rngs.clone();
        }
        self.op_cursor = 0;
        self.fault = Some(Box::new(plane));
    }

    /// The fault plane's counters, if a script is installed: op-side
    /// counters (crashes, cuts, …) plus the transmit/delivery-side counters
    /// the lanes accumulated, plus the still-parked backlog.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|p| {
            let mut s = p.stats();
            for lane in &self.lanes {
                s.absorb(&lane.fstats);
                s.parked_leftover += lane.parked_out.len() as u64;
            }
            s
        })
    }

    /// Messages scheduled (or parked by a partition) but not yet delivered.
    /// After a run this is the undelivered backlog; together with the
    /// delivered/lost counters it closes the queue-conservation identity
    /// the chaos soak asserts.
    pub fn in_flight(&self) -> u64 {
        self.lanes.iter().map(|l| l.in_flight).sum::<i64>().max(0) as u64
    }

    /// Record engine metrics (events processed, delivered vs dropped
    /// messages, queue depth, in-flight high-water, run wall time) into
    /// `metrics`. Recording is observational only: a run with metrics
    /// attached is bit-identical to the same run without.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.m = EngineMetrics::attach(metrics);
        for lane in &mut self.lanes {
            lane.m = self.m.clone();
        }
    }

    /// Attach a phase-scoped wall-clock [`Telemetry`] registry: each lane
    /// records into its shard slot, and a sharded engine's coordinator into
    /// the coordinator slot. Strictly off the deterministic path —
    /// wall-clock reads feed only telemetry, and a run with telemetry
    /// attached is bit-identical to the same run without (see the
    /// `telemetry` module docs and `tests/telemetry_determinism.rs`).
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.tel = t.clone();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            lane.tel = t.shard(i);
        }
    }

    /// Register an actor; returns its id. Actors must be added before
    /// [`Engine::run`]. Ids are assigned densely from 0 and must agree with
    /// the network topology's node numbering.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        let lane = &mut self.lanes[0];
        let id = lane.actors.len();
        lane.actors.push(Some(actor));
        lane.rngs.push(self.factory.stream(id as u64 + 1));
        lane.net_rngs.push(self.factory.labeled_stream(&format!("engine.network.{id}")));
        lane.loss.push(self.network.loss.clone());
        lane.msg_ctr.push(0);
        lane.timer_ctr.push(0);
        lane.members.push(id);
        id
    }

    /// Enable trace recording.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
        for lane in &mut self.lanes {
            lane.trace = Trace::enabled();
        }
    }

    /// Stop the run at this time even if events remain.
    pub fn set_end_time(&mut self, end: SimTime) {
        self.end_time = end;
    }

    /// Override [`DENSE_ACTOR_LIMIT`] for this engine (tests cross-validate
    /// the dense and sparse FIFO paths by forcing each).
    pub fn set_fifo_dense_limit(&mut self, limit: usize) {
        for lane in &mut self.lanes {
            lane.fifo_dense_limit = limit;
            lane.fifo = FifoStore::Unset;
        }
    }

    /// Schedule an external input: `msg` will be delivered to `to` at `at`,
    /// bypassing the network's delay/loss models — used to inject
    /// precomputed world-plane timelines. `from` is a conventional source id
    /// (often the world actor's id).
    pub fn inject(&mut self, at: SimTime, to: ActorId, from: ActorId, msg: M) {
        debug_assert!(at >= self.now(), "inject into the past");
        let id = self.next_inject_id;
        self.next_inject_id += 1;
        debug_assert!(id < (1 << 40), "inject id overflow into transmitted-id space");
        let pending = Pending::Deliver { from: from as u32, to: to as u32, msg, id };
        feed::admit(&mut self.lanes, (at, event_key(key_class::DELIVER, id), pending));
    }

    /// Hand over an external timeline to be injected as the run reaches it:
    /// each event enters the queue, under the inject id it gets here in
    /// list order, just before the run loop would process anything at or
    /// after its time. The run is the one [`Engine::inject`]ing every event
    /// up front in list order would give — same pops, draws, trace and
    /// stats — with only in-flight traffic queued. The list need not be in
    /// time order. Events a run does not reach (past the end time, or
    /// after a halt) are injected when [`Engine::run`] returns, so
    /// [`Engine::in_flight`] counts them as before; [`Engine::step_until`]
    /// keeps them for later steps.
    pub fn feed(&mut self, events: Vec<ExternalEvent<M>>) {
        debug_assert!(events.iter().all(|e| e.at >= self.now()), "feed into the past");
        let first = self.next_inject_id;
        self.next_inject_id += events.len() as u64;
        debug_assert!(
            self.next_inject_id <= 1 << 40,
            "inject id overflow into transmitted-id space"
        );
        self.feed.extend(first, events);
    }

    /// The checked form of [`Engine::inject`] for events that cross the
    /// engine's external boundary (wire ingest, replayed logs): validates
    /// the actor ids, rejects events behind the engine clock (which would
    /// break time monotonicity once the engine has stepped past them), and
    /// surfaces id-space exhaustion as an error instead of a debug assert.
    pub fn try_inject(
        &mut self,
        at: SimTime,
        to: ActorId,
        from: ActorId,
        msg: M,
    ) -> Result<(), EngineError> {
        let n = self.lanes[0].actors.len();
        if to >= n {
            return Err(EngineError::UnknownActor { id: to, actors: n });
        }
        if from >= n {
            return Err(EngineError::UnknownActor { id: from, actors: n });
        }
        let now = self.now();
        if at < now {
            return Err(EngineError::TimeRegression { at, now });
        }
        if self.next_inject_id >= (1 << 40) {
            return Err(EngineError::InjectIdsExhausted);
        }
        self.inject(at, to, from, msg);
        Ok(())
    }

    /// Split the lanes and dispatch `on_start` to every actor, exactly once
    /// per engine (the first advance; later calls are no-ops). Start
    /// dispatches run per lane in shard order; canonical start cursors make
    /// the resulting records order by actor id regardless, and cross-shard
    /// sends are absorbed before the first stop.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.split_lanes();
        let plane = self.fault.as_deref();
        for lane in &mut self.lanes {
            lane.trace.configure_actors(lane.members.len());
            lane.dispatch_starts(&self.network, plane);
        }
        for lane in &mut self.lanes {
            lane.absorb_inbox();
        }
    }

    /// Run until the queue and the fed timeline drain, the end time passes,
    /// or an actor halts; then inject the fed events the run did not reach
    /// and [`finish`](Engine::finish). Returns the final simulation time.
    /// A later `run` (say, after [`Engine::set_end_time`] moved the end)
    /// resumes where this one stopped, as one uninterrupted run would.
    pub fn run(&mut self) -> SimTime {
        let wall_start = Instant::now();
        let events_before = self.events_processed();
        self.advance(None);
        self.feed.admit_rest(&mut self.lanes);
        self.m.queue_depth.set(self.lanes.iter().map(|l| l.queue.len() as u64).sum());
        self.m.in_flight.set(self.in_flight());
        let end = self.finish();
        let wall = wall_start.elapsed();
        self.m.run_wall.record_duration(wall);
        self.tel.record_run_wall(wall.as_nanos() as u64);
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            self.m
                .events_per_sec
                .set(((self.events_processed() - events_before) as f64 / secs) as u64);
        }
        end
    }

    /// Advance the engine **incrementally** to `bound`: process every queue
    /// event and fault op with time `< bound`, then set the engine clock to
    /// `bound` (clamped by [`Engine::set_end_time`]). Unlike [`Engine::run`]
    /// this neither requires the queue to drain nor seals the trace — call
    /// it repeatedly with a growing watermark to drive the engine from a
    /// live event source, injecting between calls; events at exactly
    /// `bound` stay pending, so later injections `≥ bound` are always
    /// admissible. `on_start` is dispatched on the first call only. Works
    /// at every shard count, with the halt caveat of
    /// [`Engine::set_shards`]. Returns the new engine time; a `bound`
    /// behind the engine clock is a [`EngineError::TimeRegression`].
    pub fn step_until(&mut self, bound: SimTime) -> Result<SimTime, EngineError> {
        let now = self.now();
        if bound < now {
            return Err(EngineError::TimeRegression { at: bound, now });
        }
        self.advance(Some(bound));
        if !self.is_halted() {
            let target = bound.min(self.end_time);
            for lane in &mut self.lanes {
                lane.now = lane.now.max(target);
            }
        }
        Ok(self.now())
    }

    /// Seal the trace after a sequence of [`Engine::step_until`] calls
    /// (what [`Engine::run`] does on completion) and return the final
    /// time. The lanes' records since the last seal are sorted together
    /// and appended, so a run resumed after a seal reads like one
    /// uninterrupted run; the first seal moves them without a copy.
    /// Idempotent.
    pub fn finish(&mut self) -> SimTime {
        let mut staged = Trace::enabled();
        for lane in &mut self.lanes {
            staged.absorb(&mut lane.trace);
        }
        self.trace.absorb(&mut staged);
        self.trace.seal();
        self.now()
    }

    /// True once an actor has called `Context::halt` (a test hook).
    pub(crate) fn is_halted(&self) -> bool {
        self.lanes.iter().any(|l| l.halted)
    }

    /// The engine's one advance, shared by [`Engine::run`] (`limit: None`)
    /// and [`Engine::step_until`] (`limit: Some(bound)`, exclusive). One
    /// lane runs inline; several run lookahead windows on scoped workers,
    /// spawned for this advance.
    fn advance(&mut self, limit: Option<SimTime>) {
        let t0 = self.tel.is_enabled().then(Instant::now);
        self.ensure_started();
        let plane = RwLock::new(self.fault.take());
        if self.lanes.len() == 1 {
            self.coordinate(&plane, None, limit);
            // The whole advance (start dispatch included) is shard-0 busy
            // time; `record` is a no-op when no registry is attached.
            self.lanes[0].tel.record(Phase::Busy, t0);
        } else {
            // The serial prefix (lane split, start dispatch) is coordinator
            // busy time. During the window loop the coordinator records
            // only drains, so its busy spans never overlap the shards' own
            // accounting.
            self.tel.coordinator().record(Phase::Busy, t0);
            let net = Arc::clone(&self.network);
            let tels: Vec<ShardTelemetry> =
                (0..self.lanes.len()).map(|i| self.tel.shard(i)).collect();
            let tel_on = self.tel.is_enabled();
            std::thread::scope(|scope| {
                let workers = Workers::spawn(scope, &net, &plane, tels, tel_on);
                self.coordinate(&plane, Some(&workers), limit);
            });
        }
        self.fault = plane.into_inner().expect(PLANE_POISONED);
    }

    /// The coordinator loop: interleave time-sorted fault-plane ops with
    /// queue events, stopping at halt or wherever [`next_stop`] says the
    /// advance is over. Without `workers` the one lane advances inline;
    /// with them, every lane advances through one lookahead window at a
    /// time.
    ///
    /// The feed rule: one lane first injects the fed events due at or
    /// before its queue head (the next fed instant when the queue is
    /// empty), so the head is the earliest pending event, and then clips
    /// its advance to the next fed time, so no fed event is passed over.
    /// Several lanes take, before each window, the fed events it will
    /// reach, while every lane is at rest.
    fn coordinate(
        &mut self,
        plane: &RwLock<Option<Box<FaultPlane<M>>>>,
        workers: Option<&Workers<M>>,
        limit: Option<SimTime>,
    ) {
        let coord = self.tel.coordinator();
        let lookahead = self.network.delay.min_bound();
        assert!(workers.is_none() || !lookahead.is_zero(), "sharded lanes need a lookahead");
        let op_time = |plane: &FaultPlane<M>, cursor: usize| plane.ops.get(cursor).map(|op| op.0);
        let mut op_at =
            plane.read().expect(PLANE_POISONED).as_deref().and_then(|p| op_time(p, self.op_cursor));
        while !self.is_halted() {
            if workers.is_none() {
                if let Some(head) = self.lanes[0].queue.peek_time().or(self.feed.next_at()) {
                    self.feed.admit_while(&mut self.lanes, |at| at <= head);
                }
            }
            let queue_at = self
                .lanes
                .iter()
                .filter_map(|l| l.queue.peek_time())
                .chain(self.feed.next_at())
                .min();
            match next_stop(op_at, queue_at, self.end_time, limit) {
                Stop::Op => {
                    // Fault ops count as events for continuity with the
                    // former queue-scheduled scheme. Sharded, an op is a
                    // coordinator sub-barrier with every lane at rest,
                    // counted in `engine.op_barriers`, not `engine.windows`
                    // — it synchronizes every lane like a window boundary
                    // does, but advances no lookahead window.
                    let idx = self.op_cursor;
                    self.op_cursor += 1;
                    self.lanes[0].events_processed += 1;
                    self.m.events.inc();
                    let mut guard = plane.write().expect(PLANE_POISONED);
                    let p = guard.as_deref_mut().expect("op implies plane");
                    // Transmit-time parks accumulate lane-side; fold them
                    // into the plane before the op so a heal releases them.
                    collect_parked(&mut self.lanes, p);
                    apply_plane_op(&mut self.lanes, p, &mut self.feed, idx, &self.network);
                    op_at = op_time(p, self.op_cursor);
                    drop(guard);
                    if workers.is_some() {
                        self.m.op_barriers.inc();
                        // Ops can dispatch actors (Recover/Clock handlers)
                        // whose sends target other shards; absorb them now
                        // so the next stop sees them.
                        self.drain_inboxes(&coord);
                    } else {
                        self.m.queue_depth.set(self.lanes[0].queue.len() as u64);
                    }
                }
                Stop::Advance { from, until } => match workers {
                    None => {
                        let until = [until, self.feed.next_at()].into_iter().flatten().min();
                        let guard = plane.read().expect(PLANE_POISONED);
                        self.lanes[0].advance_until(until, &self.network, guard.as_deref());
                    }
                    Some(workers) => {
                        // One parallel window [from, from + L), clipped by
                        // the next op, the end time or the limit.
                        let mut wend = from.saturating_add(lookahead);
                        if let Some(u) = until {
                            wend = wend.min(u);
                        }
                        self.m.windows.inc();
                        self.feed.admit_while(&mut self.lanes, |at| at < wend);
                        workers.run_window(&mut self.lanes, wend);
                        self.drain_inboxes(&coord);
                    }
                },
                Stop::End => {
                    for lane in &mut self.lanes {
                        lane.now = self.end_time;
                    }
                    break;
                }
                Stop::Drained => break,
            }
        }
    }

    /// Absorb every lane's inbox at a barrier. Senders are idle there, so
    /// this coordinator drain (after the workers' own overlapped absorb)
    /// is complete.
    fn drain_inboxes(&mut self, coord: &ShardTelemetry) {
        let d0 = coord.start();
        for lane in &mut self.lanes {
            lane.absorb_inbox();
        }
        coord.record(Phase::CoordinatorDrain, d0);
    }

    /// Current simulation time: the latest lane's clock.
    pub fn now(&self) -> SimTime {
        self.lanes.iter().map(|l| l.now).max().expect("an engine has a lane")
    }

    /// Network counters accumulated so far, summed over the lanes.
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats::default();
        for lane in &self.lanes {
            s.absorb(&lane.stats);
        }
        s
    }

    /// The trace as of the last [`Engine::finish`] (or [`Engine::run`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total events dispatched.
    pub fn events_processed(&self) -> u64 {
        self.lanes.iter().map(|l| l.events_processed).sum()
    }

    /// Read a resident actor's state between runs or steps: `None` if `id`
    /// is out of range or the actor was taken. Upcast the reference to
    /// `&dyn Any` to reach the concrete type.
    pub fn actor(&self, id: ActorId) -> Option<&(dyn Actor<M> + Send)> {
        self.lanes[host_of(&self.lanes, id)].actors.get(id)?.as_deref()
    }

    /// [`Engine::actor`] for writing between runs or steps, e.g. to retire
    /// state a host has already read.
    pub fn actor_mut(&mut self, id: ActorId) -> Option<&mut (dyn Actor<M> + Send)> {
        let h = host_of(&self.lanes, id);
        self.lanes[h].actors.get_mut(id)?.as_deref_mut()
    }

    /// Recover an actor after the run to read its final state.
    ///
    /// Panics if `id` is out of range or the actor was already taken; hosts
    /// handling externally supplied ids should use
    /// `Engine::try_take_actor`.
    pub fn take_actor(&mut self, id: ActorId) -> Box<dyn Actor<M> + Send> {
        self.try_take_actor(id).expect("actor present")
    }

    /// The checked form of [`Engine::take_actor`]: an out-of-range id or a
    /// doubly-taken actor is a typed error, not a panic.
    pub(crate) fn try_take_actor(
        &mut self,
        id: ActorId,
    ) -> Result<Box<dyn Actor<M> + Send>, EngineError> {
        let h = host_of(&self.lanes, id);
        let lane = &mut self.lanes[h];
        let n = lane.actors.len();
        match lane.actors.get_mut(id) {
            None => Err(EngineError::UnknownActor { id, actors: n }),
            Some(slot) => slot.take().ok_or(EngineError::ActorTaken { id }),
        }
    }
}

/// The fault plane's lock is poisoned only if its one writer, the
/// coordinator, panicked during an op, and then the advance unwinds.
const PLANE_POISONED: &str = "the coordinator panicked applying a fault op";

/// What a run loop does next, as decided by [`next_stop`].
enum Stop {
    /// Apply the next fault-plane op: it is due no later than the next
    /// queue event (ops fire first at a shared instant).
    Op,
    /// Process queue events from `from`, the earliest pending one, up to
    /// the exclusive bound `until` (`None` = unbounded): the next op, one
    /// past the end time, or the caller's limit, whichever comes first.
    Advance { from: SimTime, until: Option<SimTime> },
    /// The next event lies past the end time: the run ends there.
    End,
    /// Nothing is due before the caller's limit, or at all.
    Drained,
}

/// The coordinator's next-stop rule, for the earliest pending event over
/// every lane and the fed timeline's head (`queue_at`), stepping to
/// `limit` if one is set. Several lanes further clip a [`Stop::Advance`] to
/// one lookahead window.
fn next_stop(
    op_at: Option<SimTime>,
    queue_at: Option<SimTime>,
    end_time: SimTime,
    limit: Option<SimTime>,
) -> Stop {
    let next = match (op_at, queue_at) {
        (Some(a), Some(b)) => a.min(b),
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => return Stop::Drained,
    };
    if next > end_time {
        return Stop::End;
    }
    if limit.is_some_and(|lim| next >= lim) {
        return Stop::Drained;
    }
    if op_at == Some(next) {
        return Stop::Op;
    }
    let past_end =
        (end_time != SimTime::MAX).then(|| end_time.saturating_add(SimDuration::from_nanos(1)));
    Stop::Advance { from: next, until: [op_at, past_end, limit].into_iter().flatten().min() }
}

/// Drain every lane's transmit-time parked messages into the plane (order
/// inside `plane.parked` is canonicalised by the sort at heal time).
fn collect_parked<M: Message>(lanes: &mut [Lane<M>], plane: &mut FaultPlane<M>) {
    for lane in lanes.iter_mut() {
        plane.parked.append(&mut lane.parked_out);
    }
}

/// The owning lane of `actor` (lane 0 when there is one lane, or for ids
/// past the owner map).
fn host_of<M: Message>(lanes: &[Lane<M>], actor: ActorId) -> usize {
    if lanes.len() == 1 {
        return 0;
    }
    lanes[0].owner.get(actor).map(|&s| s as usize).unwrap_or(0)
}

/// Execute one expanded fault-plane operation against the lane set, at the
/// op's scripted time. Works identically on one lane and on all lanes at
/// a window barrier.
///
/// Trace-host rule: each op designates **one** host trace — the owning
/// lane's for actor-scoped ops (crash/recover/clock), lane 0's for
/// system-scoped ops (cut/heal/channel) — and stages every record under the
/// op's canonical FAULT cursor with one continuous intra counter. The
/// canonical seal orders records by `(time, cursor, intra)`, so the host
/// choice never shows in the sealed trace.
fn apply_plane_op<M: Message>(
    lanes: &mut [Lane<M>],
    plane: &mut FaultPlane<M>,
    feed: &mut Feed<M>,
    idx: usize,
    net: &NetworkConfig,
) {
    let (now, op) = plane.ops[idx].clone();
    let key = event_key(key_class::FAULT, idx as u64);
    let cursor = Trace::event_cursor(key);
    match op {
        PlaneOp::Crash { actor } => {
            let h = host_of(lanes, actor);
            let lane = &mut lanes[h];
            lane.now = now;
            lane.trace.set_cursor(cursor);
            if !plane.is_down(actor) {
                plane.down[actor] = true;
                plane.stats.crashes += 1;
                lane.trace.record(
                    now,
                    TraceKind::Fault { actor, kind: FaultRecordKind::Crash, detail: 0 },
                );
            }
        }
        PlaneOp::Recover { actor } => {
            let h = host_of(lanes, actor);
            let lane = &mut lanes[h];
            lane.now = now;
            lane.trace.set_cursor(cursor);
            if plane.is_down(actor) {
                plane.down[actor] = false;
                plane.stats.recoveries += 1;
                lane.trace.record(
                    now,
                    TraceKind::Fault { actor, kind: FaultRecordKind::Recover, detail: 0 },
                );
                // The plane mutation is complete, so everything the
                // recovering actor sends goes through the fault pipeline
                // with the post-recovery state.
                lane.dispatch(
                    actor,
                    Dispatch::Fault { event: FaultEvent::Recover },
                    net,
                    Some(plane),
                );
            }
        }
        PlaneOp::Clock { actor, kind } => {
            let h = host_of(lanes, actor);
            let lane = &mut lanes[h];
            lane.now = now;
            lane.trace.set_cursor(cursor);
            plane.stats.clock_faults += 1;
            lane.trace.record(
                now,
                TraceKind::Fault { actor, kind: FaultRecordKind::ClockFault, detail: kind.code() },
            );
            if !plane.is_down(actor) {
                lane.dispatch(
                    actor,
                    Dispatch::Fault { event: FaultEvent::Clock(kind) },
                    net,
                    Some(plane),
                );
            }
        }
        PlaneOp::Cut { idx: ci } => {
            lanes[0].now = now;
            lanes[0].trace.set_cursor(cursor);
            plane.cuts[ci].active = true;
            plane.active_cuts += 1;
            plane.stats.cuts += 1;
            let policy = plane.cuts[ci].policy;
            // Fed deliveries crossing the cut are intercepted like ones
            // injected up front: queue them first, then drain.
            let group = &plane.cuts[ci].group;
            feed.admit_matching(lanes, |from, to| group.contains(&from) != group.contains(&to));
            // Intercept in-flight messages crossing the new cut, merging
            // per-lane drains into one canonical (time, key) order.
            let mut crossing: Vec<(usize, SimTime, u64, Pending<M>)> = Vec::new();
            for (li, lane) in lanes.iter_mut().enumerate() {
                let group = &plane.cuts[ci].group;
                let mut pred = |p: &Pending<M>| match p {
                    Pending::Deliver { from, to, .. } => {
                        group.contains(&(*from as ActorId)) != group.contains(&(*to as ActorId))
                    }
                    _ => false,
                };
                for (at, k, p) in lane.queue.drain_entries_matching(&mut pred) {
                    crossing.push((li, at, k, p));
                }
            }
            crossing.sort_by_key(|a| (a.1, a.2));
            for (li, dat, _k, pending) in crossing {
                let Pending::Deliver { from, to, msg, id } = pending else { unreachable!() };
                let (from, to) = (from as ActorId, to as ActorId);
                match policy {
                    CutPolicy::Drop => {
                        lanes[li].in_flight -= 1;
                        lanes[0].stats.messages_lost += 1;
                        lanes[0].stats.messages_faulted += 1;
                        lanes[0].m.dropped.inc();
                        lanes[0].trace.record(now, TraceKind::Lost { from, to, msg: MsgId(id) });
                        plane.stats.dropped_in_flight += 1;
                    }
                    CutPolicy::Park => {
                        lanes[0].trace.record(
                            now,
                            TraceKind::Fault {
                                actor: from,
                                kind: FaultRecordKind::Parked,
                                detail: id,
                            },
                        );
                        plane.parked.push(Parked { from, to, msg, id, deliver_at: dat });
                        plane.stats.parked += 1;
                        // stays in flight (counted in lane li)
                    }
                }
            }
            for i in 0..plane.cuts[ci].group.len() {
                let actor = plane.cuts[ci].group[i];
                lanes[0].trace.record(
                    now,
                    TraceKind::Fault {
                        actor,
                        kind: FaultRecordKind::PartitionCut,
                        detail: ci as u64,
                    },
                );
            }
        }
        PlaneOp::Heal { idx: ci } => {
            if plane.cuts[ci].active {
                lanes[0].now = now;
                lanes[0].trace.set_cursor(cursor);
                plane.cuts[ci].active = false;
                plane.active_cuts -= 1;
                plane.stats.heals += 1;
                // Release parked messages no active cut still blocks, in
                // canonical (deliver_at, id) order — sorted here because
                // shard lanes park concurrently during windows.
                let mut parked = std::mem::take(&mut plane.parked);
                parked.sort_by_key(|p| (p.deliver_at, p.id));
                for p in parked {
                    if plane.blocked(p.from, p.to) {
                        plane.parked.push(p);
                    } else {
                        let at = if p.deliver_at > now { p.deliver_at } else { now };
                        lanes[0].trace.record(
                            now,
                            TraceKind::Fault {
                                actor: p.from,
                                kind: FaultRecordKind::Unparked,
                                detail: p.id,
                            },
                        );
                        let dest = host_of(lanes, p.to);
                        lanes[dest].queue.schedule_keyed(
                            at,
                            event_key(key_class::DELIVER, p.id),
                            Pending::Deliver {
                                from: p.from as u32,
                                to: p.to as u32,
                                msg: p.msg,
                                id: p.id,
                            },
                        );
                        plane.stats.unparked += 1;
                    }
                }
                for i in 0..plane.cuts[ci].group.len() {
                    let actor = plane.cuts[ci].group[i];
                    lanes[0].trace.record(
                        now,
                        TraceKind::Fault {
                            actor,
                            kind: FaultRecordKind::PartitionHeal,
                            detail: ci as u64,
                        },
                    );
                }
            }
        }
        PlaneOp::ChannelOn { idx: ri } => {
            lanes[0].now = now;
            if !plane.rules[ri].active {
                plane.rules[ri].active = true;
                plane.active_rules += 1;
            }
        }
        PlaneOp::ChannelOff { idx: ri } => {
            lanes[0].now = now;
            if plane.rules[ri].active {
                plane.rules[ri].active = false;
                plane.active_rules -= 1;
            }
        }
    }
}

#[cfg(test)]
impl<M: Message> Engine<M> {
    /// Mutable access to the network configuration (e.g. to flip overlay
    /// links between runs). Note: per-sender loss-model state is cloned at
    /// [`Engine::add_actor`] time, so swapping `loss` here does not affect
    /// already-registered senders, and a sharded engine's delay model must
    /// keep a nonzero lookahead.
    pub(crate) fn network_mut(&mut self) -> &mut NetworkConfig {
        Arc::make_mut(&mut self.network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::fault::ChannelEffect;
    use crate::loss::LossModel;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }
    impl Message for TestMsg {
        fn size_bytes(&self) -> usize {
            4
        }
    }

    /// Sends `Ping(k)` to its peer on start and on each pong, up to `max`.
    struct PingPong {
        peer: ActorId,
        max: u32,
        log: Vec<(SimTime, TestMsg)>,
        initiator: bool,
    }
    impl Actor<TestMsg> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            if self.initiator {
                ctx.send(self.peer, TestMsg::Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: ActorId, msg: TestMsg) {
            assert_eq!(from, self.peer);
            self.log.push((ctx.now(), msg.clone()));
            match msg {
                TestMsg::Ping(k) => ctx.send(self.peer, TestMsg::Pong(k)),
                TestMsg::Pong(k) if k + 1 < self.max => ctx.send(self.peer, TestMsg::Ping(k + 1)),
                TestMsg::Pong(_) => ctx.halt(),
            }
        }
    }

    fn ping_pong_engine(delay: DelayModel) -> Engine<TestMsg> {
        let net = NetworkConfig::full_mesh(2, delay);
        let mut e = Engine::new(net, 42);
        e.add_actor(Box::new(PingPong { peer: 1, max: 5, log: vec![], initiator: true }));
        e.add_actor(Box::new(PingPong { peer: 0, max: 5, log: vec![], initiator: false }));
        e
    }

    #[test]
    fn ping_pong_completes() {
        let mut e = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        let end = e.run();
        // 5 pings + 5 pongs, each 10ms: last delivery at 100ms.
        assert_eq!(end, SimTime::from_millis(100));
        assert_eq!(e.stats().messages_sent, 10);
        assert_eq!(e.stats().messages_delivered, 10);
        assert_eq!(e.stats().bytes_sent, 40);
    }

    #[test]
    fn synchronous_delivery_is_same_instant() {
        let mut e = ping_pong_engine(DelayModel::Synchronous);
        let end = e.run();
        assert_eq!(end, SimTime::ZERO, "everything happens at t=0 under Δ=0");
        assert_eq!(e.stats().messages_delivered, 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let net = NetworkConfig::full_mesh(2, DelayModel::delta(SimDuration::from_millis(50)));
            let mut e = Engine::new(net, seed);
            e.add_actor(Box::new(PingPong { peer: 1, max: 20, log: vec![], initiator: true }));
            e.add_actor(Box::new(PingPong { peer: 0, max: 20, log: vec![], initiator: false }));
            let end = e.run();
            (end, e.stats().clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds give different delays");
    }

    #[test]
    fn loss_drops_messages() {
        let net = NetworkConfig::full_mesh(2, DelayModel::Synchronous)
            .with_loss(LossModel::Bernoulli { p: 1.0 });
        let mut e = Engine::new(net, 1);
        e.add_actor(Box::new(PingPong { peer: 1, max: 1, log: vec![], initiator: true }));
        e.add_actor(Box::new(PingPong { peer: 0, max: 1, log: vec![], initiator: false }));
        e.run();
        assert_eq!(e.stats().messages_sent, 1);
        assert_eq!(e.stats().messages_lost, 1);
        assert_eq!(e.stats().messages_delivered, 0);
    }

    #[test]
    fn end_time_stops_run() {
        let mut e = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        e.set_end_time(SimTime::from_millis(35));
        let end = e.run();
        assert_eq!(end, SimTime::from_millis(35));
        assert!(e.stats().messages_delivered < 10);
    }

    /// Broadcast actor: broadcasts once on start; all receivers log.
    struct Beacon {
        fire: bool,
        received: u32,
    }
    impl Actor<TestMsg> for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            if self.fire {
                ctx.broadcast(TestMsg::Ping(99));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, TestMsg>, _from: ActorId, _msg: TestMsg) {
            self.received += 1;
        }
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let net = NetworkConfig::full_mesh(5, DelayModel::Synchronous);
        let mut e = Engine::new(net, 3);
        e.add_actor(Box::new(Beacon { fire: true, received: 0 }));
        for _ in 1..5 {
            e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        }
        e.run();
        assert_eq!(e.stats().broadcasts, 1);
        assert_eq!(e.stats().messages_sent, 4);
        assert_eq!(e.stats().messages_delivered, 4);
    }

    #[test]
    fn topology_blocks_unconnected_sends() {
        let net = NetworkConfig {
            topology: crate::network::Topology::star(3),
            delay: DelayModel::Synchronous,
            loss: LossModel::None,
            fifo: true,
        };
        let mut e = Engine::new(net, 3);
        // Actor 1 and 2 are both leaves: 1 -> 2 has no link.
        e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        e.add_actor(Box::new(Beacon { fire: true, received: 0 }));
        e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        e.run();
        // Broadcast from 1 only reaches the hub 0.
        assert_eq!(e.stats().messages_sent, 1);
    }

    /// Timer actor: schedules a chain of timers.
    struct Ticker {
        fired: Vec<(SimTime, u64)>,
        period: SimDuration,
        remaining: u64,
    }
    impl Actor<TestMsg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, tag: u64) {
            self.fired.push((ctx.now(), tag));
            if tag + 1 < self.remaining {
                ctx.set_timer(self.period, tag + 1);
            }
        }
    }

    #[test]
    fn timers_fire_periodically() {
        let net = NetworkConfig::full_mesh(1, DelayModel::Synchronous);
        let mut e = Engine::new(net, 9);
        e.add_actor(Box::new(Ticker {
            fired: vec![],
            period: SimDuration::from_millis(100),
            remaining: 4,
        }));
        let end = e.run();
        assert_eq!(end, SimTime::from_millis(400));
        let t = e.take_actor(0);
        // Downcast via raw pointer is overkill; instead verify through time.
        drop(t);
        assert_eq!(e.events_processed(), 4);
    }

    #[test]
    fn fifo_prevents_overtaking() {
        // With a wildly variable delay and FIFO on, deliveries from one
        // sender to one receiver must be in send order.
        struct Spray {
            sent: bool,
        }
        impl Actor<TestMsg> for Spray {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                if !self.sent {
                    for k in 0..50 {
                        ctx.send(1, TestMsg::Ping(k));
                    }
                    self.sent = true;
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
        }
        // We cannot easily extract state from Box<dyn Actor>, so assert
        // ordering via a shared log.
        use std::sync::{Arc, Mutex};
        struct SharedCollector {
            got: Arc<Mutex<Vec<u32>>>,
        }
        impl Actor<TestMsg> for SharedCollector {
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, msg: TestMsg) {
                if let TestMsg::Ping(k) = msg {
                    self.got.lock().unwrap().push(k);
                }
            }
        }

        let got = Arc::new(Mutex::new(Vec::new()));
        let net = NetworkConfig::full_mesh(2, DelayModel::delta(SimDuration::from_millis(500)));
        let mut e = Engine::new(net, 11);
        e.add_actor(Box::new(Spray { sent: false }));
        e.add_actor(Box::new(SharedCollector { got: Arc::clone(&got) }));
        e.run();
        let got = got.lock().unwrap().clone();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "FIFO must preserve order");
    }

    #[test]
    fn non_fifo_allows_overtaking() {
        struct Spray;
        impl Actor<TestMsg> for Spray {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                for k in 0..200 {
                    ctx.send(1, TestMsg::Ping(k));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
        }
        use std::sync::{Arc, Mutex};
        struct SharedCollector {
            got: Arc<Mutex<Vec<u32>>>,
        }
        impl Actor<TestMsg> for SharedCollector {
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, msg: TestMsg) {
                if let TestMsg::Ping(k) = msg {
                    self.got.lock().unwrap().push(k);
                }
            }
        }
        let got = Arc::new(Mutex::new(Vec::new()));
        let net = NetworkConfig::full_mesh(2, DelayModel::delta(SimDuration::from_millis(500)))
            .with_fifo(false);
        let mut e = Engine::new(net, 11);
        e.add_actor(Box::new(Spray));
        e.add_actor(Box::new(SharedCollector { got: Arc::clone(&got) }));
        e.run();
        let got = got.lock().unwrap().clone();
        assert_eq!(got.len(), 200);
        let sorted: Vec<u32> = {
            let mut s = got.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_ne!(got, sorted, "with random delays some message should overtake");
    }

    #[test]
    fn inject_delivers_external_events() {
        use std::sync::{Arc, Mutex};
        struct SharedCollector {
            got: Arc<Mutex<Vec<(SimTime, u32)>>>,
        }
        impl Actor<TestMsg> for SharedCollector {
            fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _: ActorId, msg: TestMsg) {
                if let TestMsg::Ping(k) = msg {
                    self.got.lock().unwrap().push((ctx.now(), k));
                }
            }
        }
        let got = Arc::new(Mutex::new(Vec::new()));
        let net = NetworkConfig::full_mesh(1, DelayModel::Synchronous);
        let mut e = Engine::new(net, 0);
        e.add_actor(Box::new(SharedCollector { got: Arc::clone(&got) }));
        e.inject(SimTime::from_millis(5), 0, 0, TestMsg::Ping(1));
        e.inject(SimTime::from_millis(2), 0, 0, TestMsg::Ping(2));
        e.run();
        let got = got.lock().unwrap().clone();
        assert_eq!(*got, vec![(SimTime::from_millis(2), 2), (SimTime::from_millis(5), 1)]);
    }

    #[test]
    fn metrics_observe_the_run_without_changing_it() {
        let m = crate::metrics::Metrics::new();
        let mut instrumented = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        instrumented.set_metrics(&m);
        let end_i = instrumented.run();
        let mut plain = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        let end_p = plain.run();
        assert_eq!(end_i, end_p, "metrics must not perturb the run");
        assert_eq!(instrumented.stats().clone(), plain.stats().clone());
        let snap = m.snapshot();
        assert_eq!(snap.counter("engine.messages_delivered"), Some(10));
        assert_eq!(snap.counter("engine.events_processed"), Some(instrumented.events_processed()));
        let (in_flight_now, in_flight_high) = snap.gauge("engine.in_flight").unwrap();
        assert_eq!(in_flight_now, 0, "queue drained");
        assert!(in_flight_high >= 1, "ping-pong always has one message in flight");
        assert_eq!(snap.timer("engine.run_wall_ns").unwrap().count, 1);
    }

    #[test]
    fn metrics_count_dropped_messages() {
        let m = crate::metrics::Metrics::new();
        let net = NetworkConfig::full_mesh(2, DelayModel::Synchronous)
            .with_loss(LossModel::Bernoulli { p: 1.0 });
        let mut e = Engine::new(net, 1);
        e.set_metrics(&m);
        e.add_actor(Box::new(PingPong { peer: 1, max: 1, log: vec![], initiator: true }));
        e.add_actor(Box::new(PingPong { peer: 0, max: 1, log: vec![], initiator: false }));
        e.run();
        let snap = m.snapshot();
        assert_eq!(snap.counter("engine.messages_dropped"), Some(1));
        assert_eq!(snap.counter("engine.messages_delivered"), Some(0));
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut e = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(1)));
        e.enable_trace();
        e.run();
        assert!(e.trace().len() >= 20, "sent + delivered for each message");
        let sent = e.trace().count_matching(|k| matches!(k, TraceKind::Sent { .. }));
        let delivered = e.trace().count_matching(|k| matches!(k, TraceKind::Delivered { .. }));
        assert_eq!(sent, 10);
        assert_eq!(delivered, 10);
    }

    // ---- fault plane -----------------------------------------------------

    use crate::fault::{ChannelFaultRule, ClockFaultKind, FaultSpec};

    impl TestMsg {
        fn value(&self) -> u32 {
            match self {
                TestMsg::Ping(k) | TestMsg::Pong(k) => *k,
            }
        }
    }

    /// Sends `count` pings to `to` after 5 ms (past any t=0 fault ops).
    struct DelayedSpray {
        to: ActorId,
        count: u32,
    }
    impl Actor<TestMsg> for DelayedSpray {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_millis(5), 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, _tag: u64) {
            for k in 0..self.count {
                ctx.send(self.to, TestMsg::Ping(k));
            }
        }
    }

    use std::sync::{Arc, Mutex};
    type Shared<T> = Arc<Mutex<Vec<T>>>;
    struct Collector {
        got: Shared<(SimTime, u32)>,
        faults: Shared<FaultEvent>,
    }
    impl Collector {
        fn pair() -> (Self, Shared<(SimTime, u32)>, Shared<FaultEvent>) {
            let got = Arc::new(Mutex::new(Vec::new()));
            let faults = Arc::new(Mutex::new(Vec::new()));
            (Collector { got: Arc::clone(&got), faults: Arc::clone(&faults) }, got, faults)
        }
    }
    impl Actor<TestMsg> for Collector {
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _: ActorId, msg: TestMsg) {
            self.got.lock().unwrap().push((ctx.now(), msg.value()));
        }
        fn on_fault(&mut self, _ctx: &mut Context<'_, TestMsg>, event: &FaultEvent) {
            self.faults.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn crash_drops_deliveries_and_suppresses_timers() {
        // Ping at t=0 delivers at 10 ms, but actor 1 crashes at 5 ms.
        let net = NetworkConfig::full_mesh(2, DelayModel::Fixed(SimDuration::from_millis(10)));
        let mut e = Engine::new(net, 42);
        e.add_actor(Box::new(PingPong { peer: 1, max: 5, log: vec![], initiator: true }));
        e.add_actor(Box::new(PingPong { peer: 0, max: 5, log: vec![], initiator: false }));
        let script = FaultScript::new()
            .with(SimTime::from_millis(5), FaultSpec::Crash { actor: 1, recover_after: None });
        e.install_faults(&script);
        e.run();
        assert_eq!(e.stats().messages_delivered, 0);
        assert_eq!(e.stats().messages_lost, 1);
        assert_eq!(e.stats().messages_faulted, 1);
        let fs = e.fault_stats().unwrap();
        assert_eq!(fs.crashes, 1);
        assert_eq!(fs.recoveries, 0);
        assert_eq!(fs.dropped_at_down, 1);

        // A crashed Ticker's pending timer is swallowed, ending the chain.
        let net = NetworkConfig::full_mesh(1, DelayModel::Synchronous);
        let mut e = Engine::new(net, 42);
        e.add_actor(Box::new(Ticker {
            fired: vec![],
            period: SimDuration::from_millis(100),
            remaining: 4,
        }));
        let script = FaultScript::new()
            .with(SimTime::from_millis(150), FaultSpec::Crash { actor: 0, recover_after: None });
        e.install_faults(&script);
        let end = e.run();
        assert_eq!(end, SimTime::from_millis(200), "timer 2 is swallowed at 200 ms");
        assert_eq!(e.fault_stats().unwrap().timers_suppressed, 1);
    }

    #[test]
    fn recover_dispatches_on_fault() {
        let (collector, _got, faults) = Collector::pair();
        let net = NetworkConfig::full_mesh(2, DelayModel::Synchronous);
        let mut e = Engine::new(net, 7);
        e.add_actor(Box::new(collector));
        e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        let script = FaultScript::new()
            .with(
                SimTime::from_millis(10),
                FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_millis(20)) },
            )
            .with(
                SimTime::from_millis(50),
                FaultSpec::Clock { actor: 0, kind: ClockFaultKind::Reset },
            );
        e.install_faults(&script);
        e.run();
        let faults = faults.lock().unwrap().clone();
        assert_eq!(faults, vec![FaultEvent::Recover, FaultEvent::Clock(ClockFaultKind::Reset)]);
        let fs = e.fault_stats().unwrap();
        assert_eq!((fs.crashes, fs.recoveries, fs.clock_faults), (1, 1, 1));
    }

    #[test]
    fn partition_cut_drops_in_flight_and_blocks_sends() {
        // Pings sent at 5 ms (in flight until 50 ms) plus more at 20 ms;
        // a Drop-policy cut at 10 ms isolates the receiver for 1 s.
        struct TwoWaves {
            to: ActorId,
        }
        impl Actor<TestMsg> for TwoWaves {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                ctx.set_timer(SimDuration::from_millis(5), 0);
                ctx.set_timer(SimDuration::from_millis(20), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, tag: u64) {
                for k in 0..3 {
                    ctx.send(self.to, TestMsg::Ping(tag as u32 * 10 + k));
                }
            }
        }
        let (collector, got, _faults) = Collector::pair();
        let net = NetworkConfig::full_mesh(2, DelayModel::Fixed(SimDuration::from_millis(45)));
        let mut e = Engine::new(net, 3);
        e.add_actor(Box::new(TwoWaves { to: 1 }));
        e.add_actor(Box::new(collector));
        let script = FaultScript::new().with(
            SimTime::from_millis(10),
            FaultSpec::Partition {
                group: vec![1],
                heal_after: SimDuration::from_secs(1),
                policy: CutPolicy::Drop,
            },
        );
        e.install_faults(&script);
        e.run();
        assert!(got.lock().unwrap().is_empty(), "no wave crosses the cut");
        let fs = e.fault_stats().unwrap();
        assert_eq!(fs.dropped_in_flight, 3, "wave 0 was in flight at cut time");
        assert_eq!(fs.dropped_by_partition, 3, "wave 1 was blocked at transmit");
        assert_eq!((fs.cuts, fs.heals), (1, 1));
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn partition_park_releases_messages_at_heal() {
        let (collector, got, _faults) = Collector::pair();
        let net = NetworkConfig::full_mesh(2, DelayModel::Fixed(SimDuration::from_millis(45)));
        let mut e = Engine::new(net, 3);
        e.add_actor(Box::new(DelayedSpray { to: 1, count: 4 }));
        e.add_actor(Box::new(collector));
        // Cut at 10 ms (wave in flight since 5 ms), heal at 110 ms.
        let script = FaultScript::new().with(
            SimTime::from_millis(10),
            FaultSpec::Partition {
                group: vec![1],
                heal_after: SimDuration::from_millis(100),
                policy: CutPolicy::Park,
            },
        );
        e.install_faults(&script);
        e.run();
        let got = got.lock().unwrap().clone();
        assert_eq!(got.len(), 4, "parked messages are delivered after heal");
        assert!(got.iter().all(|&(at, _)| at == SimTime::from_millis(110)));
        assert_eq!(got.iter().map(|&(_, k)| k).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let fs = e.fault_stats().unwrap();
        assert_eq!((fs.parked, fs.unparked, fs.parked_leftover), (4, 4, 0));
        assert_eq!(e.stats().messages_delivered, 4);
        assert_eq!(e.stats().messages_lost, 0);
    }

    #[test]
    fn channel_rules_duplicate_and_drop() {
        let run = |effect: ChannelEffect| {
            let (collector, got, _faults) = Collector::pair();
            let net = NetworkConfig::full_mesh(2, DelayModel::Synchronous);
            let mut e = Engine::new(net, 5);
            e.add_actor(Box::new(DelayedSpray { to: 1, count: 10 }));
            e.add_actor(Box::new(collector));
            let script = FaultScript::new().with(
                SimTime::ZERO,
                FaultSpec::Channel(ChannelFaultRule {
                    from: Some(0),
                    to: None,
                    prob: 1.0,
                    effect,
                    duration: None,
                }),
            );
            e.install_faults(&script);
            e.run();
            let n = got.lock().unwrap().len();
            (n, e.stats().clone(), e.fault_stats().unwrap())
        };
        let (n, stats, fs) = run(ChannelEffect::Duplicate);
        assert_eq!(n, 20, "every message is delivered twice");
        assert_eq!(stats.messages_sent, 20);
        assert_eq!(stats.messages_duplicated, 10);
        assert_eq!(fs.duplicated, 10);
        let (n, stats, fs) = run(ChannelEffect::Drop);
        assert_eq!(n, 0);
        assert_eq!(stats.messages_lost, 10);
        assert_eq!(stats.messages_faulted, 10);
        assert_eq!(fs.dropped_by_channel, 10);
    }

    #[test]
    fn reorder_rule_lets_messages_overtake() {
        let (collector, got, _faults) = Collector::pair();
        let net = NetworkConfig::full_mesh(2, DelayModel::Fixed(SimDuration::from_millis(10)));
        let mut e = Engine::new(net, 17);
        e.add_actor(Box::new(DelayedSpray { to: 1, count: 20 }));
        e.add_actor(Box::new(collector));
        let script = FaultScript::new().with(
            SimTime::ZERO,
            FaultSpec::Channel(ChannelFaultRule {
                from: Some(0),
                to: Some(1),
                prob: 0.5,
                effect: ChannelEffect::Reorder { extra: SimDuration::from_millis(100) },
                duration: None,
            }),
        );
        e.install_faults(&script);
        e.run();
        let got: Vec<u32> = got.lock().unwrap().iter().map(|&(_, k)| k).collect();
        assert_eq!(got.len(), 20, "reordering never loses messages");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "delayed messages are overtaken despite FIFO");
        let fs = e.fault_stats().unwrap();
        assert!(fs.reordered > 0 && fs.reordered < 20);
    }

    #[test]
    fn empty_script_is_bit_identical_to_no_plane() {
        let run = |install: bool| {
            let mut e = ping_pong_engine(DelayModel::delta(SimDuration::from_millis(25)));
            e.enable_trace();
            if install {
                e.install_faults(&FaultScript::new());
            }
            let end = e.run();
            (end, e.stats().clone(), crate::trace_export::jsonl(e.trace()))
        };
        let (end_plain, stats_plain, trace_plain) = run(false);
        let (end_fault, stats_fault, trace_fault) = run(true);
        assert_eq!(end_plain, end_fault);
        assert_eq!(stats_plain, stats_fault);
        assert_eq!(trace_plain, trace_fault, "empty plane must be observationally silent");
    }

    // ---- sharded execution -----------------------------------------------

    /// A gossip workload with plenty of cross-actor traffic and per-actor
    /// randomness: every actor ticks `rounds` times, sending two pings per
    /// tick; receivers pong back with probability 1/2 drawn from their
    /// private stream. Exercises timers, sends, RNG draws, and FIFO.
    struct Gossip {
        rounds: u64,
        period: SimDuration,
        /// Actors in the engine, gossip targets included.
        n: usize,
    }
    impl Actor<TestMsg> for Gossip {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, from: ActorId, msg: TestMsg) {
            if let TestMsg::Ping(k) = msg {
                if k > 0 && ctx.rng().bernoulli(0.5) {
                    ctx.send(from, TestMsg::Pong(k - 1));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, tag: u64) {
            let n = self.n;
            let a = (ctx.id() + 1 + tag as usize) % n;
            let b = (ctx.id() + 5) % n;
            ctx.send(a, TestMsg::Ping(tag as u32 + 1));
            ctx.send(b, TestMsg::Ping(tag as u32 + 2));
            if tag + 1 < self.rounds {
                ctx.set_timer(self.period, tag + 1);
            }
        }
    }

    fn gossip_engine(n: usize, delay: DelayModel, seed: u64) -> Engine<TestMsg> {
        let net = NetworkConfig::full_mesh(n, delay);
        let mut e = Engine::new(net, seed);
        for _ in 0..n {
            e.add_actor(Box::new(Gossip { rounds: 12, period: SimDuration::from_millis(10), n }));
        }
        e
    }

    /// Everything observable about a finished run, for exact comparison.
    fn fingerprint(e: &Engine<TestMsg>) -> (SimTime, NetStats, u64, Option<FaultStats>, String) {
        (
            e.now(),
            e.stats(),
            e.events_processed(),
            e.fault_stats(),
            crate::trace_export::jsonl(e.trace()),
        )
    }

    /// Sharding delay: min 2 ms gives the engine a real lookahead window.
    fn shardable_delay() -> DelayModel {
        DelayModel::DeltaBounded {
            min: SimDuration::from_millis(2),
            max: SimDuration::from_millis(20),
        }
    }

    /// The contiguous partition clamps its shard count to `[1, n]` and
    /// runs one lane per block of `ceil(n / shards)` actors; the lanes show
    /// as the shard slots of an attached telemetry registry.
    #[test]
    fn contiguous_partition_clamps_to_the_actor_count() {
        for (n, shards, lanes) in [(10, 4, 4), (10, 6, 5), (3, 16, 3)] {
            let tel = Telemetry::new();
            let mut e = gossip_engine(n, shardable_delay(), 99);
            e.set_telemetry(&tel);
            e.set_shards(shards);
            e.run();
            assert_eq!(tel.snapshot().shards.len(), lanes, "n={n} shards={shards}");
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        let mut seq = gossip_engine(12, shardable_delay(), 99);
        seq.enable_trace();
        seq.run();
        let want = fingerprint(&seq);
        assert!(seq.stats().messages_delivered > 50, "workload is non-trivial");

        for shards in [2, 4, 7] {
            let mut par = gossip_engine(12, shardable_delay(), 99);
            par.enable_trace();
            par.set_shards(shards);
            par.run();
            assert_eq!(fingerprint(&par), want, "shards={shards} must replay bit-identically");
        }
    }

    /// Sends `count` pings to `to` each time the fault plane recovers it.
    struct BurstOnRecover {
        to: ActorId,
        count: u32,
    }
    impl Actor<TestMsg> for BurstOnRecover {
        fn on_message(&mut self, _: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {}
        fn on_fault(&mut self, ctx: &mut Context<'_, TestMsg>, _event: &FaultEvent) {
            for k in 0..self.count {
                ctx.send(self.to, TestMsg::Ping(k));
            }
        }
    }

    /// Echoes every message to `to`, and each of `ticks` ticks of a
    /// `period` timer: the ids of its sends follow the order in which its
    /// lane handles messages and ticks.
    struct EchoTicker {
        to: ActorId,
        period: SimDuration,
        ticks: u64,
    }
    impl Actor<TestMsg> for EchoTicker {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _: ActorId, msg: TestMsg) {
            ctx.send(self.to, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, tag: u64) {
            ctx.send(self.to, TestMsg::Ping(tag as u32));
            if tag + 1 < self.ticks {
                ctx.set_timer(self.period, tag + 1);
            }
        }
    }

    #[test]
    fn op_barrier_burst_crosses_shards_bit_identically() {
        // A recovery handler runs on the coordinator at an op barrier while
        // every worker is idle; its whole burst lands in another shard's
        // inbox, which the coordinator must drain before the next stop.
        // A fixed 2 ms delay puts the burst at 12 ms, and the receiver ticks
        // every 1.75 ms: the next window opens at the 10.5 ms tick, after
        // the op, and holds both the burst and the 12.25 ms tick. Left in
        // the inbox, the burst would be handled after the tick.
        let burst = 3_072;
        let script = FaultScript::new().with(
            SimTime::from_millis(5),
            FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_millis(5)) },
        );
        let run = |shards: usize| {
            let net = NetworkConfig::full_mesh(4, DelayModel::Fixed(SimDuration::from_millis(2)));
            let mut e = Engine::new(net, 17);
            e.add_actor(Box::new(BurstOnRecover { to: 3, count: burst }));
            e.add_actor(Box::new(Beacon { fire: true, received: 0 }));
            e.add_actor(Box::new(Collector::pair().0));
            e.add_actor(Box::new(EchoTicker {
                to: 2,
                period: SimDuration::from_micros(1_750),
                ticks: 40,
            }));
            e.enable_trace();
            e.install_faults(&script);
            e.set_shards(shards);
            e.run();
            fingerprint(&e)
        };
        let want = run(1);
        assert!(want.1.messages_delivered >= burst as u64, "the burst is delivered");
        // Contiguous shards keep actor 0 and actor 3 apart, so the burst
        // crosses.
        for shards in [2, 4] {
            assert_eq!(run(shards), want, "shards={shards} must replay bit-identically");
        }
    }

    #[test]
    fn sharded_metrics_match_sequential() {
        let seq_metrics = Metrics::new();
        let mut seq = gossip_engine(12, shardable_delay(), 99);
        seq.set_metrics(&seq_metrics);
        seq.run();
        let want = seq_metrics.snapshot();

        let m = Metrics::new();
        let mut par = gossip_engine(12, shardable_delay(), 99);
        par.set_metrics(&m);
        par.set_shards(4);
        par.run();
        let got = m.snapshot();
        for name in
            ["engine.events_processed", "engine.messages_delivered", "engine.messages_dropped"]
        {
            assert_eq!(got.counter(name), want.counter(name), "{name}");
        }
        // No fault script installed, so no op sub-barriers: the windows
        // counter measures lookahead windows alone.
        assert!(got.counter("engine.windows").unwrap() > 0);
        assert_eq!(got.counter("engine.op_barriers"), Some(0));
    }

    #[test]
    fn op_barriers_counted_separately_from_windows() {
        let script = FaultScript::new()
            .with(
                SimTime::from_millis(25),
                FaultSpec::Crash { actor: 3, recover_after: Some(SimDuration::from_millis(30)) },
            )
            .with(
                SimTime::from_millis(40),
                FaultSpec::Partition {
                    group: vec![1, 2],
                    heal_after: SimDuration::from_millis(50),
                    policy: CutPolicy::Park,
                },
            );
        let m = Metrics::new();
        let mut e = gossip_engine(12, shardable_delay(), 4242);
        e.set_metrics(&m);
        e.install_faults(&script);
        e.set_shards(4);
        e.run();
        let snap = m.snapshot();
        // Two scripted faults with timed recoveries expand to four
        // time-sorted plane ops, each a coordinator sub-barrier — and none
        // of them count as lookahead windows any more.
        assert_eq!(snap.counter("engine.op_barriers"), Some(4));
        assert!(snap.counter("engine.windows").unwrap() > 4);
    }

    #[test]
    fn sharded_run_with_faults_matches_sequential() {
        let script = FaultScript::new()
            .with(
                SimTime::ZERO,
                FaultSpec::Channel(ChannelFaultRule {
                    from: None,
                    to: None,
                    prob: 0.2,
                    effect: ChannelEffect::Duplicate,
                    duration: Some(SimDuration::from_millis(80)),
                }),
            )
            .with(
                SimTime::from_millis(25),
                FaultSpec::Crash { actor: 3, recover_after: Some(SimDuration::from_millis(30)) },
            )
            .with(
                SimTime::from_millis(40),
                FaultSpec::Partition {
                    group: vec![1, 2],
                    heal_after: SimDuration::from_millis(50),
                    policy: CutPolicy::Park,
                },
            )
            .with(
                SimTime::from_millis(60),
                FaultSpec::Clock { actor: 5, kind: ClockFaultKind::Reset },
            );
        let run = |shards: usize| {
            let mut e = gossip_engine(12, shardable_delay(), 4242);
            e.enable_trace();
            e.install_faults(&script);
            e.set_shards(shards);
            e.run();
            fingerprint(&e)
        };
        let want = run(1);
        let fs = want.3.clone().unwrap();
        assert!(fs.crashes == 1 && fs.parked > 0, "script actually bites: {fs:?}");
        for shards in [2, 4, 7] {
            assert_eq!(run(shards), want, "shards={shards} under faults must be bit-identical");
        }
    }

    #[test]
    fn zero_lookahead_falls_back_to_sequential() {
        // delta() has min_bound 0, so four requested shards keep one lane
        // and still produce the exact sequential result.
        let mut seq = gossip_engine(8, DelayModel::delta(SimDuration::from_millis(20)), 5);
        seq.enable_trace();
        seq.run();
        let tel = Telemetry::new();
        let mut par = gossip_engine(8, DelayModel::delta(SimDuration::from_millis(20)), 5);
        par.enable_trace();
        par.set_telemetry(&tel);
        par.set_shards(4);
        par.run();
        assert_eq!(fingerprint(&par), fingerprint(&seq));
        assert_eq!(tel.snapshot().shards.len(), 1, "one lane");
    }

    #[test]
    fn sharded_respects_end_time() {
        let mut seq = gossip_engine(10, shardable_delay(), 31);
        seq.enable_trace();
        seq.set_end_time(SimTime::from_millis(55));
        seq.run();
        let mut par = gossip_engine(10, shardable_delay(), 31);
        par.enable_trace();
        par.set_end_time(SimTime::from_millis(55));
        par.set_shards(3);
        par.run();
        assert_eq!(fingerprint(&par), fingerprint(&seq));
        assert_eq!(par.now(), SimTime::from_millis(55));
    }

    #[test]
    fn sharded_delivers_injected_events() {
        let mut seq = gossip_engine(6, shardable_delay(), 8);
        seq.enable_trace();
        seq.inject(SimTime::from_millis(3), 4, 0, TestMsg::Ping(7));
        seq.inject(SimTime::from_millis(1), 1, 0, TestMsg::Ping(9));
        seq.run();
        let mut par = gossip_engine(6, shardable_delay(), 8);
        par.enable_trace();
        par.inject(SimTime::from_millis(3), 4, 0, TestMsg::Ping(7));
        par.inject(SimTime::from_millis(1), 1, 0, TestMsg::Ping(9));
        par.set_shards(3);
        par.run();
        assert_eq!(fingerprint(&par), fingerprint(&seq));
    }

    #[test]
    fn sparse_fifo_matches_dense() {
        // Force the sparse channel store and check FIFO clamping behaves
        // identically to the dense matrix on the same workload.
        let run = |dense_limit: usize| {
            let mut e = gossip_engine(12, shardable_delay(), 123);
            e.set_fifo_dense_limit(dense_limit);
            e.enable_trace();
            e.run();
            fingerprint(&e)
        };
        let dense = run(DENSE_ACTOR_LIMIT);
        let sparse = run(0);
        assert_eq!(sparse, dense, "sparse FIFO store must be observationally identical");
    }

    #[test]
    fn sharded_sparse_fifo_matches_sequential_dense() {
        let mut seq = gossip_engine(12, shardable_delay(), 321);
        seq.enable_trace();
        seq.run();
        let mut par = gossip_engine(12, shardable_delay(), 321);
        par.set_fifo_dense_limit(0);
        par.enable_trace();
        par.set_shards(4);
        par.run();
        assert_eq!(fingerprint(&par), fingerprint(&seq));
    }

    /// Everything observable except the final clock (a stepped engine ends
    /// at its watermark, a drained run at its last event).
    fn stepped_fingerprint(e: &Engine<TestMsg>) -> (NetStats, u64, Option<FaultStats>, String) {
        let f = fingerprint(e);
        (f.1, f.2, f.3, f.4)
    }

    /// Step `e` past `end` in uneven pieces, adding a step to each of
    /// `marks` (event or fault-op instants) and a zero-length repeat of the
    /// first, then finish. Returns the last bound.
    fn step_unevenly(e: &mut Engine<TestMsg>, end: SimTime, marks: &[SimTime]) -> SimTime {
        let pieces = [7_000, 1_300, 13_000, 500, 4_300].map(SimDuration::from_micros);
        let mut bounds: Vec<SimTime> = marks.iter().chain(marks.first()).copied().collect();
        let mut t = SimTime::ZERO;
        for piece in pieces.iter().cycle() {
            if t >= end {
                break;
            }
            t = t.saturating_add(*piece);
            bounds.push(t);
        }
        bounds.sort();
        for b in bounds {
            assert_eq!(e.step_until(b), Ok(b), "an unhalted engine parks at its bound");
        }
        e.finish();
        t
    }

    #[test]
    fn step_until_matches_run() {
        let mut whole = gossip_engine(9, shardable_delay(), 77);
        whole.enable_trace();
        whole.run();
        // Every actor's timer fires at each multiple of 10 ms.
        let ticks = [10, 20, 50].map(SimTime::from_millis);
        for shards in [1, 2, 4] {
            let mut stepped = gossip_engine(9, shardable_delay(), 77);
            stepped.enable_trace();
            stepped.set_shards(shards);
            let last = step_unevenly(&mut stepped, SimTime::from_secs(2), &ticks);
            let want = stepped_fingerprint(&whole);
            assert_eq!(stepped_fingerprint(&stepped), want, "shards={shards}");
            assert_eq!(stepped.now(), last, "a stepped engine parks at its watermark");
        }
    }

    /// A run that ends at its end time and then resumes with a later one
    /// equals one uninterrupted run: the lanes (and their FIFO clamps)
    /// persist, and the resumed records seal after the first run's.
    #[test]
    fn resumed_run_matches_one_shot() {
        for fifo in [true, false] {
            let build = |shards: usize| {
                let mut e = gossip_engine(10, shardable_delay(), 31);
                e.network_mut().fifo = fifo;
                e.enable_trace();
                e.set_shards(shards);
                e
            };
            let mut whole = build(1);
            whole.set_end_time(SimTime::from_millis(200));
            whole.run();
            for shards in [1, 2, 4] {
                let mut resumed = build(shards);
                resumed.set_end_time(SimTime::from_millis(55));
                assert_eq!(resumed.run(), SimTime::from_millis(55));
                resumed.set_end_time(SimTime::from_millis(200));
                resumed.run();
                assert_eq!(
                    fingerprint(&resumed),
                    fingerprint(&whole),
                    "fifo={fifo} shards={shards}"
                );
            }
        }
    }

    /// Halts the run on the first message it receives at or after `at`.
    struct HaltAfter {
        at: SimTime,
    }
    impl Actor<TestMsg> for HaltAfter {
        fn on_message(&mut self, ctx: &mut Context<'_, TestMsg>, _: ActorId, _: TestMsg) {
            if ctx.now() >= self.at {
                ctx.halt();
            }
        }
    }

    /// Ten gossiping actors plus a [`HaltAfter`] at id 10, traced.
    fn feed_engine(halt_at: SimTime) -> Engine<TestMsg> {
        let mut e = Engine::new(NetworkConfig::full_mesh(11, shardable_delay()), 2024);
        for _ in 0..10 {
            e.add_actor(Box::new(Gossip {
                rounds: 12,
                period: SimDuration::from_millis(10),
                n: 11,
            }));
        }
        e.add_actor(Box::new(HaltAfter { at: halt_at }));
        e.enable_trace();
        e
    }

    /// 240 events, two per millisecond over [0, 120) ms, to every actor.
    /// Sources differ from destinations, so a partition cuts some of them.
    fn feed_timeline() -> Vec<ExternalEvent<TestMsg>> {
        (0..240usize)
            .map(|i| ExternalEvent {
                at: SimTime::from_millis(i as u64 / 2),
                to: i * 7 % 11,
                from: (i * 3 + 1) % 11,
                msg: TestMsg::Ping(i as u32 % 4),
            })
            .collect()
    }

    /// Run `timeline` on `build()` at `shards`, fed or injected up front.
    fn run_timeline(
        build: &dyn Fn() -> Engine<TestMsg>,
        timeline: &[ExternalEvent<TestMsg>],
        shards: usize,
        fed: bool,
    ) -> Engine<TestMsg> {
        let mut e = build();
        if fed {
            e.feed(timeline.to_vec());
        } else {
            for ev in timeline {
                e.inject(ev.at, ev.to, ev.from, ev.msg.clone());
            }
        }
        e.set_shards(shards);
        e.run();
        e
    }

    #[test]
    fn fed_timeline_matches_injected_up_front() {
        let ms = SimTime::from_millis;
        let faults = FaultScript::new()
            .with(
                ms(25),
                FaultSpec::Crash { actor: 3, recover_after: Some(SimDuration::from_millis(30)) },
            )
            .with(
                ms(40),
                FaultSpec::Partition {
                    group: vec![1, 2],
                    heal_after: SimDuration::from_millis(50),
                    policy: CutPolicy::Park,
                },
            )
            .with(
                ms(70),
                FaultSpec::Partition {
                    group: vec![4, 5, 6],
                    heal_after: SimDuration::from_millis(20),
                    policy: CutPolicy::Drop,
                },
            )
            .with(ms(60), FaultSpec::Clock { actor: 5, kind: ClockFaultKind::Reset });
        let crash = FaultScript::new().with(
            ms(30),
            FaultSpec::Crash { actor: 7, recover_after: Some(SimDuration::from_millis(40)) },
        );
        // (name, end time, fault script, halt time)
        let cases = [
            ("end time mid-timeline", Some(ms(55)), None, SimTime::MAX),
            ("ops on fed instants", None, Some(&faults), SimTime::MAX),
            ("crash drops fed deliveries", None, Some(&crash), SimTime::MAX),
            ("halting actor", None, None, ms(50)),
        ];
        let timeline = feed_timeline();
        for (name, end, script, halt_at) in cases {
            let build = || {
                let mut e = feed_engine(halt_at);
                if let Some(end) = end {
                    e.set_end_time(end);
                }
                if let Some(script) = script {
                    e.install_faults(script);
                }
                e
            };
            let seq = run_timeline(&build, &timeline, 1, false);
            for shards in [1, 2, 4] {
                let fed = run_timeline(&build, &timeline, shards, true);
                let injected = run_timeline(&build, &timeline, shards, false);
                let view = |e: &Engine<TestMsg>| (fingerprint(e), e.in_flight());
                assert_eq!(view(&fed), view(&injected), "{name}, shards={shards}");
                // A sharded run halts at the end of the window that saw the
                // halt; everything else replays the sequential run.
                if halt_at == SimTime::MAX {
                    assert_eq!(view(&fed), view(&seq), "{name}, shards={shards} vs sequential");
                }
            }
            // Each case bites.
            match name {
                "end time mid-timeline" | "halting actor" => {
                    assert!(seq.in_flight() > 0, "{name}: fed events left unreached")
                }
                "ops on fed instants" => {
                    let fs = seq.fault_stats().unwrap();
                    assert!(fs.parked > 0 && fs.dropped_in_flight > 0, "{name}: {fs:?}");
                }
                _ => {
                    let lost_fed = seq.trace().records().iter().any(|r| {
                        matches!(r.kind, TraceKind::Lost { to: 7, msg: MsgId(id), .. } if id < 1 << 40)
                    });
                    assert!(lost_fed, "{name}: a fed delivery hit the down node");
                }
            }
            assert_eq!(seq.is_halted(), halt_at != SimTime::MAX, "{name}");
        }
    }

    /// The feed numbers events in list order and stable-sorts them by
    /// time, so a list out of time order, or fed in two parts, replays like
    /// injecting it up front — when run or stepped, at any shard count.
    #[test]
    fn fed_timeline_out_of_time_order_matches_injected() {
        let ev = |ms: u64, to: ActorId, k: u32| ExternalEvent {
            at: SimTime::from_millis(ms),
            to,
            from: (to + 4) % 11,
            msg: TestMsg::Ping(k),
        };
        let mut reversed = feed_timeline();
        reversed.reverse();
        let lists = [
            vec![ev(10, 1, 0), ev(20, 2, 1), ev(15, 1, 2)],
            vec![ev(15, 3, 0), ev(10, 3, 1), ev(15, 3, 2), ev(5, 6, 3), ev(10, 3, 0)],
            reversed,
        ];
        let build = || feed_engine(SimTime::MAX);
        for (i, list) in lists.iter().enumerate() {
            let want = run_timeline(&build, list, 1, false);
            for shards in [1, 2] {
                let fed = run_timeline(&build, list, shards, true);
                assert_eq!(fingerprint(&fed), fingerprint(&want), "list {i}, shards={shards}");
            }
            let (head, tail) = list.split_at(list.len() / 2);
            let mut halves = build();
            halves.feed(head.to_vec());
            halves.feed(tail.to_vec());
            halves.run();
            assert_eq!(fingerprint(&halves), fingerprint(&want), "list {i} fed in two parts");
            for shards in [1, 2, 4] {
                let mut stepped = build();
                stepped.set_shards(shards);
                stepped.feed(list.clone());
                let fed_at: Vec<SimTime> = list.iter().map(|e| e.at).collect();
                step_unevenly(&mut stepped, SimTime::from_secs(1), &fed_at);
                let want = stepped_fingerprint(&want);
                assert_eq!(
                    stepped_fingerprint(&stepped),
                    want,
                    "list {i} stepped, shards={shards}"
                );
            }
        }
    }

    #[test]
    fn step_until_with_faults_matches_run() {
        let script = FaultScript::new()
            .with(
                SimTime::from_millis(15),
                FaultSpec::Crash { actor: 2, recover_after: Some(SimDuration::from_millis(25)) },
            )
            .with(
                SimTime::from_millis(40),
                FaultSpec::Partition {
                    group: vec![0, 1],
                    heal_after: SimDuration::from_millis(30),
                    policy: CutPolicy::Park,
                },
            );
        let mut whole = gossip_engine(8, shardable_delay(), 55);
        whole.enable_trace();
        whole.install_faults(&script);
        whole.run();
        assert_eq!(whole.fault_stats().unwrap().crashes, 1, "script bites");

        // The ops fire at 15 (crash), 40 (recover, cut) and 70 ms (heal).
        let ops = [15, 40, 70].map(SimTime::from_millis);
        for shards in [1, 2, 4] {
            let mut stepped = gossip_engine(8, shardable_delay(), 55);
            stepped.enable_trace();
            stepped.install_faults(&script);
            stepped.set_shards(shards);
            step_unevenly(&mut stepped, SimTime::from_secs(2), &ops);
            let want = stepped_fingerprint(&whole);
            assert_eq!(stepped_fingerprint(&stepped), want, "shards={shards}");
        }
    }

    #[test]
    fn step_until_dispatches_starts_once() {
        for shards in [1, 2, 4] {
            let net = NetworkConfig::full_mesh(3, shardable_delay());
            let mut e = Engine::new(net, 5);
            e.add_actor(Box::new(Beacon { fire: true, received: 0 }));
            e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
            e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
            e.set_shards(shards);
            e.step_until(SimTime::from_millis(1)).unwrap();
            e.step_until(SimTime::from_millis(2)).unwrap();
            e.run();
            assert_eq!(e.stats().broadcasts, 1, "on_start must not re-fire per step");
            assert_eq!(e.stats().messages_delivered, 2, "shards={shards}");
        }
    }

    #[test]
    fn step_until_rejects_time_regression() {
        let mut e = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        e.step_until(SimTime::from_millis(50)).unwrap();
        let err = e.step_until(SimTime::from_millis(20)).unwrap_err();
        assert!(matches!(err, EngineError::TimeRegression { .. }));
        // The engine survives and keeps stepping forward.
        assert_eq!(e.step_until(SimTime::from_millis(60)).unwrap(), SimTime::from_millis(60));
    }

    #[test]
    fn try_inject_validates_the_boundary() {
        let mut e = ping_pong_engine(DelayModel::Fixed(SimDuration::from_millis(10)));
        let err = e.try_inject(SimTime::ZERO, 9, 0, TestMsg::Ping(0)).unwrap_err();
        assert_eq!(err, EngineError::UnknownActor { id: 9, actors: 2 });
        let err = e.try_inject(SimTime::ZERO, 0, 7, TestMsg::Ping(0)).unwrap_err();
        assert_eq!(err, EngineError::UnknownActor { id: 7, actors: 2 });
        e.step_until(SimTime::from_millis(5)).unwrap();
        let err = e.try_inject(SimTime::from_millis(2), 0, 0, TestMsg::Ping(0)).unwrap_err();
        assert!(matches!(err, EngineError::TimeRegression { .. }));
        // At or past the watermark is fine.
        e.try_inject(SimTime::from_millis(5), 0, 0, TestMsg::Ping(0)).unwrap();
        e.try_inject(SimTime::from_millis(9), 0, 0, TestMsg::Ping(1)).unwrap();
    }

    #[test]
    fn try_take_actor_gives_typed_errors() {
        let mut e = ping_pong_engine(DelayModel::Synchronous);
        e.run();
        let err = e.try_take_actor(5).err().expect("out of range");
        assert_eq!(err, EngineError::UnknownActor { id: 5, actors: 2 });
        assert!(e.try_take_actor(0).is_ok());
        let err = e.try_take_actor(0).err().expect("already taken");
        assert_eq!(err, EngineError::ActorTaken { id: 0 });
    }

    #[test]
    fn engine_error_displays() {
        let e = EngineError::TimeRegression { at: SimTime::ZERO, now: SimTime::from_millis(1) };
        assert!(!e.to_string().is_empty());
        assert!(!EngineError::InjectIdsExhausted.to_string().is_empty());
    }
}
