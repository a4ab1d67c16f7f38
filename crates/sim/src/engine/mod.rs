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
//!   [`crate::queue::event_key`]), so simultaneous events fire in an order
//!   that does not depend on the order they were scheduled in. This is what
//!   lets [`Engine::run_sharded`] replay a run bit-identically in parallel.
//! - Randomness is per-entity: each actor has a private stream, and the
//!   network/fault planes draw from **per-sender** labeled streams
//!   (`"engine.network.<id>"` / `"engine.faults.<id>"`), so one actor's
//!   draw sequence is a function of its own history only — independent of
//!   how actors are interleaved across shards.
//!
//! # Sharded execution
//!
//! [`Engine::run_sharded`] partitions actors into contiguous blocks, one
//! per shard, and advances all shards concurrently through half-open time
//! windows `[t, t + L)`, where the lookahead `L` is the network's minimum
//! channel delay ([`crate::delay::DelayModel::min_bound`]). A message sent at
//! `u ∈ [t, t+L)` arrives no earlier than `u + L ≥ t + L`, i.e. strictly
//! after the window — so shards cannot causally interact *within* a window
//! and may process their local events in parallel. Cross-shard messages are
//! routed into the destination shard's heap at the window barrier; because
//! heap order is total on `(time, canonical key)`, the arrival order is
//! immaterial. Fault-plane operations are coordinator sub-barriers: the
//! window is clipped at the next op time, the op applies under a write
//! lock, and windows resume. With `L = 0` (synchronous or `delta(Δ)`
//! delays) or one shard the engine falls back to the sequential loop.

use crate::fault::{CutPolicy, FaultEvent, FaultPlane, FaultScript, FaultStats, Parked, PlaneOp};
use crate::metrics::{Counter, Gauge, Metrics, Timer};
use crate::network::{ActorId, NetStats, NetworkConfig};
use crate::queue::{event_key, key_class};
use crate::rng::{RngFactory, RngStream};
use crate::telemetry::{Phase, Telemetry};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ClockStamp, FaultRecordKind, MsgId, ProcessEventKind, Trace, TraceKind};

use std::any::Any;
use std::time::Instant;

mod lane;
mod sharded;

use lane::{FifoStore, Lane};

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
    /// [`Engine::try_take_actor`].
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
/// sets timers, annotates the trace, and can halt the run. `Any` is a
/// supertrait so a host can read a resident actor's state by its concrete
/// type ([`Engine::actor`]) or take it back after the run
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
    Send { to: ActorId, msg: M },
    Broadcast { msg: M },
    SetTimer { after: SimDuration, tag: u64 },
    Note { label: String },
    // Boxed so the rarely-hot stamped payload (a ClockStamp is ~100 bytes
    // inline) doesn't widen every Action the dispatch loop moves; the box
    // is only ever allocated while tracing is enabled.
    Trace(Box<ProcessTrace>),
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
    n: usize,
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

    /// Total number of actors in the simulation.
    pub fn actor_count(&self) -> usize {
        self.n
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
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }
}

/// An event in the future-event list. Actor ids are stored as `u32` to keep
/// entries small — every queue entry is moved O(log n) times per heap
/// operation, so entry size is directly visible in engine throughput.
/// Fault operations are *not* queue events: the coordinator interleaves
/// them between windows (see [`Engine::run`]), which is what lets shard
/// heaps stay private to their worker threads.
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
    /// The resident lane. Sequential runs execute directly on it; sharded
    /// runs split it into per-shard lanes and merge back afterwards.
    lane: Lane<M>,
    network: NetworkConfig,
    factory: RngFactory,
    end_time: SimTime,
    /// Ids for injected external deliveries: a small counter disjoint from
    /// transmitted ids (those start at `1 << 40`), so injections at an
    /// instant always sort before transmissions at the same instant.
    next_inject_id: u64,
    /// Next un-applied fault-plane operation (ops are time-sorted).
    op_cursor: usize,
    /// Whether `on_start` has been dispatched. Start callbacks fire exactly
    /// once per engine, on the first `run`/`run_sharded`/`step_until` —
    /// incremental stepping must not re-arm start timers on every call.
    started: bool,
    /// The installed fault plane, if any. `None` on the hot path costs one
    /// predictable branch per event; see [`Engine::install_faults`].
    fault: Option<Box<FaultPlane<M>>>,
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
            lane: Lane::new(m.clone()),
            network,
            factory: RngFactory::new(seed),
            end_time: SimTime::MAX,
            next_inject_id: 0,
            op_cursor: 0,
            started: false,
            fault: None,
            m,
            tel: Telemetry::disabled(),
        }
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
        let plane = FaultPlane::new(script, self.lane.actors.len());
        self.lane.fault_rngs = (0..self.lane.actors.len())
            .map(|id| self.factory.labeled_stream(&format!("engine.faults.{id}")))
            .collect();
        self.op_cursor = 0;
        self.fault = Some(Box::new(plane));
    }

    /// The fault plane's counters, if a script is installed: op-side
    /// counters (crashes, cuts, …) plus the transmit/delivery-side counters
    /// the lanes accumulated, plus the still-parked backlog.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|p| {
            let mut s = p.stats();
            s.absorb(&self.lane.fstats);
            s.parked_leftover += self.lane.parked_out.len() as u64;
            s
        })
    }

    /// Messages scheduled (or parked by a partition) but not yet delivered.
    /// After a run this is the undelivered backlog; together with the
    /// delivered/lost counters it closes the queue-conservation identity
    /// the chaos soak asserts.
    pub fn in_flight(&self) -> u64 {
        self.lane.in_flight.max(0) as u64
    }

    /// Record engine metrics (events processed, delivered vs dropped
    /// messages, queue depth, in-flight high-water, run wall time) into
    /// `metrics`. Recording is observational only: a run with metrics
    /// attached is bit-identical to the same run without.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.m = EngineMetrics::attach(metrics);
        self.lane.m = self.m.clone();
    }

    /// Attach a phase-scoped wall-clock [`Telemetry`] registry: sequential
    /// runs record into shard slot 0; sharded runs record per shard plus a
    /// coordinator slot. Strictly off the deterministic path — wall-clock
    /// reads feed only telemetry, and a run with telemetry attached is
    /// bit-identical to the same run without (see the `telemetry` module
    /// docs and `tests/telemetry_determinism.rs`).
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.tel = t.clone();
        self.lane.tel = t.shard(0);
    }

    /// Register an actor; returns its id. Actors must be added before
    /// [`Engine::run`]. Ids are assigned densely from 0 and must agree with
    /// the network topology's node numbering.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        let id = self.lane.actors.len();
        self.lane.actors.push(Some(actor));
        self.lane.rngs.push(self.factory.stream(id as u64 + 1));
        self.lane.net_rngs.push(self.factory.labeled_stream(&format!("engine.network.{id}")));
        self.lane.loss.push(self.network.loss.clone());
        self.lane.msg_ctr.push(0);
        self.lane.timer_ctr.push(0);
        self.lane.members.push(id);
        id
    }

    /// Enable trace recording.
    pub fn enable_trace(&mut self) {
        self.lane.trace = Trace::enabled();
    }

    /// Stop the run at this time even if events remain.
    pub fn set_end_time(&mut self, end: SimTime) {
        self.end_time = end;
    }

    /// Override [`DENSE_ACTOR_LIMIT`] for this engine (tests cross-validate
    /// the dense and sparse FIFO paths by forcing each).
    pub fn set_fifo_dense_limit(&mut self, limit: usize) {
        self.lane.fifo_dense_limit = limit;
        self.lane.fifo = FifoStore::Unset;
    }

    /// Schedule an external input: `msg` will be delivered to `to` at `at`,
    /// bypassing the network's delay/loss models — used to inject
    /// precomputed world-plane timelines. `from` is a conventional source id
    /// (often the world actor's id).
    pub fn inject(&mut self, at: SimTime, to: ActorId, from: ActorId, msg: M) {
        debug_assert!(at >= self.lane.now, "inject into the past");
        let id = self.next_inject_id;
        self.next_inject_id += 1;
        debug_assert!(id < (1 << 40), "inject id overflow into transmitted-id space");
        self.lane.queue.schedule_keyed(
            at,
            event_key(key_class::DELIVER, id),
            Pending::Deliver { from: from as u32, to: to as u32, msg, id },
        );
        self.lane.in_flight += 1;
        self.m.in_flight.set(self.lane.in_flight.max(0) as u64);
        self.m.queue_depth.set(self.lane.queue.len() as u64);
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
        let n = self.lane.actors.len();
        if to >= n {
            return Err(EngineError::UnknownActor { id: to, actors: n });
        }
        if from >= n {
            return Err(EngineError::UnknownActor { id: from, actors: n });
        }
        if at < self.lane.now {
            return Err(EngineError::TimeRegression { at, now: self.lane.now });
        }
        if self.next_inject_id >= (1 << 40) {
            return Err(EngineError::InjectIdsExhausted);
        }
        self.inject(at, to, from, msg);
        Ok(())
    }

    /// Pre-reserve queue capacity for `n` additional events. Callers that
    /// bulk-[`inject`](Engine::inject) a known timeline (e.g. the world
    /// plane) should reserve up front to avoid repeated heap growth.
    pub fn reserve_events(&mut self, n: usize) {
        self.lane.queue.reserve(n);
    }

    /// Dispatch `on_start` to every actor exactly once per engine (the
    /// first `run`/`step_until` call; later calls are no-ops).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.lane.trace.configure_actors(self.lane.actors.len());
        self.lane.dispatch_starts(&self.network, self.fault.as_deref());
    }

    /// Run until the queue drains, the end time passes, or an actor halts.
    /// Returns the final simulation time.
    pub fn run(&mut self) -> SimTime {
        let wall_start = Instant::now();
        let events_before = self.lane.events_processed;
        self.ensure_started();
        self.advance_loop(None);
        // The whole sequential run (start dispatch included) is shard-0
        // busy time; `record` is a no-op when no registry is attached.
        self.lane.tel.record(Phase::Busy, Some(wall_start));
        self.finish_run(wall_start, events_before)
    }

    /// Advance the engine **incrementally** to `bound`: process every queue
    /// event and fault op with time `< bound`, then set the engine clock to
    /// `bound` (clamped by [`Engine::set_end_time`]). Unlike [`Engine::run`]
    /// this neither requires the queue to drain nor seals the trace — call
    /// it repeatedly with a growing watermark to drive the engine from a
    /// live event source, injecting between calls; events at exactly
    /// `bound` stay pending, so later injections `≥ bound` are always
    /// admissible. `on_start` is dispatched on the first call only. Returns
    /// the new engine time; a `bound` behind the engine clock is a
    /// [`EngineError::TimeRegression`].
    pub fn step_until(&mut self, bound: SimTime) -> Result<SimTime, EngineError> {
        if bound < self.lane.now {
            return Err(EngineError::TimeRegression { at: bound, now: self.lane.now });
        }
        self.ensure_started();
        let t0 = self.lane.tel.start();
        self.advance_loop(Some(bound));
        self.lane.tel.record(Phase::Busy, t0);
        if !self.lane.halted {
            let target = bound.min(self.end_time);
            if target > self.lane.now {
                self.lane.now = target;
            }
        }
        Ok(self.lane.now)
    }

    /// Seal the trace after a sequence of [`Engine::step_until`] calls
    /// (equivalent to what [`Engine::run`] does on completion) and return
    /// the final time. Idempotent.
    pub fn finish(&mut self) -> SimTime {
        self.lane.trace.seal();
        self.lane.now
    }

    /// True once an actor has called [`Context::halt`].
    pub fn is_halted(&self) -> bool {
        self.lane.halted
    }

    /// The sequential event loop shared by [`Engine::run`] (`limit: None`)
    /// and [`Engine::step_until`] (`limit: Some(bound)`, exclusive):
    /// interleave time-sorted fault-plane ops with queue events, stopping
    /// at halt or wherever [`next_stop`] says the run is over.
    fn advance_loop(&mut self, limit: Option<SimTime>) {
        while !self.lane.halted {
            let op_at =
                self.fault.as_deref().and_then(|p| p.ops.get(self.op_cursor)).map(|&(at, _)| at);
            match next_stop(op_at, self.lane.queue.peek_time(), self.end_time, limit) {
                Stop::Op => {
                    // Fault ops count as events for continuity with the
                    // former queue-scheduled scheme.
                    let idx = self.op_cursor;
                    self.op_cursor += 1;
                    self.lane.events_processed += 1;
                    self.m.events.inc();
                    let mut plane = self.fault.take().expect("op implies plane");
                    // Transmit-time parks accumulate lane-side; fold them into
                    // the plane before the op so a heal releases them (the
                    // sharded coordinator does the same at its op barriers).
                    collect_parked(std::slice::from_mut(&mut self.lane), &mut plane);
                    apply_plane_op(
                        std::slice::from_mut(&mut self.lane),
                        &mut plane,
                        idx,
                        &self.network,
                    );
                    self.fault = Some(plane);
                    self.m.queue_depth.set(self.lane.queue.len() as u64);
                }
                Stop::Advance { until, .. } => {
                    self.lane.advance_until(until, &self.network, self.fault.as_deref());
                }
                Stop::End => {
                    self.lane.now = self.end_time;
                    break;
                }
                Stop::Drained => break,
            }
        }
    }

    /// Seal the trace and record wall-clock metrics; returns final time.
    fn finish_run(&mut self, wall_start: Instant, events_before: u64) -> SimTime {
        self.lane.trace.seal();
        let wall = wall_start.elapsed();
        self.m.run_wall.record_duration(wall);
        self.tel.record_run_wall(wall.as_nanos() as u64);
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            self.m
                .events_per_sec
                .set(((self.lane.events_processed - events_before) as f64 / secs) as u64);
        }
        self.lane.now
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.lane.now
    }

    /// Network counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.lane.stats
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.lane.trace
    }

    /// Total events dispatched.
    pub fn events_processed(&self) -> u64 {
        self.lane.events_processed
    }

    /// Mutable access to the network configuration (e.g. to flip overlay
    /// links between runs). Note: per-sender loss-model state is cloned at
    /// [`Engine::add_actor`] time, so swapping `loss` here does not affect
    /// already-registered senders.
    pub fn network_mut(&mut self) -> &mut NetworkConfig {
        &mut self.network
    }

    /// Read a resident actor's state between runs or steps: `None` if `id`
    /// is out of range or the actor was taken. Upcast the reference to
    /// `&dyn Any` to reach the concrete type.
    pub fn actor(&self, id: ActorId) -> Option<&(dyn Actor<M> + Send)> {
        self.lane.actors.get(id)?.as_deref()
    }

    /// Recover an actor after the run to read its final state.
    ///
    /// Panics if `id` is out of range or the actor was already taken; hosts
    /// handling externally supplied ids should use
    /// [`Engine::try_take_actor`].
    pub fn take_actor(&mut self, id: ActorId) -> Box<dyn Actor<M> + Send> {
        self.try_take_actor(id).expect("actor present")
    }

    /// The checked form of [`Engine::take_actor`]: an out-of-range id or a
    /// doubly-taken actor is a typed error, not a panic.
    pub fn try_take_actor(&mut self, id: ActorId) -> Result<Box<dyn Actor<M> + Send>, EngineError> {
        let n = self.lane.actors.len();
        match self.lane.actors.get_mut(id) {
            None => Err(EngineError::UnknownActor { id, actors: n }),
            Some(slot) => slot.take().ok_or(EngineError::ActorTaken { id }),
        }
    }
}

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

/// The next-stop rule both run loops share: the sequential loop (one
/// lane, optionally stepping to `limit`) and the sharded coordinator (the
/// earliest event over all lanes, no limit), which further clips an
/// [`Stop::Advance`] to one lookahead window.
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

/// The owning lane of `actor` (lane 0 when sequential or out of range).
fn host_of<M: Message>(lanes: &[Lane<M>], actor: ActorId) -> usize {
    if lanes.len() == 1 {
        return 0;
    }
    lanes[0].owner.get(actor).map(|&s| s as usize).unwrap_or(0)
}

/// Execute one expanded fault-plane operation against the lane set, at the
/// op's scripted time. Works identically for the sequential engine (one
/// lane) and the sharded coordinator (all lanes at a window barrier).
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
            let n = ctx.actor_count();
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
            e.add_actor(Box::new(Gossip { rounds: 12, period: SimDuration::from_millis(10) }));
        }
        e
    }

    /// Everything observable about a finished run, for exact comparison.
    fn fingerprint(e: &Engine<TestMsg>) -> (SimTime, NetStats, u64, Option<FaultStats>, String) {
        (
            e.now(),
            e.stats().clone(),
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
            e.run_sharded(shards);
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
            par.run_sharded(shards);
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
            if shards > 1 {
                e.run_sharded(shards);
            } else {
                e.run();
            }
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
        par.run_sharded(4);
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
        e.run_sharded(4);
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
            if shards <= 1 {
                e.run();
            } else {
                e.run_sharded(shards);
            }
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
        // delta() has min_bound 0, so run_sharded must take the sequential
        // path and still produce the exact sequential result.
        let mut seq = gossip_engine(8, DelayModel::delta(SimDuration::from_millis(20)), 5);
        seq.enable_trace();
        seq.run();
        let mut par = gossip_engine(8, DelayModel::delta(SimDuration::from_millis(20)), 5);
        par.enable_trace();
        par.run_sharded(4);
        assert_eq!(fingerprint(&par), fingerprint(&seq));
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
        par.run_sharded(3);
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
        par.run_sharded(3);
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
        par.run_sharded(4);
        assert_eq!(fingerprint(&par), fingerprint(&seq));
    }

    /// Everything observable except the final clock (a stepped engine ends
    /// at its watermark, a drained run at its last event).
    fn stepped_fingerprint(e: &Engine<TestMsg>) -> (NetStats, u64, Option<FaultStats>, String) {
        let f = fingerprint(e);
        (f.1, f.2, f.3, f.4)
    }

    #[test]
    fn step_until_matches_run() {
        let mut whole = gossip_engine(9, shardable_delay(), 77);
        whole.enable_trace();
        whole.run();

        let mut stepped = gossip_engine(9, shardable_delay(), 77);
        stepped.enable_trace();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            t = t.saturating_add(SimDuration::from_millis(7));
            stepped.step_until(t).unwrap();
        }
        stepped.finish();
        assert_eq!(stepped_fingerprint(&stepped), stepped_fingerprint(&whole));
        assert_eq!(stepped.now(), t, "a stepped engine parks at its watermark");
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

        let mut stepped = gossip_engine(8, shardable_delay(), 55);
        stepped.enable_trace();
        stepped.install_faults(&script);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            t = t.saturating_add(SimDuration::from_micros(3_300));
            stepped.step_until(t).unwrap();
        }
        stepped.finish();
        assert_eq!(stepped_fingerprint(&stepped), stepped_fingerprint(&whole));
    }

    #[test]
    fn step_until_dispatches_starts_once() {
        let net = NetworkConfig::full_mesh(3, DelayModel::Synchronous);
        let mut e = Engine::new(net, 5);
        e.add_actor(Box::new(Beacon { fire: true, received: 0 }));
        e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        e.add_actor(Box::new(Beacon { fire: false, received: 0 }));
        e.step_until(SimTime::from_millis(1)).unwrap();
        e.step_until(SimTime::from_millis(2)).unwrap();
        e.run();
        assert_eq!(e.stats().broadcasts, 1, "on_start must not re-fire per step");
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
