//! One shard's execution state and the per-event hot path: dispatch,
//! transmission through the network and fault planes, and the FIFO clamp.
//! A one-shard engine runs exactly one lane; a sharded engine splits the
//! actors over several, once, and keeps them.
//!
//! Every send goes through one pipeline, [`Lane::transmit`]: the link
//! check, then (with a fault plane installed) the partition and
//! channel-fault stages, then loss, delay, reorder-or-FIFO and scheduling,
//! then the duplicate copy. Each send lands in one ledger, [`NetStats`]:
//! it is sent, and then delivered, lost, or still in flight. A send with
//! no link is sent and lost at once, with no message id, no random draw
//! and no trace record. The fault plane's own counts ([`FaultStats`]) say
//! which stage took a message; they are not a second ledger.

use crate::fault::{ChannelEffect, CutPolicy, FaultPlane, FaultStats, Parked};
use crate::network::{ActorId, NetStats, NetworkConfig};
use crate::queue::{event_key, key_class, EventQueue};
use crate::rng::RngStream;
use crate::telemetry::ShardTelemetry;
use crate::time::SimTime;
use crate::trace::{FaultRecordKind, MsgId, Trace, TraceKind};

use super::{Action, Actor, Context, Dispatch, Message, Pending};
use std::collections::HashMap;
use std::sync::mpsc;

/// Per-channel last-scheduled-delivery times backing the FIFO clamp.
///
/// Built once per lane, at the first advance, when the actors and the
/// topology are fixed. `Dense` stores a `members × n` matrix indexed by the
/// *rank* of the sending actor within this lane (not `n × n` per lane, so
/// sharded large runs don't multiply the footprint). `Sparse` is a flat map
/// keyed `(from << 32) | to`; it is only ever probed per-message, never
/// iterated, so map order cannot leak into behaviour.
pub(in crate::engine) enum FifoStore {
    /// FIFO disabled (or the first advance has not built the store yet).
    Off,
    Dense {
        stride: usize,
        rank: Vec<u32>,
        last: Vec<SimTime>,
    },
    Sparse {
        last: HashMap<u64, SimTime>,
    },
}

impl FifoStore {
    /// The store for a lane owning `members`, over node ids `0..n` (the
    /// larger of the topology and the actor count): the dense matrix up to
    /// `dense_limit` ids, the map above.
    pub(in crate::engine) fn new(
        fifo: bool,
        n: usize,
        members: &[ActorId],
        dense_limit: usize,
    ) -> Self {
        if !fifo {
            return FifoStore::Off;
        }
        if n > dense_limit {
            return FifoStore::Sparse { last: HashMap::new() };
        }
        let mut rank = vec![u32::MAX; n];
        for (r, &id) in members.iter().enumerate() {
            rank[id] = r as u32;
        }
        FifoStore::Dense { stride: n, rank, last: vec![SimTime::ZERO; members.len() * n] }
    }
}

/// What crosses shards: a delivery as `(delivery time, canonical key,
/// payload)`, exactly the entry it becomes in the destination lane's heap.
type Crossing<M> = (SimTime, u64, Pending<M>);

/// The per-shard execution state: one lane owns a disjoint subset of the
/// actors, their private RNG streams, a heap of their pending events, and
/// its own trace/stats accumulators. A one-shard engine is exactly one
/// lane owning everybody. Per-actor vectors are full-size (indexed by
/// global actor id) so the hot path needs no local-index indirection;
/// non-member slots are simply never touched.
pub(in crate::engine) struct Lane<M: Message> {
    pub(in crate::engine) shard: usize,
    pub(in crate::engine) now: SimTime,
    pub(in crate::engine) queue: EventQueue<Pending<M>>,
    pub(in crate::engine) actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    /// Per-actor protocol streams (`factory.stream(id + 1)`).
    pub(in crate::engine) rngs: Vec<RngStream>,
    /// Per-sender network streams (`"engine.network.<id>"`): delay and loss
    /// draws for messages *sent by* that actor.
    pub(in crate::engine) net_rngs: Vec<RngStream>,
    /// Per-sender fault-plane streams (`"engine.faults.<id>"`); empty until
    /// [`Engine::install_faults`].
    pub(in crate::engine) fault_rngs: Vec<RngStream>,
    /// Per-sender loss-model state (Gilbert–Elliott is stateful, so each
    /// channel owner carries its own copy).
    pub(in crate::engine) loss: Vec<crate::loss::LossModel>,
    /// Per-sender transmission counters; message id = `((from+1) << 40) | c`.
    pub(in crate::engine) msg_ctr: Vec<u64>,
    /// Per-actor timer counters; timer key payload = `(actor << 40) | c`.
    pub(in crate::engine) timer_ctr: Vec<u64>,
    /// The actor ids this lane owns, ascending.
    pub(in crate::engine) members: Vec<ActorId>,
    /// `owner[actor] = shard`; empty on a one-lane engine (everything local).
    pub(in crate::engine) owner: Vec<u32>,
    /// Cross-shard deliveries sent to this lane, absorbed into `queue` by
    /// [`Lane::absorb_inbox`]. `None` on a one-lane engine.
    pub(in crate::engine) inbox: Option<mpsc::Receiver<Crossing<M>>>,
    /// `peers[shard]` sends into that shard's inbox. Empty on a one-lane
    /// engine.
    pub(in crate::engine) peers: Vec<mpsc::Sender<Crossing<M>>>,
    pub(in crate::engine) fifo: FifoStore,
    pub(in crate::engine) trace: Trace,
    pub(in crate::engine) stats: NetStats,
    /// Transmit/delivery-side fault counters (the plane is read-only during
    /// windows); merged into the plane's op-side counters on read.
    pub(in crate::engine) fstats: FaultStats,
    /// Messages parked by this lane at transmit time; drained into the
    /// plane at the next coordinator barrier.
    pub(in crate::engine) parked_out: Vec<Parked<M>>,
    /// Signed because a lane can deliver (−1) messages another lane sent
    /// (+1); only the sum across lanes is meaningful.
    pub(in crate::engine) in_flight: i64,
    /// The largest `in_flight` this lane reached.
    pub(in crate::engine) in_flight_high: i64,
    /// The largest queue length this lane held after an event or an
    /// admission.
    pub(in crate::engine) queue_high: u64,
    pub(in crate::engine) events_processed: u64,
    pub(in crate::engine) action_scratch: Vec<Action<M>>,
    pub(in crate::engine) peer_scratch: Vec<ActorId>,
    /// Phase-scoped wall-clock telemetry for this shard. Inert (no clock
    /// reads, no stores) unless a live [`Telemetry`] registry was attached.
    pub(in crate::engine) tel: ShardTelemetry,
}

impl<M: Message> Lane<M> {
    pub(in crate::engine) fn new() -> Self {
        Lane {
            shard: 0,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            actors: Vec::new(),
            rngs: Vec::new(),
            net_rngs: Vec::new(),
            fault_rngs: Vec::new(),
            loss: Vec::new(),
            msg_ctr: Vec::new(),
            timer_ctr: Vec::new(),
            members: Vec::new(),
            owner: Vec::new(),
            inbox: None,
            peers: Vec::new(),
            fifo: FifoStore::Off,
            trace: Trace::disabled(),
            stats: NetStats::default(),
            fstats: FaultStats::default(),
            parked_out: Vec::new(),
            in_flight: 0,
            in_flight_high: 0,
            queue_high: 0,
            events_processed: 0,
            action_scratch: Vec::new(),
            peer_scratch: Vec::new(),
            tel: ShardTelemetry::disabled(),
        }
    }

    /// Does this lane own the destination? (A lone lane owns everyone; ids
    /// past the owner map — topology nodes with no actor — count as local,
    /// so the delivery no-ops in the sending lane like it would on one
    /// lane.)
    #[inline]
    fn local(&self, actor: ActorId) -> bool {
        match self.owner.get(actor) {
            None => true,
            Some(&s) => s as usize == self.shard,
        }
    }

    #[inline]
    fn next_msg_id(&mut self, from: ActorId) -> u64 {
        let c = self.msg_ctr[from];
        self.msg_ctr[from] = c + 1;
        debug_assert!(c < (1 << 40), "per-sender message counter overflow");
        ((from as u64 + 1) << 40) | c
    }

    /// Schedule a delivery, locally or (sharded mode) into the owning
    /// lane's inbox.
    #[inline]
    fn schedule_delivery(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M, id: u64) {
        let key = event_key(key_class::DELIVER, id);
        let pending = Pending::Deliver { from: from as u32, to: to as u32, msg, id };
        if self.local(to) {
            self.queue.schedule_keyed(at, key, pending);
        } else {
            self.peers[self.owner[to] as usize]
                .send((at, key, pending))
                .expect("every inbox lives as long as the lanes");
        }
        self.add_in_flight();
    }

    /// Count one more message in flight, raising the high-water mark.
    fn add_in_flight(&mut self) {
        self.in_flight += 1;
        self.in_flight_high = self.in_flight_high.max(self.in_flight);
    }

    /// Raise the queue-length high-water mark to the current length.
    pub(in crate::engine) fn sample_queue(&mut self) {
        self.queue_high = self.queue_high.max(self.queue.len() as u64);
    }

    /// Schedule an external delivery (injected or fed) in this lane's
    /// heap, where it counts as in flight.
    pub(in crate::engine) fn admit(&mut self, at: SimTime, key: u64, pending: Pending<M>) {
        self.queue.schedule_keyed(at, key, pending);
        self.add_in_flight();
        self.sample_queue();
    }

    /// Absorb every delivery waiting in this lane's inbox into the local
    /// heap. Safe mid-run: a cross-shard delivery is due at or beyond every
    /// lane's window bound, and heap order is total on `(time, key)`, so
    /// absorption timing cannot change the run. Workers call this after
    /// their window (overlapping other lanes' windows); the coordinator
    /// calls it again at the barrier, when senders are idle, so the drain
    /// is complete.
    pub(in crate::engine) fn absorb_inbox(&mut self) {
        if let Some(inbox) = &self.inbox {
            for (at, key, pending) in inbox.try_iter() {
                self.queue.schedule_keyed(at, key, pending);
            }
        }
    }

    /// Dispatch `on_start` to every member, in id order, under start
    /// cursors (which the canonical seal orders before all queue events).
    pub(in crate::engine) fn dispatch_starts(
        &mut self,
        net: &NetworkConfig,
        plane: Option<&FaultPlane<M>>,
    ) {
        for i in 0..self.members.len() {
            let id = self.members[i];
            self.trace.set_cursor(Trace::start_cursor(id));
            self.dispatch(id, Dispatch::Start, net, plane);
        }
    }

    /// Pop and process local events while `at < wend` (`None` = unbounded)
    /// — the engine's hot loop, shared verbatim by a lone lane's inline
    /// advance and the shard workers.
    pub(in crate::engine) fn advance_until(
        &mut self,
        wend: Option<SimTime>,
        net: &NetworkConfig,
        plane: Option<&FaultPlane<M>>,
    ) {
        while let Some(at) = self.queue.peek_time() {
            if let Some(end) = wend {
                if at >= end {
                    break;
                }
            }
            let (at, key, pending) = self.queue.pop_entry().expect("peeked");
            debug_assert!(at >= self.now, "time must be monotone");
            self.now = at;
            self.events_processed += 1;
            self.trace.set_cursor(Trace::event_cursor(key));
            match pending {
                Pending::Deliver { from, to, msg, id } => {
                    let (from, to) = (from as ActorId, to as ActorId);
                    // One predictable branch when no fault plane is
                    // installed; a delivery to a crashed node is lost.
                    match plane {
                        Some(p) if p.is_down(to) => {
                            self.fstats.dropped_at_down += 1;
                            self.trace
                                .record(self.now, TraceKind::Lost { from, to, msg: MsgId(id) });
                            self.stats.messages_lost += 1;
                            self.in_flight -= 1;
                        }
                        _ => {
                            self.trace.record(
                                self.now,
                                TraceKind::Delivered { from, to, msg: MsgId(id) },
                            );
                            self.stats.messages_delivered += 1;
                            self.in_flight -= 1;
                            self.dispatch(to, Dispatch::Message { from, msg }, net, plane);
                        }
                    }
                }
                Pending::Timer { actor, tag } => {
                    let actor = actor as ActorId;
                    // A crashed node's timers are silently discarded (the
                    // process re-arms what it needs on recovery).
                    match plane {
                        Some(p) if p.is_down(actor) => {
                            self.fstats.timers_suppressed += 1;
                        }
                        _ => {
                            self.trace.record(self.now, TraceKind::TimerFired { actor, tag });
                            self.dispatch(actor, Dispatch::Timer { tag }, net, plane);
                        }
                    }
                }
            }
            self.sample_queue();
        }
    }

    pub(in crate::engine) fn dispatch(
        &mut self,
        id: ActorId,
        what: Dispatch<M>,
        net: &NetworkConfig,
        plane: Option<&FaultPlane<M>>,
    ) {
        let Some(slot) = self.actors.get_mut(id) else { return };
        let Some(mut actor) = slot.take() else { return };
        // Lend the lane's scratch buffer to the callback, then take it
        // back: dispatch allocates nothing once the buffer has warmed up.
        let mut actions = std::mem::take(&mut self.action_scratch);
        debug_assert!(actions.is_empty());
        let mut ctx = Context { now: self.now, id, rng: &mut self.rngs[id], actions: &mut actions };
        match what {
            Dispatch::Start => actor.on_start(&mut ctx),
            Dispatch::Message { from, msg } => actor.on_message(&mut ctx, from, msg),
            Dispatch::Timer { tag } => actor.on_timer(&mut ctx, tag),
            Dispatch::Fault { event } => actor.on_fault(&mut ctx, &event),
        }
        self.actors[id] = Some(actor);
        for a in actions.drain(..) {
            self.apply(id, a, net, plane);
        }
        self.action_scratch = actions;
    }

    fn apply(
        &mut self,
        from: ActorId,
        action: Action<M>,
        net: &NetworkConfig,
        plane: Option<&FaultPlane<M>>,
    ) {
        match action {
            Action::Send { to, msg } => self.transmit(from, to, msg, net, plane),
            Action::Broadcast { msg } => {
                self.stats.broadcasts += 1;
                let mut peers = std::mem::take(&mut self.peer_scratch);
                net.topology.collect_neighbors(from, &mut peers);
                // The message moves to the final peer; only the first
                // `len - 1` transmissions clone it.
                if let Some((&last, rest)) = peers.split_last() {
                    for &to in rest {
                        self.transmit(from, to, msg.clone(), net, plane);
                    }
                    self.transmit(from, last, msg, net, plane);
                }
                self.peer_scratch = peers;
            }
            Action::SetTimer { after, tag } => {
                let c = self.timer_ctr[from];
                self.timer_ctr[from] = c + 1;
                debug_assert!(c < (1 << 40), "per-actor timer counter overflow");
                let key = event_key(key_class::TIMER, ((from as u64) << 40) | c);
                self.queue.schedule_keyed(
                    self.now + after,
                    key,
                    Pending::Timer { actor: from as u32, tag },
                );
            }
            Action::Note { label } => {
                self.trace.record(self.now, TraceKind::Note { actor: from, label });
            }
        }
    }

    /// The one send pipeline: the link check; the fault plane's partition
    /// and channel-fault stages, if a plane is installed; loss, delay, and
    /// reorder or FIFO clamp; scheduling; the duplicate copy. The network
    /// stream draws loss then delay, and the plane stream draws the
    /// channel effect, a corruption, then the copy's delay, so each
    /// sender's draw order is the same with or without a plane. The plane
    /// is read-only here: counters and parked messages land in this lane's
    /// own accumulators.
    fn transmit(
        &mut self,
        from: ActorId,
        to: ActorId,
        mut msg: M,
        net: &NetworkConfig,
        plane: Option<&FaultPlane<M>>,
    ) {
        let bytes = msg.size_bytes();
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if !net.topology.connected(from, to) {
            self.stats.messages_lost += 1;
            return;
        }
        let id = self.next_msg_id(from);
        self.trace.record(self.now, TraceKind::Sent { from, to, bytes, msg: MsgId(id) });

        let mut duplicate = false;
        let mut extra_delay = None;
        if let Some(plane) = plane {
            // Partitions sever the channel before anything else.
            if plane.active_cuts > 0 && plane.blocked(from, to) {
                match plane.cut_policy(from, to) {
                    CutPolicy::Drop => {
                        self.stats.messages_lost += 1;
                        self.trace.record(self.now, TraceKind::Lost { from, to, msg: MsgId(id) });
                        self.fstats.dropped_by_partition += 1;
                    }
                    CutPolicy::Park => {
                        self.trace.record(
                            self.now,
                            TraceKind::Fault {
                                actor: from,
                                kind: FaultRecordKind::Parked,
                                detail: id,
                            },
                        );
                        self.parked_out.push(Parked { from, to, msg, id, deliver_at: self.now });
                        self.fstats.parked += 1;
                        self.add_in_flight(); // parked still counts as in flight
                    }
                }
                return;
            }
            if plane.active_rules > 0 {
                match plane.channel_effect(from, to, &mut self.fault_rngs[from]) {
                    Some(ChannelEffect::Drop) => {
                        self.stats.messages_lost += 1;
                        self.trace.record(self.now, TraceKind::Lost { from, to, msg: MsgId(id) });
                        self.trace.record(
                            self.now,
                            TraceKind::Fault {
                                actor: from,
                                kind: FaultRecordKind::ChannelDrop,
                                detail: id,
                            },
                        );
                        self.fstats.dropped_by_channel += 1;
                        return;
                    }
                    // Not a match guard: corrupt() both decides and
                    // mutates, and a failed guard would fall through to
                    // other arms.
                    #[allow(clippy::collapsible_match)]
                    Some(ChannelEffect::Corrupt) => {
                        if msg.corrupt(&mut self.fault_rngs[from]) {
                            self.fstats.corrupted += 1;
                            self.trace.record(
                                self.now,
                                TraceKind::Fault {
                                    actor: from,
                                    kind: FaultRecordKind::Corrupted,
                                    detail: id,
                                },
                            );
                        }
                    }
                    Some(ChannelEffect::Duplicate) => duplicate = true,
                    Some(ChannelEffect::Reorder { extra }) => extra_delay = Some(extra),
                    None => {}
                }
            }
        }

        if self.loss[from].is_lost(&mut self.net_rngs[from]) {
            self.stats.messages_lost += 1;
            self.trace.record(self.now, TraceKind::Lost { from, to, msg: MsgId(id) });
            return;
        }
        let mut deliver_at = self.now + net.delay.sample(&mut self.net_rngs[from]);
        if let Some(extra) = extra_delay {
            // Reorder: extra delay and no FIFO clamp (and no fifo-state
            // update), so later sends on this channel may overtake.
            deliver_at += extra;
            self.fstats.reordered += 1;
            self.trace.record(
                self.now,
                TraceKind::Fault { actor: from, kind: FaultRecordKind::Reordered, detail: id },
            );
        } else {
            deliver_at = self.fifo_clamp(from, to, deliver_at);
        }
        let copy = duplicate.then(|| msg.clone());
        self.schedule_delivery(deliver_at, from, to, msg, id);

        // The duplicate copy: its own message id, its own delay (from the
        // sender's plane stream), no FIFO clamp.
        if let Some(copy) = copy {
            let dup_id = self.next_msg_id(from);
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            self.fstats.duplicated += 1;
            self.trace.record(self.now, TraceKind::Sent { from, to, bytes, msg: MsgId(dup_id) });
            self.trace.record(
                self.now,
                TraceKind::Fault { actor: from, kind: FaultRecordKind::Duplicated, detail: dup_id },
            );
            let dup_delay = net.delay.sample(&mut self.fault_rngs[from]);
            self.schedule_delivery(self.now + dup_delay, from, to, copy, dup_id);
        }
    }

    /// Apply the per-channel FIFO clamp and update the channel state.
    #[inline]
    fn fifo_clamp(&mut self, from: ActorId, to: ActorId, deliver_at: SimTime) -> SimTime {
        let cell = match &mut self.fifo {
            FifoStore::Off => return deliver_at,
            FifoStore::Dense { stride, rank, last } => {
                let r = rank[from] as usize;
                debug_assert!(r != u32::MAX as usize, "sender not a member of this lane");
                &mut last[r * *stride + to]
            }
            FifoStore::Sparse { last } => {
                last.entry(((from as u64) << 32) | to as u64).or_insert(SimTime::ZERO)
            }
        };
        let t = if deliver_at < *cell { *cell } else { deliver_at };
        *cell = t;
        t
    }
}
