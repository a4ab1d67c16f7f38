//! The sharded driver: the contiguous actor partition, the lookahead-window
//! coordinator of [`Engine::run_sharded`], and the cross-shard exchange:
//! one channel into each lane, drained by its worker after a window and by
//! the coordinator at every barrier.

use crate::fault::{FaultPlane, FaultStats};
use crate::network::NetStats;
use crate::queue::EventQueue;
use crate::telemetry::{Phase, ShardTelemetry};
use crate::time::SimTime;
use crate::trace::Trace;

use super::lane::{FifoStore, Lane};
use super::{apply_plane_op, collect_parked, next_stop, Engine, Message, Pending, Stop};
use parking_lot::RwLock;
use std::sync::mpsc;
use std::time::Instant;

impl<M: Message> Engine<M> {
    /// Run with actors partitioned across shard worker threads, advancing
    /// all shards concurrently through lookahead-bounded windows. The
    /// result — delivered-event sequence, per-actor RNG draws, trace,
    /// stats, fault effects — is **bit-identical** to [`Engine::run`].
    ///
    /// The partition is contiguous: `shards` is clamped to `[1, n]` and
    /// actor `i` runs on shard `i / ceil(n / shards)`, which keeps
    /// neighbour-heavy topologies (rings, grids) mostly intra-shard. Where
    /// an actor runs never changes the output, only the cross-shard
    /// traffic.
    ///
    /// Falls back to the sequential loop when the partition has one shard,
    /// the network's lookahead ([`crate::delay::DelayModel::min_bound`]) is
    /// zero, or there are no actors. Like `run`, one call consumes the
    /// pending timeline; alternating `run`/`run_sharded` calls on one
    /// engine is supported (state merges back into the resident lane).
    ///
    /// Caveat: [`super::Context::halt`] stops a sharded run at the end of the
    /// window (or start batch) that observed it, not mid-window — halting
    /// protocols should keep using `run`. `now()` still reports the halting
    /// lane's time.
    pub fn run_sharded(&mut self, shards: usize) -> SimTime {
        let n = self.lane.actors.len();
        let lookahead = self.network.delay.min_bound();
        let block = n.div_ceil(shards.clamp(1, n.max(1))).max(1);
        let k = n.div_ceil(block);
        if k <= 1 || lookahead.is_zero() {
            return self.run();
        }
        let owner: Vec<u32> = (0..n).map(|i| (i / block) as u32).collect();
        let wall_start = Instant::now();
        let events_before = self.lane.events_processed;
        self.lane.trace.configure_actors(n);

        let mut lanes = self.split_lanes(&owner, k);
        let op_times: Vec<SimTime> = self
            .fault
            .as_deref()
            .map(|p| p.ops.iter().map(|&(at, _)| at).collect())
            .unwrap_or_default();
        let plane_lock: RwLock<Option<Box<FaultPlane<M>>>> = RwLock::new(self.fault.take());
        let net = &self.network;
        let end_time = self.end_time;
        let metrics = self.m.clone();
        // Telemetry is recorded per shard (workers) plus a coordinator
        // slot; `tel_on` gates every wall-clock read so a disabled
        // registry costs nothing on the barrier path.
        let tel_on = self.tel.is_enabled();
        let coord_tel = self.tel.coordinator();
        let mut op_cursor = self.op_cursor;
        let mut end_hit = false;

        // Start dispatches run on the coordinator, per lane in shard order;
        // canonical start cursors make the resulting records order by actor
        // id regardless. Like the sequential path, starts fire once per
        // engine, not once per run. Their cross-shard sends go into the
        // inboxes like a worker's, and are absorbed before the first stop.
        if !self.started {
            self.started = true;
            let guard = plane_lock.read();
            for lane in &mut lanes {
                lane.dispatch_starts(net, guard.as_deref());
            }
        }
        for lane in &mut lanes {
            lane.absorb_inbox();
        }

        // The serial prefix (lane split, start dispatch, inbox drain) is
        // coordinator busy time. During the window loop the coordinator
        // records only drains, so its busy spans never overlap the shards'
        // own accounting.
        coord_tel.record(Phase::Busy, Some(wall_start));
        // Per-worker shard handles for the one wait the lane can't record:
        // the final block on a closing command channel (the lane has
        // already been sent back by then).
        let wtels: Vec<ShardTelemetry> = (0..k).map(|i| self.tel.shard(i)).collect();
        std::thread::scope(|scope| {
            let mut cmd_tx: Vec<mpsc::Sender<(Lane<M>, SimTime)>> = Vec::with_capacity(k);
            let mut res_rx: Vec<mpsc::Receiver<Lane<M>>> = Vec::with_capacity(k);
            for wtel in wtels {
                let (tx, rx) = mpsc::channel::<(Lane<M>, SimTime)>();
                let (res_tx, rres) = mpsc::channel::<Lane<M>>();
                cmd_tx.push(tx);
                res_rx.push(rres);
                let plane_lock = &plane_lock;
                // The first wait clock starts on the coordinator side so
                // thread-spawn latency lands in barrier wait — the shard
                // slots then cover the scope's whole lifetime and the
                // profile report can attribute ~all of the run wall.
                let spawn0 = if tel_on { Some(Instant::now()) } else { None };
                scope.spawn(move || {
                    let mut wait0 = spawn0;
                    loop {
                        // Time blocked on the coordinator as barrier wait
                        // — recorded into the received lane's shard slot,
                        // so the attribution follows the lane even though
                        // the clock read happens before we know which
                        // window this is.
                        let Ok((mut lane, wend)) = rx.recv() else {
                            if let Some(w0) = wait0 {
                                wtel.record_ns(Phase::BarrierWait, w0.elapsed().as_nanos() as u64);
                            }
                            break;
                        };
                        if let Some(w0) = wait0 {
                            lane.tel.record_ns(Phase::BarrierWait, w0.elapsed().as_nanos() as u64);
                        }
                        let t0 = lane.tel.start();
                        {
                            let guard = plane_lock.read();
                            lane.advance_until(Some(wend), net, guard.as_deref());
                        }
                        lane.tel.record(Phase::Busy, t0);
                        // Overlap exchange with other lanes' windows: pull
                        // whatever peers have sent so far; the coordinator
                        // finishes the drain at the barrier.
                        let r0 = lane.tel.start();
                        lane.absorb_inbox();
                        lane.tel.record(Phase::Exchange, r0);
                        // Clock the next wait from *before* the send: on a
                        // busy machine the scheduler may run the whole
                        // coordinator barrier between our send and our next
                        // statement, and that time is barrier wait.
                        wait0 = if tel_on { Some(Instant::now()) } else { None };
                        if res_tx.send(lane).is_err() {
                            break;
                        }
                    }
                });
            }

            while !lanes.iter().any(|l| l.halted) {
                let op_at = op_times.get(op_cursor).copied();
                let queue_at = lanes.iter().filter_map(|l| l.queue.peek_time()).min();
                match next_stop(op_at, queue_at, end_time, None) {
                    Stop::Op => {
                        // Coordinator sub-barrier: apply the op under the
                        // write lock, with all lanes at rest. Counted in
                        // `engine.op_barriers`, not `engine.windows` — an op
                        // barrier synchronizes every lane like a window
                        // boundary does, but it advances no lookahead window,
                        // and folding the two together made barrier-wait
                        // attribution lie about window cost.
                        let idx = op_cursor;
                        op_cursor += 1;
                        metrics.events.inc();
                        metrics.op_barriers.inc();
                        let mut guard = plane_lock.write();
                        let plane = guard.as_deref_mut().expect("op implies plane");
                        collect_parked(&mut lanes, plane);
                        lanes[0].events_processed += 1;
                        apply_plane_op(&mut lanes, plane, idx, net);
                        // Ops can dispatch actors (Recover/Clock handlers)
                        // whose sends target other shards; absorb them now
                        // so the next stop sees them — left in an inbox
                        // they would surface after the destination lane
                        // advanced past their delivery time. Workers are
                        // idle at an op barrier, so the drain is complete.
                        let d0 = coord_tel.start();
                        for lane in &mut lanes {
                            lane.absorb_inbox();
                        }
                        coord_tel.record(Phase::CoordinatorDrain, d0);
                    }
                    Stop::Advance { from, until } => {
                        // One parallel window [from, from + L), clipped by
                        // the next op or the end time.
                        let mut wend = from.saturating_add(lookahead);
                        if let Some(u) = until {
                            wend = wend.min(u);
                        }
                        metrics.windows.inc();
                        run_window(&cmd_tx, &res_rx, &mut lanes, wend);
                        // Senders are idle at the barrier, so this
                        // coordinator drain (after the workers' own
                        // overlapped absorb) is complete.
                        let d0 = coord_tel.start();
                        for lane in &mut lanes {
                            lane.absorb_inbox();
                        }
                        coord_tel.record(Phase::CoordinatorDrain, d0);
                    }
                    Stop::End => {
                        end_hit = true;
                        break;
                    }
                    Stop::Drained => break,
                }
            }
            drop(cmd_tx); // workers exit on channel close
        });
        // Serial suffix: parked-message collection and lane merge —
        // coordinator busy time again (see the prefix span above).
        let suffix0 = coord_tel.start();

        self.op_cursor = op_cursor;
        let mut plane = plane_lock.into_inner();
        if let Some(p) = plane.as_deref_mut() {
            collect_parked(&mut lanes, p);
        }
        self.fault = plane;
        self.merge_lanes(lanes);
        if end_hit {
            self.lane.now = end_time;
        }
        self.m.queue_depth.set(self.lane.queue.len() as u64);
        self.m.in_flight.set(self.lane.in_flight.max(0) as u64);
        coord_tel.record(Phase::Busy, suffix0);
        self.finish_run(wall_start, events_before)
    }

    /// Split the resident lane into `k` per-shard lanes according to
    /// `owner`. Full-size per-actor vectors are cloned into every lane
    /// (cheap: RNG streams are ~32 B) so workers index by global id. Each
    /// lane gets its own inbox and a sender into every lane's inbox.
    fn split_lanes(&mut self, owner: &[u32], k: usize) -> Vec<Lane<M>> {
        let n = self.lane.actors.len();
        let tel = &self.tel;
        let base = &mut self.lane;
        let (peers, inboxes): (Vec<_>, Vec<_>) = (0..k).map(|_| mpsc::channel()).unzip();
        let mut lanes: Vec<Lane<M>> = inboxes
            .into_iter()
            .enumerate()
            .map(|(shard, inbox)| Lane {
                shard,
                now: base.now,
                queue: EventQueue::new(),
                actors: (0..n).map(|_| None).collect(),
                rngs: base.rngs.clone(),
                net_rngs: base.net_rngs.clone(),
                fault_rngs: base.fault_rngs.clone(),
                loss: base.loss.clone(),
                msg_ctr: base.msg_ctr.clone(),
                timer_ctr: base.timer_ctr.clone(),
                members: Vec::new(),
                owner: owner.to_vec(),
                inbox: Some(inbox),
                peers: peers.clone(),
                fifo: FifoStore::Unset,
                fifo_dense_limit: base.fifo_dense_limit,
                trace: if base.trace.is_enabled() { Trace::enabled() } else { Trace::disabled() },
                stats: NetStats::default(),
                fstats: FaultStats::default(),
                parked_out: Vec::new(),
                in_flight: 0,
                events_processed: 0,
                halted: base.halted,
                action_scratch: Vec::new(),
                peer_scratch: Vec::new(),
                m: base.m.clone(),
                tel: tel.shard(shard),
            })
            .collect();
        for (id, &shard) in owner.iter().enumerate() {
            let s = shard as usize;
            debug_assert!(s < k, "owner[{id}] = {s} out of range for {k} shards");
            lanes[s].actors[id] = base.actors[id].take();
            lanes[s].members.push(id);
        }
        let mut distributed = 0i64;
        for (at, key, p) in base.queue.drain_entries() {
            let dest = match &p {
                Pending::Deliver { to, .. } => {
                    owner.get(*to as usize).map(|&s| s as usize).unwrap_or(0)
                }
                Pending::Timer { actor, .. } => owner[*actor as usize] as usize,
            };
            if matches!(p, Pending::Deliver { .. }) {
                lanes[dest].in_flight += 1;
                distributed += 1;
            }
            lanes[dest].queue.schedule_keyed(at, key, p);
        }
        // Whatever in-flight count is not in the queue (parked messages
        // from a previous run) stays on lane 0, so the global sum is
        // preserved across split/merge.
        lanes[0].in_flight += base.in_flight - distributed;
        base.in_flight = 0;
        lanes
    }

    /// Merge per-shard lanes back into the resident lane: actors, RNG and
    /// counter state (members only), traces (canonical absorb), stats, and
    /// any leftover queue entries. Dropping the lanes drops the exchange
    /// channels; every inbox was drained at the last barrier.
    fn merge_lanes(&mut self, mut lanes: Vec<Lane<M>>) {
        let base = &mut self.lane;
        let mut max_now = base.now;
        for lane in &mut lanes {
            max_now = max_now.max(lane.now);
            for i in 0..lane.members.len() {
                let id = lane.members[i];
                base.actors[id] = lane.actors[id].take();
                base.rngs[id] = lane.rngs[id].clone();
                base.net_rngs[id] = lane.net_rngs[id].clone();
                if !base.fault_rngs.is_empty() {
                    base.fault_rngs[id] = lane.fault_rngs[id].clone();
                }
                base.loss[id] = lane.loss[id].clone();
                base.msg_ctr[id] = lane.msg_ctr[id];
                base.timer_ctr[id] = lane.timer_ctr[id];
            }
            base.stats.absorb(&lane.stats);
            base.fstats.absorb(&lane.fstats);
            base.trace.absorb(&mut lane.trace);
            base.in_flight += lane.in_flight;
            base.events_processed += lane.events_processed;
            base.halted |= lane.halted;
            base.parked_out.append(&mut lane.parked_out);
            for (at, key, p) in lane.queue.drain_entries() {
                base.queue.schedule_keyed(at, key, p);
            }
        }
        // The FIFO channel state is split per shard and cheap to rebuild;
        // force re-init on the next (sequential) run.
        base.fifo = FifoStore::Unset;
        base.now = max_now;
    }
}

/// Dispatch one parallel window `[·, wend)` to the shard workers and
/// collect the lanes back, reusing the `lanes` vector's allocation.
/// Collection is in shard order from per-worker channels: a worker that
/// panicked closes its channel, turning a would-be deadlock into an
/// immediate error (the scope join then re-raises the worker's own panic).
fn run_window<M: Message>(
    cmd_tx: &[mpsc::Sender<(Lane<M>, SimTime)>],
    res_rx: &[mpsc::Receiver<Lane<M>>],
    lanes: &mut Vec<Lane<M>>,
    wend: SimTime,
) {
    for lane in lanes.drain(..) {
        let shard = lane.shard;
        cmd_tx[shard].send((lane, wend)).expect("worker alive");
    }
    for (i, rx) in res_rx.iter().enumerate() {
        lanes.push(rx.recv().unwrap_or_else(|_| panic!("shard worker {i} died")));
    }
}
