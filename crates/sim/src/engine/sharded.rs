//! The sharded driver: shard plans, the lookahead-window coordinator of
//! [`Engine::run_with_plan`], the SPSC exchange rings and outbox routing.

use crate::fault::{FaultPlane, FaultStats};
use crate::network::{ActorId, NetStats};
use crate::queue::EventQueue;
use crate::telemetry::{Phase, ShardTelemetry};
use crate::time::SimTime;
use crate::trace::Trace;

use super::lane::{FifoStore, Lane};
use super::{apply_plane_op, collect_parked, next_stop, Engine, Message, Pending, Stop};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

/// Slots per exchange ring (per directed shard pair). Overflow spills to
/// the outbox, so this bounds memory, not correctness.
pub(in crate::engine) const RING_CAPACITY: usize = 1024;

/// An explicit assignment of actors to shards for
/// [`Engine::run_with_plan`]. Plans are pure data: the same plan always
/// yields the same partition, and *any* plan yields the same run (that is
/// the whole point — see the shard-count-invariance proptest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    owner: Vec<u32>,
}

impl ShardPlan {
    /// `n` actors in `shards` contiguous blocks of `ceil(n / shards)`.
    /// Contiguity keeps neighbour-heavy topologies (rings, grids) mostly
    /// intra-shard.
    pub fn contiguous(n: usize, shards: usize) -> Self {
        let k = shards.clamp(1, n.max(1));
        let block = n.div_ceil(k).max(1);
        ShardPlan { owner: (0..n).map(|i| (i / block) as u32).collect() }
    }

    /// Round-robin: actor `i` goes to shard `i % shards`. Balances load
    /// when activity correlates with id ranges.
    pub fn interleaved(n: usize, shards: usize) -> Self {
        let k = shards.clamp(1, n.max(1));
        ShardPlan { owner: (0..n).map(|i| (i % k) as u32).collect() }
    }

    /// Deterministic hash partition (splitmix64 of the actor id), for
    /// statistically balanced shards independent of id structure.
    pub fn by_hash(n: usize, shards: usize) -> Self {
        let k = shards.clamp(1, n.max(1)) as u64;
        let owner = (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % k) as u32
            })
            .collect();
        ShardPlan { owner }
    }

    /// Traffic-aware partition: cluster actors so that heavily communicating
    /// pairs co-locate, then bin-pack clusters onto shards. `edges` is an
    /// undirected affinity graph `(a, b, weight)` — typically per-channel
    /// message counts from [`crate::trace_analysis::TraceAnalysis::affinity_edges`]
    /// or a static estimate from the workload shape.
    ///
    /// The algorithm is a deterministic greedy edge merge: edges sorted by
    /// `(weight desc, a, b)` union their endpoint clusters while the merged
    /// cluster stays within `ceil(n / shards)` actors, then clusters are
    /// placed largest-first onto the least-loaded shard (lowest index on
    /// ties). Like every plan, the result only shapes *performance* — any
    /// plan yields the bit-identical run.
    pub fn by_affinity(n: usize, shards: usize, edges: &[(ActorId, ActorId, u64)]) -> Self {
        let k = shards.clamp(1, n.max(1));
        if n == 0 {
            return ShardPlan { owner: Vec::new() };
        }
        let cap = n.div_ceil(k).max(1);

        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let g = parent[parent[x as usize] as usize];
                parent[x as usize] = g;
                x = g;
            }
            x
        }

        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut csize = vec![1u32; n];
        let mut es: Vec<(u32, u32, u64)> = edges
            .iter()
            .filter(|&&(a, b, w)| a < n && b < n && a != b && w > 0)
            .map(
                |&(a, b, w)| if a <= b { (a as u32, b as u32, w) } else { (b as u32, a as u32, w) },
            )
            .collect();
        es.sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        for (a, b, _) in es {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb && (csize[ra as usize] + csize[rb as usize]) as usize <= cap {
                // Root the merge at the lower id so cluster identity is
                // independent of edge processing order among equals.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
                csize[lo as usize] += csize[hi as usize];
            }
        }

        // Gather clusters in ascending-root order, then place largest-first
        // (stable sort keeps the ascending-root tie-break deterministic).
        let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
        for i in 0..n as u32 {
            let r = find(&mut parent, i);
            members.entry(r).or_default().push(i);
        }
        let mut clusters: Vec<(u32, Vec<u32>)> = members.into_iter().collect();
        clusters.sort_unstable_by_key(|(root, _)| *root);
        clusters.sort_by_key(|(_, m)| std::cmp::Reverse(m.len()));

        let mut owner = vec![0u32; n];
        let mut load = vec![0usize; k];
        for (_, m) in clusters {
            let s = (0..k).min_by_key(|&s| (load[s], s)).unwrap();
            load[s] += m.len();
            for a in m {
                owner[a as usize] = s as u32;
            }
        }
        ShardPlan { owner }
    }

    /// An explicit `actor → shard` map. Panics if empty.
    pub fn explicit(owner: Vec<u32>) -> Self {
        assert!(!owner.is_empty(), "ShardPlan::explicit: empty owner map");
        ShardPlan { owner }
    }

    /// Number of shards this plan spreads actors over.
    pub fn shard_count(&self) -> usize {
        self.owner.iter().copied().max().map_or(1, |m| m as usize + 1)
    }

    /// The owning shard of each actor, indexed by actor id.
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }
}

impl<M: Message> Engine<M> {
    /// Shorthand for [`Engine::run_with_plan`] over a
    /// [`ShardPlan::contiguous`] partition into `shards` shards.
    pub fn run_sharded(&mut self, shards: usize) -> SimTime {
        self.run_with_plan(&ShardPlan::contiguous(self.lane.actors.len(), shards))
    }

    /// Run with actors partitioned across shard worker threads, advancing
    /// all shards concurrently through lookahead-bounded windows. The
    /// result — delivered-event sequence, per-actor RNG draws, trace,
    /// stats, fault effects — is **bit-identical** to [`Engine::run`].
    ///
    /// Falls back to the sequential loop when the plan has one shard, the
    /// network's lookahead ([`crate::delay::DelayModel::min_bound`]) is
    /// zero, or there are no actors. Like `run`, one call consumes the
    /// pending timeline; alternating `run`/`run_with_plan` calls on one
    /// engine is supported (state merges back into the resident lane).
    ///
    /// Caveat: [`super::Context::halt`] stops a sharded run at the end of the
    /// window (or start batch) that observed it, not mid-window — halting
    /// protocols should keep using `run`. `now()` still reports the halting
    /// lane's time.
    pub fn run_with_plan(&mut self, plan: &ShardPlan) -> SimTime {
        let n = self.lane.actors.len();
        let lookahead = self.network.delay.min_bound();
        let k = plan.shard_count().min(n.max(1));
        if k <= 1 || n == 0 || lookahead.is_zero() {
            return self.run();
        }
        assert!(
            plan.owner().len() >= n,
            "ShardPlan covers {} actors but engine has {n}",
            plan.owner().len()
        );
        let wall_start = Instant::now();
        let events_before = self.lane.events_processed;
        self.lane.trace.configure_actors(n);

        let mut lanes = self.split_lanes(plan.owner(), k);
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
        let mut outbox_scratch: Vec<(SimTime, u64, Pending<M>)> = Vec::new();

        // Start dispatches run on the coordinator, per lane in shard order;
        // canonical start cursors make the resulting records order by actor
        // id regardless. Like the sequential path, starts fire once per
        // engine, not once per run.
        if !self.started {
            self.started = true;
            let guard = plane_lock.read();
            for lane in &mut lanes {
                lane.dispatch_starts(net, guard.as_deref());
            }
        }
        route_outboxes(&mut lanes, &mut outbox_scratch);

        // One SPSC exchange ring per directed shard pair; the outbox is the
        // spill path when a ring is full.
        for lane in &mut lanes {
            lane.ring_out = (0..k).map(|_| None).collect();
            lane.ring_in = (0..k).map(|_| None).collect();
        }
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    let (tx, rx) = crate::ring::spsc(RING_CAPACITY);
                    lanes[i].ring_out[j] = Some(tx);
                    lanes[j].ring_in[i] = Some(rx);
                }
            }
        }

        // The serial prefix (lane split, start dispatch, plan routing) is
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
                        // whatever peers have published so far; the
                        // coordinator finishes the drain at the barrier.
                        let r0 = lane.tel.start();
                        lane.absorb_rings();
                        lane.tel.record(Phase::RingExchange, r0);
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
                        // whose sends target other shards; route them now so
                        // the next stop sees them — left in a ring or an
                        // outbox they would surface after the destination
                        // lane advanced past their delivery time. Workers are
                        // idle at an op barrier, so the ring drain is
                        // exhaustive.
                        let d0 = coord_tel.start();
                        for lane in &mut lanes {
                            lane.absorb_rings();
                        }
                        route_outboxes(&mut lanes, &mut outbox_scratch);
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
                        // Producers are quiescent at the barrier, so this
                        // coordinator drain (after the workers' own
                        // overlapped absorb) is exhaustive.
                        let d0 = coord_tel.start();
                        for lane in &mut lanes {
                            lane.absorb_rings();
                        }
                        route_outboxes(&mut lanes, &mut outbox_scratch);
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
        // Serial suffix: parked-message collection, ring teardown, lane
        // merge — coordinator busy time again (see the prefix span above).
        let suffix0 = coord_tel.start();

        self.op_cursor = op_cursor;
        let mut plane = plane_lock.into_inner();
        if let Some(p) = plane.as_deref_mut() {
            collect_parked(&mut lanes, p);
        }
        self.fault = plane;
        for lane in &mut lanes {
            // Rings are drained at every barrier, so dropping the handles
            // here cannot lose events.
            debug_assert!(lane.ring_in.iter_mut().flatten().all(|r| r.is_empty()));
            if tel_on {
                // Worst occupancy this lane's producers ever observed —
                // the capacity-pressure signal behind `engine.ring_spills`.
                let hw = lane.ring_out.iter().flatten().map(|p| p.high_water()).max();
                if let Some(hw) = hw {
                    lane.tel.record_ring_high_water(hw as u64);
                }
            }
            lane.ring_out.clear();
            lane.ring_in.clear();
        }
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
    /// (cheap: RNG streams are ~32 B) so workers index by global id.
    fn split_lanes(&mut self, owner: &[u32], k: usize) -> Vec<Lane<M>> {
        let n = self.lane.actors.len();
        let tel = &self.tel;
        let base = &mut self.lane;
        let mut lanes: Vec<Lane<M>> = (0..k)
            .map(|shard| Lane {
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
                owner: owner[..n].to_vec(),
                outbox: Vec::new(),
                ring_out: Vec::new(),
                ring_in: Vec::new(),
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
    /// any leftover queue entries.
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

/// Route every lane's outbox into the destination lanes' heaps. Arrival
/// order into a heap is immaterial — heap order is total on
/// `(time, canonical key)` — so no sort is needed. `scratch` is a
/// coordinator-owned buffer swapped with each non-empty outbox so the
/// steady state allocates nothing (capacities circulate between the
/// coordinator and the lanes instead of being dropped every barrier).
fn route_outboxes<M: Message>(
    lanes: &mut [Lane<M>],
    scratch: &mut Vec<(SimTime, u64, Pending<M>)>,
) {
    debug_assert!(scratch.is_empty());
    for li in 0..lanes.len() {
        if lanes[li].outbox.is_empty() {
            continue;
        }
        std::mem::swap(&mut lanes[li].outbox, scratch);
        for (at, key, p) in scratch.drain(..) {
            let dest = match &p {
                Pending::Deliver { to, .. } => lanes[li].owner[*to as usize] as usize,
                Pending::Timer { actor, .. } => lanes[li].owner[*actor as usize] as usize,
            };
            lanes[dest].queue.schedule_keyed(at, key, p);
        }
    }
}
