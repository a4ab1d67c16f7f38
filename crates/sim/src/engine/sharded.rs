//! The sharded half of the engine: the contiguous actor partition, split
//! once into persistent lanes, and the scoped shard workers that run one
//! advance's lookahead windows. Cross-shard deliveries travel through one
//! channel into each lane, drained by its worker after a window and by the
//! coordinator at every barrier.

use std::sync::{mpsc, RwLock};
use std::thread::Scope;
use std::time::Instant;

use crate::fault::FaultPlane;
use crate::network::NetworkConfig;
use crate::telemetry::{Phase, ShardTelemetry};
use crate::time::SimTime;
use crate::trace::Trace;

use super::lane::Lane;
use super::{feed, Engine, Message, PLANE_POISONED};

impl<M: Message> Engine<M> {
    /// Split the resident lane into the shard count's lanes (see
    /// [`Engine::set_shards`]), once, before the start dispatch: all a lane
    /// holds then is its actors, their fresh streams and counters, and
    /// injected deliveries. Full-size per-actor vectors are cloned into
    /// every lane (cheap: RNG streams are ~32 B) so workers index by global
    /// id. Each lane gets its own inbox and a sender into every lane's
    /// inbox.
    pub(in crate::engine) fn split_lanes(&mut self) {
        let n = self.lanes[0].actors.len();
        let block = n.div_ceil(self.shards.clamp(1, n.max(1))).max(1);
        let k = n.div_ceil(block);
        if k <= 1 || self.network.delay.min_bound().is_zero() {
            return;
        }
        let mut base = self.lanes.pop().expect("one resident lane");
        let owner: Vec<u32> = (0..n).map(|i| (i / block) as u32).collect();
        let (peers, inboxes): (Vec<_>, Vec<_>) = (0..k).map(|_| mpsc::channel()).unzip();
        self.lanes = inboxes
            .into_iter()
            .enumerate()
            .map(|(shard, inbox)| Lane {
                shard,
                now: base.now,
                actors: (0..n).map(|_| None).collect(),
                rngs: base.rngs.clone(),
                net_rngs: base.net_rngs.clone(),
                fault_rngs: base.fault_rngs.clone(),
                loss: base.loss.clone(),
                msg_ctr: base.msg_ctr.clone(),
                timer_ctr: base.timer_ctr.clone(),
                owner: owner.clone(),
                inbox: Some(inbox),
                peers: peers.clone(),
                trace: if base.trace.is_enabled() { Trace::enabled() } else { Trace::disabled() },
                tel: self.m.tel.shard(shard),
                // What the injections before the split raised stays raised.
                in_flight_high: base.in_flight_high,
                queue_high: base.queue_high,
                ..Lane::new()
            })
            .collect();
        for (id, actor) in base.actors.drain(..).enumerate() {
            let lane = &mut self.lanes[owner[id] as usize];
            lane.actors[id] = actor;
            lane.members.push(id);
        }
        for entry in base.queue.drain_entries() {
            feed::admit(&mut self.lanes, entry);
        }
        debug_assert_eq!(
            self.in_flight(),
            base.in_flight as u64,
            "only injections precede the split"
        );
    }
}

/// The shard workers of one advance: a command channel into each, carrying
/// a lane and its window bound, and a result channel back.
pub(in crate::engine) struct Workers<M: Message> {
    cmd_tx: Vec<mpsc::Sender<(Lane<M>, SimTime)>>,
    res_rx: Vec<mpsc::Receiver<Lane<M>>>,
}

impl<M: Message> Workers<M> {
    /// Spawn one worker per telemetry handle in `tels` (one per lane).
    /// Workers exit when the returned value drops and closes their command
    /// channels.
    pub(in crate::engine) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        net: &'env NetworkConfig,
        plane: &'env RwLock<Option<Box<FaultPlane<M>>>>,
        tels: Vec<ShardTelemetry>,
        tel_on: bool,
    ) -> Self {
        let mut cmd_tx = Vec::with_capacity(tels.len());
        let mut res_rx = Vec::with_capacity(tels.len());
        for wtel in tels {
            let (tx, rx) = mpsc::channel::<(Lane<M>, SimTime)>();
            let (res_tx, rres) = mpsc::channel::<Lane<M>>();
            cmd_tx.push(tx);
            res_rx.push(rres);
            // The first wait clock starts on the coordinator side so
            // thread-spawn latency lands in barrier wait — the shard slots
            // then cover the scope's whole lifetime and the profile report
            // can attribute ~all of the run wall.
            let spawn0 = if tel_on { Some(Instant::now()) } else { None };
            scope.spawn(move || {
                let mut wait0 = spawn0;
                loop {
                    // Time blocked on the coordinator as barrier wait —
                    // recorded into the received lane's shard slot, so the
                    // attribution follows the lane even though the clock
                    // read happens before we know which window this is. The
                    // final block on the closing channel goes to `wtel`.
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
                    lane.advance_until(
                        Some(wend),
                        net,
                        plane.read().expect(PLANE_POISONED).as_deref(),
                    );
                    lane.tel.record(Phase::Busy, t0);
                    // Overlap exchange with other lanes' windows: pull
                    // whatever peers have sent so far; the coordinator
                    // finishes the drain at the barrier.
                    let r0 = lane.tel.start();
                    lane.absorb_inbox();
                    lane.tel.record(Phase::Exchange, r0);
                    // Clock the next wait from *before* the send: on a busy
                    // machine the scheduler may run the whole coordinator
                    // barrier between our send and our next statement, and
                    // that time is barrier wait.
                    wait0 = if tel_on { Some(Instant::now()) } else { None };
                    if res_tx.send(lane).is_err() {
                        break;
                    }
                }
            });
        }
        Workers { cmd_tx, res_rx }
    }

    /// Dispatch one parallel window `[·, wend)` to the workers and collect
    /// the lanes back, reusing the `lanes` vector's allocation. Collection
    /// is in shard order from per-worker channels: a worker that panicked
    /// closes its channel, turning a would-be deadlock into an immediate
    /// error (the scope join then re-raises the worker's own panic).
    pub(in crate::engine) fn run_window(&self, lanes: &mut Vec<Lane<M>>, wend: SimTime) {
        for lane in lanes.drain(..) {
            let shard = lane.shard;
            self.cmd_tx[shard].send((lane, wend)).expect("worker alive");
        }
        for (i, rx) in self.res_rx.iter().enumerate() {
            lanes.push(rx.recv().unwrap_or_else(|_| panic!("shard worker {i} died")));
        }
    }
}
