//! The fed timeline: external events handed to the engine once with
//! [`Engine::feed`](super::Engine::feed) and injected by the advance loop as
//! its clock reaches them, so the queue holds only traffic in flight.
//!
//! Each fed event carries the inject id it would have had if it had been
//! [`inject`](super::Engine::inject)ed up front, in list order. Heap order is
//! total on `(time, key)` and blind to insertion time (see [`crate::queue`]),
//! so an event that enters the heap just before the loop would process
//! anything at or after its time pops exactly where it would have popped
//! had it been there from the start.

use std::collections::VecDeque;

use crate::network::ActorId;
use crate::provider::ExternalEvent;
use crate::queue::{event_key, key_class};
use crate::time::SimTime;

use super::lane::Lane;
use super::{host_of, Message, Pending};

/// A fed event as the heap entry it becomes: `(time, canonical key,
/// delivery)`.
type Fed<M> = (SimTime, u64, Pending<M>);

/// The not-yet-injected part of the fed timeline, in time order.
pub(in crate::engine) struct Feed<M> {
    events: VecDeque<Fed<M>>,
}

impl<M> Default for Feed<M> {
    fn default() -> Self {
        Feed { events: VecDeque::new() }
    }
}

impl<M: Message> Feed<M> {
    /// Take `events` with inject ids `first_id, first_id + 1, …` in list
    /// order, then stable-sort the whole feed by time. The list order need
    /// not be time order (a timeline's `events` are public); the ids keep
    /// it, so any order replays like up-front injection. The sort is linear
    /// on an already sorted list.
    pub(in crate::engine) fn extend(&mut self, first_id: u64, events: Vec<ExternalEvent<M>>) {
        self.events.extend(events.into_iter().zip(first_id..).map(|(e, id)| {
            let pending = Pending::Deliver { from: e.from as u32, to: e.to as u32, msg: e.msg, id };
            (e.at, event_key(key_class::DELIVER, id), pending)
        }));
        self.events.make_contiguous().sort_by_key(|e| e.0);
    }

    /// The time of the earliest fed event not yet injected.
    pub(in crate::engine) fn next_at(&self) -> Option<SimTime> {
        self.events.front().map(|e| e.0)
    }

    /// Inject into their owner lanes the leading fed events whose time is
    /// `due`.
    pub(in crate::engine) fn admit_while(
        &mut self,
        lanes: &mut [Lane<M>],
        due: impl Fn(SimTime) -> bool,
    ) {
        while self.next_at().is_some_and(&due) {
            let fed = self.events.pop_front().expect("peeked");
            admit(lanes, fed);
        }
    }

    /// Inject every fed delivery `pred(from, to)` selects, wherever it lies
    /// in the timeline: a partition cut intercepts these like the in-flight
    /// messages already queued.
    pub(in crate::engine) fn admit_matching(
        &mut self,
        lanes: &mut [Lane<M>],
        mut pred: impl FnMut(ActorId, ActorId) -> bool,
    ) {
        let (hit, kept): (VecDeque<_>, VecDeque<_>) =
            std::mem::take(&mut self.events).into_iter().partition(|(.., p)| {
                matches!(p, Pending::Deliver { from, to, .. }
                    if pred(*from as ActorId, *to as ActorId))
            });
        self.events = kept;
        for fed in hit {
            admit(lanes, fed);
        }
    }

    /// Inject everything left: the events a run never reached (past its
    /// end time) stay in flight as if injected up front.
    pub(in crate::engine) fn admit_rest(&mut self, lanes: &mut [Lane<M>]) {
        for fed in self.events.drain(..) {
            admit(lanes, fed);
        }
    }
}

/// Schedule one external delivery in the lane that owns its destination.
pub(in crate::engine) fn admit<M: Message>(lanes: &mut [Lane<M>], (at, key, pending): Fed<M>) {
    let Pending::Deliver { to, .. } = &pending else {
        unreachable!("external events are deliveries")
    };
    let h = host_of(lanes, *to as ActorId);
    lanes[h].admit(at, key, pending);
}
