//! Event providers: where externally injected events come from.
//!
//! The batch pipeline pre-builds a world timeline and hands it to
//! [`Engine::feed`](crate::engine::Engine::feed), which injects each event
//! as the run's clock reaches it. A long-running service instead advances
//! the engine **incrementally**
//! ([`Engine::step_until`](crate::engine::Engine::step_until)) and pulls
//! events from whatever source it has — a pre-built timeline or a live
//! channel fed by other threads. [`EventProvider`] abstracts the source so
//! the same driver loop serves both:
//!
//! - [`TimelineProvider`] — a pre-built event list (a timeline-fed or
//!   restored live session);
//! - [`ChannelProvider`] — events arriving over an `mpsc` channel from
//!   other threads.
//!
//! The contract mirrors the engine's stepping watermark: `poll(up_to)`
//! surrenders every available event with `at < up_to`, in the order the
//! source produced them. The driver injects them (typically via
//! `try_inject`, so a source that emits an event behind the engine clock
//! gets a typed error, not a panic) and then steps the engine to `up_to`.

use std::sync::mpsc::{Receiver, TryRecvError};

use crate::engine::Message;
use crate::network::ActorId;
use crate::time::SimTime;

/// One externally supplied event: deliver `msg` to `to` at simulation time
/// `at`, bypassing the network's delay/loss models (the source is outside
/// the network plane — a world sensor, a wire client, a replayed log).
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalEvent<M> {
    /// Delivery time (ground truth).
    pub at: SimTime,
    /// Destination actor.
    pub to: ActorId,
    /// Conventional source id (often the destination itself for
    /// world-plane sense events).
    pub from: ActorId,
    /// The payload.
    pub msg: M,
}

/// A source of externally injected events, polled by watermark.
pub trait EventProvider<M: Message>: Send {
    /// Append every available event with `at < up_to` to `sink`, in source
    /// order. Events at or past `up_to` stay with the provider for a later
    /// poll. May be called with a non-decreasing `up_to` sequence only.
    fn poll(&mut self, up_to: SimTime, sink: &mut Vec<ExternalEvent<M>>);

    /// True when the source will never yield another event (list drained,
    /// or channel disconnected and buffer empty). A live
    /// channel with connected senders is never exhausted.
    fn exhausted(&self) -> bool;
}

/// A pre-built event list, polled by a live session.
///
/// Events are yielded in list order; for incremental polling the list must
/// be non-decreasing in `at` (a pre-built world timeline is). One
/// unbounded poll yields the whole list in list order, the order
/// [`Engine::feed`](crate::engine::Engine::feed) numbers a batch timeline
/// in.
pub struct TimelineProvider<M> {
    events: Vec<ExternalEvent<M>>,
    cursor: usize,
}

impl<M> TimelineProvider<M> {
    /// Wrap a pre-built event list.
    pub fn new(events: Vec<ExternalEvent<M>>) -> Self {
        TimelineProvider { events, cursor: 0 }
    }
}

impl<M: Message> EventProvider<M> for TimelineProvider<M> {
    fn poll(&mut self, up_to: SimTime, sink: &mut Vec<ExternalEvent<M>>) {
        while self.cursor < self.events.len() && self.events[self.cursor].at < up_to {
            sink.push(self.events[self.cursor].clone());
            self.cursor += 1;
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor == self.events.len()
    }
}

/// Events arriving over a channel from other threads (live wire ingest).
///
/// `poll` drains whatever has arrived so far; events at or past the
/// watermark are buffered (in arrival order) for later polls. The provider
/// is exhausted only once every sender is dropped *and* the buffer is
/// empty.
pub struct ChannelProvider<M> {
    rx: Receiver<ExternalEvent<M>>,
    /// Arrived but not yet due (in arrival order).
    buffer: Vec<ExternalEvent<M>>,
    disconnected: bool,
}

impl<M> ChannelProvider<M> {
    /// Wrap the receiving half of an ingest channel.
    pub fn new(rx: Receiver<ExternalEvent<M>>) -> Self {
        ChannelProvider { rx, buffer: Vec::new(), disconnected: false }
    }

    /// Events buffered past the last watermark.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

impl<M: Message> EventProvider<M> for ChannelProvider<M> {
    fn poll(&mut self, up_to: SimTime, sink: &mut Vec<ExternalEvent<M>>) {
        loop {
            match self.rx.try_recv() {
                Ok(ev) => self.buffer.push(ev),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        // A stable partition in place: the due events leave in arrival
        // order, the rest close up behind them and the buffer keeps its
        // capacity.
        sink.extend(self.buffer.extract_if(.., |ev| ev.at < up_to));
    }

    fn exhausted(&self) -> bool {
        self.disconnected && self.buffer.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[derive(Clone, Debug, PartialEq)]
    struct Tick(u64);
    impl Message for Tick {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    fn ev(ms: u64, k: u64) -> ExternalEvent<Tick> {
        ExternalEvent { at: SimTime::from_millis(ms), to: 0, from: 0, msg: Tick(k) }
    }

    #[test]
    fn timeline_provider_respects_the_watermark() {
        let mut p = TimelineProvider::new(vec![ev(10, 0), ev(20, 1), ev(30, 2)]);
        let mut sink = Vec::new();
        p.poll(SimTime::from_millis(20), &mut sink);
        assert_eq!(sink.len(), 1, "events at the watermark stay pending");
        assert!(!p.exhausted());
        p.poll(SimTime::from_millis(31), &mut sink);
        assert_eq!(sink.len(), 3);
        assert!(p.exhausted());
        assert_eq!(sink, vec![ev(10, 0), ev(20, 1), ev(30, 2)]);
    }

    #[test]
    fn one_max_poll_reproduces_the_batch_sequence() {
        let events = vec![ev(10, 0), ev(20, 1), ev(15, 2)]; // list order, not time order
        let mut p = TimelineProvider::new(events.clone());
        let mut sink = Vec::new();
        p.poll(SimTime::MAX, &mut sink);
        assert_eq!(sink, events, "one unbounded poll yields the list order, not time order");
        assert!(p.exhausted());
    }

    #[test]
    fn channel_provider_buffers_past_watermark_until_due() {
        let (tx, rx) = mpsc::channel();
        let mut p = ChannelProvider::new(rx);
        tx.send(ev(5, 0)).unwrap();
        tx.send(ev(50, 1)).unwrap();
        let mut sink = Vec::new();
        p.poll(SimTime::from_millis(10), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(p.buffered(), 1);
        assert!(!p.exhausted());
        drop(tx);
        p.poll(SimTime::from_millis(10), &mut sink);
        assert!(!p.exhausted(), "buffered events keep the source alive");
        p.poll(SimTime::from_millis(60), &mut sink);
        assert_eq!(sink.len(), 2);
        assert!(p.exhausted(), "disconnected and drained");

        // Interleaved polls and arrivals, on a fresh channel.
        let (tx, rx) = mpsc::channel();
        let mut p = ChannelProvider::new(rx);
        let mut sink = Vec::new();
        // Arrival order is not time order; each poll also brings arrivals.
        for (ms, k) in [(40, 0), (5, 1), (30, 2), (10, 3)] {
            tx.send(ev(ms, k)).unwrap();
        }
        p.poll(SimTime::from_millis(20), &mut sink);
        assert_eq!(sink, vec![ev(5, 1), ev(10, 3)]);
        assert_eq!(p.buffered(), 2);
        for (ms, k) in [(25, 4), (50, 5), (20, 6)] {
            tx.send(ev(ms, k)).unwrap();
        }
        // The watermark sits exactly on an event, as an `Advance` to the last
        // ingested event's time does: that event stays buffered.
        p.poll(SimTime::from_millis(30), &mut sink);
        assert_eq!(sink[2..], [ev(25, 4), ev(20, 6)], "due arrivals leave in arrival order");
        assert_eq!(p.buffered(), 3);
        // Five events were held at once during the poll; a buffer rebuilt
        // from the three kept ones would have room for four.
        assert!(p.buffer.capacity() >= 5, "the partition keeps the buffer's capacity");
        p.poll(SimTime::from_millis(30), &mut sink);
        assert_eq!(sink.len(), 4, "a repeated watermark releases nothing new");
        tx.send(ev(45, 7)).unwrap();
        drop(tx);
        p.poll(SimTime::from_millis(60), &mut sink);
        let order: Vec<u64> = sink[4..].iter().map(|e| e.msg.0).collect();
        assert_eq!(order, vec![0, 2, 5, 7], "buffered events keep their arrival order");
        assert!(p.exhausted());
    }
}
