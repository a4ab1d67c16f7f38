//! The pending-event queue.
//!
//! A binary min-heap keyed on `(time, key)`. The key is a 64-bit **canonical
//! event key**: a 2-bit class in the top bits (fault ops < deliveries <
//! timers < plain sequence numbers) over a 62-bit payload that is unique
//! within the class (message id, `(actor, timer-counter)`, op index, or a
//! schedule-order counter). Because the key is derived from event *content*
//! rather than from the order in which events happened to be scheduled, the
//! pop order of a set of events is independent of the order and the thread
//! the events were scheduled from — the property the sharded engine relies
//! on to stay bit-identical to the sequential one. `schedule` (without an
//! explicit key) falls back to a schedule-order counter, which reproduces
//! the classic "earlier-scheduled fires earlier" tie-break.
//!
//! Payloads live in a slab (`Vec<Option<E>>` plus a LIFO free list) and the
//! heap orders 24-byte `(time, key, slot)` entries, so a sift moves keys,
//! never messages: each payload is written once on schedule and read once on
//! pop. The order compares `(time, key)` only, exactly as when the heap held
//! the payloads, so every pop order is unchanged.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Class bits for canonical event keys (top 2 bits of the `u64`).
pub(crate) mod key_class {
    /// Fault-plane operations fire before anything else at the same instant.
    pub(crate) const FAULT: u64 = 0;
    /// Message deliveries; payload is the (globally unique) message id.
    pub(crate) const DELIVER: u64 = 1;
    /// Timer firings; payload is `(actor << 40) | timer_counter`.
    pub(crate) const TIMER: u64 = 2;
    /// Schedule-order fallback: tests key simultaneous events by a sequence number.
    pub(crate) const SEQ: u64 = 3;
}

/// Mask for the 62-bit key payload.
pub(crate) const KEY_PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// Build a canonical event key from a class and a payload unique within it.
#[inline]
pub(crate) fn event_key(class: u64, payload: u64) -> u64 {
    debug_assert!(class <= key_class::SEQ);
    (class << 62) | (payload & KEY_PAYLOAD_MASK)
}

/// A heap entry: the order key and the slab slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    key: u64,
    slot: u32,
}

// A sift moves entries, so their size is the heap's per-level cost.
const _: () = assert!(std::mem::size_of::<Entry>() <= 24);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Payload storage: one slot per pending event, vacated
/// slots reused last-in first-out, so a queue at steady depth never grows.
#[derive(Debug)]
struct Slab<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn insert(&mut self, payload: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(payload);
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
        self.slots.push(Some(payload));
        slot
    }

    fn get(&self, slot: u32) -> &E {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn take(&mut self, slot: u32) -> E {
        let payload = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        payload
    }
}

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    slab: Slab<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), slab: Slab { slots: Vec::new(), free: Vec::new() } }
    }

    /// Schedule `payload` at `at` under an explicit canonical key (see
    /// [`event_key`]). Keys must be unique per `(at, key)` for the order to
    /// be total; the engine derives them from message ids / timer counters,
    /// which are.
    pub(crate) fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        self.heap.push(Entry { at, key, slot: self.slab.insert(payload) });
    }

    /// The time of the next pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Remove **all** pending events and return them as `(time, key,
    /// payload)` in fire order. Used to re-partition a queue across shards.
    pub(crate) fn drain_entries(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable_by_key(|e| (e.at, e.key));
        let out = entries.into_iter().map(|e| (e.at, e.key, self.slab.take(e.slot))).collect();
        // Every slot is vacant now; start the slab over at its capacity.
        self.slab.slots.clear();
        self.slab.free.clear();
        out
    }

    /// Remove every pending event matching `pred` and return them as
    /// `(time, key, payload)` in fire order, keys included so the caller
    /// can merge drains from several shard queues into one deterministic
    /// order. Rebuilds the heap — a cold operation, used by the fault plane
    /// to intercept in-flight messages when a partition cut activates.
    pub(crate) fn drain_entries_matching(
        &mut self,
        pred: &mut impl FnMut(&E) -> bool,
    ) -> Vec<(SimTime, u64, E)> {
        let mut kept = std::mem::take(&mut self.heap).into_vec();
        let slab = &self.slab;
        let mut out: Vec<Entry> = kept.extract_if(.., |e| pred(slab.get(e.slot))).collect();
        self.heap = BinaryHeap::from(kept);
        out.sort_unstable_by_key(|e| (e.at, e.key));
        out.into_iter().map(|e| (e.at, e.key, self.slab.take(e.slot))).collect()
    }

    /// Remove and return the earliest event as `(time, key, payload)`.
    pub(crate) fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let e = self.heap.pop()?;
        Some((e.at, e.key, self.slab.take(e.slot)))
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Self::drain_entries_matching`] without the keys: the matching
    /// events in `(time, key)` order, i.e. the order they would have fired.
    pub(crate) fn drain_matching(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<(SimTime, E)> {
        self.drain_entries_matching(&mut pred).into_iter().map(|(at, _, e)| (at, e)).collect()
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(at, _, p)| (at, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schedule `payload` under sequence number `seq`: simultaneous events
    /// fire in `seq` order.
    fn schedule<E>(q: &mut EventQueue<E>, at: SimTime, seq: u64, payload: E) {
        q.schedule_keyed(at, event_key(key_class::SEQ, seq), payload);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        schedule(&mut q, SimTime::from_millis(30), 0, "c");
        schedule(&mut q, SimTime::from_millis(10), 1, "a");
        schedule(&mut q, SimTime::from_millis(20), 2, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            schedule(&mut q, t, i, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_break_by_key_not_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        // Schedule in descending key order; pops must come back ascending.
        for i in (0..50u64).rev() {
            q.schedule_keyed(t, event_key(key_class::DELIVER, i), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn classes_order_fault_before_deliver_before_timer() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule_keyed(t, event_key(key_class::TIMER, 0), "timer");
        q.schedule_keyed(t, event_key(key_class::DELIVER, 0), "deliver");
        q.schedule_keyed(t, event_key(key_class::FAULT, 0), "fault");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["fault", "deliver", "timer"]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        schedule(&mut q, SimTime::from_millis(10), 0, 1);
        schedule(&mut q, SimTime::from_millis(30), 1, 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        schedule(&mut q, SimTime::from_millis(20), 2, 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        schedule(&mut q, SimTime::from_secs(1), 0, ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn drain_matching_removes_and_orders_matches() {
        let mut q = EventQueue::new();
        schedule(&mut q, SimTime::from_millis(30), 0, 30);
        schedule(&mut q, SimTime::from_millis(10), 1, 10);
        schedule(&mut q, SimTime::from_millis(20), 2, 21);
        schedule(&mut q, SimTime::from_millis(20), 3, 20);
        let odd = q.drain_matching(|&p| p % 2 == 1);
        assert_eq!(odd, vec![(SimTime::from_millis(20), 21)]);
        assert_eq!(q.len(), 3, "non-matching events stay");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![10, 20, 30], "heap order survives the rebuild");
    }

    #[test]
    fn drain_matching_preserves_fire_order_among_matches() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            schedule(&mut q, t, i, i);
        }
        let all = q.drain_matching(|_| true);
        assert!(q.is_empty());
        assert_eq!(all.iter().map(|&(_, p)| p).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_entries_returns_everything_in_fire_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_millis(20), event_key(key_class::DELIVER, 7), "late");
        q.schedule_keyed(SimTime::from_millis(10), event_key(key_class::TIMER, 1), "t");
        q.schedule_keyed(SimTime::from_millis(10), event_key(key_class::DELIVER, 3), "d");
        let all = q.drain_entries();
        assert!(q.is_empty());
        assert_eq!(all.iter().map(|&(_, _, p)| p).collect::<Vec<_>>(), vec!["d", "t", "late"]);
        // Keys round-trip so the entries can be rescheduled verbatim.
        assert_eq!(all[0].1, event_key(key_class::DELIVER, 3));
    }

    #[test]
    fn steady_state_loop_never_grows_the_slab() {
        // Fill to depth 64, then pop one and schedule one: every schedule
        // reuses the slot its pop vacated.
        let mut q = EventQueue::new();
        let mut rng = crate::rng::RngFactory::new(7).stream(0);
        let mut later =
            |now: SimTime| SimTime::from_nanos(now.as_nanos() + rng.uniform_u64(1, 1_000));
        for i in 0..64 {
            schedule(&mut q, later(SimTime::ZERO), i, i);
        }
        assert_eq!(q.slab.slots.len(), 64);
        for i in 0..10_000 {
            let (now, _) = q.pop().expect("depth stays 64");
            schedule(&mut q, later(now), 64 + i, i);
            assert_eq!(q.slab.slots.len(), 64, "iteration {i} grew the slab");
        }
    }

    /// The differential property: the slab queue against a sorted-`Vec`
    /// model of the same operations, with payloads that count themselves.
    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::cell::Cell;
        use std::rc::Rc;

        /// A payload that keeps a count of its live instances, so a leaked
        /// or doubly-kept payload shows as a count above what the model
        /// says the queue holds.
        #[derive(Debug)]
        struct Tracked {
            id: u64,
            live: Rc<Cell<i64>>,
        }

        impl Tracked {
            fn new(id: u64, live: &Rc<Cell<i64>>) -> Self {
                live.set(live.get() + 1);
                Tracked { id, live: Rc::clone(live) }
            }
        }

        impl Drop for Tracked {
            fn drop(&mut self) {
                self.live.set(self.live.get() - 1);
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Schedule(u64),
            ScheduleKeyed(u64, u64),
            Pop,
            Peek,
            DrainMatching(u64),
            DrainEntries,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..12).prop_map(Op::Schedule),
                (0u64..12, 0u64..3).prop_map(|(at, class)| Op::ScheduleKeyed(at, class)),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Peek),
                (2u64..5).prop_map(Op::DrainMatching),
                Just(Op::DrainEntries),
            ]
        }

        /// The reference: pending `(at, key, id)` kept sorted.
        #[derive(Debug, Default)]
        struct Model {
            pending: Vec<(SimTime, u64, u64)>,
            next_seq: u64,
        }

        impl Model {
            fn schedule_keyed(&mut self, at: SimTime, key: u64, id: u64) {
                let i = self.pending.partition_point(|&(a, k, _)| (a, k) < (at, key));
                self.pending.insert(i, (at, key, id));
            }
        }

        fn run(ops: &[Op]) {
            let live = Rc::new(Cell::new(0i64));
            let mut q: EventQueue<Tracked> = EventQueue::new();
            let mut m = Model::default();
            let mut ids = 0u64;
            // Keys unique across the whole run but not monotone in schedule
            // order: an odd multiplier is a bijection on the low 32 bits.
            let mut keyed = 0u64;
            for op in ops {
                match *op {
                    Op::Schedule(ms) => {
                        let at = SimTime::from_millis(ms);
                        let key = event_key(key_class::SEQ, m.next_seq);
                        m.next_seq += 1;
                        q.schedule_keyed(at, key, Tracked::new(ids, &live));
                        m.schedule_keyed(at, key, ids);
                        ids += 1;
                    }
                    Op::ScheduleKeyed(ms, class) => {
                        let at = SimTime::from_millis(ms);
                        let key = event_key(class, keyed.wrapping_mul(0x9e37_79b9) & 0xffff_ffff);
                        keyed += 1;
                        q.schedule_keyed(at, key, Tracked::new(ids, &live));
                        m.schedule_keyed(at, key, ids);
                        ids += 1;
                    }
                    Op::Pop => {
                        let got = q.pop_entry().map(|(at, key, p)| (at, key, p.id));
                        let want = (!m.pending.is_empty()).then(|| m.pending.remove(0));
                        assert_eq!(got, want, "pop");
                    }
                    Op::Peek => {
                        assert_eq!(q.peek_time(), m.pending.first().map(|e| e.0), "peek");
                    }
                    Op::DrainMatching(modulus) => {
                        let got: Vec<_> = q
                            .drain_matching(|p| p.id % modulus == 0)
                            .into_iter()
                            .map(|(at, p)| (at, p.id))
                            .collect();
                        let (hit, kept) = m.pending.iter().partition(|e| e.2 % modulus == 0);
                        let hit: Vec<(SimTime, u64, u64)> = hit;
                        m.pending = kept;
                        assert_eq!(got, hit.iter().map(|e| (e.0, e.2)).collect::<Vec<_>>());
                    }
                    Op::DrainEntries => {
                        // Drain and reschedule verbatim, as the sharded
                        // engine's lane split and merge do.
                        let all = q.drain_entries();
                        assert!(q.is_empty());
                        let got: Vec<_> = all.iter().map(|(at, k, p)| (*at, *k, p.id)).collect();
                        assert_eq!(got, m.pending, "drain_entries");
                        for (at, key, p) in all {
                            q.schedule_keyed(at, key, p);
                        }
                    }
                }
                assert_eq!(q.len(), m.pending.len(), "len after {op:?}");
                assert_eq!(live.get(), m.pending.len() as i64, "live payloads after {op:?}");
            }
            drop(q);
            assert_eq!(live.get(), 0, "every payload dropped exactly once");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn slab_queue_matches_sorted_vec_model(ops in collection::vec(op(), 1..160)) {
                run(&ops);
            }
        }
    }
}
