//! Lamport's logical scalar clock (paper §4.2.2, rules SC1–SC3).
//!
//! ```text
//! SC1. When process i executes (senses) a relevant event:
//!        Cᵢ = Cᵢ + 1
//! SC2. When process i executes a send event to send message M:
//!        Cᵢ = Cᵢ + 1;  Send M(Cᵢ)
//! SC3. When process i receives a scalar timestamp T piggybacked on a message:
//!        Cᵢ = max(Cᵢ, T);  Cᵢ = Cᵢ + 1
//! ```
//!
//! Scalar time is *consistent* (e → f ⇒ C(e) < C(f)) but not *strongly
//! consistent*: C(e) < C(f) does not imply e → f, so concurrency cannot be
//! detected — the reason Mattern/Fidge clocks remain strictly more powerful
//! even at Δ = 0 (paper §4.2.3, item 5).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::traits::{Causality, LogicalClock, ProcessId, Timestamp};

/// A Lamport scalar timestamp. The process id is carried alongside so that
/// distinct events never compare `Equal` unless they are the same event;
/// this gives the classic total order `(c, i)` used for tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScalarStamp {
    /// The scalar clock value.
    pub value: u64,
    /// The process that assigned the stamp (total-order tie-break).
    pub process: ProcessId,
}

// What `StrobeScalarClock::on_strobe` takes (see `LogicalClock::on_strobe`).
impl From<ScalarStamp> for Cow<'_, ScalarStamp> {
    fn from(s: ScalarStamp) -> Self {
        Cow::Owned(s)
    }
}

impl Timestamp for ScalarStamp {
    fn causality(&self, other: &Self) -> Causality {
        // Scalars define a total order, not causality: we report the order
        // of the (value, process) pairs. The caller must remember that
        // `Before` here means "ordered before in scalar time", which only
        // *upper-bounds* true causality.
        match (self.value, self.process).cmp(&(other.value, other.process)) {
            core::cmp::Ordering::Less => Causality::Before,
            core::cmp::Ordering::Greater => Causality::After,
            core::cmp::Ordering::Equal => Causality::Equal,
        }
    }

    fn wire_size(&self) -> usize {
        8 // one u64 on the wire; the process id rides in the message header
    }
}

/// Lamport's scalar clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportClock {
    id: ProcessId,
    value: u64,
}

impl LamportClock {
    /// A clock for process `id`, starting at 0.
    pub fn new(id: ProcessId) -> Self {
        LamportClock { id, value: 0 }
    }

    /// The owner process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The raw scalar value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Jump the clock forward to at least `to` without ticking — the
    /// crash-recovery re-prime path: a restarted process replays its durable
    /// log and fast-forwards to the largest value it had assigned, so new
    /// stamps never reuse pre-crash values.
    pub fn fast_forward(&mut self, to: u64) {
        self.value = self.value.max(to);
    }
}

impl LogicalClock for LamportClock {
    type Stamp = ScalarStamp;

    /// SC1.
    fn on_local_event(&mut self) -> ScalarStamp {
        self.value += 1;
        self.current()
    }

    /// SC2.
    fn on_send(&mut self) -> ScalarStamp {
        self.value += 1;
        self.current()
    }

    /// SC3.
    fn on_receive(&mut self, stamp: &ScalarStamp) -> ScalarStamp {
        self.value = self.value.max(stamp.value);
        self.value += 1;
        self.current()
    }

    fn current(&mut self) -> ScalarStamp {
        ScalarStamp { value: self.value, process: self.id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc1_ticks_by_one() {
        let mut c = LamportClock::new(0);
        assert_eq!(c.on_local_event().value, 1);
        assert_eq!(c.on_local_event().value, 2);
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn sc2_ticks_before_send() {
        let mut c = LamportClock::new(1);
        c.on_local_event();
        let sent = c.on_send();
        assert_eq!(sent.value, 2);
        assert_eq!(sent.process, 1);
    }

    #[test]
    fn sc3_max_then_tick() {
        let mut c = LamportClock::new(2);
        c.on_local_event(); // 1
        let incoming = ScalarStamp { value: 10, process: 0 };
        let after = c.on_receive(&incoming);
        assert_eq!(after.value, 11, "max(1,10)+1");
        // Receiving an old stamp still ticks.
        let old = ScalarStamp { value: 3, process: 0 };
        assert_eq!(c.on_receive(&old).value, 12);
    }

    #[test]
    fn consistency_send_receive_orders() {
        // e (send at P0) → f (receive at P1): C(e) < C(f).
        let mut p0 = LamportClock::new(0);
        let mut p1 = LamportClock::new(1);
        for _ in 0..5 {
            p1.on_local_event();
        }
        let e = p0.on_send();
        let f = p1.on_receive(&e);
        assert!(e.value < f.value);
        assert_eq!(e.causality(&f), Causality::Before);
    }

    #[test]
    fn total_order_tie_breaks_on_process() {
        let a = ScalarStamp { value: 4, process: 0 };
        let b = ScalarStamp { value: 4, process: 1 };
        assert_eq!(a.causality(&b), Causality::Before);
        assert_eq!(b.causality(&a), Causality::After);
        assert_eq!(a.causality(&a), Causality::Equal);
    }

    #[test]
    fn scalar_cannot_detect_concurrency() {
        // Two causally unrelated events get *ordered* stamps anyway: the
        // scalar order is a superset of causality (the paper's reason for
        // preferring vectors when concurrency matters).
        let mut p0 = LamportClock::new(0);
        let mut p1 = LamportClock::new(1);
        let e = p0.on_local_event();
        let f = p1.on_local_event();
        let f2 = p1.on_local_event();
        assert_ne!(e.causality(&f), Causality::Concurrent);
        assert_eq!(e.causality(&f2), Causality::Before, "ordered though concurrent");
    }

    #[test]
    fn fast_forward_never_goes_backwards() {
        let mut c = LamportClock::new(0);
        c.fast_forward(10);
        assert_eq!(c.value(), 10);
        c.fast_forward(3);
        assert_eq!(c.value(), 10, "fast-forward is max, not assignment");
        assert_eq!(c.on_local_event().value, 11, "next event stamps past the replayed value");
    }

    #[test]
    fn wire_size_is_constant() {
        let s = ScalarStamp { value: u64::MAX, process: 1000 };
        assert_eq!(s.wire_size(), 8);
    }
}
