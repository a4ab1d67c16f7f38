//! Strobe scalar clocks (paper §4.2.2, rules SSC1–SSC2).
//!
//! ```text
//! SSC1. When process i executes (senses) a relevant event:
//!         Cᵢ = Cᵢ + 1;  System-wide_Broadcast(Cᵢ)
//! SSC2. When process i receives a strobe T:
//!         Cᵢ = max(Cᵢ, T)
//! ```
//!
//! Unlike a Lamport clock, the receiver **does not tick** on a strobe: the
//! strobe is a pure synchronization ("catch up") message, not a causal
//! event. The strobe is O(1) on the wire — lightweight, but weaker than the
//! strobe vector clock: in the presence of races it can produce both false
//! negatives *and* false positives in predicate detection (paper §3.3).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::lamport::ScalarStamp;
use crate::traits::{LogicalClock, ProcessId};

/// A strobe scalar clock.
///
/// Timestamps are [`ScalarStamp`]s — the same representation as Lamport
/// stamps, but produced under the strobe rules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrobeScalarClock {
    id: ProcessId,
    value: u64,
}

impl StrobeScalarClock {
    /// A clock for process `id`, starting at 0.
    pub fn new(id: ProcessId) -> Self {
        StrobeScalarClock { id, value: 0 }
    }

    /// The owner process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The raw scalar value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl LogicalClock for StrobeScalarClock {
    type Stamp = ScalarStamp;

    /// SSC1: tick; the caller must then broadcast [`Self::current`] to all
    /// other processes (the protocol's `System-wide_Broadcast(Cᵢ)`).
    fn on_local_event(&mut self) -> ScalarStamp {
        self.value += 1;
        self.current()
    }

    /// SSC2: catch up to the strobe **without ticking**.
    fn on_strobe<'a>(&mut self, stamp: impl Into<Cow<'a, ScalarStamp>>) {
        self.value = self.value.max(stamp.into().value);
    }

    fn current(&mut self) -> ScalarStamp {
        ScalarStamp { value: self.value, process: self.id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Causality;
    use crate::traits::Timestamp;

    #[test]
    fn ssc1_ticks() {
        let mut c = StrobeScalarClock::new(0);
        assert_eq!(c.on_local_event().value, 1);
        assert_eq!(c.on_local_event().value, 2);
    }

    #[test]
    fn ssc2_catches_up_without_tick() {
        let mut c = StrobeScalarClock::new(1);
        c.on_local_event(); // 1
        c.on_strobe(ScalarStamp { value: 7, process: 0 });
        assert_eq!(c.value(), 7, "max, no +1 — unlike Lamport SC3");
        c.on_strobe(ScalarStamp { value: 3, process: 0 });
        assert_eq!(c.value(), 7, "stale strobes are ignored");
    }

    #[test]
    fn strobes_synchronize_two_processes() {
        let mut a = StrobeScalarClock::new(0);
        let mut b = StrobeScalarClock::new(1);
        let s = a.on_local_event(); // a=1, broadcast
        b.on_strobe(s); // b catches up to 1
        let t = b.on_local_event(); // b=2, broadcast
        a.on_strobe(t); // a catches up to 2
        assert_eq!(a.value(), 2);
        assert_eq!(b.value(), 2);
    }

    #[test]
    fn drift_without_strobes() {
        // In the absence of strobes, local clocks simply tick asynchronously
        // and drift apart — the behaviour the paper describes in §4.2.
        let mut a = StrobeScalarClock::new(0);
        let mut b = StrobeScalarClock::new(1);
        for _ in 0..10 {
            a.on_local_event();
        }
        b.on_local_event();
        assert_eq!(a.value(), 10);
        assert_eq!(b.value(), 1);
        // One strobe re-synchronizes.
        let s = a.current();
        b.on_strobe(s);
        assert_eq!(b.value(), 10);
    }

    #[test]
    fn monotonicity_under_any_strobe_sequence() {
        // The strobe clock must guarantee monotonicity of logical time
        // (paper §4.2): no strobe may move the clock backwards.
        let mut c = StrobeScalarClock::new(0);
        let mut last = 0;
        let strobes = [5u64, 2, 9, 1, 9, 12, 0];
        for (k, &v) in strobes.iter().enumerate() {
            if k % 2 == 0 {
                c.on_local_event();
            }
            c.on_strobe(ScalarStamp { value: v, process: 1 });
            assert!(c.value() >= last, "clock went backwards");
            last = c.value();
        }
    }

    #[test]
    fn stamps_order_as_scalars() {
        let mut a = StrobeScalarClock::new(0);
        let mut b = StrobeScalarClock::new(1);
        let e = a.on_local_event();
        b.on_strobe(e);
        let f = b.on_local_event();
        assert_eq!(e.causality(&f), Causality::Before);
    }
}
