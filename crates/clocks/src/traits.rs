//! Common vocabulary for all clocks.
//!
//! The paper's implementation design space (§3.2) contains two families:
//!
//! - **causality-based clocks** (Lamport SC1–SC3, Mattern/Fidge VC1–VC3)
//!   that tick on *in-network* send/receive events and capture the partial
//!   order of the network-plane execution, and
//! - **strobe clocks** (SSC1–SSC2, SVC1–SVC2) that tick only on *relevant
//!   (sensed) events* and synchronize by broadcasting their value — the
//!   receiver merges but does **not** tick.
//!
//! Both produce timestamps that can be compared; vector timestamps form a
//! genuine partial order, scalar timestamps a total preorder.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// The identity of a process in the network plane P. Processes are numbered
/// densely `0..n`, matching the simulator's actor ids.
pub type ProcessId = usize;

/// The outcome of comparing two timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Causality {
    /// The first timestamp (strictly) happened-before the second.
    Before,
    /// The second timestamp (strictly) happened-before the first.
    After,
    /// Neither ordered before the other: concurrent.
    Concurrent,
    /// Identical timestamps.
    Equal,
}

impl Causality {
    /// The relation with the arguments swapped.
    pub fn flip(self) -> Causality {
        match self {
            Causality::Before => Causality::After,
            Causality::After => Causality::Before,
            other => other,
        }
    }
}

/// A timestamp produced by some clock.
pub trait Timestamp: Clone {
    /// Compare two timestamps of the same clock family.
    fn causality(&self, other: &Self) -> Causality;

    /// The wire size of this timestamp in bytes — O(1) for scalars, O(n)
    /// for vectors. Feeds the message-overhead accounting (experiment E7).
    fn wire_size(&self) -> usize;
}

/// A logical clock owned by one process.
///
/// `Stamp` is the timestamp type it assigns to events and piggybacks on (or
/// broadcasts as) messages. The method names mirror the paper's rules; a
/// clock that has "no occasion" to use a rule (e.g. strobe clocks never
/// piggyback on computation messages) simply inherits the default panic —
/// calling it is a protocol bug, not a recoverable condition.
pub trait LogicalClock {
    /// The timestamp type.
    type Stamp: Timestamp;

    /// Rule for a relevant internal event (SC1 / VC1 / SSC1 / SVC1): tick
    /// the local component and return the event's timestamp.
    fn on_local_event(&mut self) -> Self::Stamp;

    /// Rule for an in-network send (SC2 / VC2): tick and return the stamp
    /// to piggyback. Strobe clocks do not implement this.
    fn on_send(&mut self) -> Self::Stamp {
        unimplemented!("this clock does not piggyback on computation messages")
    }

    /// Rule for an in-network receive (SC3 / VC3): merge the piggybacked
    /// stamp and tick. Strobe clocks do not implement this.
    fn on_receive(&mut self, _stamp: &Self::Stamp) -> Self::Stamp {
        unimplemented!("this clock does not receive computation messages")
    }

    /// Rule for receiving a strobe (SSC2 / SVC2): merge **without ticking**.
    /// The stamp is taken by value, so a clock may keep it until it is next
    /// read; a borrowed one is cloned only if the clock keeps it.
    /// Causality-based clocks do not implement this.
    fn on_strobe<'a>(&mut self, _stamp: impl Into<Cow<'a, Self::Stamp>>)
    where
        Self::Stamp: 'a,
    {
        unimplemented!("this clock does not process strobes")
    }

    /// The current reading, without ticking. `&mut`, because a strobe
    /// clock merges the strobes it has received since its last reading here.
    fn current(&mut self) -> Self::Stamp;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_swaps_direction() {
        assert_eq!(Causality::Before.flip(), Causality::After);
        assert_eq!(Causality::After.flip(), Causality::Before);
        assert_eq!(Causality::Concurrent.flip(), Causality::Concurrent);
        assert_eq!(Causality::Equal.flip(), Causality::Equal);
    }
}
