//! The event types of the execution model (paper §2.2).
//!
//! "At each process Pᵢ ∈ P, the local execution is a sequence of
//! alternating states and state transitions caused by events. An event e is
//! one of three types: an internal event, which is of type compute (c),
//! sense (n), or actuate (a); a send event (s); a receive event (r)."
//!
//! Every event carries its ground-truth time for *scoring only* — protocol
//! logic never reads it — plus the full [`StampSet`]
//! of timestamps every clock assigned to it.

use serde::{Deserialize, Serialize};

use psn_clocks::ProcessId;
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue, WorldEventId};

use crate::bundle::StampSet;

/// What kind of event occurred.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An internal computation step (type `c`).
    Compute,
    /// A sense event (type `n`): a significant change of a world attribute
    /// was observed.
    Sense {
        /// The attribute that changed.
        key: AttrKey,
        /// The sensed new value.
        value: AttrValue,
        /// The ground-truth world event observed (scoring only).
        world_event: WorldEventId,
    },
    /// An actuate event (type `a`): a command was output to a world object.
    Actuate {
        /// The attribute being driven.
        key: AttrKey,
        /// The commanded value.
        command: AttrValue,
    },
    /// An in-network send (type `s`) of a computation message.
    Send {
        /// The destination process.
        to: ProcessId,
    },
    /// An in-network receive (type `r`) of a computation message.
    Receive {
        /// The source process.
        from: ProcessId,
    },
}

impl EventKind {
    /// One-letter tag from the paper: c/n/a/s/r.
    pub fn tag(&self) -> char {
        match self {
            EventKind::Compute => 'c',
            EventKind::Sense { .. } => 'n',
            EventKind::Actuate { .. } => 'a',
            EventKind::Send { .. } => 's',
            EventKind::Receive { .. } => 'r',
        }
    }

    /// Is this a *relevant* event for the strobe protocols (a sense event)?
    pub(crate) fn is_relevant(&self) -> bool {
        matches!(self, EventKind::Sense { .. })
    }
}

/// One event in a process's local execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcEvent {
    /// The process at which the event occurred.
    pub process: ProcessId,
    /// Local sequence number (1-based; intervals run between successive
    /// events, §2.2).
    pub seq: usize,
    /// Ground-truth time — scoring only.
    pub at: SimTime,
    /// The event's kind and payload.
    pub kind: EventKind,
    /// Timestamps assigned by every clock in the bundle.
    pub stamps: StampSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_paper() {
        assert_eq!(EventKind::Compute.tag(), 'c');
        assert_eq!(
            EventKind::Sense { key: AttrKey::new(0, 0), value: AttrValue::Int(1), world_event: 0 }
                .tag(),
            'n'
        );
        assert_eq!(
            EventKind::Actuate { key: AttrKey::new(0, 0), command: AttrValue::Bool(true) }.tag(),
            'a'
        );
        assert_eq!(EventKind::Send { to: 1 }.tag(), 's');
        assert_eq!(EventKind::Receive { from: 1 }.tag(), 'r');
    }

    #[test]
    fn only_sense_is_relevant_for_strobes() {
        assert!(EventKind::Sense {
            key: AttrKey::new(0, 0),
            value: AttrValue::Int(1),
            world_event: 0
        }
        .is_relevant());
        assert!(!EventKind::Compute.is_relevant());
        assert!(!EventKind::Send { to: 0 }.is_relevant());
        assert!(!EventKind::Receive { from: 0 }.is_relevant());
        assert!(!EventKind::Actuate { key: AttrKey::new(0, 0), command: AttrValue::Int(0) }
            .is_relevant());
    }
}
