//! Strobe vector clocks (paper §4.2.1, rules SVC1–SVC2).
//!
//! ```text
//! SVC1. When process i executes (senses) a relevant event:
//!         Cᵢ[i] = Cᵢ[i] + 1;  System-wide_Broadcast(Cᵢ)
//! SVC2. When process i receives a strobe T:
//!         ∀k: Cᵢ[k] = max(Cᵢ[k], T[k])
//! ```
//!
//! Differences from the Mattern/Fidge vector clock (paper §4.2.3):
//!
//! 1. strobes do not track message-induced causality — they synchronize the
//!    drifting local counters ("catch up");
//! 2. the receiver merges but does **not** tick;
//! 3. all strobes are control messages (broadcast), not piggybacks;
//! 4. strobes are sent no more frequently than at each relevant event;
//! 5. at Δ = 0, strobe vectors can be replaced by strobe scalars without
//!    losing accuracy (experiment E6 verifies this) — unlike the causal
//!    clocks, where vectors remain strictly more powerful.
//!
//! The induced partial order is *artificial* (run-time determined), but
//! useful: it prunes the O(pⁿ) state lattice down to the near-linear "slim
//! lattice" of states whose intervals actually overlapped (§4.2.4).
//!
//! SVC2's merge is owed per *read* of the clock, not per strobe. The vector
//! is read only at the owner's next SVC1 tick or snapshot, and max is
//! commutative, so a wide strobe (one that spilled to a shared buffer) is
//! moved onto a short pending list on receipt and folded in at that read:
//! the stamps are bit-identical to merging at once, and a receiver of many
//! strobes between two of its own events touches its O(n) vector once per
//! `FOLD_BOUND` strobes, while it is hot, instead of once per strobe.

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Sink, Source};

use crate::traits::{LogicalClock, ProcessId};
use crate::vector::VectorStamp;

/// Pending wide strobes are folded into the vector when this many have
/// queued, even if the clock has not been read. A larger bound folds less
/// often but costs memory: the list keeps its capacity, and each entry
/// keeps its sender's buffer alive. On a 1 024-door hall at 2 shards, 8,
/// 32 and 128 ran in 135, 130 and 134 ms at peaks of 53.5, 52.1 and
/// 56.2 MB, against 202 ms and 61.5 MB merging on receipt (EXPERIMENTS.md,
/// "SVC2 folded per read"): past 32 a larger bound only moves a shard's
/// time from busy to barrier wait, and costs memory.
const FOLD_BOUND: usize = 32;

/// A strobe vector clock.
#[derive(Debug, Clone)]
pub struct StrobeVectorClock {
    id: ProcessId,
    v: VectorStamp,
    /// Wide strobes received since the clock was last read, not yet merged
    /// into `v`. Never holds `FOLD_BOUND` or more.
    pending: Vec<Arc<[u64]>>,
}

impl StrobeVectorClock {
    /// A clock for process `id` in a system of `n` processes.
    pub fn new(id: ProcessId, n: usize) -> Self {
        assert!(id < n, "process id {id} out of range for n={n}");
        StrobeVectorClock { id, v: VectorStamp::zero(n), pending: Vec::new() }
    }

    /// The owner process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Merge the pending strobes into the vector.
    fn fold(&mut self) {
        for s in self.pending.drain(..) {
            self.v.merge_slice(&s);
        }
    }

    /// The reading with every pending strobe merged, leaving the clock as
    /// it is.
    fn folded(&self) -> VectorStamp {
        let mut v = self.v.clone();
        for s in &self.pending {
            v.merge_slice(s);
        }
        v
    }
}

impl LogicalClock for StrobeVectorClock {
    type Stamp = VectorStamp;

    /// SVC1: tick the own component; the caller must then broadcast
    /// [`Self::current`] system-wide.
    fn on_local_event(&mut self) -> VectorStamp {
        self.fold();
        self.v.tick(self.id);
        self.v.clone()
    }

    /// SVC2: componentwise max, **no local tick** (contrast VC3). An inline
    /// stamp merges at once; a spilled one's buffer is moved onto the
    /// pending list (shared, if the stamp was borrowed). A stamp of the
    /// wrong arity panics here, not at the fold.
    fn on_strobe<'a>(&mut self, stamp: impl Into<Cow<'a, VectorStamp>>) {
        let stamp = stamp.into();
        assert_eq!(stamp.len(), self.v.len(), "vector stamps must have equal arity");
        if stamp.is_inline() {
            self.v.merge_from(&stamp);
        } else {
            self.pending.push(stamp.into_owned().into_shared());
            if self.pending.len() == FOLD_BOUND {
                self.fold();
            }
        }
    }

    fn current(&mut self) -> VectorStamp {
        self.fold();
        self.v.clone()
    }
}

// Equality and serialization go by the folded reading, never by how much of
// it is still pending.
impl PartialEq for StrobeVectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.folded() == other.folded()
    }
}
impl Eq for StrobeVectorClock {}

/// The serialized form: the owner and the folded reading.
#[derive(Serialize, Deserialize)]
struct Folded {
    id: ProcessId,
    v: VectorStamp,
}

impl Serialize for StrobeVectorClock {
    fn serialize<S: Sink>(&self, s: &mut S) {
        Folded { id: self.id, v: self.folded() }.serialize(s)
    }
}

impl Deserialize for StrobeVectorClock {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, Error> {
        let Folded { id, v } = Folded::deserialize(src)?;
        Ok(StrobeVectorClock { id, v, pending: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Causality, Timestamp};
    use crate::vector::VectorClock;

    #[test]
    fn svc1_ticks_own_component() {
        let mut c = StrobeVectorClock::new(2, 4);
        assert_eq!(c.on_local_event().as_slice(), [0, 0, 1, 0]);
        assert_eq!(c.on_local_event().as_slice(), [0, 0, 2, 0]);
    }

    #[test]
    fn svc2_merges_without_tick() {
        let mut c = StrobeVectorClock::new(0, 3);
        c.on_local_event(); // [1,0,0]
        c.on_strobe(VectorStamp::from(vec![0, 4, 2]));
        assert_eq!(c.current().as_slice(), [1, 4, 2], "merge only — no own tick");
    }

    #[test]
    fn receiver_tick_is_the_vc3_difference() {
        // Same sequence under both clocks; the causal clock ticks on
        // receive, the strobe clock does not (paper §4.2.3 item 2).
        let incoming = VectorStamp::from(vec![3, 0]);
        let mut causal = VectorClock::new(1, 2);
        let mut strobe = StrobeVectorClock::new(1, 2);
        causal.on_receive(&incoming);
        strobe.on_strobe(&incoming);
        assert_eq!(causal.current().as_slice(), [3, 1]);
        assert_eq!(strobe.current().as_slice(), [3, 0]);
    }

    #[test]
    fn strobes_keep_processes_in_sync() {
        let mut a = StrobeVectorClock::new(0, 2);
        let mut b = StrobeVectorClock::new(1, 2);
        let s = a.on_local_event();
        b.on_strobe(&s);
        let t = b.on_local_event();
        a.on_strobe(&t);
        assert_eq!(a.current().as_slice(), [1, 1]);
        assert_eq!(b.current().as_slice(), [1, 1]);
        assert_eq!(a.current().causality(&b.current()), Causality::Equal);
    }

    #[test]
    fn monotonicity_componentwise() {
        let mut c = StrobeVectorClock::new(0, 3);
        let mut prev = c.current();
        let strobes = [
            VectorStamp::from(vec![0, 5, 1]),
            VectorStamp::from(vec![0, 2, 8]),
            VectorStamp::from(vec![0, 0, 0]),
        ];
        for s in &strobes {
            c.on_local_event();
            c.on_strobe(s);
            let cur = c.current();
            assert!(prev.le(&cur), "clock must be monotone: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn delayed_strobes_leave_stamps_concurrent() {
        // If strobes have not yet arrived (Δ > 0 in flight), two events'
        // stamps are concurrent — exactly the race window in which the
        // paper says detection errors can occur.
        let mut a = StrobeVectorClock::new(0, 2);
        let mut b = StrobeVectorClock::new(1, 2);
        let e = a.on_local_event(); // strobe in flight…
        let f = b.on_local_event(); // …not yet delivered
        assert_eq!(e.causality(&f), Causality::Concurrent);
        // Once delivered, subsequent events are ordered after both.
        b.on_strobe(&e);
        let g = b.on_local_event();
        assert_eq!(e.causality(&g), Causality::Before);
        assert_eq!(f.causality(&g), Causality::Before);
    }

    #[test]
    fn wide_strobes_wait_for_a_read_or_the_bound() {
        let mut c = StrobeVectorClock::new(0, 9);
        c.on_strobe(VectorStamp::from(vec![0, 0, 0, 0, 0, 0, 0, 0, 1]));
        assert_eq!(c.pending.len(), 1, "a spilled stamp is queued");
        assert_eq!(c.current().get(8), 1);
        assert!(c.pending.is_empty(), "a read folds");
        let top = 3 * FOLD_BOUND as u64;
        for k in 1..=top {
            c.on_strobe(VectorStamp::from(vec![k; 9]));
            assert!(c.pending.len() < FOLD_BOUND, "the bound folds without a read");
        }
        let mut want = vec![top; 9];
        want[0] += 1;
        assert_eq!(c.on_local_event().as_slice(), want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_must_be_in_range() {
        let _ = StrobeVectorClock::new(5, 2);
    }
}
