//! Differential (compressed) vector clock transmission
//! (Singhal–Kshemkalyani technique; documented extension).
//!
//! The paper's §4.2.2 emphasizes the O(1)-vs-O(n) wire asymmetry between
//! scalar and vector strobes. The classic middle ground from the
//! distributed-computing literature Appendix A surveys is the
//! Singhal–Kshemkalyani optimization: a sender transmits only the vector
//! components that **changed since its last message to the same
//! destination**. With FIFO channels the receiver reconstructs the full
//! vector by overlaying the diff. For strobe-style broadcast traffic where
//! only the sender's own component ticks between strobes, diffs are O(1)
//! amortized — recovering scalar-like cost while keeping vector-clock
//! semantics (ablation A3 measures this).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::traits::ProcessId;
use crate::vector::VectorStamp;

/// A sparse vector-clock update: the components that changed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorDiff(pub Vec<(ProcessId, u64)>);

impl VectorDiff {
    /// Wire size: 12 bytes per entry (4-byte index + 8-byte value).
    pub fn wire_size(&self) -> usize {
        12 * self.0.len()
    }

    /// Number of changed components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Sender-side compressor: remembers the last vector sent to each
/// destination and emits only the delta. Requires FIFO channels (the
/// receiver applies diffs in order).
#[derive(Debug, Clone, Default)]
pub struct DiffSender {
    last_sent: HashMap<ProcessId, VectorStamp>,
}

impl DiffSender {
    /// A fresh compressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress `current` for transmission to `dest`.
    pub fn diff_for(&mut self, dest: ProcessId, current: &VectorStamp) -> VectorDiff {
        let diff = match self.last_sent.get(&dest) {
            None => VectorDiff(
                current.iter().enumerate().filter(|(_, &v)| v != 0).map(|(i, &v)| (i, v)).collect(),
            ),
            Some(prev) => VectorDiff(
                current
                    .iter()
                    .zip(prev.iter())
                    .enumerate()
                    .filter(|(_, (cur, prev))| cur != prev)
                    .map(|(i, (&cur, _))| (i, cur))
                    .collect(),
            ),
        };
        self.last_sent.insert(dest, current.clone());
        diff
    }
}

/// Receiver-side reconstructor: tracks each sender's full vector. The
/// tests decode with it to check that every diff is lossless.
#[cfg(test)]
#[derive(Debug, Clone)]
struct DiffReceiver {
    n: usize,
    per_sender: HashMap<ProcessId, VectorStamp>,
}

#[cfg(test)]
impl DiffReceiver {
    /// A reconstructor for `n`-component vectors.
    fn new(n: usize) -> Self {
        DiffReceiver { n, per_sender: HashMap::new() }
    }

    /// Apply a diff from `sender`, returning the sender's reconstructed
    /// full vector.
    fn apply(&mut self, sender: ProcessId, diff: &VectorDiff) -> &VectorStamp {
        let entry = self.per_sender.entry(sender).or_insert_with(|| VectorStamp::zero(self.n));
        for &(i, v) in &diff.0 {
            entry[i] = v;
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::LogicalClock;
    use crate::vector::VectorClock;

    #[test]
    fn roundtrip_reconstructs_exactly() {
        let mut tx = DiffSender::new();
        let mut rx = DiffReceiver::new(3);
        let vectors = [
            VectorStamp::from(vec![1, 0, 0]),
            VectorStamp::from(vec![2, 0, 0]),
            VectorStamp::from(vec![2, 5, 1]),
            VectorStamp::from(vec![3, 5, 1]),
        ];
        for v in &vectors {
            let d = tx.diff_for(9, v);
            let got = rx.apply(0, &d);
            assert_eq!(got, v);
        }
    }

    #[test]
    fn steady_state_diffs_are_small() {
        // Strobe pattern: only the own component ticks between sends.
        let mut tx = DiffSender::new();
        let mut clock = VectorClock::new(0, 64);
        let first = clock.on_local_event();
        let d0 = tx.diff_for(1, &first);
        assert_eq!(d0.len(), 1, "initial diff carries the nonzero components");
        for _ in 0..10 {
            let v = clock.on_local_event();
            let d = tx.diff_for(1, &v);
            assert_eq!(d.len(), 1, "only own component changed");
            assert_eq!(d.wire_size(), 12, "O(1) on the wire vs 512 for the full vector");
        }
    }

    #[test]
    fn merge_bursts_cost_proportional_to_changes() {
        let mut tx = DiffSender::new();
        let mut clock = VectorClock::new(0, 8);
        let v1 = clock.on_local_event();
        let _ = tx.diff_for(1, &v1);
        // A receive merges 3 remote components at once.
        clock.on_receive(&VectorStamp::from(vec![0, 7, 7, 7, 0, 0, 0, 0]));
        let v2 = clock.current();
        let d = tx.diff_for(1, &v2);
        assert_eq!(d.len(), 4, "3 merged + own tick");
    }

    #[test]
    fn per_destination_state_is_independent() {
        let mut tx = DiffSender::new();
        let v1 = VectorStamp::from(vec![1, 0]);
        let v2 = VectorStamp::from(vec![2, 0]);
        let _ = tx.diff_for(1, &v1);
        // First message to dest 2 must carry the full (nonzero) state even
        // though dest 1 already knows v1.
        let d_to_2 = tx.diff_for(2, &v2);
        assert_eq!(d_to_2.0, vec![(0, 2)]);
        let d_to_1 = tx.diff_for(1, &v2);
        assert_eq!(d_to_1.0, vec![(0, 2)]);
    }

    #[test]
    fn empty_diff_when_unchanged() {
        let mut tx = DiffSender::new();
        let v = VectorStamp::from(vec![1, 2]);
        let _ = tx.diff_for(1, &v);
        let d = tx.diff_for(1, &v);
        assert!(d.is_empty());
        assert_eq!(d.wire_size(), 0);
    }

    #[test]
    fn multiple_senders_do_not_interfere() {
        let mut rx = DiffReceiver::new(2);
        rx.apply(0, &VectorDiff(vec![(0, 5)]));
        rx.apply(1, &VectorDiff(vec![(1, 9)]));
        assert_eq!(rx.apply(0, &VectorDiff(vec![])).as_slice(), [5, 0]);
        assert_eq!(rx.apply(1, &VectorDiff(vec![])).as_slice(), [0, 9]);
    }
}
