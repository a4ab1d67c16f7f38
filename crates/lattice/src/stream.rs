//! Garg–Waldecker interval advancement for conjunctive `Possibly` /
//! `Definitely`, run once over a sealed replay or incrementally as
//! intervals close.
//!
//! [`AdvancementFrontier`] keeps per-conjunct queues of closed stamped
//! intervals and advances them as the classic loop does, but **pauses**
//! whenever a conjunct's queue is exhausted (the missing interval is still
//! open or still in flight) and resumes when it arrives. Fed a whole trace's
//! intervals up front, one [`advance`](AdvancementFrontier::advance) is the
//! offline detector; fed one interval at a time, it is the streaming one,
//! with the same occurrence sequence. While stalled, it is garbage-collected
//! under delivered-stamp dominance ([`AdvancementFrontier::prune`]): a
//! queued interval whose close happens-before everything a starved peer can
//! still produce would be advanced past without an occurrence anyway, so it
//! is dropped early — the "delivered-stamp dominance + Δ bound" pruning of
//! Yang et al.

use std::collections::VecDeque;

use psn_clocks::VectorStamp;
use psn_sim::time::SimTime;

use crate::intervals::StampedInterval;

/// One conjunct truth interval as fed to the advancement: the stamped
/// bounds plus ground-truth endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierInterval {
    /// Stamps of the opening/closing events.
    pub stamped: StampedInterval,
    /// Truth time the conjunct became true.
    pub truth_start: SimTime,
    /// Truth time it stopped (None for a still-open interval appended at
    /// seal time).
    pub truth_end: Option<SimTime>,
}

/// One `Possibly`-overlapping combination found by the advancement (the
/// lattice-side shape of a conjunctive occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierOccurrence {
    /// Latest truth start among the matched intervals.
    pub truth_start: SimTime,
    /// Earliest truth end (None if every matched interval was open).
    pub truth_end: Option<SimTime>,
    /// Did the intervals *definitely* overlap?
    pub definitely: bool,
}

/// What a starved peer conjunct can still produce — the inputs to
/// [`AdvancementFrontier::prune`]'s dominance test.
#[derive(Debug, Clone)]
pub struct PeerGate {
    /// Is the conjunct currently inside an open truth interval? (An open
    /// interval's `lo` is in the past, so nothing may be pruned against it.)
    pub open: bool,
    /// The conjunct's last delivered stamp: every future interval it emits
    /// opens at a stamp this one happens-before or equals.
    pub floor: VectorStamp,
}

/// Garg–Waldecker advancement over per-conjunct interval queues.
///
/// Runs the advancement loop lazily: it pauses whenever some conjunct's
/// next interval has not been produced yet and resumes when it arrives, so
/// the decision (and occurrence) sequence does not depend on how the
/// intervals were chunked. Consumed intervals are popped immediately;
/// [`prune`](Self::prune) additionally drops queued intervals that a
/// starved peer's future can only be preceded by.
#[derive(Debug, Clone)]
pub struct AdvancementFrontier {
    /// Pending (not yet advanced-past) intervals per conjunct; the fronts
    /// are the combination under consideration.
    queues: Vec<VecDeque<FrontierInterval>>,
    pruned: usize,
}

impl AdvancementFrontier {
    /// A frontier over `k` conjuncts (`k ≥ 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one conjunct");
        AdvancementFrontier { queues: vec![VecDeque::new(); k], pruned: 0 }
    }

    /// Append `conjunct`'s next closed interval (local order).
    pub fn push(&mut self, conjunct: usize, interval: FrontierInterval) {
        self.queues[conjunct].push_back(interval);
    }

    /// Run the advancement as far as the queued intervals allow, appending
    /// each recorded occurrence to `out`: while some front interval surely
    /// precedes another, advance it; when none does, the fronts possibly
    /// overlap — record them and advance the earliest-ending one. Stops (to
    /// resume later) when some conjunct's queue is exhausted.
    pub fn advance(&mut self, out: &mut Vec<FrontierOccurrence>) {
        let k = self.queues.len();
        'outer: loop {
            for q in &self.queues {
                if q.is_empty() {
                    break 'outer;
                }
            }
            // An interval that surely precedes a peer's cannot be part of
            // any overlapping combination — advance it.
            let mut advanced = None;
            'pairs: for p in 0..k {
                for q in 0..k {
                    if p == q {
                        continue;
                    }
                    let xp = &self.queues[p][0].stamped;
                    let xq = &self.queues[q][0].stamped;
                    if xp.surely_precedes(xq) {
                        advanced = Some(p);
                        break 'pairs;
                    }
                }
            }
            if let Some(p) = advanced {
                self.queues[p].pop_front();
                continue;
            }
            // Pairwise possibly-overlapping: an occurrence.
            let definitely = (0..k).all(|p| {
                (0..k).all(|q| {
                    p == q
                        || self.queues[p][0].stamped.definitely_overlaps(&self.queues[q][0].stamped)
                })
            }) || k == 1;
            let truth_start = self.queues.iter().map(|q| q[0].truth_start).max().expect("nonempty");
            let truth_end = self
                .queues
                .iter()
                .map(|q| q[0].truth_end)
                .min_by_key(|e| e.unwrap_or(SimTime::MAX))
                .expect("nonempty");
            out.push(FrontierOccurrence { truth_start, truth_end, definitely });
            // Advance the earliest-ending interval (every-occurrence
            // semantics).
            let p_min = (0..k)
                .min_by_key(|&p| self.queues[p][0].truth_end.unwrap_or(SimTime::MAX))
                .expect("nonempty");
            self.queues[p_min].pop_front();
        }
    }

    /// Δ-bound GC while the loop is stalled on a starved conjunct: a queued
    /// interval whose close happens-before the starved peer's floor stamp
    /// surely precedes **every** interval that peer can still produce, so
    /// the advancement would pass it without recording an occurrence — drop
    /// it now. `gates[q]` describes conjunct `q`'s
    /// builder; only queues stalled against an empty, not-open peer are
    /// eligible. Returns the number of intervals dropped.
    pub fn prune(&mut self, gates: &[PeerGate]) -> usize {
        assert_eq!(gates.len(), self.queues.len());
        let k = self.queues.len();
        let starved: Vec<bool> = self.queues.iter().map(|q| q.is_empty()).collect();
        if !starved.iter().any(|&s| s) {
            return 0;
        }
        let mut dropped = 0;
        for p in 0..k {
            while let Some(front) = self.queues[p].front() {
                let dominated = (0..k).any(|q| {
                    q != p && starved[q] && !gates[q].open && front.stamped.hi.lt(&gates[q].floor)
                });
                if dominated {
                    self.queues[p].pop_front();
                    dropped += 1;
                } else {
                    break;
                }
            }
        }
        self.pruned += dropped;
        dropped
    }

    /// Intervals currently queued across all conjuncts (the live frontier
    /// memory).
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Intervals dropped by [`prune`](Self::prune) so far.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Is conjunct `p`'s queue currently empty?
    pub fn starved(&self, p: usize) -> bool {
        self.queues[p].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(v: &[u64]) -> VectorStamp {
        VectorStamp::from_slice(v)
    }

    #[test]
    fn advancement_frontier_matches_batch_loop() {
        // Hand-built two-conjunct interval lists; streaming advancement in
        // arbitrary chunks must equal one-shot advancement.
        let iv = |lo: &[u64], hi: &[u64], t0: u64, t1: Option<u64>| FrontierInterval {
            stamped: StampedInterval { lo: vs(lo), hi: vs(hi) },
            truth_start: SimTime::from_secs(t0),
            truth_end: t1.map(SimTime::from_secs),
        };
        let a = vec![
            iv(&[1, 0], &[2, 1], 1, Some(3)),
            iv(&[4, 3], &[5, 4], 5, Some(7)),
            iv(&[7, 6], &[8, 8], 9, None),
        ];
        let b = vec![
            iv(&[1, 1], &[2, 2], 2, Some(4)),
            iv(&[3, 4], &[4, 5], 4, Some(6)),
            iv(&[6, 7], &[8, 9], 8, None),
        ];
        // One-shot.
        let mut all = AdvancementFrontier::new(2);
        for x in &a {
            all.push(0, x.clone());
        }
        for x in &b {
            all.push(1, x.clone());
        }
        let mut batch = Vec::new();
        all.advance(&mut batch);
        // Streaming: one interval at a time, alternating.
        let mut st = AdvancementFrontier::new(2);
        let mut out = Vec::new();
        for k in 0..a.len().max(b.len()) {
            if k < a.len() {
                st.push(0, a[k].clone());
                st.advance(&mut out);
            }
            if k < b.len() {
                st.push(1, b[k].clone());
                st.advance(&mut out);
            }
        }
        assert_eq!(out, batch, "chunked advancement must equal one-shot");
    }

    #[test]
    fn prune_drops_only_dominated_intervals() {
        let iv = |lo: &[u64], hi: &[u64]| FrontierInterval {
            stamped: StampedInterval { lo: vs(lo), hi: vs(hi) },
            truth_start: SimTime::ZERO,
            truth_end: Some(SimTime::from_secs(1)),
        };
        let mut f = AdvancementFrontier::new(2);
        f.push(0, iv(&[1, 0], &[2, 1]));
        f.push(0, iv(&[4, 3], &[5, 9]));
        // Peer 1 is starved, not open, floor [9,9]: the first interval's
        // hi [2,1] < [9,9] is dominated; the second's hi [5,9] is not
        // (component 1 ties at 9 ⇒ not strictly less in the partial
        // order? [5,9].lt([9,9]) = le && ne = true). Use floor [6,8] so
        // the second survives.
        let gates = vec![
            PeerGate { open: false, floor: vs(&[0, 0]) },
            PeerGate { open: false, floor: vs(&[6, 8]) },
        ];
        assert_eq!(f.prune(&gates), 1);
        assert_eq!(f.pending(), 1);
        // An open peer gates nothing.
        let mut g = AdvancementFrontier::new(2);
        g.push(0, iv(&[1, 0], &[2, 1]));
        let gates = vec![
            PeerGate { open: false, floor: vs(&[0, 0]) },
            PeerGate { open: true, floor: vs(&[9, 9]) },
        ];
        assert_eq!(g.prune(&gates), 0);
        assert_eq!(g.pending(), 1);
    }
}
