//! Streaming, bounded-memory maintenance of the consistent-cut lattice.
//!
//! [`crate::lattice::enumerate_lattice`] rebuilds the whole lattice from a
//! sealed history; this module maintains the same BFS **level frontier**
//! incrementally as events arrive, so a live observer (`psn-serve`, E15)
//! holds only an O(window) antichain instead of the O(trace) log:
//!
//! - [`StreamLattice`] — the incremental level-synchronous BFS. Events are
//!   appended per process ([`StreamLattice::push`]); the caller marks a
//!   **stable prefix** per process ([`StreamLattice::mark_stable`]) — events
//!   guaranteed to happen-before every event still in flight (under the
//!   strobe discipline, anything sensed more than 2Δ before the newest
//!   arrival qualifies: its strobe has reached every process, so every later
//!   sense event dominates it). The frontier advances one level at a time
//!   while the next level is *final*: a level `L+1` cut could gain a
//!   not-yet-pushed member only via a cut at level `L` that excludes **no**
//!   stable event, and any such cut sits at level ≥ Σ stable — so levels
//!   below Σ stable are complete and may be counted exactly as the offline
//!   enumeration would ([`StreamLattice::seal`] is bit-identical to
//!   [`crate::lattice::enumerate_lattice`], tested).
//! - **Δ-bound garbage collection**: once every frontier cut includes an
//!   event, no future cut can exclude it (cuts only grow along the BFS), so
//!   its stamp can never participate in a consistency test again — the
//!   event retires and its stamp is dropped. Retirement plus the stability
//!   watermark is exactly the "delivered-stamp dominance + Δ/ε bound"
//!   pruning of Yang et al.
//! - The per-level expansion reuses the PR-2 machinery: when the live
//!   *window* (un-retired events) packs into 64 bits the cuts are single
//!   `u64` keys deduplicated by sort + dedup with a hoisted threshold
//!   table; wider windows fall back to the `HashSet` frontier
//!   ([`packed_window_fits`] tells a caller which regime a shape lands in).
//! - [`AdvancementFrontier`] — the streaming form of the Garg–Waldecker
//!   interval advancement used for conjunctive `Possibly`/`Definitely`:
//!   per-conjunct queues of closed stamped intervals, advanced exactly as
//!   the offline loop would but **pausing** whenever a conjunct's queue is
//!   exhausted (the missing interval is still open or still in flight), and
//!   garbage-collected under the same dominance rule — a queued interval
//!   whose close happens-before everything a starved peer can still produce
//!   would be advanced past without an occurrence anyway, so it is dropped
//!   early ([`AdvancementFrontier::prune`]).

use std::collections::HashSet;

use psn_clocks::VectorStamp;
use psn_sim::time::SimTime;

use crate::intervals::StampedInterval;
use crate::lattice::LatticeStats;

/// Does a live window of `window_lens[p]` un-retired events per process fit
/// the packed single-`u64` cut encoding (each process takes enough bits to
/// hold `0..=len`)? Mirrors the offline enumeration's packing rule.
pub fn packed_window_fits(window_lens: &[usize]) -> bool {
    let mut total_bits = 0u32;
    for &len in window_lens {
        total_bits += u64::BITS - (len as u64).leading_zeros();
    }
    total_bits <= u64::BITS
}

/// Incremental BFS over the lattice of consistent cuts with Δ-bound GC.
///
/// Feed events in local order with [`push`](Self::push), declare stability
/// with [`mark_stable`](Self::mark_stable), and call
/// [`settle`](Self::settle) to advance the frontier and retire dominated
/// events. [`seal`](Self::seal) finishes the enumeration and returns stats
/// bit-identical to [`crate::lattice::enumerate_lattice`] on the same
/// history and cap.
#[derive(Debug, Clone)]
pub struct StreamLattice {
    n: usize,
    /// Un-retired stamps per process (`windows[p][0]` is absolute event
    /// `base[p]`).
    windows: Vec<Vec<VectorStamp>>,
    /// Retired (GC'd) event counts per process.
    base: Vec<usize>,
    /// Absolute per-process counts known final and dominated by everything
    /// still in flight.
    stable: Vec<usize>,
    /// Total events pushed per process.
    pushed: Vec<usize>,
    /// Current BFS level (absolute event count of every frontier cut).
    level: usize,
    /// Cuts at `level`, window-relative, sorted lexicographically.
    frontier: Vec<Vec<u32>>,
    /// `levels[k]` = cuts with k events, for levels counted so far.
    levels: Vec<u64>,
    states: u64,
    cap: u64,
    truncated: bool,
    mem_high_water_cuts: u64,
    packed_levels: u64,
    hash_levels: u64,
}

impl StreamLattice {
    /// A maintainer for `n` processes, truncating once more than `cap`
    /// states have been counted (same between-levels check as the offline
    /// enumeration).
    pub fn new(n: usize, cap: u64) -> Self {
        let mut s = StreamLattice {
            n,
            windows: vec![Vec::new(); n],
            base: vec![0; n],
            stable: vec![0; n],
            pushed: vec![0; n],
            level: 0,
            frontier: vec![vec![0u32; n]],
            levels: vec![1],
            states: 1,
            cap,
            truncated: false,
            mem_high_water_cuts: 1,
            packed_levels: 0,
            hash_levels: 0,
        };
        if s.states > s.cap {
            s.truncated = true;
            s.frontier.clear();
        }
        s
    }

    /// Append process `p`'s next event stamp (local order; stamps must be
    /// monotone per process, as in [`crate::history::History`]).
    pub fn push(&mut self, p: usize, stamp: VectorStamp) {
        debug_assert!(
            self.windows[p].last().is_none_or(|prev| prev.le(&stamp)),
            "a process's local stamps must be monotone"
        );
        self.windows[p].push(stamp);
        self.pushed[p] += 1;
    }

    /// Declare the first `events` events of process `p` (absolute count)
    /// **stable**: they are final and happen-before every event any process
    /// has yet to push. Under Δ-bounded strobe dissemination, events sensed
    /// more than 2Δ before the newest arrival qualify. Monotone; clamped to
    /// what was pushed.
    pub fn mark_stable(&mut self, p: usize, events: usize) {
        self.stable[p] = self.stable[p].max(events.min(self.pushed[p]));
    }

    /// Declare every pushed event stable (end of stream).
    pub fn mark_all_stable(&mut self) {
        for p in 0..self.n {
            self.stable[p] = self.pushed[p];
        }
    }

    /// Advance the frontier through every level that is final under the
    /// current stability marks, then retire events no frontier cut can
    /// exclude any more. Returns the number of levels advanced.
    pub fn settle(&mut self) -> usize {
        let sum_stable: usize = self.stable.iter().sum();
        let mut advanced = 0;
        while !self.truncated && !self.frontier.is_empty() && self.level < sum_stable {
            self.expand_level();
            advanced += 1;
        }
        if advanced > 0 {
            self.retire_dominated();
        }
        advanced
    }

    /// One BFS step: replace the frontier with its consistent successors
    /// and count the new level, exactly as the offline enumeration would.
    fn expand_level(&mut self) {
        let lens: Vec<u32> = self.windows.iter().map(|w| w.len() as u32).collect();
        let window_lens: Vec<usize> = self.windows.iter().map(Vec::len).collect();
        let next: Vec<Vec<u32>> = if packed_window_fits(&window_lens) {
            self.packed_levels += 1;
            self.expand_packed(&lens)
        } else {
            self.hash_levels += 1;
            self.expand_hash(&lens)
        };
        self.frontier = next;
        self.level += 1;
        self.levels.push(self.frontier.len() as u64);
        self.states += self.frontier.len() as u64;
        self.mem_high_water_cuts = self.mem_high_water_cuts.max(self.frontier.len() as u64);
        if self.states > self.cap {
            self.truncated = true;
            self.frontier.clear();
        }
    }

    /// Packed expansion: window-relative cuts as single `u64` keys, the
    /// per-event consistency thresholds hoisted into a flat table, and the
    /// successor level deduplicated by sort + dedup (PR-2 encoding).
    fn expand_packed(&mut self, lens: &[u32]) -> Vec<Vec<u32>> {
        let n = self.n;
        let mut offsets = Vec::with_capacity(n);
        let mut total_bits = 0u32;
        for &len in lens {
            offsets.push(total_bits);
            total_bits += u64::BITS - (len as u64).leading_zeros();
        }
        let mut wbase = vec![0usize; n];
        let mut acc = 0usize;
        for (p, b) in wbase.iter_mut().enumerate() {
            *b = acc;
            acc += lens[p] as usize;
        }
        // thr[(wbase[i]+k)·n + j]: window events of j that happen-before
        // window event k of i. Retired events are in every cut, so only
        // window-relative thresholds can ever bind.
        let total: usize = acc;
        let mut thr = vec![0u32; total * n];
        for i in 0..n {
            for (k, e) in self.windows[i].iter().enumerate() {
                let row = &mut thr[(wbase[i] + k) * n..][..n];
                for (j, t) in row.iter_mut().enumerate() {
                    if j != i {
                        *t = self.windows[j].partition_point(|s| s.lt(e)) as u32;
                    }
                }
            }
        }
        let pack = |cut: &[u32]| -> u64 {
            cut.iter().zip(&offsets).map(|(&c, &off)| (c as u64) << off).sum()
        };
        let mut next: Vec<u64> = Vec::new();
        let mut cut = vec![0u32; n];
        for fc in &self.frontier {
            let key = pack(fc);
            cut.copy_from_slice(fc);
            for (i, &off) in offsets.iter().enumerate() {
                let ci = cut[i];
                if ci >= lens[i] {
                    continue;
                }
                let row = &thr[(wbase[i] + ci as usize) * n..][..n];
                let mut ok = true;
                for (j, &t) in row.iter().enumerate() {
                    ok &= cut[j] >= t;
                }
                if ok {
                    next.push(key + (1u64 << off));
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        next.into_iter()
            .map(|key| {
                let mut out = vec![0u32; n];
                unpack_cut(key, &offsets, total_bits, &mut out);
                out
            })
            .collect()
    }

    /// Fallback expansion for windows wider than 64 packed bits.
    fn expand_hash(&mut self, lens: &[u32]) -> Vec<Vec<u32>> {
        let n = self.n;
        let mut next: HashSet<Vec<u32>> = HashSet::new();
        for cut in &self.frontier {
            for i in 0..n {
                let ci = cut[i];
                if ci >= lens[i] {
                    continue;
                }
                let e = &self.windows[i][ci as usize];
                let ok = (0..n).all(|j| {
                    j == i || cut[j] >= lens[j] || !self.windows[j][cut[j] as usize].lt(e)
                });
                if ok {
                    let mut succ = cut.clone();
                    succ[i] += 1;
                    next.insert(succ);
                }
            }
        }
        let mut out: Vec<Vec<u32>> = next.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Retire every event that all frontier cuts include: cuts only grow
    /// along the BFS, so such an event can never be excluded again and its
    /// stamp can never matter to a consistency test.
    fn retire_dominated(&mut self) {
        if self.frontier.is_empty() {
            // Lattice fully consumed (or truncated): nothing constrains
            // anything any more.
            for (w, b) in self.windows.iter_mut().zip(&mut self.base) {
                *b += w.len();
                w.clear();
            }
            return;
        }
        for p in 0..self.n {
            let floor = self.frontier.iter().map(|c| c[p]).min().unwrap_or(0) as usize;
            if floor == 0 {
                continue;
            }
            self.windows[p].drain(..floor);
            self.base[p] += floor;
            for cut in &mut self.frontier {
                cut[p] -= floor as u32;
            }
        }
    }

    /// Finish the enumeration — marks everything stable, runs the BFS to
    /// exhaustion, and returns stats bit-identical to
    /// [`crate::lattice::enumerate_lattice`] over the full pushed history
    /// with the same cap (levels padded to `total + 1` like the offline
    /// enumeration's preallocated profile).
    pub fn seal(mut self) -> LatticeStats {
        self.mark_all_stable();
        let sum_stable: usize = self.stable.iter().sum();
        while !self.truncated && !self.frontier.is_empty() && self.level < sum_stable {
            self.expand_level();
        }
        let total: usize = self.pushed.iter().sum();
        let mut levels = self.levels;
        levels.resize(total + 1, 0);
        LatticeStats { states: self.states, levels, truncated: self.truncated }
    }

    /// Current frontier width: live cuts at the current level.
    pub fn frontier_width(&self) -> usize {
        self.frontier.len()
    }

    /// Widest frontier ever held live — the O(window) memory bound.
    pub fn mem_high_water_cuts(&self) -> u64 {
        self.mem_high_water_cuts
    }

    /// Events garbage-collected so far (stamps dropped).
    pub fn retired_events(&self) -> usize {
        self.base.iter().sum()
    }

    /// Events whose stamps are still held live.
    pub fn window_events(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Current BFS level (events per frontier cut).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Consistent states counted so far (≥ levels advanced).
    pub fn states_so_far(&self) -> u64 {
        self.states
    }

    /// True once the cap stopped the enumeration.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `(packed, hash)` level expansions — which encoding the window sizes
    /// selected over the run.
    pub fn expansion_profile(&self) -> (u64, u64) {
        (self.packed_levels, self.hash_levels)
    }
}

/// Decode a packed window-relative cut key (same layout as the offline
/// enumeration's encoding).
#[inline]
fn unpack_cut(key: u64, offsets: &[u32], total_bits: u32, out: &mut [u32]) {
    for (p, &off) in offsets.iter().enumerate() {
        let end = offsets.get(p + 1).copied().unwrap_or(total_bits);
        let width = end - off;
        let field = if width == 0 { 0 } else { (key >> off) & (u64::MAX >> (u64::BITS - width)) };
        out[p] = field as u32;
    }
}

/// One conjunct truth interval as fed to the streaming advancement: the
/// strobe-stamped bounds plus ground-truth endpoints (mirrors the offline
/// detector's per-process intervals).
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

/// Streaming Garg–Waldecker advancement over per-conjunct interval queues.
///
/// Runs the exact offline advancement loop, but lazily: it pauses whenever
/// some conjunct's next interval has not been produced yet and resumes when
/// it arrives, so the decision (and occurrence) sequence is identical to
/// the offline detector's on the same data. Consumed intervals are popped
/// immediately; [`prune`](Self::prune) additionally drops queued intervals
/// that a starved peer's future can only be preceded by.
#[derive(Debug, Clone)]
pub struct AdvancementFrontier {
    /// Pending (not yet advanced-past) intervals per conjunct; the front of
    /// each queue is the offline algorithm's `idx[p]` position.
    queues: Vec<std::collections::VecDeque<FrontierInterval>>,
    pruned: usize,
}

impl AdvancementFrontier {
    /// A frontier over `k` conjuncts (`k ≥ 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one conjunct");
        AdvancementFrontier { queues: vec![std::collections::VecDeque::new(); k], pruned: 0 }
    }

    /// Append `conjunct`'s next closed interval (local order).
    pub fn push(&mut self, conjunct: usize, interval: FrontierInterval) {
        self.queues[conjunct].push_back(interval);
    }

    /// Run the advancement as far as the queued intervals allow, appending
    /// each recorded occurrence to `out`. Stops (to resume later) when some
    /// conjunct's queue is exhausted.
    pub fn advance(&mut self, out: &mut Vec<FrontierOccurrence>) {
        let k = self.queues.len();
        'outer: loop {
            for q in &self.queues {
                if q.is_empty() {
                    break 'outer;
                }
            }
            // An interval that surely precedes a peer's cannot be part of
            // any overlapping combination — advance it (same pair scan
            // order as the offline loop).
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
    /// the offline loop would advance past it without recording an
    /// occurrence — drop it now. `gates[q]` describes conjunct `q`'s
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
    use crate::history::History;
    use crate::lattice::enumerate_lattice;

    fn vs(v: &[u64]) -> VectorStamp {
        VectorStamp::from_slice(v)
    }

    /// Replay a sealed history through the stream maintainer (interleaving
    /// pushes round-robin) and seal; must equal the offline enumeration.
    fn check_equivalence(h: &History, cap: u64) {
        let n = h.num_processes();
        let mut s = StreamLattice::new(n, cap);
        let max_len = (0..n).map(|p| h.len_of(p)).max().unwrap_or(0);
        for k in 0..max_len {
            for p in 0..n {
                if k < h.len_of(p) {
                    s.push(p, h.stamps[p][k].clone());
                }
            }
        }
        let offline = enumerate_lattice(h, cap);
        let sealed = s.seal();
        assert_eq!(sealed, offline);
    }

    #[test]
    fn sealed_stream_matches_offline_enumeration() {
        // Independent grid.
        let h = History::new(vec![vec![vs(&[1, 0]), vs(&[2, 0])], vec![vs(&[0, 1]), vs(&[0, 2])]]);
        check_equivalence(&h, 1_000);
        // Chain (total order).
        let h = History::new(vec![vec![vs(&[1, 0]), vs(&[3, 2])], vec![vs(&[1, 1]), vs(&[1, 2])]]);
        check_equivalence(&h, 1_000);
        // Message-pruned.
        let h = History::new(vec![vec![vs(&[1, 0]), vs(&[2, 0])], vec![vs(&[0, 1]), vs(&[2, 2])]]);
        check_equivalence(&h, 1_000);
        // Empty.
        let h = History::new(vec![vec![], vec![]]);
        check_equivalence(&h, 10);
    }

    #[test]
    fn sealed_stream_matches_offline_under_truncation() {
        let h = History::new(
            (0..3)
                .map(|p| {
                    (1..=4u64)
                        .map(|k| {
                            let mut v = vec![0; 3];
                            v[p] = k;
                            VectorStamp::from(v)
                        })
                        .collect()
                })
                .collect(),
        );
        check_equivalence(&h, 20);
        check_equivalence(&h, 1_000_000);
    }

    #[test]
    fn hash_fallback_matches_offline() {
        // 22 processes × 3 events each: 22·2 = 44… actually 3 events need
        // 2 bits → 44 bits (packed). Use 22 × 7 (3 bits → 66 bits) with a
        // tight cap to force the fallback, mirroring the offline test.
        let h = History::new(
            (0..22)
                .map(|p| {
                    (1..=7u64)
                        .map(|k| {
                            let mut v = vec![0; 22];
                            v[p] = k;
                            VectorStamp::from(v)
                        })
                        .collect()
                })
                .collect(),
        );
        check_equivalence(&h, 500);
        assert!(!packed_window_fits(&[7usize; 22]));
        assert!(packed_window_fits(&[2usize; 13]));
    }

    #[test]
    fn incremental_stability_advances_and_retires() {
        // A chain: each event happens-before the next (Δ→0 strobes), so
        // every settled level has exactly one cut and the window stays
        // tiny no matter how long the stream runs.
        let n = 2;
        let mut s = StreamLattice::new(n, u64::MAX);
        let mut counts = [0u64; 2];
        let total = 200usize;
        for i in 0..total {
            let p = i % n;
            counts[p] += 1;
            // Chain stamps: event i's stamp carries both processes' event
            // counts so far, so each event strictly dominates the previous.
            s.push(p, vs(&[counts[0], counts[1]]));
            // Events two steps back are "stable" (the 2Δ analogue).
            if i >= 2 {
                let lag = i - 2;
                s.mark_stable(lag % n, lag / n + 1);
            }
            s.settle();
            assert!(s.window_events() <= 4, "chain window must stay O(1)");
        }
        assert!(s.retired_events() > total - 10, "almost everything retired");
        assert_eq!(s.mem_high_water_cuts(), 1, "a chain's frontier is one cut wide");
        let stats = s.seal();
        assert_eq!(stats.states, total as u64 + 1, "chain of total+1 cuts");
    }

    #[test]
    fn settle_never_counts_an_incomplete_level() {
        // Two independent processes; push one event each, mark only p0
        // stable: Σ stable = 1, so only level 1 may be counted — and level
        // 1 must later grow when p1's event is pushed… it must NOT: level
        // 1 with only p0's event would be {(1,0)} but the true level 1 is
        // {(1,0),(0,1)}. The stability rule (level < Σ stable) forbids
        // advancing: level 0 → 1 needs 0 < 1 ✓, which would undercount!
        // — unless p1's event is already pushed. This test pins the
        // *contract*: mark_stable(p, k) promises every unpushed event is
        // dominated by the stable prefix. Here we uphold it by pushing
        // both events first.
        let mut s = StreamLattice::new(2, u64::MAX);
        s.push(0, vs(&[1, 0]));
        s.push(1, vs(&[0, 1]));
        s.mark_stable(0, 1);
        s.settle();
        assert_eq!(s.level(), 1);
        assert_eq!(s.frontier_width(), 2, "both level-1 cuts present");
        s.mark_stable(1, 1);
        let stats = s.seal();
        assert_eq!(stats.states, 4);
        assert_eq!(stats.levels, vec![1, 2, 1]);
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
