//! Post-hoc analysis of a structured [`Trace`].
//!
//! [`TraceAnalysis`] indexes a sealed trace once and answers the questions
//! the paper keeps asking of an execution:
//!
//! - **Message pairing** — every `Sent` matched to its `Delivered` (or
//!   `Lost`) by [`MsgId`](crate::trace::MsgId), giving per-channel latency/byte histograms
//!   ([`TraceAnalysis::channel_stats`]).
//! - **Happened-before** — the causal DAG *reconstructed from the recorded
//!   vector stamps* ([`TraceAnalysis::hb_edges`]): an edge `e → f` is in
//!   the covering relation of `V(e) < V(f)`, so the DAG's reachability is
//!   exactly vector-stamp order. Note this is deliberately not the
//!   physical message graph: strobe deliveries merge strobe clocks without
//!   ticking the causal vector, so physical edges would overapproximate
//!   causality.
//! - **Loss vicinity** — is any `Lost` record within a window of an
//!   interval; experiment E9's far-from-loss filter is
//!   [`TraceAnalysis::near_any_loss`].

use std::collections::{BTreeMap, HashMap};

use crate::network::ActorId;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceRecord};

/// Log₂-bucketed latency histogram plus exact count/sum/min/max. Bucket
/// `k` counts samples with `ns` in `[2^k, 2^(k+1))` (bucket 0 also takes
/// 0 ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, sum_ns: 0, min_ns: 0, max_ns: 0 }
    }
}

impl LatencyHistogram {
    /// Add one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let bucket = (64 - ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket] += 1;
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> SimDuration {
        SimDuration(self.min_ns)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration(self.max_ns)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration(0)
        } else {
            SimDuration((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// The log₂ bucket counts (bucket `k` ≈ `[2^k, 2^(k+1))` ns).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }
}

/// Aggregates for one directed channel `(from, to)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions attempted (`Sent` records).
    pub sent: u64,
    /// Of those, dropped by the loss model.
    pub lost: u64,
    /// Payload bytes attempted.
    pub bytes: u64,
    /// Delivery latency distribution of the messages that arrived.
    pub latency: LatencyHistogram,
}

/// Index over a sealed [`Trace`]. Build once, query many times.
pub struct TraceAnalysis<'a> {
    records: &'a [TraceRecord],
    channels: BTreeMap<(ActorId, ActorId), ChannelStats>,
    /// Times of `Lost` records, ascending.
    loss_times: Vec<SimTime>,
    /// Times of `Fault` records, ascending.
    fault_times: Vec<SimTime>,
}

impl<'a> TraceAnalysis<'a> {
    /// Index `trace` (must be sealed — the engine seals at end of run).
    pub fn build(trace: &'a Trace) -> Self {
        let records = trace.records();
        // `MsgId.0` → index of the `Sent` record.
        let mut send_of = HashMap::new();
        let mut channels: BTreeMap<(ActorId, ActorId), ChannelStats> = BTreeMap::new();
        let mut loss_times = Vec::new();
        let mut fault_times = Vec::new();

        for (i, r) in records.iter().enumerate() {
            match &r.kind {
                TraceKind::Sent { from, to, bytes, msg } => {
                    send_of.insert(msg.0, i);
                    let ch = channels.entry((*from, *to)).or_default();
                    ch.sent += 1;
                    ch.bytes += *bytes as u64;
                }
                TraceKind::Delivered { msg, .. } => {
                    if let Some(&s) = send_of.get(&msg.0) {
                        if let TraceKind::Sent { from, to, .. } = &records[s].kind {
                            let ch = channels.entry((*from, *to)).or_default();
                            ch.latency.record(r.at - records[s].at);
                        }
                    }
                }
                TraceKind::Lost { from, to, .. } => {
                    channels.entry((*from, *to)).or_default().lost += 1;
                    loss_times.push(r.at);
                }
                TraceKind::Fault { .. } => fault_times.push(r.at),
                _ => {}
            }
        }
        // Seal order is by seq, not time: records appended after a seal
        // (merged traces) carry later seqs but may carry
        // earlier times, so the binary-searched indices below must be
        // sorted here, not trusted.
        loss_times.sort_unstable();
        fault_times.sort_unstable();
        TraceAnalysis { records, channels, loss_times, fault_times }
    }

    /// The records this analysis indexes.
    pub fn records(&self) -> &'a [TraceRecord] {
        self.records
    }

    /// Per-channel transmission counts, byte totals, and latency
    /// histograms, keyed `(from, to)` in deterministic order.
    pub fn channel_stats(&self) -> &BTreeMap<(ActorId, ActorId), ChannelStats> {
        &self.channels
    }

    /// Indices of the `Process` records carrying vector stamps — the nodes
    /// of the happened-before DAG.
    pub fn hb_nodes(&self) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(&r.kind, TraceKind::Process { stamp, .. } if stamp.as_vector().is_some())
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Did `a` causally precede `b`, per the recorded vector stamps?
    /// `false` when either record carries no vector stamp.
    pub fn happened_before(&self, a: usize, b: usize) -> bool {
        let stamp = |i: usize| match &self.records[i].kind {
            TraceKind::Process { stamp, .. } => Some(stamp),
            _ => None,
        };
        match (stamp(a), stamp(b)) {
            (Some(sa), Some(sb)) => sa.vector_lt(sb).unwrap_or(false),
            _ => false,
        }
    }

    /// The happened-before DAG over [`TraceAnalysis::hb_nodes`],
    /// reconstructed from the vector stamps as the **covering relation**:
    /// `(a, b)` is an edge iff `V(a) < V(b)` with no recorded `c` strictly
    /// between. The transitive closure of these edges is exactly
    /// stamp order — the property `tests/determinism.rs` proves.
    ///
    /// Cost is cubic in the node count; intended for post-mortem debugging
    /// and tests, not for the simulation hot path.
    pub fn hb_edges(&self) -> Vec<(usize, usize)> {
        let nodes = self.hb_nodes();
        let mut edges = Vec::new();
        // Records are in recording order and causality respects it (a
        // cause is always recorded before its effects), so only scan
        // forward pairs, with candidates for "strictly between" limited to
        // the nodes recorded between the two.
        for (ai, &a) in nodes.iter().enumerate() {
            'pair: for (bi, &b) in nodes.iter().enumerate().skip(ai + 1) {
                if !self.happened_before(a, b) {
                    continue;
                }
                for &c in &nodes[ai + 1..bi] {
                    if self.happened_before(a, c) && self.happened_before(c, b) {
                        continue 'pair;
                    }
                }
                edges.push((a, b));
            }
        }
        edges
    }

    /// Is any message loss within `vicinity` of the interval
    /// `[start, end]`? (Experiment E9's far-from-loss filter.)
    pub fn near_any_loss(&self, start: SimTime, end: SimTime, vicinity: SimDuration) -> bool {
        // partition_point is only meaningful on a sorted slice; build()
        // sorts, so this can only fire if the field is mutated elsewhere.
        debug_assert!(self.loss_times.is_sorted(), "loss_times must stay ascending");
        Self::near_any(&self.loss_times, start, end, vicinity)
    }

    /// Is any fault-plane event (crash, recovery, partition cut/heal,
    /// channel fault application, clock fault) within `vicinity` of the
    /// interval `[start, end]`? The chaos soak's detector invariant — a
    /// detection far from both truth and every fault is a genuine false
    /// positive — is built on this.
    pub fn near_any_fault(&self, start: SimTime, end: SimTime, vicinity: SimDuration) -> bool {
        debug_assert!(self.fault_times.is_sorted(), "fault_times must stay ascending");
        Self::near_any(&self.fault_times, start, end, vicinity)
    }

    fn near_any(times: &[SimTime], start: SimTime, end: SimTime, vicinity: SimDuration) -> bool {
        let lo = start.as_nanos().saturating_sub(vicinity.as_nanos());
        let hi = end.saturating_add(vicinity).as_nanos();
        let first = times.partition_point(|t| t.as_nanos() < lo);
        times.get(first).is_some_and(|t| t.as_nanos() <= hi)
    }
}

#[cfg(test)]
impl TraceAnalysis<'_> {
    /// Merged `[t − vicinity, t + vicinity]` windows around every `Lost`
    /// record, ascending and non-overlapping: the parts of the run where
    /// the paper says detection may be wrong (§4.2.2).
    pub(crate) fn loss_windows(&self, vicinity: SimDuration) -> Vec<(SimTime, SimTime)> {
        let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
        for &t in &self.loss_times {
            let lo = SimTime(t.as_nanos().saturating_sub(vicinity.as_nanos()));
            let hi = t.saturating_add(vicinity);
            match windows.last_mut() {
                Some((_, end)) if lo <= *end => {
                    if hi > *end {
                        *end = hi;
                    }
                }
                _ => windows.push((lo, hi)),
            }
        }
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ClockStamp, MsgId, ProcessEventKind};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A hand-built two-sensor chain: world inject → sense → send →
    /// deliver at root → receive, then a root record with the receive's
    /// own vector.
    fn chain_trace() -> Trace {
        let mut tr = Trace::enabled();
        tr.record(t(10), TraceKind::Delivered { from: 0, to: 0, msg: MsgId(0) }); // world inject
        tr.record(
            t(10),
            TraceKind::Process {
                actor: 0,
                kind: ProcessEventKind::Sense,
                stamp: ClockStamp::vector(&[1, 0, 0]),
                detail: 7,
            },
        );
        tr.record(
            t(10),
            TraceKind::Process {
                actor: 0,
                kind: ProcessEventKind::Send,
                stamp: ClockStamp::vector(&[2, 0, 0]),
                detail: 2,
            },
        );
        tr.record(t(10), TraceKind::Sent { from: 0, to: 2, bytes: 64, msg: MsgId(1) });
        tr.record(t(40), TraceKind::Delivered { from: 0, to: 2, msg: MsgId(1) });
        tr.record(
            t(40),
            TraceKind::Process {
                actor: 2,
                kind: ProcessEventKind::Receive,
                stamp: ClockStamp::vector(&[2, 0, 1]),
                detail: 0,
            },
        );
        tr.seal();
        // Appended after the seal, stamped with the root's state at the
        // receive, as a record that ticks no clock of its own would be.
        tr.record(
            t(40),
            TraceKind::Process {
                actor: 2,
                kind: ProcessEventKind::Actuate,
                stamp: ClockStamp::vector(&[2, 0, 1]),
                detail: 0,
            },
        );
        tr.seal();
        tr
    }

    #[test]
    fn channel_stats_pair_messages_by_id() {
        let mut tr = Trace::enabled();
        // Two in-flight messages on one channel, delivered out of order:
        // only the id makes the pairing unambiguous.
        tr.record(t(0), TraceKind::Sent { from: 0, to: 1, bytes: 10, msg: MsgId(0) });
        tr.record(t(1), TraceKind::Sent { from: 0, to: 1, bytes: 10, msg: MsgId(1) });
        tr.record(t(5), TraceKind::Delivered { from: 0, to: 1, msg: MsgId(1) });
        tr.record(t(90), TraceKind::Delivered { from: 0, to: 1, msg: MsgId(0) });
        tr.record(t(91), TraceKind::Sent { from: 0, to: 1, bytes: 10, msg: MsgId(2) });
        tr.record(t(91), TraceKind::Lost { from: 0, to: 1, msg: MsgId(2) });
        tr.seal();
        let a = TraceAnalysis::build(&tr);
        let ch = &a.channel_stats()[&(0, 1)];
        assert_eq!(ch.sent, 3);
        assert_eq!(ch.lost, 1);
        assert_eq!(ch.bytes, 30);
        assert_eq!(ch.latency.count(), 2);
        assert_eq!(ch.latency.min(), SimDuration::from_millis(4));
        assert_eq!(ch.latency.max(), SimDuration::from_millis(90));
        assert_eq!(ch.latency.mean(), SimDuration::from_millis(47));
    }

    #[test]
    fn hb_edges_cover_exactly_stamp_order() {
        let tr = chain_trace();
        let a = TraceAnalysis::build(&tr);
        let nodes = a.hb_nodes();
        assert_eq!(nodes.len(), 4);
        let edges = a.hb_edges();
        // sense → send-evt → {receive, actuate}: the actuate record carries
        // the *same* vector as the receive, so the two are unordered
        // siblings under the send event, not a chain.
        assert_eq!(edges, vec![(nodes[0], nodes[1]), (nodes[1], nodes[2]), (nodes[1], nodes[3])]);
        assert!(a.happened_before(nodes[0], nodes[3]), "sense still precedes the appended stamp");
        assert!(!a.happened_before(nodes[2], nodes[3]), "equal stamps are not strictly ordered");
    }

    #[test]
    fn loss_windows_merge_and_near_loss_matches() {
        let mut tr = Trace::enabled();
        for (ms, id) in [(100u64, 0u64), (105, 1), (500, 2)] {
            tr.record(t(ms), TraceKind::Lost { from: 0, to: 1, msg: MsgId(id) });
        }
        tr.seal();
        let a = TraceAnalysis::build(&tr);
        let w = a.loss_windows(SimDuration::from_millis(10));
        assert_eq!(w, vec![(t(90), t(115)), (t(490), t(510))]);
        assert!(a.near_any_loss(t(80), t(95), SimDuration::from_millis(10)));
        assert!(!a.near_any_loss(t(200), t(300), SimDuration::from_millis(10)));
        assert!(
            a.near_any_loss(t(200), t(491), SimDuration::from_millis(10)),
            "vicinity extends the interval end"
        );
    }

    #[test]
    fn out_of_order_loss_records_still_index_correctly() {
        // Post-seal appends carry later seqs but may carry *earlier* times
        // (seal sorts by seq, not time) — the loss index must sort rather
        // than trust recording order, or partition_point misses windows.
        let mut tr = Trace::enabled();
        tr.record(t(500), TraceKind::Lost { from: 0, to: 1, msg: MsgId(0) });
        tr.seal();
        tr.record(t(100), TraceKind::Lost { from: 0, to: 1, msg: MsgId(1) });
        tr.record(t(300), TraceKind::Lost { from: 0, to: 1, msg: MsgId(2) });
        tr.seal();
        let at: Vec<SimTime> = tr.records().iter().map(|r| r.at).collect();
        assert_eq!(at, vec![t(500), t(100), t(300)], "record order really is non-chronological");
        let a = TraceAnalysis::build(&tr);
        assert_eq!(
            a.loss_windows(SimDuration::from_millis(10)),
            vec![(t(90), t(110)), (t(290), t(310)), (t(490), t(510))]
        );
        for ms in [100u64, 300, 500] {
            assert!(
                a.near_any_loss(t(ms), t(ms), SimDuration::from_millis(5)),
                "loss at {ms}ms must be found regardless of recording order"
            );
        }
        assert!(!a.near_any_loss(t(200), t(200), SimDuration::from_millis(5)));
    }

    #[test]
    fn fault_vicinity_mirrors_loss_vicinity() {
        use crate::trace::FaultRecordKind;
        let mut tr = Trace::enabled();
        tr.record(t(200), TraceKind::Fault { actor: 1, kind: FaultRecordKind::Crash, detail: 0 });
        tr.record(t(260), TraceKind::Fault { actor: 1, kind: FaultRecordKind::Recover, detail: 0 });
        tr.seal();
        let a = TraceAnalysis::build(&tr);
        assert!(a.near_any_fault(t(190), t(195), SimDuration::from_millis(10)));
        assert!(a.near_any_fault(t(230), t(240), SimDuration::from_millis(25)));
        assert!(!a.near_any_fault(t(100), t(150), SimDuration::from_millis(10)));
        assert!(
            !a.near_any_loss(t(200), t(260), SimDuration::from_secs(1)),
            "faults are not losses"
        );
    }
}
