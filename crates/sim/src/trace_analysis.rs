//! Post-hoc analysis of a structured [`Trace`].
//!
//! [`TraceAnalysis`] indexes a sealed trace once and answers the question
//! experiment E9 and the chaos soak ask of an execution: is any `Lost`
//! record ([`TraceAnalysis::near_any_loss`]) or fault-plane record
//! ([`TraceAnalysis::near_any_fault`]) within a window of an interval?
//! Process events and their logical stamps are not in the trace; they
//! live in the processes' own logs.

use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind};

/// Index over a sealed [`Trace`]. Build once, query many times.
pub struct TraceAnalysis {
    /// Times of `Lost` records, ascending.
    loss_times: Vec<SimTime>,
    /// Times of `Fault` records, ascending.
    fault_times: Vec<SimTime>,
}

impl TraceAnalysis {
    /// Index `trace` (must be sealed — the engine seals at end of run).
    pub fn build(trace: &Trace) -> Self {
        let mut loss_times = Vec::new();
        let mut fault_times = Vec::new();
        for r in trace.records() {
            match &r.kind {
                TraceKind::Lost { .. } => loss_times.push(r.at),
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
        TraceAnalysis { loss_times, fault_times }
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
impl TraceAnalysis {
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
    use crate::trace::MsgId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
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
