//! The on-line readout of a streaming watch.
//!
//! The execution model (§2.2) calls for **on-line** detection: reports
//! stream into P₀ and the predicate must be evaluated as the observation
//! unfolds — including *each* subsequent occurrence (§3.3). The one
//! detector that does so is [`crate::stream::StreamingModal`]: reports wait
//! under a hold-back watermark and are released in strobe order, so with
//! `hold_back ≥ 2Δ` on intact strobes its answer equals the offline
//! scalar-strobe sweep of [`crate::detect`] over the same reports. This
//! module holds what a live query reads from it
//! ([`StreamingModal::readout`](crate::stream::StreamingModal::readout)),
//! and the tests pin the on-line behaviour: equality with the offline
//! sweep, late reports counted without hold-back, a bounded buffer, and
//! occurrences surfacing before the stream ends.

use serde::{Deserialize, Serialize};

use psn_sim::time::SimTime;

/// A point-in-time readout of a streaming detector — what a live query
/// (`psn-serve`'s `status` request) reports without disturbing the stream.
/// [`StreamingModal::readout`](crate::stream::StreamingModal::readout)
/// derives it from the same flush as the modal answer — the held reports
/// applied in key order to the live sweep and then undone (relational), or
/// a sealed clone (conjunctive) — so the two always agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineStatus {
    /// Does the predicate hold at the end of the reports offered so far
    /// (the modal `holding_now`)?
    pub holds: bool,
    /// Truth time the open occurrence of a relational predicate started
    /// (`None` when not holding and on conjunctive predicates; `Some(0)`
    /// covers a predicate true at deployment).
    pub open_since: Option<SimTime>,
    /// Occurrences closed so far (`possibly − holding_now`).
    pub occurrences: usize,
    /// Reports the predicate can use, held back awaiting their watermark.
    pub buffered: usize,
    /// Reports the predicate can use, applied after their strobe-order
    /// position had been passed.
    pub late_reports: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_occurrences, Discipline};
    use crate::spec::Predicate;
    use crate::stream::tests::{faulted_fixture, fixture};
    use crate::stream::StreamingModal;
    use psn_core::ExecutionTrace;
    use psn_sim::time::SimDuration;

    /// Feed every report of `trace` in arrival order.
    fn stream(
        trace: &ExecutionTrace,
        pred: &Predicate,
        init: &psn_world::WorldState,
        hold_ms: u64,
    ) -> StreamingModal {
        let hold = SimDuration::from_millis(hold_ms);
        let mut s = StreamingModal::new(pred, init, trace.n, hold);
        for r in &trace.log.reports {
            s.offer(r);
        }
        s
    }

    /// (closed occurrences, holds, open since) of the offline scalar-strobe
    /// sweep over the whole log.
    fn offline(
        trace: &ExecutionTrace,
        pred: &Predicate,
        init: &psn_world::WorldState,
    ) -> (usize, bool, Option<SimTime>) {
        let ds = detect_occurrences(trace, pred, init, Discipline::ScalarStrobe);
        let closed = ds.iter().filter(|d| d.end.is_some()).count();
        let open = ds.last().filter(|d| d.end.is_none()).map(|d| d.start);
        (closed, open.is_some(), open)
    }

    fn restated(online: OnlineStatus) -> (usize, bool, Option<SimTime>) {
        (online.occurrences, online.holds, online.open_since)
    }

    #[test]
    fn online_equals_offline_with_adequate_holdback() {
        for seed in 0..4 {
            let (scenario, trace) = fixture(200, seed);
            let pred = Predicate::occupancy_over(3, 70);
            let init = scenario.timeline.initial_state();
            let mut s = stream(&trace, &pred, &init, 400); // 2Δ
            let (online, _) = s.readout();
            assert_eq!(restated(online), offline(&trace, &pred, &init), "seed {seed}");
        }
    }

    #[test]
    fn no_late_reports_with_adequate_holdback() {
        let (scenario, trace) = fixture(300, 9);
        let pred = Predicate::occupancy_over(3, 70);
        let mut s = stream(&trace, &pred, &scenario.timeline.initial_state(), 600);
        assert_eq!(s.late_reports(), 0);
        assert_eq!(s.readout().0.late_reports, 0);
    }

    #[test]
    fn zero_holdback_still_detects_but_may_reorder() {
        // With no hold-back the detector evaluates eagerly in arrival
        // order — still every-occurrence, possibly with late reports.
        let (scenario, trace) = fixture(500, 5);
        let pred = Predicate::occupancy_over(3, 70);
        let s = stream(&trace, &pred, &scenario.timeline.initial_state(), 0);
        assert!(s.late_reports() > 0, "Δ=500ms with zero hold-back must see stamp reordering");
        assert!(s.seal().possibly > 0, "occurrences still detected");
    }

    #[test]
    fn buffering_is_bounded_by_holdback_window() {
        let (scenario, trace) = fixture(100, 3);
        let pred = Predicate::occupancy_over(3, 70);
        let init = scenario.timeline.initial_state();
        let hold = SimDuration::from_millis(200);
        let mut s = StreamingModal::new(&pred, &init, trace.n, hold);
        let mut max_buf = 0;
        for r in &trace.log.reports {
            s.offer(r);
            max_buf = max_buf.max(s.buffered());
        }
        // ~4 ev/s world rate × 0.2 s window ⇒ a handful in flight.
        assert!(max_buf < 50, "buffer stayed bounded, saw {max_buf}");
        assert!(max_buf >= 1, "hold-back keeps at least one report buffered");
    }

    #[test]
    fn injected_reordering_hits_the_late_arrival_path() {
        // Reordered reports overtake each other on the wire; with zero
        // hold-back every overtaken report is applied late — and counted.
        let (scenario, trace) = faulted_fixture(150, 11, 600, 0.0);
        assert!(trace.faults.as_ref().unwrap().reordered > 0, "the script must actually fire");
        let pred = Predicate::occupancy_over(3, 70);
        let s = stream(&trace, &pred, &scenario.timeline.initial_state(), 0);
        assert!(s.late_reports() > 0, "overtaken reports must be counted as late");
        assert!(s.seal().possibly > 0, "late application still detects occurrences");
    }

    #[test]
    fn online_matches_offline_under_loss_and_reorder_when_holdback_suffices() {
        // Hold-back ≥ 2Δ + reorder extra restores strobe order at release
        // time, so even on a faulted, lossy channel the on-line readout
        // equals the offline sweep over the same (loss-thinned) log.
        for seed in [1u64, 6, 12] {
            let (scenario, trace) = faulted_fixture(150, seed, 300, 0.05);
            let stats = trace.faults.as_ref().unwrap();
            assert!(stats.reordered > 0, "seed {seed}: reordering must fire");
            assert!(stats.dropped_by_channel > 0, "seed {seed}: loss must fire");
            let pred = Predicate::occupancy_over(3, 70);
            let init = scenario.timeline.initial_state();
            let mut s = stream(&trace, &pred, &init, 2 * 150 + 300 + 50);
            assert_eq!(s.late_reports(), 0, "seed {seed}: hold-back must suffice");
            let (online, _) = s.readout();
            assert_eq!(restated(online), offline(&trace, &pred, &init), "seed {seed}");
        }
    }

    #[test]
    fn detections_stream_incrementally() {
        let (scenario, trace) = fixture(100, 7);
        let pred = Predicate::occupancy_over(3, 70);
        let init = scenario.timeline.initial_state();
        let hold = SimDuration::from_millis(200);
        let mut s = StreamingModal::new(&pred, &init, trace.n, hold);
        let mut mid_count = 0;
        for (i, r) in trace.log.reports.iter().enumerate() {
            s.offer(r);
            if i == trace.log.reports.len() / 2 {
                mid_count = s.readout().0.occurrences;
            }
        }
        let total = s.seal().possibly;
        if total >= 2 {
            assert!(mid_count > 0, "some detections must surface before the end");
        }
        assert!(mid_count <= total);
    }
}
