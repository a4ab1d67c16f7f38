//! Online (streaming) every-occurrence detection at the root.
//!
//! The execution model (§2.2) calls for **on-line** detection: reports
//! stream into P₀ and the predicate must be evaluated as the observation
//! unfolds — including *each* subsequent occurrence (§3.3). The offline
//! sweep in [`crate::detect`] sorts the full log; this module does the same
//! job incrementally with a **hold-back watermark**: a report is released
//! for evaluation only once `hold_back` of (root-local arrival) time has
//! passed since it arrived, by which point — with Δ-bounded delays and
//! `hold_back ≥ 2Δ` — every report that belongs before it in strobe order
//! has also arrived. Reports that still arrive "late" (after their stamp
//! position was evaluated) are applied immediately and counted; with an
//! adequate hold-back on a lossless network there are none, and the online
//! detector's output equals the offline sweep's exactly (tested). The
//! hold-back buffer is [`crate::stream`]'s, with arrivals numbered so that
//! of two reports with one strobe key the first to arrive is released first.

use serde::{Deserialize, Serialize};

use psn_core::ReceivedReport;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::WorldState;

use crate::detect::Detection;
use crate::metrics::DetectorMetrics;
use crate::spec::{Compiled, Predicate};
use crate::stream::{HoldBack, Pending};

/// A point-in-time readout of a streaming detector — what a live query
/// (`psn-serve`'s `status` request) reports without disturbing the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineStatus {
    /// Does the predicate hold in the currently reconstructed state?
    pub holds: bool,
    /// Truth time the open occurrence started (`None` when not holding;
    /// `Some(0)` covers a predicate true at deployment).
    pub open_since: Option<SimTime>,
    /// Occurrences closed so far.
    pub occurrences: usize,
    /// Reports currently held back awaiting their watermark.
    pub buffered: usize,
    /// Reports applied after their strobe-order position had been passed.
    pub late_reports: usize,
}

/// A streaming detector over the scalar-strobe order.
pub struct OnlineDetector {
    state: Compiled,
    holds: bool,
    /// Buffered, not-yet-released reports, tie-broken by arrival number.
    buffer: HoldBack<u64, ()>,
    arrivals: u64,
    detections: Vec<Detection>,
    /// (truth start, arrival of the rising-edge report — None for the
    /// deployment-time open interval).
    open: Option<(SimTime, Option<SimTime>)>,
    metrics: DetectorMetrics,
}

impl OnlineDetector {
    /// A detector for `predicate`, holding each report back `hold_back`
    /// before evaluation (use ≥ 2Δ for in-order release under Δ-bounded
    /// delays). `initial` is the deployment-time observed state.
    pub fn new(predicate: Predicate, initial: &WorldState, hold_back: SimDuration) -> Self {
        let mut state = predicate.compile(initial);
        let holds = state.holds();
        let open = if holds { Some((SimTime::ZERO, None)) } else { None };
        OnlineDetector {
            state,
            holds,
            buffer: HoldBack::new(hold_back),
            arrivals: 0,
            detections: Vec::new(),
            open,
            metrics: DetectorMetrics::disabled(),
        }
    }

    /// Record occurrences, detection latency, and buffer occupancy into
    /// `metrics` (builder style). Recording never changes detection output.
    pub fn with_metrics(mut self, metrics: DetectorMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Feed the next report **in arrival order**. Releases (and evaluates)
    /// every buffered report whose hold-back has expired.
    pub fn offer(&mut self, r: &ReceivedReport) {
        self.buffer.push(Pending::new(r, self.arrivals, ()));
        self.arrivals += 1;
        self.metrics.buffer_depth.set(self.buffer.len() as u64);
        self.release_until(self.buffer.watermark(r.arrived_at));
    }

    fn release_until(&mut self, watermark: SimTime) {
        while let Some(e) = self.buffer.pop_due(watermark) {
            self.apply(&e);
        }
    }

    fn apply(&mut self, e: &Pending<u64, ()>) {
        if self.state.set(e.attr, e.value).is_none() {
            return;
        }
        let now_holds = self.state.holds();
        match (self.holds, now_holds) {
            (false, true) => self.open = Some((e.truth, Some(e.arrived_at))),
            (true, false) => {
                let (start, seen_at) = self.open.take().expect("open interval");
                let d = Detection { start, end: Some(e.truth), borderline: false };
                self.metrics.on_occurrence(&d, seen_at);
                self.detections.push(d);
            }
            _ => {}
        }
        self.holds = now_holds;
    }

    /// Does the predicate hold in the currently reconstructed state?
    pub fn holds(&self) -> bool {
        self.holds
    }

    /// Snapshot the detector's current status (non-destructive — the
    /// stream continues unaffected).
    pub fn status(&self) -> OnlineStatus {
        OnlineStatus {
            holds: self.holds,
            open_since: self.open.map(|(start, _)| start),
            occurrences: self.detections.len(),
            buffered: self.buffer.len(),
            late_reports: self.buffer.late_reports,
        }
    }

    /// Occurrences detected (closed) so far.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Reports that arrived after their strobe-order position had already
    /// been evaluated (0 with adequate hold-back on a lossless network).
    pub fn late_reports(&self) -> usize {
        self.buffer.late_reports
    }

    /// Number of currently buffered (held-back) reports.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Flush all buffered reports (end of stream) and return the full
    /// detection list.
    pub fn finish(mut self) -> Vec<Detection> {
        self.release_until(SimTime::MAX);
        if let Some((start, seen_at)) = self.open.take() {
            let d = Detection { start, end: None, borderline: false };
            self.metrics.on_occurrence(&d, seen_at);
            self.detections.push(d);
        }
        self.detections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_occurrences, Discipline};
    use psn_core::{run_execution, ExecutionConfig};
    use psn_sim::delay::DelayModel;
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    fn fixture(delta_ms: u64, seed: u64) -> (psn_world::Scenario, psn_core::ExecutionTrace) {
        let params = ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 2.0,
            mean_stay: psn_sim::time::SimDuration::from_secs(45),
            duration: SimTime::from_secs(400),
            capacity: 70,
        };
        let scenario = exhibition::generate(&params, seed);
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
            seed,
            ..Default::default()
        };
        let trace = run_execution(&scenario, &cfg);
        (scenario, trace)
    }

    #[test]
    fn online_equals_offline_with_adequate_holdback() {
        for seed in 0..4 {
            let (scenario, trace) = fixture(200, seed);
            let pred = Predicate::occupancy_over(3, 70);
            let init = scenario.timeline.initial_state();
            let mut online = OnlineDetector::new(
                pred.clone(),
                &init,
                SimDuration::from_millis(400), // 2Δ
            );
            for r in &trace.log.reports {
                online.offer(r);
            }
            let online_out = online.finish();
            let offline: Vec<Detection> =
                detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe)
                    .into_iter()
                    .map(|d| Detection { borderline: false, ..d })
                    .collect();
            assert_eq!(online_out, offline, "seed {seed}");
        }
    }

    #[test]
    fn no_late_reports_with_adequate_holdback() {
        let (scenario, trace) = fixture(300, 9);
        let pred = Predicate::occupancy_over(3, 70);
        let mut online = OnlineDetector::new(
            pred,
            &scenario.timeline.initial_state(),
            SimDuration::from_millis(600),
        );
        for r in &trace.log.reports {
            online.offer(r);
        }
        assert_eq!(online.late_reports(), 0);
        let _ = online.finish();
    }

    #[test]
    fn zero_holdback_still_detects_but_may_reorder() {
        // With no hold-back the detector evaluates eagerly in arrival
        // order — still every-occurrence, possibly with late reports.
        let (scenario, trace) = fixture(500, 5);
        let pred = Predicate::occupancy_over(3, 70);
        let mut online =
            OnlineDetector::new(pred, &scenario.timeline.initial_state(), SimDuration::ZERO);
        for r in &trace.log.reports {
            online.offer(r);
        }
        let n_late = online.late_reports();
        let out = online.finish();
        assert!(!out.is_empty(), "occurrences still detected");
        assert!(n_late > 0, "Δ=500ms with zero hold-back must see stamp reordering");
    }

    #[test]
    fn buffering_is_bounded_by_holdback_window() {
        let (scenario, trace) = fixture(100, 3);
        let pred = Predicate::occupancy_over(3, 70);
        let mut online = OnlineDetector::new(
            pred,
            &scenario.timeline.initial_state(),
            SimDuration::from_millis(200),
        );
        let mut max_buf = 0;
        for r in &trace.log.reports {
            online.offer(r);
            max_buf = max_buf.max(online.buffered());
        }
        // ~4 ev/s world rate × 0.2 s window ⇒ a handful in flight.
        assert!(max_buf < 50, "buffer stayed bounded, saw {max_buf}");
        let _ = online.finish();
    }

    #[test]
    fn instrumented_online_detector_is_identical_and_records() {
        let (scenario, trace) = fixture(200, 2);
        let pred = Predicate::occupancy_over(3, 70);
        let init = scenario.timeline.initial_state();
        let hold = SimDuration::from_millis(400);
        let mut plain = OnlineDetector::new(pred.clone(), &init, hold);
        let m = psn_sim::metrics::Metrics::new();
        let mut inst = OnlineDetector::new(pred, &init, hold)
            .with_metrics(crate::metrics::DetectorMetrics::attach(&m));
        for r in &trace.log.reports {
            plain.offer(r);
            inst.offer(r);
        }
        let plain_out = plain.finish();
        let inst_out = inst.finish();
        assert_eq!(plain_out, inst_out, "metrics must not change online output");
        let snap = m.snapshot();
        assert_eq!(snap.counter("detector.occurrences"), Some(inst_out.len() as u64));
        let (_, buf_high) = snap.gauge("detector.buffer_depth").unwrap();
        assert!(buf_high >= 1, "hold-back keeps at least one report buffered");
    }

    /// Like [`fixture`] but with a fault-plane channel script installed:
    /// reports toward the root are probabilistically reordered (and
    /// optionally dropped via the loss model), exercising the late-arrival
    /// path with *real* out-of-order deliveries rather than synthetic ones.
    /// Loss is injected as a channel-fault rule on the root-bound channel
    /// (not the global loss model): losing inter-sensor *strobes* makes a
    /// sensor's scalar clock lag unboundedly behind real time, and no
    /// finite hold-back restores strobe order — the paper's 2Δ bound
    /// assumes the strobe dissemination itself is intact.
    fn faulted_fixture(
        delta_ms: u64,
        seed: u64,
        reorder_extra_ms: u64,
        drop_prob: f64,
    ) -> (psn_world::Scenario, psn_core::ExecutionTrace) {
        use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
        let params = ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 2.0,
            mean_stay: psn_sim::time::SimDuration::from_secs(45),
            duration: SimTime::from_secs(400),
            capacity: 70,
        };
        let scenario = exhibition::generate(&params, seed);
        let to_root = |prob: f64, effect: ChannelEffect| {
            FaultSpec::Channel(ChannelFaultRule {
                from: None,
                to: Some(3), // the root
                prob,
                effect,
                duration: None,
            })
        };
        let mut script = FaultScript::new().with(
            SimTime::ZERO,
            to_root(
                0.3,
                ChannelEffect::Reorder { extra: SimDuration::from_millis(reorder_extra_ms) },
            ),
        );
        if drop_prob > 0.0 {
            script = script.with(SimTime::ZERO, to_root(drop_prob, ChannelEffect::Drop));
        }
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
            seed,
            faults: Some(script),
            ..Default::default()
        };
        let trace = run_execution(&scenario, &cfg);
        (scenario, trace)
    }

    #[test]
    fn injected_reordering_hits_the_late_arrival_path() {
        // Reordered reports overtake each other on the wire; with zero
        // hold-back every overtaken report is applied late — and counted.
        let (scenario, trace) = faulted_fixture(150, 11, 600, 0.0);
        assert!(trace.faults.as_ref().unwrap().reordered > 0, "the script must actually fire");
        let pred = Predicate::occupancy_over(3, 70);
        let mut online =
            OnlineDetector::new(pred, &scenario.timeline.initial_state(), SimDuration::ZERO);
        for r in &trace.log.reports {
            online.offer(r);
        }
        assert!(online.late_reports() > 0, "overtaken reports must be counted as late");
        assert!(!online.finish().is_empty(), "late application still detects occurrences");
    }

    #[test]
    fn online_matches_offline_under_loss_and_reorder_when_holdback_suffices() {
        // Hold-back ≥ 2Δ + reorder extra restores strobe order at release
        // time, so even on a faulted, lossy channel the streaming verdict
        // set equals the offline sweep over the same (loss-thinned) log.
        for seed in [1u64, 6, 12] {
            let (scenario, trace) = faulted_fixture(150, seed, 300, 0.05);
            let stats = trace.faults.as_ref().unwrap();
            assert!(stats.reordered > 0, "seed {seed}: reordering must fire");
            assert!(stats.dropped_by_channel > 0, "seed {seed}: loss must fire");
            let pred = Predicate::occupancy_over(3, 70);
            let init = scenario.timeline.initial_state();
            let mut online = OnlineDetector::new(
                pred.clone(),
                &init,
                SimDuration::from_millis(2 * 150 + 300 + 50),
            );
            for r in &trace.log.reports {
                online.offer(r);
            }
            assert_eq!(online.late_reports(), 0, "seed {seed}: hold-back must suffice");
            let online_out = online.finish();
            let offline: Vec<Detection> =
                detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe)
                    .into_iter()
                    .map(|d| Detection { borderline: false, ..d })
                    .collect();
            assert_eq!(online_out, offline, "seed {seed}");
        }
    }

    #[test]
    fn detections_stream_incrementally() {
        let (scenario, trace) = fixture(100, 7);
        let pred = Predicate::occupancy_over(3, 70);
        let mut online = OnlineDetector::new(
            pred.clone(),
            &scenario.timeline.initial_state(),
            SimDuration::from_millis(200),
        );
        let mut mid_count = 0;
        for (i, r) in trace.log.reports.iter().enumerate() {
            online.offer(r);
            if i == trace.log.reports.len() / 2 {
                mid_count = online.detections().len();
            }
        }
        let total = online.finish().len();
        if total >= 2 {
            assert!(mid_count > 0, "some detections must surface before the end");
        }
        assert!(mid_count <= total);
    }
}
