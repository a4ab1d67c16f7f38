//! Scoring detections against ground truth.
//!
//! The paper quantifies detector quality in terms of **false negatives**
//! (a true occurrence missed) and **false positives** (a detection with no
//! true occurrence), with races — events closer together than the
//! detector's resolution (2ε for synced physical clocks, Δ for strobes) —
//! as the error source. The §5 scenario adds the **borderline bin**: the
//! consensus vector-strobe detector flags race-involved detections, and the
//! application chooses the policy ("to err on the safe side, such entries
//! can be treated as positives").

use serde::{Deserialize, Serialize};

use psn_sim::time::{SimDuration, SimTime};
use psn_world::TruthInterval;

use crate::detect::Detection;

/// What to do with borderline-flagged detections before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BorderlinePolicy {
    /// Count them as detections (the §5 "err on the safe side" choice).
    AsPositive,
    /// Drop them.
    AsNegative,
}

/// Detection quality against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Truth occurrences matched by at least one detection.
    pub true_positives: usize,
    /// Detections matching no truth occurrence.
    pub false_positives: usize,
    /// Truth occurrences matched by no detection.
    pub false_negatives: usize,
    /// Number of borderline-flagged detections (before the policy applied).
    pub borderline: usize,
    /// Borderline detections that matched no truth occurrence (the FPs the
    /// borderline bin caught).
    pub borderline_false_positives: usize,
}

impl AccuracyReport {
    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let d = self.true_positives + self.false_positives;
        if d == 0 {
            1.0
        } else {
            self.true_positives as f64 / d as f64
        }
    }

    /// TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        let d = self.true_positives + self.false_negatives;
        if d == 0 {
            1.0
        } else {
            self.true_positives as f64 / d as f64
        }
    }
}

/// Does `d` overlap truth interval `t` once `t` is expanded by
/// `tolerance` on both sides? Races within the detector's resolution
/// shift edges by up to Δ or 2ε, so a detection within tolerance of a
/// truth interval counts. Point detections (start == end) count via `<=`.
fn overlaps(d: &Detection, t: &TruthInterval, horizon: SimTime, tolerance: SimDuration) -> bool {
    let d_start = d.start;
    let d_end = d.end.unwrap_or(horizon);
    let t_start = SimTime::from_nanos(t.start.as_nanos().saturating_sub(tolerance.as_nanos()));
    let t_end = t.end.unwrap_or(horizon).saturating_add(tolerance);
    d_start <= t_end && t_start <= d_end
}

/// Does `d` match *any* truth occurrence within `tolerance`? The same
/// overlap rule [`score`] applies per detection, exposed for invariant
/// checks (the chaos soak asserts every unmatched detection is near an
/// injected fault).
pub fn detection_matches(
    d: &Detection,
    truth: &[TruthInterval],
    horizon: SimTime,
    tolerance: SimDuration,
) -> bool {
    truth.iter().any(|t| overlaps(d, t, horizon, tolerance))
}

/// Match `detections` against `truth` with a symmetric time `tolerance`
/// (races within the detector's resolution shift edges by up to Δ or 2ε —
/// a detection within tolerance of a truth interval counts).
pub fn score(
    detections: &[Detection],
    truth: &[TruthInterval],
    horizon: SimTime,
    tolerance: SimDuration,
    policy: BorderlinePolicy,
) -> AccuracyReport {
    let borderline = detections.iter().filter(|d| d.borderline).count();
    let effective: Vec<&Detection> = detections
        .iter()
        .filter(|d| match policy {
            BorderlinePolicy::AsPositive => true,
            BorderlinePolicy::AsNegative => !d.borderline,
        })
        .collect();

    let overlaps =
        |d: &Detection, t: &TruthInterval| -> bool { overlaps(d, t, horizon, tolerance) };

    let mut matched_truth = vec![false; truth.len()];
    let mut fp = 0usize;
    let mut borderline_fp = 0usize;
    for d in &effective {
        let mut any = false;
        for (i, t) in truth.iter().enumerate() {
            if overlaps(d, t) {
                matched_truth[i] = true;
                any = true;
            }
        }
        if !any {
            fp += 1;
            if d.borderline {
                borderline_fp += 1;
            }
        }
    }
    // Also count borderline FPs among dropped detections (so AsNegative
    // still reports what the bin caught).
    if matches!(policy, BorderlinePolicy::AsNegative) {
        for d in detections.iter().filter(|d| d.borderline) {
            if !truth.iter().any(|t| overlaps(d, t)) {
                borderline_fp += 1;
            }
        }
    }
    let tp = matched_truth.iter().filter(|&&m| m).count();
    let fn_ = truth.len() - tp;
    AccuracyReport {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
        borderline,
        borderline_false_positives: borderline_fp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(start_ms: u64, end_ms: Option<u64>) -> TruthInterval {
        TruthInterval {
            start: SimTime::from_millis(start_ms),
            end: end_ms.map(SimTime::from_millis),
        }
    }

    fn d(start_ms: u64, end_ms: Option<u64>, borderline: bool) -> Detection {
        Detection {
            start: SimTime::from_millis(start_ms),
            end: end_ms.map(SimTime::from_millis),
            borderline,
        }
    }

    const H: SimTime = SimTime(3_600_000_000_000);
    const TOL: SimDuration = SimDuration(100_000_000); // 100ms

    #[test]
    fn exact_match_scores_perfectly() {
        let truth = [t(100, Some(200)), t(500, Some(700))];
        let det = [d(100, Some(200), false), d(500, Some(700), false)];
        let r = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!((r.true_positives, r.false_positives, r.false_negatives), (2, 0, 0));
        assert_eq!(r.precision(), 1.0);
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn miss_is_false_negative() {
        let truth = [t(100, Some(200)), t(5000, Some(6000))];
        let det = [d(100, Some(200), false)];
        let r = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r.false_negatives, 1);
        assert!((r.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spurious_detection_is_false_positive() {
        let truth = [t(100, Some(200))];
        let det = [d(100, Some(200), false), d(9000, Some(9100), false)];
        let r = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r.false_positives, 1);
        assert!((r.precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tolerance_allows_shifted_edges() {
        let truth = [t(1000, Some(1200))];
        // Detection shifted by 80ms < 100ms tolerance.
        let det = [d(1280, Some(1300), false)];
        let r = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r.true_positives, 1);
        // Shifted by more than the tolerance: miss.
        let det2 = [d(1500, Some(1600), false)];
        let r2 = score(&det2, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r2.true_positives, 0);
        assert_eq!(r2.false_positives, 1);
    }

    #[test]
    fn borderline_policy_switches_counting() {
        let truth = [t(100, Some(200))];
        // A borderline FP far from any truth.
        let det = [d(100, Some(200), false), d(9000, Some(9000), true)];
        let pos = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(pos.false_positives, 1);
        assert_eq!(pos.borderline, 1);
        assert_eq!(pos.borderline_false_positives, 1, "the bin caught it");
        let neg = score(&det, &truth, H, TOL, BorderlinePolicy::AsNegative);
        assert_eq!(neg.false_positives, 0, "dropped before scoring");
        assert_eq!(neg.borderline_false_positives, 1, "still reported as caught");
    }

    #[test]
    fn borderline_true_detection_survives_aspositive() {
        let truth = [t(100, Some(200))];
        let det = [d(150, Some(150), true)];
        let pos = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(pos.true_positives, 1);
        let neg = score(&det, &truth, H, TOL, BorderlinePolicy::AsNegative);
        assert_eq!(neg.false_negatives, 1, "dropping the borderline loses the occurrence");
    }

    #[test]
    fn open_intervals_extend_to_horizon() {
        let truth = [t(100, None)];
        let det = [d(500_000, None, false)];
        let r = score(&det, &truth, H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r.true_positives, 1);
    }

    #[test]
    fn empty_inputs() {
        let r = score(&[], &[], H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r.true_positives, 0);
        assert_eq!(r.precision(), 1.0);
        assert_eq!(r.recall(), 1.0);
        let r2 = score(&[], &[t(1, Some(2))], H, TOL, BorderlinePolicy::AsPositive);
        assert_eq!(r2.false_negatives, 1);
        assert_eq!(r2.recall(), 0.0);
    }
}
