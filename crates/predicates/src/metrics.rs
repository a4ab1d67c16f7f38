//! Detector instrumentation.
//!
//! [`DetectorMetrics`] bundles pre-registered handles into a
//! [`psn_sim::metrics::Metrics`] registry for the detection layer:
//!
//! - counter `detector.occurrences` — occurrences emitted;
//! - counter `detector.borderline` — the borderline-bin size (detections
//!   flagged as race-involved by the vector-strobe discipline);
//! - timer `detector.latency_ns` — per-occurrence detection latency vs
//!   ground truth: the gap between the rising edge's ground-truth time and
//!   the root-local arrival of the report that let the detector see it.
//!
//! Recording is observational only; instrumented and plain detection
//! produce identical output (the workspace-root determinism test covers
//! this end to end).

use psn_sim::metrics::{Counter, Metrics, Timer};
use psn_sim::time::SimTime;

use crate::detect::Detection;

/// Pre-registered detector metric handles. Clone freely; clones share the
/// same underlying cells.
#[derive(Clone)]
pub struct DetectorMetrics {
    /// Occurrences emitted (closed or still-open at end of stream).
    pub occurrences: Counter,
    /// Borderline-bin size: occurrences involved in a race.
    pub borderline: Counter,
    /// Detection latency vs ground truth, in nanoseconds.
    pub latency: Timer,
}

impl DetectorMetrics {
    /// Register detector metrics in `metrics`. The latency histogram
    /// covers [0, 10s) in 100ms bins; the exact moments are unbounded.
    pub fn attach(metrics: &Metrics) -> Self {
        DetectorMetrics {
            occurrences: metrics.counter("detector.occurrences"),
            borderline: metrics.counter("detector.borderline"),
            latency: metrics.timer_with_range("detector.latency_ns", 0.0, 1e10, 100),
        }
    }

    /// Inert handles for uninstrumented detection.
    pub fn disabled() -> Self {
        DetectorMetrics::attach(&Metrics::disabled())
    }

    /// Record one emitted occurrence. `seen_at` is the root-local arrival
    /// time of the report that exposed the rising edge (None for
    /// occurrences already true at deployment, which have no latency).
    pub(crate) fn on_occurrence(&self, d: &Detection, seen_at: Option<SimTime>) {
        self.occurrences.inc();
        if d.borderline {
            self.borderline.inc();
        }
        if let Some(at) = seen_at {
            let lat = at.as_nanos().saturating_sub(d.start.as_nanos());
            self.latency.record(lat as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_and_borderline_and_latency() {
        let m = Metrics::new();
        let dm = DetectorMetrics::attach(&m);
        let d1 = Detection {
            start: SimTime::from_millis(100),
            end: Some(SimTime::from_millis(200)),
            borderline: false,
        };
        let d2 = Detection { borderline: true, ..d1 };
        dm.on_occurrence(&d1, Some(SimTime::from_millis(150)));
        dm.on_occurrence(&d2, None);
        let snap = m.snapshot();
        assert_eq!(snap.counter("detector.occurrences"), Some(2));
        assert_eq!(snap.counter("detector.borderline"), Some(1));
        let lat = snap.timer("detector.latency_ns").unwrap();
        assert_eq!(lat.count, 1, "deployment-time occurrences have no latency");
        assert!((lat.mean - 50e6).abs() < 1e-6, "50ms latency in ns");
    }
}
