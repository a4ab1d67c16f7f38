//! Relative timing relations between predicate occurrences
//! (paper §3.1.1.a.ii).
//!
//! "Some attempts have been made at specifying such constraints for
//! real-world observation … Examples are: X before Y, or X overlaps Y, or
//! X before Y by real-time greater than 5 seconds. An example from secure
//! banking is \[22\]: a biometric key is presented remotely after a password
//! is entered across the network."
//!
//! A [`TimingSpec`] relates the occurrence intervals of two sub-predicates
//! X and Y. Detection works over any clock discipline: the occurrences of
//! X and Y are detected with the sweep detector, then the pairwise
//! relation is checked on the resulting intervals (in the coordinates the
//! detector attributed — for strobe disciplines that means edges may be
//! displaced by up to Δ, so specs should use margins larger than Δ, the
//! same Δ-bounded-accuracy argument the paper makes for *Instantaneously*).

use serde::{Deserialize, Serialize};

use psn_core::ExecutionTrace;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::WorldState;

use crate::detect::{detect_occurrences, Detection, Discipline};
use crate::spec::Predicate;

/// A relative-timing relation between occurrences of X and occurrences of Y.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimingSpec {
    /// Some occurrence of X ends before some occurrence of Y starts, with a
    /// gap of at least `min_gap` (use `ZERO` for plain "X before Y").
    BeforeBy {
        /// Minimum gap between X's end and Y's start.
        min_gap: SimDuration,
    },
    /// Some occurrence of X ends before some occurrence of Y starts, with a
    /// gap of at most `max_gap` — the secure-banking pattern: "the
    /// biometric key is presented (Y) after the password (X), within the
    /// session window".
    FollowedWithin {
        /// Maximum allowed gap between X's end and Y's start.
        max_gap: SimDuration,
    },
    /// Some occurrence of X overlaps some occurrence of Y in time.
    Overlaps,
}

/// One matched (X occurrence, Y occurrence) pair satisfying the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingMatch {
    /// Start of the matched X occurrence.
    pub x_start: SimTime,
    /// End of the matched X occurrence (horizon if open).
    pub x_end: SimTime,
    /// Start of the matched Y occurrence.
    pub y_start: SimTime,
    /// End of the matched Y occurrence (horizon if open).
    pub(crate) y_end: SimTime,
    /// True if either constituent detection was race-involved (borderline).
    pub borderline: bool,
}

fn closed(d: &Detection, horizon: SimTime) -> (SimTime, SimTime) {
    (d.start, d.end.unwrap_or(horizon))
}

/// Evaluate `spec` over two detected occurrence lists.
pub(crate) fn match_timing(
    xs: &[Detection],
    ys: &[Detection],
    spec: &TimingSpec,
    horizon: SimTime,
) -> Vec<TimingMatch> {
    let mut out = Vec::new();
    for x in xs {
        let (xs_, xe) = closed(x, horizon);
        for y in ys {
            let (ys_, ye) = closed(y, horizon);
            let ok = match *spec {
                TimingSpec::BeforeBy { min_gap } => {
                    ys_ >= xe && ys_.saturating_since(xe) >= min_gap
                }
                TimingSpec::FollowedWithin { max_gap } => {
                    ys_ >= xe && ys_.saturating_since(xe) <= max_gap
                }
                TimingSpec::Overlaps => xs_ < ye && ys_ < xe,
            };
            if ok {
                out.push(TimingMatch {
                    x_start: xs_,
                    x_end: xe,
                    y_start: ys_,
                    y_end: ye,
                    borderline: x.borderline || y.borderline,
                });
            }
        }
    }
    out
}

/// Detect occurrences of X and Y in `trace` under `discipline` and match
/// them against `spec` — the full §3.1.1.a.ii pipeline.
#[allow(clippy::too_many_arguments)]
pub fn detect_timing(
    trace: &ExecutionTrace,
    x: &Predicate,
    y: &Predicate,
    spec: &TimingSpec,
    initial: &WorldState,
    discipline: Discipline,
    horizon: SimTime,
) -> Vec<TimingMatch> {
    let xs = detect_occurrences(trace, x, initial, discipline);
    let ys = detect_occurrences(trace, y, initial, discipline);
    match_timing(&xs, &ys, spec, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(start_ms: u64, end_ms: u64) -> Detection {
        Detection {
            start: SimTime::from_millis(start_ms),
            end: Some(SimTime::from_millis(end_ms)),
            borderline: false,
        }
    }

    const H: SimTime = SimTime(10_000_000_000);

    #[test]
    fn before_by_requires_gap() {
        let xs = [det(100, 200)];
        let ys = [det(260, 300)];
        let strict = TimingSpec::BeforeBy { min_gap: SimDuration::from_millis(50) };
        assert_eq!(match_timing(&xs, &ys, &strict, H).len(), 1);
        let stricter = TimingSpec::BeforeBy { min_gap: SimDuration::from_millis(100) };
        assert!(match_timing(&xs, &ys, &stricter, H).is_empty());
    }

    #[test]
    fn before_rejects_overlap() {
        let xs = [det(100, 300)];
        let ys = [det(200, 400)];
        let spec = TimingSpec::BeforeBy { min_gap: SimDuration::ZERO };
        assert!(match_timing(&xs, &ys, &spec, H).is_empty());
        assert_eq!(match_timing(&xs, &ys, &TimingSpec::Overlaps, H).len(), 1);
    }

    #[test]
    fn followed_within_window() {
        // The secure-banking pattern: password (X) then biometric (Y)
        // within the session window.
        let password = [det(1000, 1100)];
        let biometric_ok = [det(1500, 1600)];
        let biometric_late = [det(9000, 9100)];
        let spec = TimingSpec::FollowedWithin { max_gap: SimDuration::from_secs(1) };
        assert_eq!(match_timing(&password, &biometric_ok, &spec, H).len(), 1);
        assert!(match_timing(&password, &biometric_late, &spec, H).is_empty());
    }

    #[test]
    fn every_pair_is_matched() {
        let xs = [det(0, 100), det(1000, 1100)];
        let ys = [det(200, 300), det(1200, 1300)];
        let spec = TimingSpec::BeforeBy { min_gap: SimDuration::ZERO };
        // X1 precedes both Ys; X2 precedes Y2: 3 matches.
        assert_eq!(match_timing(&xs, &ys, &spec, H).len(), 3);
    }

    #[test]
    fn open_intervals_extend_to_horizon() {
        let xs = [Detection { start: SimTime::from_millis(0), end: None, borderline: false }];
        let ys = [det(500, 600)];
        // X never ends: it cannot be "before" Y…
        let spec = TimingSpec::BeforeBy { min_gap: SimDuration::ZERO };
        assert!(match_timing(&xs, &ys, &spec, H).is_empty());
        // …but it overlaps Y.
        assert_eq!(match_timing(&xs, &ys, &TimingSpec::Overlaps, H).len(), 1);
    }

    #[test]
    fn borderline_propagates() {
        let xs = [Detection {
            start: SimTime::from_millis(0),
            end: Some(SimTime::from_millis(10)),
            borderline: true,
        }];
        let ys = [det(20, 30)];
        let m = match_timing(&xs, &ys, &TimingSpec::BeforeBy { min_gap: SimDuration::ZERO }, H);
        assert!(m[0].borderline);
    }

    #[test]
    fn end_to_end_on_a_trace() {
        use psn_core::{run_execution, ExecutionConfig};
        use psn_sim::delay::DelayModel;
        use psn_world::scenarios::exhibition::{self, ExhibitionParams};

        // X = "door 0 has seen ≥ 5 entries", Y = "door 1 has seen ≥ 5
        // entries": X and Y each rise once; match "Y follows X or X
        // follows Y" — the pair must be orderable one way.
        let s = exhibition::generate(
            &ExhibitionParams {
                doors: 2,
                arrival_rate_hz: 2.0,
                mean_stay: SimDuration::from_secs(600),
                duration: SimTime::from_secs(120),
                capacity: 1000,
            },
            5,
        );
        let cfg = ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() };
        let trace = run_execution(&s, &cfg);
        let x = Predicate::Relational(
            crate::spec::Expr::var(psn_world::AttrKey::new(0, 0)).ge(crate::spec::Expr::int(5)),
        );
        let y = Predicate::Relational(
            crate::spec::Expr::var(psn_world::AttrKey::new(1, 0)).ge(crate::spec::Expr::int(5)),
        );
        let init = s.timeline.initial_state();
        let h = SimTime::from_secs(120);
        let spec = TimingSpec::Overlaps;
        let m = detect_timing(&trace, &x, &y, &spec, &init, Discipline::VectorStrobe, h);
        // Both rise and never fall: open intervals overlap at the horizon.
        assert_eq!(m.len(), 1);
    }
}
