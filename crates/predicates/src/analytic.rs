//! Analytical accuracy models.
//!
//! The paper's §3.3 cites simulations "backed by an analytical model with
//! supporting numerical results". This module provides the closed-form
//! counterparts of the measured experiments, so tables can print
//! *predicted vs measured* side by side:
//!
//! - [`fn_probability_synced`] — the Mayo–Kearns false-negative
//!   probability for ε-synchronized clocks (experiment E1's curve);
//! - [`race_probability`] — the probability that a sensed event is
//!   race-involved (another process's event within ±Δ) under Poisson
//!   arrivals (experiment E8's borderline-fraction curve).

use psn_sim::time::SimDuration;

/// Probability that an occurrence of ground-truth duration `overlap` is
/// missed by a detector ordering by ε-synchronized readings whose
/// per-process errors are uniform on ±ε/2.
///
/// The observed overlap is `L + δ` with δ = e₁ − e₂ triangular on [−ε, ε];
/// a false negative needs `δ ≤ −L`:
///
/// ```text
/// P(FN) = (1 − L/ε)² / 2   for L < ε,   0 otherwise.
/// ```
pub fn fn_probability_synced(overlap: SimDuration, epsilon: SimDuration) -> f64 {
    let eps = epsilon.as_secs_f64();
    if eps <= 0.0 {
        return 0.0;
    }
    let r = overlap.as_secs_f64() / eps;
    if r >= 1.0 {
        0.0
    } else {
        (1.0 - r).powi(2) / 2.0
    }
}

/// Probability that a sensed event has at least one *other-process* event
/// within ±`delta`, for Poisson world events at total rate
/// `event_rate_hz` spread uniformly over `n` processes:
///
/// ```text
/// P(race) = 1 − exp(−2 Δ λ (n−1)/n)
/// ```
///
/// This is the fraction of detections the vector-strobe detector should
/// place in the borderline bin — the curve experiment E8 measures.
pub fn race_probability(event_rate_hz: f64, n: usize, delta: SimDuration) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let other_rate = event_rate_hz * (n as f64 - 1.0) / n as f64;
    1.0 - (-2.0 * delta.as_secs_f64() * other_rate).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::rng::RngFactory;

    #[test]
    fn fn_probability_shape() {
        let eps = SimDuration::from_millis(20);
        assert!((fn_probability_synced(SimDuration::ZERO, eps) - 0.5).abs() < 1e-12);
        assert_eq!(fn_probability_synced(eps, eps), 0.0);
        assert_eq!(fn_probability_synced(SimDuration::from_secs(1), eps), 0.0);
        let half = fn_probability_synced(SimDuration::from_millis(10), eps);
        assert!((half - 0.125).abs() < 1e-12, "(1-0.5)^2/2");
        // Monotone decreasing.
        let mut prev = 1.0;
        for ms in [0u64, 2, 5, 10, 15, 19, 20] {
            let p = fn_probability_synced(SimDuration::from_millis(ms), eps);
            assert!(p <= prev);
            prev = p;
        }
        assert_eq!(fn_probability_synced(SimDuration::from_millis(1), SimDuration::ZERO), 0.0);
    }

    #[test]
    fn fn_probability_matches_monte_carlo() {
        // Direct Monte Carlo of the abstract model: δ = e1 − e2 uniform
        // pair; FN iff L + δ ≤ 0.
        let mut rng = RngFactory::new(9).stream(0);
        let eps = 0.02f64;
        for &r in &[0.1f64, 0.25, 0.5, 0.75] {
            let l = r * eps;
            let n = 200_000;
            let hits = (0..n)
                .filter(|_| {
                    let e1 = rng.uniform_f64(-eps / 2.0, eps / 2.0);
                    let e2 = rng.uniform_f64(-eps / 2.0, eps / 2.0);
                    l + e1 - e2 <= 0.0
                })
                .count();
            let mc = hits as f64 / n as f64;
            let analytic = fn_probability_synced(
                SimDuration::from_secs_f64(l),
                SimDuration::from_secs_f64(eps),
            );
            assert!((mc - analytic).abs() < 0.01, "r={r}: mc {mc} vs analytic {analytic}");
        }
    }

    #[test]
    fn fn_probability_matches_e1_simulation() {
        // The full simulated pipeline (E1's setup) should track the
        // analytic curve.
        use crate::detect::{detect_occurrences, Discipline};
        use psn_core::{run_execution, ClockConfig, ExecutionConfig};
        use psn_sim::time::SimTime;

        let epsilon = SimDuration::from_millis(20);
        {
            let &ratio = &0.25f64;
            let overlap = epsilon.mul_f64(ratio);
            let trials = 120;
            let fn_count = (0..trials)
                .filter(|&seed| {
                    let base = SimTime::from_secs(1);
                    let s = crate::analytic::tests::two_pulse(
                        base,
                        base + SimDuration::from_millis(200) + overlap,
                        base + SimDuration::from_millis(200),
                        base + SimDuration::from_millis(500),
                    );
                    let cfg = ExecutionConfig {
                        clocks: ClockConfig { epsilon, ..Default::default() },
                        seed,
                        ..Default::default()
                    };
                    let trace = run_execution(&s, &cfg);
                    let pred = crate::spec::Predicate::Relational(
                        crate::spec::Expr::var(psn_world::AttrKey::new(0, 0))
                            .and(crate::spec::Expr::var(psn_world::AttrKey::new(1, 0))),
                    );
                    detect_occurrences(
                        &trace,
                        &pred,
                        &s.timeline.initial_state(),
                        Discipline::SyncedPhysical,
                    )
                    .is_empty()
                })
                .count();
            let measured = fn_count as f64 / trials as f64;
            let predicted = fn_probability_synced(overlap, epsilon);
            assert!(
                (measured - predicted).abs() < 0.12,
                "ratio {ratio}: measured {measured} vs predicted {predicted}"
            );
        }
    }

    /// Shared two-pulse builder (duplicated from psn-bench's common to
    /// avoid a dependency cycle).
    pub(crate) fn two_pulse(
        a_on: psn_sim::time::SimTime,
        a_off: psn_sim::time::SimTime,
        b_on: psn_sim::time::SimTime,
        b_off: psn_sim::time::SimTime,
    ) -> psn_world::Scenario {
        use psn_world::{AttrKey, AttrValue, ObjectSpec, Timeline, WorldEvent};
        let objects = vec![
            ObjectSpec {
                id: 0,
                name: "A".into(),
                attrs: vec![("v".into(), AttrValue::Bool(false))],
            },
            ObjectSpec {
                id: 1,
                name: "B".into(),
                attrs: vec![("v".into(), AttrValue::Bool(false))],
            },
        ];
        let ev = |id: usize, at, obj, v| WorldEvent {
            id,
            at,
            key: AttrKey::new(obj, 0),
            value: AttrValue::Bool(v),
            caused_by: vec![],
        };
        psn_world::Scenario {
            name: "two-pulse".into(),
            timeline: Timeline::new(
                objects,
                vec![
                    ev(0, a_on, 0, true),
                    ev(1, a_off, 0, false),
                    ev(2, b_on, 1, true),
                    ev(3, b_off, 1, false),
                ],
            ),
            sensing: psn_world::SensorAssignment {
                watches: vec![vec![AttrKey::new(0, 0)], vec![AttrKey::new(1, 0)]],
            },
        }
    }

    #[test]
    fn race_probability_shape() {
        let delta = SimDuration::from_millis(500);
        assert_eq!(race_probability(10.0, 1, delta), 0.0, "one process never races");
        assert_eq!(race_probability(0.0, 8, delta), 0.0, "no events, no races");
        assert!(race_probability(100.0, 8, SimDuration::from_secs(10)) > 0.999);
        // Monotone in rate and Δ.
        let p1 = race_probability(1.0, 4, delta);
        let p2 = race_probability(2.0, 4, delta);
        assert!(p2 > p1);
        let pd = race_probability(1.0, 4, SimDuration::from_secs(1));
        assert!(pd > p1);
    }

    #[test]
    fn race_probability_matches_poisson_monte_carlo() {
        // Sample Poisson event times over a window; measure the fraction
        // with another process's event within ±Δ.
        let mut rng = RngFactory::new(4).stream(0);
        let rate = 2.0f64; // total events/s
        let n = 4usize;
        let delta = 0.5f64;
        let horizon = 50_000.0f64;
        // Generate events: (time, process).
        let mut events: Vec<(f64, usize)> = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / rate);
            if t > horizon {
                break;
            }
            events.push((t, rng.index(n)));
        }
        // The events ascend in time, so the ones within ±Δ of event i are
        // the neighbours on each side up to the first farther one.
        let raced = (0..events.len())
            .filter(|&i| {
                let (ti, pi) = events[i];
                let races = |j: &usize| (ti - events[*j].0).abs() <= delta;
                let other = |j: usize| events[j].1 != pi;
                (0..i).rev().take_while(races).any(other)
                    || (i + 1..events.len()).take_while(races).any(other)
            })
            .count();
        let mc = raced as f64 / events.len() as f64;
        let analytic = race_probability(rate, n, SimDuration::from_secs_f64(delta));
        assert!((mc - analytic).abs() < 0.02, "mc {mc} vs analytic {analytic}");
    }
}
