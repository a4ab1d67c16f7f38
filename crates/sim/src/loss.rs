//! Message-loss models.
//!
//! Strobe-clock protocols broadcast their clocks; the paper notes (§4.2.2)
//! that "a message loss may result in the wrong detection of the predicate
//! in the temporal vicinity of the lost message. However, there will be no
//! long-term ripple effects." Experiment E9 injects losses from these models
//! and verifies that claim.

use serde::{Deserialize, Serialize};

use crate::rng::RngStream;

/// A message-loss model. Stateful variants carry their channel state, so use
/// one instance per channel (or one shared instance for a broadcast medium).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// Lossless channel.
    None,
    /// Each message is independently lost with probability `p`.
    Bernoulli {
        /// Per-message loss probability.
        p: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain. In the *good*
    /// state messages are lost with probability `loss_good`, in the *bad*
    /// state with `loss_bad`; the chain moves good→bad with probability
    /// `p_gb` and bad→good with `p_bg`, evaluated per message.
    GilbertElliott {
        /// Probability of moving good → bad, per message.
        p_gb: f64,
        /// Probability of moving bad → good, per message.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
        /// Current state: `true` = bad (bursty) state.
        in_bad: bool,
    },
}

impl LossModel {
    /// A Gilbert–Elliott model starting in the good state.
    pub fn bursty(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad, in_bad: false }
    }

    /// Decide whether the next message is lost (advances burst state).
    pub(crate) fn is_lost(&mut self, rng: &mut RngStream) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.bernoulli(*p),
            LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad, in_bad } => {
                // Transition first, then sample loss in the new state.
                if *in_bad {
                    if rng.bernoulli(*p_bg) {
                        *in_bad = false;
                    }
                } else if rng.bernoulli(*p_gb) {
                    *in_bad = true;
                }
                let p = if *in_bad { *loss_bad } else { *loss_good };
                rng.bernoulli(p)
            }
        }
    }
}

#[cfg(test)]
impl LossModel {
    /// The long-run average loss probability of this model.
    pub(crate) fn steady_state_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p.clamp(0.0, 1.0),
            LossModel::GilbertElliott { p_gb, p_bg, loss_good, loss_bad, .. } => {
                if p_gb + p_bg == 0.0 {
                    return loss_good;
                }
                let pi_bad = p_gb / (p_gb + p_bg);
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> RngStream {
        RngFactory::new(123).stream(5)
    }

    #[test]
    fn lossless_never_drops() {
        let mut r = rng();
        let mut m = LossModel::None;
        assert!((0..1000).all(|_| !m.is_lost(&mut r)));
        assert_eq!(m.steady_state_loss(), 0.0);
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut r = rng();
        let mut m = LossModel::Bernoulli { p: 0.2 };
        let lost = (0..100_000).filter(|_| m.is_lost(&mut r)).count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate was {rate}");
        assert!((m.steady_state_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let mut r = rng();
        let mut m = LossModel::bursty(0.05, 0.20, 0.01, 0.50);
        let n = 400_000;
        let lost = (0..n).filter(|_| m.is_lost(&mut r)).count();
        let rate = lost as f64 / n as f64;
        let expected = m.steady_state_loss();
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs expected {expected}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Losses should cluster: probability of a loss immediately following
        // a loss should exceed the marginal loss rate.
        let mut r = rng();
        let mut m = LossModel::bursty(0.02, 0.10, 0.001, 0.8);
        let samples: Vec<bool> = (0..400_000).map(|_| m.is_lost(&mut r)).collect();
        let marginal = samples.iter().filter(|&&x| x).count() as f64 / samples.len() as f64;
        let mut after_loss = 0usize;
        let mut loss_then_loss = 0usize;
        for w in samples.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    loss_then_loss += 1;
                }
            }
        }
        let conditional = loss_then_loss as f64 / after_loss as f64;
        assert!(
            conditional > 2.0 * marginal,
            "conditional {conditional} should exceed 2x marginal {marginal}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The empirical long-run loss rate of any Gilbert–Elliott
            /// chain matches the analytic stationary loss probability
            /// π_bad·loss_bad + (1−π_bad)·loss_good. Transition
            /// probabilities are bounded away from 0 so the chain mixes
            /// within the sample budget.
            #[test]
            fn gilbert_elliott_empirical_rate_matches_stationary(
                p_gb in 0.02f64..0.5,
                p_bg in 0.02f64..0.5,
                loss_good in 0.0f64..0.2,
                loss_bad in 0.3f64..1.0,
                start_bad in 0u8..2,
                seed in 0u64..1_000,
            ) {
                let mut m = LossModel::GilbertElliott {
                    p_gb, p_bg, loss_good, loss_bad, in_bad: start_bad == 1,
                };
                let expected = m.steady_state_loss();
                let mut r = RngFactory::new(seed).stream(1);
                let n = 200_000u32;
                let lost = (0..n).filter(|_| m.is_lost(&mut r)).count();
                let rate = lost as f64 / n as f64;
                // Chebyshev-ish slack: burstier chains (small transition
                // probabilities) have higher variance in the sample mean.
                let tol = 0.015 + 0.03 * (0.02 / p_gb.min(p_bg));
                prop_assert!(
                    (rate - expected).abs() < tol,
                    "rate {} vs stationary {} (tol {})", rate, expected, tol
                );
            }

            /// A fixed `(model, stream)` pair replays the identical loss
            /// sequence — burst state and RNG advance in lock-step, which
            /// the engine's replayability depends on.
            #[test]
            fn gilbert_elliott_is_deterministic_under_a_fixed_stream(
                p_gb in 0.0f64..1.0,
                p_bg in 0.0f64..1.0,
                loss_good in 0.0f64..1.0,
                loss_bad in 0.0f64..1.0,
                seed in 0u64..1_000,
            ) {
                let run = || {
                    let mut m = LossModel::bursty(p_gb, p_bg, loss_good, loss_bad);
                    let mut r = RngFactory::new(seed).labeled_stream("engine.network");
                    (0..2_000).map(|_| m.is_lost(&mut r)).collect::<Vec<bool>>()
                };
                let (a, b) = (run(), run());
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn steady_state_handles_degenerate_chain() {
        let m = LossModel::GilbertElliott {
            p_gb: 0.0,
            p_bg: 0.0,
            loss_good: 0.1,
            loss_bad: 0.9,
            in_bad: false,
        };
        assert!((m.steady_state_loss() - 0.1).abs() < 1e-12);
    }
}
