//! Message transmission/propagation delay models (paper §3.2.2).
//!
//! The paper's design space for implementing time distinguishes three delay
//! regimes:
//!
//! 1. **Instantaneous / synchronous** — the ideal case, Δ = 0;
//! 2. **Asynchronous Δ-bounded** — delays vary but are bounded by Δ, which
//!    the paper argues is realistic for wireless sensornets (bounded
//!    retransmission attempts) and is the regime in which strobe clocks are
//!    analysed;
//! 3. **Asynchronous unbounded** — the worst-case model.

use serde::{Deserialize, Serialize};

use crate::rng::RngStream;
use crate::time::SimDuration;

/// A message-delay model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// Δ = 0: messages are delivered at the instant they are sent (after all
    /// processing scheduled at the same instant, thanks to stable
    /// tie-breaking).
    Synchronous,
    /// Every message takes exactly this long.
    Fixed(SimDuration),
    /// Uniformly distributed in `[min, max]` — the paper's Δ-bounded model
    /// with Δ = `max`.
    DeltaBounded {
        /// Smallest possible delay.
        min: SimDuration,
        /// Largest possible delay: the Δ bound.
        max: SimDuration,
    },
    /// Exponentially distributed with the given mean — unbounded delays
    /// (worst-case analysis). An optional cap turns it into a truncated
    /// exponential.
    Exponential {
        /// Mean of the (untruncated) exponential.
        mean: SimDuration,
        /// Optional hard cap turning the model into a truncated exponential.
        cap: Option<SimDuration>,
    },
}

impl DelayModel {
    /// A Δ-bounded model `[0, delta]`, the paper's default regime.
    pub fn delta(delta: SimDuration) -> Self {
        DelayModel::DeltaBounded { min: SimDuration::ZERO, max: delta }
    }

    /// Sample one message delay.
    pub fn sample(&self, rng: &mut RngStream) -> SimDuration {
        match *self {
            DelayModel::Synchronous => SimDuration::ZERO,
            DelayModel::Fixed(d) => d,
            DelayModel::DeltaBounded { min, max } => rng.uniform_duration(min, max),
            DelayModel::Exponential { mean, cap } => {
                let d = rng.exponential_duration(mean);
                match cap {
                    Some(c) if d > c => c,
                    _ => d,
                }
            }
        }
    }

    /// The worst-case delay Δ of this model, if one exists.
    ///
    /// `None` for the unbounded (uncapped exponential) model. This value is
    /// what the strobe-clock accuracy analysis calls Δ: races within a Δ
    /// window are where detection errors may occur.
    pub fn delta_bound(&self) -> Option<SimDuration> {
        match *self {
            DelayModel::Synchronous => Some(SimDuration::ZERO),
            DelayModel::Fixed(d) => Some(d),
            DelayModel::DeltaBounded { max, .. } => Some(max),
            DelayModel::Exponential { cap, .. } => cap,
        }
    }

    /// The smallest delay this model can ever produce — the **lookahead**
    /// of the network plane.
    ///
    /// A message sent at time `t` arrives no earlier than `t + min_bound()`,
    /// so shards of actors can be advanced independently through any window
    /// narrower than this bound without missing a cross-shard message. Zero
    /// (synchronous, `delta(Δ)`, exponential) means no lookahead: the
    /// engine then keeps one lane whatever its shard count.
    pub(crate) fn min_bound(&self) -> SimDuration {
        match *self {
            DelayModel::Synchronous => SimDuration::ZERO,
            DelayModel::Fixed(d) => d,
            DelayModel::DeltaBounded { min, .. } => min,
            DelayModel::Exponential { .. } => SimDuration::ZERO,
        }
    }

    /// The mean delay of this model.
    pub fn mean(&self) -> SimDuration {
        match *self {
            DelayModel::Synchronous => SimDuration::ZERO,
            DelayModel::Fixed(d) => d,
            DelayModel::DeltaBounded { min, max } => (min + max) / 2,
            // Mean of a truncated exponential is below the nominal mean; we
            // report the nominal mean, which is what experiments sweep.
            DelayModel::Exponential { mean, .. } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> RngStream {
        RngFactory::new(77).stream(0)
    }

    #[test]
    fn synchronous_is_zero() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(DelayModel::Synchronous.sample(&mut r), SimDuration::ZERO);
        }
        assert_eq!(DelayModel::Synchronous.delta_bound(), Some(SimDuration::ZERO));
    }

    #[test]
    fn fixed_is_constant() {
        let mut r = rng();
        let m = DelayModel::Fixed(SimDuration::from_millis(7));
        for _ in 0..100 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(7));
        }
        assert_eq!(m.delta_bound(), Some(SimDuration::from_millis(7)));
        assert_eq!(m.mean(), SimDuration::from_millis(7));
    }

    #[test]
    fn delta_bounded_stays_in_bounds() {
        let mut r = rng();
        let lo = SimDuration::from_millis(2);
        let hi = SimDuration::from_millis(9);
        let m = DelayModel::DeltaBounded { min: lo, max: hi };
        for _ in 0..5000 {
            let d = m.sample(&mut r);
            assert!(d >= lo && d <= hi, "sample {d} out of bounds");
        }
        assert_eq!(m.delta_bound(), Some(hi));
        assert_eq!(m.min_bound(), lo);
    }

    #[test]
    fn min_bound_is_zero_for_unbounded_below_models() {
        assert_eq!(DelayModel::Synchronous.min_bound(), SimDuration::ZERO);
        assert_eq!(DelayModel::delta(SimDuration::from_millis(9)).min_bound(), SimDuration::ZERO);
        assert_eq!(
            DelayModel::Exponential { mean: SimDuration::from_millis(3), cap: None }.min_bound(),
            SimDuration::ZERO
        );
        assert_eq!(
            DelayModel::Fixed(SimDuration::from_millis(4)).min_bound(),
            SimDuration::from_millis(4)
        );
    }

    #[test]
    fn delta_helper_starts_at_zero() {
        let m = DelayModel::delta(SimDuration::from_millis(100));
        assert_eq!(
            m,
            DelayModel::DeltaBounded { min: SimDuration::ZERO, max: SimDuration::from_millis(100) }
        );
        assert_eq!(m.mean(), SimDuration::from_millis(50));
    }

    #[test]
    fn exponential_mean_approximates() {
        let mut r = rng();
        let m = DelayModel::Exponential { mean: SimDuration::from_millis(10), cap: None };
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| m.sample(&mut r).as_nanos()).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((mean_ms - 10.0).abs() < 0.3, "mean was {mean_ms}ms");
        assert_eq!(m.delta_bound(), None);
    }

    #[test]
    fn exponential_cap_is_respected() {
        let mut r = rng();
        let cap = SimDuration::from_millis(5);
        let m = DelayModel::Exponential { mean: SimDuration::from_millis(10), cap: Some(cap) };
        for _ in 0..5000 {
            assert!(m.sample(&mut r) <= cap);
        }
        assert_eq!(m.delta_bound(), Some(cap));
    }
}
