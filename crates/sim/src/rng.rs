//! Deterministic, splittable random-number streams.
//!
//! Every stochastic entity in a simulation (each sensor process, the world
//! plane, each network channel, …) draws from its **own** stream, derived
//! from the run's master seed and a stable stream identifier. This makes
//! runs reproducible bit-for-bit and — crucially for parameter sweeps —
//! means that changing one entity's behaviour does not perturb the random
//! numbers any other entity sees (common random numbers across sweep cells).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// SplitMix64 step: used to derive stream seeds from `(master, stream_id)`.
/// This is the standard seeding recipe recommended for xoshiro-family
/// generators; it guarantees well-separated streams even for adjacent ids.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A factory for per-entity random streams, all derived from one master seed.
#[derive(Debug, Clone)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Create a factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// Derive the stream with the given stable identifier.
    ///
    /// The same `(master, id)` pair always yields an identical stream.
    pub fn stream(&self, id: u64) -> RngStream {
        let mut s = self.master ^ id.wrapping_mul(0xA24B_AED4_963E_E407);
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&a.to_le_bytes());
        seed[8..16].copy_from_slice(&b.to_le_bytes());
        seed[16..24].copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        seed[24..].copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        RngStream { rng: SmallRng::from_seed(seed) }
    }

    /// Derive a stream from a string label (hashed with FNV-1a), for
    /// entities that are more naturally named than numbered.
    ///
    /// The engine derives its stochastic draws from **per-sender** labels —
    /// `"engine.network.{sender}"` for delivery jitter and
    /// `"engine.faults.{sender}"` for channel-fault rolls — rather than one
    /// shared stream. That choice is what makes the sharded engine
    /// bit-identical to the sequential one: a shard only needs its own
    /// senders' streams, so the draw sequence is independent of how actors
    /// are interleaved across shards.
    pub fn labeled_stream(&self, label: &str) -> RngStream {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.stream(h)
    }
}

/// One deterministic random stream with simulation-oriented helpers.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// A uniform draw in `[0, 1)`.
    pub(crate) fn uniform01(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// A uniform draw in `[lo, hi)` (returns `lo` if the range is empty).
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform01()
    }

    /// A uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.rng.gen_range(lo..=hi)
    }

    /// A uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        self.rng.gen_range(0..n)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }

    /// An exponentially distributed draw with the given mean (inverse rate).
    ///
    /// Used for Poisson inter-arrival times of world-plane events.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // Inversion: -mean * ln(U), with U in (0, 1] to avoid ln(0).
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }

    /// An exponentially distributed duration with the given mean duration.
    pub fn exponential_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// A standard-normal draw (Box–Muller; one value per call for
    /// reproducibility under refactoring).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform01();
        let u2: f64 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// A normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// A uniformly drawn duration in `[lo, hi]` inclusive.
    pub(crate) fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.uniform_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub(crate) fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
impl RngStream {
    /// A uniformly distributed `u64`.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let f = RngFactory::new(42);
        let mut a = f.stream(7);
        let mut b = f.stream(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_ids_differ() {
        let f = RngFactory::new(42);
        let mut a = f.stream(1);
        let mut b = f.stream(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent streams should not collide");
    }

    #[test]
    fn different_master_differs() {
        let mut a = RngFactory::new(1).stream(0);
        let mut b = RngFactory::new(2).stream(0);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn labeled_stream_is_stable() {
        let f = RngFactory::new(9);
        let mut a = f.labeled_stream("world");
        let mut b = f.labeled_stream("world");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = f.labeled_stream("network");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform01_in_range() {
        let mut s = RngFactory::new(3).stream(0);
        for _ in 0..10_000 {
            let x = s.uniform01();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_bounds_inclusive() {
        let mut s = RngFactory::new(3).stream(1);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = s.uniform_u64(5, 8);
            assert!((5..=8).contains(&x));
            saw_lo |= x == 5;
            saw_hi |= x == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut s = RngFactory::new(11).stream(0);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| s.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut s = RngFactory::new(13).stream(0);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut s = RngFactory::new(1).stream(0);
        assert!(!s.bernoulli(0.0));
        assert!(s.bernoulli(1.0));
        assert!(!s.bernoulli(-0.5));
        assert!(s.bernoulli(1.5));
        let hits = (0..100_000).filter(|_| s.bernoulli(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p was {p}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut s = RngFactory::new(5).stream(0);
        let mut xs: Vec<u32> = (0..50).collect();
        s.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn uniform_duration_in_bounds() {
        let mut s = RngFactory::new(5).stream(9);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1000 {
            let d = s.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
    }
}
