//! Physical clock hardware models.
//!
//! The paper's implementation design space (§3.2.1.a) starts from physical
//! clocks: perfectly synchronized (ideal, impractical), or imperfectly
//! synchronized with skew ε achieved by a synchronization protocol. This
//! module models the *hardware*: a local oscillator with an initial offset,
//! a constant drift rate (ppm), and a read granularity. The `psn-sync`
//! crate runs RBS/TPSN-style protocols over these oscillators; experiment
//! E1 uses the post-synchronization ε-bounded view.
//!
//! Readings are signed nanoseconds: a badly-offset clock can read "before
//! the epoch".

use serde::{Deserialize, Serialize};

use psn_sim::rng::RngStream;
use psn_sim::time::{SimDuration, SimTime};

use crate::traits::{Causality, Timestamp};

/// A physical clock reading, in signed nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysReading(pub i64);

impl PhysReading {
    /// The reading in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Absolute difference between two readings.
    pub fn abs_diff(self, other: PhysReading) -> SimDuration {
        SimDuration::from_nanos(self.0.abs_diff(other.0))
    }
}

impl Timestamp for PhysReading {
    fn causality(&self, other: &Self) -> Causality {
        match self.0.cmp(&other.0) {
            core::cmp::Ordering::Less => Causality::Before,
            core::cmp::Ordering::Greater => Causality::After,
            core::cmp::Ordering::Equal => Causality::Equal,
        }
    }

    fn wire_size(&self) -> usize {
        8
    }
}

/// A free-running local oscillator.
///
/// Reading at ground-truth time `t` yields
/// `round((t + offset) * (1 + drift_ppm·10⁻⁶))`, quantized to the
/// granularity. `offset` models the phase error at t = 0; `drift_ppm` the
/// frequency error (crystal oscillators in sensor nodes are typically
/// 10–100 ppm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Oscillator {
    /// Phase offset at ground-truth time zero, in nanoseconds.
    pub offset_ns: i64,
    /// Frequency error, parts per million. Positive runs fast.
    pub drift_ppm: f64,
    /// Read quantization, in nanoseconds (1 = exact).
    pub granularity_ns: u64,
}

impl Oscillator {
    /// A perfect oscillator: zero offset, zero drift, exact reads.
    pub fn perfect() -> Self {
        Oscillator { offset_ns: 0, drift_ppm: 0.0, granularity_ns: 1 }
    }

    /// A randomly imperfect oscillator: offset uniform in
    /// `[-max_offset, +max_offset]`, drift uniform in
    /// `[-max_drift_ppm, +max_drift_ppm]`.
    pub fn random(
        rng: &mut RngStream,
        max_offset: SimDuration,
        max_drift_ppm: f64,
        granularity_ns: u64,
    ) -> Self {
        let span = max_offset.as_nanos() as i64;
        let offset_ns =
            if span == 0 { 0 } else { rng.uniform_u64(0, 2 * span as u64) as i64 - span };
        Oscillator {
            offset_ns,
            drift_ppm: rng.uniform_f64(-max_drift_ppm, max_drift_ppm),
            granularity_ns: granularity_ns.max(1),
        }
    }

    /// Read the clock at ground-truth time `t`.
    pub fn read(&self, t: SimTime) -> PhysReading {
        let base = t.as_nanos() as i64 + self.offset_ns;
        let drifted = base as f64 * (1.0 + self.drift_ppm * 1e-6);
        let g = self.granularity_ns as i64;
        let q = (drifted.round() as i64) / g * g;
        PhysReading(q)
    }

    /// Apply a phase correction (what a sync protocol does on resync).
    pub fn adjust_offset(&mut self, delta_ns: i64) {
        self.offset_ns += delta_ns;
    }
}

/// The idealized *post-synchronization* view of a physical clock service
/// with skew bound ε (paper §3.3): each process's reading error is a fixed
/// (per-run) offset drawn uniformly from `[-ε/2, +ε/2]`, so any two
/// processes disagree by at most ε. This is the clock model Mayo–Kearns /
/// Stoller predicate detection assumes, and the one experiment E1 sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncedClock {
    osc: Oscillator,
    epsilon: SimDuration,
}

impl SyncedClock {
    /// A synchronized clock with skew bound `epsilon`, its residual error
    /// drawn from `rng`.
    pub fn new(rng: &mut RngStream, epsilon: SimDuration) -> Self {
        let half = (epsilon.as_nanos() / 2) as i64;
        let offset_ns =
            if half == 0 { 0 } else { rng.uniform_u64(0, 2 * half as u64) as i64 - half };
        SyncedClock { osc: Oscillator { offset_ns, drift_ppm: 0.0, granularity_ns: 1 }, epsilon }
    }

    /// The skew bound ε.
    pub fn epsilon(&self) -> SimDuration {
        self.epsilon
    }

    /// Read the clock at ground-truth time `t`.
    pub fn read(&self, t: SimTime) -> PhysReading {
        self.osc.read(t)
    }

    /// Break the ε guarantee: redraw the residual offset uniformly from
    /// `[-max_offset, +max_offset]`, as after a crash, reboot or clock
    /// fault, before the sync protocol has run again. Until [`Self::resync`]
    /// the reading error may exceed ε and ε-based predicate windows are
    /// unsound for this process.
    pub fn desync(&mut self, rng: &mut RngStream, max_offset: SimDuration) {
        let span = max_offset.as_nanos() as i64;
        self.osc.offset_ns =
            if span == 0 { 0 } else { rng.uniform_u64(0, 2 * span as u64) as i64 - span };
    }

    /// Restore the ε guarantee: redraw the residual offset from
    /// `[-ε/2, +ε/2]` — the same recipe as [`SyncedClock::new`], modelling a
    /// completed resynchronization round.
    pub fn resync(&mut self, rng: &mut RngStream) {
        let half = (self.epsilon.as_nanos() / 2) as i64;
        self.osc.offset_ns =
            if half == 0 { 0 } else { rng.uniform_u64(0, 2 * half as u64) as i64 - half };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::rng::RngFactory;

    #[test]
    fn perfect_oscillator_reads_truth() {
        let o = Oscillator::perfect();
        assert_eq!(o.read(SimTime::from_secs(5)), PhysReading(5_000_000_000));
    }

    #[test]
    fn offset_shifts_reading() {
        let o = Oscillator { offset_ns: -1_000_000, drift_ppm: 0.0, granularity_ns: 1 };
        assert_eq!(o.read(SimTime::from_millis(10)), PhysReading(9_000_000));
    }

    #[test]
    fn drift_accumulates_linearly() {
        let o = Oscillator { offset_ns: 0, drift_ppm: 100.0, granularity_ns: 1 };
        // 100 ppm over 10 s = 1 ms fast.
        let r = o.read(SimTime::from_secs(10));
        assert_eq!(r, PhysReading(10_001_000_000));
    }

    #[test]
    fn granularity_quantizes() {
        let o = Oscillator { offset_ns: 0, drift_ppm: 0.0, granularity_ns: 1000 };
        assert_eq!(o.read(SimTime::from_nanos(1234)), PhysReading(1000));
        assert_eq!(o.read(SimTime::from_nanos(999)), PhysReading(0));
    }

    #[test]
    fn adjust_offset_corrects() {
        let mut o = Oscillator { offset_ns: 500, drift_ppm: 0.0, granularity_ns: 1 };
        o.adjust_offset(-500);
        assert_eq!(o.read(SimTime::from_nanos(42)), PhysReading(42));
    }

    #[test]
    fn random_oscillator_within_bounds() {
        let mut rng = RngFactory::new(1).stream(0);
        for _ in 0..200 {
            let o = Oscillator::random(&mut rng, SimDuration::from_millis(5), 50.0, 1);
            assert!(o.offset_ns.abs() <= 5_000_000);
            assert!(o.drift_ppm.abs() <= 50.0);
        }
    }

    #[test]
    fn synced_clock_error_bounded_by_half_epsilon() {
        let mut rng = RngFactory::new(7).stream(0);
        let eps = SimDuration::from_millis(2);
        for _ in 0..200 {
            let c = SyncedClock::new(&mut rng, eps);
            let t = SimTime::from_secs(100);
            let err = c.read(t).abs_diff(PhysReading(t.as_nanos() as i64));
            assert!(err.as_nanos() <= eps.as_nanos() / 2, "err {err} > eps/2");
        }
    }

    #[test]
    fn two_synced_clocks_disagree_by_at_most_epsilon() {
        let mut rng = RngFactory::new(9).stream(0);
        let eps = SimDuration::from_millis(1);
        let t = SimTime::from_secs(3);
        for _ in 0..200 {
            let a = SyncedClock::new(&mut rng, eps);
            let b = SyncedClock::new(&mut rng, eps);
            assert!(a.read(t).abs_diff(b.read(t)) <= eps);
        }
    }

    #[test]
    fn readings_order_totally() {
        let a = PhysReading(5);
        let b = PhysReading(9);
        assert_eq!(a.causality(&b), Causality::Before);
        assert_eq!(b.causality(&a), Causality::After);
        assert_eq!(a.causality(&a), Causality::Equal);
    }

    #[test]
    fn desync_breaks_and_resync_restores_the_bound() {
        let mut rng = RngFactory::new(11).stream(0);
        let eps = SimDuration::from_micros(10);
        let t = SimTime::from_secs(1);
        let truth = PhysReading(t.as_nanos() as i64);
        let mut c = SyncedClock::new(&mut rng, eps);
        let mut saw_violation = false;
        for _ in 0..100 {
            c.desync(&mut rng, SimDuration::from_millis(50));
            saw_violation |= c.read(t).abs_diff(truth).as_nanos() > eps.as_nanos() / 2;
        }
        assert!(saw_violation, "a 50 ms offset span must exceed ε/2 = 5 µs sometimes");
        for _ in 0..100 {
            c.resync(&mut rng);
            assert!(c.read(t).abs_diff(truth).as_nanos() <= eps.as_nanos() / 2);
        }
    }

    #[test]
    fn zero_epsilon_is_perfect() {
        let mut rng = RngFactory::new(3).stream(0);
        let c = SyncedClock::new(&mut rng, SimDuration::ZERO);
        let t = SimTime::from_millis(123);
        assert_eq!(c.read(t), PhysReading(123_000_000));
    }
}
