//! The clock bundle: every clock of §3.2 running over one execution.
//!
//! To compare detection accuracy across clock options *on identical
//! executions* (the comparisons of §3.3 and experiments E2/E6/E10), each
//! process runs the whole clock zoo side by side. The strobe messages are
//! shared — one broadcast carries both the scalar and the vector strobe
//! payload — and every event receives a [`StampSet`] with one timestamp per
//! clock. Detectors then read only the stamp family they are being
//! evaluated with; wire-size accounting per family is analytic (see
//! `psn-bench` E7).

use serde::{Deserialize, Serialize};

use psn_clocks::{
    LamportClock, LogicalClock, Oscillator, PhysReading, ProcessId, ScalarStamp, StrobeScalarClock,
    StrobeVectorClock, SyncedClock, VectorClock, VectorStamp,
};
use psn_sim::fault::ClockFaultKind;
use psn_sim::rng::RngStream;
use psn_sim::time::{SimDuration, SimTime};

/// Hardware/clock parameters shared by all processes in a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockConfig {
    /// Skew bound ε of the synchronized physical clock service.
    pub epsilon: SimDuration,
    /// Max initial offset of the free-running oscillator.
    pub max_offset: SimDuration,
    /// Max |drift| of the free-running oscillator, ppm.
    pub max_drift_ppm: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            epsilon: SimDuration::from_millis(1),
            max_offset: SimDuration::from_millis(50),
            max_drift_ppm: 50.0,
        }
    }
}

/// All clocks of one process.
#[derive(Debug, Clone)]
pub(crate) struct ClockBundle {
    /// Lamport scalar clock (SC1–SC3) — causality-based.
    pub lamport: LamportClock,
    /// Mattern/Fidge vector clock (VC1–VC3) — causality-based.
    pub vector: VectorClock,
    /// Strobe scalar clock (SSC1–SSC2).
    pub strobe_scalar: StrobeScalarClock,
    /// Strobe vector clock (SVC1–SVC2).
    pub strobe_vector: StrobeVectorClock,
    /// Free-running local oscillator (unsynchronized physical clock).
    pub oscillator: Oscillator,
    /// ε-synchronized physical clock service view.
    pub synced: SyncedClock,
    /// When set, the physical clocks are stuck at these
    /// `(physical, synced)` readings (the `Freeze` clock fault); logical
    /// clocks are unaffected.
    pub(crate) frozen: Option<(PhysReading, PhysReading)>,
}

impl ClockBundle {
    /// A bundle for process `id` among `n`, with hardware imperfections
    /// drawn from `rng`.
    pub fn new(id: ProcessId, n: usize, cfg: &ClockConfig, rng: &mut RngStream) -> Self {
        ClockBundle {
            lamport: LamportClock::new(id),
            vector: VectorClock::new(id, n),
            strobe_scalar: StrobeScalarClock::new(id),
            strobe_vector: StrobeVectorClock::new(id, n),
            oscillator: Oscillator::random(rng, cfg.max_offset, cfg.max_drift_ppm, 1),
            synced: SyncedClock::new(rng, cfg.epsilon),
            frozen: None,
        }
    }

    /// Read every clock *without ticking* at ground-truth time `now`.
    pub fn snapshot(&self, now: SimTime) -> StampSet {
        let (physical, synced) = match self.frozen {
            Some(readings) => readings,
            None => (self.oscillator.read(now), self.synced.read(now)),
        };
        StampSet {
            lamport: self.lamport.current(),
            vector: self.vector.current(),
            strobe_scalar: self.strobe_scalar.current(),
            strobe_vector: self.strobe_vector.current(),
            physical,
            synced,
            truth: now,
        }
    }

    /// Apply a fault-plane clock fault to the physical clock hardware at
    /// ground-truth time `now`. Logical and strobe clocks have no hardware
    /// and are never affected.
    pub(crate) fn apply_clock_fault(
        &mut self,
        kind: ClockFaultKind,
        now: SimTime,
        rng: &mut RngStream,
        cfg: &ClockConfig,
    ) {
        match kind {
            ClockFaultKind::DriftSpike { add_ppm } => self.oscillator.drift_ppm += add_ppm,
            // A reset zeroes the reading: the offset swallows all elapsed
            // ground truth, as when a node reboots without battery-backed
            // time.
            ClockFaultKind::Reset => self.oscillator.offset_ns = -(now.as_nanos() as i64),
            ClockFaultKind::Freeze => {
                self.frozen = Some((self.oscillator.read(now), self.synced.read(now)));
            }
            ClockFaultKind::Unfreeze => self.frozen = None,
            ClockFaultKind::Desync => self.synced.desync(rng, cfg.max_offset),
            ClockFaultKind::Resync => self.synced.resync(rng),
        }
    }

    /// Apply the *relevant event* rules (SC1, VC1, SSC1, SVC1) for a sense
    /// event at ground-truth time `now`; returns the event's stamps and the
    /// strobe payload that the protocol must now broadcast.
    pub(crate) fn on_sense(&mut self, now: SimTime) -> (StampSet, StrobePayload) {
        self.lamport.on_local_event();
        self.vector.on_local_event();
        self.strobe_scalar.on_local_event();
        self.strobe_vector.on_local_event();
        let stamps = self.snapshot(now);
        let strobe = StrobePayload::new(stamps.strobe_scalar, stamps.strobe_vector.clone());
        (stamps, strobe)
    }

    /// Apply the internal-event rules (SC1, VC1 only — strobe clocks tick
    /// only on *sensed* relevant events) for a compute/actuate event.
    pub(crate) fn on_internal(&mut self, now: SimTime) -> StampSet {
        self.lamport.on_local_event();
        self.vector.on_local_event();
        self.snapshot(now)
    }

    /// Apply the send rules (SC2, VC2) for an in-network computation
    /// message; returns the stamps to piggyback.
    pub fn on_send(&mut self, now: SimTime) -> StampSet {
        self.lamport.on_send();
        self.vector.on_send();
        self.snapshot(now)
    }

    /// Apply the receive rules (SC3, VC3) for a piggybacked stamp set.
    pub fn on_receive(&mut self, piggyback: &StampSet, now: SimTime) -> StampSet {
        self.lamport.on_receive(&piggyback.lamport);
        self.vector.on_receive(&piggyback.vector);
        self.snapshot(now)
    }

    /// Apply the strobe rules (SSC2, SVC2): merge without ticking.
    pub fn on_strobe(&mut self, strobe: &StrobePayload) {
        self.strobe_scalar.on_strobe(&strobe.scalar);
        self.strobe_vector.on_strobe(&strobe.vector);
    }
}

/// The payload of one strobe broadcast. Physically these would be two
/// protocol variants (O(1) scalar vs O(n) vector); the bundle carries both
/// on one simulated message so detectors compare on identical executions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrobePayload {
    /// The scalar strobe (SSC1 broadcast value).
    pub scalar: ScalarStamp,
    /// The vector strobe (SVC1 broadcast value).
    pub vector: VectorStamp,
    /// Integrity checksum over both stamps, computed at construction. A
    /// channel-fault corruption mutates the stamps but not the checksum, so
    /// [`StrobePayload::verify`] detects it — receivers with
    /// [`crate::process::StrobePolicy::quarantine`] enabled drop such
    /// strobes instead of merging garbage. Modelled as part of the link
    /// layer's existing CRC, so it does not enter the wire-size accounting.
    pub checksum: u64,
}

impl StrobePayload {
    /// A payload with a valid checksum over `scalar` and `vector`.
    pub fn new(scalar: ScalarStamp, vector: VectorStamp) -> Self {
        let checksum = Self::compute_checksum(&scalar, &vector);
        StrobePayload { scalar, vector, checksum }
    }

    /// True iff the stamps still match the checksum.
    pub fn verify(&self) -> bool {
        self.checksum == Self::compute_checksum(&self.scalar, &self.vector)
    }

    fn compute_checksum(scalar: &ScalarStamp, vector: &VectorStamp) -> u64 {
        // FNV-1a over the stamp words (the repo's standard content hash).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(scalar.value);
        mix(scalar.process as u64);
        for &c in vector.iter() {
            mix(c);
        }
        h
    }
}

/// The timestamps every clock assigned to one event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StampSet {
    /// Lamport scalar stamp.
    pub lamport: ScalarStamp,
    /// Mattern/Fidge vector stamp.
    pub vector: VectorStamp,
    /// Strobe scalar stamp.
    pub strobe_scalar: ScalarStamp,
    /// Strobe vector stamp.
    pub strobe_vector: VectorStamp,
    /// Free-running physical reading (unsynchronized).
    pub physical: PhysReading,
    /// ε-synchronized physical reading.
    pub synced: PhysReading,
    /// Ground truth — **scoring only**, never visible to protocols.
    pub truth: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::rng::RngFactory;

    fn bundle(id: usize, n: usize) -> ClockBundle {
        let mut rng = RngFactory::new(77).stream(id as u64);
        ClockBundle::new(id, n, &ClockConfig::default(), &mut rng)
    }

    #[test]
    fn sense_ticks_all_logical_clocks() {
        let mut b = bundle(0, 3);
        let (s, strobe) = b.on_sense(SimTime::from_millis(5));
        assert_eq!(s.lamport.value, 1);
        assert_eq!(s.vector.as_slice(), [1, 0, 0]);
        assert_eq!(s.strobe_scalar.value, 1);
        assert_eq!(s.strobe_vector.as_slice(), [1, 0, 0]);
        assert_eq!(strobe.scalar, s.strobe_scalar);
        assert_eq!(strobe.vector, s.strobe_vector);
        assert_eq!(s.truth, SimTime::from_millis(5));
    }

    #[test]
    fn internal_does_not_tick_strobes() {
        let mut b = bundle(1, 2);
        let s = b.on_internal(SimTime::ZERO);
        assert_eq!(s.lamport.value, 1, "causal clocks tick");
        assert_eq!(s.strobe_scalar.value, 0, "strobe clocks tick only on sense");
        assert_eq!(s.strobe_vector.as_slice(), [0, 0]);
    }

    #[test]
    fn strobe_merges_without_ticks() {
        let mut a = bundle(0, 2);
        let mut b = bundle(1, 2);
        let (_, strobe) = a.on_sense(SimTime::ZERO);
        b.on_strobe(&strobe);
        let snap = b.snapshot(SimTime::from_millis(1));
        assert_eq!(snap.strobe_scalar.value, 1);
        assert_eq!(snap.strobe_vector.as_slice(), [1, 0]);
        assert_eq!(snap.lamport.value, 0, "strobes do not touch causal clocks");
        assert_eq!(snap.vector.as_slice(), [0, 0]);
    }

    #[test]
    fn send_receive_chain_updates_causal_clocks_only() {
        let mut a = bundle(0, 2);
        let mut b = bundle(1, 2);
        let m = a.on_send(SimTime::from_millis(1));
        let r = b.on_receive(&m, SimTime::from_millis(4));
        assert_eq!(r.lamport.value, 2, "max(0,1)+1");
        assert_eq!(r.vector.as_slice(), [1, 1]);
        assert_eq!(r.strobe_vector.as_slice(), [0, 0], "reports do not move strobe clocks");
    }

    #[test]
    fn physical_readings_reflect_now() {
        let b = bundle(0, 1);
        let t1 = b.snapshot(SimTime::from_secs(1));
        let t2 = b.snapshot(SimTime::from_secs(2));
        assert!(t2.physical > t1.physical, "oscillator advances with truth");
        assert!(t2.synced > t1.synced);
        // Synced error bounded by ε/2 = 0.5ms.
        let err = (t2.synced.0 - 2_000_000_000i64).abs();
        assert!(err <= 500_000, "synced error {err}ns");
    }

    #[test]
    fn bundles_differ_across_processes() {
        let a = bundle(0, 2);
        let b = bundle(1, 2);
        // Different RNG draws: virtually certain to differ.
        assert_ne!(a.oscillator, b.oscillator);
    }

    #[test]
    fn strobe_checksum_verifies_until_tampered() {
        let p = StrobePayload::new(
            ScalarStamp { value: 7, process: 2 },
            VectorStamp::from_slice(&[3, 0, 7]),
        );
        assert!(p.verify());
        let mut garbled = p.clone();
        garbled.scalar.value += 1;
        assert!(!garbled.verify(), "scalar tamper detected");
        let mut garbled = p.clone();
        garbled.vector.as_mut_slice()[1] += 1;
        assert!(!garbled.verify(), "vector tamper detected");
    }

    #[test]
    fn freeze_pins_physical_clocks_only() {
        let mut rng = RngFactory::new(77).stream(9);
        let mut b = bundle(0, 2);
        let t1 = SimTime::from_secs(1);
        b.apply_clock_fault(ClockFaultKind::Freeze, t1, &mut rng, &ClockConfig::default());
        let frozen = b.snapshot(SimTime::from_secs(5));
        assert_eq!(frozen.physical, b.oscillator.read(t1), "physical stuck at freeze time");
        assert_eq!(frozen.synced, b.synced.read(t1));
        let _ = b.on_sense(SimTime::from_secs(5));
        assert_eq!(b.lamport.current().value, 1, "logical clocks keep ticking");
        b.apply_clock_fault(ClockFaultKind::Unfreeze, t1, &mut rng, &ClockConfig::default());
        let thawed = b.snapshot(SimTime::from_secs(5));
        assert!(thawed.physical > frozen.physical, "unfrozen clock catches up with truth");
    }

    #[test]
    fn reset_zeroes_the_oscillator_reading() {
        let mut rng = RngFactory::new(77).stream(9);
        let mut b = bundle(0, 2);
        let t = SimTime::from_secs(10);
        b.apply_clock_fault(ClockFaultKind::Reset, t, &mut rng, &ClockConfig::default());
        let r = b.oscillator.read(t);
        // Only residual drift remains: |r| ≤ drift_ppm·10s ≤ 50ppm·10s.
        assert!(r.0.abs() <= 500_000 + 1, "post-reset reading {}ns", r.0);
    }

    #[test]
    fn drift_spike_accelerates_the_oscillator() {
        let mut rng = RngFactory::new(77).stream(9);
        let mut b = bundle(0, 2);
        let before = b.oscillator.drift_ppm;
        b.apply_clock_fault(
            ClockFaultKind::DriftSpike { add_ppm: 500.0 },
            SimTime::ZERO,
            &mut rng,
            &ClockConfig::default(),
        );
        assert_eq!(b.oscillator.drift_ppm, before + 500.0);
    }

    #[test]
    fn desync_then_resync_restores_the_epsilon_bound() {
        let mut rng = RngFactory::new(77).stream(9);
        let cfg = ClockConfig::default();
        let mut b = bundle(0, 2);
        let t = SimTime::from_secs(3);
        b.apply_clock_fault(ClockFaultKind::Desync, t, &mut rng, &cfg);
        b.apply_clock_fault(ClockFaultKind::Resync, t, &mut rng, &cfg);
        let err = (b.synced.read(t).0 - t.as_nanos() as i64).abs();
        assert!(err <= cfg.epsilon.as_nanos() as i64 / 2, "resynced within ε/2: {err}ns");
    }
}
