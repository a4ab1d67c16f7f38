//! Phase-scoped wall-clock telemetry: *where does real time go?*
//!
//! The [`crate::metrics`] registry counts what the simulation did (events,
//! deliveries, windows); its phase view, [`Telemetry`]
//! ([`Metrics::telemetry`]), measures where the **host machine's wall
//! clock** went while doing it — per shard, per phase:
//!
//! - `busy` — executing events inside `Lane::advance_until` windows;
//! - `barrier_wait` — a shard worker blocked waiting for its next window
//!   command (the price of synchronization);
//! - `exchange` — a shard worker draining its cross-shard inbox after its
//!   window;
//! - `coordinator_drain` — the coordinator draining every inbox at
//!   barriers (and, in live sessions, draining the ingest provider);
//! - `detector` — streaming predicate detection: offering fresh reports to
//!   the per-predicate detectors and answering status queries.
//!
//! Each recorded span adds to a per-shard `(ns, count)` accumulator and to
//! a streaming HDR-style **log-bucket histogram** (one power-of-two bucket
//! per span-length magnitude), so a dump carries the per-window phase
//! distribution, not just totals. `psn-profile` (crates/bench) turns a
//! dump into a phase-attribution report.
//!
//! ## Strictly off the deterministic path
//!
//! This is the one subsystem allowed to call [`Instant::now`] during a
//! run — and **nothing it reads ever feeds back**: no RNG draw, no event
//! ordering, no branch in simulation logic depends on a telemetry value.
//! A run with an enabled registry is bit-identical to a run with a
//! disabled one (pinned by `tests/telemetry_determinism.rs` across
//! sequential and sharded runs), and a disabled registry costs one
//! `Option` branch per span — the sequential-engine overhead guard holds
//! the whole registry ≤ 2%.
//!
//! The slots live in the [`Metrics`] registry, under its one `enabled`
//! flag: [`Telemetry`] hands out per-shard [`ShardTelemetry`] handles that
//! are inert when the registry is disabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::Metrics;

/// Number of log2 buckets per phase histogram: bucket `i` counts spans
/// with `floor(log2(max(ns, 1))) == i`, so the full `u64` nanosecond range
/// is covered (bucket 63 tops out above 290 years).
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// The execution phases a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Executing events (the engine hot loop).
    Busy = 0,
    /// A shard worker blocked waiting for its next window command.
    BarrierWait = 1,
    /// A shard worker draining its cross-shard inbox.
    Exchange = 2,
    /// Coordinator barrier work: inbox drains, op barriers, live ingest.
    CoordinatorDrain = 3,
    /// Streaming predicate detection: feeding fresh reports to the
    /// per-predicate streaming detectors and answering status queries.
    Detector = 4,
}

/// How many phases exist (array dimension for the per-shard slots).
pub(crate) const PHASE_COUNT: usize = 5;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Busy,
        Phase::BarrierWait,
        Phase::Exchange,
        Phase::CoordinatorDrain,
        Phase::Detector,
    ];

    /// The canonical snake_case name (also the wire/JSONL spelling).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Busy => "busy",
            Phase::BarrierWait => "barrier_wait",
            Phase::Exchange => "exchange",
            Phase::CoordinatorDrain => "coordinator_drain",
            Phase::Detector => "detector",
        }
    }
}

/// One shard's accumulators: per-phase total ns + span count + log-bucket
/// histogram. All atomics — recorded from worker threads, read by
/// snapshotters, never reset.
struct ShardSlot {
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_count: [AtomicU64; PHASE_COUNT],
    hist: [[AtomicU64; HISTOGRAM_BUCKETS]; PHASE_COUNT],
}

impl ShardSlot {
    fn new() -> Arc<Self> {
        Arc::new(ShardSlot {
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_count: std::array::from_fn(|_| AtomicU64::new(0)),
            hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        })
    }

    fn record(&self, phase: Phase, ns: u64) {
        let p = phase as usize;
        self.phase_ns[p].fetch_add(ns, Ordering::Relaxed);
        self.phase_count[p].fetch_add(1, Ordering::Relaxed);
        let bucket = ns.max(1).ilog2() as usize;
        self.hist[p][bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn sample(&self) -> Vec<PhaseSample> {
        Phase::ALL
            .into_iter()
            .map(|phase| {
                let p = phase as usize;
                let buckets = self.hist[p]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let count = b.load(Ordering::Relaxed);
                        (count > 0).then(|| BucketSample { floor_ns: 1u64 << i, count })
                    })
                    .collect();
                PhaseSample {
                    phase: phase.name().to_string(),
                    ns: self.phase_ns[p].load(Ordering::Relaxed),
                    count: self.phase_count[p].load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect()
    }
}

/// The shard table is poisoned only if a thread panicked while growing it.
const SHARDS_POISONED: &str = "a thread panicked while registering a telemetry shard";

/// The phase slots a [`Metrics`] registry owns.
pub(crate) struct PhaseSlots {
    /// Indexed by shard; grown on demand by [`Telemetry::shard`].
    shards: Mutex<Vec<Arc<ShardSlot>>>,
    /// Coordinator-side spans (inbox drains, op barriers, live ingest).
    coord: Arc<ShardSlot>,
    run_wall_ns: AtomicU64,
    runs: AtomicU64,
}

impl Default for PhaseSlots {
    fn default() -> Self {
        PhaseSlots {
            shards: Mutex::new(Vec::new()),
            coord: ShardSlot::new(),
            run_wall_ns: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }
}

/// The phase view of a [`Metrics`] registry ([`Metrics::telemetry`]);
/// clones share the registry's slots and its `enabled` flag.
#[derive(Clone)]
pub struct Telemetry {
    registry: Metrics,
}

impl Telemetry {
    pub(crate) fn of(registry: Metrics) -> Self {
        Telemetry { registry }
    }

    fn slots(&self) -> &PhaseSlots {
        self.registry.phase_slots()
    }

    /// Is the registry recording?
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The recording handle for shard `idx` (find-or-create). Handles from
    /// a disabled registry are inert.
    pub fn shard(&self, idx: usize) -> ShardTelemetry {
        if !self.is_enabled() {
            return ShardTelemetry::disabled();
        }
        let mut shards = self.slots().shards.lock().expect(SHARDS_POISONED);
        while shards.len() <= idx {
            shards.push(ShardSlot::new());
        }
        ShardTelemetry { slot: Some(shards[idx].clone()) }
    }

    /// The coordinator-side recording handle (barrier inbox drains, op
    /// barriers, live ingest drains).
    pub fn coordinator(&self) -> ShardTelemetry {
        if !self.is_enabled() {
            return ShardTelemetry::disabled();
        }
        ShardTelemetry { slot: Some(self.slots().coord.clone()) }
    }

    /// Accumulate one engine run's wall time.
    pub fn record_run_wall(&self, ns: u64) {
        if self.is_enabled() {
            self.slots().run_wall_ns.fetch_add(ns, Ordering::Relaxed);
            self.slots().runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A serializable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let slots = self.slots();
        let shards = slots.shards.lock().expect(SHARDS_POISONED);
        TelemetrySnapshot {
            enabled: self.is_enabled(),
            run_wall_ns: slots.run_wall_ns.load(Ordering::Relaxed),
            runs: slots.runs.load(Ordering::Relaxed),
            shards: shards
                .iter()
                .enumerate()
                .map(|(i, slot)| ShardSample { shard: i, phases: slot.sample() })
                .collect(),
            coordinator: slots.coord.sample(),
        }
    }
}

/// A per-shard recording handle. `Option<Arc>` so the disabled case is one
/// branch and zero wall-clock reads; clone freely (clones share the slot).
#[derive(Clone)]
pub struct ShardTelemetry {
    slot: Option<Arc<ShardSlot>>,
}

impl ShardTelemetry {
    /// An inert handle (what a disabled registry hands out).
    pub(crate) fn disabled() -> Self {
        ShardTelemetry { slot: None }
    }

    /// Open a span: reads the wall clock only when recording. Pass the
    /// result to [`ShardTelemetry::record`] to close it.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.slot.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`ShardTelemetry::start`], attributing its
    /// wall time to `phase`. No-op on an inert handle or a `None` start.
    #[inline]
    pub fn record(&self, phase: Phase, started: Option<Instant>) {
        if let (Some(slot), Some(t0)) = (self.slot.as_deref(), started) {
            slot.record(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record an externally measured span.
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        if let Some(slot) = self.slot.as_deref() {
            slot.record(phase, ns);
        }
    }
}

/// One histogram bucket: `count` spans with `floor_ns <= ns < 2*floor_ns`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSample {
    /// Inclusive lower bound of the bucket (a power of two; bucket 0 also
    /// holds zero-length spans).
    pub(crate) floor_ns: u64,
    /// Spans that landed in the bucket.
    pub count: u64,
}

/// One phase's accumulated spans on one slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSample {
    /// Canonical phase name (see [`Phase::name`]).
    pub phase: String,
    /// Total wall nanoseconds attributed to the phase.
    pub ns: u64,
    /// Spans recorded.
    pub count: u64,
    /// Sparse log-bucket histogram (only non-empty buckets).
    pub buckets: Vec<BucketSample>,
}

/// One shard's phase breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSample {
    /// Shard index (a one-lane engine records as shard 0).
    pub shard: usize,
    /// Per-phase accumulators, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSample>,
}

/// A point-in-time serializable capture of a [`Telemetry`] registry —
/// `Deserialize` too, so dump tools (`psn-profile`) can read it back.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether the registry was recording.
    pub enabled: bool,
    /// Total engine-run wall nanoseconds (summed across runs).
    pub run_wall_ns: u64,
    /// Engine runs recorded.
    pub runs: u64,
    /// Per-shard phase breakdowns.
    pub shards: Vec<ShardSample>,
    /// Coordinator-side phase breakdown (in [`Phase::ALL`] order).
    pub coordinator: Vec<PhaseSample>,
}

impl TelemetrySnapshot {
    /// Total ns attributed to `phase` on shard `shard`, 0 if absent.
    pub fn phase_ns(&self, shard: usize, phase: Phase) -> u64 {
        self.shards
            .iter()
            .find(|s| s.shard == shard)
            .and_then(|s| s.phases.iter().find(|p| p.phase == phase.name()))
            .map_or(0, |p| p.ns)
    }

    /// Total ns attributed to `phase` on the coordinator, 0 if absent.
    pub fn coordinator_ns(&self, phase: Phase) -> u64 {
        self.coordinator.iter().find(|p| p.phase == phase.name()).map_or(0, |p| p.ns)
    }

    /// Sum of all per-shard phase time (excludes the coordinator slot).
    pub fn total_shard_ns(&self) -> u64 {
        self.shards.iter().flat_map(|s| s.phases.iter()).map(|p| p.ns).sum()
    }
}

#[cfg(test)]
impl Phase {
    /// Parse a canonical name back (the inverse the name tests check).
    pub(crate) fn from_name(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert_and_read_no_clock() {
        let t = Metrics::disabled().telemetry();
        assert!(!t.is_enabled());
        let h = t.shard(0);
        assert_eq!(h.start(), None, "no Instant::now() when disabled");
        h.record(Phase::Busy, None);
        h.record_ns(Phase::Busy, 1_000);
        t.record_run_wall(5);
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.runs, 0);
        assert!(snap.shards.is_empty(), "disabled shard() must not grow the registry");
    }

    #[test]
    fn spans_accumulate_per_shard_and_per_phase() {
        let t = Metrics::new().telemetry();
        let s0 = t.shard(0);
        let s1 = t.shard(1);
        s0.record_ns(Phase::Busy, 100);
        s0.record_ns(Phase::Busy, 28);
        s0.record_ns(Phase::BarrierWait, 50);
        s1.record_ns(Phase::Exchange, 9);
        t.record_run_wall(1_000);
        let snap = t.snapshot();
        assert_eq!(snap.phase_ns(0, Phase::Busy), 128);
        assert_eq!(snap.phase_ns(0, Phase::BarrierWait), 50);
        assert_eq!(snap.phase_ns(1, Phase::Exchange), 9);
        assert_eq!(snap.run_wall_ns, 1_000);
        assert_eq!(snap.runs, 1);
        assert_eq!(snap.total_shard_ns(), 128 + 50 + 9);
        let busy = &snap.shards[0].phases[Phase::Busy as usize];
        assert_eq!(busy.count, 2);
        // 100 → bucket floor 64; 28 → bucket floor 16.
        assert!(busy.buckets.iter().any(|b| b.floor_ns == 64 && b.count == 1));
        assert!(busy.buckets.iter().any(|b| b.floor_ns == 16 && b.count == 1));
    }

    #[test]
    fn live_spans_record_elapsed_time() {
        let t = Metrics::new().telemetry();
        let h = t.shard(0);
        let t0 = h.start();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        h.record(Phase::Busy, t0);
        let snap = t.snapshot();
        assert!(snap.phase_ns(0, Phase::Busy) >= 1_000_000, "span must measure real time");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let t = Metrics::new().telemetry();
        t.shard(0).record_ns(Phase::Busy, 1234);
        t.coordinator().record_ns(Phase::CoordinatorDrain, 55);
        t.record_run_wall(9_999);
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.coordinator_ns(Phase::CoordinatorDrain), 55);
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nonsense"), None);
    }
}
