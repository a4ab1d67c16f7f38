//! The fault plane: deterministic, seeded fault injection.
//!
//! A [`FaultScript`] schedules faults against a running execution — process
//! **crash/recover**, **network partitions** (node-set cuts with a heal
//! time), **channel faults** (probabilistic drop / duplication / reordering
//! / payload corruption, generalizing [`crate::loss::LossModel`]), and
//! **clock faults** (drift spikes, resets, freezes, de-/re-sync) delivered
//! to the owning actor. The engine installs a script with
//! [`crate::engine::Engine::install_faults`]; everything the plane does is
//! driven by the script plus private per-sender [`RngStream`]s, so a faulty
//! run is exactly as replayable as a fault-free one: same script + same
//! seed ⇒ byte-identical trace.
//!
//! Determinism contract (enforced by `tests/determinism.rs`):
//!
//! - **Faults-off is observational.** An installed but *empty* script takes
//!   the same branches, draws the same random numbers from the same
//!   streams, and assigns the same message ids as a run with no plane
//!   installed at all — bit-identical traces.
//! - **The plane never touches the network RNGs.** All fault randomness
//!   (channel-fault coin flips, duplicate delays, corruption payloads)
//!   comes from the plane's own per-sender streams, derived from the master
//!   seed under the labels `"engine.faults.<sender>"`. One stream per
//!   sender (rather than one global plane stream) keeps the draw sequence a
//!   function of each sender's own message history, which is what lets the
//!   sharded engine reproduce a sequential run bit for bit.
//!
//! Fault events are recorded in the structured trace as
//! [`crate::trace::TraceKind::Fault`] records and surface in Perfetto
//! exports as instant events.

use serde::{Deserialize, Serialize};

use crate::network::ActorId;
use crate::rng::{RngFactory, RngStream};
use crate::time::{SimDuration, SimTime};
pub use crate::trace::FaultRecordKind;

/// What happens to messages already in flight across a partition cut (and
/// to messages sent across it while the cut is active).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutPolicy {
    /// Messages crossing the cut are dropped (recorded as lost).
    Drop,
    /// Messages crossing the cut are parked in the plane and released, in
    /// their original delivery order, when the partition heals.
    Park,
}

/// A fault applied to one process's clock hardware, delivered through
/// [`crate::engine::Actor::on_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClockFaultKind {
    /// Add `add_ppm` to the free-running oscillator's drift rate.
    DriftSpike {
        /// Extra drift, parts per million (positive runs faster).
        add_ppm: f64,
    },
    /// The oscillator reboots and restarts counting from zero.
    Reset,
    /// Physical readings stop advancing (battery brown-out).
    Freeze,
    /// Readings step forward to real time again.
    Unfreeze,
    /// The ε-synchronized clock falls out of the sync service (its error is
    /// no longer bounded by ε).
    Desync,
    /// The sync service re-admits the clock (error back within ±ε/2).
    Resync,
}

impl ClockFaultKind {
    /// A stable small integer for trace `detail` fields.
    pub fn code(self) -> u64 {
        match self {
            ClockFaultKind::DriftSpike { .. } => 0,
            ClockFaultKind::Reset => 1,
            ClockFaultKind::Freeze => 2,
            ClockFaultKind::Unfreeze => 3,
            ClockFaultKind::Desync => 4,
            ClockFaultKind::Resync => 5,
        }
    }
}

/// What a matching [`ChannelFaultRule`] does to a message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelEffect {
    /// Drop the message (recorded as lost).
    Drop,
    /// Deliver the message *and* a duplicate copy with its own message id
    /// and an independently sampled delay.
    Duplicate,
    /// Add `extra` delay and bypass the FIFO clamp, so later messages on
    /// the same channel may overtake this one.
    Reorder {
        /// Extra delay added on top of the sampled network delay.
        extra: SimDuration,
    },
    /// Mutate the payload in flight via [`crate::engine::Message::corrupt`]
    /// (integrity checksums, if any, are left stale).
    Corrupt,
}

/// A probabilistic per-message fault on matching channels, active from its
/// scripted time for `duration` (or forever when `None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelFaultRule {
    /// Only messages from this sender (any sender when `None`).
    pub from: Option<ActorId>,
    /// Only messages to this receiver (any receiver when `None`).
    pub to: Option<ActorId>,
    /// Per-message probability the effect applies.
    pub prob: f64,
    /// What happens to an affected message.
    pub effect: ChannelEffect,
    /// How long the rule stays active (`None` = until the run ends).
    pub duration: Option<SimDuration>,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// The process stops: deliveries and timers to it are discarded while
    /// down. With `recover_after` it later restarts (crash-recover,
    /// [`crate::engine::Actor::on_fault`] fires with
    /// [`FaultEvent::Recover`]); without, it is crash-stop.
    Crash {
        /// The crashing actor.
        actor: ActorId,
        /// Downtime before recovery (`None` = crash-stop).
        recover_after: Option<SimDuration>,
    },
    /// `group` is cut off from the rest of the system; messages crossing
    /// the cut (including those already in flight) follow `policy`.
    Partition {
        /// The isolated node set.
        group: Vec<ActorId>,
        /// How long until the cut heals.
        heal_after: SimDuration,
        /// In-flight / crossing-message handling.
        policy: CutPolicy,
    },
    /// Install a probabilistic channel fault.
    Channel(ChannelFaultRule),
    /// Fault one process's clock hardware.
    Clock {
        /// The affected actor.
        actor: ActorId,
        /// What happens to its clocks.
        kind: ClockFaultKind,
    },
}

/// A scheduled fault: `spec` takes effect at ground-truth time `at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptedFault {
    /// When the fault takes effect.
    pub at: SimTime,
    /// The fault.
    pub spec: FaultSpec,
}

/// A serializable fault schedule. Build one explicitly with
/// [`FaultScript::with`] or generate one from a seed with
/// [`FaultScript::generate`]; either way the resulting run is a pure
/// function of `(script, seed)`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultScript {
    /// The scheduled faults (need not be sorted; ties resolve in list
    /// order).
    pub faults: Vec<ScriptedFault>,
}

impl FaultScript {
    /// An empty script (installing it is observationally a no-op).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Append a fault (builder style).
    pub fn with(mut self, at: SimTime, spec: FaultSpec) -> Self {
        self.faults.push(ScriptedFault { at, spec });
        self
    }

    /// True if the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generate a randomized script from `seed`. The generator draws from
    /// its own stream (label `"fault.script"`), so the same `(cfg, seed)`
    /// always yields the same script — chaos runs replay byte-for-byte.
    pub fn generate(cfg: &ChaosConfig, seed: u64) -> Self {
        let mut rng = RngFactory::new(seed).labeled_stream("fault.script");
        let mut script = FaultScript::new();
        let horizon = cfg.horizon.as_nanos().max(1);
        // Faults land in the middle 3/4 of the horizon so start-up and
        // wind-down stay clean.
        let when = |rng: &mut RngStream| {
            SimTime::from_nanos(rng.uniform_u64(horizon / 8, horizon.saturating_mul(7) / 8))
        };
        if cfg.actors.is_empty() {
            return script;
        }
        for _ in 0..cfg.crashes {
            let actor = *rng.choose(&cfg.actors);
            let at = when(&mut rng);
            let recover_after = if rng.bernoulli(0.85) {
                Some(SimDuration::from_nanos(rng.uniform_u64(horizon / 40, horizon / 8)))
            } else {
                None // crash-stop
            };
            script
                .faults
                .push(ScriptedFault { at, spec: FaultSpec::Crash { actor, recover_after } });
        }
        for _ in 0..cfg.partitions {
            let mut pool = cfg.actors.clone();
            rng.shuffle(&mut pool);
            let k = 1 + rng.index(pool.len().div_ceil(2));
            pool.truncate(k);
            let at = when(&mut rng);
            let heal_after = SimDuration::from_nanos(rng.uniform_u64(horizon / 40, horizon / 6));
            let policy =
                if cfg.park && rng.bernoulli(0.5) { CutPolicy::Park } else { CutPolicy::Drop };
            script.faults.push(ScriptedFault {
                at,
                spec: FaultSpec::Partition { group: pool, heal_after, policy },
            });
        }
        for _ in 0..cfg.channel_rules {
            let from = if rng.bernoulli(0.5) { Some(*rng.choose(&cfg.actors)) } else { None };
            let effect = match rng.index(if cfg.corruption { 4 } else { 3 }) {
                0 => ChannelEffect::Drop,
                1 => ChannelEffect::Duplicate,
                2 => ChannelEffect::Reorder {
                    extra: SimDuration::from_nanos(rng.uniform_u64(horizon / 100, horizon / 20)),
                },
                _ => ChannelEffect::Corrupt,
            };
            let rule = ChannelFaultRule {
                from,
                to: None,
                prob: rng.uniform_f64(0.05, 0.4),
                effect,
                duration: Some(SimDuration::from_nanos(rng.uniform_u64(horizon / 20, horizon / 4))),
            };
            let at = when(&mut rng);
            script.faults.push(ScriptedFault { at, spec: FaultSpec::Channel(rule) });
        }
        for _ in 0..cfg.clock_faults {
            let actor = *rng.choose(&cfg.actors);
            let at = when(&mut rng);
            let kind = match rng.index(5) {
                0 => ClockFaultKind::DriftSpike { add_ppm: rng.uniform_f64(200.0, 2000.0) },
                1 => ClockFaultKind::Reset,
                2 => ClockFaultKind::Freeze,
                3 => ClockFaultKind::Desync,
                _ => ClockFaultKind::Resync,
            };
            script.faults.push(ScriptedFault { at, spec: FaultSpec::Clock { actor, kind } });
            if matches!(kind, ClockFaultKind::Freeze) {
                // Pair every freeze with a later thaw so chaos runs don't
                // leave clocks stopped forever.
                let thaw =
                    at + SimDuration::from_nanos(rng.uniform_u64(horizon / 40, horizon / 10));
                script.faults.push(ScriptedFault {
                    at: thaw,
                    spec: FaultSpec::Clock { actor, kind: ClockFaultKind::Unfreeze },
                });
            }
        }
        script.faults.sort_by_key(|f| f.at);
        script
    }
}

/// Knobs for [`FaultScript::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Candidate actors for crashes and clock faults (typically the
    /// sensors, excluding the root).
    pub actors: Vec<ActorId>,
    /// Faults are scheduled inside `(horizon/8, 7·horizon/8)`.
    pub horizon: SimTime,
    /// Number of crash faults to draw.
    pub crashes: usize,
    /// Number of partition cuts to draw.
    pub partitions: usize,
    /// Number of channel-fault rules to draw.
    pub channel_rules: usize,
    /// Number of clock faults to draw.
    pub clock_faults: usize,
    /// Allow [`ChannelEffect::Corrupt`] among the drawn effects.
    pub corruption: bool,
    /// Allow [`CutPolicy::Park`] for partitions.
    pub park: bool,
}

impl ChaosConfig {
    /// A moderate default mix over `actors` within `horizon`.
    pub fn new(actors: Vec<ActorId>, horizon: SimTime) -> Self {
        ChaosConfig {
            actors,
            horizon,
            crashes: 2,
            partitions: 1,
            channel_rules: 2,
            clock_faults: 2,
            corruption: true,
            park: true,
        }
    }
}

/// A fault delivered to an actor through
/// [`crate::engine::Actor::on_fault`]. Crash-stop itself is silent (a dead
/// process cannot observe its own death); `Recover` fires when a
/// crash-recover process restarts, `Clock` when its hardware is faulted.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The process has crashed (not currently delivered — reserved).
    Crash,
    /// The process restarts after a crash: rebuild volatile state, replay
    /// the durable log, re-prime clocks, re-arm timers.
    Recover,
    /// A clock fault hit this process's hardware.
    Clock(ClockFaultKind),
}

/// Counters the plane accumulates; exposed through
/// [`crate::engine::Engine::fault_stats`] and asserted by the chaos soak.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct FaultStats {
    pub crashes: u64,
    pub recoveries: u64,
    pub cuts: u64,
    pub heals: u64,
    pub clock_faults: u64,
    /// Deliveries discarded because the destination was down.
    pub(crate) dropped_at_down: u64,
    /// Timers discarded because the owner was down.
    pub(crate) timers_suppressed: u64,
    /// Messages dropped at transmit time by an active cut.
    pub(crate) dropped_by_partition: u64,
    /// In-flight messages dropped when a cut activated.
    pub(crate) dropped_in_flight: u64,
    /// Messages dropped by a [`ChannelEffect::Drop`] rule.
    pub dropped_by_channel: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub parked: u64,
    pub(crate) unparked: u64,
    /// Messages still parked when the run ended (counted as in-flight).
    pub parked_leftover: u64,
}

impl FaultStats {
    /// Add every counter of `other` into `self` (used to merge per-shard
    /// transmit-side counters into the plane's op-side counters).
    pub(crate) fn absorb(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.cuts += other.cuts;
        self.heals += other.heals;
        self.clock_faults += other.clock_faults;
        self.dropped_at_down += other.dropped_at_down;
        self.timers_suppressed += other.timers_suppressed;
        self.dropped_by_partition += other.dropped_by_partition;
        self.dropped_in_flight += other.dropped_in_flight;
        self.dropped_by_channel += other.dropped_by_channel;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.parked += other.parked;
        self.unparked += other.unparked;
        self.parked_leftover += other.parked_leftover;
    }
}

/// One internal plane operation, expanded from the script at install time
/// and scheduled on the engine's event queue.
#[derive(Debug, Clone)]
pub(crate) enum PlaneOp {
    Crash { actor: ActorId },
    Recover { actor: ActorId },
    Cut { idx: usize },
    Heal { idx: usize },
    ChannelOn { idx: usize },
    ChannelOff { idx: usize },
    Clock { actor: ActorId, kind: ClockFaultKind },
}

#[derive(Debug, Clone)]
pub(crate) struct CutState {
    pub(crate) group: Vec<ActorId>,
    pub(crate) policy: CutPolicy,
    pub(crate) active: bool,
}

impl CutState {
    fn separates(&self, from: ActorId, to: ActorId) -> bool {
        self.active && (self.group.contains(&from) != self.group.contains(&to))
    }
}

#[derive(Debug, Clone)]
pub(crate) struct RuleState {
    pub(crate) rule: ChannelFaultRule,
    pub(crate) active: bool,
}

impl RuleState {
    fn matches(&self, from: ActorId, to: ActorId) -> bool {
        self.active
            && self.rule.from.is_none_or(|f| f == from)
            && self.rule.to.is_none_or(|t| t == to)
    }
}

/// A message parked by a [`CutPolicy::Park`] partition, waiting for heal.
#[derive(Debug)]
pub(crate) struct Parked<M> {
    pub(crate) from: ActorId,
    pub(crate) to: ActorId,
    pub(crate) msg: M,
    pub(crate) id: u64,
    /// The delivery time the message had (or would have had) before the
    /// cut; release preserves this order.
    pub(crate) deliver_at: SimTime,
}

/// The runtime state of an installed [`FaultScript`]. Owned by the engine;
/// not constructed directly.
#[derive(Debug)]
pub(crate) struct FaultPlane<M> {
    pub(crate) ops: Vec<(SimTime, PlaneOp)>,
    pub(crate) cuts: Vec<CutState>,
    pub(crate) active_cuts: usize,
    pub(crate) rules: Vec<RuleState>,
    pub(crate) active_rules: usize,
    pub(crate) down: Vec<bool>,
    pub(crate) parked: Vec<Parked<M>>,
    pub(crate) stats: FaultStats,
}

impl<M> FaultPlane<M> {
    /// Expand `script` into scheduled plane operations. `n_actors` sizes
    /// the down-mask (grown further if the script names higher ids).
    pub(crate) fn new(script: &FaultScript, n_actors: usize) -> Self {
        let mut ops: Vec<(SimTime, PlaneOp)> = Vec::new();
        let mut cuts = Vec::new();
        let mut rules = Vec::new();
        let mut max_actor = n_actors;
        for f in &script.faults {
            match &f.spec {
                FaultSpec::Crash { actor, recover_after } => {
                    max_actor = max_actor.max(actor + 1);
                    ops.push((f.at, PlaneOp::Crash { actor: *actor }));
                    if let Some(d) = recover_after {
                        ops.push((f.at + *d, PlaneOp::Recover { actor: *actor }));
                    }
                }
                FaultSpec::Partition { group, heal_after, policy } => {
                    let idx = cuts.len();
                    cuts.push(CutState { group: group.clone(), policy: *policy, active: false });
                    ops.push((f.at, PlaneOp::Cut { idx }));
                    ops.push((f.at + *heal_after, PlaneOp::Heal { idx }));
                }
                FaultSpec::Channel(rule) => {
                    let idx = rules.len();
                    rules.push(RuleState { rule: rule.clone(), active: false });
                    ops.push((f.at, PlaneOp::ChannelOn { idx }));
                    if let Some(d) = rule.duration {
                        ops.push((f.at + d, PlaneOp::ChannelOff { idx }));
                    }
                }
                FaultSpec::Clock { actor, kind } => {
                    max_actor = max_actor.max(actor + 1);
                    ops.push((f.at, PlaneOp::Clock { actor: *actor, kind: *kind }));
                }
            }
        }
        // Stable sort: simultaneous operations apply in script order.
        ops.sort_by_key(|(at, _)| *at);
        FaultPlane {
            ops,
            cuts,
            active_cuts: 0,
            rules,
            active_rules: 0,
            down: vec![false; max_actor],
            parked: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Is the channel `from → to` severed by any active cut?
    pub(crate) fn blocked(&self, from: ActorId, to: ActorId) -> bool {
        self.cuts.iter().any(|c| c.separates(from, to))
    }

    /// The policy of the first active cut severing `from → to`.
    pub(crate) fn cut_policy(&self, from: ActorId, to: ActorId) -> CutPolicy {
        self.cuts
            .iter()
            .find(|c| c.separates(from, to))
            .map(|c| c.policy)
            .unwrap_or(CutPolicy::Drop)
    }

    /// Evaluate the channel-fault pipeline for one message: the first
    /// active matching rule whose coin flip (drawn from the *sender's*
    /// plane stream) hits decides the effect.
    pub(crate) fn channel_effect(
        &self,
        from: ActorId,
        to: ActorId,
        rng: &mut RngStream,
    ) -> Option<ChannelEffect> {
        for r in &self.rules {
            if r.matches(from, to) && rng.bernoulli(r.rule.prob) {
                return Some(r.rule.effect);
            }
        }
        None
    }

    /// Is `actor` currently crashed?
    pub(crate) fn is_down(&self, actor: ActorId) -> bool {
        self.down.get(actor).copied().unwrap_or(false)
    }

    /// The accumulated counters, with `parked_leftover` reflecting the
    /// current parked backlog.
    pub fn stats(&self) -> FaultStats {
        let mut s = self.stats.clone();
        s.parked_leftover = self.parked.len() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = ChaosConfig::new(vec![0, 1, 2, 3], SimTime::from_secs(100));
        let a = FaultScript::generate(&cfg, 7);
        let b = FaultScript::generate(&cfg, 7);
        assert_eq!(a, b);
        let c = FaultScript::generate(&cfg, 8);
        assert_ne!(a, c, "different seeds draw different scripts");
        assert!(!a.is_empty());
    }

    #[test]
    fn generate_respects_counts_and_horizon() {
        let cfg = ChaosConfig {
            actors: vec![0, 1, 2],
            horizon: SimTime::from_secs(10),
            crashes: 3,
            partitions: 2,
            channel_rules: 2,
            clock_faults: 0,
            corruption: false,
            park: false,
        };
        let s = FaultScript::generate(&cfg, 1);
        let crashes = s.faults.iter().filter(|f| matches!(f.spec, FaultSpec::Crash { .. })).count();
        let parts =
            s.faults.iter().filter(|f| matches!(f.spec, FaultSpec::Partition { .. })).count();
        assert_eq!(crashes, 3);
        assert_eq!(parts, 2);
        for f in &s.faults {
            assert!(f.at <= SimTime::from_secs(10));
            if let FaultSpec::Partition { group, policy, .. } = &f.spec {
                assert!(!group.is_empty() && group.len() <= 2);
                assert_eq!(*policy, CutPolicy::Drop, "park disallowed");
            }
        }
    }

    #[test]
    fn scripts_round_trip_through_serde() {
        let cfg = ChaosConfig::new(vec![0, 1, 2, 3, 4], SimTime::from_secs(60));
        let script = FaultScript::generate(&cfg, 42);
        let json = serde_json::to_string(&script).expect("serialize");
        let back: FaultScript = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, script);
    }

    #[test]
    fn plane_expansion_schedules_recover_and_heal() {
        let script = FaultScript::new()
            .with(
                SimTime::from_secs(1),
                FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_secs(2)) },
            )
            .with(
                SimTime::from_secs(2),
                FaultSpec::Partition {
                    group: vec![1],
                    heal_after: SimDuration::from_secs(3),
                    policy: CutPolicy::Park,
                },
            );
        let plane: FaultPlane<()> = FaultPlane::new(&script, 3);
        assert_eq!(plane.ops.len(), 4, "crash + recover + cut + heal");
        assert_eq!(plane.ops[0].0, SimTime::from_secs(1));
        assert!(matches!(plane.ops[3].1, PlaneOp::Heal { .. }));
        assert_eq!(plane.ops[3].0, SimTime::from_secs(5));
    }

    #[test]
    fn cut_separates_only_across_the_boundary() {
        let cut = CutState { group: vec![0, 1], policy: CutPolicy::Drop, active: true };
        assert!(cut.separates(0, 2));
        assert!(cut.separates(2, 1));
        assert!(!cut.separates(0, 1), "inside the island");
        assert!(!cut.separates(2, 3), "outside the island");
        let inactive = CutState { active: false, ..cut };
        assert!(!inactive.separates(0, 2));
    }
}
