//! Structured network-plane execution traces.
//!
//! When tracing is enabled, the engine records every network-plane action
//! (send / deliver / drop / timer / note / fault) with its ground-truth
//! time. The process events themselves (sense, send, receive, actuate) and
//! their logical stamps are not copied here: they live once, in the
//! processes' own logs (`psn_core::log::ExecutionLog`).
//!
//! The pipeline is designed to be observational and cheap:
//!
//! - **Canonical staging.** Records are staged with a *canonical cursor* —
//!   the canonical key of the engine event being processed when the record
//!   was made (see `event_key`) plus an intra-event counter
//!   — instead of a globally assigned sequence number. [`Trace::seal`]
//!   sorts staged records by `(time, cursor, intra)` and only then assigns
//!   the dense `seq` numbers. Because the sort key is derived from event
//!   *content*, the sealed trace is identical whether the records were
//!   produced by one sequential engine loop or by several shard threads —
//!   the property the sharded engine's bit-identity guarantee rests on.
//!   In a sequential run the staging order already equals the canonical
//!   order, so the sort is a no-op pass.
//! - **Message identity.** Transmissions are numbered with a per-run
//!   monotone [`MsgId`], so a `Sent` record pairs with exactly one
//!   `Delivered` (or `Lost`) record even with many in-flight messages on
//!   one channel. Exporters use the id to draw Perfetto flow arrows.
//! - **Disabled = one branch.** A disabled trace discards everything.
//!
//! Offline consumers: [`crate::trace_export`] (Chrome trace-event JSON and
//! JSONL) and [`crate::trace_analysis`] (loss and fault vicinity).

use serde::{Deserialize, Error, Serialize, Sink, Source};

use crate::network::ActorId;
use crate::time::SimTime;

/// Staged records reserved per actor by [`Trace::configure_actors`].
pub(crate) const STAGED_RECORDS_PER_ACTOR: usize = 64;

/// Identity of one attempted transmission, monotone within a run.
///
/// Assigned by the engine at `Sent` time (and for injected external
/// deliveries at injection time), never reused; a `Sent`/`Lost` pair and
/// the matching `Delivered` share the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl Serialize for MsgId {
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.u64(self.0)
    }
}

impl Deserialize for MsgId {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, Error> {
        u64::deserialize(src).map(MsgId)
    }
}

/// The kinds of fault-plane events a [`TraceKind::Fault`] record can
/// carry (see [`crate::fault`]). `detail` on the record disambiguates:
/// message id for channel effects, cut index for partitions, the
/// [`crate::fault::ClockFaultKind::code`] for clock faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultRecordKind {
    /// The actor crashed.
    Crash,
    /// The actor recovered from a crash.
    Recover,
    /// The actor was isolated by a partition cut.
    PartitionCut,
    /// The partition isolating the actor healed.
    PartitionHeal,
    /// A clock fault hit the actor.
    ClockFault,
    /// A message from the actor was corrupted in flight.
    Corrupted,
    /// A message from the actor was duplicated in flight.
    Duplicated,
    /// A message from the actor was delayed past the FIFO order.
    Reordered,
    /// A message from the actor was dropped by a channel-fault rule.
    ChannelDrop,
    /// A message from the actor was parked at a partition cut.
    Parked,
    /// A parked message from the actor was released at heal time.
    Unparked,
}

impl FaultRecordKind {
    /// Stable lowercase label, used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultRecordKind::Crash => "crash",
            FaultRecordKind::Recover => "recover",
            FaultRecordKind::PartitionCut => "partition_cut",
            FaultRecordKind::PartitionHeal => "partition_heal",
            FaultRecordKind::ClockFault => "clock_fault",
            FaultRecordKind::Corrupted => "corrupted",
            FaultRecordKind::Duplicated => "duplicated",
            FaultRecordKind::Reordered => "reordered",
            FaultRecordKind::ChannelDrop => "channel_drop",
            FaultRecordKind::Parked => "parked",
            FaultRecordKind::Unparked => "unparked",
        }
    }
}

/// One recorded trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global recording order within the run (dense from 0).
    pub seq: u64,
    /// Ground-truth simulation time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// The kinds of records a trace can hold.
///
/// Fields are the obvious actor ids / payload sizes / timer tags; `msg` is
/// the per-run transmission id (see [`MsgId`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum TraceKind {
    /// A point-to-point transmission was attempted.
    Sent { from: ActorId, to: ActorId, bytes: usize, msg: MsgId },
    /// A message was delivered to its destination.
    Delivered { from: ActorId, to: ActorId, msg: MsgId },
    /// A message was dropped by the loss model.
    Lost { from: ActorId, to: ActorId, msg: MsgId },
    /// A timer fired at an actor.
    TimerFired { actor: ActorId, tag: u64 },
    /// A free-form annotation emitted by an actor (protocol-level events:
    /// "sensed x=5", "detected φ", …).
    Note { actor: ActorId, label: String },
    /// A fault-plane event (crash, recovery, partition cut/heal, channel
    /// effect, clock fault). Only ever recorded when a non-empty
    /// [`crate::fault::FaultScript`] is installed, so fault-free golden
    /// traces never contain this kind. `detail` is kind-specific — see
    /// [`FaultRecordKind`].
    Fault { actor: ActorId, kind: FaultRecordKind, detail: u64 },
}

impl TraceKind {
    /// The actor this record belongs to (its staging ring): the acting /
    /// observing side of each kind.
    pub fn actor(&self) -> ActorId {
        match self {
            TraceKind::Sent { from, .. } | TraceKind::Lost { from, .. } => *from,
            TraceKind::Delivered { to, .. } => *to,
            TraceKind::TimerFired { actor, .. }
            | TraceKind::Note { actor, .. }
            | TraceKind::Fault { actor, .. } => *actor,
        }
    }
}

/// A record staged during the run, carrying its canonical sort key instead
/// of a pre-assigned sequence number.
#[derive(Debug, Clone)]
struct Staged {
    at: SimTime,
    cursor: u128,
    intra: u32,
    kind: TraceKind,
}

/// A structured record of a run.
///
/// During the run, records are staged with the canonical cursor of the
/// engine event that produced them; the first [`Trace::seal`] (the engine
/// seals at the end of [`crate::engine::Engine::run`]) sorts them into
/// canonical order and assigns the dense `seq` numbers. Sealing is
/// idempotent and recording may resume after it — post-hoc analyses (e.g.
/// detector verdicts) append (in plain recording order, after everything
/// the engine staged) and re-seal.
#[derive(Debug, Clone)]
pub struct Trace {
    records: Vec<TraceRecord>,
    staged: Vec<Staged>,
    cursor: u128,
    intra: u32,
    next_seq: u64,
    /// True until the first seal: records are staged under canonical keys.
    canonical: bool,
    enabled: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

impl Trace {
    /// Cursor for records made while dispatching `on_start` to `actor`
    /// (starts precede every queue event at t = 0).
    #[inline]
    pub(crate) fn start_cursor(actor: ActorId) -> u128 {
        actor as u128
    }

    /// Cursor for records made while processing the queue event with
    /// canonical key `key` (see [`event_key`]). Orders after
    /// every start cursor; among themselves, event cursors order exactly
    /// like the events fire.
    #[inline]
    pub(crate) fn event_cursor(key: u64) -> u128 {
        (1u128 << 64) | key as u128
    }

    /// A trace that records events.
    pub fn enabled() -> Self {
        Trace {
            records: Vec::new(),
            staged: Vec::new(),
            cursor: 0,
            intra: 0,
            next_seq: 0,
            canonical: true,
            enabled: true,
        }
    }

    /// A trace that discards everything (zero overhead beyond the branch).
    pub fn disabled() -> Self {
        Trace { enabled: false, ..Trace::enabled() }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Preallocate staging space for a run over `n` actors (no-op when
    /// disabled). The engine calls this at run start so early recording
    /// does not regrow the buffer step by step.
    pub(crate) fn configure_actors(&mut self, n: usize) {
        if !self.enabled {
            return;
        }
        self.staged.reserve(n.saturating_mul(STAGED_RECORDS_PER_ACTOR));
    }

    /// Set the canonical cursor for subsequent records and reset the
    /// intra-event counter. The engine calls this once per dispatched
    /// event; direct users of `Trace` (benches, tests) can ignore it —
    /// records then sort by recording order within each timestamp.
    #[inline]
    pub(crate) fn set_cursor(&mut self, cursor: u128) {
        if !self.enabled {
            return;
        }
        self.cursor = cursor;
        self.intra = 0;
    }

    /// Record an event (no-op if disabled).
    pub fn record(&mut self, at: SimTime, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        if self.canonical {
            let intra = self.intra;
            self.intra += 1;
            self.staged.push(Staged { at, cursor: self.cursor, intra, kind });
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.records.push(TraceRecord { seq, at, kind });
        }
    }

    /// Move every record staged in `other` into this trace's staging
    /// buffer (the engine gathers its lanes' traces this way before the
    /// canonical seal); into an empty buffer the records move without a
    /// copy. If this trace was already sealed (a run resumed after
    /// [`crate::engine::Engine::finish`]), the incoming records are sealed
    /// on their own and appended in plain seq order instead.
    pub(crate) fn absorb(&mut self, other: &mut Trace) {
        if self.canonical {
            debug_assert!(other.canonical, "absorb requires an unsealed source");
            if self.staged.is_empty() {
                std::mem::swap(&mut self.staged, &mut other.staged);
            } else {
                self.staged.append(&mut other.staged);
            }
        } else {
            other.seal();
            self.records.reserve(other.records.len());
            for r in other.records.drain(..) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.records.push(TraceRecord { seq, at: r.at, kind: r.kind });
            }
        }
    }

    /// Sort staged records into canonical `(time, cursor, intra)` order and
    /// assign the dense `seq` numbers. Idempotent; recording may continue
    /// afterwards (appends keep seq order, so later seals are no-ops).
    pub fn seal(&mut self) {
        if !self.canonical {
            return;
        }
        self.canonical = false;
        self.staged.sort_unstable_by_key(|a| (a.at, a.cursor, a.intra));
        self.records.reserve(self.staged.len());
        for s in self.staged.drain(..) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.records.push(TraceRecord { seq, at: s.at, kind: s.kind });
        }
    }

    fn assert_sealed(&self) {
        debug_assert!(
            self.staged.is_empty(),
            "Trace::seal() must run before reading (the engine seals at end of run)"
        );
    }

    /// All records in recording order (which is chronological, since the
    /// engine advances time monotonically). Requires [`Trace::seal`].
    pub fn records(&self) -> &[TraceRecord] {
        self.assert_sealed();
        &self.records
    }

    /// Number of recorded events (staged or sealed).
    pub fn len(&self) -> usize {
        self.records.len() + self.staged.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Serialize for Trace {
    fn serialize<S: Sink>(&self, s: &mut S) {
        self.assert_sealed();
        s.map_begin();
        s.map_key("enabled");
        s.bool(self.enabled);
        s.map_key("records");
        self.records.serialize(s);
        s.map_end()
    }
}

impl Deserialize for Trace {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, Error> {
        let mut trace = Trace::disabled();
        src.map("Trace", |src, key| {
            match key {
                "enabled" => trace.enabled = bool::deserialize(src)?,
                "records" => trace.records = Vec::deserialize(src)?,
                _ => src.skip()?,
            }
            Ok(())
        })?;
        trace.next_seq = trace.records.iter().map(|r| r.seq + 1).max().unwrap_or(0);
        // A deserialized trace was sealed when serialized: appends continue
        // in plain seq order.
        trace.canonical = false;
        Ok(trace)
    }
}

#[cfg(test)]
impl Trace {
    /// All `Note` annotations from a given actor, with their times.
    pub(crate) fn notes_of(&self, actor: ActorId) -> Vec<(SimTime, &str)> {
        self.records()
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Note { actor: a, label } if *a == actor => Some((e.at, label.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Count records matching a predicate.
    pub(crate) fn count_matching(&self, f: impl Fn(&TraceKind) -> bool) -> usize {
        self.records().iter().filter(|e| f(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(i: u64) -> MsgId {
        MsgId(i)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceKind::TimerFired { actor: 0, tag: 1 });
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(
            SimTime::from_millis(1),
            TraceKind::Sent { from: 0, to: 1, bytes: 8, msg: msg(0) },
        );
        t.record(SimTime::from_millis(2), TraceKind::Delivered { from: 0, to: 1, msg: msg(0) });
        t.seal();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].at, SimTime::from_millis(1));
        assert!(matches!(t.records()[1].kind, TraceKind::Delivered { .. }));
    }

    #[test]
    fn seal_preserves_recording_order_without_cursors() {
        // With no explicit cursors, records at distinct times keep their
        // recording order and get dense seqs.
        let mut t = Trace::enabled();
        for i in 0..20u64 {
            let actor = (i % 3) as ActorId;
            t.record(SimTime::from_millis(i), TraceKind::TimerFired { actor, tag: i });
        }
        t.seal();
        let seqs: Vec<u64> = t.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        let tags: Vec<u64> = t
            .records()
            .iter()
            .map(|r| match r.kind {
                TraceKind::TimerFired { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn seal_orders_by_cursor_regardless_of_staging_order() {
        // Two "shards" record the same logical events under canonical
        // cursors; merging either way round seals to the same sequence.
        let mk = |order: &[u64]| {
            let mut parts: Vec<Trace> = Vec::new();
            for &k in order {
                let mut t = Trace::enabled();
                t.set_cursor(Trace::event_cursor(k));
                t.record(SimTime::from_millis(5), TraceKind::TimerFired { actor: 0, tag: k });
                t.record(SimTime::from_millis(5), TraceKind::TimerFired { actor: 0, tag: 100 + k });
                parts.push(t);
            }
            let mut all = Trace::enabled();
            for p in &mut parts {
                all.absorb(p);
            }
            all.seal();
            all.records()
                .iter()
                .map(|r| match r.kind {
                    TraceKind::TimerFired { tag, .. } => tag,
                    _ => unreachable!(),
                })
                .collect::<Vec<u64>>()
        };
        let a = mk(&[3, 1, 2]);
        let b = mk(&[2, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 101, 2, 102, 3, 103]);
    }

    #[test]
    fn start_cursors_order_before_event_cursors() {
        assert!(Trace::start_cursor(usize::MAX) < Trace::event_cursor(0));
        assert!(Trace::event_cursor(1) < Trace::event_cursor(2));
    }

    #[test]
    fn seal_is_idempotent_and_recording_resumes() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_millis(1), TraceKind::TimerFired { actor: 0, tag: 0 });
        t.seal();
        t.seal();
        assert_eq!(t.len(), 1);
        // Post-hoc append, then re-seal.
        t.record(SimTime::from_millis(2), TraceKind::Note { actor: 1, label: "after".into() });
        t.seal();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].seq, 1);
    }

    #[test]
    fn notes_filter_by_actor() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_millis(1), TraceKind::Note { actor: 3, label: "sensed".into() });
        t.record(SimTime::from_millis(2), TraceKind::Note { actor: 4, label: "other".into() });
        t.record(SimTime::from_millis(5), TraceKind::Note { actor: 3, label: "detected".into() });
        t.seal();
        let notes = t.notes_of(3);
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].1, "sensed");
        assert_eq!(notes[1].0, SimTime::from_millis(5));
    }

    #[test]
    fn count_matching_counts() {
        let mut t = Trace::enabled();
        for i in 0..5 {
            t.record(SimTime::from_millis(i), TraceKind::Lost { from: 0, to: 1, msg: msg(i) });
        }
        t.record(SimTime::from_millis(9), TraceKind::Delivered { from: 0, to: 1, msg: msg(5) });
        t.seal();
        assert_eq!(t.count_matching(|k| matches!(k, TraceKind::Lost { .. })), 5);
        assert_eq!(t.count_matching(|k| matches!(k, TraceKind::Delivered { .. })), 1);
    }
}
