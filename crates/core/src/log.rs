//! Process logs and the sealed execution log.
//!
//! Each process records its own events (paper §2.1): a
//! `SensorProcess` appends its sense, send
//! and actuate events to a log it owns, and the root P₀ appends its own
//! receive and send events plus the reports it received and the actuation
//! commands it issued. No log is shared, so an append takes no lock; under
//! the sharded engine a process's log moves with its actor to the lane that
//! runs it.
//!
//! An [`ExecutionLog`] is the sealed view of one execution, built by
//! [`ExecutionLog::seal`]: every process event in `(at, process, seq)`
//! order, every report in arrival order at P₀, and every actuation command
//! issued. Each process log is one sorted run of that order (a process
//! records its events in time order and numbers them in sequence), the key
//! tells processes apart, and equal keys (an amnesiac restart can repeat a
//! number) keep their recording order, so the sealed log is bit-identical
//! for every shard count. The seal moves each process log into the result
//! and releases it as it goes; no second copy of the events is made.

use serde::{Deserialize, Serialize};

use psn_clocks::{ProcessId, VectorStamp};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

use crate::event::ProcEvent;
use crate::message::Report;

/// A report as received at the root, with arrival metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceivedReport {
    /// The report.
    pub report: Report,
    /// Ground-truth arrival time at the root (scoring only).
    pub arrived_at: SimTime,
    /// The root's causal vector clock *after* merging this report — the
    /// root's knowledge frontier at this point of the observation stream.
    pub root_vector: VectorStamp,
}

/// An actuation command issued by the root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActuationRecord {
    /// Ground-truth time the command was issued.
    pub at: SimTime,
    /// The process commanded to actuate.
    pub target: ProcessId,
    /// The attribute driven.
    pub key: AttrKey,
    /// The commanded value.
    pub command: AttrValue,
}

/// Everything observable about one execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExecutionLog {
    /// All process events (every process), in `(at, process, seq)` order:
    /// ground-truth chronological, since the engine is monotone.
    pub events: Vec<ProcEvent>,
    /// Reports in arrival order at the root.
    pub reports: Vec<ReceivedReport>,
    /// Actuation commands issued.
    pub actuations: Vec<ActuationRecord>,
}

impl ExecutionLog {
    /// Seal per-process event logs and the root's report and actuation
    /// logs into one view, events in `(at, process, seq)` order. The
    /// largest log is grown in place and every other log is moved into it
    /// and released, so at most one log's events are resident twice; the
    /// order is then fixed without a scratch copy of the events (see
    /// `sort_canonical`).
    pub fn seal(
        mut logs: Vec<Vec<ProcEvent>>,
        reports: Vec<ReceivedReport>,
        actuations: Vec<ActuationRecord>,
    ) -> ExecutionLog {
        let total: usize = logs.iter().map(Vec::len).sum();
        let largest = (0..logs.len()).max_by_key(|&i| logs[i].len());
        let mut events = largest.map(|i| std::mem::take(&mut logs[i])).unwrap_or_default();
        events.reserve_exact(total - events.len());
        for log in logs {
            events.extend(log);
        }
        sort_canonical(&mut events);
        ExecutionLog { events, reports, actuations }
    }

    /// All sense events, in ground-truth order.
    pub fn sense_events(&self) -> Vec<&ProcEvent> {
        self.events.iter().filter(|e| e.kind.is_relevant()).collect()
    }
}

/// Put `events` in `(at, process, seq)` order, equal keys in their current
/// order, without a scratch copy of the events: sort one compact key per
/// event, with its position as the last field so every key is distinct
/// (an unstable sort then equals a stable one), and apply the permutation
/// in place by following its cycles.
fn sort_canonical(events: &mut [ProcEvent]) {
    let mut order: Vec<(SimTime, ProcessId, usize, usize)> =
        events.iter().enumerate().map(|(i, e)| (e.at, e.process, e.seq, i)).collect();
    order.sort_unstable();
    // `order[j].3` is the position of the event that belongs at `j`; a
    // slot is marked done by pointing it at itself.
    for start in 0..events.len() {
        let mut j = start;
        loop {
            let from = order[j].3;
            order[j].3 = j;
            if from == start {
                break;
            }
            events.swap(j, from);
            j = from;
        }
    }
}

#[cfg(test)]
impl ExecutionLog {
    /// Events of one process, in order.
    pub(crate) fn events_of(&self, p: ProcessId) -> Vec<&ProcEvent> {
        self.events.iter().filter(|e| e.process == p).collect()
    }

    /// Reports of one process, in arrival order.
    pub(crate) fn reports_of(&self, p: ProcessId) -> Vec<&ReceivedReport> {
        self.reports.iter().filter(|r| r.report.process == p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use psn_clocks::{PhysReading, ScalarStamp};

    fn ev(p: ProcessId, seq: usize, relevant: bool) -> ProcEvent {
        ProcEvent {
            process: p,
            seq,
            at: SimTime::ZERO,
            kind: if relevant {
                EventKind::Sense {
                    key: AttrKey::new(0, 0),
                    value: AttrValue::Int(1),
                    world_event: 0,
                }
            } else {
                EventKind::Compute
            },
            stamps: crate::bundle::StampSet {
                lamport: ScalarStamp { value: 0, process: p },
                vector: VectorStamp::zero(2),
                strobe_scalar: ScalarStamp { value: 0, process: p },
                strobe_vector: VectorStamp::zero(2),
                physical: PhysReading(0),
                synced: PhysReading(0),
                truth: SimTime::ZERO,
            },
        }
    }

    #[test]
    fn filters_by_process_and_kind() {
        let mut log = ExecutionLog::default();
        log.events.push(ev(0, 1, true));
        log.events.push(ev(1, 1, false));
        log.events.push(ev(0, 2, false));
        assert_eq!(log.events_of(0).len(), 2);
        assert_eq!(log.events_of(1).len(), 1);
        assert_eq!(log.sense_events().len(), 1);
    }

    #[test]
    fn seal_merges_process_runs_and_keeps_equal_keys_in_order() {
        let event = |p, ms, seq, relevant| ProcEvent {
            at: SimTime::from_millis(ms),
            ..ev(p, seq, relevant)
        };
        let logs = vec![
            vec![event(0, 10, 1, true), event(0, 10, 2, false), event(0, 40, 3, true)],
            // Process 2 restarted amnesiac at 30 ms: its seq 1 repeats at
            // the same instant, and the two must keep their recording order.
            vec![event(2, 5, 1, true), event(2, 30, 1, true), event(2, 30, 1, false)],
            vec![event(1, 10, 1, true), event(1, 35, 2, false)],
        ];
        let mut expected = logs.concat();
        expected.sort_by_key(|e| (e.at, e.process, e.seq));
        let sealed = ExecutionLog::seal(logs, Vec::new(), Vec::new());
        assert_eq!(sealed.events, expected);
        assert!(ExecutionLog::seal(Vec::new(), Vec::new(), Vec::new()).events.is_empty());
    }
}
