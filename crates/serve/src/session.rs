//! The serving session: one live execution plus named streaming detectors.
//!
//! [`ServeSession`] is single-threaded by design — the server applies every
//! request under one session lock, so the session needs no internal
//! locking and every request observes a consistent engine state. It owns:
//!
//! - a [`LiveExecution`] that buffers each ingested event until the
//!   watermark passes its time,
//! - a set of **named detectors**: for each `Watch`ed predicate, one
//!   [`StreamingModal`] offered each report once as it arrives — the
//!   on-line readout and the modal (`Possibly`/`Definitely`) status are
//!   answered together from the bounded live frontier in O(window), never
//!   by re-sweeping the whole trace,
//! - the ingest journal that makes [`ServeSnapshot`] possible.
//!
//! Every validation failure is a typed [`Response::Error`]; nothing a
//! client sends can panic the session (the engine boundary itself returns
//! [`psn_sim::engine::EngineError`] rather than asserting).

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use psn_core::live::{LiveExecution, LiveSnapshot, LoggedEvent, RestoreError};
use psn_core::root::NoActuation;
use psn_core::{ExecutionConfig, NetMsg};
use psn_predicates::{Predicate, StreamingModal};
use psn_sim::engine::EngineError;
use psn_sim::metrics::Metrics;
use psn_sim::provider::TimelineProvider;
use psn_sim::telemetry::{Phase, ShardTelemetry, Telemetry};
use psn_sim::time::SimDuration;
use psn_world::WorldState;

use crate::wire::{ErrorCode, Request, Response};

/// Server-side cap on one `TraceSlice` reply.
pub(crate) const MAX_SLICE: usize = 1024;

/// Configuration of a serving session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of sensor processes (the root is process `n`).
    pub n: usize,
    /// The execution configuration (delay/loss/clocks/faults/seed…).
    pub exec: ExecutionConfig,
    /// Hold-back window for the streaming detectors (use ≥ 2Δ).
    pub hold_back: SimDuration,
    /// Deployment-time observed world state for detector initialisation.
    pub initial: WorldState,
    /// Where `Snapshot` requests persist to (`None`: not persisted).
    pub snapshot_path: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults for `n` sensors: the default execution config (Δ = 100 ms)
    /// with a 2Δ hold-back, an empty initial state, no snapshot path.
    pub fn new(n: usize) -> Self {
        ServeConfig {
            n,
            exec: ExecutionConfig::default(),
            hold_back: SimDuration::from_millis(200),
            initial: WorldState::default(),
            snapshot_path: None,
        }
    }
}

/// A restartable capture of a whole serving session: the live engine
/// snapshot plus everything needed to rebuild the detectors (which are
/// deterministic functions of the report stream, so only their
/// *definitions* need storing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// The engine state (config, watermark, ingest journal).
    pub live: LiveSnapshot,
    /// Events ingested but not yet due at the watermark (the live
    /// execution's [`pending`](LiveExecution::pending) buffer): without
    /// these, a snapshot taken between `Ingest` and `Advance` would
    /// silently drop accepted events.
    pub pending: Vec<LoggedEvent>,
    /// The watched predicates, in registration order.
    pub watches: Vec<(String, Predicate)>,
    /// The detectors' hold-back window.
    pub hold_back: SimDuration,
    /// The deployment-time world state.
    pub initial: WorldState,
}

impl ServeSnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// One watched predicate: its streaming detector (the on-line readout and
/// Possibly/Definitely from the bounded frontier), plus the exported memory
/// gauges.
struct NamedDetector {
    name: String,
    predicate: Predicate,
    modal: StreamingModal,
    mem_gauge: psn_sim::metrics::Gauge,
    width_gauge: psn_sim::metrics::Gauge,
}

/// The server-side state machine: applies [`Request`]s, produces
/// [`Response`]s.
pub struct ServeSession {
    live: LiveExecution,
    detectors: Vec<NamedDetector>,
    /// Reports already offered to every detector.
    report_cursor: usize,
    next_world_event: usize,
    hold_back: SimDuration,
    initial: WorldState,
    snapshot_path: Option<PathBuf>,
    /// The session's observability registry, shared with the live engine.
    /// Clones are cheap `Arc` handles; the HTTP exposition listener holds
    /// one and snapshots it without taking the session lock.
    metrics: Metrics,
    /// The registry's coordinator-slot handle: times the `detector` phase.
    coord: ShardTelemetry,
}

impl ServeSession {
    /// A fresh session under `cfg`.
    pub fn new(cfg: ServeConfig) -> Self {
        let metrics = Metrics::new();
        let live = LiveExecution::new_full(
            cfg.n,
            cfg.exec,
            Box::new(NoActuation),
            &metrics,
            Box::new(TimelineProvider::new(Vec::new())),
        );
        ServeSession {
            live,
            detectors: Vec::new(),
            report_cursor: 0,
            next_world_event: 0,
            hold_back: cfg.hold_back,
            initial: cfg.initial,
            snapshot_path: cfg.snapshot_path,
            coord: metrics.telemetry().coordinator(),
            metrics,
        }
    }

    /// Rebuild a session from a snapshot: the engine replays its journal
    /// deterministically, then each watched detector is rebuilt by
    /// replaying the restored report stream — frontier, log, and
    /// per-predicate status all match the captured session exactly. A
    /// pending event `Ingest` would have refused, or a world-event id with
    /// no successor, is a [`RestoreError`].
    pub fn restore(
        snap: ServeSnapshot,
        snapshot_path: Option<PathBuf>,
    ) -> Result<Self, RestoreError> {
        let metrics = Metrics::new();
        let mut live = snap.live.restore_full(
            Box::new(TimelineProvider::new(Vec::new())),
            Box::new(NoActuation),
            &metrics,
        )?;
        let mut next_world_event = 0;
        for e in live.journal().iter().chain(&snap.pending) {
            if let NetMsg::WorldSense { world_event, .. } = e.msg {
                let next =
                    world_event.checked_add(1).ok_or(RestoreError::WorldEventIdsExhausted)?;
                next_world_event = next_world_event.max(next);
            }
        }
        // Re-queue the not-yet-due ingests, in their original order, under
        // the checks `Ingest` makes.
        let (n, watermark) = (live.n(), live.watermark());
        for e in snap.pending {
            if e.to >= n {
                return Err(EngineError::UnknownActor { id: e.to, actors: n }.into());
            }
            if e.at < watermark {
                return Err(EngineError::TimeRegression { at: e.at, now: watermark }.into());
            }
            live.ingest(e);
        }
        let mut session = ServeSession {
            live,
            detectors: Vec::new(),
            report_cursor: 0,
            next_world_event,
            hold_back: snap.hold_back,
            initial: snap.initial,
            snapshot_path,
            coord: metrics.telemetry().coordinator(),
            metrics,
        };
        for (name, predicate) in snap.watches {
            session.add_watch(name, predicate);
        }
        session.pump_detectors();
        Ok(session)
    }

    /// The session's live engine (read-only).
    pub fn live(&self) -> &LiveExecution {
        &self.live
    }

    /// A handle to the session's observability registry. Snapshotting
    /// through a clone is thread-safe and does not take the session lock —
    /// this is what the `--metrics-listen` HTTP exposition listener holds.
    pub fn metrics_registry(&self) -> Metrics {
        self.metrics.clone()
    }

    /// The registry's wall-clock phase view (same sharing rules as
    /// [`metrics_registry`](Self::metrics_registry)).
    pub fn telemetry_registry(&self) -> Telemetry {
        self.metrics.telemetry()
    }

    fn add_watch(&mut self, name: String, predicate: Predicate) {
        let mut modal =
            StreamingModal::new(&predicate, &self.initial, self.live.n(), self.hold_back);
        // Catch a late registration up with the stream seen so far.
        for r in &self.live.reports()[..self.report_cursor] {
            modal.offer(r);
        }
        let mem_gauge = self.metrics.gauge(&format!("detector.{name}.mem_high_water_cuts"));
        let width_gauge = self.metrics.gauge(&format!("detector.{name}.frontier_width"));
        mem_gauge.set(modal.mem_high_water_cuts());
        width_gauge.set(modal.frontier_width() as u64);
        self.detectors.retain(|d| d.name != name);
        self.detectors.push(NamedDetector { name, predicate, modal, mem_gauge, width_gauge });
    }

    /// Feed reports that arrived since the last pump to every detector —
    /// read in place from the root's report log, timed as the `detector`
    /// telemetry phase, with the per-detector memory gauges refreshed after.
    fn pump_detectors(&mut self) {
        let t0 = self.coord.start();
        let reports = self.live.reports();
        for r in &reports[self.report_cursor..] {
            for d in &mut self.detectors {
                d.modal.offer(r);
            }
        }
        self.report_cursor = reports.len();
        for d in &self.detectors {
            d.mem_gauge.set(d.modal.mem_high_water_cuts());
            d.width_gauge.set(d.modal.frontier_width() as u64);
        }
        self.coord.record(Phase::Detector, t0);
    }

    fn engine_error(e: EngineError) -> Response {
        let code = match e {
            EngineError::TimeRegression { .. } => ErrorCode::TimeRegression,
            EngineError::UnknownActor { .. } => ErrorCode::UnknownProcess,
            _ => ErrorCode::Internal,
        };
        Response::Error { code, message: e.to_string() }
    }

    /// Apply one request. Never panics on any input; errors are typed
    /// responses and leave the session unchanged.
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Ingest { at, process, key, value } => {
                if process >= self.live.n() {
                    return Response::Error {
                        code: ErrorCode::UnknownProcess,
                        message: format!(
                            "process {process} out of range (this session has {} sensors)",
                            self.live.n()
                        ),
                    };
                }
                if at < self.live.watermark() {
                    return Response::Error {
                        code: ErrorCode::TimeRegression,
                        message: format!(
                            "cannot ingest at {at:?}: the watermark has passed {:?}",
                            self.live.watermark()
                        ),
                    };
                }
                let world_event = self.next_world_event;
                let Some(next) = world_event.checked_add(1) else {
                    return Response::Error {
                        code: ErrorCode::Internal,
                        message: "world-event ids are exhausted".into(),
                    };
                };
                self.next_world_event = next;
                let msg = NetMsg::WorldSense { key, value, world_event };
                self.live.ingest(LoggedEvent { at, to: process, from: process, msg });
                Response::Ingested { world_event: world_event as u64 }
            }
            Request::Advance { to } => {
                let before = self.report_cursor;
                match self.live.advance_to(to) {
                    Ok(now) => {
                        self.pump_detectors();
                        Response::Advanced {
                            now,
                            watermark: self.live.watermark(),
                            new_reports: self.report_cursor - before,
                        }
                    }
                    Err(e) => Self::engine_error(e),
                }
            }
            Request::Frontier => Response::Frontier {
                watermark: self.live.watermark(),
                vector: self.live.frontier(),
                reports: self.live.reports().len(),
                events: self.live.event_count(),
                rejected: self.live.rejected(),
            },
            Request::Watch { name, predicate } => {
                // Names that mangle alike would export one Prometheus family
                // twice, and a scrape with a duplicate is refused whole.
                let mangled = crate::http::prom_name(&name);
                let clash = self
                    .detectors
                    .iter()
                    .find(|d| d.name != name && crate::http::prom_name(&d.name) == mangled);
                if let Some(d) = clash {
                    let message =
                        format!("watch {name:?} would export the metrics of {:?}", d.name);
                    return Response::Error { code: ErrorCode::BadRequest, message };
                }
                self.add_watch(name.clone(), predicate);
                Response::Watching { name, watched: self.detectors.len() }
            }
            Request::Status { name } => {
                let Some(d) = self.detectors.iter_mut().find(|d| d.name == name) else {
                    return Response::Error {
                        code: ErrorCode::UnknownPredicate,
                        message: format!("no predicate named {name:?} is watched"),
                    };
                };
                // Both answers come from one flush of the streaming
                // detector's held reports: on a relational watch they are
                // applied to the live sweep and undone by copy, in O(held)
                // and without allocating; a conjunctive watch seals a clone
                // of its bounded frontier. Never a whole-trace sweep.
                let t0 = self.coord.start();
                let (online, modal) = d.modal.readout();
                self.coord.record(Phase::Detector, t0);
                Response::Status {
                    name,
                    online,
                    modal,
                    mem_high_water_cuts: d.modal.mem_high_water_cuts(),
                    frontier_width: d.modal.frontier_width(),
                }
            }
            Request::Metrics => Response::Metrics {
                metrics: self.metrics.snapshot(),
                telemetry: self.metrics.telemetry().snapshot(),
            },
            Request::TraceSlice { from, limit } => {
                let reports = self.live.reports();
                let total = reports.len();
                let from = from.min(total);
                let to = from.saturating_add(limit.min(MAX_SLICE)).min(total);
                Response::TraceSlice { from, total, reports: reports[from..to].to_vec() }
            }
            Request::Snapshot => {
                let snap = self.snapshot();
                let json = snap.to_json();
                let bytes = json.len();
                match &self.snapshot_path {
                    Some(path) => match std::fs::write(path, json) {
                        Ok(()) => {
                            Response::Snapshot { path: Some(path.display().to_string()), bytes }
                        }
                        Err(e) => Response::Error {
                            code: ErrorCode::Internal,
                            message: format!("snapshot write failed: {e}"),
                        },
                    },
                    None => Response::Snapshot { path: None, bytes },
                }
            }
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// Capture the whole session (engine + watch definitions).
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            live: self.live.snapshot(),
            pending: self.live.pending().to_vec(),
            watches: self.detectors.iter().map(|d| (d.name.clone(), d.predicate.clone())).collect(),
            hold_back: self.hold_back,
            initial: self.initial.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::time::SimTime;
    use psn_world::{AttrKey, AttrValue};

    fn ingest(s: &mut ServeSession, ms: u64, p: usize, attr: usize, v: i64) -> Response {
        s.handle(Request::Ingest {
            at: SimTime::from_millis(ms),
            process: p,
            key: AttrKey::new(p, attr),
            value: AttrValue::Int(v),
        })
    }

    /// Drive entries (attr 0) through two doors so occupancy_over(2, 3)
    /// rises at 4 inside and falls when exits (attr 1) catch up.
    fn scripted_session() -> ServeSession {
        let mut s = ServeSession::new(ServeConfig::new(2));
        let w = s.handle(Request::Watch {
            name: "occ".into(),
            predicate: Predicate::occupancy_over(2, 3),
        });
        assert!(matches!(w, Response::Watching { watched: 1, .. }));
        for (i, (p, attr, v)) in [
            (0, 0, 1), // 1 in
            (1, 0, 1), // 2 in
            (0, 0, 2), // 3 in
            (1, 0, 2), // 4 in — predicate rises
            (0, 1, 2), // 2 out — predicate falls
            (1, 1, 2), // all out
        ]
        .into_iter()
        .enumerate()
        {
            let r = ingest(&mut s, 1000 * (i as u64 + 1), p, attr, v);
            assert!(matches!(r, Response::Ingested { .. }), "event {i}: {r:?}");
        }
        s
    }

    #[test]
    fn ingest_advance_status_detects_the_occurrence() {
        let mut s = scripted_session();
        let r = s.handle(Request::Advance { to: SimTime::from_secs(30) });
        let Response::Advanced { watermark, new_reports, .. } = r else {
            panic!("unexpected: {r:?}")
        };
        assert_eq!(watermark, SimTime::from_secs(30));
        assert_eq!(new_reports, 6, "every sense reported on a lossless mesh");

        let r = s.handle(Request::Status { name: "occ".into() });
        let Response::Status { online, modal, .. } = r else { panic!("unexpected: {r:?}") };
        assert_eq!(online.occurrences, 1, "rise at 4 inside, fall at 2");
        assert!(!online.holds);
        assert_eq!((modal.possibly, modal.definitely), (1, 1));
        assert!(!modal.holding_now);
    }

    #[test]
    fn frontier_grows_with_the_root_knowledge() {
        let mut s = scripted_session();
        let Response::Frontier { vector, reports, .. } = s.handle(Request::Frontier) else {
            panic!()
        };
        assert_eq!(reports, 0);
        assert_eq!(vector, psn_clocks::VectorStamp::zero(3));
        s.handle(Request::Advance { to: SimTime::from_secs(30) });
        let Response::Frontier { vector, reports, rejected, .. } = s.handle(Request::Frontier)
        else {
            panic!()
        };
        assert_eq!(reports, 6);
        assert_eq!(rejected, 0);
        assert!(vector[0] >= 1 && vector[1] >= 1, "root heard from both sensors: {vector:?}");
    }

    #[test]
    fn boundary_violations_are_typed_errors_not_panics() {
        let mut s = scripted_session();
        let r = ingest(&mut s, 1000, 99, 0, 1);
        assert!(matches!(r, Response::Error { code: ErrorCode::UnknownProcess, .. }), "{r:?}");
        s.handle(Request::Advance { to: SimTime::from_secs(10) });
        let r = ingest(&mut s, 1000, 0, 0, 1);
        assert!(matches!(r, Response::Error { code: ErrorCode::TimeRegression, .. }), "{r:?}");
        let r = s.handle(Request::Advance { to: SimTime::from_secs(5) });
        assert!(matches!(r, Response::Error { code: ErrorCode::TimeRegression, .. }), "{r:?}");
        let r = s.handle(Request::Status { name: "nope".into() });
        assert!(matches!(r, Response::Error { code: ErrorCode::UnknownPredicate, .. }), "{r:?}");
        // The session is still healthy.
        assert!(matches!(s.handle(Request::Ping), Response::Pong));
        let r = ingest(&mut s, 20_000, 0, 0, 9);
        assert!(matches!(r, Response::Ingested { .. }));
    }

    #[test]
    fn a_watch_name_that_mangles_onto_another_is_refused() {
        let mut s = ServeSession::new(ServeConfig::new(2));
        let watch = |name: &str| Request::Watch {
            name: name.into(),
            predicate: Predicate::occupancy_over(2, 3),
        };
        assert!(matches!(s.handle(watch("a.b")), Response::Watching { watched: 1, .. }));
        let r = s.handle(watch("a_b"));
        let Response::Error { code: ErrorCode::BadRequest, message } = r else { panic!("{r:?}") };
        assert!(message.contains("\"a_b\"") && message.contains("\"a.b\""), "{message}");
        // Re-watching the same name replaces it; a distinct mangling is fine.
        assert!(matches!(s.handle(watch("a.b")), Response::Watching { watched: 1, .. }));
        assert!(matches!(s.handle(watch("a.c")), Response::Watching { watched: 2, .. }));
    }

    #[test]
    fn trace_slice_pages_through_reports() {
        let mut s = scripted_session();
        s.handle(Request::Advance { to: SimTime::from_secs(30) });
        let Response::TraceSlice { from, total, reports } =
            s.handle(Request::TraceSlice { from: 2, limit: 3 })
        else {
            panic!()
        };
        assert_eq!((from, total, reports.len()), (2, 6, 3));
        let Response::TraceSlice { reports: tail, .. } =
            s.handle(Request::TraceSlice { from: 5, limit: 100 })
        else {
            panic!()
        };
        assert_eq!(tail.len(), 1);
        let Response::TraceSlice { reports: none, .. } =
            s.handle(Request::TraceSlice { from: 99, limit: 10 })
        else {
            panic!()
        };
        assert!(none.is_empty(), "out-of-range from clamps to empty, no panic");

        // The stream read by cursor: each reply moves `from` on by what it
        // returned, until it reaches `total`.
        let mut seen = Vec::new();
        let mut from = 0;
        loop {
            let Response::TraceSlice { from: at, total, reports } =
                s.handle(Request::TraceSlice { from, limit: 4 })
            else {
                panic!()
            };
            assert_eq!((at, total), (from, 6));
            from += reports.len();
            seen.extend(reports);
            if from == total {
                break;
            }
        }
        assert_eq!(seen, s.live().reports(), "every report once, in order");
        let ids: Vec<_> = seen.iter().map(|r| r.report.world_event).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    /// The served snapshot is a file format and `session.snapshot_bytes` a
    /// benchmark metric: pinned byte for byte, taken mid-script so the
    /// journal, the pending tail and the watch are all in it. The constants
    /// are the earlier formats' bytes with only the three retired config
    /// entries, the window discipline, the partition plan and the
    /// dense-FIFO limit (all `null`), and the trace stamp mode
    /// (`"Vector"`), removed.
    #[test]
    fn snapshot_json_is_pinned_byte_for_byte() {
        let mut s = scripted_session();
        s.handle(Request::Advance { to: SimTime::from_secs(4) });
        let json = s.snapshot().to_json();
        let fnv1a = json
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        assert_eq!((json.len(), fnv1a), (1464, 9177712957850499076));
    }

    /// A snapshot is input too: a pending event `Ingest` would refuse, or a
    /// world-event id with no successor, ends in a `RestoreError` — not a
    /// panic, a reused id, or an event the next `Advance` silently drops.
    #[test]
    fn hostile_snapshots_are_refused_on_restore() {
        let mut s = scripted_session();
        s.handle(Request::Advance { to: SimTime::from_secs(4) });
        let json = s.snapshot().to_json();
        let (live, pending) = json.split_once(r#""pending":"#).expect("pending follows live");
        let restore = |from: &str, to: &str| {
            assert!(pending.contains(from), "the fixture holds {from}");
            let edited = format!(r#"{live}"pending":{}"#, pending.replacen(from, to, 1));
            ServeSession::restore(ServeSnapshot::from_json(&edited).expect("well-formed"), None)
        };
        let err = restore(r#""world_event":5"#, r#""world_event":18446744073709551615"#).err();
        assert!(matches!(err, Some(RestoreError::WorldEventIdsExhausted)), "{err:?}");
        // The id before the last restores, and the last is never handed out.
        let mut r = restore(r#""world_event":5"#, r#""world_event":18446744073709551614"#)
            .expect("an id with a successor restores");
        let refused = ingest(&mut r, 9000, 0, 0, 1);
        assert!(
            matches!(refused, Response::Error { code: ErrorCode::Internal, .. }),
            "{refused:?}"
        );
        let err = restore(r#""to":1,"from":1"#, r#""to":2,"from":2"#).err();
        let unknown = EngineError::UnknownActor { id: 2, actors: 2 };
        assert!(matches!(err, Some(RestoreError::Engine(e)) if e == unknown), "{err:?}");
        let err = restore(r#""at":5000000000"#, r#""at":3000000000"#).err();
        let behind =
            EngineError::TimeRegression { at: SimTime::from_secs(3), now: SimTime::from_secs(4) };
        assert!(matches!(err, Some(RestoreError::Engine(e)) if e == behind), "{err:?}");
    }

    #[test]
    fn snapshot_kill_restore_preserves_frontier_and_status() {
        let mut s = scripted_session();
        s.handle(Request::Advance { to: SimTime::from_secs(4) }); // mid-script
        let snap = s.snapshot();
        let json = snap.to_json();

        // Continue the original to completion.
        s.handle(Request::Advance { to: SimTime::from_secs(30) });
        let want_frontier = s.live().frontier();
        let Response::Status { online: want_online, modal: want_modal, .. } =
            s.handle(Request::Status { name: "occ".into() })
        else {
            panic!()
        };
        drop(s);

        // Restore: the journal replays the delivered prefix, the pending
        // list re-queues the ingested-but-not-yet-due tail — nothing needs
        // re-sending.
        let snap = ServeSnapshot::from_json(&json).expect("roundtrip");
        assert_eq!(snap.pending.len(), 3, "events at 4/5/6 s were not yet due at the 4 s cut");
        let mut r = ServeSession::restore(snap, None).expect("restore");
        assert_eq!(r.live().watermark(), SimTime::from_secs(4));
        r.handle(Request::Advance { to: SimTime::from_secs(30) });
        assert_eq!(r.live().frontier(), want_frontier, "no causal frontier state lost");
        let Response::Status { online, modal, .. } =
            r.handle(Request::Status { name: "occ".into() })
        else {
            panic!()
        };
        assert_eq!(online, want_online, "per-predicate streaming status identical");
        assert_eq!(modal, want_modal);
    }

    /// Seven doors plus the root: eight actors, so 2 and 4 shards split
    /// them evenly.
    const SHARDED_DOORS: usize = 7;

    /// Play rounds `rounds` of a fixed script: each ingests eight counter
    /// steps (entries run ahead of exits), advances by an uneven step, and
    /// records the `Status`, `Frontier` and `TraceSlice` replies.
    fn play(s: &mut ServeSession, rounds: std::ops::Range<u64>) -> Vec<Response> {
        let mut replies = Vec::new();
        for round in rounds {
            for i in 0..8 {
                let door = (round as usize * 3 + i) % SHARDED_DOORS;
                let step = round as i64 + 1;
                let (attr, v) = if i % 3 == 2 { (1, step) } else { (0, 2 * step) };
                let r = ingest(s, round * 1000 + i as u64 * 97 + 1, door, attr, v);
                assert!(matches!(r, Response::Ingested { .. }), "round {round}: {r:?}");
            }
            let r = s.handle(Request::Advance { to: SimTime::from_millis(round * 1000 + 731) });
            assert!(matches!(r, Response::Advanced { .. }), "round {round}: {r:?}");
            replies.push(s.handle(Request::Status { name: "occ".into() }));
            replies.push(s.handle(Request::Frontier));
            replies.push(s.handle(Request::TraceSlice { from: 0, limit: MAX_SLICE }));
        }
        replies
    }

    /// One script replayed at shards 1, 2 and 4 under a floored delay (the
    /// default `delta(Δ)` has no lookahead and would stay on one lane):
    /// the engine runs on that many lanes, every reply is identical, and
    /// the snapshots differ only in their `shards` value. A snapshot taken
    /// at 4 shards restores at 1 and runs on identically.
    #[test]
    fn replies_are_identical_at_every_shard_count() {
        let delay = psn_sim::delay::DelayModel::DeltaBounded {
            min: SimDuration::from_millis(20),
            max: SimDuration::from_millis(150),
        };
        let session = |shards: usize| {
            let mut cfg = ServeConfig::new(SHARDED_DOORS);
            cfg.exec = ExecutionConfig { delay: delay.clone(), shards, ..Default::default() };
            let mut s = ServeSession::new(cfg);
            let predicate = Predicate::occupancy_over(SHARDED_DOORS, 6);
            s.handle(Request::Watch { name: "occ".into(), predicate });
            s
        };
        let lanes = |s: &ServeSession| s.telemetry_registry().snapshot().shards.len();
        let shards_entry = |shards: usize| format!(r#""shards":{shards}"#);
        let runs = [1, 2, 4].map(|shards| {
            let mut s = session(shards);
            let mut replies = play(&mut s, 0..3);
            let snap = s.snapshot().to_json();
            replies.extend(play(&mut s, 3..6));
            assert_eq!(lanes(&s), shards, "the engine runs on the requested lanes");
            assert_eq!(snap.matches(&shards_entry(shards)).count(), 1, "{snap}");
            let snap = snap.replace(&shards_entry(shards), &shards_entry(1));
            if shards == 4 {
                let mut r = ServeSession::restore(ServeSnapshot::from_json(&snap).unwrap(), None)
                    .expect("restore");
                assert_eq!(r.live().config().shards, 1);
                let tail = play(&mut r, 3..6);
                assert_eq!(lanes(&r), 1, "restored on one lane");
                assert_eq!(tail, replies[9..], "restored at one shard, it runs on identically");
            }
            (replies, snap)
        });
        let Response::Status { online, modal, .. } = &runs[0].0[15] else {
            panic!("unexpected: {:?}", runs[0].0[15])
        };
        assert!(online.occurrences > 0 && modal.possibly > 0, "the script bites");
        for (shards, run) in [2, 4].into_iter().zip(&runs[1..]) {
            assert_eq!(run.0, runs[0].0, "shards={shards}: replies");
            assert_eq!(run.1, runs[0].1, "shards={shards}: snapshot");
        }
    }
}
