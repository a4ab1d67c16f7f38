//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every frame is a 4-byte little-endian length followed by that many
//! bytes of UTF-8 JSON — one [`Request`] per client frame, one
//! [`Response`] per request frame, in request order on each connection.
//! A client may pipeline: the frames it has already sent are applied as
//! one contiguous burst in the session's serial order and their replies
//! leave in one write; a reply is never held back to wait for more input.
//! Frames are capped at [`MAX_FRAME`] bytes; a peer announcing
//! a larger frame is protocol-broken and the connection is dropped (the
//! *server* stays up). Malformed JSON inside a well-framed body gets a
//! typed [`Response::Error`] and the connection continues — no wire input
//! can panic the service.

use std::cell::RefCell;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use psn_clocks::VectorStamp;
use psn_core::ReceivedReport;
use psn_predicates::{ModalStatus, OnlineStatus, Predicate};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

/// Hard cap on a frame body, in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (or hit EOF mid-frame).
    Io(std::io::Error),
    /// The peer announced a frame larger than [`MAX_FRAME`].
    FrameTooLarge {
        /// The announced length.
        len: usize,
    },
    /// The frame body was not UTF-8.
    BadUtf8,
    /// The frame body was not valid JSON for the expected type.
    BadJson(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::BadUtf8 => write!(f, "frame body is not UTF-8"),
            WireError::BadJson(e) => write!(f, "frame body is not a valid message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// After a [`WireError`], can the connection keep going? True when the
/// offending frame was fully consumed (the stream is still in sync).
pub fn recoverable(e: &WireError) -> bool {
    matches!(e, WireError::BadUtf8 | WireError::BadJson(_))
}

/// Append one frame to `out`, its body written in place behind the length
/// prefix. On error nothing is appended: `out` still ends on a frame boundary.
pub fn encode_frame<T: Serialize>(out: &mut Vec<u8>, msg: &T) -> std::io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    serde_json::write_to(msg, out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        let why = format!("outgoing frame of {len} bytes exceeds the {MAX_FRAME}-byte cap");
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, why));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Write one frame, encoded in a buffer the calling thread reuses.
///
/// The length prefix and body go out in a *single* write: split across
/// two writes on an unbuffered `TcpStream`, the 4-byte prefix forms its
/// own segment and Nagle holds the body back until it is acknowledged —
/// a delayed-ACK stall (tens of milliseconds) on every frame.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    thread_local!(static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
    FRAME.with_borrow_mut(|frame| {
        frame.clear();
        encode_frame(frame, msg).and_then(|()| w.write_all(frame)).and_then(|()| w.flush())
    })
}

/// Does `buf` — bytes received, not yet consumed — start with a frame that
/// [`read_frame`] can finish without reading more? An oversized prefix
/// counts: it is refused on the prefix alone.
pub(crate) fn frame_buffered(buf: &[u8]) -> bool {
    let Some(prefix) = buf.first_chunk::<4>() else { return false };
    let len = u32::from_le_bytes(*prefix) as usize;
    len > MAX_FRAME || buf.len() - 4 >= len
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary.
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, WireError> {
    let mut len_buf = [0u8; 4];
    // Probe the first byte separately so a peer closing between frames is
    // a clean end-of-stream rather than an error.
    match r.read_exact(&mut len_buf[..1]) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        probe => probe?,
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let s = std::str::from_utf8(&body).map_err(|_| WireError::BadUtf8)?;
    serde_json::from_str(s).map(Some).map_err(|e| WireError::BadJson(format!("{e:?}")))
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Inject a sense event: `process` observes `key = value` at
    /// simulation time `at`. Admissible only for `process < n` and
    /// `at` at or past the current watermark.
    Ingest {
        /// Simulation time of the observation.
        at: SimTime,
        /// The sensing process.
        process: usize,
        /// The observed attribute.
        key: AttrKey,
        /// The observed value.
        value: AttrValue,
    },
    /// Advance the engine to watermark `to`: every ingested event strictly
    /// before `to` is processed, reports propagate, detectors update.
    Advance {
        /// The new watermark.
        to: SimTime,
    },
    /// The causal frontier and session counters.
    Frontier,
    /// Register a named predicate: a streaming detector plus modal
    /// (Possibly/Definitely) queries under this name.
    Watch {
        /// The name later `Status` queries use.
        name: String,
        /// The predicate to watch.
        predicate: Predicate,
    },
    /// Online + modal status of a watched predicate.
    Status {
        /// The name given at `Watch` time.
        name: String,
    },
    /// A slice of the report stream (the causal observation history), at
    /// most 1 024 reports per reply. To read the stream, send it again
    /// with `from += reports.len()` until `from` reaches the reply's
    /// `total`.
    TraceSlice {
        /// First report index.
        from: usize,
        /// Maximum number of reports to return (capped at 1 024).
        limit: usize,
    },
    /// The session's observability registry, snapshotted now: engine
    /// counters/gauges/timers plus its phase-scoped wall-clock telemetry
    /// view (per-shard busy / barrier-wait / …).
    Metrics,
    /// Write a snapshot (to the server's configured path).
    Snapshot,
    /// Stop the server.
    Shutdown,
}

/// A typed error category, stable across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request was structurally invalid (unparseable frame, bad
    /// argument).
    BadRequest,
    /// `Ingest` named a process outside `0..n`.
    UnknownProcess,
    /// `Ingest`/`Advance` time lies behind the watermark.
    TimeRegression,
    /// `Status` named a predicate never registered with `Watch`.
    UnknownPredicate,
    /// The server could not complete the request (e.g. snapshot I/O).
    Internal,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to `Ping`.
    Pong,
    /// The event was journalled and will be delivered at its time.
    Ingested {
        /// The ground-truth id assigned to the observation.
        world_event: u64,
    },
    /// The engine advanced.
    Advanced {
        /// The engine clock after stepping (≤ watermark past an end time).
        now: SimTime,
        /// The new watermark.
        watermark: SimTime,
        /// Reports newly received at the root during this step.
        new_reports: usize,
    },
    /// The causal frontier: the root's vector-clock knowledge.
    Frontier {
        /// The current watermark.
        watermark: SimTime,
        /// The root's merged vector clock (over n sensors + the root).
        vector: VectorStamp,
        /// Reports received at the root so far.
        reports: usize,
        /// Process events recorded so far (the session retires them; this
        /// counts them all).
        events: usize,
        /// Ingest events the engine boundary rejected.
        rejected: u64,
    },
    /// The predicate is now watched.
    Watching {
        /// Its name.
        name: String,
        /// Predicates watched in total.
        watched: usize,
    },
    /// Status of a watched predicate. Both verdicts come from the watch's
    /// one streaming detector, sealed once per request.
    ///
    /// Servers that ran a second, report-by-report detector beside the
    /// modal one answered `online` differently:
    ///
    /// - `online` now counts the held-back reports too, so it always
    ///   agrees with `modal`; with `late_reports == 0` it is the offline
    ///   sweep over every report received;
    /// - `buffered` and `late_reports` count only the reports the
    ///   predicate can use;
    /// - under Duplicate faults, ties between equal strobe keys follow the
    ///   streaming detector's heap order, not arrival order;
    /// - a conjunctive predicate gives the modal answer (`open_since` is
    ///   `None`).
    Status {
        /// The predicate's name.
        name: String,
        /// The on-line readout, restated from the modal answer:
        /// `holds == modal.holding_now`, `occurrences == modal.possibly −
        /// modal.holding_now`, `open_since` the open occurrence's start on a
        /// relational predicate, plus the hold-back's `buffered` and
        /// `late_reports`.
        online: OnlineStatus,
        /// Modal verdict counts over the observation so far (computed by
        /// the streaming modal detector — O(window), not a trace re-sweep).
        modal: ModalStatus,
        /// High-water mark of the streaming detector's live frontier
        /// (held-back reports + queued conjunct intervals) — the bounded-
        /// memory guarantee, per detector.
        mem_high_water_cuts: u64,
        /// Current width of the live frontier (held-back reports plus
        /// intervals the advancement still considers).
        frontier_width: usize,
    },
    /// A slice of the report stream.
    TraceSlice {
        /// Index of the first returned report.
        from: usize,
        /// Total reports available.
        total: usize,
        /// The reports as the root logged them: each sense report and its
        /// arrival time (the piggybacked send stamps are merged into the
        /// root's clocks on receipt, not kept).
        reports: Vec<ReceivedReport>,
    },
    /// Metrics + telemetry snapshot (reply to [`Request::Metrics`]).
    Metrics {
        /// The registry's deterministic section (engine + exec counters,
        /// gauges, timers), snapshotted at reply time.
        metrics: psn_sim::metrics::MetricsSnapshot,
        /// The registry's wall-clock section (per-shard
        /// busy / barrier-wait / exchange, coordinator drain, log
        /// histograms).
        telemetry: psn_sim::telemetry::TelemetrySnapshot,
    },
    /// A snapshot was written.
    Snapshot {
        /// Where it was written (`None` if the server has no snapshot
        /// path configured — the snapshot was not persisted).
        path: Option<String>,
        /// Serialized size in bytes.
        bytes: usize,
    },
    /// The server is stopping; this is the last frame on every connection.
    ShuttingDown,
    /// The request failed; the session is unchanged.
    Error {
        /// The error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::Ingest {
                at: SimTime::from_millis(1500),
                process: 2,
                key: AttrKey::new(2, 0),
                value: AttrValue::Int(7),
            },
            Request::Advance { to: SimTime::from_secs(10) },
            Request::Frontier,
            Request::Watch { name: "occ".into(), predicate: Predicate::occupancy_over(2, 3) },
            Request::Status { name: "occ".into() },
            Request::TraceSlice { from: 3, limit: 10 },
            Request::Metrics,
            Request::Snapshot,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for r in &reqs {
            let got: Request = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&got, r);
        }
        let done: Option<Request> = read_frame(&mut cursor).unwrap();
        assert!(done.is_none(), "clean EOF at the frame boundary");
    }

    #[test]
    fn status_response_roundtrips_with_memory_fields() {
        let resp = Response::Status {
            name: "occ".into(),
            online: OnlineStatus {
                holds: true,
                open_since: Some(SimTime::from_secs(2)),
                occurrences: 3,
                buffered: 1,
                late_reports: 0,
            },
            modal: ModalStatus { possibly: 3, definitely: 2, holding_now: true },
            mem_high_water_cuts: 17,
            frontier_width: 4,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().expect("frame present");
        assert_eq!(got, resp);
    }

    #[test]
    fn oversized_frames_are_rejected_without_reading_them() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.extend_from_slice(b"garbage");
        let err = read_frame::<Request>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
        assert!(!recoverable(&err), "the body was not consumed: stream is desynced");
    }

    #[test]
    fn bad_json_is_a_recoverable_typed_error() {
        let mut buf = Vec::new();
        let body = b"{not json";
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
        let err = read_frame::<Request>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::BadJson(_)));
        assert!(recoverable(&err), "the frame was fully consumed");
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let err = read_frame::<Request>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, WireError::Io(_)));
    }

    #[test]
    fn an_interrupted_first_read_is_retried_like_every_other_byte() {
        /// Fails the first `read` with `Interrupted`, then serves `rest`.
        struct Flaky<'a> {
            interrupted: bool,
            rest: &'a [u8],
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !std::mem::replace(&mut self.interrupted, true) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                self.rest.read(buf)
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        let mut r = Flaky { interrupted: false, rest: &buf };
        assert_eq!(read_frame::<Request>(&mut r).unwrap(), Some(Request::Ping));
        assert!(r.interrupted, "the signal really hit the prefix probe");
        assert_eq!(read_frame::<Request>(&mut r).unwrap(), None);
    }

    #[test]
    fn frame_buffered_wants_the_whole_frame_or_a_refusable_prefix() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &Request::Frontier).unwrap();
        for cut in 0..buf.len() {
            assert!(!frame_buffered(&buf[..cut]), "{cut} of {} bytes", buf.len());
        }
        assert!(frame_buffered(&buf));
        buf.extend_from_slice(&[7, 0]);
        assert!(frame_buffered(&buf), "bytes of the next frame do not matter");
        assert!(frame_buffered(&u32::MAX.to_le_bytes()), "read_frame refuses it without reading");
        assert!(frame_buffered(&0u32.to_le_bytes()), "an empty body is complete");
    }

    #[test]
    fn an_oversized_message_leaves_the_buffer_on_its_frame_boundary() {
        let mut out = Vec::new();
        encode_frame(&mut out, &Response::Pong).unwrap();
        let boundary = out.clone();
        let huge = Response::Error { code: ErrorCode::Internal, message: "x".repeat(MAX_FRAME) };
        let err = encode_frame(&mut out, &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&MAX_FRAME.to_string()), "{err}");
        assert_eq!(out, boundary);
        assert!(write_frame(&mut out, &huge).is_err());
        assert_eq!(out, boundary);
    }
}
