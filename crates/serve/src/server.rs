//! The TCP server: connection fan-in to a single-threaded session.
//!
//! One **service thread** owns the [`ServeSession`] and applies requests
//! strictly in arrival order off an internal command channel — the session
//! needs no locks and every reply reflects a consistent engine state. Each
//! accepted connection gets a **reader thread** that decodes the frames its
//! client has already sent, forwards them as one `(requests, reply-sender)`
//! burst, and writes the replies back in one write; a lone frame is a burst
//! of one, so no reply waits for input. Malformed frames never reach the
//! session: recoverable ones (bad JSON in a well-delimited frame) get a typed
//! [`Response::Error`] and the connection continues; desynchronizing ones
//! (oversized length prefix, truncation) close that connection — the
//! server itself always stays up.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::session::ServeSession;
use crate::wire::{self, ErrorCode, Request, Response};

type Command = (Vec<Request>, Sender<Vec<Response>>);

/// Have the service thread apply `burst` back to back. `None` once it has
/// stopped: the reply channel lives for one call, so a command the stopping
/// service drops unanswered disconnects it instead of parking the caller.
fn call(cmd: &Sender<Command>, burst: Vec<Request>) -> Option<Vec<Response>> {
    let (tx, rx) = mpsc::channel();
    cmd.send((burst, tx)).ok()?;
    rx.recv().ok()
}

/// Server-side clamps for subscription streams: a push period below
/// [`MIN_PUSH_INTERVAL_MS`] would let one connection monopolise the
/// command channel, and an unbounded count would pin the reader thread
/// forever.
pub const MIN_PUSH_INTERVAL_MS: u64 = 10;
/// Maximum push frames one subscription may request.
pub const MAX_PUSH_COUNT: u32 = 10_000;

/// Apply the server's subscription clamps to a requested
/// `(interval_ms, count)` pair.
pub fn clamp_subscription(interval_ms: u64, count: u32) -> (u64, u32) {
    (interval_ms.max(MIN_PUSH_INTERVAL_MS), count.min(MAX_PUSH_COUNT))
}

/// A running server: address, in-process request path, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    cmd: Sender<Command>,
    stopping: Arc<AtomicBool>,
    service: Option<JoinHandle<ServeSession>>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Apply a request in-process (same ordering guarantees as the wire:
    /// it queues behind whatever connections have sent). `None` once the
    /// service thread has stopped.
    pub fn request(&self, req: Request) -> Option<Response> {
        call(&self.cmd, vec![req])?.pop()
    }

    /// Block until a client's `Shutdown` request stops the service, then
    /// reap the threads and return the final session.
    pub fn wait(mut self) -> Option<ServeSession> {
        let session = self.service.take().and_then(|h| h.join().ok());
        self.stopping.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        session
    }

    /// Stop the server and recover the session (e.g. to snapshot it).
    pub fn stop(self) -> Option<ServeSession> {
        let _ = self.request(Request::Shutdown);
        self.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
    }
}

/// Start serving `session` on `listener`. Returns immediately; the
/// returned handle owns the background threads.
pub fn serve(listener: TcpListener, session: ServeSession) -> std::io::Result<ServerHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();

    let service_flag = Arc::clone(&stopping);
    let service = std::thread::spawn(move || {
        let mut session = session;
        while let Ok((burst, reply)) = cmd_rx.recv() {
            // `Shutdown` is the last request applied: whatever the burst
            // holds behind it is dropped, as on every other connection.
            let stop = burst.iter().position(|r| matches!(r, Request::Shutdown));
            let upto = stop.map_or(burst.len(), |at| at + 1);
            let _ = reply.send(burst.into_iter().take(upto).map(|r| session.handle(r)).collect());
            if stop.is_some() {
                service_flag.store(true, Ordering::Release);
                break;
            }
        }
        session
    });

    let accept_flag = Arc::clone(&stopping);
    let accept_tx = cmd_tx.clone();
    let accept = std::thread::spawn(move || {
        while !accept_flag.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = accept_tx.clone();
                    // Reader threads are detached: they exit when their
                    // client disconnects or the service stops answering.
                    std::thread::spawn(move || connection(stream, tx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });

    Ok(ServerHandle { addr, cmd: cmd_tx, stopping, service: Some(service), accept: Some(accept) })
}

/// The connection is to be closed, once what is queued has been written.
struct Close;

fn connection(stream: TcpStream, tx: Sender<Command>) {
    // The listener is nonblocking; the per-connection protocol loop wants
    // blocking reads.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Replies are small and the client waits on them: holding one back
    // for an ACK (Nagle) only adds latency.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut link = Link { tx, writer, burst: Vec::new(), out: Vec::new() };
    loop {
        // Blocks only with nothing decoded and nothing queued: whoever comes
        // back here with either has seen the next frame complete in `reader`.
        let step = match wire::read_frame::<Request>(&mut reader) {
            Ok(Some(Request::SubscribeMetrics { interval_ms, count })) => {
                link.subscription(None, interval_ms, count)
            }
            Ok(Some(Request::SubscribeTrace { from, interval_ms, count })) => {
                link.subscription(Some(from), interval_ms, count)
            }
            Ok(Some(req)) => {
                link.burst.push(req);
                Ok(())
            }
            Ok(None) => Err(Close), // clean client disconnect
            // The error takes its frame's place among the replies.
            Err(e) => link.dispatch().and_then(|_| {
                link.push(&Response::Error { code: ErrorCode::BadRequest, message: e.to_string() });
                wire::recoverable(&e).then_some(()).ok_or(Close)
            }),
        };
        // The burst is every frame that can be had without waiting.
        if step.is_ok() && wire::frame_buffered(reader.buffer()) {
            continue;
        }
        let step = step.and_then(|()| link.dispatch().map(drop));
        if link.flush().is_err() || step.is_err() {
            break;
        }
    }
}

/// A connection's way to the session and back: decoded requests collect in
/// `burst` and go to the service thread in one command, the replies collect
/// in `out` and leave in one write.
struct Link {
    tx: Sender<Command>,
    writer: TcpStream,
    burst: Vec<Request>,
    out: Vec<u8>,
}

impl Link {
    /// Queue one reply; one too large for a frame becomes a typed error.
    fn push(&mut self, resp: &Response) {
        if let Err(e) = wire::encode_frame(&mut self.out, resp) {
            let resp = Response::Error { code: ErrorCode::Internal, message: e.to_string() };
            wire::encode_frame(&mut self.out, &resp).expect("two sizes and a sentence fit");
        }
    }

    /// Hand the burst over, queue its replies in order, return the last.
    fn dispatch(&mut self) -> Result<Option<Response>, Close> {
        if self.burst.is_empty() {
            return Ok(None);
        }
        let mut replies = call(&self.tx, std::mem::take(&mut self.burst))
            .unwrap_or_else(|| vec![Response::ShuttingDown]);
        replies.iter().for_each(|r| self.push(r));
        match replies.pop() {
            Some(Response::ShuttingDown) => Err(Close),
            last => Ok(last),
        }
    }

    /// Write what is queued, in one go.
    fn flush(&mut self) -> Result<(), Close> {
        let sent = self.writer.write_all(&self.out);
        self.out.clear();
        sent.map_err(|_| Close)
    }

    /// Run one subscription stream, served by this reader so the session
    /// stays single-threaded and every pushed snapshot is consistent:
    /// answer the frames ahead of it, ack with [`Response::Subscribed`],
    /// then push `count` frames at `interval_ms` cadence, each an ordinary
    /// request through the command channel — `TraceSlice` from `cursor`,
    /// or `Metrics` without one.
    fn subscription(
        &mut self,
        mut cursor: Option<usize>,
        interval_ms: u64,
        count: u32,
    ) -> Result<(), Close> {
        self.dispatch()?;
        let (interval_ms, count) = clamp_subscription(interval_ms, count);
        let stream = if cursor.is_some() { "trace" } else { "metrics" }.into();
        self.push(&Response::Subscribed { stream, count, interval_ms });
        for _ in 0..count {
            self.flush()?;
            std::thread::sleep(Duration::from_millis(interval_ms));
            self.burst.push(match cursor {
                Some(from) => Request::TraceSlice { from, limit: crate::MAX_SLICE },
                None => Request::Metrics,
            });
            // The cursor advances by however many reports each push
            // returned, so frames never repeat a report.
            if let Some(Response::TraceSlice { from, reports, .. }) = self.dispatch()? {
                cursor = Some(from + reports.len());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ServeConfig;
    use psn_sim::time::SimTime;
    use psn_world::{AttrKey, AttrValue};
    use std::io::Write;

    fn start() -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        serve(listener, ServeSession::new(ServeConfig::new(2))).expect("serve")
    }

    fn connect(h: &ServerHandle) -> TcpStream {
        TcpStream::connect(h.addr()).expect("connect")
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        wire::write_frame(stream, req).expect("write");
        wire::read_frame::<Response>(stream).expect("read").expect("response")
    }

    #[test]
    fn a_full_session_over_the_wire() {
        let h = start();
        let mut c = connect(&h);
        assert_eq!(roundtrip(&mut c, &Request::Ping), Response::Pong);
        for (i, (p, attr, v)) in
            [(0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 1, 2)].into_iter().enumerate()
        {
            let r = roundtrip(
                &mut c,
                &Request::Ingest {
                    at: SimTime::from_secs(i as u64 + 1),
                    process: p,
                    key: AttrKey::new(p, attr),
                    value: AttrValue::Int(v),
                },
            );
            assert!(matches!(r, Response::Ingested { .. }), "{r:?}");
        }
        let r = roundtrip(
            &mut c,
            &Request::Watch { name: "occ".into(), predicate: Predicate::occupancy_over(2, 3) },
        );
        assert!(matches!(r, Response::Watching { .. }));
        let r = roundtrip(&mut c, &Request::Advance { to: SimTime::from_secs(20) });
        assert!(
            matches!(r, Response::Advanced { new_reports: 4, .. }),
            "all four reports in: {r:?}"
        );
        let r = roundtrip(&mut c, &Request::Status { name: "occ".into() });
        let Response::Status { online, modal, .. } = r else { panic!("{r:?}") };
        assert_eq!(online.occurrences, 1, "4 in at t=2s, down to 2 at t=3s");
        assert_eq!(modal.possibly, 1);
        let r = roundtrip(&mut c, &Request::Frontier);
        let Response::Frontier { reports, vector, .. } = r else { panic!("{r:?}") };
        assert_eq!(reports, 4);
        assert!(vector[0] >= 1 && vector[1] >= 1);
        let r = roundtrip(&mut c, &Request::Shutdown);
        assert_eq!(r, Response::ShuttingDown);
        assert!(h.stop().is_some());
    }

    use psn_predicates::Predicate;

    #[test]
    fn malformed_frames_get_typed_errors_and_the_server_survives() {
        let h = start();

        // Fuzz a range of malformed bodies over one connection: every one
        // is answered with a typed error, none kills the server.
        let mut c = connect(&h);
        for garbage in [
            &b"{"[..],
            b"{]",
            b"nonsense",
            b"123e",
            b"{\"Ping\":null,",
            b"\xff\xfe\x00\x80", // not UTF-8
            b"{\"NoSuchRequest\":{}}",
            b"[\"almost\", \"a\", \"request\"]",
            b"{\"Ingest\":{\"at\":\"not a time\"}}",
        ] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
            frame.extend_from_slice(garbage);
            c.write_all(&frame).expect("send garbage");
            let r = wire::read_frame::<Response>(&mut c).expect("read").expect("reply");
            assert!(
                matches!(r, Response::Error { code: ErrorCode::BadRequest, .. }),
                "garbage {garbage:?} => {r:?}"
            );
        }
        // The same connection still serves well-formed requests.
        assert_eq!(roundtrip(&mut c, &Request::Ping), Response::Pong);

        // A desynchronizing frame (oversized length) closes only that
        // connection.
        let mut evil = connect(&h);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(b"doom");
        evil.write_all(&frame).expect("send oversized");
        let r = wire::read_frame::<Response>(&mut evil).expect("read").expect("reply");
        assert!(matches!(r, Response::Error { code: ErrorCode::BadRequest, .. }), "{r:?}");
        let eof = wire::read_frame::<Response>(&mut evil).expect("read");
        assert!(eof.is_none(), "desynced connection is closed");

        // Fresh connections still work; the session was never touched.
        let mut c2 = connect(&h);
        assert_eq!(roundtrip(&mut c2, &Request::Ping), Response::Pong);
        let Some(Response::Frontier { reports, rejected, .. }) = h.request(Request::Frontier)
        else {
            panic!()
        };
        assert_eq!((reports, rejected), (0, 0));
        h.stop();
    }

    #[test]
    fn concurrent_clients_interleave_safely() {
        let h = start();
        let addr = h.addr();
        let ingester = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            for i in 0..50u64 {
                let r = roundtrip(
                    &mut c,
                    &Request::Ingest {
                        at: SimTime::from_millis(1000 + i * 10),
                        process: (i % 2) as usize,
                        key: AttrKey::new((i % 2) as usize, 0),
                        value: AttrValue::Int(i as i64),
                    },
                );
                assert!(matches!(r, Response::Ingested { .. }));
            }
        });
        let querier = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            for _ in 0..50 {
                let r = roundtrip(&mut c, &Request::Frontier);
                assert!(matches!(r, Response::Frontier { .. }));
            }
        });
        ingester.join().expect("ingester");
        querier.join().expect("querier");
        let Some(Response::Advanced { new_reports, .. }) =
            h.request(Request::Advance { to: SimTime::from_secs(60) })
        else {
            panic!()
        };
        assert_eq!(new_reports, 50, "every concurrent ingest landed");
        h.stop();
    }

    #[test]
    fn subscribe_metrics_pushes_the_requested_frames() {
        let h = start();
        let mut c = connect(&h);
        // Ask for 3 frames at the fastest cadence; the 1ms interval must
        // come back clamped to the server minimum.
        wire::write_frame(&mut c, &Request::SubscribeMetrics { interval_ms: 1, count: 3 })
            .expect("write");
        let ack = wire::read_frame::<Response>(&mut c).expect("read").expect("ack");
        assert_eq!(
            ack,
            Response::Subscribed {
                stream: "metrics".into(),
                count: 3,
                interval_ms: MIN_PUSH_INTERVAL_MS
            }
        );
        for _ in 0..3 {
            let frame = wire::read_frame::<Response>(&mut c).expect("read").expect("frame");
            assert!(matches!(frame, Response::Metrics { .. }), "{frame:?}");
        }
        // The connection is back in request/response mode afterwards.
        assert_eq!(roundtrip(&mut c, &Request::Ping), Response::Pong);
        h.stop();
    }

    #[test]
    fn subscribe_trace_advances_its_cursor_across_frames() {
        let h = start();
        let mut c = connect(&h);
        for i in 0..4u64 {
            let r = roundtrip(
                &mut c,
                &Request::Ingest {
                    at: SimTime::from_secs(i + 1),
                    process: (i % 2) as usize,
                    key: AttrKey::new((i % 2) as usize, 0),
                    value: AttrValue::Int(i as i64),
                },
            );
            assert!(matches!(r, Response::Ingested { .. }));
        }
        let r = roundtrip(&mut c, &Request::Advance { to: SimTime::from_secs(30) });
        assert!(matches!(r, Response::Advanced { new_reports: 4, .. }), "{r:?}");
        wire::write_frame(&mut c, &Request::SubscribeTrace { from: 0, interval_ms: 1, count: 2 })
            .expect("write");
        let ack = wire::read_frame::<Response>(&mut c).expect("read").expect("ack");
        assert!(matches!(ack, Response::Subscribed { .. }), "{ack:?}");
        let first = wire::read_frame::<Response>(&mut c).expect("read").expect("frame");
        let Response::TraceSlice { from: 0, reports, .. } = &first else { panic!("{first:?}") };
        assert_eq!(reports.len(), 4, "first push delivers everything so far");
        let second = wire::read_frame::<Response>(&mut c).expect("read").expect("frame");
        let Response::TraceSlice { from: 4, reports, .. } = &second else { panic!("{second:?}") };
        assert!(reports.is_empty(), "cursor moved past the consumed reports");
        h.stop();
    }
}
