//! The TCP server: connection fan-in to one session behind one lock.
//!
//! The [`ServeSession`] sits behind **one session lock**. Each accepted
//! connection gets a **reader thread** that decodes the frames its client
//! has already sent, applies them back to back as one burst under the lock,
//! releases it, and writes the replies back in one write; a lone frame is a
//! burst of one, so no reply waits for input. A burst is applied whole, so
//! bursts never interleave and every reply reflects a consistent engine
//! state. Malformed frames never reach the session: recoverable ones (bad
//! JSON in a well-delimited frame) get a typed [`Response::Error`] and the
//! connection continues; desynchronizing ones (oversized length prefix,
//! truncation) close that connection — the server itself always stays up.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::session::ServeSession;
use crate::wire::{self, ErrorCode, Request, Response};

/// The session, until [`ServerHandle::wait`] takes it once a `Shutdown`
/// has stopped it.
struct Served {
    session: Option<ServeSession>,
    stopped: bool,
}

/// The session lock every reader thread and the handle share; `stop` is
/// signalled when `stopped` is set or a panic poisons the lock.
struct Shared {
    served: Mutex<Served>,
    stop: Condvar,
}

impl Shared {
    /// Apply `reqs` back to back under the session lock, each reply to `out`.
    /// A `Shutdown` stops the session and is the last request applied.
    /// `false`, with nothing applied, once stopped (or the lock is poisoned).
    fn apply(&self, reqs: impl Iterator<Item = Request>, mut out: impl FnMut(Response)) -> bool {
        let mut served = match self.served.lock() {
            Ok(served) if !served.stopped => served,
            _ => return false,
        };
        for req in reqs {
            let stop = matches!(req, Request::Shutdown);
            out(served.session.as_mut().expect("taken only once stopped").handle(req));
            if stop {
                served.stopped = true;
                self.stop.notify_all();
                break;
            }
        }
        true
    }
}

/// A running server: address, in-process request path, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Apply a request in-process (same ordering guarantees as the wire:
    /// a burst of one under the session lock). `None` once the session has
    /// stopped.
    pub fn request(&self, req: Request) -> Option<Response> {
        let mut out = None;
        self.shared.apply([req].into_iter(), |r| out = Some(r));
        out
    }

    /// Block until a client's `Shutdown` request stops the session, then
    /// stop accepting and return the final session (`None` if a panic
    /// poisoned it).
    pub fn wait(self) -> Option<ServeSession> {
        (self.shared.served.lock().ok())
            .and_then(|served| self.shared.stop.wait_while(served, |s| !s.stopped).ok())
            .and_then(|mut served| served.session.take())
    }

    /// Stop the server and recover the session (e.g. to snapshot it).
    pub fn stop(self) -> Option<ServeSession> {
        let _ = self.request(Request::Shutdown);
        self.wait()
    }
}

impl Drop for ServerHandle {
    /// Stop accepting; connections already accepted keep their readers.
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Start serving `session` on `listener`. Returns immediately; the
/// returned handle owns the background threads.
pub fn serve(listener: TcpListener, session: ServeSession) -> std::io::Result<ServerHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        served: Mutex::new(Served { session: Some(session), stopped: false }),
        stop: Condvar::new(),
    });

    let (accept_flag, accept_shared) = (Arc::clone(&stopping), Arc::clone(&shared));
    let accept = std::thread::spawn(move || {
        while !accept_flag.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&accept_shared);
                    // Reader threads are detached: they exit when their
                    // client disconnects or the session stops.
                    std::thread::spawn(move || connection(stream, shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });

    Ok(ServerHandle { addr, shared, stopping, accept: Some(accept) })
}

/// The connection is to be closed, once what is queued has been written.
struct Close;

fn connection(stream: TcpStream, shared: Arc<Shared>) {
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
    let mut link = Link { shared, writer, burst: Vec::new(), replies: Vec::new(), out: Vec::new() };
    loop {
        // Blocks only with nothing decoded and nothing queued: whoever comes
        // back here with either has seen the next frame complete in `reader`.
        let step = match wire::read_frame::<Request>(&mut reader) {
            Ok(Some(req)) => {
                link.burst.push(req);
                Ok(())
            }
            Ok(None) => Err(Close), // clean client disconnect
            // The error takes its frame's place among the replies.
            Err(e) => link.dispatch().and_then(|()| {
                let error = Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                queue(&mut link.out, &error);
                wire::recoverable(&e).then_some(()).ok_or(Close)
            }),
        };
        // The burst is every frame that can be had without waiting.
        if step.is_ok() && wire::frame_buffered(reader.buffer()) {
            continue;
        }
        let step = step.and_then(|()| link.dispatch());
        if link.flush().is_err() || step.is_err() {
            break;
        }
    }
}

/// Queue one reply frame; one too large for a frame becomes a typed error.
fn queue(out: &mut Vec<u8>, resp: &Response) {
    if let Err(e) = wire::encode_frame(out, resp) {
        let resp = Response::Error { code: ErrorCode::Internal, message: e.to_string() };
        wire::encode_frame(out, &resp).expect("two sizes and a sentence fit");
    }
}

/// A connection's way to the session and back: decoded requests collect in
/// `burst` and are applied under one lock, their replies collect in
/// `replies` and are encoded into `out` after it, to leave in one write.
struct Link {
    shared: Arc<Shared>,
    writer: TcpStream,
    burst: Vec<Request>,
    replies: Vec<Response>,
    out: Vec<u8>,
}

impl Link {
    /// Apply the burst and queue its replies in order.
    fn dispatch(&mut self) -> Result<(), Close> {
        if self.burst.is_empty() {
            return Ok(());
        }
        let replies = &mut self.replies;
        if !self.shared.apply(self.burst.drain(..), |r| replies.push(r)) {
            replies.push(Response::ShuttingDown);
        }
        match replies.drain(..).inspect(|r| queue(&mut self.out, r)).last() {
            Some(Response::ShuttingDown) => Err(Close),
            _ => Ok(()),
        }
    }

    /// Write what is queued, in one go.
    fn flush(&mut self) -> Result<(), Close> {
        let sent = self.writer.write_all(&self.out);
        self.out.clear();
        sent.map_err(|_| Close)
    }
}

impl Drop for Link {
    /// A request that panicked under the lock has poisoned it by now: wake
    /// [`ServerHandle::wait`] to find the session stopped. (Only a reader
    /// can panic while `wait` blocks: `wait` consumes the handle.)
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.stop.notify_all();
        }
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
            // Push subscriptions are not requests: a read is one request, one reply.
            b"{\"SubscribeMetrics\":{\"interval_ms\":10,\"count\":1}}",
            b"{\"SubscribeTrace\":{\"from\":0,\"interval_ms\":10,\"count\":1}}",
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
}
