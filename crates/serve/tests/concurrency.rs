//! Many connections, one session: bursts from concurrent clients are applied
//! whole and one at a time, so the served session equals a serial replay of
//! what it acknowledged, and a `Shutdown` racing a burst leaves no frame
//! unanswered and no acknowledged event lost.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use psn_core::live::LoggedEvent;
use psn_core::NetMsg;
use psn_predicates::Predicate;
use psn_serve::wire::encode_frame;
use psn_serve::{
    read_frame, serve, write_frame, Request, Response, ServeConfig, ServeSession, ServerHandle,
    WireError,
};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

const CLIENTS: usize = 4;
const BURSTS: usize = 50;
const PER_BURST: usize = 4;

fn start(n: usize) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    serve(listener, ServeSession::new(ServeConfig::new(n))).expect("serve")
}

fn connect(h: &ServerHandle) -> TcpStream {
    let c = TcpStream::connect(h.addr()).expect("connect");
    c.set_nodelay(true).expect("nodelay");
    // A reply that never comes fails the test instead of hanging it.
    c.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    c
}

fn watch() -> Request {
    Request::Watch { name: "occ".into(), predicate: Predicate::occupancy_over(CLIENTS, 3) }
}

/// Event `k` of `process`: entries (attr 0) and exits (attr 1) alternate,
/// each counter rising by one every other event.
fn ingest(process: usize, k: usize) -> Request {
    Request::Ingest {
        at: SimTime::from_millis(10 * k as u64 + process as u64 + 1),
        process,
        key: AttrKey::new(process, k % 2),
        value: AttrValue::Int(k as i64 / 2 + 1),
    }
}

fn burst(reqs: impl IntoIterator<Item = Request>) -> Vec<u8> {
    let mut out = Vec::new();
    for req in reqs {
        encode_frame(&mut out, &req).expect("a request fits a frame");
    }
    out
}

fn world_event(e: &LoggedEvent) -> u64 {
    match e.msg {
        NetMsg::WorldSense { world_event, .. } => world_event as u64,
        ref msg => panic!("only sense events are ingested: {msg:?}"),
    }
}

/// The session's journal plus pending, in `world_event` order.
fn acknowledged(s: &ServeSession) -> Vec<LoggedEvent> {
    let snap = s.snapshot();
    let mut events: Vec<LoggedEvent> = snap.live.events.into_iter().chain(snap.pending).collect();
    events.sort_by_key(world_event);
    events
}

/// The world-event ids one client saw acknowledged, in its send order.
fn pipelined_ingests(mut c: TcpStream, process: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for b in 0..BURSTS {
        let ks = b * PER_BURST..(b + 1) * PER_BURST;
        c.write_all(&burst(ks.map(|k| ingest(process, k)))).expect("send a burst");
        for _ in 0..PER_BURST {
            match read_frame::<Response>(&mut c).expect("read") {
                Some(Response::Ingested { world_event }) => ids.push(world_event),
                r => panic!("client {process}: {r:?}"),
            }
        }
    }
    ids
}

#[test]
fn concurrent_bursts_equal_a_serial_replay_of_what_was_acknowledged() {
    let h = start(CLIENTS);
    assert!(matches!(h.request(watch()), Some(Response::Watching { .. })));
    let reading = AtomicBool::new(true);
    let ids = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut q = connect(&h);
            let mut reads = 0usize;
            while reading.load(Ordering::Acquire) {
                let frames = [
                    Request::Frontier,
                    Request::Status { name: "occ".into() },
                    Request::TraceSlice { from: 0, limit: 16 },
                ];
                q.write_all(&burst(frames)).expect("send reads");
                let r = read_frame::<Response>(&mut q).expect("read");
                assert!(matches!(r, Some(Response::Frontier { .. })), "{r:?}");
                let r = read_frame::<Response>(&mut q).expect("read");
                assert!(matches!(r, Some(Response::Status { .. })), "{r:?}");
                let r = read_frame::<Response>(&mut q).expect("read");
                assert!(matches!(r, Some(Response::TraceSlice { .. })), "{r:?}");
                reads += 1;
            }
            reads
        });
        let writers: Vec<_> = (0..CLIENTS)
            .map(|p| {
                let c = connect(&h);
                scope.spawn(move || pipelined_ingests(c, p))
            })
            .collect();
        let ids: Vec<Vec<u64>> = writers.into_iter().map(|w| w.join().expect("writer")).collect();
        reading.store(false, Ordering::Release);
        assert!(reader.join().expect("reader") > 0, "the reader ran beside the writers");
        ids
    });
    for (p, ids) in ids.iter().enumerate() {
        assert_eq!(ids.len(), BURSTS * PER_BURST);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "client {p} ids not increasing: {ids:?}");
    }

    // Deliver about half: the journal and the pending tail both hold events.
    let mid = Request::Advance { to: SimTime::from_millis(10 * (BURSTS * PER_BURST / 2) as u64) };
    let advanced = h.request(mid.clone()).expect("running");
    let mut served = h.stop().expect("session");
    let events = acknowledged(&served);
    assert_eq!(events.len(), CLIENTS * BURSTS * PER_BURST);
    assert!(!served.snapshot().pending.is_empty() && !served.live().journal().is_empty());

    let mut replay = ServeSession::new(ServeConfig::new(CLIENTS));
    replay.handle(watch());
    for (i, e) in events.iter().enumerate() {
        let NetMsg::WorldSense { key, value, .. } = e.msg else { unreachable!() };
        let req = Request::Ingest { at: e.at, process: e.to, key, value };
        assert_eq!(replay.handle(req), Response::Ingested { world_event: i as u64 });
    }
    assert_eq!(replay.handle(mid), advanced);
    assert_eq!(replay.snapshot().to_json(), served.snapshot().to_json());
    let status = Request::Status { name: "occ".into() };
    assert_eq!(replay.handle(status.clone()), served.handle(status));
}

#[test]
fn a_shutdown_racing_a_burst_answers_every_frame_and_keeps_what_it_acknowledged() {
    const FRAMES: usize = 200;
    let h = start(2);
    let (mut a, mut b) = (connect(&h), connect(&h));
    let mut a_writer = a.try_clone().expect("clone");
    // B's Shutdown goes out once A's first frame is acknowledged, so it
    // lands while A's frames are still arriving.
    let go = Barrier::new(2);
    let acked = std::thread::scope(|scope| {
        scope.spawn(|| {
            go.wait();
            write_frame(&mut b, &Request::Shutdown).expect("send Shutdown");
            let r = read_frame::<Response>(&mut b).expect("read");
            assert_eq!(r, Some(Response::ShuttingDown));
        });
        scope.spawn(move || {
            // The server may close the connection mid-stream; every frame
            // that reached it is answered all the same.
            for k in (0..FRAMES).step_by(10) {
                if a_writer.write_all(&burst((k..k + 10).map(|k| ingest(0, k)))).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let mut acked = Vec::new();
        while acked.len() < FRAMES {
            match read_frame::<Response>(&mut a) {
                Ok(Some(Response::Ingested { world_event })) => {
                    acked.push(world_event);
                    if acked.len() == 1 {
                        go.wait();
                    }
                }
                Ok(Some(Response::ShuttingDown)) => {
                    match read_frame::<Response>(&mut a) {
                        Ok(None) => {}
                        Err(WireError::Io(e)) if e.kind() == ErrorKind::ConnectionReset => {}
                        r => panic!("ShuttingDown is followed by a close, not {r:?}"),
                    }
                    break;
                }
                r => panic!("after {} acks: {r:?}", acked.len()),
            }
        }
        acked
    });
    assert!(acked.windows(2).all(|w| w[0] < w[1]), "{acked:?}");
    assert_eq!(h.request(Request::Ping), None, "a stopped server applies nothing");
    let session = h.wait().expect("session");
    let kept: Vec<u64> = acknowledged(&session).iter().map(world_event).collect();
    assert_eq!(kept, acked, "exactly the acknowledged events are kept");
}
