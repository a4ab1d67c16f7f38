//! Pipelining is a contract: however a client's frames reach the server —
//! one round trip at a time, all in one write, or a byte per write — the
//! replies are the same and come back in request order. One directed test
//! per line of the ordering contract, then seeded scripts for the rest.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};

use psn_predicates::Predicate;
use psn_serve::wire::encode_frame;
use psn_serve::{
    read_frame, serve, write_frame, ErrorCode, Request, Response, ServeConfig, ServeSession,
    ServerHandle, MAX_FRAME,
};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

fn start(n: usize) -> (ServerHandle, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let h = serve(listener, ServeSession::new(ServeConfig::new(n))).expect("serve");
    let c = TcpStream::connect(h.addr()).expect("connect");
    c.set_nodelay(true).expect("nodelay");
    (h, c)
}

fn frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(&mut out, req).expect("a request fits a frame");
    out
}

fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn ingest(ms: u64, process: usize, value: i64) -> Request {
    Request::Ingest {
        at: SimTime::from_millis(ms),
        process,
        key: AttrKey::new(process, 0),
        value: AttrValue::Int(value),
    }
}

/// The next reply; `None` once the server has closed the connection.
fn reply(c: &mut TcpStream) -> Option<Response> {
    read_frame::<Response>(c).expect("a well-formed reply or a clean close")
}

fn is_bad_request(r: &Option<Response>) -> bool {
    matches!(r, Some(Response::Error { code: ErrorCode::BadRequest, .. }))
}

#[test]
fn a_malformed_frame_mid_burst_is_answered_in_its_place() {
    let (h, mut c) = start(2);
    let burst = [
        frame(&Request::Ping),
        raw_frame(b"{ nope"),
        frame(&ingest(1000, 0, 1)),
        raw_frame(b"\xff\xfe"),
        frame(&Request::Frontier),
    ]
    .concat();
    c.write_all(&burst).expect("send");
    assert_eq!(reply(&mut c), Some(Response::Pong));
    assert!(is_bad_request(&reply(&mut c)));
    assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: 0 }));
    assert!(is_bad_request(&reply(&mut c)));
    assert!(matches!(reply(&mut c), Some(Response::Frontier { .. })));
    h.stop();
}

#[test]
fn a_frame_of_a_million_open_brackets_is_a_bad_request_not_a_stack_overflow() {
    let (h, mut c) = start(2);
    for open in ["[", "{\"a\":"] {
        let body = open.repeat(MAX_FRAME / open.len());
        c.write_all(&raw_frame(body.as_bytes())).expect("send");
        assert!(is_bad_request(&reply(&mut c)));
    }
    c.write_all(&frame(&Request::Ping)).expect("send");
    assert_eq!(reply(&mut c), Some(Response::Pong));
    h.stop();
}

#[test]
fn an_oversized_prefix_mid_burst_closes_after_everything_before_it_is_answered() {
    let (h, mut c) = start(2);
    let mut burst = [frame(&Request::Ping), frame(&ingest(1000, 0, 1))].concat();
    burst.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    burst.extend_from_slice(&frame(&ingest(2000, 0, 2))); // swallowed by the desync
    c.write_all(&burst).expect("send");
    assert_eq!(reply(&mut c), Some(Response::Pong));
    assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: 0 }));
    assert!(is_bad_request(&reply(&mut c)));
    assert_eq!(reply(&mut c), None, "the desynchronised connection is closed");
    let session = h.stop().expect("session");
    assert_eq!(session.snapshot().pending.len(), 1, "nothing behind the bad prefix was applied");
}

#[test]
fn a_truncated_frame_gets_its_error_after_the_complete_ones_and_eof_answers_first() {
    let (h, mut c) = start(2);
    let status = frame(&Request::Status { name: "occ".into() });
    let burst = [frame(&Request::Ping), frame(&Request::Frontier), status[..7].to_vec()].concat();
    c.write_all(&burst).expect("send");
    c.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(reply(&mut c), Some(Response::Pong));
    assert!(matches!(reply(&mut c), Some(Response::Frontier { .. })));
    assert!(is_bad_request(&reply(&mut c)), "EOF inside a frame");
    assert_eq!(reply(&mut c), None);

    // EOF on a frame boundary: the complete frames are answered, then a
    // clean close with no error.
    let mut c = TcpStream::connect(h.addr()).expect("connect");
    c.write_all(&[frame(&Request::Ping), frame(&ingest(1000, 1, 1))].concat()).expect("send");
    c.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(reply(&mut c), Some(Response::Pong));
    assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: 0 }));
    assert_eq!(reply(&mut c), None);
    h.stop();
}

#[test]
fn shutdown_mid_burst_is_the_last_request_applied() {
    let (h, mut c) = start(2);
    let burst = [frame(&ingest(1000, 0, 1)), frame(&Request::Shutdown), frame(&ingest(2000, 1, 2))]
        .concat();
    c.write_all(&burst).expect("send");
    assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: 0 }));
    assert_eq!(reply(&mut c), Some(Response::ShuttingDown));
    assert_eq!(reply(&mut c), None, "ShuttingDown is the last frame");
    let session = h.wait().expect("session");
    assert_eq!(session.snapshot().pending.len(), 1, "the ingest behind Shutdown was dropped");
}

#[test]
fn replies_do_not_wait_for_the_rest_of_a_half_sent_frame() {
    let (h, mut c) = start(2);
    let frontier = frame(&Request::Frontier);
    let (head, tail) = frontier.split_at(6);
    c.write_all(&[frame(&Request::Ping), frame(&ingest(1000, 0, 1)), head.to_vec()].concat())
        .expect("send");
    // Both replies arrive while the third frame is still incomplete: were
    // they held back for it, these reads would never return.
    assert_eq!(reply(&mut c), Some(Response::Pong));
    assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: 0 }));
    c.write_all(tail).expect("send the rest");
    assert!(matches!(reply(&mut c), Some(Response::Frontier { .. })));
    h.stop();
}

#[test]
fn a_reply_too_large_for_a_frame_is_a_typed_error_and_the_connection_lives() {
    // 1024 reports, each stamped with a 401-entry vector: well over the cap.
    let (h, mut c) = start(400);
    let mut burst: Vec<u8> = (0..1024).flat_map(|i| frame(&ingest(1000 + i, 0, 1))).collect();
    burst.extend(frame(&Request::Advance { to: SimTime::from_secs(60) }));
    burst.extend(frame(&Request::TraceSlice { from: 0, limit: 1024 }));
    burst.extend(frame(&Request::Ping));
    std::thread::scope(|s| {
        let mut w = c.try_clone().expect("clone");
        s.spawn(move || w.write_all(&burst).expect("send"));
        for i in 0..1024 {
            assert_eq!(reply(&mut c), Some(Response::Ingested { world_event: i }));
        }
        assert!(matches!(reply(&mut c), Some(Response::Advanced { new_reports: 1024, .. })));
        let r = reply(&mut c);
        let Some(Response::Error { code: ErrorCode::Internal, message }) = &r else {
            panic!("{r:?}")
        };
        assert!(message.contains(&MAX_FRAME.to_string()), "names the cap: {message}");
        assert!(message.contains("bytes"), "names the reply's size: {message}");
        assert_eq!(reply(&mut c), Some(Response::Pong), "the reply behind it, same burst");
    });
    write_frame(&mut c, &Request::Ping).expect("send");
    assert_eq!(reply(&mut c), Some(Response::Pong), "the connection stayed open");
    h.stop();
}

// --- burst ≡ serial ≡ dribbled ----------------------------------------------

/// SplitMix64: the scripts need seeded variety, not quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A script of `len` frames over 3 sensors: mostly in-order ingests, with
/// advances, reads, session-level errors (unknown process, time regression,
/// unknown predicate) and frames that never decode (bad JSON, bad UTF-8).
fn script(seed: u64, len: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let mut now_ms = 1000u64;
    let watch = Request::Watch { name: "occ".into(), predicate: Predicate::occupancy_over(3, 2) };
    let mut frames = vec![frame(&watch)];
    while frames.len() < len {
        now_ms += rng.below(400);
        let p = rng.below(3) as usize;
        frames.push(match rng.below(16) {
            0..=6 => frame(&ingest(now_ms, p, rng.below(4) as i64)),
            7 => frame(&Request::Advance { to: SimTime::from_millis(now_ms) }),
            8 => frame(&Request::Status { name: "occ".into() }),
            9 => frame(&Request::Frontier),
            10 => frame(&Request::TraceSlice { from: rng.below(40) as usize, limit: 4 }),
            11 => frame(&Request::Ping),
            12 => frame(&ingest(now_ms, 3 + p, 1)),
            13 => frame(&ingest(now_ms / 2, p, 1)),
            14 => frame(&Request::Status { name: "nobody".into() }),
            _ => raw_frame(if rng.below(2) == 0 { b"{\"Ingest\":{\"at\":" } else { b"\xc3\x28" }),
        });
    }
    frames
}

/// How the script's bytes are put on the socket.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// One frame, then its reply, then the next.
    Serial,
    /// Everything in one `write_all`.
    Burst,
    /// One byte per write.
    Dribble,
}

fn replies(frames: &[Vec<u8>], how: Delivery) -> Vec<Response> {
    let (h, mut c) = start(3);
    let out = match how {
        Delivery::Serial => frames
            .iter()
            .map(|f| {
                c.write_all(f).expect("send");
                reply(&mut c).expect("a reply per frame")
            })
            .collect(),
        Delivery::Burst | Delivery::Dribble => std::thread::scope(|s| {
            let mut w = c.try_clone().expect("clone");
            let bytes = frames.concat();
            s.spawn(move || match how {
                Delivery::Dribble => bytes.iter().for_each(|b| w.write_all(&[*b]).expect("send")),
                _ => w.write_all(&bytes).expect("send"),
            });
            frames.iter().map(|_| reply(&mut c).expect("a reply per frame")).collect()
        }),
    };
    h.stop();
    out
}

#[test]
fn burst_serial_and_dribbled_delivery_get_the_same_replies() {
    // 400 frames are ~30 KB: several read buffers, so bursts end on frames
    // cut anywhere, prefix included.
    for seed in [1, 2, 3, 5, 8, 13] {
        let frames = script(seed, 400);
        let serial = replies(&frames, Delivery::Serial);
        assert_eq!(serial.len(), frames.len());
        let kinds = |f: fn(&Response) -> bool| serial.iter().filter(|r| f(r)).count();
        assert!(kinds(|r| matches!(r, Response::Ingested { .. })) > 100, "seed {seed}");
        assert!(kinds(|r| matches!(r, Response::Advanced { .. })) > 5, "seed {seed}");
        assert!(kinds(|r| matches!(r, Response::Error { .. })) > 40, "seed {seed}");
        for how in [Delivery::Burst, Delivery::Dribble] {
            let got = replies(&frames, how);
            for (i, (g, w)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(g, w, "seed {seed}, {how:?}, frame {i}");
            }
        }
    }
}

// --- hostile bytes ------------------------------------------------------------

#[test]
fn a_high_surrogate_before_a_non_low_escape_is_a_bad_request() {
    // `\uD800` then `A` panicked the reader thread of a debug build;
    // `\uD800` then `￿` decoded to U+123FF. Escapes assembled at run time.
    let (h, mut c) = start(2);
    for low in ["0041", "FFFF"] {
        let body =
            format!(r#"{{"Status":{{"name":"{}{}"}}}}"#, "\\uD800", format_args!("\\u{low}"));
        c.write_all(&[raw_frame(body.as_bytes()), frame(&Request::Ping)].concat()).expect("send");
        assert!(is_bad_request(&reply(&mut c)), "{body}");
        assert_eq!(reply(&mut c), Some(Response::Pong), "the reader lives on after {body}");
    }
    h.stop();
}

/// Flip, truncate, duplicate or insert (`\`, `"`, `[`, `{`, `\u`) bytes in
/// frame bodies, `count` times over the script; prefixes are rewritten, so
/// every frame stays well-delimited. A frame that happens to decode to a
/// request with wall-clock output or connection-level effects (metrics,
/// shutdown) is put back as it was.
fn mutate(frames: &[Vec<u8>], rng: &mut Rng, count: usize) -> Vec<Vec<u8>> {
    const INSERTS: [&[u8]; 5] = [b"\\", b"\"", b"[", b"{", b"\\u"];
    let mut bodies: Vec<Vec<u8>> = frames.iter().map(|f| f[4..].to_vec()).collect();
    for _ in 0..count {
        let body = &mut bodies[rng.below(frames.len() as u64) as usize];
        let at = rng.below(body.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 if at < body.len() => body[at] ^= 1 << rng.below(8),
            1 => body.truncate(at),
            2 => {
                let span = body[at..(at + 1 + rng.below(8) as usize).min(body.len())].to_vec();
                body.splice(at..at, span);
            }
            _ => {
                let insert = INSERTS[rng.below(INSERTS.len() as u64) as usize];
                body.splice(at..at, insert.iter().copied());
            }
        }
    }
    bodies
        .iter()
        .zip(frames)
        .map(|(body, clean)| {
            let mutated = raw_frame(body);
            match read_frame::<Request>(&mut &mutated[..]) {
                Ok(Some(Request::Metrics | Request::Shutdown)) => clean.clone(),
                _ => mutated,
            }
        })
        .collect()
}

/// Send `frames`, serially or in one write, and collect one reply per
/// frame; then send `last` and collect its reply. With `closes`, the
/// server must close the connection after that reply, and must not before
/// it. A fresh connection must still be answered.
fn replies_then(frames: &[Vec<u8>], last: &[u8], closes: bool, how: Delivery) -> Vec<Response> {
    let (h, mut c) = start(3);
    let mut out: Vec<Response> = match how {
        Delivery::Serial => frames
            .iter()
            .map(|f| {
                c.write_all(f).expect("send");
                reply(&mut c).expect("a reply per frame: no reader died")
            })
            .collect(),
        _ => {
            c.write_all(&frames.concat()).expect("send");
            frames
                .iter()
                .map(|_| reply(&mut c).expect("a reply per frame: no reader died"))
                .collect()
        }
    };
    c.write_all(last).expect("send");
    out.push(reply(&mut c).expect("the last frame is answered"));
    if closes {
        assert_eq!(reply(&mut c), None, "a desynchronised connection is closed");
    }
    let mut fresh = TcpStream::connect(h.addr()).expect("connect");
    write_frame(&mut fresh, &Request::Ping).expect("send");
    assert_eq!(reply(&mut fresh), Some(Response::Pong), "the server answers new connections");
    h.stop();
    out
}

#[test]
fn mutated_frames_are_answered_in_place_and_never_kill_a_reader() {
    for seed in [1, 2, 3, 5] {
        let clean = script(seed, 120);
        let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        for round in 0..4 {
            let frames = mutate(&clean, &mut rng, 80);
            // The last frame either keeps the stream in sync (a Ping) or
            // announces more than MAX_FRAME, which only a close can answer.
            let desync = rng.below(2) == 0;
            let last = if desync {
                (MAX_FRAME as u32 + 1).to_le_bytes().to_vec()
            } else {
                frame(&Request::Ping)
            };
            let serial = replies_then(&frames, &last, desync, Delivery::Serial);
            let burst = replies_then(&frames, &last, desync, Delivery::Burst);
            assert_eq!(serial, burst, "seed {seed}, round {round}");
            assert_eq!(serial.len(), frames.len() + 1, "seed {seed}, round {round}");
            for (i, (f, r)) in frames.iter().zip(&serial).enumerate() {
                match read_frame::<Request>(&mut &f[..]) {
                    Err(e) => {
                        assert!(psn_serve::wire::recoverable(&e), "frame {i}: {e}");
                        let want =
                            Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                        assert_eq!(r, &want, "seed {seed}, round {round}, frame {i}");
                    }
                    Ok(_) => assert!(!is_bad_request(&Some(r.clone())), "frame {i}: {r:?}"),
                }
            }
            let refused =
                frames.iter().filter(|f| read_frame::<Request>(&mut &f[..]).is_err()).count();
            assert!((12..108).contains(&refused), "both kinds of frame: {refused} of 120 refused");
            let tail = serial.last().cloned();
            if desync {
                assert!(is_bad_request(&tail), "seed {seed}, round {round}: {tail:?}");
            } else {
                assert_eq!(tail, Some(Response::Pong), "seed {seed}, round {round}");
            }
        }
    }
}
