//! The per-layer budget, taken from outside: every number here is the time of
//! calls into one layer's public functions, recorded as spans by this file.
//!
//! The serve round is decomposed by a substitution ladder over one request
//! stream (the `serve_burst` rounds): the frames through `wire` alone, the
//! same bytes over a socket pair with no server behind it, the requests
//! through `ServeSession::handle`, through `ServerHandle::request`, and over
//! TCP to the real server; `LiveExecution` and `StreamingModal` are run alone
//! for the engine's and the detector's part of the session. Each share is
//! measured on its own; what they do not add up to is reported as
//! `server.unattributed_share`, not hidden.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

use psn_clocks::{LogicalClock, StrobeScalarClock, StrobeVectorClock, VectorStamp};
use psn_core::{
    run_execution, run_execution_instrumented, world_events, ExecutionTrace, LiveExecution,
};
use psn_lattice::enumerate_lattice;
use psn_predicates::{detect_occurrences, modal_status, Discipline, StreamingModal};
use psn_serve::{
    read_frame, serve, serve_metrics, write_frame, Request, Response, ServeSession, ServeSnapshot,
};
use psn_sim::metrics::Metrics;
use psn_sim::provider::ChannelProvider;

use crate::host;
use crate::inputs::{self, Sizes};
use crate::metrics::{Measured, MetricMap};
use crate::serve_load::{self, Gateway, ServeInput, WATCH};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{self, Tally};

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// declares them. Each is present in every traced run.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("world.generate_ms", "ms"),
    ("world.events", "count"),
    ("lang.compile_us", "us"),
    ("clocks.scalar_tick_ns", "ns"),
    ("clocks.vector_merge_n8_ns", "ns"),
    ("clocks.vector_merge_n1025_ns", "ns"),
    ("sim.events_processed", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.seq_events_per_s", "1/s"),
    ("sim.sharded_speedup", "ratio"),
    ("core.run_execution_ms", "ms"),
    ("core.log_events", "count"),
    ("core.log_reports", "count"),
    ("core.log_bytes_per_event", "B"),
    ("core.live_advance_ns_per_event", "ns"),
    ("predicates.sweep_ns_per_report", "ns"),
    ("predicates.modal_ns_per_report", "ns"),
    ("predicates.stream_offer_ns", "ns"),
    ("predicates.stream_status_ns", "ns"),
    ("predicates.stream_mem_high_water_cuts", "count"),
    ("predicates.late_reports", "count"),
    ("predicates.occurrences", "count"),
    ("lattice.states", "count"),
    ("lattice.states_per_s", "1/s"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.bytes_per_event", "B"),
    ("session.ingest_ns", "ns"),
    ("session.advance_ns_per_event", "ns"),
    ("session.status_ns", "ns"),
    ("session.frontier_ns", "ns"),
    ("session.trace_slice_us", "us"),
    ("session.metrics_us", "us"),
    ("session.snapshot_ms", "ms"),
    ("session.snapshot_bytes", "B"),
    ("session.restore_ms", "ms"),
    ("server.hop_ns", "ns"),
    ("server.ping_rtt_us", "us"),
    ("server.wire_share", "ratio"),
    ("server.socket_share", "ratio"),
    ("server.channel_share", "ratio"),
    ("server.session_share", "ratio"),
    ("server.engine_share", "ratio"),
    ("server.detector_share", "ratio"),
    ("server.unattributed_share", "ratio"),
    ("http.scrape_us", "us"),
    ("loadgen.sched_lag_tail_us", "us"),
    ("loadgen.over_limit_ratio", "ratio"),
    ("loadgen.host_rtt_us", "us"),
    ("loadgen.trace_overhead_ratio", "ratio"),
    ("loadgen.pinned", "bool"),
];

/// Passes per timed probe; the median is reported.
const PASSES: usize = 3;

/// The four scenario programs the repo ships, compiled by `lang.compile_us`.
const PSN_SOURCES: [&str; 4] = [
    include_str!("../../scenarios/exhibition.psn"),
    include_str!("../../scenarios/habitat.psn"),
    include_str!("../../scenarios/hospital.psn"),
    include_str!("../../scenarios/office.psn"),
];

struct Out<'a> {
    metrics: MetricMap,
    spans: &'a mut Spans,
}

impl Out<'_> {
    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
            .1;
        self.metrics.insert(name.to_string(), Measured::plain(value, unit));
    }

    /// Median nanoseconds of [`PASSES`] runs of `f`, each inside a span.
    fn median_ns<R>(&mut self, span: &'static str, mut f: impl FnMut() -> R) -> (R, f64) {
        let mut ns = Vec::with_capacity(PASSES);
        let mut last = None;
        for _ in 0..PASSES {
            let (r, t) = self.spans.timed(span, |_| f());
            ns.push(t as f64);
            last = Some(r);
        }
        (last.expect("PASSES is at least one"), stats::median(&ns))
    }
}

fn core_probe(out: &mut Out, sizes: &Sizes, seed: u64) -> (inputs::Input, ExecutionTrace) {
    let input = inputs::replay(sizes.replay_events, seed);
    // First, on a heap nothing else has grown yet: what one recorded event
    // costs in resident memory.
    let before = host::rss_bytes();
    let trace =
        out.spans.time("core.run_execution", |_| run_execution(&input.scenario, &input.cfg));
    let grown = host::rss_bytes().zip(before).map_or(f64::NAN, |(after, before)| after - before);
    out.put("core.log_bytes_per_event", grown.max(0.0) / trace.log.events.len().max(1) as f64);
    out.put("core.log_events", trace.log.events.len() as f64);
    out.put("core.log_reports", trace.log.reports.len() as f64);
    let (_, ns) = out
        .median_ns("core.run_execution", || black_box(run_execution(&input.scenario, &input.cfg)));
    out.put("core.run_execution_ms", ns / 1e6);
    (input, trace)
}

fn world_and_lang_probe(out: &mut Out, sizes: &Sizes, seed: u64) {
    let (input, ns) =
        out.median_ns("world.generate", || inputs::serve_timeline(sizes.burst_events, seed));
    out.put("world.generate_ms", ns / 1e6);
    out.put("world.events", world_events(&input.scenario).len() as f64);
    let (_, ns) = out.median_ns("lang.compile", || {
        for src in PSN_SOURCES {
            black_box(psn_lang::compile(black_box(src)).expect("the repo's scenarios compile"));
        }
    });
    out.put("lang.compile_us", ns / 1e3);
}

fn clocks_probe(out: &mut Out, quick: bool) {
    let scale = if quick { 100 } else { 1 };
    let ticks = 5_000_000 / scale;
    let mut scalar = StrobeScalarClock::new(0);
    let (_, ns) = out.median_ns("clocks.on_local_event", || {
        for _ in 0..ticks {
            black_box(scalar.on_local_event());
        }
    });
    out.put("clocks.scalar_tick_ns", ns / ticks as f64);
    for (n, merges, name) in [
        (8usize, 1_000_000 / scale, "clocks.vector_merge_n8_ns"),
        (1025, 100_000 / scale, "clocks.vector_merge_n1025_ns"),
    ] {
        let mut clock = StrobeVectorClock::new(0, n);
        let stamp = VectorStamp::from(vec![7; n]);
        let (_, ns) = out.median_ns("clocks.on_strobe", || {
            for _ in 0..merges {
                clock.on_strobe(black_box(&stamp));
            }
        });
        out.put(name, ns / merges as f64);
    }
}

fn predicates_probe(out: &mut Out, input: &inputs::Input, trace: &ExecutionTrace) {
    let init = input.scenario.timeline.initial_state();
    let reports = trace.log.reports.len().max(1) as f64;
    let (found, ns) = out.median_ns("predicates.detect_occurrences", || {
        detect_occurrences(trace, &input.predicate, &init, Discipline::VectorStrobe)
    });
    out.put("predicates.sweep_ns_per_report", ns / reports);
    out.put("predicates.occurrences", found.len() as f64);
    let (_, ns) =
        out.median_ns("predicates.modal_status", || modal_status(trace, &input.predicate, &init));
    out.put("predicates.modal_ns_per_report", ns / reports);

    // The stream, offers and status probes timed apart.
    let mut offer_ns = Vec::new();
    let mut status_ns = Vec::new();
    let mut counts = (0usize, 0u64);
    for _ in 0..PASSES {
        let mut s = StreamingModal::new(&input.predicate, &init, trace.n, input.hold_back);
        let (mut offers, mut statuses, mut probes) = (0u64, 0u64, 0u64);
        for chunk in trace.log.reports.chunks(inputs::STATUS_EVERY) {
            let (_, t) = out.spans.timed("predicates.stream_offer", |_| {
                for r in chunk {
                    s.offer(black_box(r));
                }
            });
            offers += t;
            let (_, t) = out.spans.timed("predicates.stream_status", |_| black_box(s.status()));
            statuses += t;
            probes += 1;
        }
        counts = (s.late_reports(), s.mem_high_water_cuts());
        black_box(s.seal());
        offer_ns.push(offers as f64 / reports);
        status_ns.push(statuses as f64 / probes.max(1) as f64);
    }
    out.put("predicates.stream_offer_ns", stats::median(&offer_ns));
    out.put("predicates.stream_status_ns", stats::median(&status_ns));
    out.put("predicates.late_reports", counts.0 as f64);
    out.put("predicates.stream_mem_high_water_cuts", counts.1 as f64);
}

fn lattice_probe(out: &mut Out, quick: bool) {
    let grid = workload::grid_history();
    let rounds = if quick { 5 } else { 100 };
    let (states, ns) = out.median_ns("lattice.enumerate_lattice", || {
        (0..rounds).map(|_| enumerate_lattice(black_box(&grid), u64::MAX).states).sum::<u64>()
    });
    out.put("lattice.states", (states / rounds) as f64);
    out.put("lattice.states_per_s", states as f64 / (ns / 1e9));
}

/// The request stream of the ladder: every `serve_burst` round in wire order.
fn burst_stream(si: &ServeInput) -> Vec<Request> {
    serve_load::burst_rounds(si.ingests.len())
        .flat_map(|events| serve_load::round_requests(si, events))
        .collect()
}

fn watched_session(si: &ServeInput) -> ServeSession {
    let mut session = ServeSession::new(serve_load::serve_config(si));
    let watching = session.handle(serve_load::watch_request(si));
    assert!(matches!(watching, Response::Watching { .. }), "Watch refused: {watching:?}");
    session
}

/// Rung (b): the stream through `ServeSession::handle`, nothing else.
fn session_rung(si: &ServeInput, stream: &[Request]) -> (f64, Vec<Response>, ServeSession) {
    let mut session = watched_session(si);
    let owned = stream.to_vec();
    let mut replies = Vec::with_capacity(owned.len());
    let t0 = Instant::now();
    for req in owned {
        replies.push(session.handle(req));
    }
    (t0.elapsed().as_nanos() as f64, replies, session)
}

/// Rung (b) again with a span per request, and a dashboard read after every
/// sixteenth round, for the per-request-kind costs.
fn session_by_kind(out: &mut Out, si: &ServeInput, stream: &[Request]) {
    let mut session = watched_session(si);
    let (mut rounds, mut reads) = (0usize, 0usize);
    let mut tail_from = 0usize;
    for req in stream.iter().cloned() {
        let name = match req {
            Request::Ingest { .. } => "session.handle.ingest",
            Request::Advance { .. } => "session.handle.advance",
            _ => "session.handle.status",
        };
        let round_done = matches!(req, Request::Status { .. });
        black_box(out.spans.time(name, |_| session.handle(req)));
        rounds += usize::from(round_done);
        if round_done && rounds % 16 == 1 {
            reads += 1;
            black_box(
                out.spans.time("session.handle.frontier", |_| session.handle(Request::Frontier)),
            );
            let slice = out.spans.time("session.handle.trace_slice", |_| {
                session.handle(Request::TraceSlice { from: tail_from, limit: 64 })
            });
            if let Response::TraceSlice { total, .. } = slice {
                tail_from = total.saturating_sub(64);
            }
            black_box(
                out.spans.time("session.handle.metrics", |_| session.handle(Request::Metrics)),
            );
        }
    }
    assert!(reads > 0, "the stream is too short for a dashboard read");
    let totals = crate::spans::totals_by_name(out.spans.recorded());
    let mean_ns = |name: &str| {
        let t = totals.get(name).copied().unwrap_or_default();
        t.total_ns as f64 / t.count.max(1) as f64
    };
    out.put("session.ingest_ns", mean_ns("session.handle.ingest"));
    out.put(
        "session.advance_ns_per_event",
        totals.get("session.handle.advance").map_or(0, |t| t.total_ns) as f64
            / si.ingests.len().max(1) as f64,
    );
    out.put("session.status_ns", mean_ns("session.handle.status"));
    out.put("session.frontier_ns", mean_ns("session.handle.frontier"));
    out.put("session.trace_slice_us", mean_ns("session.handle.trace_slice") / 1e3);
    out.put("session.metrics_us", mean_ns("session.handle.metrics") / 1e3);
}

/// Rung (a): every frame of the stream through `wire` against memory.
/// Returns the total nanoseconds and the per-frame byte counts the socket
/// rung replays.
struct WireRung {
    total_ns: f64,
    encode_request_ns: f64,
    decode_request_ns: f64,
    encode_response_ns: f64,
    decode_response_ns: f64,
    request_bytes: Vec<u8>,
    response_bytes: Vec<u8>,
}

fn wire_rung(spans: &mut Spans, stream: &[Request], replies: &[Response]) -> WireRung {
    let mut request_bytes = Vec::new();
    let (_, enc_req) = spans.timed("wire.write_frame.requests", |_| {
        for r in stream {
            write_frame(&mut request_bytes, r).expect("encoding into memory cannot fail");
        }
    });
    let (_, dec_req) = spans.timed("wire.read_frame.requests", |_| {
        let mut cursor = &request_bytes[..];
        while let Some(r) = read_frame::<Request>(&mut cursor).expect("own frames decode") {
            black_box(r);
        }
    });
    let mut response_bytes = Vec::new();
    let (_, enc_resp) = spans.timed("wire.write_frame.responses", |_| {
        for r in replies {
            write_frame(&mut response_bytes, r).expect("encoding into memory cannot fail");
        }
    });
    let (_, dec_resp) = spans.timed("wire.read_frame.responses", |_| {
        let mut cursor = &response_bytes[..];
        while let Some(r) = read_frame::<Response>(&mut cursor).expect("own frames decode") {
            black_box(r);
        }
    });
    let frames = stream.len().max(1) as f64;
    WireRung {
        total_ns: (enc_req + dec_req + enc_resp + dec_resp) as f64,
        encode_request_ns: enc_req as f64 / frames,
        decode_request_ns: dec_req as f64 / frames,
        encode_response_ns: enc_resp as f64 / frames,
        decode_response_ns: dec_resp as f64 / frames,
        request_bytes,
        response_bytes,
    }
}

/// Byte length of each length-prefixed frame in `bytes`.
fn frame_lengths(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes")) as usize;
        out.push(4 + len);
        at += 4 + len;
    }
    out
}

/// The socket rung: the stream's bytes over a TCP pair with no server behind
/// it. A thread of this file reads each request frame and answers with the
/// recorded reply's bytes, one write per frame as the server does; the client
/// writes a round at once and reads its replies. No JSON is decoded and no
/// session runs, so this is sockets and thread wake-ups alone.
fn socket_rung(rounds: &[usize], wire: &WireRung) -> f64 {
    let request_lens = frame_lengths(&wire.request_bytes);
    let response_lens = frame_lengths(&wire.response_bytes);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("listener address");
    let responses = &wire.response_bytes;
    std::thread::scope(|scope| {
        let (req_lens, resp_lens) = (&request_lens, &response_lens);
        let echo = scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept the client");
            peer.set_nodelay(true).expect("nodelay");
            let mut reader = std::io::BufReader::new(peer.try_clone().expect("clone the socket"));
            let mut frame = Vec::new();
            let mut at = 0;
            for (req_len, resp_len) in req_lens.iter().zip(resp_lens) {
                frame.resize(*req_len, 0);
                reader.read_exact(&mut frame).expect("read a request frame");
                peer.write_all(&responses[at..at + resp_len]).expect("write a reply frame");
                at += resp_len;
            }
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_nodelay(true).expect("nodelay");
        let mut reader = std::io::BufReader::new(client.try_clone().expect("clone the socket"));
        let mut reply = Vec::new();
        let (mut frame, mut req_at) = (0usize, 0usize);
        let t0 = Instant::now();
        for &frames in rounds {
            let bytes: usize = request_lens[frame..frame + frames].iter().sum();
            client.write_all(&wire.request_bytes[req_at..req_at + bytes]).expect("write a round");
            req_at += bytes;
            for len in &response_lens[frame..frame + frames] {
                reply.resize(*len, 0);
                reader.read_exact(&mut reply).expect("read a reply frame");
            }
            frame += frames;
        }
        let ns = t0.elapsed().as_nanos() as f64;
        echo.join().expect("the echo thread does not panic");
        ns
    })
}

/// Rung (c): the stream through `ServerHandle::request` — the session plus
/// the command channel, no socket.
fn channel_rung(si: &ServeInput, stream: &[Request]) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let handle = serve(listener, watched_session(si)).expect("start the server");
    let owned = stream.to_vec();
    let t0 = Instant::now();
    for req in owned {
        black_box(handle.request(req).expect("the service thread is running"));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let _ = handle.stop();
    ns
}

/// The engine's part of rung (b): `LiveExecution` fed the same timeline
/// through a channel provider, advanced at the round cadence.
fn engine_rung(si: &ServeInput) -> f64 {
    let (tx, rx) = mpsc::channel();
    let mut live = LiveExecution::new(
        si.input.doors(),
        si.input.cfg.clone(),
        Box::new(ChannelProvider::new(rx)),
    );
    let events = world_events(&si.input.scenario);
    let t0 = Instant::now();
    for round in serve_load::burst_rounds(events.len()) {
        let to = events[round.end - 1].at;
        for e in &events[round] {
            tx.send(e.clone()).expect("the provider holds the receiver");
        }
        black_box(live.advance_to(to).expect("time only moves forward"));
    }
    t0.elapsed().as_nanos() as f64
}

/// The detector's part of rung (b): `StreamingModal` offered the reference
/// run's reports, with one `status()` per round.
fn detector_rung(si: &ServeInput, trace: &ExecutionTrace, rounds: usize) -> f64 {
    let init = si.input.scenario.timeline.initial_state();
    let mut s = StreamingModal::new(&si.input.predicate, &init, trace.n, si.input.hold_back);
    let per_round = trace.log.reports.len().div_ceil(rounds.max(1)).max(1);
    let t0 = Instant::now();
    for chunk in trace.log.reports.chunks(per_round) {
        for r in chunk {
            s.offer(black_box(r));
        }
        black_box(s.status());
    }
    t0.elapsed().as_nanos() as f64
}

fn serve_ladder(out: &mut Out, si: &ServeInput) {
    let stream = burst_stream(si);
    let rounds: Vec<usize> =
        serve_load::burst_rounds(si.ingests.len()).map(|events| events.len() + 2).collect();
    let trace = run_execution(&si.input.scenario, &si.input.cfg);

    // One pass to learn the replies, then the rungs, interleaved so that a
    // slow moment on the host lands on every rung alike.
    let (_, replies, session) = session_rung(si, &stream);
    snapshot_probe(out, session);
    let mut tally = Tally::default();
    let mut ns: [Vec<f64>; 7] = Default::default();
    let mut wire = None;
    for _ in 0..PASSES {
        let w = wire_rung(out.spans, &stream, &replies);
        ns[0].push(w.total_ns);
        ns[1].push(out.spans.timed("ladder.socket", |_| socket_rung(&rounds, &w)).0);
        ns[2].push(out.spans.timed("ladder.session", |_| session_rung(si, &stream).0).0);
        ns[3].push(out.spans.timed("ladder.channel", |_| channel_rung(si, &stream)).0);
        ns[4].push(out.spans.timed("ladder.engine", |_| engine_rung(si)).0);
        ns[5].push(
            out.spans.timed("ladder.detector", |_| detector_rung(si, &trace, rounds.len())).0,
        );
        ns[6].push(
            out.spans
                .timed("ladder.tcp", |sp| serve_load::burst_rep(si, sp, &mut tally).wall_s * 1e9)
                .0,
        );
        wire = Some(w);
    }
    assert_eq!(
        (tally.failed, tally.mismatches),
        (0, 0),
        "the ladder's TCP rung: {:?}",
        tally.findings
    );
    let w = wire.expect("PASSES is at least one");
    let [wire_ns, socket_ns, session_ns, channel_ns, engine_ns, detector_ns, tcp_ns] =
        ns.map(|v| stats::median(&v));

    out.put("wire.encode_request_ns", w.encode_request_ns);
    out.put("wire.decode_request_ns", w.decode_request_ns);
    out.put("wire.encode_response_ns", w.encode_response_ns);
    out.put("wire.decode_response_ns", w.decode_response_ns);
    out.put(
        "wire.bytes_per_event",
        (w.request_bytes.len() + w.response_bytes.len()) as f64 / si.ingests.len().max(1) as f64,
    );

    let shares = [
        ("server.wire_share", wire_ns),
        ("server.socket_share", socket_ns),
        ("server.channel_share", channel_ns - session_ns),
        ("server.session_share", session_ns - engine_ns - detector_ns),
        ("server.engine_share", engine_ns),
        ("server.detector_share", detector_ns),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        out.put(name, ns / tcp_ns);
        attributed += ns / tcp_ns;
    }
    out.put("server.unattributed_share", 1.0 - attributed);
    // The engine rung is also the live engine's own figure.
    out.put("core.live_advance_ns_per_event", engine_ns / si.ingests.len().max(1) as f64);

    session_by_kind(out, si, &stream);
}

/// Snapshot the end-of-run session, restore it, and check the restored
/// session answers `Status` as the original does.
fn snapshot_probe(out: &mut Out, mut session: ServeSession) {
    let want = session.handle(Request::Status { name: WATCH.into() });
    let (json, ns) = out.spans.timed("session.snapshot", |_| session.snapshot().to_json());
    out.put("session.snapshot_ms", ns as f64 / 1e6);
    out.put("session.snapshot_bytes", json.len() as f64);
    let (restored, ns) = out.spans.timed("session.restore", |_| {
        let snap = ServeSnapshot::from_json(&json).expect("own snapshot parses");
        ServeSession::restore(snap, None).expect("own snapshot restores")
    });
    out.put("session.restore_ms", ns as f64 / 1e6);
    let mut restored = restored;
    let got = restored.handle(Request::Status { name: WATCH.into() });
    assert_eq!(got, want, "a restored session answers Status as the original did");
}

/// `Ping` through the command channel alone and over TCP, on an idle
/// session, and a `GET /metrics` scrape beside it.
fn server_probe(out: &mut Out, si: &ServeInput, quick: bool) {
    let session = watched_session(si);
    let (m, t) = (session.metrics_registry(), session.telemetry_registry());
    let http = serve_metrics(TcpListener::bind("127.0.0.1:0").expect("bind http"), m, t);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let handle = serve(listener, session).expect("start the server");
    let pings = if quick { 500 } else { 10_000 };

    let (_, ns) = out.median_ns("server.request.ping", || {
        for _ in 0..pings {
            black_box(handle.request(Request::Ping));
        }
    });
    out.put("server.hop_ns", ns / pings as f64);

    let mut g = Gateway::connect(handle.addr()).expect("connect");
    let (_, ns) = out.median_ns("server.tcp.ping", || {
        for _ in 0..pings / 2 {
            assert!(matches!(g.roundtrip(&Request::Ping), Some(Response::Pong)));
        }
    });
    out.put("server.ping_rtt_us", ns / (pings / 2) as f64 / 1e3);

    let scrapes = if quick { 5 } else { 30 };
    let mut each = Vec::with_capacity(scrapes);
    for _ in 0..scrapes {
        let (_, ns) = out.spans.timed("http.scrape", |_| {
            let mut s = TcpStream::connect(http.addr()).expect("connect http");
            s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("http write");
            let mut body = String::new();
            s.read_to_string(&mut body).expect("http read");
            assert!(body.starts_with("HTTP/1.0 200 OK"), "scrape failed: {body}");
        });
        each.push(ns as f64 / 1e3);
    }
    out.put("http.scrape_us", stats::median(&each));
    drop(g);
    let _ = handle.stop();
    http.stop();
}

/// A short paced session: how late the generator runs and how many rounds
/// miss the latency limit, for the runs whose workload is not `serve_paced`.
fn loadgen_probe(out: &mut Out, sizes: &Sizes, seed: u64) {
    let mut tally = Tally::default();
    let si = serve_load::prepare(sizes.paced_events.min(6_000), seed, &mut tally);
    let rep = out.spans.time("loadgen.paced", |sp| serve_load::paced_rep(&si, sp, &mut tally));
    assert_eq!((tally.failed, tally.mismatches), (0, 0), "the paced probe: {:?}", tally.findings);
    let lag = stats::sorted(&rep.lag_us);
    out.put("loadgen.sched_lag_tail_us", stats::tail(&lag).0);
    out.put("loadgen.over_limit_ratio", serve_load::over_limit_ratio(&rep.latency_us));
    out.put("loadgen.host_rtt_us", stats::median(&rep.host_rtt_us));
}

/// Every probe that runs on one CPU: all layers but the sharded engine.
pub fn pinned_part(sizes: &Sizes, seed: u64, spans: &mut Spans) -> MetricMap {
    let quick = sizes.is_quick();
    let mut out = Out { metrics: MetricMap::new(), spans };
    let (input, trace) = core_probe(&mut out, sizes, seed);
    predicates_probe(&mut out, &input, &trace);
    drop((input, trace));
    world_and_lang_probe(&mut out, sizes, seed);
    clocks_probe(&mut out, quick);
    lattice_probe(&mut out, quick);
    let mut tally = Tally::default();
    let si = serve_load::prepare(sizes.paced_events, seed, &mut tally);
    assert_eq!(tally.mismatches, 0, "the ladder's reference: {:?}", tally.findings);
    serve_ladder(&mut out, &si);
    server_probe(&mut out, &si, quick);
    loadgen_probe(&mut out, sizes, seed);
    out.metrics
}

/// The sharded engine against the sequential one on the `batch_wide`
/// scenario; needs every core, so it runs unpinned.
pub fn wide_part(sizes: &Sizes, seed: u64, spans: &mut Spans) -> MetricMap {
    let mut out = Out { metrics: MetricMap::new(), spans };
    let seq = inputs::wide(sizes.wide_doors, sizes.wide_events, 1, seed);
    let sharded = inputs::wide(sizes.wide_doors, sizes.wide_events, inputs::WIDE_SHARDS, seed);
    let metrics = Metrics::new();
    black_box(run_execution_instrumented(&seq.scenario, &seq.cfg, &metrics));
    let events = metrics.snapshot().counter("engine.events_processed").unwrap_or(0) as f64;
    let (mut seq_ns, mut sharded_ns) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let run = |i: &inputs::Input| black_box(run_execution(&i.scenario, &i.cfg));
        seq_ns.push(out.spans.timed("sim.run_execution.shards1", |_| run(&seq)).1 as f64);
        sharded_ns.push(out.spans.timed("sim.run_execution.shards2", |_| run(&sharded)).1 as f64);
    }
    let (seq_ns, sharded_ns) = (stats::median(&seq_ns), stats::median(&sharded_ns));
    out.put("sim.events_processed", events);
    out.put("sim.ns_per_event", seq_ns / events.max(1.0));
    out.put("sim.seq_events_per_s", events / (seq_ns / 1e9));
    out.put("sim.sharded_speedup", seq_ns / sharded_ns);
    out.metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_lengths_follow_the_prefixes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Request::Ping).unwrap();
        let first = bytes.len();
        write_frame(&mut bytes, &Request::Frontier).unwrap();
        assert_eq!(frame_lengths(&bytes), vec![first, bytes.len() - first]);
    }

    /// The driver refuses a traced run that lacks any declared metric, so
    /// the probes must produce every name — checked here on tiny inputs.
    #[test]
    fn the_probes_produce_every_per_layer_metric_but_the_childs_own() {
        let tiny = Sizes {
            burst_events: 600,
            paced_events: 600,
            replay_events: 400,
            fanout_events: 400,
            wide_doors: 16,
            wide_events: 60,
        };
        let mut spans = Spans::new(true);
        let mut all = pinned_part(&tiny, 3, &mut spans);
        all.extend(wide_part(&tiny, 3, &mut spans));
        let from_the_child = ["loadgen.trace_overhead_ratio", "loadgen.pinned"];
        for (name, unit) in PER_LAYER {
            if from_the_child.contains(&name) {
                continue;
            }
            let m = all.get(name).unwrap_or_else(|| panic!("{name} was not measured"));
            assert_eq!(m.unit, unit);
            assert!(m.value.is_finite(), "{name} = {}", m.value);
        }
        let shares: f64 = all
            .iter()
            .filter(|(name, _)| name.starts_with("server.") && name.ends_with("_share"))
            .map(|(_, m)| m.value)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares and the unattributed rest sum to {shares}");
        assert!(!spans.recorded().is_empty());
    }
}
