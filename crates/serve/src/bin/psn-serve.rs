//! The live detection service CLI.
//!
//! ```text
//! psn-serve [--port N] [--sensors N] [--delta-ms N] [--seed N]
//!           [--hold-back-ms N] [--snapshot PATH] [--restore PATH]
//!           [--metrics-listen PORT]
//! psn-serve --smoke [--metrics-listen PORT]
//! ```
//!
//! Serves the length-prefixed JSON wire protocol (see the `psn_serve`
//! crate docs) on `127.0.0.1`. `--port 0` (the default) binds an
//! ephemeral port and prints `listening on 127.0.0.1:PORT` so scripts can
//! scrape it. `--metrics-listen PORT` additionally serves a Prometheus
//! text `GET /metrics` endpoint on `127.0.0.1:PORT` (again, 0 binds an
//! ephemeral port, printed as `metrics on 127.0.0.1:PORT`). `--restore`
//! resumes from a snapshot written by an earlier `Snapshot` request;
//! `--smoke` runs a scripted ingest → detect → snapshot → kill → restore →
//! pipelined-round cycle against a real socket — including HTTP probes of
//! the metrics endpoint when `--metrics-listen` is given — and exits
//! nonzero on any mismatch (CI's serve-smoke and telemetry-smoke jobs).

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use psn_predicates::{ModalStatus, OnlineStatus};
use psn_serve::wire;
use psn_serve::{serve, Request, Response, ServeConfig, ServeSession, ServeSnapshot};
use psn_sim::delay::DelayModel;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::{AttrKey, AttrValue};

struct Options {
    port: u16,
    sensors: usize,
    delta_ms: u64,
    seed: u64,
    hold_back_ms: u64,
    snapshot: Option<PathBuf>,
    restore: Option<PathBuf>,
    smoke: bool,
    metrics_listen: Option<u16>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            port: 0,
            sensors: 4,
            delta_ms: 100,
            seed: 0,
            hold_back_ms: 200,
            snapshot: None,
            restore: None,
            smoke: false,
            metrics_listen: None,
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => o.port = value(a, &mut it)?.parse().map_err(|e| format!("--port: {e}"))?,
            "--sensors" => {
                o.sensors = value(a, &mut it)?.parse().map_err(|e| format!("--sensors: {e}"))?;
                if o.sensors == 0 {
                    return Err("--sensors must be at least 1".into());
                }
            }
            "--delta-ms" => {
                o.delta_ms = value(a, &mut it)?.parse().map_err(|e| format!("--delta-ms: {e}"))?
            }
            "--seed" => o.seed = value(a, &mut it)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--hold-back-ms" => {
                o.hold_back_ms =
                    value(a, &mut it)?.parse().map_err(|e| format!("--hold-back-ms: {e}"))?
            }
            "--snapshot" => o.snapshot = Some(PathBuf::from(value(a, &mut it)?)),
            "--restore" => o.restore = Some(PathBuf::from(value(a, &mut it)?)),
            "--smoke" => o.smoke = true,
            "--metrics-listen" => {
                o.metrics_listen =
                    Some(value(a, &mut it)?.parse().map_err(|e| format!("--metrics-listen: {e}"))?)
            }
            "--help" | "-h" => {
                println!(
                    "usage: psn-serve [--port N] [--sensors N] [--delta-ms N] [--seed N]\n\
                     \x20                [--hold-back-ms N] [--snapshot PATH] [--restore PATH]\n\
                     \x20                [--metrics-listen PORT]\n\
                     \x20      psn-serve --smoke [--metrics-listen PORT]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(o)
}

fn config(o: &Options) -> ServeConfig {
    let mut cfg = ServeConfig::new(o.sensors);
    cfg.exec.delay = DelayModel::delta(SimDuration::from_millis(o.delta_ms));
    cfg.exec.seed = o.seed;
    cfg.hold_back = SimDuration::from_millis(o.hold_back_ms);
    cfg.snapshot_path = o.snapshot.clone();
    cfg
}

/// Serve `session`'s registry as Prometheus text on `127.0.0.1:port`.
fn metrics_endpoint(session: &ServeSession, port: u16) -> Result<psn_serve::HttpHandle, String> {
    let (m, t) = (session.metrics_registry(), session.telemetry_registry());
    let l = TcpListener::bind(("127.0.0.1", port)).map_err(|e| format!("bind metrics: {e}"))?;
    Ok(psn_serve::serve_metrics(l, m, t))
}

fn run_server(o: &Options) -> Result<(), String> {
    let session = match &o.restore {
        Some(path) => {
            let snap = ServeSnapshot::load(path).map_err(|e| format!("--restore {path:?}: {e}"))?;
            let s = ServeSession::restore(snap, o.snapshot.clone())
                .map_err(|e| format!("--restore {path:?}: {e}"))?;
            eprintln!(
                "restored session: watermark {:?}, {} journalled events",
                s.live().watermark(),
                s.live().journal().len()
            );
            s
        }
        None => ServeSession::new(config(o)),
    };
    let listener = TcpListener::bind(("127.0.0.1", o.port)).map_err(|e| format!("bind: {e}"))?;
    let http = o.metrics_listen.map(|port| metrics_endpoint(&session, port)).transpose()?;
    if let Some(h) = &http {
        println!("metrics on {}", h.addr());
    }
    let handle = serve(listener, session).map_err(|e| format!("serve: {e}"))?;
    println!("listening on {}", handle.addr());
    handle.wait();
    if let Some(h) = http {
        h.stop();
    }
    Ok(())
}

// --- smoke mode -----------------------------------------------------------

fn reply(c: &mut TcpStream) -> Result<Response, String> {
    wire::read_frame::<Response>(c)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "server closed the connection".into())
}

fn roundtrip(c: &mut TcpStream, req: &Request) -> Result<Response, String> {
    wire::write_frame(c, req).map_err(|e| format!("write: {e}"))?;
    reply(c)
}

/// Sensor `p` observes its attribute `attr` = `v` at `ms`.
fn ingest(ms: u64, p: usize, attr: usize, v: i64) -> Request {
    let (at, key) = (SimTime::from_millis(ms), AttrKey::new(p, attr));
    Request::Ingest { at, process: p, key, value: AttrValue::Int(v) }
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        eprintln!("smoke: ok - {what}");
        Ok(())
    } else {
        Err(format!("smoke check failed: {what}"))
    }
}

/// A `Status` reply's on-line readout restates its modal answer, and no
/// report was applied late — the precondition for an exact modal answer.
fn check_readout(online: OnlineStatus, modal: ModalStatus) -> Result<(), String> {
    check(online.late_reports == 0, "no late reports")?;
    check(online.holds == modal.holding_now, "online holds = modal holding_now")?;
    check(
        online.occurrences == modal.possibly - usize::from(modal.holding_now),
        "online occurrences = modal possibly - holding_now",
    )
}

/// Two doors; entries on attr 0, exits on attr 1; occupancy_over(2, 3)
/// rises at the fourth entry and falls when exits catch up.
const SCRIPT: &[(u64, usize, usize, i64)] = &[
    (1, 0, 0, 1),
    (2, 1, 0, 1),
    (3, 0, 0, 2),
    (4, 1, 0, 2), // 4 inside: predicate rises
    (5, 0, 1, 2), // 2 inside: predicate falls
    (6, 1, 1, 2),
];

/// Send a raw request to the HTTP metrics endpoint and read the whole
/// response (status line + headers + body).
fn http_exchange(addr: std::net::SocketAddr, request: &[u8]) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut s = TcpStream::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    s.write_all(request).map_err(|e| format!("http write: {e}"))?;
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    s.read_to_string(&mut out).map_err(|e| format!("http read: {e}"))?;
    Ok(out)
}

/// Exercise the Prometheus endpoint while the serve session is live: a
/// valid scrape must return engine counters, and malformed requests must
/// cost only their own connection.
fn smoke_http(addr: std::net::SocketAddr) -> Result<(), String> {
    let resp = http_exchange(addr, b"GET /metrics HTTP/1.0\r\n\r\n")?;
    check(resp.starts_with("HTTP/1.0 200 OK"), "metrics endpoint answers 200")?;
    check(resp.contains("psn_engine_events"), "scrape exposes engine counters")?;
    check(resp.contains("psn_telemetry_phase_ns"), "scrape exposes telemetry phases")?;
    let resp = http_exchange(addr, b"\x01\x02 not even close to http\r\n\r\n")?;
    check(resp.starts_with("HTTP/1.0 400"), "malformed HTTP request answered 400")?;
    let resp = http_exchange(addr, b"GET /metrics HTTP/1.0\r\n\r\n")?;
    check(resp.starts_with("HTTP/1.0 200 OK"), "endpoint survives malformed request")?;
    Ok(())
}

fn smoke(metrics_listen: Option<u16>) -> Result<(), String> {
    let snap_path =
        std::env::temp_dir().join(format!("psn-serve-smoke-{}.json", std::process::id()));
    let mut o = Options { sensors: 2, snapshot: Some(snap_path.clone()), ..Default::default() };

    // Phase 1: serve, ingest the script over the wire, detect, snapshot.
    let session = ServeSession::new(config(&o));
    let http = metrics_listen.map(|port| metrics_endpoint(&session, port)).transpose()?;
    if let Some(h) = &http {
        eprintln!("smoke: metrics on {}", h.addr());
    }
    let h = serve(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?, session)
        .map_err(|e| format!("serve: {e}"))?;
    let addr = h.addr();
    eprintln!("smoke: phase 1 serving on {addr}");
    let mut c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = c.set_nodelay(true);

    check(roundtrip(&mut c, &Request::Ping)? == Response::Pong, "ping")?;
    let watch = Request::Watch {
        name: "occ".into(),
        predicate: psn_predicates::Predicate::occupancy_over(2, 3),
    };
    check(matches!(roundtrip(&mut c, &watch)?, Response::Watching { .. }), "watch registered")?;
    for &(sec, p, attr, v) in SCRIPT {
        let r = roundtrip(&mut c, &ingest(sec * 1000, p, attr, v))?;
        check(matches!(r, Response::Ingested { .. }), "event ingested")?;
    }
    let r = roundtrip(&mut c, &Request::Advance { to: SimTime::from_secs(30) })?;
    check(
        matches!(r, Response::Advanced { new_reports: 6, .. }),
        "advance delivered all six reports",
    )?;
    let r = roundtrip(&mut c, &Request::Status { name: "occ".into() })?;
    let Response::Status { online, modal, .. } = r else {
        return Err(format!("status: {r:?}"));
    };
    check(online.occurrences == 1, "online readout saw the occurrence")?;
    check(modal.possibly == 1 && modal.definitely == 1, "modal verdict Possibly=Definitely=1")?;
    check_readout(online, modal)?;
    let r = roundtrip(&mut c, &Request::Frontier)?;
    let Response::Frontier { vector: frontier_before, reports: reports_before, .. } = r else {
        return Err(format!("frontier: {r:?}"));
    };
    check(reports_before == 6, "frontier counts six reports")?;

    // With --metrics-listen, scrape the Prometheus endpoint while the
    // session is live and prove malformed HTTP can't take it down.
    if let Some(http) = &http {
        smoke_http(http.addr())?;
    }

    // Malformed input must yield a typed error, not kill anything.
    use std::io::Write as _;
    let garbage = b"}{ definitely not json";
    let mut frame = Vec::new();
    frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    frame.extend_from_slice(garbage);
    c.write_all(&frame).map_err(|e| format!("write garbage: {e}"))?;
    let r = reply(&mut c)?;
    check(matches!(r, Response::Error { .. }), "malformed frame answered with a typed error")?;
    check(roundtrip(&mut c, &Request::Ping)? == Response::Pong, "connection survives garbage")?;

    let r = roundtrip(&mut c, &Request::Snapshot)?;
    check(matches!(r, Response::Snapshot { path: Some(_), .. }), "snapshot written")?;
    check(
        roundtrip(&mut c, &Request::Shutdown)? == Response::ShuttingDown,
        "clean shutdown acknowledged",
    )?;
    drop(c);
    check(h.wait().is_some(), "phase 1 session recovered")?;
    if let Some(http) = http {
        http.stop();
    }

    // Phase 2: restore from the snapshot, verify nothing was lost, and
    // keep serving live.
    o.restore = Some(snap_path.clone());
    let snap = ServeSnapshot::load(&snap_path).map_err(|e| format!("load snapshot: {e}"))?;
    let session = ServeSession::restore(snap, None).map_err(|e| format!("restore: {e}"))?;
    let h = serve(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?, session)
        .map_err(|e| format!("serve: {e}"))?;
    eprintln!("smoke: phase 2 restored on {}", h.addr());
    let mut c = TcpStream::connect(h.addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = c.set_nodelay(true);

    let r = roundtrip(&mut c, &Request::Frontier)?;
    let Response::Frontier { vector, reports, .. } = r else {
        return Err(format!("frontier: {r:?}"));
    };
    check(reports == reports_before, "restored report count identical")?;
    check(vector == frontier_before, "restored causal frontier identical")?;
    let r = roundtrip(&mut c, &Request::Status { name: "occ".into() })?;
    let Response::Status { online: online2, modal: modal2, .. } = r else {
        return Err(format!("status: {r:?}"));
    };
    check(online2 == online, "restored online status identical")?;
    check(modal2 == modal, "restored modal status identical")?;
    check_readout(online2, modal2)?;

    // The restored server is live: new ingest past the watermark works.
    let r = roundtrip(&mut c, &ingest(40_000, 0, 0, 3))?;
    check(matches!(r, Response::Ingested { .. }), "restored server accepts new events")?;
    let r = roundtrip(&mut c, &Request::Advance { to: SimTime::from_secs(60) })?;
    check(
        matches!(r, Response::Advanced { new_reports: 1, .. }),
        "restored server keeps detecting",
    )?;

    // Phase 3: sustained ingest. The streaming modal detector must keep
    // its live frontier O(window): after thousands of reports its
    // high-water mark stays bounded by the hold-back window, not the
    // trace length.
    const SUSTAINED: u64 = 2000;
    let mut high_mid = 0u64;
    for i in 0..SUSTAINED {
        let at = SimTime::from_millis(61_000 + i * 100);
        let (p, attr) = ((i % 2) as usize, ((i / 2) % 2) as usize);
        let r = roundtrip(&mut c, &ingest(61_000 + i * 100, p, attr, (i % 7) as i64))?;
        if !matches!(r, Response::Ingested { .. }) {
            return Err(format!("sustained ingest event {i}: {r:?}"));
        }
        if (i + 1) % 500 == 0 {
            // Stay behind the next ingest time (at + 100 ms) so sustained
            // ingest and advancing interleave like a real live feed.
            let r = roundtrip(&mut c, &Request::Advance { to: at + SimDuration::from_millis(50) })?;
            if !matches!(r, Response::Advanced { .. }) {
                return Err(format!("sustained advance at event {i}: {r:?}"));
            }
            if i + 1 == SUSTAINED / 2 {
                let r = roundtrip(&mut c, &Request::Status { name: "occ".into() })?;
                let Response::Status { mem_high_water_cuts, .. } = r else {
                    return Err(format!("status: {r:?}"));
                };
                high_mid = mem_high_water_cuts;
            }
        }
    }
    let r = roundtrip(&mut c, &Request::Status { name: "occ".into() })?;
    let Response::Status { mem_high_water_cuts, frontier_width, .. } = r else {
        return Err(format!("status: {r:?}"));
    };
    eprintln!(
        "smoke: sustained ingest of {SUSTAINED} events: mem_high_water_cuts {high_mid} \
         at the midpoint, {mem_high_water_cuts} at the end (frontier width {frontier_width})"
    );
    check(mem_high_water_cuts > 0, "streaming detector really buffered reports")?;
    check(
        mem_high_water_cuts < SUSTAINED / 10,
        "mem_high_water_cuts bounded by the hold-back window, not the trace",
    )?;
    check(
        mem_high_water_cuts <= high_mid.max(1) * 2,
        "doubling the ingest did not double the high-water mark",
    )?;

    // One pipelined round in a single write, so CI drives the server's
    // burst path over a real socket, and the wire's one metrics read:
    // replies come back in request order.
    let t0 = 61_000 + SUSTAINED * 100;
    let mut round: Vec<Request> = (0..32).map(|i| ingest(t0 + i, (i % 2) as usize, 0, 1)).collect();
    round.push(Request::Advance { to: SimTime::from_millis(t0 + 1000) });
    round.push(Request::Metrics);
    round.push(Request::Status { name: "occ".into() });
    let mut bytes = Vec::new();
    for req in &round {
        wire::encode_frame(&mut bytes, req).map_err(|e| format!("encode: {e}"))?;
    }
    c.write_all(&bytes).map_err(|e| format!("write round: {e}"))?;
    let first_id = SCRIPT.len() as u64 + 1 + SUSTAINED;
    for i in 0..round.len() as u64 {
        let r = reply(&mut c)?;
        let ok = match &r {
            Response::Ingested { world_event } => i < 32 && *world_event == first_id + i,
            Response::Advanced { new_reports, .. } => i == 32 && *new_reports >= 32,
            Response::Metrics { metrics, .. } => {
                i == 33 && metrics.counter("engine.events_processed").is_some_and(|n| n > 0)
            }
            Response::Status { .. } => i == 34,
            _ => false,
        };
        if !ok {
            return Err(format!("pipelined round, reply {i}: {r:?}"));
        }
    }
    check(true, "pipelined round of 32 ingests + advance + metrics + status answered in order")?;

    check(roundtrip(&mut c, &Request::Shutdown)? == Response::ShuttingDown, "phase 2 shutdown")?;
    drop(c);
    h.wait();
    let _ = std::fs::remove_file(&snap_path);
    println!("smoke ok");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("psn-serve: {e}");
            std::process::exit(2);
        }
    };
    let result = if opts.smoke { smoke(opts.metrics_listen) } else { run_server(&opts) };
    if let Err(e) = result {
        eprintln!("psn-serve: {e}");
        std::process::exit(1);
    }
}
