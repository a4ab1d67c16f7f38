//! Prometheus-text HTTP exposition for a live serve session.
//!
//! A deliberately tiny, dependency-free HTTP/1.0 listener that answers
//! `GET /metrics` with the [Prometheus text exposition format] rendered
//! from the session's [`Metrics`] registry: its metrics and its
//! [`Telemetry`] phase view. The registry is `Arc`-shared with the engine,
//! so the listener snapshots it directly — it never takes the session
//! lock and therefore cannot delay ingest or queries.
//!
//! The parser is defensive by construction: it reads at most
//! `MAX_HEAD` bytes of request head under a short read timeout, answers
//! anything it cannot parse with `400 Bad Request`, and closes the
//! connection after every response (`Connection: close`). A malformed or
//! hostile request can only ever cost its own connection; the accept loop
//! and the serve session are untouched.
//!
//! [Prometheus text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use psn_sim::metrics::{Metrics, MetricsSnapshot};
use psn_sim::telemetry::{Telemetry, TelemetrySnapshot};

/// Upper bound on the request head we will buffer before giving up.
const MAX_HEAD: usize = 8 * 1024;

/// Per-connection socket read timeout — a client that connects and goes
/// silent only ties up its own handler thread for this long.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Handle to a running metrics HTTP listener.
pub struct HttpHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpHandle {
    /// Local address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join it. In-flight connection handlers
    /// finish on their own (they are bounded by `READ_TIMEOUT`).
    pub fn stop(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Serve `GET /metrics` from `listener` until the handle is stopped.
///
/// Each accepted connection is handled on a detached thread; handler
/// errors (bad requests, write failures) never propagate to the accept
/// loop.
pub fn serve_metrics(listener: TcpListener, metrics: Metrics, telemetry: Telemetry) -> HttpHandle {
    let addr = listener.local_addr().expect("listener has a local addr");
    listener.set_nonblocking(true).expect("set_nonblocking");
    let stopping = Arc::new(AtomicBool::new(false));
    let stop = stopping.clone();
    let accept = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let (m, t) = (metrics.clone(), telemetry.clone());
                std::thread::spawn(move || handle_connection(stream, &m, &t));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    });
    HttpHandle { addr, stopping, accept: Some(accept) }
}

/// Read one request head and write one response; always closes after.
fn handle_connection(mut stream: TcpStream, metrics: &Metrics, telemetry: &Telemetry) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let (status, content_type, body) = match read_request_path(&mut stream) {
        Ok(path) if path == "/metrics" => {
            let text = prometheus_text(&metrics.snapshot(), &telemetry.snapshot());
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", text)
        }
        Ok(path) => {
            ("404 Not Found", "text/plain; charset=utf-8", format!("no such path: {path}\n"))
        }
        Err(msg) => ("400 Bad Request", "text/plain; charset=utf-8", format!("{msg}\n")),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Read up to the end of the request head and return the GET path.
///
/// Errors are descriptive strings destined for the 400 body.
fn read_request_path(stream: &mut TcpStream) -> Result<String, String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() >= MAX_HEAD {
            return Err("request head too large".into());
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // client closed; parse what we have
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    let first_line =
        head.split(|&b| b == b'\n').next().ok_or_else(|| "empty request".to_string())?;
    let first_line =
        std::str::from_utf8(first_line).map_err(|_| "request line is not utf-8".to_string())?;
    let mut parts = first_line.split_whitespace();
    let method = parts.next().ok_or_else(|| "empty request".to_string())?;
    let path = parts.next().ok_or_else(|| "missing request path".to_string())?;
    if method != "GET" {
        return Err(format!("unsupported method: {method}"));
    }
    Ok(path.to_string())
}

/// Mangle a dotted metric name into a Prometheus-safe identifier with the
/// `psn_` namespace prefix (`engine.op_barriers` → `psn_engine_op_barriers`).
pub(crate) fn prom_name(name: &str) -> String {
    let mangled: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    format!("psn_{mangled}")
}

/// Render both registries in the Prometheus text exposition format.
///
/// Counters and gauges map directly; timers surface count/mean/max and
/// the tracked quantiles as labelled samples. Telemetry phase totals are
/// exposed per shard (plus a `shard="coordinator"` series) so a scrape
/// sees the same attribution `psn-profile` reports from a JSONL dump.
pub(crate) fn prometheus_text(metrics: &MetricsSnapshot, telemetry: &TelemetrySnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in &metrics.counters {
        let name = prom_name(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &metrics.gauges {
        let name = prom_name(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
        let _ = writeln!(out, "# TYPE {name}_high gauge");
        let _ = writeln!(out, "{name}_high {}", g.high);
    }
    for t in &metrics.timers {
        let name = prom_name(&t.name);
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}_count {}", t.count);
        let _ = writeln!(out, "{name}_mean {}", t.mean);
        let _ = writeln!(out, "{name}_max {}", t.max);
        for (q, v) in [("0.5", t.p50), ("0.9", t.p90), ("0.99", t.p99)] {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
        }
    }
    let _ = writeln!(out, "# TYPE psn_telemetry_enabled gauge");
    let _ = writeln!(out, "psn_telemetry_enabled {}", u8::from(telemetry.enabled));
    let _ = writeln!(out, "# TYPE psn_telemetry_runs counter");
    let _ = writeln!(out, "psn_telemetry_runs {}", telemetry.runs);
    let _ = writeln!(out, "# TYPE psn_telemetry_run_wall_ns counter");
    let _ = writeln!(out, "psn_telemetry_run_wall_ns {}", telemetry.run_wall_ns);
    let _ = writeln!(out, "# TYPE psn_telemetry_phase_ns counter");
    let _ = writeln!(out, "# TYPE psn_telemetry_phase_spans counter");
    let mut phase_lines = String::new();
    let mut span_lines = String::new();
    let mut series = |shard: &str, phases: &[psn_sim::telemetry::PhaseSample]| {
        for p in phases {
            if p.count == 0 {
                continue;
            }
            let _ = writeln!(
                phase_lines,
                "psn_telemetry_phase_ns{{shard=\"{shard}\",phase=\"{}\"}} {}",
                p.phase, p.ns
            );
            let _ = writeln!(
                span_lines,
                "psn_telemetry_phase_spans{{shard=\"{shard}\",phase=\"{}\"}} {}",
                p.phase, p.count
            );
        }
    };
    for s in &telemetry.shards {
        series(&s.shard.to_string(), &s.phases);
    }
    series("coordinator", &telemetry.coordinator);
    out.push_str(&phase_lines);
    out.push_str(&span_lines);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::telemetry::Phase;

    fn scrape(addr: SocketAddr, request: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(request).expect("write request");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    fn listener() -> (HttpHandle, SocketAddr) {
        let metrics = Metrics::new();
        metrics.counter("engine.events").add(42);
        metrics.gauge("serve.ingest_occupancy").set(3);
        let telemetry = metrics.telemetry();
        telemetry.shard(0).record_ns(Phase::Busy, 1_000);
        telemetry.coordinator().record_ns(Phase::CoordinatorDrain, 250);
        telemetry.record_run_wall(1_500);
        let tcp = TcpListener::bind("127.0.0.1:0").expect("bind");
        let handle = serve_metrics(tcp, metrics, telemetry);
        let addr = handle.addr();
        (handle, addr)
    }

    #[test]
    fn scrape_returns_prometheus_text() {
        let (handle, addr) = listener();
        let resp = scrape(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "got: {resp}");
        assert!(resp.contains("psn_engine_events 42"));
        assert!(resp.contains("psn_serve_ingest_occupancy 3"));
        assert!(resp.contains("psn_telemetry_phase_ns{shard=\"0\",phase=\"busy\"} 1000"));
        assert!(resp.contains(
            "psn_telemetry_phase_ns{shard=\"coordinator\",phase=\"coordinator_drain\"} 250"
        ));
        assert!(resp.contains("psn_telemetry_run_wall_ns 1500"));
        handle.stop();
    }

    #[test]
    fn every_metric_family_is_typed_once_across_watches() {
        use crate::{Request, ServeConfig, ServeSession};
        let mut session = ServeSession::new(ServeConfig::new(2));
        for name in ["a.b", "a_c"] {
            let predicate = psn_predicates::Predicate::occupancy_over(2, 3);
            session.handle(Request::Watch { name: name.into(), predicate });
        }
        let tcp = TcpListener::bind("127.0.0.1:0").expect("bind");
        let handle = serve_metrics(tcp, session.metrics_registry(), session.telemetry_registry());
        let resp = scrape(handle.addr(), b"GET /metrics HTTP/1.0\r\n\r\n");
        let types: Vec<&str> = resp.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let unique: std::collections::BTreeSet<&str> = types.iter().copied().collect();
        assert_eq!(types.len(), unique.len(), "a family typed twice: {resp}");
        assert!(resp.contains("psn_detector_a_b_frontier_width 0"), "{resp}");
        assert!(resp.contains("psn_detector_a_c_frontier_width 0"), "{resp}");
        handle.stop();
    }

    #[test]
    fn unknown_path_is_404_and_bad_requests_are_400() {
        let (handle, addr) = listener();
        let resp = scrape(addr, b"GET /nope HTTP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 404"), "got: {resp}");
        let resp = scrape(addr, b"POST /metrics HTTP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 400"), "got: {resp}");
        let resp = scrape(addr, b"\x00\xff garbage\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 400"), "got: {resp}");
        // The listener survived all of the above.
        let resp = scrape(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "got: {resp}");
        handle.stop();
    }

    #[test]
    fn oversized_request_head_is_rejected() {
        let (handle, addr) = listener();
        let mut req = Vec::from(&b"GET /metrics HTTP/1.0\r\n"[..]);
        req.extend(std::iter::repeat_n(b'a', MAX_HEAD + 1024));
        // The server may 400-and-close mid-upload, so the write can hit a
        // broken pipe — that's fine, read whatever response made it out.
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(&req);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.is_empty() || resp.starts_with("HTTP/1.0 400"), "got: {resp}");
        let resp = scrape(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "got: {resp}");
        handle.stop();
    }
}
