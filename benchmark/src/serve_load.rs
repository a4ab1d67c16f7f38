//! The two serve workloads: a gateway client driving an in-process
//! `psn_serve::serve()` over 127.0.0.1, closed loop (`serve_burst`) and open
//! loop with a dashboard reader beside it (`serve_paced`).

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use psn_core::{run_execution, world_events, NetMsg};
use psn_predicates::{modal_status, modal_status_streaming, ModalStatus};
use psn_serve::{
    read_frame, serve, write_frame, Request, Response, ServeConfig, ServeSession, ServerHandle,
};
use psn_sim::time::{SimDuration, SimTime};

use crate::inputs::{self, Input};
use crate::spans::Spans;
use crate::workload::{Rep, Tally};

/// The name the gateway registers its predicate under.
pub const WATCH: &str = "occ";

/// Everything a serve repetition needs, built once per set-up.
pub struct ServeInput {
    pub input: Input,
    /// The timeline as `Ingest` requests, in time order.
    pub ingests: Vec<Request>,
    /// Delivery time of each ingest.
    pub at: Vec<SimTime>,
    /// Watermark that flushes every report to the root.
    pub flush_to: SimTime,
    /// Verdict and report count of the batch run on the same scenario and
    /// config; the served session must end on exactly these.
    pub want_modal: ModalStatus,
    pub want_reports: usize,
}

/// Generate the timeline and the batch reference verdicts. A disagreement
/// between `modal_status` and `modal_status_streaming` counts as a mismatch.
pub fn prepare(events: usize, seed: u64, tally: &mut Tally) -> ServeInput {
    let input = inputs::serve_timeline(events, seed);
    let mut ingests = Vec::new();
    let mut at = Vec::new();
    for e in world_events(&input.scenario) {
        if let NetMsg::WorldSense { key, value, .. } = e.msg {
            ingests.push(Request::Ingest { at: e.at, process: e.to, key, value });
            at.push(e.at);
        }
    }
    let trace = run_execution(&input.scenario, &input.cfg);
    let init = input.scenario.timeline.initial_state();
    let want_modal = modal_status(&trace, &input.predicate, &init);
    let streamed = modal_status_streaming(&trace, &input.predicate, &init);
    tally.verdict("modal_status vs modal_status_streaming", want_modal == streamed);
    tally.count("world.events", ingests.len() as u64);
    tally.count("core.log_reports", trace.log.reports.len() as u64);
    tally.count("modal.possibly", want_modal.possibly as u64);
    tally.count("modal.definitely", want_modal.definitely as u64);
    ServeInput {
        flush_to: input.scenario.timeline.duration() + SimDuration::from_secs(60),
        want_reports: trace.log.reports.len(),
        input,
        ingests,
        at,
        want_modal,
    }
}

/// A fresh server with the predicate watched, and one gateway connection.
pub struct Session {
    pub handle: ServerHandle,
    pub gateway: Gateway,
}

/// One client connection speaking the wire protocol.
pub struct Gateway {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Gateway {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Gateway> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Gateway { reader, writer, out: Vec::with_capacity(8 * 1024) })
    }

    /// Queue one request frame for the next [`send`](Self::send).
    pub fn queue(&mut self, req: &Request) {
        write_frame(&mut self.out, req).expect("encoding into memory cannot fail");
    }

    /// Write every queued frame in one go.
    pub fn send(&mut self) -> std::io::Result<()> {
        self.writer.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Read one reply; a closed connection or an undecodable frame is `None`.
    pub fn reply(&mut self) -> Option<Response> {
        read_frame::<Response>(&mut self.reader).ok().flatten()
    }

    pub fn roundtrip(&mut self, req: &Request) -> Option<Response> {
        self.queue(req);
        self.send().ok()?;
        self.reply()
    }
}

/// The session configuration of the serve workloads: the server's defaults,
/// told the scenario's door count and deployment-time state.
pub fn serve_config(si: &ServeInput) -> ServeConfig {
    let mut cfg = ServeConfig::new(si.input.doors());
    cfg.exec = si.input.cfg.clone();
    cfg.hold_back = si.input.hold_back;
    cfg.initial = si.input.scenario.timeline.initial_state();
    cfg
}

pub fn watch_request(si: &ServeInput) -> Request {
    Request::Watch { name: WATCH.into(), predicate: si.input.predicate.clone() }
}

/// The event ranges of the `serve_burst` rounds over `n` events.
pub fn burst_rounds(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n).step_by(inputs::BURST_ROUND).map(move |from| from..(from + inputs::BURST_ROUND).min(n))
}

/// The requests of one round, in wire order.
pub fn round_requests(si: &ServeInput, events: std::ops::Range<usize>) -> Vec<Request> {
    let to = si.at[events.end - 1];
    let mut out = si.ingests[events].to_vec();
    out.push(Request::Advance { to });
    out.push(Request::Status { name: WATCH.into() });
    out
}

pub fn start_session(si: &ServeInput) -> Session {
    let cfg = serve_config(si);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let handle = serve(listener, ServeSession::new(cfg)).expect("start the server");
    let mut gateway = Gateway::connect(handle.addr()).expect("connect the gateway");
    let watching = gateway.roundtrip(&watch_request(si));
    assert!(matches!(watching, Some(Response::Watching { .. })), "Watch refused: {watching:?}");
    Session { handle, gateway }
}

/// Flush the session, compare its final verdict and report count with the
/// batch reference, and shut the server down.
pub fn finish_session(mut s: Session, si: &ServeInput, tally: &mut Tally) {
    let g = &mut s.gateway;
    let advanced = g.roundtrip(&Request::Advance { to: si.flush_to });
    tally.op(matches!(advanced, Some(Response::Advanced { .. })));
    let status = g.roundtrip(&Request::Status { name: WATCH.into() });
    match status {
        Some(Response::Status { modal, online, .. }) => {
            tally.op(true);
            tally.verdict("served Status.modal vs modal_status", modal == si.want_modal);
            tally.verdict("served late_reports == 0", online.late_reports == 0);
        }
        _ => tally.op(false),
    }
    let frontier = g.roundtrip(&Request::Frontier);
    match frontier {
        Some(Response::Frontier { reports, rejected, .. }) => {
            tally.op(true);
            tally.verdict(
                "served report count vs batch",
                reports == si.want_reports && rejected == 0,
            );
        }
        _ => tally.op(false),
    }
    tally.op(matches!(g.roundtrip(&Request::Shutdown), Some(Response::ShuttingDown)));
    let _ = s.handle.wait();
}

/// One round: `events` pipelined `Ingest`s, `Advance` to the last one's time,
/// `Status`; every reply read and checked. Returns the nanoseconds from the
/// first byte written to the `Status` reply fully read.
fn round(
    g: &mut Gateway,
    si: &ServeInput,
    events: std::ops::Range<usize>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> u64 {
    let to = si.at[events.end - 1];
    // The same frames, in the same order, as `round_requests` lists.
    spans.time("wire.encode_requests", |_| {
        for req in &si.ingests[events.clone()] {
            g.queue(req);
        }
        g.queue(&Request::Advance { to });
        g.queue(&Request::Status { name: WATCH.into() });
    });
    let t0 = Instant::now();
    let sent = spans.time("socket.write", |_| g.send().is_ok());
    spans.time("server.replies", |_| {
        for i in events.clone() {
            let ok = sent
                && matches!(g.reply(), Some(Response::Ingested { world_event }) if world_event == i as u64);
            tally.op(ok);
        }
        let ok = sent
            && matches!(g.reply(), Some(Response::Advanced { watermark, .. }) if watermark == to);
        tally.op(ok);
        let ok = sent && matches!(g.reply(), Some(Response::Status { ref name, .. }) if name == WATCH);
        tally.op(ok);
    });
    t0.elapsed().as_nanos() as u64
}

/// `serve_burst`: the whole timeline as back-to-back rounds of
/// [`inputs::BURST_ROUND`] events on a fresh session.
pub fn burst_rep(si: &ServeInput, spans: &mut Spans, tally: &mut Tally) -> Rep {
    let mut s = spans.time("session.start", |_| start_session(si));
    let n = si.ingests.len();
    let mut latency_us = Vec::with_capacity(n / inputs::BURST_ROUND + 1);
    let t0 = Instant::now();
    for events in burst_rounds(n) {
        let ns = spans.time("round", |sp| round(&mut s.gateway, si, events, sp, tally));
        latency_us.push(ns as f64 / 1e3);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    spans.time("session.finish", |_| finish_session(s, si, tally));
    Rep { wall_s, latency_us, ..Default::default() }
}

/// How an open-loop generator passes the time until the next operation is
/// due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// `thread::sleep`. Exact enough while another thread keeps the CPU
    /// busy; on an idle CPU of a virtual machine the wake-up itself takes
    /// 40–300 µs, more than a whole round of the server.
    Sleep,
    /// Yield the CPU in a loop until the time has come: the CPU never goes
    /// idle, the server's threads run as soon as they have work, and the
    /// generator sends within a microsecond or two of the due time.
    Yield,
}

/// An open-loop schedule: operation `i` is due at `i × period` after the
/// loop starts, whether or not earlier operations have finished. Latency is
/// timed from the due time, so a stall is charged to every operation it
/// delays, and `lag` records how late the generator itself ran.
#[derive(Debug)]
pub struct OpenLoop {
    period_ns: u64,
    wait: Wait,
    pub lag_ns: Vec<u64>,
    pub latency_ns: Vec<u64>,
}

impl OpenLoop {
    pub fn at_rate(per_second: u64, wait: Wait) -> OpenLoop {
        OpenLoop {
            period_ns: 1_000_000_000 / per_second,
            wait,
            lag_ns: Vec::new(),
            latency_ns: Vec::new(),
        }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// How long to sleep before sending operation `i` when the loop's clock
    /// reads `now_ns`; zero when the generator is already late.
    pub fn wait_ns(&self, i: u64, now_ns: u64) -> u64 {
        self.due_ns(i).saturating_sub(now_ns)
    }

    /// Operation `i` was sent at `sent_ns` and its reply read at `done_ns`.
    pub fn record(&mut self, i: u64, sent_ns: u64, done_ns: u64) {
        let due = self.due_ns(i);
        self.lag_ns.push(sent_ns.saturating_sub(due));
        self.latency_ns.push(done_ns.saturating_sub(due));
    }

    /// Run operations `0, 1, 2, …` on the schedule for as long as `more(i)`
    /// says so. `between` runs after each operation has been timed, in the
    /// gap before the next one is due.
    pub fn run(
        &mut self,
        more: impl Fn(u64) -> bool,
        mut op: impl FnMut(u64),
        mut between: impl FnMut(),
    ) {
        let t0 = Instant::now();
        let now = |t0: &Instant| t0.elapsed().as_nanos() as u64;
        let mut i = 0;
        while more(i) {
            let wait = self.wait_ns(i, now(&t0));
            match self.wait {
                Wait::Sleep if wait > 0 => std::thread::sleep(Duration::from_nanos(wait)),
                Wait::Yield => {
                    while now(&t0) < self.due_ns(i) {
                        std::thread::yield_now();
                    }
                }
                Wait::Sleep => {}
            }
            let sent = now(&t0);
            op(i);
            self.record(i, sent, now(&t0));
            between();
            i += 1;
        }
    }
}

/// The host's speed as a served round feels it, measured beside the rounds:
/// one byte to a thread of the benchmark's own over a socket pair and back,
/// two system calls and a thread switch each way, nothing of the program
/// under test.
///
/// A paced round is a dozen such hand-overs between the gateway and the
/// server's threads and little else, and on a shared virtual machine their
/// price moves with what the host's other guests do: over 58 sessions of one
/// commit the median round read 40–66 µs (quartiles 18% of the median apart,
/// shifting for half a minute at a time), the median of this round trip
/// 4.3–6.6 µs, and their quotient 9.0–10.5 (quartiles 4% apart). Sampled in
/// the same gaps as the rounds it sees the same host, so the latency is
/// reported at a fixed price of the round trip, [`HOST_RTT_REFERENCE_US`].
pub struct HostRtt {
    near: UnixStream,
    echo: JoinHandle<()>,
    rtt_ns: Vec<u64>,
}

/// The round trip on the host the benchmark was sized on, while that host
/// was quiet: a latency corrected to it reads as it would there and then.
pub const HOST_RTT_REFERENCE_US: f64 = 4.5;

impl HostRtt {
    pub fn start() -> std::io::Result<HostRtt> {
        let (near, mut far) = UnixStream::pair()?;
        let echo = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            // Ends when the near end is closed.
            while far.read_exact(&mut byte).is_ok() && far.write_all(&byte).is_ok() {}
        });
        Ok(HostRtt { near, echo, rtt_ns: Vec::new() })
    }

    /// One timed round trip; a failed one is not a sample.
    pub fn sample(&mut self) {
        let mut byte = [0u8; 1];
        let t0 = Instant::now();
        if self.near.write_all(&byte).is_ok() && self.near.read_exact(&mut byte).is_ok() {
            self.rtt_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Stop the echo thread and hand back the samples, µs.
    pub fn finish(self) -> Vec<f64> {
        drop(self.near);
        self.echo.join().expect("the echo thread does not panic");
        us(&self.rtt_ns)
    }
}

/// `latency_us` at the reference price of the host round trip.
pub fn host_corrected(latency_us: f64, host_rtt_us: f64) -> f64 {
    latency_us * HOST_RTT_REFERENCE_US / host_rtt_us
}

/// Share of paced rounds slower than [`inputs::PACED_LIMIT_US`].
pub fn over_limit_ratio(latency_us: &[f64]) -> f64 {
    let over = latency_us.iter().filter(|&&l| l > inputs::PACED_LIMIT_US).count();
    over as f64 / latency_us.len().max(1) as f64
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The dashboard beside the paced writer: its own connection, reads due at
/// [`inputs::READ_RATE_HZ`], rotating `Status`, `Frontier`, a `TraceSlice` tail
/// and `Metrics`. It sleeps between reads; the writer keeps the CPU busy, so
/// its timer is on time.
fn dashboard(addr: SocketAddr, stop: &AtomicBool) -> (OpenLoop, Tally) {
    let mut tally = Tally::default();
    let mut pacer = OpenLoop::at_rate(inputs::READ_RATE_HZ, Wait::Sleep);
    let mut g = Gateway::connect(addr).expect("connect the dashboard");
    let mut tail_from = 0usize;
    pacer.run(
        |_| !stop.load(Ordering::Acquire),
        |i| {
            let ok = match i % 4 {
                0 => matches!(
                    g.roundtrip(&Request::Status { name: WATCH.into() }),
                    Some(Response::Status { .. })
                ),
                1 => matches!(g.roundtrip(&Request::Frontier), Some(Response::Frontier { .. })),
                2 => match g.roundtrip(&Request::TraceSlice { from: tail_from, limit: 64 }) {
                    Some(Response::TraceSlice { total, .. }) => {
                        tail_from = total.saturating_sub(64);
                        true
                    }
                    _ => false,
                },
                _ => matches!(g.roundtrip(&Request::Metrics), Some(Response::Metrics { .. })),
            };
            tally.op(ok);
        },
        || {},
    );
    (pacer, tally)
}

/// `serve_paced`: one event per round, due at [`inputs::PACED_RATE_HZ`], with
/// the dashboard reading beside it, on a fresh session. The writer waits by
/// yielding, see [`Wait`], and takes one [`HostRtt`] sample after every round.
pub fn paced_rep(si: &ServeInput, spans: &mut Spans, tally: &mut Tally) -> Rep {
    let mut s = spans.time("session.start", |_| start_session(si));
    let mut host = HostRtt::start().expect("a socket pair for the host round trip");
    let addr = s.handle.addr();
    let stop = AtomicBool::new(false);
    let mut writer = OpenLoop::at_rate(inputs::PACED_RATE_HZ, Wait::Yield);
    let t0 = Instant::now();
    let (reader, read_tally) = std::thread::scope(|scope| {
        let dash = scope.spawn(|| dashboard(addr, &stop));
        let count = si.ingests.len() as u64;
        writer.run(
            |i| i < count,
            |i| {
                let i = i as usize;
                spans.time("round", |sp| round(&mut s.gateway, si, i..i + 1, sp, tally));
            },
            || host.sample(),
        );
        stop.store(true, Ordering::Release);
        dash.join().expect("the dashboard thread does not panic")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tally.merge(read_tally);
    spans.time("session.finish", |_| finish_session(s, si, tally));
    Rep {
        wall_s,
        latency_us: us(&writer.latency_ns),
        lag_us: us(&writer.lag_ns),
        read_latency_us: us(&reader.latency_ns),
        host_rtt_us: host.finish(),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_on_time_generator_waits_for_the_due_time() {
        let p = OpenLoop::at_rate(4_000, Wait::Sleep);
        assert_eq!(p.due_ns(3), 750_000);
        assert_eq!(p.wait_ns(3, 700_000), 50_000);
        assert_eq!(p.wait_ns(3, 750_000), 0);
    }

    #[test]
    fn a_late_generator_sends_at_once_and_is_timed_from_the_due_time() {
        // Operation 2 was due at 500 µs, but the previous reply only came
        // back at 900 µs: no sleep, and the 400 µs spent queued behind the
        // stall are part of this operation's latency, not hidden.
        let mut p = OpenLoop::at_rate(4_000, Wait::Sleep);
        assert_eq!(p.wait_ns(2, 900_000), 0);
        p.record(2, 900_000, 1_000_000);
        assert_eq!(p.lag_ns, vec![400_000]);
        assert_eq!(p.latency_ns, vec![500_000], "timed from due (500 µs), not from sent (900 µs)");
    }

    #[test]
    fn the_host_round_trip_is_sampled_between_operations_not_inside_them() {
        let mut host = HostRtt::start().unwrap();
        let mut p = OpenLoop::at_rate(10, Wait::Sleep);
        let slow_sample = || {
            std::thread::sleep(Duration::from_millis(30));
            host.sample();
        };
        p.run(|i| i < 5, |_| {}, slow_sample);
        let rtt = host.finish();
        assert_eq!(rtt.len(), 5);
        assert!(rtt.iter().all(|&r| r > 0.0));
        // An empty operation takes no time, however long the sample after it
        // (which ends well before the next operation is due).
        assert!(p.latency_ns.iter().all(|&l| l < 30_000_000), "{:?}", p.latency_ns);
        // Twice the round trip halves the corrected latency.
        assert_eq!(host_corrected(60.0, 2.0 * HOST_RTT_REFERENCE_US), 30.0);
    }

    #[test]
    fn the_loop_keeps_its_schedule_sleeping_or_yielding() {
        for wait in [Wait::Sleep, Wait::Yield] {
            let mut p = OpenLoop::at_rate(1_000, wait);
            let mut sent = 0;
            let t0 = Instant::now();
            p.run(|i| i < 20, |_| sent += 1, || {});
            assert_eq!(sent, 20);
            assert!(t0.elapsed() >= Duration::from_millis(19), "20 ops at 1 kHz take 19 ms");
            assert_eq!(p.latency_ns.len(), 20);
            assert!(p.latency_ns.iter().zip(&p.lag_ns).all(|(lat, lag)| lat >= lag));
        }
    }
}
