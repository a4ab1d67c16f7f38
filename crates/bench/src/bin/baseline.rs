//! Generate `BENCH_baseline.json`: a coarse wall-clock throughput snapshot
//! of the three hot paths (engine event loop, clock operations, sweep
//! detector), committed at the repo root so perf regressions have a
//! reference point. Numbers are machine-dependent by nature — regenerate on
//! the machine under comparison:
//!
//! ```sh
//! cargo run --release -p psn-bench --bin baseline            # writes BENCH_baseline.json
//! cargo run --release -p psn-bench --bin baseline -- out.json
//! cargo run --release -p psn-bench --bin baseline -- --telemetry-out /tmp/tel.jsonl
//! ```
//!
//! `--telemetry-out <path.jsonl>` additionally dumps the phase-profiling
//! snapshot of the telemetry-overhead run (the `psn-profile` input
//! format).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use psn_bench::metrics_out::cell_object;
use psn_bench::telemetry_out;
use psn_clocks::{LogicalClock, StrobeScalarClock, StrobeVectorClock, VectorStamp};
use psn_core::{
    run_execution_instrumented, run_execution_profiled, ExecutionConfig, SpeculationMode,
};
use psn_lattice::{enumerate_lattice, History};
use psn_predicates::{detect_occurrences, Discipline, Predicate, StreamingModal};
use psn_sim::delay::DelayModel;
use psn_sim::metrics::Metrics;
use psn_sim::telemetry::Telemetry;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use serde::{Serialize, Value};

/// Shard-count → events/s, serialized as a JSON *object* keyed by the
/// shard count (the vendored serde shim renders a bare `BTreeMap` as a
/// list of pairs; the map shape is nicer to diff and to query).
struct RateMap(BTreeMap<String, f64>);

impl Serialize for RateMap {
    fn serialize<S: serde::Sink>(&self, s: &mut S) {
        s.map_begin();
        for (k, v) in &self.0 {
            s.map_key(k);
            s.f64(*v);
        }
        s.map_end()
    }
}

/// The committed snapshot format.
#[derive(Serialize)]
struct Baseline {
    note: String,
    engine_events_per_sec: f64,
    /// Sharded-engine throughput on a large-n (1025-actor) workload, at
    /// the best shard count tried (see the note for which).
    engine_par_events_per_sec: f64,
    /// The sequential engine on the *same* large-n workload — the
    /// denominator of the sharding speedup.
    engine_par_seq_events_per_sec: f64,
    /// Conservative sharded throughput per shard count tried, on the same
    /// large-n workload (key = shard count).
    engine_par_events_per_sec_by_shards: RateMap,
    /// Optimistic (Time Warp) sharded throughput per shard count tried, on
    /// the same large-n workload (key = shard count).
    engine_par_optimistic_events_per_sec_by_shards: RateMap,
    scalar_tick_ops_per_sec: f64,
    vector64_merge_ops_per_sec: f64,
    detector_reports_per_sec: f64,
    /// Sustained ingest rate of the streaming detector on the same
    /// workload as `detector_reports_per_sec`: every delivered report
    /// offered through `StreamingModal` (2Δ hold-back) with a `status()`
    /// probe every 512 reports — the serve `Status`/`Watch` path that
    /// previously re-ran the whole-trace sweep per query.
    detector_stream_events_per_sec: f64,
    lattice_states_per_sec: f64,
    trace_records_per_sec: f64,
    /// Sustained live-ingest rate of `psn-serve` over its TCP wire
    /// protocol, with a concurrent client hammering `Frontier` queries —
    /// the service-mode hot path (frame decode + session command + engine
    /// injection), not the batch engine.
    serve_ingest_events_per_sec: f64,
    /// Median-of-10 paired wall-clock ratio of a sequential engine run
    /// with the telemetry plane recording vs disabled (1.0 = free; the
    /// determinism tests guard this at ≤2%).
    telemetry_overhead_ratio: f64,
    /// Sustained `GET /metrics` scrape rate of the Prometheus endpoint
    /// (one connection per scrape), with a concurrent ingest client
    /// keeping the serve session hot.
    serve_metrics_scrapes_per_sec: f64,
}

fn engine_events_per_sec() -> f64 {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 4.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(600),
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        ..Default::default()
    };
    // Warm up once, then measure: the engine metrics count the events, the
    // wall clock prices them.
    black_box(run_execution_instrumented(&scenario, &cfg, &Metrics::disabled()));
    let metrics = Metrics::new();
    let t0 = Instant::now();
    black_box(run_execution_instrumented(&scenario, &cfg, &metrics));
    let secs = t0.elapsed().as_secs_f64();
    let events = metrics.snapshot().counter("engine.events_processed").unwrap_or(0);
    events as f64 / secs
}

/// Per-shard-count results of the large-n sharding benchmark.
struct ParBench {
    seq: f64,
    best: f64,
    best_k: usize,
    by_shards: BTreeMap<String, f64>,
    optimistic_by_shards: BTreeMap<String, f64>,
}

/// Sequential vs sharded throughput on a large-n workload: 1024 doors
/// (1025 actors) under a Δ-bounded delay with a 40 ms floor — the floor is
/// the sharded engine's lookahead. Measures every shard count in
/// `shard_counts` twice: conservative barriers and the optimistic (Time
/// Warp) path.
fn engine_par_events_per_sec(shard_counts: &[usize]) -> ParBench {
    let params = ExhibitionParams {
        doors: 1024,
        arrival_rate_hz: 20.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(60),
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let measure = |shards: usize, mode: SpeculationMode| {
        let cfg = ExecutionConfig {
            delay: DelayModel::DeltaBounded {
                min: SimDuration::from_millis(40),
                max: SimDuration::from_millis(240),
            },
            shards,
            speculation: Some(mode),
            ..Default::default()
        };
        let metrics = Metrics::new();
        let t0 = Instant::now();
        black_box(run_execution_instrumented(&scenario, &cfg, &metrics));
        let secs = t0.elapsed().as_secs_f64();
        let events = metrics.snapshot().counter("engine.events_processed").unwrap_or(0);
        events as f64 / secs
    };
    let _warm = measure(1, SpeculationMode::Conservative);
    let seq = measure(1, SpeculationMode::Conservative);
    let (mut best, mut best_k) = (0.0f64, 1usize);
    let mut by_shards = BTreeMap::new();
    let mut optimistic_by_shards = BTreeMap::new();
    for &k in shard_counts {
        let rate = measure(k, SpeculationMode::Conservative);
        by_shards.insert(k.to_string(), rate);
        let opt_rate = measure(k, SpeculationMode::Optimistic);
        optimistic_by_shards.insert(k.to_string(), opt_rate);
        if rate.max(opt_rate) > best {
            best = rate.max(opt_rate);
            best_k = k;
        }
    }
    ParBench { seq, best, best_k, by_shards, optimistic_by_shards }
}

fn scalar_tick_ops_per_sec() -> f64 {
    let mut clock = StrobeScalarClock::new(0);
    let iters = 20_000_000u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(clock.on_local_event());
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

fn vector64_merge_ops_per_sec() -> f64 {
    let n = 64;
    let mut clock = StrobeVectorClock::new(0, n);
    let stamp = VectorStamp::from(vec![7; n]);
    let iters = 2_000_000u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        clock.on_strobe(black_box(&stamp));
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

fn detector_reports_per_sec() -> f64 {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 4.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(600),
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        ..Default::default()
    };
    let trace = run_execution_instrumented(&scenario, &cfg, &Metrics::disabled());
    let pred = Predicate::occupancy_over(4, 240);
    let init = scenario.timeline.initial_state();
    let reports = trace.log.reports.len() as u64;
    let rounds = 20u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe));
    }
    (reports * rounds) as f64 / t0.elapsed().as_secs_f64()
}

fn detector_stream_events_per_sec() -> f64 {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 4.0,
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(600),
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        ..Default::default()
    };
    let trace = run_execution_instrumented(&scenario, &cfg, &Metrics::disabled());
    let pred = Predicate::occupancy_over(4, 240);
    let init = scenario.timeline.initial_state();
    let hold_back = SimDuration::from_millis(601); // 2Δ + 1
    let reports = trace.log.reports.len() as u64;
    let rounds = 20u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        let mut s = StreamingModal::new(&pred, &init, trace.n, hold_back);
        for (i, r) in trace.log.reports.iter().enumerate() {
            s.offer(black_box(r));
            if i % 512 == 0 {
                black_box(s.status());
            }
        }
        black_box(s.seal());
    }
    (reports * rounds) as f64 / t0.elapsed().as_secs_f64()
}

fn lattice_states_per_sec() -> f64 {
    // Unconstrained grid: 4 processes × 8 events, 9⁴ = 6561 consistent cuts
    // — the O(pⁿ) worst case the slim-lattice postulate is measured
    // against (E4's widest cell shape).
    let n = 4usize;
    let p = 8u64;
    let history = History::new(
        (0..n)
            .map(|proc| {
                (1..=p)
                    .map(|k| {
                        let mut v = vec![0; n];
                        v[proc] = k;
                        VectorStamp::from(v)
                    })
                    .collect()
            })
            .collect(),
    );
    let states = enumerate_lattice(&history, u64::MAX).states;
    let rounds = 200u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(enumerate_lattice(black_box(&history), u64::MAX));
    }
    (states * rounds) as f64 / t0.elapsed().as_secs_f64()
}

fn trace_records_per_sec() -> f64 {
    use psn_sim::trace::{ClockStamp, MsgId, ProcessEventKind, Trace, TraceKind};
    // Recording cost of the structured trace pipeline: a realistic record
    // mix (send, deliver, stamped process event) through the per-actor
    // rings, then one seal. The stamp is an 8-wide vector — the inline
    // capacity, matching small-deployment runs.
    let actors = 8usize;
    let rounds = 300_000u64;
    let records_per_round = 3u64;
    let stamp = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut trace = Trace::enabled();
    trace.configure_actors(actors);
    let t0 = Instant::now();
    for i in 0..rounds {
        let from = (i as usize) % actors;
        let to = (from + 1) % actors;
        let at = SimTime::from_nanos(i);
        trace.record(at, TraceKind::Sent { from, to, bytes: 64, msg: MsgId(i) });
        trace.record(at, TraceKind::Delivered { from, to, msg: MsgId(i) });
        trace.record(
            at,
            TraceKind::Process {
                actor: to,
                kind: ProcessEventKind::Receive,
                stamp: ClockStamp::vector(&stamp),
                detail: from as u64,
            },
        );
    }
    trace.seal();
    black_box(trace.len());
    (rounds * records_per_round) as f64 / t0.elapsed().as_secs_f64()
}

fn serve_ingest_events_per_sec() -> f64 {
    use psn_serve::wire::{read_frame, write_frame};
    use psn_serve::{serve, Request, Response, ServeConfig, ServeSession};
    use psn_world::{AttrKey, AttrValue};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle = serve(listener, ServeSession::new(ServeConfig::new(4))).expect("start serve");
    let addr = handle.addr();
    let done = Arc::new(AtomicBool::new(false));

    // A concurrent querier keeps the command channel contended the way a
    // live dashboard would, so the number prices ingest *under load*.
    let querier_done = Arc::clone(&done);
    let querier = std::thread::spawn(move || {
        let mut c = TcpStream::connect(addr).expect("connect querier");
        c.set_nodelay(true).expect("nodelay");
        while !querier_done.load(Ordering::Acquire) {
            write_frame(&mut c, &Request::Frontier).expect("query write");
            let r = read_frame::<Response>(&mut c).expect("query read").expect("reply");
            assert!(matches!(r, Response::Frontier { .. }));
        }
    });

    let mut c = TcpStream::connect(addr).expect("connect ingester");
    c.set_nodelay(true).expect("nodelay");
    let events = 30_000u64;
    // Warm up the connection and the session before timing.
    for i in 0..500u64 {
        write_frame(
            &mut c,
            &Request::Ingest {
                at: SimTime::from_nanos(i),
                process: (i % 4) as usize,
                key: AttrKey::new((i % 4) as usize, 0),
                value: AttrValue::Int(i as i64),
            },
        )
        .expect("warmup write");
        read_frame::<Response>(&mut c).expect("warmup read").expect("reply");
    }
    let t0 = Instant::now();
    for i in 0..events {
        write_frame(
            &mut c,
            &Request::Ingest {
                at: SimTime::from_millis(1000 + i),
                process: (i % 4) as usize,
                key: AttrKey::new((i % 4) as usize, 0),
                value: AttrValue::Int(i as i64),
            },
        )
        .expect("ingest write");
        let r = read_frame::<Response>(&mut c).expect("ingest read").expect("reply");
        assert!(matches!(r, Response::Ingested { .. }), "{r:?}");
    }
    let secs = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    querier.join().expect("querier");
    write_frame(&mut c, &Request::Shutdown).expect("shutdown write");
    let _ = read_frame::<Response>(&mut c);
    handle.wait();
    events as f64 / secs
}

/// Median-of-10 paired A/B: each iteration times the same sequential run
/// once with a disabled telemetry registry and once with a live one, and
/// contributes one on/off ratio. Pairing cancels slow drift (thermal,
/// scheduler) that independent medians would smear.
fn telemetry_overhead_ratio() -> f64 {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 4.0,
        mean_stay: SimDuration::from_secs(60),
        // Long enough (~60 ms of wall per run) that a 2% delta clears the
        // scheduler's noise floor on a loaded host.
        duration: SimTime::from_secs(1_200),
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        ..Default::default()
    };
    let time_with = |telemetry: &Telemetry| {
        let t0 = Instant::now();
        black_box(run_execution_profiled(&scenario, &cfg, &Metrics::disabled(), telemetry));
        t0.elapsed().as_secs_f64()
    };
    let _warm = time_with(&Telemetry::disabled());
    let live = Telemetry::new();
    let mut ratios: Vec<f64> = (0..10)
        .map(|_| {
            let off = time_with(&Telemetry::disabled());
            let on = time_with(&live);
            on / off
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    if telemetry_out::is_enabled() {
        let metrics = Metrics::new();
        let telemetry = Telemetry::new();
        black_box(run_execution_profiled(&scenario, &cfg, &metrics, &telemetry));
        telemetry_out::emit_cell(
            "baseline",
            cell_object("telemetry_overhead sequential", &[("shards", Value::UInt(1))]),
            &metrics.snapshot(),
            &telemetry.snapshot(),
        );
    }
    (ratios[4] + ratios[5]) / 2.0
}

fn serve_metrics_scrapes_per_sec() -> f64 {
    use psn_serve::wire::{read_frame, write_frame};
    use psn_serve::{serve, serve_metrics, Request, Response, ServeConfig, ServeSession};
    use psn_world::{AttrKey, AttrValue};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let session = ServeSession::new(ServeConfig::new(4));
    let (m, t) = (session.metrics_registry(), session.telemetry_registry());
    let http = serve_metrics(TcpListener::bind("127.0.0.1:0").expect("bind http"), m, t);
    let http_addr = http.addr();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle = serve(listener, session).expect("start serve");
    let addr = handle.addr();
    let done = Arc::new(AtomicBool::new(false));

    // Concurrent ingest keeps the engine and the registries hot, so the
    // scrape rate is priced against a live session, not an idle one.
    let ingester_done = Arc::clone(&done);
    let ingester = std::thread::spawn(move || {
        let mut c = TcpStream::connect(addr).expect("connect ingester");
        c.set_nodelay(true).expect("nodelay");
        let mut i = 0u64;
        while !ingester_done.load(Ordering::Acquire) {
            write_frame(
                &mut c,
                &Request::Ingest {
                    at: SimTime::from_millis(1000 + i),
                    process: (i % 4) as usize,
                    key: AttrKey::new((i % 4) as usize, 0),
                    value: AttrValue::Int(i as i64),
                },
            )
            .expect("ingest write");
            read_frame::<Response>(&mut c).expect("ingest read").expect("reply");
            i += 1;
        }
        write_frame(&mut c, &Request::Shutdown).expect("shutdown write");
        let _ = read_frame::<Response>(&mut c);
    });

    let scrape = || {
        let mut s = TcpStream::connect(http_addr).expect("connect http");
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("http write");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut body = String::new();
        s.read_to_string(&mut body).expect("http read");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "scrape failed: {body}");
    };
    for _ in 0..20 {
        scrape();
    }
    let scrapes = 300u64;
    let t0 = Instant::now();
    for _ in 0..scrapes {
        scrape();
    }
    let secs = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    ingester.join().expect("ingester");
    handle.wait();
    http.stop();
    scrapes as f64 / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path: Option<&String> =
        args.iter().position(|a| a == "--telemetry-out").and_then(|p| args.get(p + 1));
    if let Some(path) = telemetry_path {
        if let Err(e) = telemetry_out::set_telemetry_out(path) {
            eprintln!("cannot open --telemetry-out {path}: {e}");
            std::process::exit(1);
        }
    }
    let path = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(i.checked_sub(1).map(|p| args[p].as_str()), Some("--telemetry-out"))
        })
        .map(|(_, a)| a.clone())
        .next()
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let threads = psn_sim::sweep::default_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let psn_threads = std::env::var("PSN_THREADS").unwrap_or_else(|_| "unset".to_string());
    let shard_counts = [2usize, 4, 8];
    let par = engine_par_events_per_sec(&shard_counts);
    let baseline = Baseline {
        note: format!(
            "wall-clock throughput snapshot; regenerate with `cargo run --release -p \
             psn-bench --bin baseline` on the machine under comparison. \
             cores detected={cores}, threads={threads} (PSN_THREADS={psn_threads}); \
             engine_par = 1025-actor exhibition workload, shards tried \
             {shard_counts:?} in both conservative and optimistic mode, \
             best={} ({:.2}x over sequential on the same workload); on hosts \
             with fewer cores than shards the sharded legs measure overhead, \
             not speedup — compare the by_shards maps against \
             engine_par_seq_events_per_sec",
            par.best_k,
            par.best / par.seq.max(1.0)
        ),
        engine_events_per_sec: engine_events_per_sec(),
        engine_par_events_per_sec: par.best,
        engine_par_seq_events_per_sec: par.seq,
        engine_par_events_per_sec_by_shards: RateMap(par.by_shards),
        engine_par_optimistic_events_per_sec_by_shards: RateMap(par.optimistic_by_shards),
        scalar_tick_ops_per_sec: scalar_tick_ops_per_sec(),
        vector64_merge_ops_per_sec: vector64_merge_ops_per_sec(),
        detector_reports_per_sec: detector_reports_per_sec(),
        detector_stream_events_per_sec: detector_stream_events_per_sec(),
        lattice_states_per_sec: lattice_states_per_sec(),
        trace_records_per_sec: trace_records_per_sec(),
        serve_ingest_events_per_sec: serve_ingest_events_per_sec(),
        telemetry_overhead_ratio: telemetry_overhead_ratio(),
        serve_metrics_scrapes_per_sec: serve_metrics_scrapes_per_sec(),
    };
    telemetry_out::finish();
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, json + "\n").expect("write baseline file");
    println!("wrote {path}");
}
