//! Drive a `ServeSession` in-process with `serve_burst`'s round shape, for
//! profiling the live per-event path without sockets or server threads.
//!
//! The timeline is the serve workloads' gateway hall: 4 doors, 40 Hz
//! arrivals, a mean stay of 60 s, the session's default Δ = 100 ms and
//! 200 ms hold-back, one watched occupancy predicate. Each repetition feeds
//! the whole timeline to a fresh session as rounds of 32 `Ingest` +
//! `Advance` (to the last event's time) + `Status`, and prints the session's
//! events per second, the `Advance` nanoseconds per event and the `Status`
//! nanoseconds per call; repetitions continue until `--seconds` have
//! passed.
//!
//! Where `/proc/self/stat` exists, each line also prints the minor page
//! faults the repetition took per ingest: pages the process touched for
//! the first time, so about the bytes an ingest newly touches / 4 096. A
//! session that keeps growing what it retains faults at a flat rate per
//! event; one that reuses its buffers faults only as its reports and
//! journal grow. Run it under the benchmark's allocator settings
//! (`MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=131072`), where every buffer
//! past 128 KiB is mapped afresh and so faults again in each repetition.
//! Elsewhere the column is omitted.
//!
//! ```sh
//! cargo run --release -p psn-serve --example session_profile -- \
//!     [--events 45000] [--seed 3] [--seconds 10]
//! ```
//!
//! Under a sampling profiler, e.g. gprofng:
//!
//! ```sh
//! cargo build --release -p psn-serve --example session_profile
//! gprofng collect app -p 1 -o /tmp/session.er \
//!     target/release/examples/session_profile --seconds 20
//! gprofng display text -functions /tmp/session.er | head -40
//! ```

use std::time::{Duration, Instant};

use psn_core::{world_events, NetMsg};
use psn_predicates::Predicate;
use psn_serve::{Request, Response, ServeConfig, ServeSession};
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::Scenario;

const DOORS: usize = 4;
const RATE_HZ: f64 = 40.0;
const MEAN_STAY_S: u64 = 60;
const ROUND: usize = 32;
const WATCH: &str = "occ";

/// The first `events` events of a hall long enough to hold them, watched
/// at its steady-state mean occupancy.
fn hall(events: usize, seed: u64) -> (Scenario, Predicate) {
    let capacity = (RATE_HZ * MEAN_STAY_S as f64) as i64;
    let mut sim_s = MEAN_STAY_S + (events as f64 / (2.0 * RATE_HZ) * 1.3) as u64;
    loop {
        let params = ExhibitionParams {
            doors: DOORS,
            arrival_rate_hz: RATE_HZ,
            mean_stay: SimDuration::from_secs(MEAN_STAY_S),
            duration: SimTime::from_secs(sim_s),
            capacity,
        };
        let mut scenario = exhibition::generate(&params, seed);
        if scenario.timeline.len() >= events {
            scenario.timeline.events.truncate(events);
            return (scenario, Predicate::occupancy_over(DOORS, capacity));
        }
        sim_s *= 2;
    }
}

fn arg(args: &[String], flag: &str, default: u64) -> u64 {
    match args.iter().position(|a| a == flag) {
        Some(i) => args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a number");
            std::process::exit(2)
        }),
        None => default,
    }
}

/// Minor page faults this process has taken (field 10 of
/// `/proc/self/stat`), or `None` where that file is absent.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name in field 2 may hold spaces; the fields after its
    // closing parenthesis start at field 3.
    stat[stat.rfind(')')? + 1..].split_whitespace().nth(7)?.parse().ok()
}

/// One fresh session over the whole timeline: `(total, Advance, Status)`
/// wall times.
fn rep(
    scenario: &Scenario,
    predicate: &Predicate,
    ingests: &[(SimTime, Request)],
) -> (Duration, Duration, Duration) {
    let mut cfg = ServeConfig::new(DOORS);
    cfg.initial = scenario.timeline.initial_state();
    let mut session = ServeSession::new(cfg);
    let watching =
        session.handle(Request::Watch { name: WATCH.into(), predicate: predicate.clone() });
    assert!(matches!(watching, Response::Watching { .. }), "Watch refused: {watching:?}");
    let (mut advance, mut status) = (Duration::ZERO, Duration::ZERO);
    let t0 = Instant::now();
    for round in ingests.chunks(ROUND) {
        for (_, req) in round {
            let reply = session.handle(req.clone());
            assert!(matches!(reply, Response::Ingested { .. }), "{reply:?}");
        }
        let to = round.last().expect("chunks are non-empty").0;
        let a0 = Instant::now();
        let reply = session.handle(Request::Advance { to });
        advance += a0.elapsed();
        assert!(matches!(reply, Response::Advanced { .. }), "{reply:?}");
        let request = Request::Status { name: WATCH.into() };
        let s0 = Instant::now();
        let reply = session.handle(request);
        status += s0.elapsed();
        assert!(matches!(reply, Response::Status { .. }), "{reply:?}");
    }
    (t0.elapsed(), advance, status)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let events = arg(&args, "--events", 45_000) as usize;
    let seed = arg(&args, "--seed", 3);
    let seconds = arg(&args, "--seconds", 10);

    let (scenario, predicate) = hall(events, seed);
    let ingests: Vec<(SimTime, Request)> = world_events(&scenario)
        .into_iter()
        .filter_map(|e| match e.msg {
            NetMsg::WorldSense { key, value, .. } => {
                Some((e.at, Request::Ingest { at: e.at, process: e.to, key, value }))
            }
            _ => None,
        })
        .collect();
    let n = ingests.len() as f64;
    println!("{} ingests in rounds of {ROUND}, seed {seed}", ingests.len());

    let mut rates = Vec::new();
    let mut advance_ns = Vec::new();
    let mut status_ns = Vec::new();
    let rounds = ingests.len().div_ceil(ROUND) as f64;
    let mut faults = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let before = minor_faults();
        let (total, advance, status) = rep(&scenario, &predicate, &ingests);
        rates.push(n / total.as_secs_f64());
        advance_ns.push(advance.as_nanos() as f64 / n);
        status_ns.push(status.as_nanos() as f64 / rounds);
        let per_ingest = before.zip(minor_faults()).map(|(b, a)| (a - b) as f64 / n);
        faults.extend(per_ingest);
        println!(
            "rep {:>3}: {:>9.0} ev/s  advance {:>6.0} ns/event  status {:>6.0} ns/call{}",
            rates.len(),
            rates.last().unwrap(),
            advance_ns.last().unwrap(),
            status_ns.last().unwrap(),
            fault_column(per_ingest)
        );
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let faults = (!faults.is_empty()).then(|| median(&mut faults));
    println!(
        "median of {}: {:.0} ev/s  advance {:.0} ns/event  status {:.0} ns/call{}",
        rates.len(),
        median(&mut rates),
        median(&mut advance_ns),
        median(&mut status_ns),
        fault_column(faults)
    );
}

/// The minor-faults column, empty where the count is unavailable.
fn fault_column(per_ingest: Option<f64>) -> String {
    per_ingest.map_or_else(String::new, |f| format!("  {f:.3} minor faults/ingest"))
}
