//! The live leg of E14: E14's largest cell (1 024 doors plus the root,
//! n = 1 025 actors, Δ ∈ [40 ms, 240 ms], 60 s at 16 arrivals/s) stepped by
//! `LiveExecution::advance_to` in 100 ms watermarks, at each shard count
//! given. Prints the median wall time per advance over `--reps` sessions
//! per shard count, run interleaved, and checks that every shard count
//! finishes with the batch run's log and counters.
//!
//! ```sh
//! cargo run --release -p psn-core --example live_scaling -- --reps 3 1 2
//! ```

use std::time::Instant;

use psn_core::live::LiveExecution;
use psn_core::{run_execution, world_events, ExecutionConfig, ExecutionTrace};
use psn_sim::delay::DelayModel;
use psn_sim::provider::TimelineProvider;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut reps = 3;
    let mut shard_counts = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            s => shard_counts.push(s.parse::<usize>().expect("a shard count")),
        }
    }
    if shard_counts.is_empty() {
        shard_counts = vec![1, 2];
    }
    let duration = SimTime::from_secs(60);
    let scenario = exhibition::generate(
        &ExhibitionParams {
            doors: 1024,
            arrival_rate_hz: 16.0,
            mean_stay: SimDuration::from_secs(60),
            duration,
            capacity: 240,
        },
        11,
    );
    let delay = DelayModel::DeltaBounded {
        min: SimDuration::from_millis(40),
        max: SimDuration::from_millis(240),
    };
    let cfg = ExecutionConfig { delay, seed: 1, ..Default::default() };
    let batch = run_execution(&scenario, &cfg);
    let end = duration.saturating_add(SimDuration::from_secs(30));
    let step = SimDuration::from_millis(100);

    let mut per_advance: Vec<Vec<f64>> = vec![Vec::new(); shard_counts.len()];
    for _ in 0..reps {
        for (i, &shards) in shard_counts.iter().enumerate() {
            let cfg = ExecutionConfig { shards, ..cfg.clone() };
            let provider = TimelineProvider::new(world_events(&scenario));
            let mut live = LiveExecution::new(scenario.num_processes(), cfg, Box::new(provider));
            let (mut t, mut advances) = (SimTime::ZERO, 0u32);
            let t0 = Instant::now();
            while t < end {
                t = t.saturating_add(step);
                live.advance_to(t).expect("monotone watermark");
                advances += 1;
            }
            per_advance[i].push(t0.elapsed().as_nanos() as f64 / advances as f64);
            check(&live.finish(), &batch, shards);
        }
    }
    println!("shards  ns/advance (median of {reps})  advances of 100 ms");
    for (i, &shards) in shard_counts.iter().enumerate() {
        let v = &mut per_advance[i];
        v.sort_by(f64::total_cmp);
        println!("{shards:>6}  {:>28.0}  {}", v[v.len() / 2], end.as_nanos() / step.as_nanos());
    }
}

/// A live session finishes with the batch run's log and counters.
fn check(live: &ExecutionTrace, batch: &ExecutionTrace, shards: usize) {
    assert_eq!(live.log.events, batch.log.events, "shards={shards}: events");
    assert_eq!(live.log.reports, batch.log.reports, "shards={shards}: reports");
    assert_eq!(live.net, batch.net, "shards={shards}: net counters");
}
