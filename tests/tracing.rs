//! End-to-end exercises of the causal tracing pipeline: a real execution's
//! structured trace, its channel statistics, and exporter validity.

use pervasive_time::prelude::*;
use pervasive_time::sim::trace_analysis::TraceAnalysis;
use pervasive_time::sim::trace_export;

fn traced_run() -> pervasive_time::core::execution::ExecutionTrace {
    let params = ExhibitionParams {
        doors: 3,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(40),
        duration: SimTime::from_secs(600),
        capacity: 60,
    };
    let scenario = exhibition::generate(&params, 17);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        seed: 17,
        record_sim_trace: true,
        ..Default::default()
    };
    run_execution(&scenario, &cfg)
}

#[test]
fn channel_stats_histogram_the_report_path() {
    let trace = traced_run();
    let a = TraceAnalysis::build(&trace.sim);
    let stats = a.channel_stats();
    assert!(!stats.is_empty());
    let root = trace.root_id();
    // Every sensor→root channel carried reports with positive latency.
    let mut sensor_channels = 0usize;
    for ((from, to), cs) in stats {
        if *to == root {
            sensor_channels += 1;
            assert!(cs.sent > 0 && cs.bytes > 0);
            assert!(cs.latency.count() > 0);
            let mean = cs.latency.mean();
            assert!(
                cs.latency.min() <= mean && mean <= cs.latency.max(),
                "histogram moments must be consistent"
            );
        }
        assert!(*from != *to, "no self-channels in the trace");
    }
    assert_eq!(sensor_channels, trace.n, "every sensor reported to the root");
}

#[test]
fn exporters_round_trip_a_real_execution() {
    let trace = traced_run();
    let root = trace.root_id();
    let name = |a: usize| if a == root { "root".to_string() } else { format!("sensor {a}") };

    let chrome = trace_export::chrome_trace_json(&trace.sim, name);
    let summary = trace_export::validate_chrome(&chrome).expect("valid Chrome trace JSON");
    assert!(summary.events > 0);
    assert!(summary.flows > 0, "messages appear as flow arrows");

    let jsonl = trace_export::jsonl(&trace.sim);
    let mut process_lines = 0usize;
    for line in jsonl.lines() {
        let v = serde_json::parse(line).expect("each JSONL line parses");
        let map = v.as_map().expect("each line is an object");
        assert!(map.iter().any(|(k, _)| k == "seq"));
        assert!(map.iter().any(|(k, _)| k == "at_ns"));
        if map.iter().any(|(k, v)| k == "event" && v.as_str() == Some("process")) {
            process_lines += 1;
        }
    }
    assert_eq!(jsonl.lines().count(), trace.sim.len(), "one line per record");
    assert!(process_lines > 0, "process events survive the JSONL export");
}
