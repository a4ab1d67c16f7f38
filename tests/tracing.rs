//! End-to-end exercises of the tracing pipeline: a real execution's
//! network-plane trace, its message pairing, and exporter validity.

use std::collections::HashMap;

use pervasive_time::prelude::*;
use pervasive_time::sim::trace::TraceKind;
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
fn every_send_pairs_with_one_delivery_by_msg_id() {
    let trace = traced_run();
    let root = trace.root_id();
    // `MsgId` → (send time, deliveries): a lossless run delivers every
    // transmission exactly once, never before it was sent.
    let mut sends: HashMap<u64, (SimTime, usize)> = HashMap::new();
    let mut reporters = vec![false; trace.n];
    for r in trace.sim.records() {
        match &r.kind {
            TraceKind::Sent { from, to, bytes, msg } => {
                assert!(from != to && *bytes > 0, "no self-channels, no empty payloads");
                assert!(sends.insert(msg.0, (r.at, 0)).is_none(), "ids are never reused");
                if *to == root {
                    reporters[*from] = true;
                }
            }
            TraceKind::Delivered { msg, .. } => {
                if let Some((sent_at, n)) = sends.get_mut(&msg.0) {
                    assert!(r.at >= *sent_at, "delivered before it was sent");
                    *n += 1;
                }
            }
            TraceKind::Lost { .. } => panic!("the run has no loss model"),
            _ => {}
        }
    }
    assert!(sends.values().all(|&(_, n)| n == 1), "each send delivered exactly once");
    assert!(reporters.iter().all(|&r| r), "every sensor sent to the root");
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
    let mut sent_lines = 0usize;
    for line in jsonl.lines() {
        let v = serde_json::parse(line).expect("each JSONL line parses");
        let map = v.as_map().expect("each line is an object");
        assert!(map.iter().any(|(k, _)| k == "seq"));
        assert!(map.iter().any(|(k, _)| k == "at_ns"));
        let event = map.iter().find(|(k, _)| k == "event").and_then(|(_, v)| v.as_str());
        assert!(
            matches!(event, Some("sent" | "delivered" | "lost" | "timer" | "note" | "fault")),
            "network-plane kinds only: {line}"
        );
        sent_lines += usize::from(event == Some("sent"));
    }
    assert_eq!(jsonl.lines().count(), trace.sim.len(), "one line per record");
    assert!(sent_lines > 0, "sends survive the JSONL export");
}
