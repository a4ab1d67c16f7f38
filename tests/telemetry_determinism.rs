//! The registry's telemetry view is observational: wall-clock reads feed
//! histograms only, never scheduling decisions, so attaching an enabled
//! [`Metrics`] registry must not change a single byte of any output — on
//! the sequential engine or the sharded engine at any shard count. These
//! tests enforce that three ways: registry-on vs registry-off bit-identity
//! of the serialized outputs, a pinned golden hash (the same constant for
//! every execution mode — the sharded-equals-sequential guarantee and the
//! observation-is-free guarantee in one number), and a paired A/B
//! wall-clock guard on the sequential engine that prices the whole
//! registry.

use pervasive_time::prelude::*;

/// FNV-1a (specified algorithm — the pinned constant below stays
/// meaningful across Rust and standard-library versions).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn scenario() -> Scenario {
    let params = ExhibitionParams {
        doors: 6,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(45),
        duration: SimTime::from_secs(120),
        capacity: 70,
    };
    exhibition::generate(&params, 23)
}

/// Shards > 1 need lookahead, so every mode (sequential included) runs
/// under the same Δ-band — that is what makes the golden hash one
/// constant across all of them.
fn cfg(shards: usize) -> ExecutionConfig {
    ExecutionConfig {
        delay: DelayModel::DeltaBounded {
            min: SimDuration::from_millis(40),
            max: SimDuration::from_millis(240),
        },
        seed: 23,
        shards,
        ..Default::default()
    }
}

/// Serialize the observable outputs (execution log + network counters)
/// into one stable string. Each report is hashed as the root reads it
/// back: its sense fields and arrival time, without the send event's
/// piggybacked stamps (already merged into the root's clocks) or the root
/// vector after the merge (the frontier, served from the root itself).
fn output_bytes(trace: &ExecutionTrace) -> String {
    let json = serde_json::to_string(&trace.log).expect("log serializes");
    let mut log = serde_json::parse(&json).expect("the log's JSON parses");
    if let serde_json::Value::Map(fields) = &mut log {
        for (key, value) in fields.iter_mut() {
            if let (true, serde_json::Value::Seq(reports)) = (key == "reports", value) {
                reports.iter_mut().for_each(slim_report);
            }
        }
    }
    let mut s = serde_json::to_string(&log).expect("log serializes");
    s.push_str(&serde_json::to_string(&trace.net).expect("net serializes"));
    s
}

/// Drop `root_vector` from a received report and `send_stamps` from the
/// report it wraps.
fn slim_report(received: &mut serde_json::Value) {
    let serde_json::Value::Map(fields) = received else { return };
    fields.retain(|(key, _)| key != "root_vector");
    for (key, report) in fields.iter_mut() {
        if let (true, serde_json::Value::Map(report)) = (key == "report", report) {
            report.retain(|(key, _)| key != "send_stamps");
        }
    }
}

fn output_hash(trace: &ExecutionTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, output_bytes(trace).as_bytes());
    h
}

/// One constant for all six runs of the matrix below: {sequential,
/// 2 shards, 4 shards} × {registry off, on}.
/// Regenerate by running this test with the println uncommented if the
/// workload or the engine's canonical ordering deliberately changes.
const GOLDEN_OUTPUT_HASH: u64 = 0x2945_3482_a7a4_bacc;

#[test]
fn telemetry_on_output_is_bit_identical_across_engines() {
    let scenario = scenario();
    let modes: &[(usize, &str)] = &[(1, "sequential"), (2, "sharded x2"), (4, "sharded x4")];
    for &(shards, label) in modes {
        let cfg = cfg(shards);
        let off = run_execution_instrumented(&scenario, &cfg, &Metrics::disabled());
        let metrics = Metrics::new();
        let on = run_execution_instrumented(&scenario, &cfg, &metrics);
        assert_eq!(
            output_bytes(&off),
            output_bytes(&on),
            "{label}: registry-on output diverged from registry-off"
        );
        // println!("{label}: {:#x}", output_hash(&on));
        assert_eq!(
            output_hash(&on),
            GOLDEN_OUTPUT_HASH,
            "{label}: output hash drifted from the pinned golden value"
        );
        // The registry really recorded: the run is covered, not skipped.
        let snap = metrics.telemetry().snapshot();
        assert!(snap.enabled && snap.runs == 1 && snap.run_wall_ns > 0, "{label}: {snap:?}");
        assert!(
            snap.shards.iter().any(|s| s.phases.iter().any(|p| p.count > 0)),
            "{label}: no phase spans recorded"
        );
        if shards > 1 {
            assert!(
                snap.phase_ns(0, Phase::BarrierWait) > 0,
                "{label}: sharded run recorded no barrier wait"
            );
        }
    }
}

/// An enabled registry (metrics and phase timing together) must stay
/// within 2% of the uninstrumented sequential engine.
/// Median of 10 *paired* A/B runs (pairing cancels thermal/scheduler
/// drift); the comparison is repeated up to 3 times before failing so a
/// single noisy CI neighbor cannot flake the suite.
#[test]
fn sequential_telemetry_overhead_within_two_percent() {
    let scenario = scenario();
    let cfg = cfg(1);
    let time_with = |metrics: &Metrics| {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_execution_instrumented(&scenario, &cfg, metrics));
        t0.elapsed().as_secs_f64()
    };
    // Warm caches and the allocator before any timed run.
    let _ = time_with(&Metrics::disabled());
    let mut last_median = f64::NAN;
    for _attempt in 0..3 {
        let live = Metrics::new();
        let mut ratios: Vec<f64> = (0..10)
            .map(|_| {
                let off = time_with(&Metrics::disabled());
                let on = time_with(&live);
                on / off
            })
            .collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        last_median = (ratios[4] + ratios[5]) / 2.0;
        if last_median <= 1.02 {
            return;
        }
    }
    panic!("registry overhead ratio {last_median:.4} > 1.02 after 3 attempts");
}
