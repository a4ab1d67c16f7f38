//! The metrics layer is observational: turning instrumentation on must not
//! change a single byte of any output. These tests run the full pipeline
//! (execution → sweep detection) twice — once plain, once with a live
//! [`Metrics`] registry threaded through the engine — and compare the
//! *serialized* outputs for bit-identity.

use pervasive_time::prelude::*;

fn scenario_and_cfg(seed: u64) -> (Scenario, ExecutionConfig) {
    let params = ExhibitionParams {
        doors: 3,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(45),
        duration: SimTime::from_secs(400),
        capacity: 70,
    };
    let scenario = exhibition::generate(&params, seed);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(250)),
        seed,
        ..Default::default()
    };
    (scenario, cfg)
}

#[test]
fn instrumented_pipeline_output_is_bit_identical() {
    for seed in [3u64, 11, 29] {
        let (scenario, cfg) = scenario_and_cfg(seed);
        let init = scenario.timeline.initial_state();
        let pred = Predicate::occupancy_over(3, 70);

        // Metrics OFF: the plain entry points.
        let trace_off = run_execution(&scenario, &cfg);
        let det_off = detect_occurrences(&trace_off, &pred, &init, Discipline::VectorStrobe);

        // Metrics ON: live registry through engine and execution.
        let metrics = Metrics::new();
        let trace_on = run_execution_instrumented(&scenario, &cfg, &metrics);
        let det_on = detect_occurrences(&trace_on, &pred, &init, Discipline::VectorStrobe);

        // Bit-identity via the serialized form — any drift in any field of
        // the log, the network counters, or the detections shows up here.
        assert_eq!(
            serde_json::to_string(&trace_off.log).unwrap(),
            serde_json::to_string(&trace_on.log).unwrap(),
            "seed {seed}: execution log must be bit-identical"
        );
        assert_eq!(
            serde_json::to_string(&trace_off.net).unwrap(),
            serde_json::to_string(&trace_on.net).unwrap(),
            "seed {seed}: network counters must be bit-identical"
        );
        assert_eq!(
            serde_json::to_string(&det_off).unwrap(),
            serde_json::to_string(&det_on).unwrap(),
            "seed {seed}: detections must be bit-identical"
        );

        // And the instrumentation actually observed the run: its counts,
        // and the phase spans of its one engine run.
        let snap = metrics.snapshot();
        assert!(snap.counter("engine.events_processed").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("engine.messages_delivered"),
            Some(trace_on.net.messages_delivered),
            "seed {seed}"
        );
        let phases = metrics.telemetry().snapshot();
        assert!(phases.enabled && phases.runs == 1 && phases.run_wall_ns > 0, "seed {seed}");
        assert!(phases.phase_ns(0, Phase::Busy) > 0, "seed {seed}: {phases:?}");
    }
}

/// FNV-1a (specified algorithm — the pinned constant below stays
/// meaningful across Rust and standard-library versions).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fold a metrics snapshot into `hash`: every counter, and every gauge's
/// high-water mark (plus its value when `gauge_values`).
fn fold_snapshot(hash: &mut u64, snap: &MetricsSnapshot, gauge_values: bool) {
    for c in &snap.counters {
        fnv1a(hash, c.name.as_bytes());
        fnv1a(hash, &c.value.to_le_bytes());
    }
    for g in &snap.gauges {
        fnv1a(hash, g.name.as_bytes());
        if gauge_values {
            fnv1a(hash, &g.value.to_le_bytes());
        }
        fnv1a(hash, &g.high.to_le_bytes());
    }
}

/// The pinned runs: heartbeat strobes (so timers broadcast as well as
/// senses), at one shard. The clean run sits on a ring with flooding, so
/// a report from a sensor the root has no link to is dropped at send; the
/// faulted run is a full mesh under a crash-recover script.
fn pinned_cfg(faulted: bool) -> (Scenario, ExecutionConfig) {
    let (scenario, base) = scenario_and_cfg(17);
    let n = scenario.num_processes();
    let heartbeat = Some(SimDuration::from_secs(5));
    let cfg = if faulted {
        let script = FaultScript::new()
            .with(
                SimTime::from_secs(60),
                FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_secs(40)) },
            )
            .with(
                SimTime::from_secs(150),
                FaultSpec::Crash { actor: 1, recover_after: Some(SimDuration::from_secs(25)) },
            );
        ExecutionConfig {
            strobes: StrobePolicy { heartbeat, ..Default::default() },
            faults: Some(script),
            ..base
        }
    } else {
        ExecutionConfig {
            strobes: StrobePolicy { heartbeat, flood: true, ..Default::default() },
            topology: Some(pervasive_time::sim::network::Topology::ring(n + 1)),
            ..base
        }
    };
    (scenario, cfg)
}

/// What the metrics plane publishes is pinned: the batch snapshot of a
/// clean and a crash-recover run (counters, gauge values and high-water
/// marks), then a live session's snapshot after each of its fixed steps
/// (counters and high-water marks; a live gauge's value is whichever
/// write came last mid-advance, so it is left out).
#[test]
fn metrics_snapshot_hash_is_pinned() {
    const GOLDEN_METRICS_HASH: u64 = 0x0c15_468b_92ab_fde6;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for faulted in [false, true] {
        let (scenario, cfg) = pinned_cfg(faulted);
        let metrics = Metrics::new();
        let trace = run_execution_instrumented(&scenario, &cfg, &metrics);
        let snap = metrics.snapshot();
        let dropped = snap.counter("engine.messages_dropped").unwrap_or(0);
        assert_eq!(dropped, trace.net.messages_lost, "every drop is a counted loss");
        if faulted {
            assert!(trace.faults.as_ref().is_some_and(|f| f.recoveries == 2));
        } else {
            assert!(dropped > 0, "reports with no link to the root drop");
        }
        fold_snapshot(&mut hash, &snap, true);
    }

    use pervasive_time::core::{world_events, LiveExecution, NoActuation};
    use pervasive_time::sim::provider::TimelineProvider;
    let (scenario, cfg) = pinned_cfg(true);
    let metrics = Metrics::new();
    let mut live = LiveExecution::new_full(
        scenario.num_processes(),
        cfg,
        Box::new(NoActuation),
        &metrics,
        Box::new(TimelineProvider::new(world_events(&scenario))),
    );
    let end = scenario.timeline.duration() + SimDuration::from_secs(30);
    let mut t = SimTime::ZERO;
    while t < end {
        t += SimDuration::from_millis(2_500);
        live.advance_to(t).expect("the watermark only grows");
        fold_snapshot(&mut hash, &metrics.snapshot(), false);
    }
    assert!(metrics.snapshot().counter("exec.senses").unwrap_or(0) > 0);
    assert_eq!(hash, GOLDEN_METRICS_HASH, "the published metrics moved: {hash:#x}");
}
