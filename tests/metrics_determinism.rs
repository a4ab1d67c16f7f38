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

        // And the instrumentation actually observed the run.
        let snap = metrics.snapshot();
        assert!(snap.counter("engine.events_processed").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("engine.messages_delivered"),
            Some(trace_on.net.messages_delivered),
            "seed {seed}"
        );
    }
}
