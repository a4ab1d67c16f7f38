//! Tests of the `telemetry` section of an [`crate::obs_out`] record: the
//! wall-clock phase profile of a cell's registry, written beside its
//! metrics on the same JSONL line.

mod tests {
    use crate::obs_out::*;
    use psn_sim::metrics::Metrics;
    use psn_sim::telemetry::Phase;
    use serde::Value;

    #[test]
    fn disabled_sink_is_inert_and_enabled_sink_writes_jsonl() {
        let _serial = TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!is_enabled());
        let m = Metrics::new();
        m.counter("engine.events").add(9);
        let t = m.telemetry();
        t.shard(0).record_ns(Phase::Busy, 123);
        t.record_run_wall(456);
        let cell = || cell_object("shards=2", &[("shards", Value::UInt(2))]);
        emit_cell("e14", cell(), &m); // no-op

        let path = std::env::temp_dir().join("psn_obs_out_telemetry_test.jsonl");
        let path = path.to_str().expect("utf-8 temp path");
        set_obs_out(path).expect("open sink");
        assert!(is_enabled());
        emit_cell("e14", cell(), &m);
        finish();
        assert!(!is_enabled());

        let text = std::fs::read_to_string(path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "one JSON line per cell");
        assert!(lines[0].contains("\"experiment\":\"e14\""));
        assert!(lines[0].contains("engine.events"));
        assert!(lines[0].contains("\"telemetry\":"));
        assert!(lines[0].contains("\"run_wall_ns\":456"));
        assert!(lines[0].contains("\"phase\":\"busy\""));
        std::fs::remove_file(path).ok();
    }
}
