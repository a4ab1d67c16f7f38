//! Tests of the `metrics` section of an [`crate::obs_out`] record: the
//! deterministic counters of a cell's registry, one JSONL line per cell,
//! and the registry a run gets with the sink closed and open.

mod tests {
    use crate::obs_out::*;
    use psn_sim::metrics::Metrics;
    use serde::Value;

    #[test]
    fn disabled_sink_is_inert_and_enabled_sink_writes_jsonl() {
        let _serial = TEST_SINK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!is_enabled());
        assert!(!registry().is_enabled());
        let m = Metrics::new();
        m.counter("x.bytes").add(7);
        let cell1 = || cell_object("n=1", &[("n", Value::UInt(1)), ("seed", Value::UInt(42))]);
        emit_cell("e0", cell1(), &m); // no-op

        let path = std::env::temp_dir().join("psn_obs_out_metrics_test.jsonl");
        let path = path.to_str().expect("utf-8 temp path");
        set_obs_out(path).expect("open sink");
        assert!(is_enabled());
        assert!(registry().is_enabled());
        emit_cell("e0", cell1(), &m);
        emit_cell("e0", cell_object("n=2", &[("n", Value::UInt(2))]), &m);
        finish();
        assert!(!is_enabled());

        let text = std::fs::read_to_string(path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one JSON line per cell");
        assert!(lines[0].contains("\"experiment\":\"e0\""));
        assert!(lines[0].contains("\"cell\":{\"label\":\"n=1\",\"n\":1,\"seed\":42}"));
        assert!(lines[0].contains("\"metrics\":"));
        assert!(lines[0].contains("x.bytes"));
        assert!(lines[1].contains("\"cell\":{\"label\":\"n=2\",\"n\":2}"));
        std::fs::remove_file(path).ok();
    }
}
