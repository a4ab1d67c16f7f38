//! JSONL telemetry sink for the experiment runners.
//!
//! `--telemetry-out <path>` (on `experiments`, `chaos`, and `psn-script`)
//! opens a process-wide sink here; each instrumented cell then calls
//! [`emit_cell`] with both the [`MetricsSnapshot`] and the
//! [`TelemetrySnapshot`] of its run, producing **one JSON line per cell**:
//!
//! ```json
//! {"experiment":"e14","cell":{"label":"n=64 shards=4","shards":4,...},
//!  "metrics":{"counters":[...]},"telemetry":{"shards":[...],...}}
//! ```
//!
//! The format is what `psn-profile` consumes (`psn-profile <path>` for the
//! phase-attribution report, `psn-profile --check <path>` for schema
//! validation). Like [`crate::metrics_out`], the module is fully inert
//! when no sink is set: [`is_enabled`] is `false`, runs use disabled
//! registries, and [`emit_cell`] is a no-op.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

use psn_sim::metrics::MetricsSnapshot;
use psn_sim::telemetry::TelemetrySnapshot;
use serde::{Serialize, Value};

/// Sink with a reusable line buffer; a cell is the atomic output unit
/// (rendered, written, flushed as one line) so tailing readers never see
/// a torn record.
struct Sink {
    writer: BufWriter<File>,
    line: String,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Open `path` (truncating) as the process-wide telemetry sink.
pub fn set_telemetry_out(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().expect("telemetry sink lock") =
        Some(Sink { writer: BufWriter::new(file), line: String::new() });
    Ok(())
}

/// Is a sink open? Experiments use this to decide whether to attach a
/// live [`psn_sim::telemetry::Telemetry`] registry to their runs.
pub fn is_enabled() -> bool {
    SINK.lock().expect("telemetry sink lock").is_some()
}

/// Append one JSONL record for (`experiment`, `cell`). Build `cell` with
/// [`crate::metrics_out::cell_object`]. No-op without a sink.
pub fn emit_cell(
    experiment: &str,
    cell: Value,
    metrics: &MetricsSnapshot,
    telemetry: &TelemetrySnapshot,
) {
    let mut guard = SINK.lock().expect("telemetry sink lock");
    if let Some(sink) = guard.as_mut() {
        let record = Value::Map(vec![
            ("experiment".to_string(), Value::Str(experiment.to_string())),
            ("cell".to_string(), cell),
            ("metrics".to_string(), metrics.to_value()),
            ("telemetry".to_string(), telemetry.to_value()),
        ]);
        sink.line.clear();
        serde_json::write_value_to(&record, &mut sink.line);
        sink.line.push('\n');
        if let Err(e) =
            sink.writer.write_all(sink.line.as_bytes()).and_then(|()| sink.writer.flush())
        {
            eprintln!("telemetry-out: write failed: {e}");
        }
    }
}

/// Flush and close the sink (end of the runner's main loop).
pub fn finish() {
    let mut guard = SINK.lock().expect("telemetry sink lock");
    if let Some(mut sink) = guard.take() {
        if let Err(e) = sink.writer.flush() {
            eprintln!("telemetry-out: flush failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics_out::cell_object;
    use psn_sim::metrics::Metrics;
    use psn_sim::telemetry::{Phase, Telemetry};

    #[test]
    fn disabled_sink_is_inert_and_enabled_sink_writes_jsonl() {
        assert!(!is_enabled());
        let m = Metrics::new();
        m.counter("engine.events").add(9);
        let t = Telemetry::new();
        t.shard(0).record_ns(Phase::Busy, 123);
        t.record_run_wall(456);
        let cell = || cell_object("shards=2", &[("shards", Value::UInt(2))]);
        emit_cell("e14", cell(), &m.snapshot(), &t.snapshot()); // no-op

        let path = std::env::temp_dir().join("psn_telemetry_out_test.jsonl");
        let path = path.to_str().expect("utf-8 temp path");
        set_telemetry_out(path).expect("open sink");
        assert!(is_enabled());
        emit_cell("e14", cell(), &m.snapshot(), &t.snapshot());
        finish();
        assert!(!is_enabled());

        let text = std::fs::read_to_string(path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "one JSON line per cell");
        assert!(lines[0].contains("\"experiment\":\"e14\""));
        assert!(lines[0].contains("\"telemetry\":"));
        assert!(lines[0].contains("\"run_wall_ns\":456"));
        assert!(lines[0].contains("\"phase\":\"busy\""));
        // The record round-trips through the typed snapshot structs.
        std::fs::remove_file(path).ok();
    }
}
