//! JSONL observability sink for the harness binaries.
//!
//! `--obs-out <path>` (on `experiments`, `chaos`, and `psn-script`) opens a
//! process-wide sink here; each instrumented cell then calls [`emit_cell`]
//! with the [`Metrics`] registry of its run, producing **one JSON line per
//! cell** that carries both of the registry's sections — the deterministic
//! [`psn_sim::metrics::MetricsSnapshot`] and the wall-clock
//! [`psn_sim::telemetry::TelemetrySnapshot`]. The `cell` field is a
//! structured object with the human-readable label plus the cell's
//! parameters and seed, so downstream tools can group and join lines
//! without parsing labels:
//!
//! ```json
//! {"experiment":"e14","cell":{"label":"n=64 shards=4","shards":4,...},
//!  "metrics":{"counters":[...]},"telemetry":{"shards":[...],...}}
//! ```
//!
//! The format is what `psn-profile` consumes (`psn-profile <path>` for the
//! phase-attribution report, `psn-profile --check <path>` for schema
//! validation). When no sink is set (the default, and always in
//! `cargo test`), the module is inert: [`is_enabled`] is `false`, runs use
//! disabled registries, and [`emit_cell`] is a no-op.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

use psn_sim::metrics::Metrics;
use serde::{Serialize, Value};

/// Sink with a reusable line buffer; a cell is the atomic output unit
/// (rendered, written, flushed as one line) so tailing readers never see
/// a torn record.
struct Sink {
    writer: BufWriter<File>,
    line: String,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Open `path` (truncating) as the process-wide sink.
pub fn set_obs_out(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().expect("obs sink lock") =
        Some(Sink { writer: BufWriter::new(file), line: String::new() });
    Ok(())
}

/// Is a sink open? Runs use this to decide whether to pay for an enabled
/// [`Metrics`] registry.
pub fn is_enabled() -> bool {
    SINK.lock().expect("obs sink lock").is_some()
}

/// The registry a run should record into: enabled only when a sink is
/// open.
pub fn registry() -> Metrics {
    if is_enabled() {
        Metrics::new()
    } else {
        Metrics::disabled()
    }
}

/// Build the structured `cell` object for [`emit_cell`]: the label plus
/// each `(name, value)` cell parameter (the run's seed belongs here too).
pub fn cell_object(label: &str, params: &[(&str, Value)]) -> Value {
    let mut map = Vec::with_capacity(params.len() + 1);
    map.push(("label".to_string(), Value::Str(label.to_string())));
    map.extend(params.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Map(map)
}

/// Append one JSONL record for (`experiment`, `cell`) with both sections
/// of `metrics`. Build `cell` with [`cell_object`]. No-op without a sink.
pub fn emit_cell(experiment: &str, cell: Value, metrics: &Metrics) {
    let mut guard = SINK.lock().expect("obs sink lock");
    if let Some(sink) = guard.as_mut() {
        let record = Value::Map(vec![
            ("experiment".to_string(), Value::Str(experiment.to_string())),
            ("cell".to_string(), cell),
            ("metrics".to_string(), metrics.snapshot().to_value()),
            ("telemetry".to_string(), metrics.telemetry().snapshot().to_value()),
        ]);
        sink.line.clear();
        serde_json::write_value_to(&record, &mut sink.line);
        sink.line.push('\n');
        if let Err(e) =
            sink.writer.write_all(sink.line.as_bytes()).and_then(|()| sink.writer.flush())
        {
            eprintln!("obs-out: write failed: {e}");
        }
    }
}

/// Flush and close the sink (end of the runner's main loop).
pub fn finish() {
    let mut guard = SINK.lock().expect("obs sink lock");
    if let Some(mut sink) = guard.take() {
        if let Err(e) = sink.writer.flush() {
            eprintln!("obs-out: flush failed: {e}");
        }
    }
}

/// Serialises the tests that open the process-wide sink, so each sees it
/// closed on entry and its own lines only.
#[cfg(test)]
pub(crate) static TEST_SINK: Mutex<()> = Mutex::new(());
