//! Per-cell structured-trace sink for the experiment runner.
//!
//! `experiments --trace-out <dir> [--trace-format jsonl|chrome]` opens a
//! process-wide sink here; each trace-recording experiment cell then calls
//! [`emit_cell_trace`] with the sealed [`psn_sim::trace::Trace`] of its
//! run, producing **one file per cell** under `<dir>`:
//!
//! - `chrome` (default): `<experiment>-<cell>.json` — a Chrome
//!   trace-event file ([`psn_sim::trace_export::chrome_trace_json`]) that
//!   loads directly in Perfetto / `chrome://tracing`, with one track per
//!   process and flow arrows binding each send to its delivery;
//! - `jsonl`: `<experiment>-<cell>.jsonl` — one JSON object per trace
//!   record ([`psn_sim::trace_export::jsonl`]), the stream-processing twin
//!   of `--obs-out`.
//!
//! When no sink is set (the default, and always in `cargo test`), the
//! module is inert: [`is_enabled`] is `false`, experiments skip trace
//! recording they would not otherwise do, and [`emit_cell_trace`] is a
//! no-op — the flag adds zero cost and zero output when absent.

use std::path::PathBuf;
use std::sync::Mutex;

use psn_sim::trace::Trace;
use psn_sim::trace_export;

/// The on-disk format `--trace-out` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Chrome trace-event JSON, loadable in Perfetto (default).
    #[default]
    Chrome,
    /// One JSON object per trace record, parallel to `--obs-out`.
    Jsonl,
}

impl TraceFormat {
    /// Parse a `--trace-format` argument.
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }

    fn extension(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "json",
            TraceFormat::Jsonl => "jsonl",
        }
    }
}

struct Sink {
    dir: PathBuf,
    format: TraceFormat,
    written: usize,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Open `dir` (created if missing) as the process-wide trace sink.
pub fn set_trace_out(dir: &str, format: TraceFormat) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    *SINK.lock().expect("trace sink lock") =
        Some(Sink { dir: PathBuf::from(dir), format, written: 0 });
    Ok(())
}

/// Is a sink open? Experiments use this to decide whether to pay for
/// engine trace recording they would not otherwise do.
pub fn is_enabled() -> bool {
    SINK.lock().expect("trace sink lock").is_some()
}

/// File-name-safe version of a cell label (`p=0.05 seed=3` →
/// `p_0.05_seed_3`).
fn sanitize(cell: &str) -> String {
    cell.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect()
}

/// Write one trace file for (`experiment`, `cell`). `n` is the number of
/// sensor processes: actors `0..n` are named `sensor <i>` and actor `n`
/// `root` on the Perfetto tracks. No-op without a sink; the trace must be
/// sealed (any trace returned by a finished run is).
pub fn emit_cell_trace(experiment: &str, cell: &str, trace: &Trace, n: usize) {
    let mut guard = SINK.lock().expect("trace sink lock");
    if let Some(sink) = guard.as_mut() {
        let name = |a: usize| if a == n { "root".to_string() } else { format!("sensor {a}") };
        let body = match sink.format {
            TraceFormat::Chrome => trace_export::chrome_trace_json(trace, name),
            TraceFormat::Jsonl => trace_export::jsonl(trace),
        };
        let file = format!("{experiment}-{}.{}", sanitize(cell), sink.format.extension());
        let path = sink.dir.join(file);
        match std::fs::write(&path, body) {
            Ok(()) => sink.written += 1,
            Err(e) => eprintln!("trace-out: write {} failed: {e}", path.display()),
        }
    }
}

/// Close the sink and report how many cell files were written.
pub fn finish() -> usize {
    SINK.lock().expect("trace sink lock").take().map_or(0, |s| s.written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::time::SimTime;
    use psn_sim::trace::{MsgId, TraceKind};

    #[test]
    fn disabled_sink_is_inert_and_enabled_sink_writes_files() {
        // The sink is process-global; one test covers both states in order.
        assert!(!is_enabled());
        let mut trace = Trace::enabled();
        trace.record(
            SimTime::from_millis(1),
            TraceKind::Sent { from: 0, to: 1, bytes: 8, msg: MsgId(0) },
        );
        trace.record(
            SimTime::from_millis(2),
            TraceKind::Delivered { from: 0, to: 1, msg: MsgId(0) },
        );
        trace.seal();
        emit_cell_trace("e0", "n=1", &trace, 1); // no-op

        let dir = std::env::temp_dir().join("psn_trace_out_test");
        let dir = dir.to_str().expect("utf-8 temp path");
        set_trace_out(dir, TraceFormat::Chrome).expect("open sink");
        assert!(is_enabled());
        emit_cell_trace("e0", "p=0.05 seed=3", &trace, 1);
        assert_eq!(finish(), 1);
        assert!(!is_enabled());

        let path = std::path::Path::new(dir).join("e0-p_0.05_seed_3.json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let summary = trace_export::validate_chrome(&text).expect("valid chrome trace");
        assert!(summary.events > 0);
        assert_eq!(summary.flows, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn format_parsing_and_sanitizing() {
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert_eq!(sanitize("p=0.25, n=4"), "p_0.25__n_4");
    }
}
