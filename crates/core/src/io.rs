//! Trace persistence: record an execution once, analyze it offline.
//!
//! Field deployments (and long parameter sweeps) want to separate *running*
//! from *analyzing*: an [`ExecutionTrace`] serializes to JSON so detectors,
//! lattice measurements, and accuracy scoring can be re-run on stored
//! observations without re-simulating. Determinism makes this mostly a
//! convenience — but it is the natural archive format for the "study of
//! real sensornet applications" the paper's §6 calls for, where the trace
//! would come from hardware, not a simulator.

use std::path::Path;

use serde::{Deserialize, Serialize};

use psn_sim::network::NetStats;
use psn_sim::time::SimTime;

use crate::execution::ExecutionTrace;
use crate::log::ExecutionLog;

/// The serializable form of an execution trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Number of sensor processes.
    pub n: usize,
    /// The complete log.
    pub log: ExecutionLog,
    /// Network counters.
    pub net: NetStats,
    /// Ground-truth end time.
    pub ended_at: SimTime,
}

/// Current format version.
pub const TRACE_FORMAT_VERSION: u32 = 1;

impl TraceFile {
    /// Capture a trace (the simulator-internal event trace is not
    /// persisted; re-run with `record_sim_trace` if it is needed).
    pub fn from_trace(trace: &ExecutionTrace) -> Self {
        TraceFile {
            version: TRACE_FORMAT_VERSION,
            n: trace.n,
            log: trace.log.clone(),
            net: trace.net.clone(),
            ended_at: trace.ended_at,
        }
    }

    /// Rehydrate into an [`ExecutionTrace`] detectors can consume.
    pub fn into_trace(self) -> ExecutionTrace {
        ExecutionTrace {
            n: self.n,
            log: self.log,
            net: self.net,
            sim: psn_sim::trace::Trace::disabled(),
            ended_at: self.ended_at,
            faults: None,
        }
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Parse from a JSON string.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let t: TraceFile = serde_json::from_str(s)?;
        Ok(t)
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{run_execution, ExecutionConfig};
    use psn_sim::time::{SimDuration, SimTime};
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    fn trace() -> ExecutionTrace {
        let s = exhibition::generate(
            &ExhibitionParams {
                doors: 2,
                arrival_rate_hz: 1.0,
                mean_stay: SimDuration::from_secs(20),
                duration: SimTime::from_secs(60),
                capacity: 5,
            },
            3,
        );
        run_execution(&s, &ExecutionConfig::default())
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let t = trace();
        let file = TraceFile::from_trace(&t);
        let json = file.to_json();
        let back = TraceFile::from_json(&json).expect("parse").into_trace();
        assert_eq!(back.n, t.n);
        assert_eq!(back.log.events, t.log.events);
        assert_eq!(back.log.reports, t.log.reports);
        assert_eq!(back.net, t.net);
        assert_eq!(back.ended_at, t.ended_at);
    }

    #[test]
    fn file_roundtrip() {
        let t = trace();
        let dir = std::env::temp_dir().join("psn-core-io-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trace.json");
        TraceFile::from_trace(&t).save(&path).expect("save");
        let back = TraceFile::load(&path).expect("load");
        assert_eq!(back.version, TRACE_FORMAT_VERSION);
        assert_eq!(back.log.reports.len(), t.log.reports.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(TraceFile::from_json("not json").is_err());
        assert!(TraceFile::from_json("{\"version\": 1}").is_err(), "missing fields");
    }
}
