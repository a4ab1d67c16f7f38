//! # psn-core — the ⟨P, L, O, C⟩ execution model
//!
//! The paper's first contribution (§2): a general system and execution
//! model for sensor-actuator networks in pervasive environments. A system
//! is a quadruple ⟨P, L, O, C⟩ — processes P on a logical overlay L (the
//! network plane, provided by `psn-sim`), world objects O with covert
//! channels C (the world plane, provided by `psn-world`). This crate wires
//! the two planes together:
//!
//! - [`event`] — the five event kinds c/n/a/s/r and per-process event logs;
//! - [`bundle`] — every clock of §3.2 running side by side over one
//!   execution, so detectors compare on identical runs;
//! - [`message`] — strobes, reports, and actuation commands;
//! - [`process`] — the sensor/actuator process: sense → tick → strobe →
//!   report;
//! - [`root`] — the distinguished root P₀: collect, merge clocks, actuate;
//! - [`execution`] — run a scenario end to end and return the
//!   [`execution::ExecutionTrace`] detectors consume, publishing the
//!   execution's own counts (semantic events, strobe broadcasts, E7's
//!   wire bytes by clock discipline, [`execution::family_bytes`]) into a
//!   [`psn_sim::metrics::Metrics`] registry when the run ends;
//! - [`live`] — the same engine advanced incrementally from an
//!   [`psn_sim::provider::EventProvider`], with snapshot/restore by
//!   deterministic journal replay (the substrate of `psn-serve`),
//!   publishing the same counts after each advance.
//!
//! ## Example
//!
//! ```
//! use psn_core::execution::{run_execution, ExecutionConfig};
//! use psn_world::scenarios::exhibition::{generate, ExhibitionParams};
//! use psn_sim::time::{SimDuration, SimTime};
//!
//! let scenario = generate(
//!     &ExhibitionParams {
//!         doors: 2,
//!         arrival_rate_hz: 0.5,
//!         mean_stay: SimDuration::from_secs(30),
//!         duration: SimTime::from_secs(120),
//!         capacity: 10,
//!     },
//!     42,
//! );
//! let trace = run_execution(&scenario, &ExecutionConfig::default());
//! assert_eq!(trace.log.sense_events().len(), scenario.timeline.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod event;
pub mod execution;
pub mod io;
pub mod live;
pub mod log;
pub mod message;
pub mod process;
pub mod root;

pub use bundle::{ClockConfig, StampSet, StrobePayload};
pub use event::{EventKind, ProcEvent};
pub use execution::{
    family_bytes, run_execution, run_execution_instrumented, run_execution_with_rule, world_events,
    ExecutionConfig, ExecutionTrace,
};
pub use io::TraceFile;
pub use live::{LiveExecution, LiveSnapshot, LoggedEvent, RestoreError};
pub use log::{ActuationRecord, ExecutionLog, ReceivedReport};
pub use message::{NetMsg, Report};
pub use process::{RecoveryPolicy, StrobePolicy};
pub use root::{ActuationRule, NoActuation};
