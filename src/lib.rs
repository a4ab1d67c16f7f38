//! # pervasive-time
//!
//! A full Rust implementation of the system in *Execution and Time Models
//! for Pervasive Sensor Networks* (Kshemkalyani, Khokhar, Shen; IPPS 2011
//! workshop / IJNC 2012): the ⟨P, L, O, C⟩ execution model for
//! sensor-actuator networks, the complete clock-implementation design
//! space (Lamport, Mattern/Fidge, **strobe scalar**, **strobe vector**,
//! drifting and ε-synchronized physical clocks, physical vectors), global
//! predicate detection under the *Instantaneously* / *Possibly* /
//! *Definitely* modalities with every-occurrence semantics and the
//! borderline bin, consistent-global-state lattices (the slim-lattice
//! postulate), and the RBS/TPSN clock-synchronization baseline — all on a
//! deterministic discrete-event simulator.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Provides |
//! |---|---|
//! | [`sim`] | deterministic DES engine, delay/loss models, sweeps |
//! | [`clocks`] | the clock zoo (SC/VC/SSC/SVC rules + physical + HLC + matrix) |
//! | [`world`] | the ⟨O, C⟩ world plane, covert causality, scenarios |
//! | [`core`] | the ⟨P, L, O, C⟩ execution model wiring the planes |
//! | [`predicates`] | predicate language + detectors + accuracy scoring |
//! | [`lattice`] | consistent cuts, lattice enumeration, interval algebra |
//! | [`sync`] | RBS/TPSN sync protocols, skew and energy accounting |
//! | [`faults`] | fault plane: scripted crashes, partitions, channel + clock faults |
//! | [`lang`] | the `.psn` scenario language: lexer/parser, compiler, grammar sampler |
//!
//! ## Quickstart
//!
//! ```
//! use pervasive_time::prelude::*;
//!
//! // The paper's §5 scenario: an exhibition hall with RFID door sensors.
//! let scenario = exhibition::generate(
//!     &ExhibitionParams {
//!         doors: 3,
//!         arrival_rate_hz: 2.0,
//!         mean_stay: SimDuration::from_secs(60),
//!         duration: SimTime::from_secs(300),
//!         capacity: 80,
//!     },
//!     42,
//! );
//!
//! // Run it over a Δ-bounded asynchronous network with strobe clocks.
//! let trace = run_execution(&scenario, &ExecutionConfig::default());
//!
//! // Detect every occurrence of Σ(xᵢ−yᵢ) > 80 with vector strobes.
//! let predicate = Predicate::occupancy_over(3, 80);
//! let detections = detect_occurrences(
//!     &trace,
//!     &predicate,
//!     &scenario.timeline.initial_state(),
//!     Discipline::VectorStrobe,
//! );
//!
//! // Score against ground truth.
//! let truth = truth_intervals(&scenario.timeline, |s| predicate.eval_state(s));
//! let report = score(
//!     &detections,
//!     &truth,
//!     SimTime::from_secs(300),
//!     SimDuration::from_millis(200),
//!     BorderlinePolicy::AsPositive,
//! );
//! assert!(report.recall() >= 0.0); // see EXPERIMENTS.md for the real numbers
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use psn_clocks as clocks;
pub use psn_core as core;
pub use psn_lang as lang;
pub use psn_lattice as lattice;
pub use psn_predicates as predicates;
pub use psn_sim as sim;
pub use psn_sim::fault as faults;
pub use psn_sync as sync;
pub use psn_world as world;

/// Everything you need for the common workflow: generate a scenario, run
/// an execution, detect, score.
pub mod prelude {
    pub use psn_clocks::{
        Causality, LamportClock, LogicalClock, StrobeScalarClock, StrobeVectorClock, Timestamp,
        VectorClock, VectorStamp,
    };
    pub use psn_core::{
        run_execution, run_execution_instrumented, run_execution_profiled, run_execution_with_rule,
        ActuationRule, ClockConfig, ExecMetrics, ExecutionConfig, ExecutionTrace, StrobePolicy,
    };
    pub use psn_predicates::{
        detect_conjunctive, detect_occurrences, detect_occurrences_instrumented, score,
        AccuracyReport, BorderlinePolicy, Conjunct, Detection, DetectorMetrics, Discipline, Expr,
        Predicate, StampFamily,
    };
    pub use psn_sim::delay::DelayModel;
    pub use psn_sim::fault::{
        ChannelEffect, ChannelFaultRule, ChaosConfig, ClockFaultKind, CutPolicy, FaultScript,
        FaultSpec, FaultStats,
    };
    pub use psn_sim::loss::LossModel;
    pub use psn_sim::metrics::{Metrics, MetricsSnapshot};
    pub use psn_sim::telemetry::{Phase, Telemetry, TelemetrySnapshot};
    pub use psn_sim::time::{SimDuration, SimTime};
    pub use psn_world::scenarios::exhibition::{self, ExhibitionParams};
    pub use psn_world::scenarios::habitat::{self, HabitatParams};
    pub use psn_world::scenarios::hospital::{self, HospitalParams};
    pub use psn_world::scenarios::office::{self, OfficeParams};
    pub use psn_world::{truth_intervals, AttrKey, AttrValue, Scenario, TruthInterval, WorldState};
}

#[cfg(test)]
mod tests {
    use psn_sim::time::{SimDuration, SimTime};

    use crate::prelude::{FaultScript, FaultSpec};

    /// `faults` and the prelude name the simulator's own fault types.
    #[test]
    fn reexports_are_the_sim_types() {
        let script: psn_sim::fault::FaultScript = crate::faults::FaultScript::new().with(
            SimTime::from_secs(1),
            FaultSpec::Crash { actor: 0, recover_after: Some(SimDuration::from_secs(2)) },
        );
        let _: &FaultScript = &script;
        assert!(!script.is_empty());
    }
}
