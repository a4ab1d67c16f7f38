//! # psn-sim — deterministic simulation substrate
//!
//! The paper *Execution and Time Models for Pervasive Sensor Networks*
//! (Kshemkalyani, Khokhar, Shen; IPPS 2011 / IJNC 2012) analyses clock and
//! predicate-detection protocols for sensor-actuator networks in terms of
//! event orderings under three message-delay regimes (synchronous Δ = 0,
//! asynchronous Δ-bounded, asynchronous unbounded). This crate is the
//! substrate on which every experiment in this repository runs: a
//! **deterministic discrete-event simulator** with
//!
//! - integer-nanosecond ground-truth time ([`time`]),
//! - per-entity splittable random streams ([`rng`]),
//! - a stable-tie-breaking future-event list (`queue`),
//! - the paper's delay models and message-loss models ([`delay`], [`loss`]),
//! - dynamic logical overlays with broadcast, FIFO/non-FIFO channels and
//!   byte accounting ([`network`]),
//! - an actor-based engine ([`engine`]) whose sharded mode exchanges
//!   cross-shard messages through one channel into each shard,
//! - structured network-plane run traces ([`trace`]) with Chrome
//!   trace-event / JSONL exporters ([`trace_export`]) and an offline
//!   loss- and fault-vicinity index ([`trace_analysis`]),
//! - summary statistics ([`stats`]),
//! - a deterministic parallel sweep runner ([`sweep`]), and
//! - a run-wide metrics/instrumentation registry ([`metrics`]) and a
//!   phase-scoped wall-clock telemetry plane ([`telemetry`]), both of
//!   whose recording provably never perturbs simulation results.
//!
//! Every run is a pure function of `(actors, network, seed)`; sweeps return
//! identical results at any thread count.
//!
//! ## Example
//!
//! ```
//! use psn_sim::prelude::*;
//!
//! #[derive(Clone)]
//! struct Hello(u64);
//! impl Message for Hello {
//!     fn size_bytes(&self) -> usize { 8 }
//! }
//!
//! struct Greeter { peer: ActorId }
//! impl Actor<Hello> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if ctx.id() == 0 { ctx.send(self.peer, Hello(1)); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Hello>, _from: ActorId, msg: Hello) {
//!         if msg.0 < 3 { ctx.send(self.peer, Hello(msg.0 + 1)); }
//!     }
//! }
//!
//! let net = NetworkConfig::full_mesh(2, DelayModel::delta(SimDuration::from_millis(10)));
//! let mut engine = Engine::new(net, 42);
//! engine.add_actor(Box::new(Greeter { peer: 1 }));
//! engine.add_actor(Box::new(Greeter { peer: 0 }));
//! engine.run();
//! assert_eq!(engine.stats().messages_delivered, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod engine;
pub mod fault;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod provider;
mod queue;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod trace_analysis;
pub mod trace_export;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::delay::DelayModel;
    pub use crate::engine::{Actor, Context, Engine, EngineError, Message};
    pub use crate::fault::{
        ChannelEffect, ChannelFaultRule, ChaosConfig, ClockFaultKind, CutPolicy, FaultEvent,
        FaultScript, FaultSpec, FaultStats, ScriptedFault,
    };
    pub use crate::loss::LossModel;
    pub use crate::metrics::{Counter, Gauge, Metrics, MetricsSnapshot, Timer};
    pub use crate::network::{ActorId, NetStats, NetworkConfig, Topology};
    pub use crate::provider::{ChannelProvider, EventProvider, ExternalEvent, TimelineProvider};
    pub use crate::rng::{RngFactory, RngStream};
    pub use crate::stats::OnlineStats;
    pub use crate::sweep::{run_sweep, run_sweep_auto, run_sweep_instrumented};
    pub use crate::telemetry::{Phase, ShardTelemetry, Telemetry, TelemetrySnapshot};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{MsgId, Trace, TraceKind, TraceRecord};
    pub use crate::trace_analysis::TraceAnalysis;
}
