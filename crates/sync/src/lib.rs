//! # psn-sync — the physical-clock-synchronization baseline
//!
//! The paper's thesis is comparative: strobe clocks (partial-order logical
//! time) are a viable *alternative* to physically synchronized clocks when
//! the latter are unavailable or too expensive (§3.3). To make that
//! comparison concrete, this crate implements the baseline: drifting
//! oscillators (from `psn-clocks`) brought into sync by
//!
//! - [`rbs`] — a Reference-Broadcast-Synchronization-like receiver-receiver
//!   protocol, and
//! - [`tpsn`] — a TPSN-like two-way sender-receiver exchange over a tree,
//!
//! with `skew` measuring the achieved ε, [`cost`] pricing the messages
//! in radio energy, and [`recovery`] planning the post-crash resync round
//! (when the ε bound holds again, and what the repair costs). Experiments
//! E1 (ε → detection accuracy), E7 ("sync is not free") and E11/E12
//! (crash/partition resilience) consume these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod on_demand;
pub mod rbs;
pub mod recovery;
mod skew;
pub mod tpsn;

/// The protocols' shared clock state is poisoned only if a node actor
/// panicked while holding it.
const NODES_POISONED: &str = "a node actor panicked while holding the shared clock state";

pub use cost::CostModel;
pub use on_demand::{run_on_demand, OnDemandOutcome, OnDemandParams};
pub use rbs::{run_rbs, RbsParams, SyncOutcome};
pub use recovery::{plan_resync, ResyncParams, ResyncPlan};
pub use tpsn::{run_tpsn, TpsnParams};
