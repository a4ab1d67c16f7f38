//! # psn-world — the world plane ⟨O, C⟩
//!
//! The paper models a pervasive environment as ⟨P, L, O, C⟩ (§2.1): besides
//! the network plane ⟨P, L⟩, there is a **world plane** of external objects
//! `O` that communicate over covert channels `C` — channels the network
//! plane cannot observe, which is precisely why world-plane causality
//! cannot be tracked and why the partial-order time model fails as a
//! *specification* tool (§4.1).
//!
//! This crate provides:
//!
//! - [`object`] — objects, attributes, and the ground-truth [`object::WorldState`];
//! - [`timeline`] — the event timeline with covert-channel `caused_by`
//!   edges (ground truth invisible to detectors);
//! - `ground_truth` — exact truth intervals of any predicate, for scoring
//!   detector accuracy;
//! - `mobility` — room-graph walkers and random-waypoint motion;
//! - [`scenarios`] — the paper's application scenarios: exhibition hall
//!   (§5), smart office (§3.1), hospital (§5), and habitat monitoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ground_truth;
mod mobility;
pub mod object;
pub mod scenarios;
pub mod timeline;

pub use ground_truth::{truth_intervals, TruthInterval};
pub use object::{AttrKey, AttrValue, ObjectSpec, WorldState};
pub use scenarios::{Scenario, SensorAssignment};
pub use timeline::{Timeline, WorldEvent, WorldEventId};
