//! # psn-lattice — consistent global states and interval relations
//!
//! The second use of partial-order time in the paper (§4.1–4.2.4): the
//! lattice of consistent global states. In pervasive observation the
//! network plane cannot capture world-plane dependencies, so without
//! strobes the lattice degenerates to *all* O(pⁿ) interleavings — "the
//! state lattice becomes effectively meaningless". Strobe traffic induces
//! an artificial partial order that prunes it; at Δ = 0 it collapses to a
//! chain of n·p states (the **slim lattice postulate**, §4.2.4).
//!
//! - [`history`] — vector-stamped per-process histories, consistent cuts;
//! - [`lattice`] — BFS enumeration, level profile, width;
//! - [`slim`] — the E4 measurements (states vs O(pⁿ) vs chain);
//! - [`intervals`] — Allen's 13 real-time relations and the
//!   possibly/definitely overlap tests on vector-stamped intervals;
//! - [`stream`] — the Garg–Waldecker interval advancement every
//!   conjunctive `Possibly`/`Definitely` detector runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod fine_grained;
pub mod history;
pub mod intervals;
pub mod lattice;
pub mod slim;
pub mod stream;

pub use history::History;
pub use intervals::{allen_relation, Allen, StampedInterval};
pub use lattice::{enumerate_lattice, LatticeStats};
pub use slim::{measure, SlimReport};
pub use stream::{AdvancementFrontier, FrontierInterval, FrontierOccurrence, PeerGate};
