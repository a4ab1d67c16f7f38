//! # psn-clocks — the paper's clock zoo
//!
//! Every clock in the implementation design space of *Execution and Time
//! Models for Pervasive Sensor Networks* (§3.2):
//!
//! | Module | Clock | Paper rules | Ticks on receive? | Wire size |
//! |---|---|---|---|---|
//! | [`lamport`] | Lamport scalar | SC1–SC3 | yes | O(1) |
//! | [`vector`] | Mattern/Fidge vector | VC1–VC3 | yes | O(n) |
//! | [`strobe_scalar`] | Strobe scalar | SSC1–SSC2 | **no** | O(1) |
//! | [`strobe_vector`] | Strobe vector | SVC1–SVC2 | **no** | O(n) |
//! | [`physical`] | Drifting oscillator / ε-synced clock | §3.2.1.a.i–ii | – | O(1) |
//! | [`physical_vector`] | Physical vector | §3.2.1.b.ii | yes | O(n) |
//!
//! The key structural distinction (paper §4.2.3): **causality-based**
//! clocks tick on in-network receives and piggyback stamps on computation
//! messages; **strobe** clocks tick only on relevant (sensed) events,
//! broadcast their value as a control message, and merge without ticking.

// `unsafe` only in the SIMD merge kernels of `vector.rs`, each item
// allowed by name; everything else in the crate is held to the lint.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
pub mod lamport;
pub mod physical;
pub mod physical_vector;
pub mod strobe_scalar;
pub mod strobe_vector;
mod traits;
pub mod vector;

pub use compressed::{DiffSender, VectorDiff};
pub use lamport::{LamportClock, ScalarStamp};
pub use physical::{Oscillator, PhysReading, SyncedClock};
pub use physical_vector::{PhysVectorClock, PhysVectorStamp};
pub use strobe_scalar::StrobeScalarClock;
pub use strobe_vector::StrobeVectorClock;
pub use traits::{Causality, LogicalClock, ProcessId, Timestamp};
pub use vector::{VectorClock, VectorStamp};
