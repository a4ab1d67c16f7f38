//! # psn-predicates — specification and detection of global predicates
//!
//! The paper's detection problem (§3.3): detect **each occurrence** of a
//! predicate φ on sensed world attributes under the *Instantaneously*
//! modality, with Δ-bounded asynchronous messages, using either the single
//! time axis (scalar clocks) or the multiple time axis (vector clocks).
//!
//! - [`spec`] — the predicate language: conjunctive and relational
//!   predicates over world attributes (§3.1.2);
//! - [`detect`] — the relational sweep: one edge state machine, six clock
//!   disciplines (oracle / ε-synced physical / unsynced physical / arrival
//!   / scalar strobe / vector strobe with the borderline bin), run over a
//!   whole trace here and one released report at a time by [`stream`];
//! - [`causal`] — `Possibly` / `Definitely` detection of conjunctive
//!   predicates over vector-stamped intervals (Cooper–Marzullo modalities,
//!   Garg–Waldecker advancement), under causal or strobe stamps;
//! - [`accuracy`] — FP/FN scoring against ground truth with tolerance and
//!   the borderline policy (§5's "err on the safe side");
//! - [`online`] — the on-line readout ([`OnlineStatus`]) a live query
//!   reads from the streaming detector;
//! - [`stream`] — the on-line detector: reports held back and released in
//!   strobe order, `Possibly`/`Definitely` in O(window) memory via the
//!   incremental antichain frontier and Δ-bound GC, exact
//!   [`modal::modal_status`] answers at any prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod analytic;
pub mod causal;
pub mod detect;
pub mod modal;
pub mod online;
pub mod spec;
pub mod stream;
pub mod timing;

pub use accuracy::{detection_matches, score, AccuracyReport, BorderlinePolicy};
pub use analytic::{fn_probability_synced, race_probability};
pub use causal::{detect_conjunctive, CausalOccurrence, StampFamily};
pub use detect::{detect_occurrences, Detection, Discipline};
pub use modal::{modal_status, ModalStatus};
pub use online::OnlineStatus;
pub use spec::{Conjunct, Expr, Predicate};
pub use stream::{modal_status_streaming, StreamingModal};
pub use timing::{detect_timing, TimingMatch, TimingSpec};
