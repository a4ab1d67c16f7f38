//! # psn-serve — the live detection service
//!
//! The paper's execution model (§2.2) is *on-line*: reports stream into
//! the root while predicate verdicts must be available continuously, not
//! after a batch run ends. This crate turns the repository's deterministic
//! engine into a long-running service:
//!
//! - [`wire`] — a length-prefixed JSON frame protocol over TCP: ingest
//!   sense events, advance the watermark, query the causal frontier,
//!   register predicates and read their `Possibly`/`Definitely` + online
//!   status, page through the report stream, snapshot, shut down;
//! - [`session`] — the single-threaded state machine behind the protocol:
//!   a [`psn_core::live::LiveExecution`] that ingests directly plus one
//!   named [`psn_predicates::StreamingModal`] per watched predicate, with
//!   whole-session snapshot/restore built on deterministic journal replay;
//! - [`server`] — connection fan-in: reader threads decode frames and apply
//!   each burst under one session lock, so no wire input — malformed or
//!   otherwise — can panic or wedge the engine;
//! - [`http`] — an optional Prometheus-text `GET /metrics` endpoint
//!   (`--metrics-listen`) that snapshots the session's `Arc`-shared
//!   observability registry without taking the session lock.
//!
//! The `psn-serve` binary wraps this into a CLI (see `--help`); its
//! `--smoke` mode runs a scripted ingest-detect-snapshot-restore cycle
//! against a real socket and exits nonzero on any mismatch, which is what
//! CI's serve-smoke job executes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod server;
pub mod session;
pub mod wire;

pub use http::{serve_metrics, HttpHandle};
pub use server::{serve, ServerHandle};
pub use session::{ServeConfig, ServeSession, ServeSnapshot};
pub use wire::{read_frame, write_frame, ErrorCode, Request, Response, WireError, MAX_FRAME};
