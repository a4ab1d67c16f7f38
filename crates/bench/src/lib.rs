//! # psn-bench — experiment harness and benchmarks
//!
//! - [`experiments`] — E1–E10, one per quantitative claim in the paper
//!   (run them with `cargo run --release -p psn-bench --bin experiments`);
//! - [`table`] — markdown/CSV result tables;
//! - [`cli`] — strict argument reading shared by the binaries;
//! - [`common`] — shared scaffolding (controlled two-pulse scenarios,
//!   strobe-stamp histories, per-clock-family byte accounting);
//! - [`obs_out`] — the `--obs-out` JSONL sink: one line per instrumented
//!   cell, carrying the cell parameters and both sections of its
//!   [`psn_sim::metrics::Metrics`] registry — the deterministic
//!   `MetricsSnapshot` and the phase-profiling `TelemetrySnapshot` the
//!   `psn-profile` report tool reads;
//! - [`trace_out`] — the `--trace-out` sink: one network-plane
//!   structured trace file per experiment cell (Chrome trace-event JSON
//!   for Perfetto, or JSONL).
//!
//! Criterion micro-benchmarks live in `benches/` (clock operations,
//! detectors, lattice enumeration, engine throughput, sweep scaling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod common;
pub mod experiments;
pub mod obs_out;
pub mod table;
pub mod trace_out;

// Tests of the two sections of an `obs_out` record, one module each.
#[cfg(test)]
mod metrics_out;
#[cfg(test)]
mod telemetry_out;

pub use table::Table;
