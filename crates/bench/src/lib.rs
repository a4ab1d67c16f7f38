//! # psn-bench — experiment harness and benchmarks
//!
//! - [`experiments`] — E1–E10, one per quantitative claim in the paper
//!   (run them with `cargo run --release -p psn-bench --bin experiments`);
//! - [`table`] — markdown/CSV result tables;
//! - [`common`] — shared scaffolding (controlled two-pulse scenarios,
//!   strobe-stamp histories, per-clock-family byte accounting);
//! - [`metrics_out`] — the `--metrics-out` JSONL sink: one line per
//!   instrumented experiment cell, carrying the cell parameters and a full
//!   [`psn_sim::metrics::MetricsSnapshot`];
//! - [`trace_out`] — the `--trace-out` sink: one causally stamped
//!   structured trace file per experiment cell (Chrome trace-event JSON
//!   for Perfetto, or JSONL);
//! - [`telemetry_out`] — the `--telemetry-out` sink: one JSONL record per
//!   cell with both the metrics and the phase-profiling
//!   [`psn_sim::telemetry::TelemetrySnapshot`], consumed by the
//!   `psn-profile` report tool.
//!
//! Criterion micro-benchmarks live in `benches/` (clock operations,
//! detectors, lattice enumeration, engine throughput, sweep scaling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod experiments;
pub mod metrics_out;
pub mod table;
pub mod telemetry_out;
pub mod trace_out;

pub use table::Table;
