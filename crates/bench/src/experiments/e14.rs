//! E14 — strong scaling of the sharded engine vs n and shard count.
//!
//! The paper's execution model ⟨P, L, O, C⟩ puts no ceiling on |P|; the
//! sharded engine (`ExecutionConfig::shards`) is what lets a single run
//! use more than one core without giving up bit-determinism. Its speedup
//! is bounded by how much work fits between two barriers — one *window*
//! spans the network plane's minimum delay (the lookahead), so the
//! parallelizable work per synchronization grows with **n × lookahead**
//! and collapses when fault-plane ops force extra barriers.
//!
//! Each cell runs one exhibition workload at every shard count and
//! reports, besides wall time, machine-independent shape quantities:
//!
//! - `win(con)` / `ops` — barrier counts of the conservative sharded run,
//!   split by cause: `win(con)` counts lookahead windows
//!   (`engine.windows`) and `ops` counts fault-plane sub-barriers
//!   (`engine.op_barriers`). Both are identical for every shard count
//!   above 1: the schedule depends on event times, op times, and
//!   lookahead only;
//! - `ev/window` — events per window, the per-barrier parallel work. The
//!   shape claim is that this column grows ~linearly with n (at fixed
//!   event rate per node) and the speedup on a multicore machine follows
//!   it; wall-clock rates on the snapshot machine are also printed but are
//!   meaningless when the machine has a single core (the table note
//!   records the core count).
//!
//! Every shard count is asserted bit-identical to the sequential run
//! before its timing is reported, so a row in this table is also an
//! equivalence proof over its workload.
//!
//! The last rows demonstrate the two boundary behaviours: a partition-
//! heavy fault script (barriers multiply, `ev/window` collapses) and a
//! sparse-topology cell above [`psn_sim::engine::DENSE_ACTOR_LIMIT`]
//! (n = 10 000 fits in memory because the FIFO store switches to the
//! sparse path).

use std::time::Instant;

use psn_core::{
    run_execution_instrumented, run_execution_profiled, ExecutionConfig, ExecutionTrace,
};
use psn_sim::delay::DelayModel;
use psn_sim::fault::{CutPolicy, FaultScript, FaultSpec};
use psn_sim::metrics::Metrics;
use psn_sim::telemetry::Telemetry;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};

use crate::metrics_out::cell_object;
use crate::table::Table;
use crate::telemetry_out;
use serde::Value;

/// The Δ-band every E14 cell runs under: 40 ms minimum (= the sharded
/// engine's lookahead), 240 ms ceiling.
fn delay() -> DelayModel {
    DelayModel::DeltaBounded {
        min: SimDuration::from_millis(40),
        max: SimDuration::from_millis(240),
    }
}

struct Cell {
    events: u64,
    windows: u64,
    op_barriers: u64,
    wall: f64,
    trace: ExecutionTrace,
}

fn run_cell(n: usize, shards: usize, faults: Option<FaultScript>, duration: SimTime) -> Cell {
    let params = ExhibitionParams {
        doors: n,
        arrival_rate_hz: (n as f64) / 64.0,
        mean_stay: SimDuration::from_secs(60),
        duration,
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let faulted = faults.is_some();
    let cfg = ExecutionConfig { delay: delay(), seed: 1, shards, faults, ..Default::default() };
    let metrics = Metrics::new();
    // With a --telemetry-out sink open, run through the profiled entry
    // point and emit one JSONL record per cell; otherwise the registry is
    // disabled and the run is exactly as before.
    let telemetry =
        if telemetry_out::is_enabled() { Telemetry::new() } else { Telemetry::disabled() };
    let t0 = Instant::now();
    let trace = run_execution_profiled(&scenario, &cfg, &metrics, &telemetry);
    let wall = t0.elapsed().as_secs_f64();
    let snap = metrics.snapshot();
    if telemetry.is_enabled() {
        let label = format!("n={n} shards={shards}");
        telemetry_out::emit_cell(
            "e14",
            cell_object(
                &label,
                &[
                    ("n", Value::UInt(n as u64)),
                    ("shards", Value::UInt(shards as u64)),
                    ("faults", Value::Bool(faulted)),
                ],
            ),
            &snap,
            &telemetry.snapshot(),
        );
    }
    Cell {
        events: snap.counter("engine.events_processed").unwrap_or(0),
        windows: snap.counter("engine.windows").unwrap_or(0),
        op_barriers: snap.counter("engine.op_barriers").unwrap_or(0),
        wall,
        trace,
    }
}

/// Assert the sharded run reproduced the sequential one bit for bit.
fn assert_identical(seq: &ExecutionTrace, par: &ExecutionTrace, n: usize, shards: usize) {
    assert_eq!(
        seq.log.events, par.log.events,
        "n={n} shards={shards}: events diverged from sequential"
    );
    assert_eq!(seq.log.reports, par.log.reports, "n={n} shards={shards}: reports diverged");
    assert_eq!(seq.net, par.net, "n={n} shards={shards}: net counters diverged");
    assert_eq!(seq.faults, par.faults, "n={n} shards={shards}: fault stats diverged");
    assert_eq!(seq.ended_at, par.ended_at, "n={n} shards={shards}: end time diverged");
}

/// A partition-heavy script: the first half of the nodes is cut off and
/// healed every 500 ms for the whole run. Each cut and each heal is a
/// coordinator barrier, so effective lookahead — and with it `ev/window` —
/// collapses.
fn partition_storm(n: usize, duration: SimTime) -> FaultScript {
    let group: Vec<usize> = (0..n / 2).collect();
    let mut script = FaultScript::new();
    let mut at = SimTime::from_millis(500);
    while at < duration {
        script = script.with(
            at,
            FaultSpec::Partition {
                group: group.clone(),
                heal_after: SimDuration::from_millis(250),
                policy: CutPolicy::Park,
            },
        );
        at += SimDuration::from_millis(500);
    }
    script
}

/// Run E14.
pub fn run(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[16, 64] } else { &[64, 256, 1024] };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let duration = SimTime::from_secs(if quick { 20 } else { 60 });

    let mut table = Table::new(
        "E14 — strong scaling vs n and shard count (exhibition, Δ ∈ [40 ms, 240 ms])",
        &["n", "faults", "events", "win(con)", "ops", "ev/window", "seq ev/s", "con ev/s"],
    );

    let mut fault_rows: Vec<(usize, Option<FaultScript>, &str)> =
        ns.iter().map(|&n| (n, None, "none")).collect();
    // The collapse row: the largest n again, under the partition storm.
    let n_max = *ns.last().expect("nonempty ns");
    fault_rows.push((n_max, Some(partition_storm(n_max, duration)), "partition storm"));

    for (n, faults, fault_label) in fault_rows {
        let seq = run_cell(n, 1, faults.clone(), duration);
        let mut best_rate = 0.0f64;
        let mut windows = 0u64;
        let mut op_barriers = 0u64;
        for &k in shard_counts {
            let par = run_cell(n, k, faults.clone(), duration);
            assert_identical(&seq.trace, &par.trace, n, k);
            windows = windows.max(par.windows);
            op_barriers = op_barriers.max(par.op_barriers);
            best_rate = best_rate.max(par.events as f64 / par.wall);
        }
        let seq_rate = seq.events as f64 / seq.wall;
        let ev_per_window = if windows > 0 { seq.events as f64 / windows as f64 } else { f64::NAN };
        table.row(vec![
            n.to_string(),
            fault_label.to_string(),
            seq.events.to_string(),
            windows.to_string(),
            op_barriers.to_string(),
            format!("{ev_per_window:.0}"),
            format!("{seq_rate:.0}"),
            format!("{best_rate:.0}"),
        ]);
    }

    // Sparse-topology cell: n above DENSE_ACTOR_LIMIT, so the channel
    // store runs on the sparse path — the point is that it runs (dense
    // would want an O(n²) matrix) and still matches sequential.
    let n_sparse = if quick { 2500 } else { 10_000 };
    let sparse_duration = SimTime::from_secs(4);
    let params = ExhibitionParams {
        doors: n_sparse,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(60),
        duration: sparse_duration,
        capacity: 240,
    };
    let scenario = exhibition::generate(&params, 11);
    let run_sparse = |shards: usize| {
        let cfg = ExecutionConfig { delay: delay(), seed: 1, shards, ..Default::default() };
        let metrics = Metrics::new();
        let t0 = Instant::now();
        let trace = run_execution_instrumented(&scenario, &cfg, &metrics);
        let wall = t0.elapsed().as_secs_f64();
        let snap = metrics.snapshot();
        (trace, snap.counter("engine.events_processed").unwrap_or(0), wall)
    };
    let (seq_trace, seq_events, seq_wall) = run_sparse(1);
    let (par_trace, par_events, par_wall) = run_sparse(4);
    assert_identical(&seq_trace, &par_trace, n_sparse, 4);
    table.row(vec![
        format!("{n_sparse} (sparse)"),
        "none".to_string(),
        seq_events.to_string(),
        "—".to_string(),
        "—".to_string(),
        "—".to_string(),
        format!("{:.0}", seq_events as f64 / seq_wall),
        format!("{:.0}", par_events as f64 / par_wall),
    ]);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    table.note(format!(
        "Every shard count is asserted bit-identical to its sequential run before timing. \
         `win(con)` counts lookahead windows (`engine.windows`); `ops` counts fault-plane \
         sub-barriers separately (`engine.op_barriers`). `con ev/s` is the best over all \
         shard counts (contiguous partition). Shape claim: parallel work per lookahead window \
         (`ev/window`) grows ~linearly with n at fixed per-node event rate — wall-clock \
         speedup on a multicore machine follows it, and the partition-storm row shows the \
         collapse when fault ops multiply barriers and shrink effective lookahead (windows + \
         ops ↑, ev/window ↓). Wall-clock columns measured on {cores} core(s); with a single \
         core the sharded rates can only show coordination overhead (≤1x by construction).",
    ));
    table
}
