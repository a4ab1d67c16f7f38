//! E15 — streaming detector: memory high-water and verdict fidelity vs
//! the event-rate·Δ product (paper §3.3, §6 plus the bounded-memory
//! claim behind the live service): the incremental antichain frontier
//! with Δ-bound GC must (a) return **bit-identical** `Possibly`/
//! `Definitely` verdicts to the offline whole-trace sweep at every
//! rate·Δ operating point, and (b) hold its peak buffered-cut count at
//! O(rate · hold-back) — a *window*, not the trace — even as rate·Δ
//! crosses 1 and the trace grows to tens of thousands of reports.
//!
//! Setup mirrors E8: exhibition hall at fixed Δ = 500 ms, arrival rate
//! swept over two orders of magnitude, capacity scaled to expected
//! occupancy. Each cell feeds every delivered report through
//! [`StreamingModal`] with a `2Δ` hold-back and compares the sealed
//! verdict against [`modal_status`].

use psn_core::{run_execution, run_execution_instrumented};
use psn_predicates::{modal_status, Predicate, StreamingModal};
use psn_sim::metrics::Metrics;
use psn_sim::sweep::run_sweep_auto;
use psn_sim::telemetry::Phase;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::truth_intervals;
use serde::Value;

use crate::common::delta_config;
use crate::obs_out::{self, cell_object};
use crate::table::Table;

struct Cell {
    reports: usize,
    truth: usize,
    possibly: usize,
    definitely: usize,
    matches: bool,
    mem_high: u64,
    width: usize,
    pruned: usize,
}

/// Run E15.
pub fn run(quick: bool) -> Table {
    let seeds: Vec<u64> = (0..if quick { 3 } else { 8 }).collect();
    let delta = SimDuration::from_millis(500);
    let hold_back = SimDuration::from_millis(2 * 500 + 1);
    let rates: &[f64] = &[0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0];

    let mut table = Table::new(
        "E15 — streaming detector memory & fidelity vs event-rate·Δ (Δ = 500 ms, hold-back 2Δ)",
        &[
            "λ (1/s)",
            "rate·Δ",
            "reports",
            "truth",
            "possibly",
            "definitely",
            "≡ offline",
            "mem high (cuts)",
            "mem/reports",
            "width max",
            "pruned",
        ],
    );

    for &rate in rates {
        let mean_stay = SimDuration::from_secs(60);
        let capacity = (rate * 60.0).round() as i64;
        let params = ExhibitionParams {
            doors: 4,
            arrival_rate_hz: rate,
            mean_stay,
            duration: SimTime::from_secs(900),
            capacity: capacity.max(2),
        };
        let cells: Vec<Cell> = run_sweep_auto(&seeds, |_, &seed| {
            let scenario = exhibition::generate(&params, 4000 + seed);
            let pred = Predicate::occupancy_over(params.doors, params.capacity);
            let init = scenario.timeline.initial_state();
            let truth = truth_intervals(&scenario.timeline, |s| pred.eval_state(s));
            let trace = run_execution(&scenario, &delta_config(delta, seed));
            let mut s = StreamingModal::new(&pred, &init, trace.n, hold_back);
            for r in &trace.log.reports {
                s.offer(r);
            }
            let mem_high = s.mem_high_water_cuts();
            let width = s.frontier_width();
            let pruned = s.pruned_intervals();
            let streamed = s.seal();
            let offline = modal_status(&trace, &pred, &init);
            Cell {
                reports: trace.log.reports.len(),
                truth: truth.len(),
                possibly: streamed.possibly,
                definitely: streamed.definitely,
                matches: streamed == offline,
                mem_high,
                width,
                pruned,
            }
        });

        // One extra profiled pass per rate when an --obs-out sink is open:
        // the detector phase is timed around the full offer loop so
        // `psn-profile` sees a `detector` column next to the engine phases.
        if obs_out::is_enabled() {
            emit_obs_cell(&params, delta, hold_back, rate);
        }

        let reports: usize = cells.iter().map(|c| c.reports).sum();
        let truth: usize = cells.iter().map(|c| c.truth).sum();
        let possibly: usize = cells.iter().map(|c| c.possibly).sum();
        let definitely: usize = cells.iter().map(|c| c.definitely).sum();
        let all_match = cells.iter().all(|c| c.matches);
        let mem_high = cells.iter().map(|c| c.mem_high).max().unwrap_or(0);
        let width = cells.iter().map(|c| c.width).max().unwrap_or(0);
        let pruned: usize = cells.iter().map(|c| c.pruned).sum();
        let mem_frac = if reports == 0 {
            0.0
        } else {
            mem_high as f64 / (reports as f64 / cells.len().max(1) as f64)
        };
        let rate_delta = 2.0 * rate * delta.as_secs_f64();
        table.row(vec![
            format!("{rate}"),
            format!("{rate_delta:.2}"),
            reports.to_string(),
            truth.to_string(),
            possibly.to_string(),
            definitely.to_string(),
            if all_match { "yes".to_string() } else { "NO".to_string() },
            mem_high.to_string(),
            format!("{mem_frac:.4}"),
            width.to_string(),
            pruned.to_string(),
        ]);
    }
    table.note(
        "Streaming verdicts must equal the offline sweep at every rate (≡ offline = \
         yes). Peak buffered cuts track rate·hold-back — the mem/reports fraction \
         falls as traces grow — while the whole-trace sweep would hold all R \
         reports. Width is the widest advancement frontier observed; pruned counts \
         intervals dropped by Δ-bound GC before advancement consumed them.",
    );
    table
}

fn emit_obs_cell(params: &ExhibitionParams, delta: SimDuration, hold_back: SimDuration, rate: f64) {
    let scenario = exhibition::generate(params, 4000);
    let pred = Predicate::occupancy_over(params.doors, params.capacity);
    let init = scenario.timeline.initial_state();
    let metrics = Metrics::new();
    let telemetry = metrics.telemetry();
    let trace = run_execution_instrumented(&scenario, &delta_config(delta, 0), &metrics);
    let tel = telemetry.coordinator();
    let mut s = StreamingModal::new(&pred, &init, trace.n, hold_back);
    let t0 = tel.start();
    for r in &trace.log.reports {
        s.offer(r);
    }
    std::hint::black_box(s.seal());
    tel.record(Phase::Detector, t0);
    obs_out::emit_cell(
        "e15",
        cell_object(
            &format!("rate={rate}"),
            &[
                ("rate_hz", Value::Str(format!("{rate}"))),
                ("delta_ms", Value::UInt(delta.as_nanos() / 1_000_000)),
                ("reports", Value::UInt(trace.log.reports.len() as u64)),
            ],
        ),
        &metrics,
    );
}
