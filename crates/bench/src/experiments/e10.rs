//! E10 — The §3.3 trade-off matrix: the four options for implementing the
//! single time axis (perfect physical, ε-synced physical, logical scalar
//! strobes, logical vector strobes), compared on one execution for
//! accuracy, message cost, and assumptions.

use psn_core::{family_bytes, run_execution};
use psn_predicates::{detect_occurrences, score, BorderlinePolicy, Discipline, Predicate};
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::truth_intervals;

use crate::common::delta_config;
use crate::table::Table;

/// Run E10.
pub fn run(quick: bool) -> Table {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: if quick { 2.0 } else { 4.0 },
        mean_stay: SimDuration::from_secs(60),
        duration: SimTime::from_secs(1200),
        capacity: if quick { 120 } else { 240 },
    };
    let delta = SimDuration::from_millis(500);
    let scenario = exhibition::generate(&params, 31);
    let pred = Predicate::occupancy_over(params.doors, params.capacity);
    let truth = truth_intervals(&scenario.timeline, |s| pred.eval_state(s));
    let trace = run_execution(&scenario, &delta_config(delta, 3));
    let init = scenario.timeline.initial_state();
    let reports = trace.log.reports.len() as u64;
    let [strobe_scalar, strobe_vector, _] = family_bytes(trace.n, trace.net.broadcasts, reports);
    let events = trace.log.sense_events().len().max(1) as u64;

    let mut table = Table::new(
        "E10 — single-time-axis implementation options (one execution, Δ = 500 ms)",
        &[
            "option",
            "FP",
            "FN",
            "borderline",
            "precision",
            "recall",
            "bytes/event",
            "needs lower-layer sync?",
        ],
    );

    let rows: Vec<(Discipline, &str, u64, &str)> = vec![
        (Discipline::Oracle, "perfect physical (ideal, impractical)", 0, "yes (perfect)"),
        (Discipline::SyncedPhysical, "ε-synced physical (RBS/TPSN)", 0, "yes (ε service)"),
        (Discipline::UnsyncedPhysical, "raw local oscillators", 0, "no"),
        (Discipline::ScalarStrobe, "logical scalar strobes (SSC)", strobe_scalar / events, "no"),
        (Discipline::VectorStrobe, "logical vector strobes (SVC)", strobe_vector / events, "no"),
    ];

    for (d, label, bytes, sync) in rows {
        let det = detect_occurrences(&trace, &pred, &init, d);
        let r = score(
            &det,
            &truth,
            params.duration,
            SimDuration::from_millis(1200),
            BorderlinePolicy::AsPositive,
        );
        table.row(vec![
            label.to_string(),
            r.false_positives.to_string(),
            r.false_negatives.to_string(),
            r.borderline.to_string(),
            format!("{:.3}", r.precision()),
            format!("{:.3}", r.recall()),
            bytes.to_string(),
            sync.to_string(),
        ]);
    }
    table.note(
        "Paper's §3.3 trade-off: physical sync buys accuracy at the cost of a \
         lower-layer service (energy, cross-layer dependence, privacy); strobe \
         clocks avoid the service at the cost of race-window errors — scalars \
         cheap (O(1)) but FP+FN, vectors O(n) with the borderline bin.",
    );
    table
}
