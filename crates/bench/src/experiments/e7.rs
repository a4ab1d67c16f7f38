//! E7 — "This service does not come for free" (paper §3.2.1.a.ii, §3.3
//! limitation 1) and the strobe payload asymmetry (§4.2.2: the scalar
//! strobe "is lightweight — strobe size is O(1), not O(n)").
//!
//! Setup: a low-rate habitat-style deployment of n stations over one
//! simulated hour. Compare, as n grows:
//! - bytes on the air per sensed event for scalar strobes (O(1) payload ×
//!   n−1 receivers), vector strobes (O(n) payload × n−1 receivers), and
//!   the causal piggyback on reports;
//! - the radio energy of the event-driven strobe protocol vs a physical
//!   clock-sync service (RBS every 30 s, and TPSN every 30 s) running for
//!   the same hour regardless of events.

use psn_core::{family_bytes, run_execution_instrumented};
use psn_sim::time::{SimDuration, SimTime};
use psn_sync::{run_rbs, run_tpsn, CostModel, RbsParams, TpsnParams};
use psn_world::scenarios::habitat::{self, HabitatParams};

use crate::common::delta_config;
use crate::obs_out;
use crate::table::Table;
use crate::trace_out;

/// Run E7.
pub fn run(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64] };
    let duration = SimTime::from_secs(3600);
    let resync_every = 30.0; // seconds
    let cost = CostModel::default();

    let mut table = Table::new(
        "E7 — message/energy overhead vs n (1h habitat deployment, ~rare events)",
        &[
            "n",
            "events",
            "scalar-strobe B",
            "vector-strobe B",
            "piggyback B",
            "strobe energy",
            "RBS energy/h",
            "TPSN energy/h",
        ],
    );

    for &n in ns {
        let params = HabitatParams {
            stations: n,
            animals: (n / 2).max(1),
            mean_dwell: SimDuration::from_secs(600),
            duration,
        };
        let seed = 1u64;
        let scenario = habitat::generate(&params, 42);
        // An enabled registry only when `--obs-out` opened a sink; engine
        // trace recording only when `--trace-out` opened one. The run is
        // bit-identical either way (core's instrumentation tests).
        let metrics = obs_out::registry();
        let mut cfg = delta_config(SimDuration::from_millis(300), seed);
        cfg.record_sim_trace = trace_out::is_enabled();
        let trace = run_execution_instrumented(&scenario, &cfg, &metrics);
        obs_out::emit_cell(
            "e7",
            obs_out::cell_object(
                &format!("n={n}"),
                &[
                    ("n", serde::Value::UInt(n as u64)),
                    ("delta_ms", serde::Value::UInt(300)),
                    ("seed", serde::Value::UInt(seed)),
                ],
            ),
            &metrics,
        );
        trace_out::emit_cell_trace("e7", &format!("n={n}"), &trace.sim, trace.n);
        let reports = trace.log.reports.len() as u64;
        let [strobe_scalar, strobe_vector, piggyback] =
            family_bytes(trace.n, trace.net.broadcasts, reports);
        // Event-driven protocol energy: strobe broadcasts (scalar payload)
        // + reports.
        let strobe_energy = cost.energy(
            trace.net.messages_sent,
            trace.net.messages_delivered,
            strobe_scalar + piggyback,
        );
        let rounds = (duration.as_secs_f64() / resync_every).ceil();
        let rbs = run_rbs(&RbsParams { receivers: n.max(2), beacons: 5, ..Default::default() }, 7);
        let tpsn = run_tpsn(&TpsnParams { children: n, rounds: 2, ..Default::default() }, 7);
        table.row(vec![
            n.to_string(),
            scenario.timeline.len().to_string(),
            strobe_scalar.to_string(),
            strobe_vector.to_string(),
            piggyback.to_string(),
            format!("{:.0}", strobe_energy),
            format!("{:.0}", cost.sync_energy(&rbs) * rounds),
            format!("{:.0}", cost.sync_energy(&tpsn) * rounds),
        ]);
    }
    table.note(
        "Paper claims: vector strobes cost O(n) per message vs O(1) for scalars \
         (column ratio ≈ n+1); a clock-sync service pays energy continuously at \
         the resync period, growing with n, while event-driven strobes pay only \
         per sensed event — the low-rate 'wild' regime favours strobes.",
    );
    table
}
