//! The paper's §5 scenario, end to end **with actuation**: a convention
//! hall with RFID entry/exit door sensors, the occupancy predicate
//! Σ(xᵢ − yᵢ) > 200 detected online at the root with vector strobes, and
//! door-lock commands closing the sense → send → receive → actuate loop.
//!
//! ```sh
//! cargo run --release --example exhibition_hall
//! ```

use pervasive_time::core::{ExecutionLog, Report};
use pervasive_time::prelude::*;
use psn_clocks::ProcessId;

/// The root's online rule: maintain the running occupancy from the report
/// stream; when it first exceeds the capacity, command every door sensor to
/// lock; when it drops back, unlock. (Lock state attribute index 2 is
/// conventional — the world generator does not model it, so the actuation
/// is observable in the log rather than feeding back into arrivals; see the
//  DESIGN.md note on open-loop scenarios.)
struct CapacityRule {
    doors: usize,
    capacity: i64,
    x: Vec<i64>,
    y: Vec<i64>,
    locked: bool,
}

impl CapacityRule {
    fn occupancy(&self) -> i64 {
        (0..self.doors).map(|d| self.x[d] - self.y[d]).sum()
    }
}

impl ActuationRule for CapacityRule {
    fn on_report(
        &mut self,
        report: &Report,
        _history: &ExecutionLog,
    ) -> Vec<(ProcessId, AttrKey, AttrValue)> {
        match report.key.attr {
            0 => self.x[report.key.object] = report.value.as_int(),
            1 => self.y[report.key.object] = report.value.as_int(),
            _ => {}
        }
        let over = self.occupancy() > self.capacity;
        if over != self.locked {
            self.locked = over;
            (0..self.doors).map(|d| (d, AttrKey::new(d, 2), AttrValue::Bool(over))).collect()
        } else {
            Vec::new()
        }
    }
}

fn main() {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 4.0,
        mean_stay: SimDuration::from_secs(70),
        duration: SimTime::from_secs(1200),
        capacity: 200,
    };
    let scenario = exhibition::generate(&params, 7);
    println!("{}", scenario.name);

    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(300)),
        ..Default::default()
    };
    let rule = CapacityRule {
        doors: params.doors,
        capacity: params.capacity,
        x: vec![0; params.doors],
        y: vec![0; params.doors],
        locked: false,
    };
    let trace = pervasive_time::core::run_execution_with_rule(&scenario, &cfg, Box::new(rule));

    // Ground truth.
    let predicate = Predicate::occupancy_over(params.doors, params.capacity);
    let truth = truth_intervals(&scenario.timeline, |s| predicate.eval_state(s));
    println!("\nground truth: hall over capacity {} time(s):", truth.len());
    for (i, t) in truth.iter().enumerate() {
        println!(
            "  #{:<2} {} .. {}",
            i + 1,
            t.start,
            t.end.map(|e| e.to_string()).unwrap_or_else(|| "(end of run)".into())
        );
    }

    // The actuation loop: every lock/unlock the root commanded.
    println!("\nactuation loop (root commands, {} total):", trace.log.actuations.len());
    let mut shown = 0;
    let mut last: Option<bool> = None;
    for a in &trace.log.actuations {
        let lock = a.command.as_bool();
        if last != Some(lock) {
            println!("  t={:<12} {} all doors", a.at, if lock { "LOCK" } else { "unlock" });
            last = Some(lock);
            shown += 1;
            if shown >= 20 {
                println!("  …");
                break;
            }
        }
    }

    // Each actuated sensor recorded an 'a' event — the causal chain of
    // §4.1: e1@world → sense@door → report → detect@P0 → actuate@door.
    let actuate_events = trace.log.events.iter().filter(|e| e.kind.tag() == 'a').count();
    println!("\n'a' (actuate) events recorded at sensors: {actuate_events}");

    // Detection quality with the vector strobe clock + borderline bin.
    let detections = detect_occurrences(
        &trace,
        &predicate,
        &scenario.timeline.initial_state(),
        Discipline::VectorStrobe,
    );
    let r = score(
        &detections,
        &truth,
        params.duration,
        SimDuration::from_millis(600),
        BorderlinePolicy::AsPositive,
    );
    println!(
        "\nvector-strobe detection: TP {} FP {} FN {} (borderline bin {}, of which FP caught {})",
        r.true_positives,
        r.false_positives,
        r.false_negatives,
        r.borderline,
        r.borderline_false_positives,
    );
    println!(
        "precision {:.3} recall {:.3} — races within Δ land in the borderline bin;\n\
         treating them as positives errs on the safe side (fire-code compliant).",
        r.precision(),
        r.recall()
    );
}
