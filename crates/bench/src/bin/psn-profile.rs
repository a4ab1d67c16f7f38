//! `psn-profile` — phase-attribution reports from `--telemetry-out` dumps.
//!
//! ```sh
//! psn-profile <dump.jsonl>            # human-readable report, one section per cell
//! psn-profile --check <dump.jsonl>    # schema + sanity validation, exit nonzero on failure
//! ```
//!
//! The input is the JSONL format written by the `--telemetry-out` flag of
//! `experiments`, `chaos`, and `psn-script` (one record per cell, carrying a
//! `MetricsSnapshot` and a `TelemetrySnapshot`). For each cell the report
//! answers the questions the telemetry plane exists for:
//!
//! - **top time sinks** — every shard's phase breakdown, sorted by cost,
//!   with its share of the shard's accounted time;
//! - **barrier-wait share** — what fraction of all shard time was spent
//!   blocked on the coordinator, against the shard count (the strong-
//!   scaling ceiling in one number);
//! - **ring pressure** — exchange-ring high-water marks per shard next to
//!   the `engine.ring_spills` overflow count (capacity headroom);
//! - **attribution** — how much of the measured run wall the per-shard
//!   phase spans cover (the instrumentation's own completeness check;
//!   ≥95% on a healthy sharded run).
//!
//! `--check` validates every record machine-readably: it must parse, name
//! only known phases, carry an enabled registry with at least one run, and
//! keep per-shard attribution within physical bounds (no shard accounts
//! more span time than 110% of total run wall).

use std::io::Read;

use psn_sim::metrics::MetricsSnapshot;
use psn_sim::telemetry::{Phase, TelemetrySnapshot};
use serde::{Deserialize, Value};

/// One parsed JSONL record.
struct Record {
    experiment: String,
    label: String,
    metrics: MetricsSnapshot,
    telemetry: TelemetrySnapshot,
}

fn parse_record(line_no: usize, line: &str) -> Result<Record, String> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("line {line_no}: not valid JSON: {e}"))?;
    let experiment = v
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: missing \"experiment\""))?
        .to_string();
    let label = v
        .get("cell")
        .and_then(|c| c.get("label"))
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string();
    let metrics =
        v.get("metrics").ok_or_else(|| format!("line {line_no}: missing \"metrics\"")).and_then(
            |m| MetricsSnapshot::from_value(m).map_err(|e| format!("line {line_no}: metrics: {e}")),
        )?;
    let telemetry = v
        .get("telemetry")
        .ok_or_else(|| format!("line {line_no}: missing \"telemetry\""))
        .and_then(|t| {
            TelemetrySnapshot::from_value(t).map_err(|e| format!("line {line_no}: telemetry: {e}"))
        })?;
    Ok(Record { experiment, label, metrics, telemetry })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Fraction of the run wall covered by the instrumentation: the mean
/// per-shard phase sum (each worker loop is wrapped end to end —
/// barrier-wait → busy → ring-exchange — so every active shard
/// individually accounts for the parallel section) plus the coordinator's
/// busy spans (the serial split/merge sections, which never overlap the
/// shards' accounting). ≥95% on a healthy run.
fn attribution_pct(t: &TelemetrySnapshot) -> f64 {
    let active: Vec<u64> = t
        .shards
        .iter()
        .map(|s| s.phases.iter().map(|p| p.ns).sum::<u64>())
        .filter(|&sum| sum > 0)
        .collect();
    if active.is_empty() || t.run_wall_ns == 0 {
        return 0.0;
    }
    let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
    let serial = t.coordinator_ns(Phase::Busy) as f64;
    ((mean + serial) / t.run_wall_ns as f64) * 100.0
}

fn report(records: &[Record]) {
    for r in records {
        let t = &r.telemetry;
        println!("=== {} — {} ===", r.experiment, r.label);
        println!("run wall: {:.1} ms across {} run(s)", ms(t.run_wall_ns), t.runs);
        let mut active_shards = 0usize;
        for s in &t.shards {
            let total: u64 = s.phases.iter().map(|p| p.ns).sum();
            if total == 0 {
                continue;
            }
            active_shards += 1;
            let mut phases: Vec<_> = s.phases.iter().filter(|p| p.count > 0).collect();
            phases.sort_by_key(|p| std::cmp::Reverse(p.ns));
            let line: Vec<String> = phases
                .iter()
                .map(|p| {
                    format!(
                        "{} {:.1} ms ({:.1}%, {} spans)",
                        p.phase,
                        ms(p.ns),
                        pct(p.ns, total),
                        p.count
                    )
                })
                .collect();
            println!("shard {}: {:.1} ms — {}", s.shard, ms(total), line.join(", "));
        }
        let total_shard: u64 = t.total_shard_ns();
        let barrier: u64 = t
            .shards
            .iter()
            .map(|s| {
                s.phases.iter().find(|p| p.phase == Phase::BarrierWait.name()).map_or(0, |p| p.ns)
            })
            .sum();
        println!(
            "barrier-wait share: {:.1}% of shard time ({} active shard(s))",
            pct(barrier, total_shard),
            active_shards
        );
        let coord: Vec<String> = t
            .coordinator
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| format!("{} {:.1} ms ({} spans)", p.phase, ms(p.ns), p.count))
            .collect();
        if !coord.is_empty() {
            println!("coordinator: {}", coord.join(", "));
        }
        let spills = r.metrics.counter("engine.ring_spills").unwrap_or(0);
        let high_water: Vec<String> = t
            .shards
            .iter()
            .filter(|s| s.ring_high_water > 0)
            .map(|s| format!("shard {} hw {}", s.shard, s.ring_high_water))
            .collect();
        if !high_water.is_empty() || spills > 0 {
            println!(
                "ring pressure: {} — engine.ring_spills = {spills}",
                if high_water.is_empty() {
                    "no ring traffic".to_string()
                } else {
                    high_water.join(", ")
                }
            );
        }
        let windows = r.metrics.counter("engine.windows").unwrap_or(0);
        let op_barriers = r.metrics.counter("engine.op_barriers").unwrap_or(0);
        println!("barriers: {windows} lookahead window(s) + {op_barriers} fault-op sub-barrier(s)");
        println!("attribution: {:.1}% of run wall covered by per-shard phases", attribution_pct(t));
        println!();
    }
}

/// Validate every record; returns the error list (empty = clean).
fn check(records: &[Record]) -> Vec<String> {
    let known: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    let mut errors = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let t = &r.telemetry;
        let at = format!("record {} ({} — {})", i + 1, r.experiment, r.label);
        if !t.enabled {
            errors.push(format!("{at}: telemetry registry was not enabled"));
        }
        if t.runs == 0 {
            errors.push(format!("{at}: zero engine runs recorded"));
        }
        if t.run_wall_ns == 0 {
            errors.push(format!("{at}: zero run wall time"));
        }
        for s in t.shards.iter() {
            for p in &s.phases {
                if !known.contains(&p.phase.as_str()) {
                    errors.push(format!("{at}: shard {} has unknown phase {:?}", s.shard, p.phase));
                }
                let bucket_total: u64 = p.buckets.iter().map(|b| b.count).sum();
                if bucket_total != p.count {
                    errors.push(format!(
                        "{at}: shard {} phase {} histogram counts {} spans but count is {}",
                        s.shard, p.phase, bucket_total, p.count
                    ));
                }
            }
            let sum: u64 = s.phases.iter().map(|p| p.ns).sum();
            // A single shard cannot account for more span time than the
            // whole run took (10% slack for clock jitter on tiny runs).
            if sum as f64 > t.run_wall_ns as f64 * 1.1 {
                errors.push(format!(
                    "{at}: shard {} accounts {:.1} ms but the run wall is only {:.1} ms",
                    s.shard,
                    ms(sum),
                    ms(t.run_wall_ns)
                ));
            }
        }
        for p in t.coordinator.iter() {
            if !known.contains(&p.phase.as_str()) {
                errors.push(format!("{at}: coordinator has unknown phase {:?}", p.phase));
            }
        }
        if r.metrics.counter("engine.events_processed").is_none() {
            errors.push(format!("{at}: metrics snapshot lacks engine.events_processed"));
        }
    }
    errors
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checking = args.iter().any(|a| a == "--check");
    let path = args.iter().find(|a| !a.starts_with("--"));
    if args.iter().any(|a| a == "--help" || a == "-h") || path.is_none() {
        eprintln!("usage: psn-profile [--check] <telemetry-dump.jsonl>   (use - for stdin)");
        std::process::exit(if path.is_none() && !args.iter().any(|a| a == "--help" || a == "-h") {
            2
        } else {
            0
        });
    }
    let path = path.expect("checked above");
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("psn-profile: cannot read {path}: {e}");
                std::process::exit(2);
            }
        }
    };
    let mut records = Vec::new();
    let mut parse_errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(i + 1, line) {
            Ok(r) => records.push(r),
            Err(e) => parse_errors.push(e),
        }
    }
    if records.is_empty() && parse_errors.is_empty() {
        eprintln!("psn-profile: {path}: no records");
        std::process::exit(1);
    }
    if checking {
        let mut errors = parse_errors;
        errors.extend(check(&records));
        if errors.is_empty() {
            println!("ok: {} record(s) valid", records.len());
        } else {
            for e in &errors {
                eprintln!("psn-profile: {e}");
            }
            eprintln!("psn-profile: {} problem(s) in {path}", errors.len());
            std::process::exit(1);
        }
    } else {
        for e in &parse_errors {
            eprintln!("psn-profile: {e}");
        }
        report(&records);
        if !parse_errors.is_empty() {
            std::process::exit(1);
        }
    }
}
