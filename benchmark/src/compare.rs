//! `benchmark compare BASELINE.json CANDIDATE.json`: one row per end-to-end
//! metric and workload — `ok`, `regressed`, or `unresolved` — under the
//! bounds of [`crate::metrics::END_TO_END`].

use std::process::ExitCode;

use serde_json::Value;

use crate::child::WorkloadResult;
use crate::metrics::{Better, Def, Measured, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs cannot tell: either side's median is known no more closely
    /// than the bound and the two intervals overlap, or a serve workload ran
    /// unpinned.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A 95% interval for a value that is the median of per-repetition figures
/// (a repetition's rate, its median latency, its tail latency): median ±
/// 1.82·IQR/√n over the n repetitions, the normal approximation of the
/// median's standard error. The spread is the run's own, repetition to
/// repetition, not that of the thousands of rounds inside one. A value without
/// a spread (a high-water mark, a count) is taken as exact.
fn interval(m: &Measured) -> (f64, f64) {
    match &m.summary {
        Some(s) if s.n > 1 => {
            let half = 1.82 * (s.q3 - s.q1) / (s.n as f64).sqrt();
            (m.value - half, m.value + half)
        }
        _ => (m.value, m.value),
    }
}

/// Judge one metric of one workload.
pub fn judge(def: &Def, base: &Measured, cand: &Measured) -> Verdict {
    if def.bound == 0.0 {
        // Absolute: failures and verdict mismatches must be zero.
        return if cand.value > 0.0 { Verdict::Regressed } else { Verdict::Ok };
    }
    // The note says how a value was taken where the name does not: which
    // percentile a tail is. Two different percentiles are not comparable.
    if base.note != cand.note {
        return Verdict::Unresolved;
    }
    let (b, c) = (interval(base), interval(cand));
    let width = |(lo, hi): (f64, f64), mid: f64| (hi - lo) / mid.abs().max(f64::MIN_POSITIVE);
    let too_wide = width(b, base.value) > def.bound || width(c, cand.value) > def.bound;
    let overlap = b.0 <= c.1 && c.0 <= b.1;
    if too_wide && overlap {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (cand.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (base.value - cand.value) / base.value.abs().max(f64::MIN_POSITIVE),
    };
    if worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<f64>,
    pub cand: Option<f64>,
    pub verdict: Verdict,
    pub note: String,
}

fn workloads(file: &Value) -> Result<Vec<WorkloadResult>, String> {
    file.get("workloads")
        .and_then(|w| w.as_seq())
        .ok_or("no \"workloads\" array")?
        .iter()
        .map(|w| {
            WorkloadResult::from_value(w)
                .ok_or_else(|| "a workload entry is incomplete".to_string())
        })
        .collect()
}

fn unresolved(workload: &str, metric: &str, base: Option<f64>, note: String) -> Row {
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        base,
        cand: None,
        verdict: Verdict::Unresolved,
        note,
    }
}

/// The deterministic counts are exact: same seed, same counts.
fn counts_row(b: &WorkloadResult, c: &WorkloadResult) -> Row {
    if b.seed != c.seed {
        let note = format!("seeds {} and {}: the counts are not comparable", b.seed, c.seed);
        return unresolved(&b.workload, "counts", None, note);
    }
    let (mut differing, mut missing) = (Vec::new(), Vec::new());
    for (name, value) in &b.counts {
        match c.counts.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v != value => differing.push(name.as_str()),
            Some(_) => {}
            None => missing.push(name.as_str()),
        }
    }
    let (verdict, note) = if !differing.is_empty() {
        (Verdict::Regressed, format!("differ: {}", differing.join(", ")))
    } else if !missing.is_empty() {
        (Verdict::Unresolved, format!("missing from the candidate: {}", missing.join(", ")))
    } else {
        (Verdict::Ok, format!("{} deterministic counts equal", b.counts.len()))
    };
    Row {
        workload: b.workload.clone(),
        metric: "counts".into(),
        base: None,
        cand: None,
        verdict,
        note,
    }
}

/// Every row of the comparison of two results files. What the baseline has
/// and the candidate lacks — a workload, a metric, a count — is a row of its
/// own, `unresolved`.
pub fn compare(base: &Value, cand: &Value) -> Result<Vec<Row>, String> {
    let (base, cand) = (workloads(base)?, workloads(cand)?);
    let mut rows = Vec::new();
    for b in &base {
        let Some(c) = cand.iter().find(|c| c.workload == b.workload) else {
            let note = "the workload is missing from the candidate".to_string();
            rows.push(unresolved(&b.workload, "*", None, note));
            continue;
        };
        let kind = crate::workload::Kind::parse(&b.workload);
        let unpinned = kind.is_some_and(|k| k.pinned()) && !(b.pinned && c.pinned);
        for def in &END_TO_END {
            let Some(bm) = b.metrics.get(def.name) else { continue };
            let Some(cm) = c.metrics.get(def.name) else {
                let note = "not measured by the candidate".to_string();
                rows.push(unresolved(&b.workload, def.name, Some(bm.value), note));
                continue;
            };
            let (verdict, note) = if unpinned && def.bound > 0.0 {
                (Verdict::Unresolved, "a serve workload measured unpinned".to_string())
            } else {
                let note = match (&bm.note, &cm.note) {
                    (Some(b), Some(c)) if b != c => format!("{b} against {c}"),
                    (Some(b), _) => b.clone(),
                    _ => String::new(),
                };
                (judge(def, bm, cm), note)
            };
            rows.push(Row {
                workload: b.workload.clone(),
                metric: def.name.to_string(),
                base: Some(bm.value),
                cand: Some(cm.value),
                verdict,
                note,
            });
        }
        rows.push(counts_row(b, c));
    }
    Ok(rows)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let [base, cand] = args else {
        eprintln!("usage: benchmark compare BASELINE.json CANDIDATE.json");
        return ExitCode::from(2);
    };
    let rows = match load(base).and_then(|b| load(cand).and_then(|c| compare(&b, &c))) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    let mut tally = [0usize; 3];
    for r in &rows {
        let def = END_TO_END.iter().find(|d| d.name == r.metric);
        let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let change = match (r.base, r.cand) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b * 100.0),
            _ => "-".to_string(),
        };
        let bound = def.map_or("exact".to_string(), |d| {
            if d.bound == 0.0 {
                "0".to_string()
            } else {
                format!("{:.0}%", d.bound * 100.0)
            }
        });
        println!(
            "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  {}{}",
            r.workload,
            r.metric,
            num(r.base),
            num(r.cand),
            change,
            bound,
            r.verdict.label(),
            if r.note.is_empty() { String::new() } else { format!(" ({})", r.note) }
        );
        tally[r.verdict as usize] += 1;
    }
    println!("{} ok, {} regressed, {} unresolved", tally[0], tally[1], tally[2]);
    if tally[1] > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;
    use crate::stats::Summary;

    fn median_of(value: f64, iqr: f64, n: usize) -> Measured {
        Measured {
            value,
            unit: "1/s".into(),
            summary: Some(Summary {
                n,
                min: value - iqr,
                q1: value - iqr / 2.0,
                median: value,
                q3: value + iqr / 2.0,
                max: value + iqr,
            }),
            note: None,
        }
    }

    #[test]
    fn a_change_within_the_bound_is_ok_and_beyond_it_regressed() {
        let rate = end_to_end("events_per_s").unwrap(); // higher is better, 25%
        let base = median_of(1000.0, 10.0, 25);
        assert_eq!(judge(rate, &base, &median_of(800.0, 10.0, 25)), Verdict::Ok);
        assert_eq!(judge(rate, &base, &median_of(1300.0, 10.0, 25)), Verdict::Ok);
        assert_eq!(judge(rate, &base, &median_of(740.0, 10.0, 25)), Verdict::Regressed);
        let wall = end_to_end("verdict_latency_p50_us").unwrap(); // lower is better, 25%
        assert_eq!(judge(wall, &base, &median_of(1260.0, 10.0, 25)), Verdict::Regressed);
        assert_eq!(judge(wall, &base, &median_of(880.0, 10.0, 25)), Verdict::Ok);
        let rss = end_to_end("peak_rss_mb").unwrap(); // lower is better, 10%
        let (base, worse) = (Measured::plain(100.0, "MB"), Measured::plain(111.0, "MB"));
        assert_eq!(judge(rss, &base, &worse), Verdict::Regressed);
        assert_eq!(judge(rss, &base, &Measured::plain(109.0, "MB")), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_with_overlap_is_unresolved() {
        let rate = end_to_end("events_per_s").unwrap();
        // Four samples with a 40% IQR: the median is known to ±36%.
        let base = median_of(1000.0, 400.0, 4);
        assert_eq!(judge(rate, &base, &median_of(700.0, 400.0, 4)), Verdict::Unresolved);
        // The same noise, but the candidate is clear of the baseline: every
        // plausible median of one is beyond every plausible median of the other.
        assert_eq!(judge(rate, &base, &median_of(100.0, 40.0, 4)), Verdict::Regressed);
        assert_eq!(judge(rate, &base, &median_of(5000.0, 400.0, 4)), Verdict::Ok);
    }

    #[test]
    fn absolute_metrics_must_be_zero() {
        let failed = end_to_end("failed_ratio").unwrap();
        let zero = Measured::plain(0.0, "ratio");
        assert_eq!(judge(failed, &zero, &zero), Verdict::Ok);
        assert_eq!(judge(failed, &zero, &Measured::plain(0.001, "ratio")), Verdict::Regressed);
    }

    #[test]
    fn tails_of_different_percentiles_are_not_compared() {
        let tail = end_to_end("read_latency_tail_us").unwrap();
        let p99 = median_of(900.0, 10.0, 4).with_note("p99.0");
        assert_eq!(judge(tail, &p99, &p99.clone()), Verdict::Ok);
        let p98 = median_of(900.0, 10.0, 4).with_note("p98.9");
        assert_eq!(judge(tail, &p99, &p98), Verdict::Unresolved);
    }

    #[test]
    fn a_latency_is_known_as_closely_as_its_repetitions_agree() {
        // Four sessions whose median latencies spread by 40%: 18 000 rounds
        // inside each session do not make the run's median any surer.
        let p50 = end_to_end("verdict_latency_p50_us").unwrap();
        let base = median_of(45.0, 18.0, 4);
        assert_eq!(judge(p50, &base, &median_of(52.0, 18.0, 4)), Verdict::Unresolved);
        assert_eq!(judge(p50, &median_of(45.0, 1.0, 4), &median_of(52.0, 1.0, 4)), Verdict::Ok);
    }

    fn result(pinned: bool, rate: f64, counts: &[(&str, u64)]) -> WorkloadResult {
        let mut metrics = crate::metrics::MetricMap::new();
        metrics.insert("events_per_s".into(), median_of(rate, 10.0, 25));
        WorkloadResult {
            workload: "serve_burst".into(),
            seed: 11,
            traced: false,
            pinned,
            repetitions: 25,
            attempted: 100,
            failed: 0,
            verdict_mismatches: 0,
            findings: vec![],
            counts: counts.iter().map(|(name, v)| (name.to_string(), *v)).collect(),
            metrics,
        }
    }

    fn file(results: &[WorkloadResult]) -> Value {
        let workloads = results.iter().map(|r| r.to_value()).collect();
        Value::Map(vec![("workloads".into(), Value::Seq(workloads))])
    }

    fn verdicts(base: &[WorkloadResult], cand: &[WorkloadResult]) -> Vec<(String, Verdict)> {
        let rows = compare(&file(base), &file(cand)).unwrap();
        rows.into_iter().map(|r| (r.metric, r.verdict)).collect()
    }

    #[test]
    fn files_compare_row_by_row_with_counts_exact_and_unpinned_serve_unresolved() {
        let reports = |n| [("core.log_reports", n)];
        let base = [result(true, 1000.0, &reports(7))];
        let rows = verdicts(&base, &[result(true, 990.0, &reports(7))]);
        assert_eq!(rows, [("events_per_s".into(), Verdict::Ok), ("counts".into(), Verdict::Ok)]);

        let rows = verdicts(&base, &[result(true, 990.0, &reports(8))]);
        assert_eq!(rows[1].1, Verdict::Regressed, "a deterministic count changed");

        let rows = verdicts(&base, &[result(false, 990.0, &reports(7))]);
        assert_eq!(rows[0].1, Verdict::Unresolved, "an unpinned serve run decides nothing");
    }

    #[test]
    fn what_the_candidate_lacks_is_a_row_of_its_own() {
        let base = [result(true, 1000.0, &[("core.log_reports", 7), ("world.events", 9)])];
        assert_eq!(verdicts(&base, &[]), [("*".into(), Verdict::Unresolved)], "no such workload");

        let mut cand = result(true, 1000.0, &[("core.log_reports", 7)]);
        let rows = verdicts(&base, std::slice::from_ref(&cand));
        assert_eq!(rows[1], ("counts".into(), Verdict::Unresolved), "world.events is missing");

        cand.metrics.clear();
        let rows = verdicts(&base, &[cand]);
        assert_eq!(rows[0], ("events_per_s".into(), Verdict::Unresolved), "not measured");

        let mut other_seed = result(true, 1000.0, &[("core.log_reports", 8)]);
        other_seed.seed = 12;
        assert_eq!(verdicts(&base, &[other_seed])[1], ("counts".into(), Verdict::Unresolved));
    }
}
