//! One workload in a process of its own, so `VmHWM` is that workload's peak
//! and nothing one workload allocates or warms is inherited by the next.

use serde_json::Value;

use crate::host;
use crate::inputs::Sizes;
use crate::metrics::{self, Measured, MetricMap};
use crate::serve_load;
use crate::spans::{self, Spans};
use crate::stats;
use crate::workload::{self, Kind, Ready, Rep, Tally};

/// What a child process reports back on its last line of standard output.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// The process was confined to one CPU while it measured.
    pub pinned: bool,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    pub verdict_mismatches: u64,
    pub findings: Vec<String>,
    pub counts: Vec<(String, u64)>,
    pub metrics: MetricMap,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.verdict_mismatches == 0
    }

    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("traced".into(), Value::Bool(self.traced)),
            ("pinned".into(), Value::Bool(self.pinned)),
            ("repetitions".into(), Value::UInt(self.repetitions as u64)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("verdict_mismatches".into(), Value::UInt(self.verdict_mismatches)),
            (
                "findings".into(),
                Value::Seq(self.findings.iter().map(|f| Value::Str(f.clone())).collect()),
            ),
            (
                "counts".into(),
                Value::Map(self.counts.iter().map(|(k, v)| (k.clone(), Value::UInt(*v))).collect()),
            ),
            ("metrics".into(), metrics::metrics_to_value(&self.metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<WorkloadResult> {
        let uint = |key: &str| v.get(key).and_then(stats::number).map(|n| n as u64);
        let flag = |key: &str| match v.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        Some(WorkloadResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: uint("seed")?,
            traced: flag("traced")?,
            pinned: flag("pinned")?,
            repetitions: uint("repetitions")? as usize,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            verdict_mismatches: uint("verdict_mismatches")?,
            findings: v
                .get("findings")?
                .as_seq()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            counts: v
                .get("counts")?
                .as_map()?
                .iter()
                .filter_map(|(k, c)| Some((k.clone(), stats::number(c)? as u64)))
                .collect(),
            metrics: metrics::metrics_from_value(v.get("metrics")?)?,
        })
    }
}

fn pooled(reps: &[Rep], pick: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    stats::sorted(&reps.iter().flat_map(|r| pick(r).iter().copied()).collect::<Vec<_>>())
}

/// The end-to-end metrics of one workload, each under the unit the table in
/// [`metrics::END_TO_END`] gives it.
#[derive(Default)]
struct EndToEnd(MetricMap);

impl EndToEnd {
    fn put(&mut self, name: &str, measured: impl FnOnce(&str) -> Measured) {
        let def = metrics::end_to_end(name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.0.insert(name.to_string(), measured(def.unit));
    }

    fn median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, |unit| Measured::median_of(samples, unit));
    }

    fn plain(&mut self, name: &str, value: f64) {
        self.put(name, |unit| Measured::plain(value, unit));
    }

    /// The two metrics of a latency. Every repetition is summarised on its
    /// own, by its median and by its tail, and the metric is the median of
    /// those: the spread beside it is the spread between repetitions, which
    /// is what tells a change from noise, and the tail is the same percentile
    /// however many repetitions fitted into the run.
    fn latency(&mut self, p50: &str, tail: &str, reps: &[Rep], pick: impl Fn(&Rep) -> &[f64]) {
        let sorted: Vec<Vec<f64>> = reps.iter().map(|r| stats::sorted(pick(r))).collect();
        let medians: Vec<f64> = sorted.iter().map(|s| stats::quantile(s, 0.5)).collect();
        self.median(p50, &medians);
        let (tails, mut which): (Vec<f64>, Vec<String>) =
            sorted.iter().map(|s| stats::tail(s)).unzip();
        which.sort();
        which.dedup();
        self.put(tail, |unit| Measured::median_of(&tails, unit).with_note(which.join("/")));
    }

    /// A session's median latency at the reference price of the host round
    /// trip sampled beside its rounds (see [`serve_load::HostRtt`]); the
    /// metric is the median over the sessions.
    fn host_corrected(&mut self, name: &str, reps: &[Rep]) {
        let corrected: Vec<f64> = reps
            .iter()
            .map(|r| {
                serve_load::host_corrected(
                    stats::median(&r.latency_us),
                    stats::median(&r.host_rtt_us),
                )
            })
            .collect();
        let note = format!("at a host round trip of {} us", serve_load::HOST_RTT_REFERENCE_US);
        self.put(name, |unit| Measured::median_of(&corrected, unit).with_note(note));
    }
}

fn events_per_s(ready: &Ready, reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| ready.events_per_rep() as f64 / r.wall_s).collect()
}

/// The end-to-end metrics of the untraced measuring pass.
fn end_to_end(
    kind: Kind,
    setup_s: &[f64],
    ready: &Ready,
    reps: &[Rep],
    tally: &Tally,
) -> MetricMap {
    let mut out = EndToEnd::default();
    out.median("setup_s", setup_s);
    out.median("events_per_s", &events_per_s(ready, reps));
    if kind == Kind::ServePaced {
        out.latency("verdict_latency_raw_p50_us", "verdict_latency_tail_us", reps, |r| {
            &r.latency_us
        });
        out.host_corrected("verdict_latency_p50_us", reps);
    } else if kind.is_serve() {
        out.latency("verdict_latency_p50_us", "verdict_latency_tail_us", reps, |r| &r.latency_us);
    } else {
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        out.median("job_wall_s", &walls);
    }
    if let Some(engine_events) = ready.engine_events_per_rep() {
        let rates: Vec<f64> =
            reps.iter().filter_map(|r| Some(engine_events as f64 / r.engine_s?)).collect();
        out.median("sim_events_per_s", &rates);
    }
    if kind == Kind::ServePaced {
        out.latency("read_latency_p50_us", "read_latency_tail_us", reps, |r| &r.read_latency_us);
    }
    out.plain("failed_ratio", tally.failed as f64 / tally.attempted.max(1) as f64);
    out.plain("verdict_mismatches", tally.mismatches as f64);
    // Last, so it covers everything the workload ever held.
    out.plain("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    out.0
}

/// What the traced pass adds for this workload: how much recording spans
/// costs, how the paced generator behaved, and where each repetition's time
/// went by span name (self time, as a share of the repetitions' total).
fn traced_metrics(ready: &Ready, untraced: &[Rep], traced: &[Rep], spans: &Spans) -> MetricMap {
    let mut out = MetricMap::new();
    let ratio =
        stats::median(&events_per_s(ready, traced)) / stats::median(&events_per_s(ready, untraced));
    out.insert("loadgen.trace_overhead_ratio".into(), Measured::plain(ratio, "ratio"));
    let lag = pooled(traced, |r| &r.lag_us);
    if !lag.is_empty() {
        let (value, which) = stats::tail(&lag);
        out.insert(
            "loadgen.sched_lag_tail_us".into(),
            Measured::plain(value, "us").with_note(which),
        );
        let over = serve_load::over_limit_ratio(&pooled(traced, |r| &r.latency_us));
        out.insert("loadgen.over_limit_ratio".into(), Measured::plain(over, "ratio"));
        let rtt: Vec<f64> = traced.iter().map(|r| stats::median(&r.host_rtt_us)).collect();
        out.insert("loadgen.host_rtt_us".into(), Measured::median_of(&rtt, "us"));
    }
    let totals = spans::totals_by_name(spans.recorded());
    let whole = totals.get("repetition").map_or(0, |t| t.total_ns).max(1) as f64;
    for (name, t) in &totals {
        out.insert(
            format!("span.{name}.self_share"),
            Measured::plain(t.self_ns as f64 / whole, "ratio").with_note(format!(
                "{} spans, {:.3} ms self time",
                t.count,
                t.self_ns as f64 / 1e6
            )),
        );
    }
    out
}

/// Share of `--seconds` each of the two passes of a traced run gets; the
/// layer probes, which are fixed work, use about the other half.
const TRACED_PASS_SHARE: f64 = 0.25;

/// Run one workload in this process and return what it measured. A traced
/// run makes an untraced pass and then a traced one, so the cost of tracing
/// is measured inside one process.
pub fn run(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (WorkloadResult, Spans) {
    let mut tally = Tally::default();
    let (setup_s, ready) = workload::set_up(kind, sizes, seed, &mut tally);
    let budget = if traced { seconds * TRACED_PASS_SHARE } else { seconds };
    let untraced = workload::repeat_for(&ready, budget, &mut Spans::new(false), &mut tally);
    let mut metrics = end_to_end(kind, &setup_s, &ready, &untraced, &tally);
    let mut repetitions = untraced.len();
    let mut spans = Spans::new(traced);
    if traced {
        let pass = workload::repeat_for(&ready, budget, &mut spans, &mut tally);
        repetitions += pass.len();
        metrics.extend(traced_metrics(&ready, &untraced, &pass, &spans));
    }
    let result = WorkloadResult {
        workload: kind.name().to_string(),
        seed,
        traced,
        pinned: host::is_pinned(),
        repetitions,
        attempted: tally.attempted,
        failed: tally.failed,
        verdict_mismatches: tally.mismatches,
        findings: tally.findings,
        counts: tally.counts.into_iter().collect(),
        metrics,
    };
    (result, spans)
}
