//! The benchmark's metrics by name: unit, direction and regression bound.
//! `BENCHMARK.json` at the repo root declares the same end-to-end metrics
//! (a unit test keeps the two equal); `compare` takes its bounds from here.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::{number, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse;
    /// zero means any worsening at all is a regression.
    pub bound: f64,
    /// Declared in `BENCHMARK.json`, where the driver gates every later PR
    /// on it. The driver takes every declared metric from every workload, so
    /// only a metric that every workload has can be declared.
    pub declared: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    declared: bool,
) -> Def {
    Def { name, unit, better, bound, declared }
}

/// Every end-to-end metric, measured with tracing off.
///
/// The time-based bounds are 25%, the most `BENCHMARK.json` allows: on the
/// shared 2-core host the benchmark was sized on, the medians of ten runs of
/// one commit spread (IQR ÷ median) by 3–12% in a quiet quarter of an hour and
/// by 15–27% in a busy one, whatever the statistic (median, best or a lower
/// quantile of the repetitions or of the rounds). A 10% bound would reject
/// innocent changes. Memory repeats to within a few percent (see
/// `MALLOC_ARENA_MAX` in `orchestrate.rs`) and keeps 10%.
///
/// `verdict_latency_p50_us` is declared although a batch job has no rounds:
/// without it the driver sees nothing of `serve_paced` but set-up time and
/// memory (its `events_per_s` is the offered rate). To the driver a batch
/// workload reports its job wall under that name; the results file does not.
/// On `serve_paced` it is the median round at a fixed price of the host's
/// thread-to-thread round trip (`serve_load::HostRtt`), because as measured
/// (`verdict_latency_raw_p50_us`, stored beside it) it follows the host's
/// other guests by ±25% for half a minute at a time, and the driver refused
/// that. The tails, the read latencies, `job_wall_s` and `sim_events_per_s`
/// exist on some workloads only, and the absolute metrics are always zero,
/// which the driver does not take: `compare` judges those.
pub const END_TO_END: [Def; 12] = [
    def("setup_s", "s", Better::Lower, 0.25, true),
    def("events_per_s", "1/s", Better::Higher, 0.25, true),
    def("peak_rss_mb", "MB", Better::Lower, 0.10, true),
    def("verdict_latency_p50_us", "us", Better::Lower, 0.25, true),
    def("verdict_latency_raw_p50_us", "us", Better::Lower, 0.25, false),
    def("verdict_latency_tail_us", "us", Better::Lower, 0.25, false),
    def("job_wall_s", "s", Better::Lower, 0.25, false),
    def("sim_events_per_s", "1/s", Better::Higher, 0.25, false),
    def("read_latency_p50_us", "us", Better::Lower, 0.25, false),
    def("read_latency_tail_us", "us", Better::Lower, 0.25, false),
    def("failed_ratio", "ratio", Better::Lower, 0.0, false),
    def("verdict_mismatches", "count", Better::Lower, 0.0, false),
];

pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// A measured value with the spread it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    /// Spread of the samples behind `value`, where it is a median.
    pub summary: Option<Summary>,
    /// How the value was taken, when the name does not say it all (which
    /// percentile the tail is, why a value is unresolved).
    pub note: Option<String>,
}

impl Measured {
    pub fn plain(value: f64, unit: &str) -> Measured {
        Measured { value, unit: unit.to_string(), summary: None, note: None }
    }

    /// The median of `samples`, with their spread alongside.
    pub fn median_of(samples: &[f64], unit: &str) -> Measured {
        let summary = Summary::of(samples);
        Measured {
            value: summary.median,
            unit: unit.to_string(),
            summary: Some(summary),
            note: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Measured {
        self.note = Some(note.into());
        self
    }

    pub fn to_value(&self) -> Value {
        let mut m = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::Str(self.unit.clone())),
        ];
        if let Some(s) = &self.summary {
            m.push(("spread".to_string(), s.to_value()));
        }
        if let Some(n) = &self.note {
            m.push(("note".to_string(), Value::Str(n.clone())));
        }
        Value::Map(m)
    }

    pub fn from_value(v: &Value) -> Option<Measured> {
        Some(Measured {
            value: number(v.get("value")?)?,
            unit: v.get("unit")?.as_str()?.to_string(),
            summary: v.get("spread").and_then(Summary::from_value),
            note: v.get("note").and_then(|n| n.as_str()).map(str::to_string),
        })
    }
}

pub type MetricMap = BTreeMap<String, Measured>;

pub fn metrics_to_value(metrics: &MetricMap) -> Value {
    Value::Map(metrics.iter().map(|(k, m)| (k.clone(), m.to_value())).collect())
}

pub fn metrics_from_value(v: &Value) -> Option<MetricMap> {
    v.as_map()?.iter().map(|(k, m)| Some((k.clone(), Measured::from_value(m)?))).collect()
}

/// The `{"value": …, "unit": …}` shape of the driver's result line.
pub fn contract_metrics<'a>(
    names: impl Iterator<Item = &'a str>,
    metrics: &MetricMap,
) -> Result<Value, String> {
    let mut out = Vec::new();
    for name in names {
        let m = metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        out.push((
            name.to_string(),
            Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Value::Map(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_values_roundtrip_through_json() {
        let m = Measured::median_of(&[1.0, 2.0, 4.0], "us").with_note("p99");
        let text = serde_json::to_string(&m.to_value()).unwrap();
        assert_eq!(Measured::from_value(&serde_json::parse(&text).unwrap()), Some(m));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports and what `compare` enforces. They must not drift.
    #[test]
    fn benchmark_json_declares_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let json = serde_json::parse(text).expect("BENCHMARK.json parses");
        let declared = json.get("end_to_end").and_then(|v| v.as_seq()).expect("end_to_end");
        let ours: Vec<&Def> = END_TO_END.iter().filter(|d| d.declared).collect();
        assert_eq!(declared.len(), ours.len());
        for (d, o) in declared.iter().zip(&ours) {
            assert_eq!(d.get("name").and_then(|v| v.as_str()), Some(o.name));
            assert_eq!(d.get("unit").and_then(|v| v.as_str()), Some(o.unit));
            assert_eq!(d.get("better").and_then(|v| v.as_str()), Some(o.better.label()));
            assert_eq!(d.get("bound").and_then(number), Some(o.bound), "{}", o.name);
        }
        let workloads = json.get("workloads").and_then(|v| v.as_seq()).expect("workloads");
        let names: Vec<_> =
            workloads.iter().filter_map(|w| w.get("name").and_then(|v| v.as_str())).collect();
        let ours: Vec<_> = crate::workload::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);
        let per_layer = json.get("per_layer").and_then(|v| v.as_seq()).expect("per_layer");
        let names: Vec<_> =
            per_layer.iter().filter_map(|w| w.get("name").and_then(|v| v.as_str())).collect();
        let ours: Vec<_> = crate::layers::PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ours);
    }
}
