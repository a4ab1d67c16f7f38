//! Order statistics for repetition samples: medians, quartiles and the tail
//! rule ("the highest percentile that still has ten samples beyond it").

use serde_json::Value;

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;
/// The tail percentile asked for; reported where it has that support.
pub const TAIL: f64 = 0.99;

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (unsorted input).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Median plus the spread around it, as stored beside every metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("n".into(), Value::UInt(self.n as u64)),
            ("min".into(), Value::Float(self.min)),
            ("q1".into(), Value::Float(self.q1)),
            ("median".into(), Value::Float(self.median)),
            ("q3".into(), Value::Float(self.q3)),
            ("max".into(), Value::Float(self.max)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<Summary> {
        Some(Summary {
            n: number(v.get("n")?)? as usize,
            min: number(v.get("min")?)?,
            q1: number(v.get("q1")?)?,
            median: number(v.get("median")?)?,
            q3: number(v.get("q3")?)?,
            max: number(v.get("max")?)?,
        })
    }
}

/// A JSON number as `f64`, whichever of the shim's three number shapes it
/// was parsed into.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The tail of a latency sample: the `wanted` percentile (e.g. 0.99) when at
/// least [`TAIL_SUPPORT`] samples lie beyond it, otherwise the highest
/// percentile that does have that support. Returns `(percentile, value)`;
/// `None` when that percentile would lie below the median (20 samples or
/// fewer), which is no tail at all.
pub fn supported_tail(sorted: &[f64], wanted: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 2 * TAIL_SUPPORT {
        return None;
    }
    // Sample at 0-based rank r has n-1-r samples beyond it.
    let highest_rank = n - 1 - TAIL_SUPPORT;
    let wanted_rank = (wanted.clamp(0.0, 1.0) * (n - 1) as f64).ceil() as usize;
    if wanted_rank <= highest_rank {
        Some((wanted, quantile(sorted, wanted)))
    } else {
        Some((highest_rank as f64 / (n - 1) as f64, sorted[highest_rank]))
    }
}

/// The tail of `sorted` and which percentile it is: [`TAIL`] or the highest
/// supported percentile below it (`"p98.9"`); with too few samples for a
/// percentile above the median, the `"maximum"`.
pub fn tail(sorted: &[f64]) -> (f64, String) {
    match supported_tail(sorted, TAIL) {
        Some((p, v)) => (v, format!("p{:.1}", p * 100.0)),
        None => (sorted[sorted.len() - 1], "maximum".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = ramp(5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_is_the_wanted_percentile_when_ten_samples_lie_beyond_it() {
        // 2001 samples: p99 sits at rank 1980, with 20 samples beyond.
        let s = ramp(2001);
        let (p, v) = supported_tail(&s, 0.99).unwrap();
        assert_eq!(p, 0.99);
        assert_eq!(v, 1981.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_samples_beyond() {
        // 101 samples: p99 has one sample beyond it; rank 90 is the highest
        // with ten beyond (values 92..=101).
        let s = ramp(101);
        let (p, v) = supported_tail(&s, 0.99).unwrap();
        assert_eq!(v, 91.0);
        assert!((p - 0.90).abs() < 1e-12, "rank 90 of 100 is p90, got {p}");
        assert_eq!(s.iter().filter(|x| **x > v).count(), TAIL_SUPPORT);
        // 21 samples: rank 10, the median.
        let (p, v) = supported_tail(&ramp(21), 0.99).unwrap();
        assert_eq!((p, v), (0.5, 11.0));
    }

    #[test]
    fn a_tail_below_the_median_is_not_reported() {
        assert_eq!(supported_tail(&ramp(10), 0.99), None);
        assert_eq!(supported_tail(&ramp(20), 0.99), None);
        assert!(supported_tail(&ramp(21), 0.99).is_some());
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (4, 1.0, 2.5, 4.0));
        let text = serde_json::to_string(&s.to_value()).unwrap();
        let back = Summary::from_value(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
