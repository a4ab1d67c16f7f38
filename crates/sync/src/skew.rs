//! Skew measurement helpers.
//!
//! A synchronization protocol's quality is its achieved skew ε: the largest
//! disagreement between any two corrected clocks. The paper (§3.3) notes
//! protocol-achieved skews of microseconds to milliseconds for sensornets
//! (RBS, TPSN, …) and uses ε to bound detection accuracy: overlaps shorter
//! than 2ε are undetectable with physical clocks (Mayo–Kearns).

use psn_clocks::Oscillator;
use psn_sim::time::{SimDuration, SimTime};

/// The largest pairwise disagreement among clocks at ground-truth time `t`.
pub(crate) fn max_pairwise_skew(clocks: &[Oscillator], t: SimTime) -> SimDuration {
    let readings: Vec<i64> = clocks.iter().map(|c| c.read(t).0).collect();
    let mut worst = 0u64;
    for i in 0..readings.len() {
        for j in (i + 1)..readings.len() {
            worst = worst.max(readings[i].abs_diff(readings[j]));
        }
    }
    SimDuration::from_nanos(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osc(offset_ns: i64) -> Oscillator {
        Oscillator { offset_ns, drift_ppm: 0.0, granularity_ns: 1 }
    }

    #[test]
    fn pairwise_skew_is_spread() {
        let clocks = vec![osc(-500), osc(0), osc(1500)];
        let t = SimTime::from_secs(1);
        assert_eq!(max_pairwise_skew(&clocks, t), SimDuration::from_nanos(2000));
    }

    #[test]
    fn identical_clocks_have_zero_skew() {
        let clocks = vec![osc(100), osc(100)];
        assert_eq!(max_pairwise_skew(&clocks, SimTime::from_secs(5)), SimDuration::ZERO);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(max_pairwise_skew(&[], SimTime::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn drift_grows_skew_over_time() {
        let fast = Oscillator { offset_ns: 0, drift_ppm: 50.0, granularity_ns: 1 };
        let slow = Oscillator { offset_ns: 0, drift_ppm: -50.0, granularity_ns: 1 };
        let clocks = vec![fast, slow];
        let early = max_pairwise_skew(&clocks, SimTime::from_secs(1));
        let late = max_pairwise_skew(&clocks, SimTime::from_secs(100));
        assert!(late > early * 50, "100 ppm relative drift accumulates");
    }
}
