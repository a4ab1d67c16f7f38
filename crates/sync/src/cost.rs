//! Energy/message cost accounting.
//!
//! The paper's recurring point (§3.2.1.a.ii, §3.3 limitation 1): the
//! synchronized-clock service "does not come for free to the application;
//! the lower layers pay the cost", and in remote/wild deployments the
//! energy may simply not be affordable. This module turns message counts
//! into a simple radio-energy estimate so experiment E7 can put the sync
//! protocols and the strobe protocols on one axis.

use serde::{Deserialize, Serialize};

use psn_sim::network::NetStats;

use crate::rbs::SyncOutcome;

/// A first-order radio energy model: cost per transmitted message, per
/// received message, and per payload byte (sensor radios burn energy
/// roughly linearly in on-air bytes; the per-message terms capture
/// wake-up/preamble overhead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Energy units per transmission.
    pub(crate) tx_cost: f64,
    /// Energy units per reception.
    pub(crate) rx_cost: f64,
    /// Energy units per payload byte transmitted.
    pub(crate) byte_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Loosely CC2420-flavoured ratios: rx ≈ tx, bytes cheap relative to
        // per-packet overhead.
        CostModel { tx_cost: 1.0, rx_cost: 0.8, byte_cost: 0.02 }
    }
}

impl CostModel {
    /// Energy for a sync run.
    pub fn sync_energy(&self, outcome: &SyncOutcome) -> f64 {
        // Every sent message is (at most) one reception in these protocols.
        self.energy(outcome.messages, outcome.messages, outcome.bytes)
    }

    /// Energy for arbitrary network counters.
    pub fn net_energy(&self, stats: &NetStats) -> f64 {
        self.energy(stats.messages_sent, stats.messages_delivered, stats.bytes_sent)
    }

    /// The raw formula.
    pub fn energy(&self, tx: u64, rx: u64, bytes: u64) -> f64 {
        tx as f64 * self.tx_cost + rx as f64 * self.rx_cost + bytes as f64 * self.byte_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::time::{SimDuration, SimTime};

    #[test]
    fn energy_formula() {
        let m = CostModel { tx_cost: 2.0, rx_cost: 1.0, byte_cost: 0.1 };
        assert!((m.energy(10, 8, 100) - (20.0 + 8.0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn sync_energy_uses_outcome_counters() {
        let out = SyncOutcome {
            achieved_skew: SimDuration::from_micros(50),
            initial_skew: SimDuration::from_millis(10),
            messages: 100,
            bytes: 1000,
            completed_at: SimTime::from_secs(1),
        };
        let m = CostModel::default();
        let e = m.sync_energy(&out);
        assert!((e - (100.0 + 80.0 + 20.0)).abs() < 1e-9);
    }

    #[test]
    fn net_energy_uses_stats() {
        let stats = NetStats {
            messages_sent: 50,
            messages_delivered: 45,
            messages_lost: 5,
            bytes_sent: 400,
            broadcasts: 10,
        };
        let m = CostModel::default();
        assert!((m.net_energy(&stats) - (50.0 + 36.0 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn default_is_rx_cheaper_than_tx() {
        let m = CostModel::default();
        assert!(m.rx_cost < m.tx_cost);
        assert!(m.byte_cost < m.rx_cost);
    }
}
