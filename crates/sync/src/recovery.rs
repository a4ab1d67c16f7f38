//! Post-recovery resynchronization planning.
//!
//! A process that crashes and reboots loses its synchronized-clock state:
//! until the sync protocol runs again its residual offset is unbounded, so
//! ε-based predicate windows are unsound for it (the fault plane models
//! this by desyncing the recovering node's [`psn_clocks::SyncedClock`]).
//! This module prices the repair: a TPSN-style two-way exchange with an
//! already-synchronized neighbour, repeated `exchanges` times to average
//! out jitter. The resulting plan tells the recovering process *when* its
//! ε guarantee holds again and what the repair cost on the radio — the
//! numbers experiments E11/E12 use for the "ε-synced physical does not
//! re-converge until resync" claim.

use serde::{Deserialize, Serialize};

use psn_sim::time::SimDuration;

use crate::cost::CostModel;

/// Parameters of one post-recovery resync round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResyncParams {
    /// Two-way exchanges performed (TPSN uses several to average jitter).
    pub(crate) exchanges: u64,
    /// Round-trip time of one exchange (propagation + processing, both
    /// ways). The plan is conservative: exchanges run sequentially.
    pub rtt: SimDuration,
    /// Payload bytes per exchange message (two readings).
    pub(crate) bytes_per_message: u64,
}

impl Default for ResyncParams {
    fn default() -> Self {
        ResyncParams { exchanges: 4, rtt: SimDuration::from_millis(250), bytes_per_message: 16 }
    }
}

/// The deterministic outcome of planning a resync round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResyncPlan {
    /// Delay from recovery until the ε bound holds again.
    pub completes_after: SimDuration,
    /// Messages spent (request + reply per exchange).
    pub messages: u64,
    /// Payload bytes spent.
    pub bytes: u64,
}

impl ResyncPlan {
    /// Radio energy of the repair under `model`.
    pub fn energy(&self, model: &CostModel) -> f64 {
        // Each exchange message is transmitted once and received once.
        model.energy(self.messages, self.messages, self.bytes)
    }
}

/// Plan the post-recovery resync round for `params`.
pub fn plan_resync(params: &ResyncParams) -> ResyncPlan {
    let messages = params.exchanges * 2;
    ResyncPlan {
        completes_after: SimDuration::from_nanos(
            params.rtt.as_nanos().saturating_mul(params.exchanges),
        ),
        messages,
        bytes: messages * params.bytes_per_message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_sequential_exchanges() {
        let plan = plan_resync(&ResyncParams::default());
        assert_eq!(plan.completes_after, SimDuration::from_secs(1));
        assert_eq!(plan.messages, 8);
        assert_eq!(plan.bytes, 128);
    }

    #[test]
    fn zero_exchanges_is_free_and_instant() {
        let plan = plan_resync(&ResyncParams { exchanges: 0, ..Default::default() });
        assert_eq!(plan.completes_after, SimDuration::ZERO);
        assert_eq!(plan.messages, 0);
        assert_eq!(plan.energy(&CostModel::default()), 0.0);
    }

    #[test]
    fn energy_counts_both_directions() {
        let model = CostModel { tx_cost: 1.0, rx_cost: 1.0, byte_cost: 0.0 };
        let plan = plan_resync(&ResyncParams { exchanges: 3, ..Default::default() });
        assert!((plan.energy(&model) - 12.0).abs() < 1e-12, "6 messages, tx+rx each");
    }
}
