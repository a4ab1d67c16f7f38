//! Execution-level instrumentation: what the ⟨P, L, O, C⟩ planes did.
//!
//! [`ExecMetrics`] is a bundle of pre-registered handles into a
//! [`psn_sim::metrics::Metrics`] registry, cloned into every
//! [`crate::process::SensorProcess`] and the [`crate::root::RootProcess`]
//! of an instrumented execution (see
//! [`crate::execution::run_execution_instrumented`]). It counts the
//! paper's semantic events — sense `n`, send `s`, receive `r`, actuate `a`
//! — plus strobe broadcasts, and accounts wire bytes **by clock
//! discipline** using the same analytic model as experiment E7: each
//! strobe broadcast reaches the `n−1` peers plus the root, an O(1) scalar
//! strobe payload is 8 bytes, an O(n) vector strobe payload is
//! `8·(n+1)` bytes, and each report piggybacks one `8·(n+1)`-byte causal
//! vector.
//!
//! Recording is observational only — no randomness, no effect on event
//! order — so instrumented and plain executions are bit-identical.

use psn_sim::metrics::{Counter, Metrics};

/// Bytes per scalar (strobe scalar / SSC) clock value on the wire.
const SCALAR_BYTES: u64 = 8;

/// Pre-registered execution metric handles. Clone freely; clones share
/// the same underlying cells.
#[derive(Clone)]
pub struct ExecMetrics {
    /// Sensor processes in the execution (the vector clocks have `n + 1`
    /// components, root included).
    n: u64,
    /// Sense events (`n` in the paper's event taxonomy).
    pub senses: Counter,
    /// Send events (`s`): reports from sensors plus actuation commands
    /// from the root.
    pub sends: Counter,
    /// Receive events (`r`): reports arriving at the root.
    pub receives: Counter,
    /// Actuate events (`a`) at sensor processes.
    pub actuates: Counter,
    /// Strobe broadcasts initiated (event-driven plus heartbeat).
    pub strobes: Counter,
    /// Wire bytes attributable to O(1) scalar strobe payloads.
    pub strobe_scalar_bytes: Counter,
    /// Wire bytes attributable to O(n) vector strobe payloads.
    pub strobe_vector_bytes: Counter,
    /// Wire bytes of causal vector piggybacks on reports.
    pub causal_piggyback_bytes: Counter,
}

impl ExecMetrics {
    /// Register execution metrics for an `n`-sensor run in `metrics`.
    pub fn attach(metrics: &Metrics, n: usize) -> Self {
        ExecMetrics {
            n: n as u64,
            senses: metrics.counter("exec.senses"),
            sends: metrics.counter("exec.sends"),
            receives: metrics.counter("exec.receives"),
            actuates: metrics.counter("exec.actuates"),
            strobes: metrics.counter("exec.strobes_broadcast"),
            strobe_scalar_bytes: metrics.counter("exec.strobe_scalar_bytes"),
            strobe_vector_bytes: metrics.counter("exec.strobe_vector_bytes"),
            causal_piggyback_bytes: metrics.counter("exec.causal_piggyback_bytes"),
        }
    }

    /// Inert handles for uninstrumented runs.
    pub fn disabled() -> Self {
        ExecMetrics::attach(&Metrics::disabled(), 0)
    }

    /// Record one strobe broadcast: the payload reaches the `n−1` peers
    /// plus the root, costing O(1) bytes per receiver under the scalar
    /// discipline and O(n) under the vector discipline.
    pub fn on_strobe_broadcast(&self) {
        self.strobes.inc();
        let receivers = self.n; // n−1 peers + the root
        self.strobe_scalar_bytes.add(receivers * SCALAR_BYTES);
        self.strobe_vector_bytes.add(receivers * SCALAR_BYTES * (self.n + 1));
    }

    /// Record one report send: the causal vector piggyback costs
    /// `8·(n+1)` bytes.
    pub fn on_report_sent(&self) {
        self.sends.inc();
        self.causal_piggyback_bytes.add(SCALAR_BYTES * (self.n + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting_matches_the_e7_model() {
        let m = Metrics::new();
        let em = ExecMetrics::attach(&m, 4); // n = 4 sensors
        em.on_strobe_broadcast();
        em.on_strobe_broadcast();
        em.on_report_sent();
        let snap = m.snapshot();
        assert_eq!(snap.counter("exec.strobes_broadcast"), Some(2));
        // 2 broadcasts × 4 receivers × 8 bytes.
        assert_eq!(snap.counter("exec.strobe_scalar_bytes"), Some(64));
        // The vector payload is (n+1)× the scalar payload.
        assert_eq!(snap.counter("exec.strobe_vector_bytes"), Some(64 * 5));
        assert_eq!(snap.counter("exec.causal_piggyback_bytes"), Some(8 * 5));
        assert_eq!(snap.counter("exec.sends"), Some(1));
    }

    #[test]
    fn disabled_handles_are_inert() {
        let em = ExecMetrics::disabled();
        em.on_strobe_broadcast();
        em.senses.inc();
        assert_eq!(em.senses.get(), 0);
        assert_eq!(em.strobes.get(), 0);
    }
}
