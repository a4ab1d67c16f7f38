//! The one observability registry.
//!
//! A lightweight, observation-only layer for the simulator and everything
//! built on it. A [`Metrics`] registry holds two sections under one
//! `enabled` flag:
//!
//! - pre-registered handles — [`Counter`], [`Gauge`] (with high-water
//!   tracking), and [`Timer`] (a fixed-width histogram plus
//!   [`OnlineStats`] moments, reusing [`crate::stats`]) — exported as the
//!   deterministic [`MetricsSnapshot`];
//! - the per-shard and coordinator phase slots of its wall-clock view,
//!   [`Metrics::telemetry`] ([`crate::telemetry`]), exported as the
//!   [`crate::telemetry::TelemetrySnapshot`].
//!
//! Design rules, in priority order:
//!
//! 1. **Determinism is untouchable.** The engine and the execution count
//!    their events once, in the plain counters they keep anyway, and
//!    publish them at advance boundaries ([`PublishedCounters`],
//!    [`Gauge::set_with_high`]): nothing is recorded per event, and
//!    nothing feeds back into the run. A run with an enabled registry is
//!    bit-identical to the same run with a disabled one, and its
//!    published snapshot is pinned (`tests/metrics_determinism.rs`).
//! 2. **No allocation after registration.** [`Counter::add`] and
//!    [`Gauge::set`] are single atomic operations; [`Timer::record`] takes
//!    an uncontended [`std::sync::Mutex`] around a fixed-size `Histogram`
//!    bump and a Welford update.
//! 3. **Thread-safe by construction.** Handles are `Clone + Send + Sync`
//!    (shared via `Arc`), so sweep workers on different OS threads can
//!    record into one registry.
//!
//! A disabled registry ([`Metrics::disabled`]) hands out inert handles
//! whose record methods early-return on a copied `bool` — callers thread
//! instrumentation unconditionally and let the registry decide.
//!
//! Export: [`Metrics::snapshot`] produces a [`MetricsSnapshot`] — plain
//! serde-serializable data sorted by metric name. The `--obs-out` JSONL
//! records of `psn-bench` carry it beside the phase view's snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::stats::{Histogram, OnlineStats};
use crate::telemetry::{PhaseSlots, Telemetry};

/// A registry lock is poisoned only if a thread panicked inside it.
const METRICS_POISONED: &str = "a thread panicked while holding a metrics lock";

#[derive(Default)]
struct Inner {
    enabled: bool,
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<GaugeCell>)>>,
    timers: Mutex<Vec<(String, Arc<Mutex<TimerCell>>)>>,
    phases: PhaseSlots,
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicU64,
    high: AtomicU64,
}

struct TimerCell {
    hist: Histogram,
    stats: OnlineStats,
}

/// A registry of named counters, gauges, and timing histograms, and of
/// the wall-clock phase slots behind [`Metrics::telemetry`].
///
/// Cloning is cheap (an `Arc` bump) and clones share the same metrics —
/// pass clones into engines, sweep workers, and detectors freely.
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Inner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Metrics { inner: Arc::new(Inner { enabled: true, ..Default::default() }) }
    }

    /// A disabled registry: handles registered against it are inert no-ops
    /// that never read the wall clock, and [`Metrics::snapshot`] is empty.
    /// Use where instrumentation is threaded unconditionally but the caller
    /// did not ask for it.
    pub fn disabled() -> Self {
        Metrics { inner: Arc::new(Inner { enabled: false, ..Default::default() }) }
    }

    /// True if this registry records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Register (or re-attach to) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect(METRICS_POISONED);
        let cell = match counters.iter().find(|(n, _)| n == name) {
            Some((_, c)) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                counters.push((name.to_string(), Arc::clone(&c)));
                c
            }
        };
        Counter { cell, active: self.inner.enabled }
    }

    /// Register (or re-attach to) the gauge `name`. Gauges track both the
    /// last set value and the high-water mark.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect(METRICS_POISONED);
        let cell = match gauges.iter().find(|(n, _)| n == name) {
            Some((_, c)) => Arc::clone(c),
            None => {
                let c = Arc::new(GaugeCell::default());
                gauges.push((name.to_string(), Arc::clone(&c)));
                c
            }
        };
        Gauge { cell, active: self.inner.enabled }
    }

    /// Register (or re-attach to) the timer `name` with an explicit
    /// fixed-width histogram over `[lo, hi)` with `bins` buckets.
    /// Observations outside the range clamp into the end bins
    /// (`Histogram` semantics); moments are exact regardless.
    pub fn timer_with_range(&self, name: &str, lo: f64, hi: f64, bins: usize) -> Timer {
        let mut timers = self.inner.timers.lock().expect(METRICS_POISONED);
        let cell = match timers.iter().find(|(n, _)| n == name) {
            Some((_, c)) => Arc::clone(c),
            None => {
                let c = Arc::new(Mutex::new(TimerCell {
                    hist: Histogram::new(lo, hi, bins),
                    stats: OnlineStats::new(),
                }));
                timers.push((name.to_string(), Arc::clone(&c)));
                c
            }
        };
        Timer { cell, active: self.inner.enabled }
    }

    /// The registry's wall-clock phase view: per-shard and coordinator
    /// span handles, and the run wall. It shares this registry's slots and
    /// its `enabled` flag.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::of(self.clone())
    }

    pub(crate) fn phase_slots(&self) -> &PhaseSlots {
        &self.inner.phases
    }

    /// A point-in-time copy of every metric, sorted by name. Empty for a
    /// disabled registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.inner.enabled {
            return MetricsSnapshot::default();
        }
        let mut counters: Vec<CounterSample> = self
            .inner
            .counters
            .lock()
            .expect(METRICS_POISONED)
            .iter()
            .map(|(name, c)| CounterSample { name: name.clone(), value: c.load(Ordering::Relaxed) })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = self
            .inner
            .gauges
            .lock()
            .expect(METRICS_POISONED)
            .iter()
            .map(|(name, c)| GaugeSample {
                name: name.clone(),
                value: c.value.load(Ordering::Relaxed),
                high: c.high.load(Ordering::Relaxed),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut timers: Vec<TimerSample> = self
            .inner
            .timers
            .lock()
            .expect(METRICS_POISONED)
            .iter()
            .map(|(name, c)| {
                let cell = c.lock().expect(METRICS_POISONED);
                let s = &cell.stats;
                let empty = s.count() == 0;
                TimerSample {
                    name: name.clone(),
                    count: s.count(),
                    mean: s.mean(),
                    min: if empty { 0.0 } else { s.min() },
                    max: if empty { 0.0 } else { s.max() },
                    p50: if empty { 0.0 } else { cell.hist.quantile(0.50) },
                    p90: if empty { 0.0 } else { cell.hist.quantile(0.90) },
                    p99: if empty { 0.0 } else { cell.hist.quantile(0.99) },
                }
            })
            .collect();
        timers.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, timers }
    }
}

/// A monotone event counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    active: bool,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if self.active {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge that also remembers its high-water mark.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
    active: bool,
}

impl Gauge {
    /// Set the current value, updating the high-water mark. The locked
    /// read-modify-write runs only when `v` may raise the mark.
    pub fn set(&self, v: u64) {
        if self.active {
            self.cell.value.store(v, Ordering::Relaxed);
            if v > self.cell.high.load(Ordering::Relaxed) {
                self.cell.high.fetch_max(v, Ordering::Relaxed);
            }
        }
    }

    /// Publish a value together with the high-water mark its source kept:
    /// the mark rises to `high` (or `v`, if larger).
    pub fn set_with_high(&self, v: u64, high: u64) {
        if self.active {
            self.cell.value.store(v, Ordering::Relaxed);
            self.cell.high.fetch_max(high.max(v), Ordering::Relaxed);
        }
    }
}

/// Counters published from counts their source keeps anyway: each
/// [`publish`](Self::publish) adds what grew since the last one, so
/// sources sharing a registry add up.
pub struct PublishedCounters<const N: usize> {
    counters: [Counter; N],
    published: [u64; N],
}

impl<const N: usize> PublishedCounters<N> {
    /// Register the counters `names` in `metrics`.
    pub fn attach(metrics: &Metrics, names: [&str; N]) -> Self {
        PublishedCounters { counters: names.map(|n| metrics.counter(n)), published: [0; N] }
    }

    /// Publish the source's running totals, in `names` order.
    pub fn publish(&mut self, totals: [u64; N]) {
        for ((counter, last), now) in self.counters.iter().zip(&mut self.published).zip(totals) {
            counter.add(now - *last);
            *last = now;
        }
    }
}

/// A timing accumulator: fixed-width `Histogram` for quantiles plus
/// [`OnlineStats`] for exact moments. Units are whatever the caller
/// records — by convention nanoseconds for wall-clock durations.
#[derive(Clone)]
pub struct Timer {
    cell: Arc<Mutex<TimerCell>>,
    active: bool,
}

impl Timer {
    /// Record one observation.
    pub fn record(&self, x: f64) {
        if self.active {
            let mut cell = self.cell.lock().expect(METRICS_POISONED);
            cell.hist.record(x);
            cell.stats.push(x);
        }
    }
}

/// Point-in-time export of a [`Metrics`] registry: plain data, sorted by
/// name, serializable with serde (one JSON object per snapshot).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All timers, sorted by name.
    pub timers: Vec<TimerSample>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The (value, high-water) of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        self.gauges.iter().find(|g| g.name == name).map(|g| (g.value, g.high))
    }

    /// The sample for timer `name`, if registered.
    pub fn timer(&self, name: &str) -> Option<&TimerSample> {
        self.timers.iter().find(|t| t.name == name)
    }
}

/// One exported counter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One exported gauge.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: u64,
    /// High-water mark over the registry's lifetime.
    pub high: u64,
}

/// One exported timer: count, exact moments, and histogram quantiles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimerSample {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Exact mean (0 if empty).
    pub mean: f64,
    /// Smallest observation (0 if empty).
    pub min: f64,
    /// Largest observation (0 if empty).
    pub max: f64,
    /// Median, at histogram-bin granularity.
    pub p50: f64,
    /// 90th percentile, at histogram-bin granularity.
    pub p90: f64,
    /// 99th percentile, at histogram-bin granularity.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let m = Metrics::new();
        let c = m.counter("events");
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(m.snapshot().counter("events"), Some(5));
    }

    #[test]
    fn published_counters_add_what_grew() {
        let m = Metrics::new();
        let mut a = PublishedCounters::attach(&m, ["x", "y"]);
        let mut b = PublishedCounters::attach(&m, ["x", "y"]);
        a.publish([3, 1]);
        a.publish([5, 1]);
        b.publish([2, 0]);
        let snap = m.snapshot();
        assert_eq!((snap.counter("x"), snap.counter("y")), (Some(7), Some(1)));
    }

    #[test]
    fn same_name_shares_a_cell() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(m.snapshot().counter("x"), Some(5));
        assert_eq!(m.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauges_track_high_water() {
        let m = Metrics::new();
        let g = m.gauge("depth");
        g.set(3);
        g.set(10);
        g.set(4);
        assert_eq!(m.snapshot().gauge("depth"), Some((4, 10)));
        // A published mark only rises, and never below the value.
        g.set_with_high(2, 7);
        assert_eq!(m.snapshot().gauge("depth"), Some((2, 10)));
        g.set_with_high(12, 11);
        assert_eq!(m.snapshot().gauge("depth"), Some((12, 12)));
    }

    #[test]
    fn timers_accumulate_moments_and_quantiles() {
        let m = Metrics::new();
        let t = m.timer_with_range("lat", 0.0, 100.0, 10);
        for x in [5.0, 15.0, 25.0, 35.0, 95.0] {
            t.record(x);
        }
        let snap = m.snapshot();
        let s = snap.timer("lat").unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 35.0).abs() < 1e-12);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 95.0);
        assert!(s.p50 >= 20.0 && s.p50 <= 30.0, "p50 bin holds 25.0, got {}", s.p50);
        assert!(s.p99 >= 90.0, "p99 reaches the top bin, got {}", s.p99);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let m = Metrics::disabled();
        let c = m.counter("c");
        let g = m.gauge("g");
        let t = m.timer_with_range("t", 0.0, 1e9, 64);
        c.add(7);
        g.set(7);
        t.record(7.0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.cell.value.load(Ordering::Relaxed), 0);
        assert_eq!(t.cell.lock().unwrap().stats.count(), 0);
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let m = Metrics::new();
        m.counter("zeta").add(1);
        m.counter("alpha").add(1);
        m.gauge("mid").set(1);
        let s1 = m.snapshot();
        let names: Vec<&str> = s1.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(s1, m.snapshot(), "snapshot of unchanged registry is stable");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.counter("msgs").add(42);
        m.gauge("depth").set(9);
        m.timer_with_range("wall", 0.0, 10.0, 4).record(3.5);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::new();
        let c = m.counter("shared");
        let m2 = m.clone();
        m2.counter("shared").add(3);
        c.add(1);
        assert_eq!(m.snapshot().counter("shared"), Some(4));
    }

    #[test]
    fn handles_record_across_threads() {
        let m = Metrics::new();
        let c = m.counter("parallel");
        let t = m.timer_with_range("tt", 0.0, 100.0, 10);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.add(1);
                        if i % 100 == 0 {
                            t.record(i as f64 / 100.0);
                        }
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counter("parallel"), Some(4000));
        assert_eq!(m.snapshot().timer("tt").unwrap().count, 40);
    }
}
