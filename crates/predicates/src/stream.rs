//! Streaming `Possibly` / `Definitely` with O(window) memory.
//!
//! [`crate::modal::modal_status`] re-sweeps the whole report log on every
//! query; this module maintains the same verdict **incrementally**, so a
//! live service answers each status query from a bounded frontier instead
//! of an O(trace) re-sort:
//!
//! - Reports are buffered under a **hold-back watermark** — a report is
//!   released for evaluation only once `hold_back` of root-local arrival
//!   time has passed since it arrived — and released strictly in
//!   strobe-key order. With `hold_back ≥ 2Δ` on intact strobes the release
//!   order equals the offline sweep's global sort, so every decision the
//!   streaming detector makes is made on the same data in the same order.
//!   A report released below a key already released is applied anyway and
//!   counted as late.
//! - **Relational** predicates run the whole-trace detector's own sweep
//!   ([`crate::detect`]) under `ScalarStrobe`, one released report at a
//!   time, keeping only the count of closed occurrences and the open one —
//!   O(1) beyond the hold-back buffer.
//! - **Conjunctive** predicates build each conjunct's truth intervals with
//!   the builder [`crate::causal::detect_conjunctive`] replays, and feed the
//!   closed ones to the same [`psn_lattice::stream::AdvancementFrontier`]:
//!   it pauses while a needed interval is still open or in flight and
//!   resumes when it closes, producing the sealed replay's occurrence
//!   sequence exactly. Consumed intervals pop
//!   immediately; stalled queues are garbage-collected under delivered-
//!   stamp dominance ([`AdvancementFrontier::prune`]) — the Δ-bound GC.
//! - [`StreamingModal::status`] is **exact**: it returns precisely
//!   [`modal_status`] of the reports offered so far whenever release order
//!   was globally correct (zero
//!   [`late_reports`](StreamingModal::late_reports), guaranteed by an
//!   adequate hold-back), and leaves the stream as it was. A relational
//!   predicate answers in O(held): the held reports are applied to the live
//!   sweep in key order, the answer is read, and the sweep is restored by
//!   copy — no clone, no allocation in steady state. A conjunctive one
//!   seals a clone of the bounded live state (buffer flushed in key order,
//!   open intervals closed, advancement run to quiescence), in O(window),
//!   not O(trace). [`StreamingModal::readout`] restates the same answer as
//!   the on-line readout a live query reports ([`OnlineStatus`]: holds,
//!   open since, closed occurrences, buffered, late).
//! - [`modal_status_streaming`] is the sealed-trace adapter: it feeds a
//!   whole trace with an infinite hold-back (so the seal performs the full
//!   sort) and is **unconditionally** bit-identical to [`modal_status`] —
//!   batch experiments share the one streaming implementation.
//!
//! [`modal_status`]: crate::modal::modal_status

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use psn_clocks::VectorStamp;
use psn_core::{ExecutionTrace, ReceivedReport};
use psn_lattice::stream::{AdvancementFrontier, FrontierOccurrence, PeerGate};
use psn_sim::time::{SimDuration, SimTime};
use psn_world::{AttrKey, AttrValue, WorldState};

use crate::causal::ConjunctBuilder;
use crate::detect::{Sweep, SweepMark};
use crate::modal::ModalStatus;
use crate::online::OnlineStatus;
use crate::spec::{Conjunct, Predicate};

/// Strobe order: scalar strobe, then process, then sense sequence — the
/// offline sweep's sort key.
type OrderKey = (u64, usize, usize);

/// A held-back report, slimmed to what evaluation needs: the strobe vector
/// rides along for conjunctive shapes only. Ordered by key alone, so of two
/// reports with one key (a Duplicate fault delivers one report twice) the
/// heap decides which leaves first.
#[derive(Debug, Clone)]
struct Held {
    key: OrderKey,
    arrived_at: SimTime,
    attr: AttrKey,
    value: AttrValue,
    truth: SimTime,
    stamp: Option<VectorStamp>,
}

impl Held {
    fn new(r: &ReceivedReport, stamp: Option<VectorStamp>) -> Self {
        Held {
            key: (r.report.stamps.strobe_scalar.value, r.report.process, r.report.sense_seq),
            arrived_at: r.arrived_at,
            attr: r.report.key,
            value: r.report.value,
            truth: r.report.stamps.truth,
            stamp,
        }
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The hold-back buffer: a report waits until `hold_back` of arrival time
/// has passed, then leaves strictly in key order; one released below the
/// highest key already released counts as late.
#[derive(Debug, Clone)]
struct HoldBack {
    heap: BinaryHeap<Reverse<Held>>,
    hold_back: SimDuration,
    last_released: Option<OrderKey>,
    late_reports: usize,
}

impl HoldBack {
    fn new(hold_back: SimDuration) -> Self {
        HoldBack { heap: BinaryHeap::new(), hold_back, last_released: None, late_reports: 0 }
    }

    /// The release watermark after an arrival at `now`.
    fn watermark(&self, now: SimTime) -> SimTime {
        SimTime::from_nanos(now.as_nanos().saturating_sub(self.hold_back.as_nanos()))
    }

    /// Release the minimum report if it arrived by `watermark`. Release
    /// stops at the first not-yet-due minimum: releasing a due report over a
    /// smaller-key, recently-arrived one would evaluate out of strobe order.
    fn pop_due(&mut self, watermark: SimTime) -> Option<Held> {
        if self.heap.peek()?.0.arrived_at > watermark {
            return None;
        }
        let Reverse(e) = self.heap.pop()?;
        self.late_reports += usize::from(self.last_released.is_some_and(|last| e.key < last));
        self.last_released = Some(self.last_released.map_or(e.key, |last| last.max(e.key)));
        Some(e)
    }
}

/// The per-shape incremental machinery.
#[derive(Debug, Clone)]
enum Shape {
    /// Empty conjunctive predicate: vacuously never occurs.
    Vacuous,
    /// The relational sweep, the occurrences it has closed, and the
    /// buffers a readout reuses.
    Relational {
        sweep: Sweep<'static>,
        closed: usize,
        scratch: ReadoutScratch,
    },
    Conjunctive(ConjunctiveStream),
}

/// What a relational readout reuses from call to call: the held entries'
/// heap positions in key order, and the sweep as it stood before they
/// applied.
#[derive(Debug, Clone, Default)]
struct ReadoutScratch {
    order: Vec<usize>,
    mark: SweepMark,
}

/// Conjunctive streaming: builders + the lattice advancement frontier, with
/// only running tallies kept (mid-stream occurrences always close).
#[derive(Debug, Clone)]
struct ConjunctiveStream {
    builders: Vec<ConjunctBuilder>,
    frontier: AdvancementFrontier,
    possibly: usize,
    definitely: usize,
    scratch: Vec<FrontierOccurrence>,
}

impl ConjunctiveStream {
    fn new(conjuncts: &[Conjunct], initial: &WorldState, n_stamp: usize) -> Self {
        let builders =
            conjuncts.iter().map(|c| ConjunctBuilder::new(c, initial, n_stamp)).collect();
        ConjunctiveStream {
            builders,
            frontier: AdvancementFrontier::new(conjuncts.len()),
            possibly: 0,
            definitely: 0,
            scratch: Vec::new(),
        }
    }

    fn apply(&mut self, e: &Held) {
        let process = e.key.1;
        let stamp = e.stamp.as_ref().expect("conjunctive entries carry the strobe vector");
        let mut fed = false;
        for (i, b) in self.builders.iter_mut().enumerate() {
            if b.process == process {
                if let Some(iv) = b.apply(e.attr, e.value, e.truth, stamp) {
                    self.frontier.push(i, iv);
                    fed = true;
                }
            }
        }
        if fed {
            self.run_frontier();
        }
    }

    /// Advance as far as closed intervals allow, tally, then Δ-bound GC
    /// against starved peers.
    fn run_frontier(&mut self) {
        self.scratch.clear();
        self.frontier.advance(&mut self.scratch);
        self.possibly += self.scratch.len();
        self.definitely += self.scratch.iter().filter(|o| o.definitely).count();
        if self.frontier.pending() > 0 && (0..self.builders.len()).any(|i| self.frontier.starved(i))
        {
            let gates: Vec<PeerGate> = self.builders.iter().map(ConjunctBuilder::gate).collect();
            self.frontier.prune(&gates);
        }
    }

    /// Close every open interval at its last delivered stamp and run the
    /// advancement to quiescence — what [`detect_conjunctive`] does after its
    /// replay.
    ///
    /// [`detect_conjunctive`]: crate::causal::detect_conjunctive
    fn seal(mut self) -> ModalStatus {
        for (i, b) in self.builders.iter().enumerate() {
            if let Some(iv) = b.trailing() {
                self.frontier.push(i, iv);
            }
        }
        let mut out = Vec::new();
        self.frontier.advance(&mut out);
        let possibly = self.possibly + out.len();
        let definitely = self.definitely + out.iter().filter(|o| o.definitely).count();
        let holding_now = out.last().is_some_and(|o| o.truth_end.is_none());
        ModalStatus { possibly, definitely, holding_now }
    }

    fn live(&self) -> usize {
        self.frontier.pending()
    }
}

/// A streaming modal detector: incremental `Possibly` / `Definitely` for
/// one predicate, O(window) memory, exact [`modal_status`] answers.
///
/// Feed reports in arrival order with [`offer`](Self::offer); query with
/// [`status`](Self::status) (observation-only: O(held) on a relational
/// predicate, O(window) on a conjunctive one); finish with
/// [`seal`](Self::seal). `hold_back ≥ 2Δ` keeps the release order equal to
/// the offline sort (zero late reports) and therefore every answer
/// bit-identical to the offline sweep over the same reports.
///
/// [`modal_status`]: crate::modal::modal_status
#[derive(Debug, Clone)]
pub struct StreamingModal {
    shape: Shape,
    buffer: HoldBack,
    mem_high_water: u64,
}

impl StreamingModal {
    /// A detector for `predicate` over `n` sensor processes (stamps cover
    /// sensors + root), holding each report back `hold_back` before
    /// evaluation. `initial` is the deployment-time observed state.
    pub fn new(
        predicate: &Predicate,
        initial: &WorldState,
        n: usize,
        hold_back: SimDuration,
    ) -> Self {
        let shape = match predicate {
            Predicate::Conjunctive(cs) if cs.is_empty() => Shape::Vacuous,
            Predicate::Conjunctive(cs) => {
                Shape::Conjunctive(ConjunctiveStream::new(cs, initial, n + 1))
            }
            Predicate::Relational(_) => {
                let sweep = Sweep::new(predicate, initial, None);
                Shape::Relational { sweep, closed: 0, scratch: ReadoutScratch::default() }
            }
        };
        StreamingModal { shape, buffer: HoldBack::new(hold_back), mem_high_water: 0 }
    }

    /// Slim a report down to what this shape needs, or `None` if it cannot
    /// affect the verdict (wrong process / irrelevant attribute).
    fn wants(&self, r: &ReceivedReport) -> Option<Held> {
        let base = |stamp| Held::new(r, stamp);
        match &self.shape {
            Shape::Vacuous => None,
            // Irrelevant attributes cannot change the swept state, so they
            // cannot produce an edge — skip them entirely.
            Shape::Relational { sweep, .. } => sweep.watches(r.report.key).then(|| base(None)),
            // Every report of a watched process matters (it advances that
            // conjunct's last delivered stamp even when the attribute is
            // irrelevant), and it carries the strobe vector.
            Shape::Conjunctive(cs) => cs
                .builders
                .iter()
                .any(|b| b.process == r.report.process)
                .then(|| base(Some(r.report.stamps.strobe_vector.clone()))),
        }
    }

    /// Feed the next report **in arrival order**; releases (and evaluates)
    /// every buffered report whose hold-back has expired.
    pub fn offer(&mut self, r: &ReceivedReport) {
        let Some(entry) = self.wants(r) else { return };
        let now = entry.arrived_at;
        self.buffer.heap.push(Reverse(entry));
        if self.buffer.hold_back != SimDuration::MAX {
            self.release_until(self.buffer.watermark(now));
        }
        self.note_high_water();
    }

    fn release_until(&mut self, watermark: SimTime) {
        while let Some(e) = self.buffer.pop_due(watermark) {
            match &mut self.shape {
                Shape::Vacuous => {}
                Shape::Relational { sweep, closed, .. } => {
                    // Under `ScalarStrobe` the only occurrence a report
                    // completes is a falling edge.
                    *closed += usize::from(sweep.step(0, e.attr, e.value, e.truth, None).is_some());
                }
                Shape::Conjunctive(cs) => cs.apply(&e),
            }
        }
    }

    fn note_high_water(&mut self) {
        self.mem_high_water = self.mem_high_water.max(self.frontier_width() as u64);
    }

    /// The exact modal status of everything offered so far — equal to
    /// [`modal_status`] over the same reports whenever release order was
    /// globally correct ([`late_reports`](Self::late_reports) == 0).
    /// O(held) on a relational predicate, O(window) on a conjunctive one;
    /// see [`readout`](Self::readout). The stream is left as it was.
    ///
    /// [`modal_status`]: crate::modal::modal_status
    pub fn status(&mut self) -> ModalStatus {
        self.readout().1
    }

    /// [`status`](Self::status) together with its on-line restatement:
    /// `holds` is `holding_now`, `occurrences` is `possibly − holding_now`,
    /// `open_since` is the open occurrence's truth start on a relational
    /// predicate (`None` otherwise), and `buffered` / `late_reports` are the
    /// live hold-back's.
    ///
    /// A relational predicate answers in O(held): the held reports are
    /// applied to the live sweep in key order — the order a flush would
    /// release them in — the answer is read, and the sweep's slots, node
    /// values, verdict and open occurrence are copied back. Nothing is
    /// cloned and, once the reused buffers have grown, nothing allocated.
    /// Equal keys are one report delivered twice, so their order among
    /// themselves cannot change the answer. A conjunctive predicate seals a
    /// clone of the bounded live state (buffer flushed in key order, open
    /// intervals closed, advancement run to quiescence).
    pub fn readout(&mut self) -> (OnlineStatus, ModalStatus) {
        let (modal, open_since) = match &mut self.shape {
            Shape::Relational { sweep, closed, scratch } => {
                let held = self.buffer.heap.as_slice();
                scratch.order.clear();
                // As roomy as the heap, so it grows only after the heap has.
                scratch.order.reserve(self.buffer.heap.capacity());
                scratch.order.extend(0..held.len());
                scratch.order.sort_unstable_by_key(|&i| held[i].0.key);
                sweep.mark(&mut scratch.mark);
                let mut possibly = *closed;
                for &i in &scratch.order {
                    let e = &held[i].0;
                    possibly +=
                        usize::from(sweep.step(0, e.attr, e.value, e.truth, None).is_some());
                }
                let open_since = sweep.open_since();
                sweep.restore(&scratch.mark);
                let holding_now = open_since.is_some();
                possibly += usize::from(holding_now);
                (ModalStatus { possibly, definitely: possibly, holding_now }, open_since)
            }
            _ => {
                let mut probe = self.clone();
                probe.release_until(SimTime::MAX);
                (probe.shape.seal(), None)
            }
        };
        let online = OnlineStatus {
            holds: modal.holding_now,
            open_since,
            occurrences: modal.possibly - usize::from(modal.holding_now),
            buffered: self.buffered(),
            late_reports: self.late_reports(),
        };
        (online, modal)
    }

    /// Flush the buffer in key order, close open intervals, and return the
    /// final verdict (end of stream).
    pub fn seal(mut self) -> ModalStatus {
        self.release_until(SimTime::MAX);
        self.note_high_water();
        self.shape.seal()
    }

    /// Reports applied after their strobe-order position had been passed
    /// (0 with adequate hold-back on intact strobes).
    pub fn late_reports(&self) -> usize {
        self.buffer.late_reports
    }

    /// Reports currently held back awaiting their watermark.
    pub fn buffered(&self) -> usize {
        self.buffer.heap.len()
    }

    /// Current live frontier width: queued conjunct intervals (the
    /// antichain the advancement still considers) plus held-back reports.
    pub fn frontier_width(&self) -> usize {
        self.buffered()
            + match &self.shape {
                Shape::Conjunctive(cs) => cs.live(),
                _ => 0,
            }
    }

    /// High-water mark of live frontier entries (buffered reports + queued
    /// intervals) — the O(window) memory bound the Δ-bound GC maintains.
    pub fn mem_high_water_cuts(&self) -> u64 {
        self.mem_high_water
    }

    /// Intervals dropped by the Δ-bound GC so far (conjunctive shapes).
    pub fn pruned_intervals(&self) -> usize {
        match &self.shape {
            Shape::Conjunctive(cs) => cs.frontier.pruned(),
            _ => 0,
        }
    }
}

impl Shape {
    fn seal(self) -> ModalStatus {
        match self {
            Shape::Vacuous => ModalStatus { possibly: 0, definitely: 0, holding_now: false },
            Shape::Relational { sweep, closed, .. } => {
                let open = sweep.finish().is_some();
                let possibly = closed + usize::from(open);
                ModalStatus { possibly, definitely: possibly, holding_now: open }
            }
            Shape::Conjunctive(cs) => cs.seal(),
        }
    }
}

/// Sealed-trace adapter: the modal status of a whole trace computed by the
/// streaming detector. Feeds every report with an infinite hold-back (so
/// nothing is released before the seal performs the full key-order sort)
/// and is therefore **unconditionally** bit-identical to
/// [`crate::modal::modal_status`] — batch callers share the streaming
/// implementation.
pub fn modal_status_streaming(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    initial: &WorldState,
) -> ModalStatus {
    let mut s = StreamingModal::new(predicate, initial, trace.n, SimDuration::MAX);
    for r in &trace.log.reports {
        s.offer(r);
    }
    s.seal()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::modal::modal_status;
    use crate::spec::Expr;
    use psn_core::{run_execution, ExecutionConfig};
    use psn_sim::delay::DelayModel;
    use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
    use psn_world::scenarios::exhibition::{self, ExhibitionParams};

    fn run(
        delta_ms: u64,
        seed: u64,
        faults: Option<FaultScript>,
    ) -> (psn_world::Scenario, ExecutionTrace) {
        let params = ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 2.0,
            mean_stay: SimDuration::from_secs(45),
            duration: SimTime::from_secs(400),
            capacity: 70,
        };
        let scenario = exhibition::generate(&params, seed);
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
            seed,
            faults,
            ..Default::default()
        };
        let trace = run_execution(&scenario, &cfg);
        (scenario, trace)
    }

    pub(crate) fn fixture(delta_ms: u64, seed: u64) -> (psn_world::Scenario, ExecutionTrace) {
        run(delta_ms, seed, None)
    }

    /// [`fixture`] with reports toward the root reordered (probability 0.3,
    /// up to `reorder_extra_ms` late) and, when `drop_prob > 0`, dropped.
    /// Loss is a rule on the root-bound channel, not the global loss model:
    /// losing inter-sensor *strobes* makes a sensor's scalar clock lag
    /// without bound, and no finite hold-back restores strobe order — the
    /// paper's 2Δ bound assumes the strobe dissemination itself is intact.
    pub(crate) fn faulted_fixture(
        delta_ms: u64,
        seed: u64,
        reorder_extra_ms: u64,
        drop_prob: f64,
    ) -> (psn_world::Scenario, ExecutionTrace) {
        let to_root = |prob, effect| {
            FaultSpec::Channel(ChannelFaultRule {
                from: None,
                to: Some(3), // the root
                prob,
                effect,
                duration: None,
            })
        };
        let extra = SimDuration::from_millis(reorder_extra_ms);
        let mut script =
            FaultScript::new().with(SimTime::ZERO, to_root(0.3, ChannelEffect::Reorder { extra }));
        if drop_prob > 0.0 {
            script = script.with(SimTime::ZERO, to_root(drop_prob, ChannelEffect::Drop));
        }
        run(delta_ms, seed, Some(script))
    }

    fn busy_conjuncts(k: i64) -> Vec<Conjunct> {
        (0..2)
            .map(|d| Conjunct {
                process: d,
                expr: Expr::var(AttrKey::new(d, 0))
                    .sub(Expr::var(AttrKey::new(d, 1)))
                    .gt(Expr::int(k)),
            })
            .collect()
    }

    #[test]
    fn sealed_adapter_equals_offline_relational() {
        for seed in 0..4 {
            let (scenario, trace) = fixture(200, seed);
            let pred = Predicate::occupancy_over(3, 70);
            let init = scenario.timeline.initial_state();
            assert_eq!(
                modal_status_streaming(&trace, &pred, &init),
                modal_status(&trace, &pred, &init),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sealed_adapter_equals_offline_conjunctive() {
        for seed in 0..4 {
            let (scenario, trace) = fixture(250, seed);
            let pred = Predicate::Conjunctive(busy_conjuncts(2));
            let init = scenario.timeline.initial_state();
            assert_eq!(
                modal_status_streaming(&trace, &pred, &init),
                modal_status(&trace, &pred, &init),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn incremental_status_equals_offline_prefix() {
        // Feed one report at a time with an adequate hold-back (2Δ, or more
        // than 2Δ plus the reorder extra on a reordering, lossy channel);
        // after each chunk, readout() must give modal_status over the prefix
        // offered so far (the offline oracle run on a truncated trace) and
        // restate it as the on-line readout.
        let mut runs = vec![(fixture(150, 7), 300)];
        for seed in [1, 6, 12] {
            let (scenario, trace) = faulted_fixture(150, seed, 300, 0.05);
            let stats = trace.faults.as_ref().expect("a fault script ran");
            assert!(stats.reordered > 0, "seed {seed}: reordering must fire");
            assert!(stats.dropped_by_channel > 0, "seed {seed}: loss must fire");
            runs.push(((scenario, trace), 2 * 150 + 300 + 50));
        }
        for ((scenario, trace), hold_ms) in runs {
            let init = scenario.timeline.initial_state();
            let preds =
                [Predicate::occupancy_over(3, 70), Predicate::Conjunctive(busy_conjuncts(2))];
            for pred in preds {
                let hold = SimDuration::from_millis(hold_ms);
                let mut s = StreamingModal::new(&pred, &init, trace.n, hold);
                let len = trace.log.reports.len();
                let step = (len / 7).max(1);
                for (i, r) in trace.log.reports.iter().enumerate() {
                    s.offer(r);
                    if i % step == 0 || i + 1 == len {
                        let mut prefix = trace.clone();
                        prefix.log.reports.truncate(i + 1);
                        assert_eq!(s.late_reports(), 0, "hold-back must suffice");
                        let (online, modal) = s.readout();
                        assert_eq!(
                            modal,
                            modal_status(&prefix, &pred, &init),
                            "prefix {} of {len}",
                            i + 1
                        );
                        assert_eq!(online.holds, modal.holding_now);
                        assert_eq!(online.occurrences + usize::from(online.holds), modal.possibly);
                    }
                }
                assert_eq!(s.seal(), modal_status(&trace, &pred, &init));
            }
        }
    }

    #[test]
    fn vacuous_conjunctive_is_zero() {
        let (scenario, trace) = fixture(100, 1);
        let init = scenario.timeline.initial_state();
        let pred = Predicate::Conjunctive(Vec::new());
        let mut s = StreamingModal::new(&pred, &init, trace.n, SimDuration::ZERO);
        for r in &trace.log.reports {
            s.offer(r);
        }
        assert_eq!(s.status(), ModalStatus { possibly: 0, definitely: 0, holding_now: false });
    }

    #[test]
    fn memory_stays_bounded_with_finite_holdback() {
        // 10× the ingest must not grow the high-water mark ~10×: the
        // frontier is O(rate × hold_back), not O(trace).
        let pred = Predicate::occupancy_over(3, 70);
        let mut highs = Vec::new();
        for secs in [400u64, 4000] {
            let params = ExhibitionParams {
                doors: 3,
                arrival_rate_hz: 2.0,
                mean_stay: SimDuration::from_secs(45),
                duration: SimTime::from_secs(secs),
                capacity: 70,
            };
            let scenario = exhibition::generate(&params, 3);
            let cfg = ExecutionConfig {
                delay: DelayModel::delta(SimDuration::from_millis(150)),
                seed: 3,
                ..Default::default()
            };
            let trace = run_execution(&scenario, &cfg);
            let init = scenario.timeline.initial_state();
            let mut s = StreamingModal::new(&pred, &init, trace.n, SimDuration::from_millis(300));
            for r in &trace.log.reports {
                s.offer(r);
            }
            highs.push((trace.log.reports.len(), s.mem_high_water_cuts()));
        }
        let (n0, h0) = highs[0];
        let (n1, h1) = highs[1];
        assert!(n1 > 8 * n0, "the long run must really be ~10× the ingest");
        assert!(h1 <= h0.max(1) * 3, "high-water {h1} vs {h0} must stay O(window)");
    }

    #[test]
    fn conjunctive_gc_prunes_stalled_queues() {
        // Room 0's motion flag toggles constantly; conjunct 1 (temp over an
        // absurd threshold) never becomes true, so its queue starves forever
        // — without the Δ-bound GC, room 0's closed intervals pile up
        // without bound.
        use psn_world::scenarios::office::{self, OfficeParams, ATTR_MOTION, ATTR_TEMP};
        let params = OfficeParams {
            rooms: 2,
            persons: 3,
            mean_dwell: SimDuration::from_secs(20),
            duration: SimTime::from_secs(1800),
            ..Default::default()
        };
        let scenario = office::generate(&params, 5);
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(150)),
            seed: 5,
            ..Default::default()
        };
        let trace = run_execution(&scenario, &cfg);
        let init = scenario.timeline.initial_state();
        let pred = Predicate::Conjunctive(vec![
            Conjunct { process: 0, expr: Expr::var(AttrKey::new(0, ATTR_MOTION)) },
            Conjunct {
                process: 1,
                expr: Expr::var(AttrKey::new(1, ATTR_TEMP)).gt(Expr::int(10_000)),
            },
        ]);
        let mut s = StreamingModal::new(&pred, &init, trace.n, SimDuration::from_millis(300));
        for r in &trace.log.reports {
            s.offer(r);
        }
        assert!(s.pruned_intervals() > 0, "the Δ-bound GC must fire on the stalled queue");
        assert!(
            (s.frontier_width() as u64) < trace.log.reports.len() as u64 / 4,
            "pruning must keep the frontier far below the report count"
        );
        // And the GC must not have changed the verdict.
        assert_eq!(s.seal(), modal_status(&trace, &pred, &init));
    }
}
