//! The five workloads behind one measuring loop: set up a few times, repeat a
//! fixed-size job until the time is used, check every result.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use psn_clocks::VectorStamp;
use psn_core::{run_execution, run_execution_instrumented, world_events, ExecutionTrace};
use psn_lattice::{enumerate_lattice, History};
use psn_predicates::{
    detect_occurrences, modal_status, Discipline, ModalStatus, Predicate, StreamingModal,
};
use psn_sim::metrics::Metrics;
use psn_world::WorldState;

use crate::inputs::{self, Input, Sizes};
use crate::serve_load::{self, ServeInput};
use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeBurst,
    ServePaced,
    BatchReplay,
    BatchWide,
    DetectFanout,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::ServeBurst,
        Kind::ServePaced,
        Kind::BatchReplay,
        Kind::BatchWide,
        Kind::DetectFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeBurst => "serve_burst",
            Kind::ServePaced => "serve_paced",
            Kind::BatchReplay => "batch_replay",
            Kind::BatchWide => "batch_wide",
            Kind::DetectFanout => "detect_fanout",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A served session (latency per round) rather than a batch job (wall
    /// per job).
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeBurst | Kind::ServePaced)
    }

    /// The serve workloads run with the whole process on one CPU: unpinned,
    /// the closed-loop client is bimodal (4× apart) depending on whether the
    /// kernel spreads client and server threads over two cores. `batch_wide`
    /// needs every core; the other batch workloads are single-threaded, and
    /// pinning them changed nothing.
    pub fn pinned(self) -> bool {
        self.is_serve()
    }

    /// Times the set-up is repeated; `setup_s` is the median. About a second
    /// in all: more repetitions where one takes a few dozen milliseconds, so
    /// that its median is as steady as a long one's. A fixed count, not a
    /// time limit: what the set-ups leave behind in the allocator is part of
    /// `peak_rss_mb`.
    pub fn setups(self) -> usize {
        match self {
            Kind::ServeBurst | Kind::ServePaced | Kind::BatchWide => 5,
            Kind::BatchReplay => 9,
            Kind::DetectFanout => 13,
        }
    }
}

/// Operations attempted and failed, verdict disagreements, and the
/// deterministic counts that must not change between repetitions.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub counts: BTreeMap<String, u64>,
    pub findings: Vec<String>,
}

impl Tally {
    /// One operation: refused, errored or answered with the wrong reply
    /// kind counts as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Two computations of one verdict must agree.
    pub fn verdict(&mut self, what: &str, agree: bool) {
        if !agree {
            self.mismatches += 1;
            self.findings.push(what.to_string());
        }
    }

    /// A deterministic count; any later call with another value for the same
    /// name is a mismatch.
    pub fn count(&mut self, name: &str, value: u64) {
        if let Some(prev) = self.counts.insert(name.to_string(), value) {
            self.verdict(
                &format!("{name} changed between repetitions: {prev} then {value}"),
                prev == value,
            );
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.findings.extend(other.findings);
        for (name, value) in other.counts {
            self.count(&name, value);
        }
    }
}

/// What one repetition measured. Every repetition of a workload carries the
/// same fixed number of events.
#[derive(Default)]
pub struct Rep {
    /// Input to complete, checked result.
    pub wall_s: f64,
    /// Event→verdict latency of every round, µs (the serve workloads only).
    pub latency_us: Vec<f64>,
    /// Seconds inside `run_execution`, where the job has any.
    pub engine_s: Option<f64>,
    /// How late each paced round was sent, µs (`serve_paced` only).
    pub lag_us: Vec<f64>,
    /// Dashboard read latency from its due time, µs (`serve_paced` only).
    pub read_latency_us: Vec<f64>,
    /// The host round trip sampled after every paced round, µs
    /// (`serve_paced` only; see `serve_load::HostRtt`).
    pub host_rtt_us: Vec<f64>,
}

/// A batch input with its reference counts.
pub struct BatchInput {
    pub input: Input,
    pub init: WorldState,
    pub world_events: u64,
    /// `engine.events_processed` of the instrumented reference run.
    pub engine_events: u64,
    /// The sequential reference run and its verdict.
    pub reference: ExecutionTrace,
    pub reference_modal: ModalStatus,
}

fn batch_input(input: Input, tally: &mut Tally) -> BatchInput {
    // The reference always runs sequentially, so a sharded job is checked
    // against the single-threaded engine.
    let mut seq = input.cfg.clone();
    seq.shards = 1;
    let metrics = Metrics::new();
    let reference = run_execution_instrumented(&input.scenario, &seq, &metrics);
    let engine_events = metrics.snapshot().counter("engine.events_processed").unwrap_or(0);
    let world = world_events(&input.scenario).len() as u64;
    tally.count("world.events", world);
    tally.count("sim.events_processed", engine_events);
    let init = input.scenario.timeline.initial_state();
    BatchInput {
        reference_modal: modal_status(&reference, &input.predicate, &init),
        init,
        input,
        world_events: world,
        engine_events,
        reference,
    }
}

fn check_trace(trace: &ExecutionTrace, tally: &mut Tally) {
    tally.count("core.log_events", trace.log.events.len() as u64);
    tally.count("core.log_reports", trace.log.reports.len() as u64);
}

/// One `StreamingModal` pass over a recorded report stream: offer every
/// report, probe `status()` at the dashboard cadence, seal.
pub fn stream_pass(
    trace: &ExecutionTrace,
    predicate: &Predicate,
    init: &WorldState,
    hold_back: psn_sim::time::SimDuration,
) -> (ModalStatus, usize, u64) {
    let mut s = StreamingModal::new(predicate, init, trace.n, hold_back);
    for (i, r) in trace.log.reports.iter().enumerate() {
        s.offer(black_box(r));
        if i % inputs::STATUS_EVERY == 0 {
            black_box(s.status());
        }
    }
    let (late, high_water) = (s.late_reports(), s.mem_high_water_cuts());
    (s.seal(), late, high_water)
}

fn modal_counts(tally: &mut Tally, label: &str, m: ModalStatus) {
    tally.count(&format!("{label}.possibly"), m.possibly as u64);
    tally.count(&format!("{label}.definitely"), m.definitely as u64);
}

fn replay_job(b: &BatchInput, spans: &mut Spans, tally: &mut Tally) -> Rep {
    let t0 = Instant::now();
    let (input, init) = (&b.input, &b.init);
    let trace = spans.time("core.run_execution", |_| run_execution(&input.scenario, &input.cfg));
    let engine_s = t0.elapsed().as_secs_f64();
    check_trace(&trace, tally);
    for (label, discipline) in [
        ("occurrences.scalar_strobe", Discipline::ScalarStrobe),
        ("occurrences.vector_strobe", Discipline::VectorStrobe),
        ("occurrences.oracle", Discipline::Oracle),
    ] {
        let found = spans.time("predicates.detect_occurrences", |_| {
            detect_occurrences(&trace, &input.predicate, init, discipline)
        });
        tally.count(label, found.len() as u64);
    }
    let modal =
        spans.time("predicates.modal_status", |_| modal_status(&trace, &input.predicate, init));
    let (streamed, late, _) = spans.time("predicates.streaming_modal", |_| {
        stream_pass(&trace, &input.predicate, init, input.hold_back)
    });
    tally.verdict("modal_status vs StreamingModal", modal == streamed);
    tally.verdict("late_reports == 0 at 2Δ hold-back", late == 0);
    modal_counts(tally, "modal", modal);
    tally.op(true);
    let wall_s = t0.elapsed().as_secs_f64();
    Rep { wall_s, engine_s: Some(engine_s), ..Default::default() }
}

fn wide_job(b: &BatchInput, spans: &mut Spans, tally: &mut Tally) -> Rep {
    let t0 = Instant::now();
    let trace =
        spans.time("core.run_execution", |_| run_execution(&b.input.scenario, &b.input.cfg));
    let engine_s = t0.elapsed().as_secs_f64();
    check_trace(&trace, tally);
    tally.verdict(
        "sharded log vs sequential log",
        trace.log.events.len() == b.reference.log.events.len()
            && trace.log.reports.len() == b.reference.log.reports.len()
            && trace.ended_at == b.reference.ended_at,
    );
    let modal = spans
        .time("predicates.modal_status", |_| modal_status(&trace, &b.input.predicate, &b.init));
    tally.verdict("sharded verdict vs sequential verdict", modal == b.reference_modal);
    modal_counts(tally, "modal", modal);
    tally.op(true);
    let wall_s = t0.elapsed().as_secs_f64();
    Rep { wall_s, engine_s: Some(engine_s), ..Default::default() }
}

/// The unconstrained 4-process × 8-event grid: 9⁴ = 6561 consistent cuts,
/// the widest lattice shape the repo's E4 measures.
pub fn grid_history() -> History {
    let (n, p) = (4usize, 8u64);
    History::new(
        (0..n)
            .map(|proc| {
                (1..=p)
                    .map(|k| {
                        let mut v = vec![0; n];
                        v[proc] = k;
                        VectorStamp::from(v)
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Lattice enumerations per `detect_fanout` job: one per predicate.
pub const GRID_ROUNDS: usize = 2 * inputs::FANOUT_PER_KIND;

pub struct FanoutInput {
    pub batch: BatchInput,
    pub predicates: Vec<Predicate>,
    pub grid: History,
}

fn fanout_job(f: &FanoutInput, spans: &mut Spans, tally: &mut Tally) -> Rep {
    let t0 = Instant::now();
    let (trace, init) = (&f.batch.reference, &f.batch.init);
    for (i, predicate) in f.predicates.iter().enumerate() {
        let found = spans.time("predicates.detect_occurrences", |_| {
            detect_occurrences(trace, predicate, init, Discipline::VectorStrobe)
        });
        let modal = spans.time("predicates.modal_status", |_| modal_status(trace, predicate, init));
        let (streamed, late, _) = spans.time("predicates.streaming_modal", |_| {
            stream_pass(trace, predicate, init, f.batch.input.hold_back)
        });
        tally.verdict("modal_status vs StreamingModal", modal == streamed);
        tally.verdict("late_reports == 0 at 2Δ hold-back", late == 0);
        tally.count(&format!("predicate{i:02}.occurrences"), found.len() as u64);
        modal_counts(tally, &format!("predicate{i:02}"), modal);
        tally.op(true);
    }
    let states = spans.time("lattice.enumerate_lattice", |_| {
        (0..GRID_ROUNDS)
            .map(|_| enumerate_lattice(black_box(&f.grid), u64::MAX).states)
            .sum::<u64>()
    });
    tally.count("lattice.states", states / GRID_ROUNDS as u64);
    let wall_s = t0.elapsed().as_secs_f64();
    Rep { wall_s, ..Default::default() }
}

/// A workload set up and ready to repeat.
pub enum Ready {
    Burst(ServeInput),
    Paced(ServeInput),
    Replay(BatchInput),
    Wide(BatchInput),
    Fanout(FanoutInput),
}

impl Ready {
    /// Everything before the first timed operation: scenario generation,
    /// reference verdicts, trace pre-recording. (The serve workloads start a
    /// fresh server and register the `Watch` inside every repetition as
    /// well; that part is timed here once, too.)
    pub fn set_up(kind: Kind, sizes: &Sizes, seed: u64, tally: &mut Tally) -> Ready {
        match kind {
            Kind::ServeBurst | Kind::ServePaced => {
                let events =
                    if kind == Kind::ServeBurst { sizes.burst_events } else { sizes.paced_events };
                let si = serve_load::prepare(events, seed, tally);
                let session = serve_load::start_session(&si);
                let _ = session.handle.stop();
                if kind == Kind::ServeBurst {
                    Ready::Burst(si)
                } else {
                    Ready::Paced(si)
                }
            }
            Kind::BatchReplay => {
                Ready::Replay(batch_input(inputs::replay(sizes.replay_events, seed), tally))
            }
            Kind::BatchWide => Ready::Wide(batch_input(
                inputs::wide(sizes.wide_doors, sizes.wide_events, inputs::WIDE_SHARDS, seed),
                tally,
            )),
            Kind::DetectFanout => {
                let input = inputs::replay(sizes.fanout_events, seed);
                let predicates = inputs::fanout_predicates(input.doors());
                Ready::Fanout(FanoutInput {
                    batch: batch_input(input, tally),
                    predicates,
                    grid: grid_history(),
                })
            }
        }
    }

    /// Sensed world events one repetition carries to a checked verdict.
    pub fn events_per_rep(&self) -> u64 {
        match self {
            Ready::Burst(si) | Ready::Paced(si) => si.ingests.len() as u64,
            Ready::Replay(b) | Ready::Wide(b) => b.world_events,
            Ready::Fanout(f) => f.batch.world_events * f.predicates.len() as u64,
        }
    }

    /// Engine events inside one repetition's `run_execution`, if it has one.
    pub fn engine_events_per_rep(&self) -> Option<u64> {
        match self {
            Ready::Replay(b) | Ready::Wide(b) => Some(b.engine_events),
            _ => None,
        }
    }

    pub fn repeat(&self, spans: &mut Spans, tally: &mut Tally) -> Rep {
        spans.time("repetition", |spans| match self {
            Ready::Burst(si) => serve_load::burst_rep(si, spans, tally),
            Ready::Paced(si) => serve_load::paced_rep(si, spans, tally),
            Ready::Replay(b) => replay_job(b, spans, tally),
            Ready::Wide(b) => wide_job(b, spans, tally),
            Ready::Fanout(f) => fanout_job(f, spans, tally),
        })
    }
}

/// Set the workload up [`Kind::setups`] times; returns the seconds each took
/// and the last one, ready to repeat.
pub fn set_up(kind: Kind, sizes: &Sizes, seed: u64, tally: &mut Tally) -> (Vec<f64>, Ready) {
    let mut setup_s = Vec::with_capacity(kind.setups());
    let mut ready = None;
    for _ in 0..kind.setups() {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(Ready::set_up(kind, sizes, seed, tally));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (setup_s, ready.expect("every workload is set up at least once"))
}

/// Repeat the job until `seconds` have passed (at least once).
pub fn repeat_for(ready: &Ready, seconds: f64, spans: &mut Spans, tally: &mut Tally) -> Vec<Rep> {
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        reps.push(ready.repeat(spans, tally));
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_that_changes_between_repetitions_is_a_mismatch() {
        let mut t = Tally::default();
        t.count("core.log_reports", 10);
        t.count("core.log_reports", 10);
        assert_eq!(t.mismatches, 0);
        t.count("core.log_reports", 11);
        assert_eq!(t.mismatches, 1);
        assert!(t.findings[0].contains("core.log_reports"), "{:?}", t.findings);
    }

    #[test]
    fn failed_operations_are_counted_against_attempted() {
        let mut t = Tally::default();
        t.op(true);
        t.op(false);
        let mut other = Tally::default();
        other.op(false);
        other.count("x", 1);
        t.merge(other);
        assert_eq!((t.attempted, t.failed, t.counts["x"]), (3, 2, 1));
    }

    #[test]
    fn workload_names_roundtrip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
