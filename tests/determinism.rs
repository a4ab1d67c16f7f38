//! Reproducibility guarantees: every layer is a pure function of
//! `(config, seed)`, and parallel sweeps are thread-count invariant.

use pervasive_time::prelude::*;
use pervasive_time::sim::sweep::run_sweep;

fn fingerprint(seed: u64, delta_ms: u64) -> (usize, u64, u64, Vec<(SimTime, Option<SimTime>)>) {
    let params = ExhibitionParams {
        doors: 3,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(45),
        duration: SimTime::from_secs(300),
        capacity: 70,
    };
    let scenario = exhibition::generate(&params, seed);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
        seed,
        ..Default::default()
    };
    let trace = run_execution(&scenario, &cfg);
    let pred = Predicate::occupancy_over(3, 70);
    let det = detect_occurrences(
        &trace,
        &pred,
        &scenario.timeline.initial_state(),
        Discipline::VectorStrobe,
    );
    (
        trace.log.reports.len(),
        trace.net.messages_sent,
        trace.net.bytes_sent,
        det.into_iter().map(|d| (d.start, d.end)).collect(),
    )
}

/// FNV-1a over a stable encoding of the full network-plane trace. Unlike
/// `DefaultHasher`, FNV has a specified algorithm, so the constant below is
/// meaningful across Rust versions and standard-library changes.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the *pre-PR-3 projection* of the trace: stamped process
/// events are skipped and message ids dropped, reproducing byte-for-byte
/// the encoding the original golden constant was recorded over. If the
/// tracing pipeline ever perturbs what the network plane actually does,
/// this hash moves.
fn trace_projection_hash(trace: &pervasive_time::sim::trace::Trace) -> u64 {
    use pervasive_time::sim::trace::TraceKind;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        let (tag, a, b, c): (u8, u64, u64, u64) = match &e.kind {
            TraceKind::Sent { from, to, bytes, .. } => (0, *from as u64, *to as u64, *bytes as u64),
            TraceKind::Delivered { from, to, .. } => (1, *from as u64, *to as u64, 0),
            TraceKind::Lost { from, to, .. } => (2, *from as u64, *to as u64, 0),
            TraceKind::TimerFired { actor, tag } => (3, *actor as u64, *tag, 0),
            TraceKind::Note { actor, label } => {
                fnv1a(&mut h, &e.at.as_nanos().to_le_bytes());
                fnv1a(&mut h, label.as_bytes());
                (4, *actor as u64, label.len() as u64, 0)
            }
            TraceKind::Process { .. } => continue,
            // Fault records cannot appear in the golden (fault-free) trace;
            // hashing them keeps the projection total over TraceKind.
            TraceKind::Fault { actor, kind, detail } => {
                fnv1a(&mut h, kind.label().as_bytes());
                (6, *actor as u64, kind.label().len() as u64, *detail)
            }
        };
        if tag != 4 {
            fnv1a(&mut h, &e.at.as_nanos().to_le_bytes());
        }
        fnv1a(&mut h, &[tag]);
        fnv1a(&mut h, &a.to_le_bytes());
        fnv1a(&mut h, &b.to_le_bytes());
        fnv1a(&mut h, &c.to_le_bytes());
    }
    h
}

/// FNV-1a over the full PR-3 trace format: every record including stamped
/// process events, message ids, and clock stamps. Pins the complete
/// structured-trace pipeline, not just the network plane.
fn trace_full_hash(trace: &pervasive_time::sim::trace::Trace) -> u64 {
    use pervasive_time::sim::trace::{ClockStamp, TraceKind};
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        fnv1a(&mut h, &e.seq.to_le_bytes());
        fnv1a(&mut h, &e.at.as_nanos().to_le_bytes());
        let (tag, a, b, c): (u8, u64, u64, u64) = match &e.kind {
            TraceKind::Sent { from, to, bytes, msg } => {
                fnv1a(&mut h, &msg.0.to_le_bytes());
                (0, *from as u64, *to as u64, *bytes as u64)
            }
            TraceKind::Delivered { from, to, msg } => {
                fnv1a(&mut h, &msg.0.to_le_bytes());
                (1, *from as u64, *to as u64, 0)
            }
            TraceKind::Lost { from, to, msg } => {
                fnv1a(&mut h, &msg.0.to_le_bytes());
                (2, *from as u64, *to as u64, 0)
            }
            TraceKind::TimerFired { actor, tag } => (3, *actor as u64, *tag, 0),
            TraceKind::Note { actor, label } => {
                fnv1a(&mut h, label.as_bytes());
                (4, *actor as u64, label.len() as u64, 0)
            }
            TraceKind::Process { actor, kind, stamp, detail } => {
                match stamp {
                    ClockStamp::None => fnv1a(&mut h, &[0]),
                    ClockStamp::Scalar(v) => {
                        fnv1a(&mut h, &[1]);
                        fnv1a(&mut h, &v.to_le_bytes());
                    }
                    ClockStamp::Vector(v) => {
                        fnv1a(&mut h, &[2]);
                        for x in v.as_slice() {
                            fnv1a(&mut h, &x.to_le_bytes());
                        }
                    }
                }
                fnv1a(&mut h, kind.label().as_bytes());
                (5, *actor as u64, kind.label().len() as u64, *detail)
            }
            TraceKind::Fault { actor, kind, detail } => {
                fnv1a(&mut h, kind.label().as_bytes());
                (6, *actor as u64, kind.label().len() as u64, *detail)
            }
        };
        fnv1a(&mut h, &[tag]);
        fnv1a(&mut h, &a.to_le_bytes());
        fnv1a(&mut h, &b.to_le_bytes());
        fnv1a(&mut h, &c.to_le_bytes());
    }
    h
}

fn golden_trace() -> pervasive_time::core::execution::ExecutionTrace {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(40),
        duration: SimTime::from_secs(200),
        capacity: 90,
    };
    let scenario = exhibition::generate(&params, 13);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(150)),
        loss: LossModel::Bernoulli { p: 0.02 },
        seed: 13,
        record_sim_trace: true,
        ..Default::default()
    };
    run_execution(&scenario, &cfg)
}

/// Golden-trace regression: the exact event-for-event network trace of a
/// fixed `(scenario, config, seed)` triple, hashed two ways. The projection
/// constants were re-recorded for the sharded engine (PR 5): canonical
/// event keys and per-sender network/fault RNG streams deliberately change
/// every delay draw and same-instant tie-break, so the pre-PR-5 constants
/// could not survive. From here on, any change that reorders events,
/// perturbs an RNG draw, or changes a
/// delivery time will move it. The full-format constant additionally pins
/// message ids and clock stamps. Δ is variable (sampled) and loss is
/// nonzero so the fifo clamp, the loss path, and the delay sampler all
/// execute.
#[test]
fn golden_trace_hash_is_stable() {
    let trace = golden_trace();
    assert!(trace.sim.len() > 1_000, "trace must be non-trivial, got {}", trace.sim.len());
    assert_eq!(
        trace_projection_hash(&trace.sim),
        18040857238188682466,
        "network-plane trace diverged from the recorded golden hash"
    );
    assert_eq!(
        trace_full_hash(&trace.sim),
        FULL_TRACE_HASH,
        "structured trace (stamps/msg ids) diverged from the golden hash"
    );
}

/// Re-recorded with the sharded engine (PR 5, canonical keys + per-sender
/// streams); see `golden_trace_hash_is_stable`.
const FULL_TRACE_HASH: u64 = 14563640158707952414;

/// The fault plane's contract: faults off is provably observational. A run
/// with the plane **installed but empty** must reproduce the golden hashes
/// byte-for-byte — both the network-plane projection and the full
/// structured trace — and be bit-identical in every other observable to a
/// run with no plane at all. Installing an empty script therefore draws
/// zero extra RNG values and perturbs no event.
#[test]
fn empty_fault_plane_reproduces_the_golden_hashes() {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(40),
        duration: SimTime::from_secs(200),
        capacity: 90,
    };
    let scenario = exhibition::generate(&params, 13);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(150)),
        loss: LossModel::Bernoulli { p: 0.02 },
        seed: 13,
        record_sim_trace: true,
        faults: Some(FaultScript::new()),
        ..Default::default()
    };
    let trace = run_execution(&scenario, &cfg);
    assert_eq!(
        trace_projection_hash(&trace.sim),
        18040857238188682466,
        "an empty fault plane perturbed the network-plane trace"
    );
    assert_eq!(
        trace_full_hash(&trace.sim),
        FULL_TRACE_HASH,
        "an empty fault plane perturbed the structured trace"
    );
    let off = golden_trace();
    assert_eq!(off.log.events, trace.log.events);
    assert_eq!(off.log.reports, trace.log.reports);
    assert_eq!(off.net, trace.net, "fault counters aside, the network counters must not move");
    assert_eq!(off.ended_at, trace.ended_at);
    assert_eq!(trace.faults, Some(FaultStats::default()), "plane installed, nothing fired");
}

/// The tentpole's contract: tracing is purely observational. A run with the
/// structured trace enabled must be bit-identical — events, reports,
/// network counters, end time — to the same run with tracing off.
#[test]
fn tracing_on_is_bit_identical_to_tracing_off() {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(40),
        duration: SimTime::from_secs(200),
        capacity: 90,
    };
    let scenario = exhibition::generate(&params, 13);
    let base = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(150)),
        loss: LossModel::Bernoulli { p: 0.02 },
        seed: 13,
        ..Default::default()
    };
    let off = run_execution(&scenario, &base);
    let on = run_execution(&scenario, &ExecutionConfig { record_sim_trace: true, ..base.clone() });
    assert_eq!(off.log.events, on.log.events, "process events must not move");
    assert_eq!(off.log.reports, on.log.reports, "report stream must not move");
    assert_eq!(off.log.actuations, on.log.actuations);
    assert_eq!(off.net, on.net, "network counters must not move");
    assert_eq!(off.ended_at, on.ended_at, "end time must not move");
    assert!(off.sim.is_empty(), "tracing off records nothing");
    assert!(!on.sim.is_empty(), "tracing on records the run");
}

#[test]
fn full_pipeline_is_deterministic() {
    assert_eq!(fingerprint(7, 300), fingerprint(7, 300));
    assert_eq!(fingerprint(8, 300), fingerprint(8, 300));
    assert_ne!(fingerprint(7, 300), fingerprint(8, 300), "seeds matter");
}

#[test]
fn sweep_results_independent_of_thread_count() {
    let seeds: Vec<u64> = (0..12).collect();
    let f = |_: usize, &s: &u64| fingerprint(s, 250);
    let t1 = run_sweep(&seeds, 1, f);
    let t4 = run_sweep(&seeds, 4, f);
    let t16 = run_sweep(&seeds, 16, f);
    assert_eq!(t1, t4);
    assert_eq!(t1, t16);
}

#[test]
fn scenario_generation_isolated_from_execution_seed() {
    // The world timeline depends only on its own seed; execution noise
    // (delays, clock errors) must not leak back into ground truth.
    let params = ExhibitionParams {
        doors: 2,
        arrival_rate_hz: 1.0,
        mean_stay: SimDuration::from_secs(30),
        duration: SimTime::from_secs(120),
        capacity: 20,
    };
    let s = exhibition::generate(&params, 42);
    let before = s.timeline.events.clone();
    for exec_seed in 0..5 {
        let cfg = ExecutionConfig { seed: exec_seed, ..Default::default() };
        let _ = run_execution(&s, &cfg);
    }
    assert_eq!(s.timeline.events, before);
}

mod hb_dag {
    use super::*;
    use pervasive_time::sim::trace_analysis::TraceAnalysis;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The happened-before DAG `TraceAnalysis` reconstructs from the
        /// vector stamps must be *isomorphic* to the stamp order: for any
        /// two stamped process events, `f` is reachable from `e` through
        /// the covering edges ⇔ `V(e) < V(f)`. Exercised over real
        /// executions (random world seed and delay) rather than synthetic
        /// stamp sets, so the whole pipeline — clock bundle, engine trace
        /// actions, ring drain, analysis — is under the property.
        #[test]
        fn hb_dag_is_isomorphic_to_vector_stamps(
            seed in 0u64..500,
            delta_ms in 0u64..400,
        ) {
            let params = ExhibitionParams {
                doors: 2,
                arrival_rate_hz: 1.0,
                mean_stay: SimDuration::from_secs(20),
                duration: SimTime::from_secs(30),
                capacity: 8,
            };
            let scenario = exhibition::generate(&params, seed);
            let cfg = ExecutionConfig {
                delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
                seed,
                record_sim_trace: true,
                ..Default::default()
            };
            let trace = run_execution(&scenario, &cfg);
            let a = TraceAnalysis::build(&trace.sim);
            let nodes = a.hb_nodes();
            prop_assert!(!nodes.is_empty(), "scenario produced no stamped events");
            let index: HashMap<usize, usize> =
                nodes.iter().enumerate().map(|(i, &r)| (r, i)).collect();
            let mut adj = vec![Vec::new(); nodes.len()];
            for (u, v) in a.hb_edges() {
                adj[index[&u]].push(index[&v]);
            }
            for i in 0..nodes.len() {
                let mut reach = vec![false; nodes.len()];
                let mut stack = vec![i];
                while let Some(u) = stack.pop() {
                    for &v in &adj[u] {
                        if !reach[v] {
                            reach[v] = true;
                            stack.push(v);
                        }
                    }
                }
                for j in 0..nodes.len() {
                    prop_assert_eq!(
                        reach[j],
                        a.happened_before(nodes[i], nodes[j]),
                        "edge closure and stamp order disagree at ({}, {})",
                        i,
                        j
                    );
                }
            }
        }
    }
}

#[test]
fn delta_zero_is_invariant_to_seed() {
    // Under the synchronous model nothing is random in the network plane,
    // so detection outcomes are identical across execution seeds (only the
    // clock-hardware draws differ, and strobe detection ignores physical
    // clocks).
    let params = ExhibitionParams {
        doors: 3,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(45),
        duration: SimTime::from_secs(300),
        capacity: 70,
    };
    let scenario = exhibition::generate(&params, 5);
    let pred = Predicate::occupancy_over(3, 70);
    let detect = |seed: u64| {
        let cfg = ExecutionConfig { delay: DelayModel::Synchronous, seed, ..Default::default() };
        let trace = run_execution(&scenario, &cfg);
        detect_occurrences(
            &trace,
            &pred,
            &scenario.timeline.initial_state(),
            Discipline::VectorStrobe,
        )
    };
    assert_eq!(detect(1), detect(99));
}

mod shard_invariance {
    use super::*;
    use proptest::prelude::*;

    /// One full execution at a given shard count, with everything
    /// observable folded into a comparable tuple.
    fn fingerprint(
        shards: usize,
        seed: u64,
        delay_min_ms: u64,
        chaos: bool,
    ) -> pervasive_time::core::execution::ExecutionTrace {
        let params = ExhibitionParams {
            doors: 3,
            arrival_rate_hz: 1.5,
            mean_stay: SimDuration::from_secs(25),
            duration: SimTime::from_secs(60),
            capacity: 20,
        };
        let scenario = exhibition::generate(&params, seed);
        let faults = chaos.then(|| {
            let mut c = ChaosConfig::new(vec![0, 1, 2], SimTime::from_secs(60));
            c.partitions = 1;
            c.park = true;
            FaultScript::generate(&c, seed ^ 0xC0FFEE)
        });
        let cfg = ExecutionConfig {
            // min > 0 gives the sharded engine real lookahead; the exact
            // values vary per case so many window widths are exercised.
            delay: DelayModel::DeltaBounded {
                min: SimDuration::from_millis(delay_min_ms),
                max: SimDuration::from_millis(delay_min_ms + 120),
            },
            seed,
            record_sim_trace: true,
            faults,
            shards,
            ..Default::default()
        };
        run_execution(&scenario, &cfg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole's contract, as a property: the shard count is
        /// **unobservable**. For random seeds, lookahead widths, and with or
        /// without a seeded chaos fault script, every observable — the full
        /// structured trace (hashed), the execution log, the network
        /// counters, the fault counters, the end time — is bit-identical
        /// across shard counts {1, 2, 4, 7}.
        #[test]
        fn shard_count_is_unobservable(
            seed in 0u64..1000,
            delay_min_ms in 1u64..40,
            chaos_bit in 0u64..2,
        ) {
            let chaos = chaos_bit == 1;
            let want = fingerprint(1, seed, delay_min_ms, chaos);
            let want_hash = trace_full_hash(&want.sim);
            if chaos {
                let fs = want.faults.clone().expect("plane installed");
                prop_assert!(fs.crashes + fs.cuts + fs.clock_faults > 0, "chaos script must bite");
            }
            for shards in [2usize, 4, 7] {
                let got = fingerprint(shards, seed, delay_min_ms, chaos);
                let label = format!("shards={shards}");
                prop_assert_eq!(trace_full_hash(&got.sim), want_hash, "trace hash, {}", label);
                prop_assert_eq!(&got.log.events, &want.log.events, "events, {}", label);
                prop_assert_eq!(&got.log.reports, &want.log.reports, "reports, {}", label);
                prop_assert_eq!(&got.log.actuations, &want.log.actuations, "actuations, {}", label);
                prop_assert_eq!(&got.net, &want.net, "net counters, {}", label);
                prop_assert_eq!(&got.faults, &want.faults, "fault stats, {}", label);
                prop_assert_eq!(got.ended_at, want.ended_at, "end time, {}", label);
            }
        }
    }
}

/// The sharded engine against a pinned golden hash: a fixed
/// `(scenario, config, seed)` with a floored Δ-band (the floor is the
/// lookahead; a pure Δ-bounded delay has minimum 0 and would fall back to
/// the sequential loop) must produce the recorded full-format trace hash
/// both sequentially and on 4 shards.
#[test]
fn sharded_run_reproduces_the_sequential_golden_hash() {
    let params = ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(40),
        duration: SimTime::from_secs(200),
        capacity: 90,
    };
    let scenario = exhibition::generate(&params, 13);
    let cfg = |shards: usize| ExecutionConfig {
        delay: DelayModel::DeltaBounded {
            min: SimDuration::from_millis(30),
            max: SimDuration::from_millis(150),
        },
        seed: 13,
        record_sim_trace: true,
        shards,
        ..Default::default()
    };
    let seq = run_execution(&scenario, &cfg(1));
    assert!(seq.sim.len() > 1_000, "trace must be non-trivial, got {}", seq.sim.len());
    assert_eq!(
        trace_full_hash(&seq.sim),
        FLOORED_DELTA_GOLDEN_FULL_TRACE_HASH,
        "sequential floored-Δ run diverged from the recorded golden hash"
    );
    let sharded = run_execution(&scenario, &cfg(4));
    assert_eq!(
        trace_full_hash(&sharded.sim),
        FLOORED_DELTA_GOLDEN_FULL_TRACE_HASH,
        "4-shard run diverged from the sequential golden hash"
    );
    assert_eq!(seq.log.events, sharded.log.events);
    assert_eq!(seq.log.reports, sharded.log.reports);
    assert_eq!(seq.net, sharded.net);
    assert_eq!(seq.ended_at, sharded.ended_at);
}

/// Recorded from the sequential leg of
/// `sharded_run_reproduces_the_sequential_golden_hash`; deterministic
/// across machines (FNV-1a over the full trace format).
const FLOORED_DELTA_GOLDEN_FULL_TRACE_HASH: u64 = 397811650213989502;

/// The sparse channel store is a drop-in for the dense FIFO matrix: the
/// same E7 habitat cell, run with the dense path (default threshold) and
/// with the sparse path forced (`fifo_dense_limit: Some(0)`), must produce
/// the identical execution down to the full-format trace hash. Above
/// `DENSE_ACTOR_LIMIT` the switch happens automatically; this pins that the
/// switch is unobservable.
#[test]
fn sparse_channel_store_matches_dense_on_an_e7_cell() {
    let params = HabitatParams {
        stations: 8,
        animals: 4,
        mean_dwell: SimDuration::from_secs(600),
        duration: SimTime::from_secs(3600),
    };
    let scenario = habitat::generate(&params, 42);
    let cell = |dense_limit: Option<usize>| {
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(300)),
            seed: 1,
            record_sim_trace: true,
            fifo_dense_limit: dense_limit,
            ..Default::default()
        };
        run_execution(&scenario, &cfg)
    };
    let dense = cell(None);
    let sparse = cell(Some(0));
    assert_eq!(
        trace_full_hash(&sparse.sim),
        trace_full_hash(&dense.sim),
        "sparse FIFO store must reproduce the dense trace byte-for-byte"
    );
    assert_eq!(trace_projection_hash(&sparse.sim), trace_projection_hash(&dense.sim));
    assert_eq!(sparse.log.events, dense.log.events);
    assert_eq!(sparse.log.reports, dense.log.reports);
    assert_eq!(sparse.net, dense.net);
    assert_eq!(sparse.ended_at, dense.ended_at);
}
