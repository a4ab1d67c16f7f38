//! The streaming detector pinned bit for bit under Duplicate + Reorder
//! faults on the root-bound channel.
//!
//! A Duplicate fault delivers one report twice, with one strobe key and two
//! arrival times, so the hold-back buffer meets equal keys; Reorder lets
//! reports overtake each other. For a 3-door exhibition at Δ = 150 ms, seeds
//! 0..6, two occupancy thresholds and hold-backs of 0, 100, 300 and 700 ms,
//! an FNV-1a hash folds `StreamingModal`'s `late_reports`, `buffered` and
//! `frontier_width` after every offer, `status()` every 50 offers, then
//! `seal()`.
//!
//! The constants were computed before the hold-back became a keyed heap. A
//! change to the release order among equal keys moves a constant.
//!
//! On the same traces, a readout after every offer must leave a stream —
//! relational or conjunctive — exactly as a stream that is never read.

use psn_core::{run_execution, ExecutionConfig, ExecutionTrace};
use psn_predicates::{Conjunct, Expr, ModalStatus, Predicate, StreamingModal};
use psn_sim::delay::DelayModel;
use psn_sim::fault::{ChannelEffect, ChannelFaultRule, FaultScript, FaultSpec};
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::{AttrKey, Scenario};

const DOORS: usize = 3;
const HOLD_BACKS_MS: [u64; 4] = [0, 100, 300, 700];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn put(h: &mut u64, n: u64) {
    fnv1a(h, &n.to_le_bytes());
}

fn put_modal(h: &mut u64, m: ModalStatus) {
    put(h, m.possibly as u64);
    put(h, m.definitely as u64);
    put(h, u64::from(m.holding_now));
}

fn faulted_run(seed: u64) -> (Scenario, ExecutionTrace) {
    let params = ExhibitionParams {
        doors: DOORS,
        arrival_rate_hz: 2.0,
        mean_stay: SimDuration::from_secs(45),
        duration: SimTime::from_secs(400),
        capacity: 70,
    };
    let scenario = exhibition::generate(&params, seed);
    let to_root = |prob, effect| {
        FaultSpec::Channel(ChannelFaultRule {
            from: None,
            to: Some(DOORS), // the root
            prob,
            effect,
            duration: None,
        })
    };
    let duplicate = to_root(0.4, ChannelEffect::Duplicate);
    let reorder = to_root(0.3, ChannelEffect::Reorder { extra: SimDuration::from_millis(250) });
    let script = FaultScript::new().with(SimTime::ZERO, duplicate).with(SimTime::ZERO, reorder);
    let cfg = ExecutionConfig {
        delay: DelayModel::delta(SimDuration::from_millis(150)),
        seed,
        faults: Some(script),
        ..Default::default()
    };
    let trace = run_execution(&scenario, &cfg);
    (scenario, trace)
}

fn stream_hash(trace: &ExecutionTrace, scenario: &Scenario, pred: &Predicate) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let init = scenario.timeline.initial_state();
    for hold in HOLD_BACKS_MS {
        let mut s = StreamingModal::new(pred, &init, trace.n, SimDuration::from_millis(hold));
        for (i, r) in trace.log.reports.iter().enumerate() {
            s.offer(r);
            put(&mut h, s.late_reports() as u64);
            put(&mut h, s.buffered() as u64);
            put(&mut h, s.frontier_width() as u64);
            if i % 50 == 0 {
                put_modal(&mut h, s.status());
            }
        }
        put_modal(&mut h, s.seal());
    }
    h
}

/// `(seed, occupancy threshold, StreamingModal hash)`.
const PINNED: [(u64, i64, u64); 12] = [
    (0, 60, 0x527e99006b5d81c1),
    (0, 20, 0x1867e7baa9a11d81),
    (1, 60, 0xe60abd5b235b5284),
    (1, 20, 0xdecb43b6f39d6530),
    (2, 60, 0xd98889eff94ab4f0),
    (2, 20, 0x5e69df805003c4b0),
    (3, 60, 0xbd26797a3843822a),
    (3, 20, 0x88f6a8551667a22a),
    (4, 60, 0x1b4f00c4a7bbe3c7),
    (4, 20, 0xec27e9a22491a473),
    (5, 60, 0x0b6d2875a6318ba6),
    (5, 20, 0x021a2b9e1d41edba),
];

#[test]
fn both_detectors_are_pinned_under_duplicate_and_reorder_faults() {
    let mut moved = Vec::new();
    let mut duplicated = 0;
    for seed in 0..6u64 {
        let (scenario, trace) = faulted_run(seed);
        let stats = trace.faults.as_ref().expect("a fault script ran");
        assert!(stats.duplicated > 0 && stats.reordered > 0, "seed {seed}: both rules must fire");
        duplicated += stats.duplicated;
        for (_, capacity, want) in PINNED.iter().filter(|p| p.0 == seed) {
            let pred = Predicate::occupancy_over(DOORS, *capacity);
            let got = stream_hash(&trace, &scenario, &pred);
            if got != *want {
                moved.push(format!("    ({seed}, {capacity}, {got:#018x}),"));
            }
        }
    }
    assert!(duplicated > 1_000, "the pin must see many duplicate deliveries, saw {duplicated}");
    assert!(moved.is_empty(), "detector output moved:\n{}", moved.join("\n"));
}

/// `readout()` is observation-only: a stream read after every offer and one
/// never read report the same `late_reports`, `buffered` and
/// `frontier_width` after each offer, and seal to the same verdict — for the
/// relational occupancy predicate, which a readout applies and undoes, and a
/// conjunctive one, which it answers from a sealed clone.
#[test]
fn readouts_leave_the_stream_as_it_was() {
    let conjunctive = Predicate::Conjunctive(
        (0..DOORS)
            .map(|d| Conjunct {
                process: d,
                expr: Expr::var(AttrKey::new(d, 0))
                    .sub(Expr::var(AttrKey::new(d, 1)))
                    .gt(Expr::int(2)),
            })
            .collect(),
    );
    for seed in 0..6u64 {
        let (scenario, trace) = faulted_run(seed);
        let init = scenario.timeline.initial_state();
        for pred in [Predicate::occupancy_over(DOORS, 20), conjunctive.clone()] {
            for hold in HOLD_BACKS_MS {
                let hold = SimDuration::from_millis(hold);
                let mut read = StreamingModal::new(&pred, &init, trace.n, hold);
                let mut quiet = StreamingModal::new(&pred, &init, trace.n, hold);
                for (i, r) in trace.log.reports.iter().enumerate() {
                    read.offer(r);
                    quiet.offer(r);
                    read.readout();
                    let seen =
                        |s: &StreamingModal| (s.late_reports(), s.buffered(), s.frontier_width());
                    assert_eq!(seen(&read), seen(&quiet), "seed {seed}, {hold:?}, offer {i}");
                }
                assert_eq!(read.seal(), quiet.seal(), "seed {seed}, {hold:?}");
            }
        }
    }
}
