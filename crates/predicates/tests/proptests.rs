//! Property-based tests for the predicate layer.

use proptest::prelude::*;

use psn_core::{run_execution, ExecutionConfig};
use psn_predicates::{
    detect_occurrences, modal_status, modal_status_streaming, score, BorderlinePolicy, Conjunct,
    Detection, Discipline, Expr, Predicate, StreamingModal,
};
use psn_sim::delay::DelayModel;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::{truth_intervals, AttrKey, AttrValue, WorldState};

// ---------------------------------------------------------------------------
// Expression semantics
// ---------------------------------------------------------------------------

fn reader(vals: Vec<i64>) -> impl Fn(AttrKey) -> AttrValue {
    move |k: AttrKey| AttrValue::Int(vals.get(k.object).copied().unwrap_or(0))
}

proptest! {
    /// De Morgan: ¬(a ∧ b) ≡ ¬a ∨ ¬b over random assignments.
    #[test]
    fn de_morgan(vals in proptest::collection::vec(-5i64..5, 2)) {
        let read = reader(vals);
        let a = || Expr::var(AttrKey::new(0, 0)).gt(Expr::int(0));
        let b = || Expr::var(AttrKey::new(1, 0)).gt(Expr::int(0));
        let lhs = a().and(b()).negate();
        let rhs = a().negate().or(b().negate());
        prop_assert_eq!(lhs.eval_bool(&read), rhs.eval_bool(&read));
    }

    /// Comparison trichotomy: exactly one of <, =, > holds numerically.
    #[test]
    fn comparison_trichotomy(x in -100i64..100, y in -100i64..100) {
        let read = reader(vec![x, y]);
        let vx = || Expr::var(AttrKey::new(0, 0));
        let vy = || Expr::var(AttrKey::new(1, 0));
        let lt = vx().lt(vy()).eval_bool(&read);
        let eq = vx().eq_expr(vy()).eval_bool(&read);
        let gt = vx().gt(vy()).eval_bool(&read);
        prop_assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
    }

    /// Sum distributes over evaluation: eval(Σ eᵢ) = Σ eval(eᵢ).
    #[test]
    fn sum_is_componentwise(vals in proptest::collection::vec(-50i64..50, 1..6)) {
        let n = vals.len();
        let read = reader(vals.clone());
        let sum = Expr::Sum((0..n).map(|i| Expr::var(AttrKey::new(i, 0))).collect());
        let expect: f64 = vals.iter().map(|&v| v as f64).sum();
        prop_assert!((sum.eval_num(&read) - expect).abs() < 1e-9);
    }

    /// Arithmetic identities: a − a = 0, a + 0 = a, a·1 = a.
    #[test]
    fn arithmetic_identities(x in -1000i64..1000) {
        let read = reader(vec![x]);
        let v = || Expr::var(AttrKey::new(0, 0));
        prop_assert_eq!(v().sub(v()).eval_num(&read), 0.0);
        prop_assert_eq!(v().add(Expr::int(0)).eval_num(&read), x as f64);
        prop_assert_eq!(v().mul(Expr::int(1)).eval_num(&read), x as f64);
    }
}

// ---------------------------------------------------------------------------
// The compiled form against its definition
// ---------------------------------------------------------------------------

/// Values where `f64` arithmetic and the bool/number coercions have corners:
/// both zeros, both infinities, NaN, and integers `f64` cannot hold exactly.
fn value() -> BoxedStrategy<AttrValue> {
    let int = prop_oneof![
        -3i64..4,
        Just((1i64 << 53) + 1),
        Just(-(1i64 << 53) - 1),
        Just(i64::MAX),
        Just(i64::MIN),
    ];
    let float = prop_oneof![
        (-8i64..9).prop_map(|q| q as f64 / 4.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ];
    prop_oneof![
        (0u8..2).prop_map(|b| AttrValue::Bool(b == 1)),
        int.prop_map(AttrValue::Int),
        float.prop_map(AttrValue::Float),
    ]
    .boxed()
}

/// A key from a pool of six; object 9 is in no generated expression.
fn key() -> impl Strategy<Value = AttrKey> {
    key_of(3)
}

/// A key of one of `objects` objects, attribute 0 or 1.
fn key_of(objects: usize) -> impl Strategy<Value = AttrKey> {
    (0..objects, 0usize..2).prop_map(|(o, a)| AttrKey::new(o, a))
}

/// Expression trees of every node kind, `depth` levels below the root.
fn expr(depth: u32) -> BoxedStrategy<Expr> {
    expr_of(depth, 3)
}

/// [`expr`] over the variables of `objects` objects: the fewer, the more
/// often one variable appears at several leaves.
fn expr_of(depth: u32, objects: usize) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![value().prop_map(Expr::Lit), key_of(objects).prop_map(Expr::Var)];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = expr_of(depth - 1, objects);
    let pair = || (sub.clone(), sub.clone());
    prop_oneof![
        leaf,
        pair().prop_map(|(a, b)| a.add(b)),
        pair().prop_map(|(a, b)| a.sub(b)),
        pair().prop_map(|(a, b)| a.mul(b)),
        proptest::collection::vec(sub.clone(), 0..4).prop_map(Expr::Sum),
        pair().prop_map(|(a, b)| a.gt(b)),
        pair().prop_map(|(a, b)| a.ge(b)),
        pair().prop_map(|(a, b)| a.lt(b)),
        pair().prop_map(|(a, b)| a.eq_expr(b)),
        pair().prop_map(|(a, b)| a.and(b)),
        pair().prop_map(|(a, b)| a.or(b)),
        sub.clone().prop_map(Expr::negate),
    ]
    .boxed()
}

/// Identity of a value, NaN included.
fn bits(v: AttrValue) -> (u8, u64) {
    match v {
        AttrValue::Bool(b) => (0, u64::from(b)),
        AttrValue::Int(i) => (1, i as u64),
        AttrValue::Float(f) => (2, f.to_bits()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `Compiled::holds` is `Predicate::eval` over the same values — at the
    /// initial state (some variables missing from it) and after every `set`
    /// — and `set` reports relevance and the replaced value exactly.
    #[test]
    fn compiled_form_matches_eval(
        exprs in proptest::collection::vec(expr(4), 0..4),
        relational in 0u8..2,
        initial in proptest::collection::vec((key(), value()), 0..6),
        sets in proptest::collection::vec((0usize..4, 0usize..2, value()), 0..24),
    ) {
        let predicate = match exprs.first() {
            Some(e) if relational == 1 => Predicate::Relational(e.clone()),
            _ => Predicate::Conjunctive(
                exprs
                    .iter()
                    .enumerate()
                    .map(|(process, e)| Conjunct { process, expr: e.clone() })
                    .collect(),
            ),
        };
        let vars = predicate.variables();
        let mut world = WorldState::default();
        for &(k, v) in &initial {
            world.set(k, v);
        }
        let mut compiled = predicate.compile(&world);
        prop_assert_eq!(compiled.holds(), predicate.eval_state(&world));
        for &(object, attr, v) in &sets {
            // Object 3 stands for one outside every expression.
            let k = AttrKey::new(if object == 3 { 9 } else { object }, attr);
            let before = world.get(k).unwrap_or(AttrValue::Int(0));
            let replaced = compiled.set(k, v);
            prop_assert_eq!(compiled.watches(k), vars.contains(&k));
            if vars.contains(&k) {
                prop_assert_eq!(replaced.map(bits), Some(bits(before)));
                world.set(k, v);
            } else {
                prop_assert!(replaced.is_none());
            }
            prop_assert_eq!(compiled.holds(), predicate.eval_state(&world));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The incremental kernel: one `Compiled` taken through a long run of
    /// `set`s — over a pool of two variables, so one variable feeds several
    /// leaves and several sets land on it in a row — recomputes only what
    /// each set reaches, and after every set `holds()` is `Predicate::eval`
    /// on the same values.
    #[test]
    fn incremental_sets_track_eval(
        exprs in proptest::collection::vec(expr_of(5, 1), 1..3),
        relational in 0u8..2,
        sets in proptest::collection::vec((0usize..2, value()), 1..64),
    ) {
        let predicate = if relational == 1 {
            Predicate::Relational(exprs[0].clone())
        } else {
            Predicate::Conjunctive(
                exprs.iter().map(|e| Conjunct { process: 0, expr: e.clone() }).collect(),
            )
        };
        let mut world = WorldState::default();
        let mut compiled = predicate.compile(&world);
        for &(attr, v) in &sets {
            let k = AttrKey::new(0, attr);
            compiled.set(k, v);
            world.set(k, v);
            prop_assert_eq!(compiled.holds(), predicate.eval_state(&world));
        }
    }
}

// ---------------------------------------------------------------------------
// Detection semantics on real executions
// ---------------------------------------------------------------------------

fn small_params(rate: f64) -> ExhibitionParams {
    ExhibitionParams {
        doors: 3,
        arrival_rate_hz: rate,
        mean_stay: SimDuration::from_secs(30),
        duration: SimTime::from_secs(200),
        capacity: 25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The oracle discipline reproduces ground truth exactly, for any
    /// scenario seed and execution seed.
    #[test]
    fn oracle_equals_truth(seed in 0u64..500, exec_seed in 0u64..500) {
        let s = exhibition::generate(&small_params(2.0), seed);
        let pred = Predicate::occupancy_over(3, 25);
        let cfg = ExecutionConfig { seed: exec_seed, ..Default::default() };
        let trace = run_execution(&s, &cfg);
        let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), Discipline::Oracle);
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        prop_assert_eq!(det.len(), truth.len());
        for (d, t) in det.iter().zip(&truth) {
            prop_assert_eq!(d.start, t.start);
            prop_assert_eq!(d.end, t.end);
        }
    }

    /// At Δ = 0 with per-event strobes, both strobe disciplines equal the
    /// oracle (paper §4.2.3 item 5) — property-tested across seeds.
    #[test]
    fn strobes_equal_oracle_at_delta_zero(seed in 0u64..500) {
        let s = exhibition::generate(&small_params(3.0), seed);
        let pred = Predicate::occupancy_over(3, 25);
        let cfg = ExecutionConfig { delay: DelayModel::Synchronous, ..Default::default() };
        let trace = run_execution(&s, &cfg);
        let init = s.timeline.initial_state();
        let strip = |v: Vec<Detection>| -> Vec<(SimTime, Option<SimTime>)> {
            v.into_iter().map(|d| (d.start, d.end)).collect()
        };
        let oracle = strip(detect_occurrences(&trace, &pred, &init, Discipline::Oracle));
        let scalar = strip(detect_occurrences(&trace, &pred, &init, Discipline::ScalarStrobe));
        let vector = strip(detect_occurrences(&trace, &pred, &init, Discipline::VectorStrobe));
        prop_assert_eq!(&scalar, &oracle);
        prop_assert_eq!(&vector, &oracle);
    }

    /// Scoring invariants: TP + FN = |truth|; TP ≤ detections;
    /// AsNegative never has more detections matched than AsPositive.
    #[test]
    fn score_accounting_invariants(seed in 0u64..300, delta_ms in 0u64..2000) {
        let s = exhibition::generate(&small_params(3.0), seed);
        let pred = Predicate::occupancy_over(3, 25);
        let cfg = ExecutionConfig {
            delay: if delta_ms == 0 { DelayModel::Synchronous } else {
                DelayModel::delta(SimDuration::from_millis(delta_ms))
            },
            seed,
            ..Default::default()
        };
        let trace = run_execution(&s, &cfg);
        let det = detect_occurrences(
            &trace, &pred, &s.timeline.initial_state(), Discipline::VectorStrobe,
        );
        let truth = truth_intervals(&s.timeline, |st| pred.eval_state(st));
        let horizon = SimTime::from_secs(200);
        let tol = SimDuration::from_millis(2 * delta_ms + 100);
        let plus = score(&det, &truth, horizon, tol, BorderlinePolicy::AsPositive);
        let minus = score(&det, &truth, horizon, tol, BorderlinePolicy::AsNegative);
        prop_assert_eq!(plus.true_positives + plus.false_negatives, truth.len());
        prop_assert_eq!(minus.true_positives + minus.false_negatives, truth.len());
        prop_assert!(plus.true_positives >= minus.true_positives,
            "dropping borderline detections cannot gain TPs");
        prop_assert!(plus.recall() >= minus.recall() - 1e-12);
        prop_assert!(plus.precision() >= 0.0 && plus.precision() <= 1.0);
    }

    /// Streaming ≡ offline: the streaming detector fed one report at a
    /// time, in chunks (with interleaved `status()` probes), and via the
    /// sealed-trace adapter all agree with the offline [`modal_status`]
    /// sweep — counts *and* `holding_now` — across random exhibition
    /// traces, both predicate shapes, and shard counts {1, 4}.
    #[test]
    fn streaming_matches_offline_modal_status(
        seed in 0u64..400,
        delta_ms in 1u64..600,
        shards_of_four in 0u8..2,
        chunk in 1usize..97,
    ) {
        let s = exhibition::generate(&small_params(3.0), seed);
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(delta_ms)),
            seed,
            shards: if shards_of_four == 1 { 4 } else { 1 },
            ..Default::default()
        };
        let trace = run_execution(&s, &cfg);
        let init = s.timeline.initial_state();
        // hold_back ≥ 2Δ keeps strobe-key release order intact; the margin
        // absorbs same-instant ties at the watermark.
        let hold_back = SimDuration::from_millis(2 * delta_ms + 1);
        let conjunctive = Predicate::Conjunctive(
            (0..2)
                .map(|d| Conjunct {
                    process: d,
                    expr: Expr::var(AttrKey::new(d, 0))
                        .sub(Expr::var(AttrKey::new(d, 1)))
                        .gt(Expr::int(1)),
                })
                .collect(),
        );
        for pred in [Predicate::occupancy_over(3, 25), conjunctive] {
            let offline = modal_status(&trace, &pred, &init);

            // Sealed-trace adapter: unconditionally bit-identical.
            prop_assert_eq!(modal_status_streaming(&trace, &pred, &init), offline.clone());

            // One report at a time.
            let mut one = StreamingModal::new(&pred, &init, trace.n, hold_back);
            for r in &trace.log.reports {
                one.offer(r);
            }
            prop_assert_eq!(one.late_reports(), 0, "2Δ hold-back must suffice");
            prop_assert_eq!(one.seal(), offline.clone());

            // Chunked, probing status() between chunks (the probe must not
            // perturb the final verdict — it undoes what it applies, or reads a
            // sealed clone).
            let mut chunked = StreamingModal::new(&pred, &init, trace.n, hold_back);
            for batch in trace.log.reports.chunks(chunk) {
                for r in batch {
                    chunked.offer(r);
                }
                let probe = chunked.status();
                prop_assert!(probe.possibly >= probe.definitely);
            }
            prop_assert_eq!(chunked.seal(), offline.clone());
        }
    }

    /// Detections are time-ordered and non-overlapping per discipline
    /// (excluding zero-length borderline blips, which may interleave).
    #[test]
    fn detections_are_ordered(seed in 0u64..300) {
        let s = exhibition::generate(&small_params(4.0), seed);
        let pred = Predicate::occupancy_over(3, 25);
        let cfg = ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(400)),
            seed,
            ..Default::default()
        };
        let trace = run_execution(&s, &cfg);
        for disc in [Discipline::Oracle, Discipline::SyncedPhysical, Discipline::Arrival] {
            let det = detect_occurrences(&trace, &pred, &s.timeline.initial_state(), disc);
            for w in det.windows(2) {
                let end0 = w[0].end.expect("only last open");
                // Edges are attributed in truth coordinates which can be
                // locally reordered by up to the discipline's error; the
                // *sweep* order is monotone, so starts are non-decreasing
                // within tolerance for the oracle at least.
                if disc == Discipline::Oracle {
                    prop_assert!(end0 <= w[1].start);
                }
            }
        }
    }
}
