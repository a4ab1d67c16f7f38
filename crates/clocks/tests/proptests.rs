//! Property-based tests for the clock zoo.
//!
//! The central property is the one the paper's whole argument rests on:
//! Mattern/Fidge vector time is **isomorphic** to the causality partial
//! order of the execution (e → f ⇔ V(e) < V(f)), while Lamport scalar time
//! is only *consistent* (e → f ⇒ C(e) < C(f)). We generate random
//! message-passing executions, compute ground-truth happened-before from
//! the execution graph, and check both directions.

use proptest::prelude::*;

use psn_clocks::{
    Causality, LamportClock, LogicalClock, StrobeScalarClock, StrobeVectorClock, Timestamp,
    VectorClock, VectorStamp,
};

// ---------------------------------------------------------------------------
// Random execution generation
// ---------------------------------------------------------------------------

/// One step of a generated execution script.
#[derive(Debug, Clone)]
enum Op {
    /// A relevant local event at process p.
    Local(usize),
    /// p sends a message (delivered later by a matching `Recv`).
    Send(usize),
    /// Deliver the oldest undelivered message to process p (skipped if the
    /// only available messages were sent by p itself or none exist).
    Recv(usize),
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![(0..n).prop_map(Op::Local), (0..n).prop_map(Op::Send), (0..n).prop_map(Op::Recv),]
}

/// A recorded event with its ground-truth causal predecessors.
struct EventRec {
    proc: usize,
    /// Indices (into the event list) of direct predecessors: the previous
    /// event at the same process, and for a receive the matching send.
    preds: Vec<usize>,
    vstamp: VectorStamp,
    lstamp: u64,
}

/// Replay a script against real clocks, recording ground-truth causality.
fn replay(n: usize, script: &[Op]) -> Vec<EventRec> {
    let mut vclocks: Vec<VectorClock> = (0..n).map(|i| VectorClock::new(i, n)).collect();
    let mut lclocks: Vec<LamportClock> = (0..n).map(LamportClock::new).collect();
    let mut last_event_at: Vec<Option<usize>> = vec![None; n];
    // In-flight messages: (send_event_idx, sender, vstamp, lstamp)
    let mut mailbox: Vec<(usize, usize, VectorStamp, u64)> = Vec::new();
    let mut events: Vec<EventRec> = Vec::new();

    let push_event = |events: &mut Vec<EventRec>,
                      last_event_at: &mut Vec<Option<usize>>,
                      proc: usize,
                      extra_pred: Option<usize>,
                      vstamp: VectorStamp,
                      lstamp: u64| {
        let mut preds = Vec::new();
        if let Some(p) = last_event_at[proc] {
            preds.push(p);
        }
        if let Some(e) = extra_pred {
            preds.push(e);
        }
        let idx = events.len();
        events.push(EventRec { proc, preds, vstamp, lstamp });
        last_event_at[proc] = Some(idx);
        idx
    };

    for op in script {
        match *op {
            Op::Local(p) => {
                let v = vclocks[p].on_local_event();
                let l = lclocks[p].on_local_event().value;
                push_event(&mut events, &mut last_event_at, p, None, v, l);
            }
            Op::Send(p) => {
                let v = vclocks[p].on_send();
                let l = lclocks[p].on_send().value;
                let idx = push_event(&mut events, &mut last_event_at, p, None, v.clone(), l);
                mailbox.push((idx, p, v, l));
            }
            Op::Recv(p) => {
                // Find the oldest message not sent by p.
                if let Some(pos) = mailbox.iter().position(|&(_, s, _, _)| s != p) {
                    let (send_idx, _, v, l) = mailbox.remove(pos);
                    let v2 = vclocks[p].on_receive(&v);
                    let l2 = lclocks[p]
                        .on_receive(&psn_clocks::ScalarStamp { value: l, process: 0 })
                        .value;
                    push_event(&mut events, &mut last_event_at, p, Some(send_idx), v2, l2);
                }
            }
        }
    }
    events
}

/// Ground-truth happened-before by transitive closure over predecessors.
fn happened_before(events: &[EventRec]) -> Vec<Vec<bool>> {
    let n = events.len();
    let mut hb = vec![vec![false; n]; n];
    for (j, e) in events.iter().enumerate() {
        for &p in &e.preds {
            hb[p][j] = true;
        }
    }
    // Floyd–Warshall-style closure (events are in topological order since
    // predecessors always have smaller indices).
    for j in 0..n {
        for i in 0..j {
            if hb[i][j] {
                let (left, right) = hb.split_at_mut(j);
                // everything that precedes i also precedes j
                let row_j_src: Vec<usize> = (0..i).filter(|&k| left[k][j] || left[k][i]).collect();
                let _ = right;
                for k in row_j_src {
                    hb[k][j] = true;
                }
            }
        }
    }
    hb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// e → f  ⇔  V(e) < V(f): the isomorphism theorem for vector time.
    #[test]
    fn vector_time_isomorphic_to_causality(
        script in proptest::collection::vec(op_strategy(4), 1..40)
    ) {
        let events = replay(4, &script);
        let hb = happened_before(&events);
        for i in 0..events.len() {
            for j in 0..events.len() {
                if i == j { continue; }
                let vlt = events[i].vstamp.lt(&events[j].vstamp);
                prop_assert_eq!(
                    hb[i][j], vlt,
                    "event {} -> event {}: hb={} but V<V'={} ({:?} vs {:?})",
                    i, j, hb[i][j], vlt, events[i].vstamp, events[j].vstamp
                );
            }
        }
    }

    /// e → f  ⇒  C(e) < C(f): Lamport consistency (one direction only).
    #[test]
    fn lamport_time_consistent_with_causality(
        script in proptest::collection::vec(op_strategy(5), 1..40)
    ) {
        let events = replay(5, &script);
        let hb = happened_before(&events);
        for i in 0..events.len() {
            for j in 0..events.len() {
                if hb[i][j] {
                    prop_assert!(
                        events[i].lstamp < events[j].lstamp,
                        "hb but C(e)={} >= C(f)={}", events[i].lstamp, events[j].lstamp
                    );
                }
            }
        }
    }

    /// Vector stamps within one process are totally ordered.
    #[test]
    fn same_process_stamps_totally_ordered(
        script in proptest::collection::vec(op_strategy(3), 1..40)
    ) {
        let events = replay(3, &script);
        for i in 0..events.len() {
            for j in (i+1)..events.len() {
                if events[i].proc == events[j].proc {
                    prop_assert!(events[i].vstamp.lt(&events[j].vstamp));
                }
            }
        }
    }

    /// causality() is antisymmetric under flip.
    #[test]
    fn causality_flip_symmetry(
        a in proptest::collection::vec(0u64..10, 4),
        b in proptest::collection::vec(0u64..10, 4),
    ) {
        let sa = VectorStamp::from(a);
        let sb = VectorStamp::from(b);
        prop_assert_eq!(sa.causality(&sb), sb.causality(&sa).flip());
    }

    /// join() is the least upper bound of two stamps.
    #[test]
    fn join_is_least_upper_bound(
        a in proptest::collection::vec(0u64..100, 5),
        b in proptest::collection::vec(0u64..100, 5),
    ) {
        let sa = VectorStamp::from(a.clone());
        let sb = VectorStamp::from(b.clone());
        let j = sa.join(&sb);
        prop_assert!(sa.le(&j) && sb.le(&j));
        // any other upper bound dominates the join
        let ub = VectorStamp::from(a.iter().zip(&b).map(|(x, y)| x.max(y) + 1).collect::<Vec<_>>());
        prop_assert!(j.le(&ub));
    }

    /// Strobe clocks are monotone under arbitrary interleavings of local
    /// events and strobes (the paper's monotonicity guarantee, §4.2).
    #[test]
    fn strobe_vector_monotone(
        ops in proptest::collection::vec((0usize..3, proptest::collection::vec(0u64..50, 3)), 1..60)
    ) {
        let mut c = StrobeVectorClock::new(0, 3);
        let mut prev = c.current();
        for (kind, strobe) in ops {
            match kind {
                0 => { c.on_local_event(); }
                _ => { c.on_strobe(&VectorStamp::from(strobe)); }
            }
            let cur = c.current();
            prop_assert!(prev.le(&cur), "regressed: {:?} -> {:?}", prev, cur);
            prev = cur;
        }
    }

    /// Strobe scalar clocks are monotone too.
    #[test]
    fn strobe_scalar_monotone(
        ops in proptest::collection::vec((0usize..3, 0u64..1000), 1..60)
    ) {
        let mut c = StrobeScalarClock::new(1);
        let mut prev = 0;
        for (kind, v) in ops {
            match kind {
                0 => { c.on_local_event(); }
                _ => c.on_strobe(&psn_clocks::ScalarStamp { value: v, process: 0 }),
            }
            prop_assert!(c.value() >= prev);
            prev = c.value();
        }
    }

    /// Vector causality is transitive: a<b and b<c imply a<c (partial-order
    /// sanity independent of any execution).
    #[test]
    fn vector_lt_transitive(
        a in proptest::collection::vec(0u64..6, 3),
        d1 in proptest::collection::vec(0u64..6, 3),
        d2 in proptest::collection::vec(0u64..6, 3),
    ) {
        let sa = VectorStamp::from(a.clone());
        let sb = VectorStamp::from(a.iter().zip(&d1).map(|(x, y)| x + y).collect::<Vec<_>>());
        let sc = VectorStamp::from(sb.iter().zip(&d2).map(|(x, y)| x + y).collect::<Vec<_>>());
        if sa.lt(&sb) && sb.lt(&sc) {
            prop_assert!(sa.lt(&sc));
        }
        prop_assert!(!sa.lt(&sa), "irreflexive");
    }

    /// Scalar stamps form a total order: exactly one of <, >, = holds.
    #[test]
    fn scalar_total_order(v1 in 0u64..100, p1 in 0usize..8, v2 in 0u64..100, p2 in 0usize..8) {
        let a = psn_clocks::ScalarStamp { value: v1, process: p1 };
        let b = psn_clocks::ScalarStamp { value: v2, process: p2 };
        let c = a.causality(&b);
        prop_assert_ne!(c, Causality::Concurrent, "scalars are never concurrent");
        if (v1, p1) == (v2, p2) {
            prop_assert_eq!(c, Causality::Equal);
        }
    }
}
