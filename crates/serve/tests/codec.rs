//! One codec, two ways through it: for every message and snapshot type,
//! the JSON writer's text equals the text of the type's `Value` tree, and
//! decoding text directly (`from_str`) agrees with decoding its parsed tree
//! (`from_value(parse(..))`) — equal values, or both errors — on the encoded
//! text and on mutations of it: reordered, duplicated, unknown, dropped and
//! escaped keys, whitespace, truncation, and nesting at and past the cap.

use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use psn_clocks::VectorStamp;
use psn_core::live::LiveSnapshot;
use psn_core::ReceivedReport;
use psn_predicates::{Conjunct, Expr, ModalStatus, OnlineStatus, Predicate};
use psn_serve::{ErrorCode, Request, Response, ServeConfig, ServeSession, ServeSnapshot};
use psn_sim::time::SimTime;
use psn_world::{AttrKey, AttrValue};

/// Mutants decoded both ways per encoded value.
const MUTANTS: usize = 8;

/// The two decodings of `text` agree.
fn agree<T: Serialize + Deserialize>(text: &str) {
    let direct = serde_json::from_str::<T>(text).map(|x| serde_json::to_string(&x).unwrap());
    let tree = serde_json::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()))
        .map(|x| serde_json::to_string(&x).unwrap());
    match (&direct, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "the paths decode {text:?} differently"),
        (Err(_), Err(_)) => {}
        _ => panic!("the paths disagree on {text:?}: direct {direct:?}, tree {tree:?}"),
    }
}

fn check<T: Serialize + Deserialize>(x: &T, rng: &mut SmallRng) {
    let text = serde_json::to_string(x).unwrap();
    let mut tree = String::new();
    serde_json::write_value_to(&x.to_value(), &mut tree);
    assert_eq!(text, tree, "the writer and the Value tree disagree");
    let back: T = serde_json::from_str(&text).expect("own output decodes");
    assert_eq!(serde_json::to_string(&back).unwrap(), text, "a round trip changes the value");
    agree::<T>(&text);
    let value = serde_json::parse(&text).expect("own output parses");
    for _ in 0..MUTANTS {
        agree::<T>(&mutant(&value, &text, rng));
    }
}

// --- mutations -----------------------------------------------------------------

fn count_maps(v: &Value) -> usize {
    match v {
        Value::Map(m) => 1 + m.iter().map(|(_, v)| count_maps(v)).sum::<usize>(),
        Value::Seq(s) => s.iter().map(count_maps).sum(),
        _ => 0,
    }
}

/// The `n`th map of `v`, in pre-order.
fn nth_map<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Vec<(String, Value)>> {
    match v {
        Value::Map(entries) => {
            if *n == 0 {
                return Some(entries);
            }
            *n -= 1;
            entries.iter_mut().find_map(|(_, v)| nth_map(v, n))
        }
        Value::Seq(items) => items.iter_mut().find_map(|v| nth_map(v, n)),
        _ => None,
    }
}

fn random_value(rng: &mut SmallRng, depth: u32) -> Value {
    match rng.gen_range(0..if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::UInt(rng.gen_range(0..1000)),
        3 => Value::Int(-rng.gen_range(1i64..1000)),
        4 => Value::Float(rng.gen_range(-4i64..4) as f64 / 8.0),
        5 => Value::Str(text(rng)),
        6 => Value::Seq((0..rng.gen_range(0..3)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Value::Map(
            (0..rng.gen_range(0..3)).map(|_| (text(rng), random_value(rng, depth - 1))).collect(),
        ),
    }
}

fn nested(levels: usize) -> Value {
    (0..levels).fold(Value::UInt(1), |v, _| Value::Seq(vec![v]))
}

/// `value` (the parse of `encoded`) changed in one structural way, then written
/// out with random whitespace and escapes; or `encoded` cut short.
fn mutant(value: &Value, encoded: &str, rng: &mut SmallRng) -> String {
    let mut v = value.clone();
    let maps = count_maps(&v);
    let kind = rng.gen_range(0..8);
    if kind == 0 {
        let mut cut = rng.gen_range(0..encoded.len());
        while !encoded.is_char_boundary(cut) {
            cut -= 1;
        }
        return encoded[..cut].to_string();
    }
    if maps > 0 && kind < 7 {
        let m = nth_map(&mut v, &mut rng.gen_range(0..maps)).expect("the map exists");
        let at = rng.gen_range(0..=m.len());
        match kind {
            1 => {
                for i in (1..m.len()).rev() {
                    m.swap(i, rng.gen_range(0..=i));
                }
            }
            2 if !m.is_empty() => {
                let mut dup = m[rng.gen_range(0..m.len())].clone();
                if rng.gen_bool(0.5) {
                    dup.1 = random_value(rng, 2);
                }
                m.insert(at, dup);
            }
            3 => m.insert(at, (text(rng), random_value(rng, 2))),
            4 if !m.is_empty() => drop(m.remove(rng.gen_range(0..m.len()))),
            5 => {
                // Nesting at the cap (128 levels) or one past it: the
                // root map is one level, the value `levels` more.
                let root = nth_map(&mut v, &mut 0).expect("the root is a map");
                let levels = rng.gen_range(126..=128);
                root.insert(0, ("deep".into(), nested(levels)));
            }
            _ => {}
        }
    }
    let mut out = String::new();
    emit(&v, rng, &mut out);
    out
}

fn space(rng: &mut SmallRng, out: &mut String) {
    while rng.gen_bool(0.15) {
        out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
    }
}

/// A JSON string with some characters written as `\u` escapes (surrogate
/// pairs above the BMP).
fn quote(s: &str, rng: &mut SmallRng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if rng.gen_bool(0.2) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                write!(out, "\\u{:04x}", unit).unwrap();
            }
        } else {
            let escaped = serde_json::to_string(&c.to_string()).unwrap();
            out.push_str(&escaped[1..escaped.len() - 1]);
        }
    }
    out.push('"');
}

fn emit(v: &Value, rng: &mut SmallRng, out: &mut String) {
    space(rng, out);
    match v {
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                quote(k, rng, out);
                space(rng, out);
                out.push(':');
                emit(v, rng, out);
            }
            space(rng, out);
            out.push('}');
        }
        Value::Seq(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(v, rng, out);
            }
            space(rng, out);
            out.push(']');
        }
        Value::Str(s) => quote(s, rng, out),
        scalar => serde_json::write_value_to(scalar, out),
    }
    space(rng, out);
}

// --- generated values ------------------------------------------------------------

/// Text with the characters a codec gets wrong: quotes, backslashes,
/// controls, multi-byte and astral characters.
fn text(rng: &mut SmallRng) -> String {
    const POOL: [char; 12] =
        ['a', 'z', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', ' ', 'é', '€', '😀'];
    (0..rng.gen_range(0..6)).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
}

fn time(rng: &mut SmallRng) -> SimTime {
    let bits = rng.gen_range(1..63);
    SimTime::from_nanos(rng.gen_range(0..1u64 << bits))
}

fn attr_value(rng: &mut SmallRng) -> AttrValue {
    match rng.gen_range(0..4) {
        0 => AttrValue::Bool(rng.gen()),
        1 => AttrValue::Int(rng.gen()),
        2 => AttrValue::Float(rng.gen_range(-1000i64..1000) as f64 / 16.0),
        _ => AttrValue::Float([f64::NAN, f64::INFINITY, -0.0, 1e300][rng.gen_range(0..4usize)]),
    }
}

fn key(rng: &mut SmallRng) -> AttrKey {
    AttrKey::new(rng.gen_range(0..12), rng.gen_range(0..3))
}

fn expr(rng: &mut SmallRng, depth: u32) -> Expr {
    let sub = |rng: &mut SmallRng| Box::new(expr(rng, depth - 1));
    match rng.gen_range(0..if depth == 0 { 2 } else { 12 }) {
        0 => Expr::Lit(attr_value(rng)),
        1 => Expr::Var(key(rng)),
        2 => Expr::Add(sub(rng), sub(rng)),
        3 => Expr::Sub(sub(rng), sub(rng)),
        4 => Expr::Mul(sub(rng), sub(rng)),
        5 => Expr::Sum((0..rng.gen_range(0..4)).map(|_| expr(rng, depth - 1)).collect()),
        6 => Expr::Gt(sub(rng), sub(rng)),
        7 => Expr::Ge(sub(rng), sub(rng)),
        8 => Expr::Lt(sub(rng), sub(rng)),
        9 => Expr::Eq(sub(rng), sub(rng)),
        10 => Expr::And(sub(rng), sub(rng)),
        _ => Expr::Not(sub(rng)),
    }
}

fn predicate(rng: &mut SmallRng) -> Predicate {
    if rng.gen_bool(0.5) {
        Predicate::Relational(expr(rng, 3))
    } else {
        Predicate::Conjunctive(
            (0..rng.gen_range(0..4))
                .map(|process| Conjunct { process, expr: expr(rng, 2) })
                .collect(),
        )
    }
}

fn request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..12) {
        0 => Request::Ping,
        1 => Request::Ingest {
            at: time(rng),
            process: rng.gen_range(0..64),
            key: key(rng),
            value: attr_value(rng),
        },
        2 => Request::Advance { to: time(rng) },
        3 => Request::Frontier,
        4 => Request::Watch { name: text(rng), predicate: predicate(rng) },
        5 => Request::Status { name: text(rng) },
        6 => Request::TraceSlice { from: rng.gen(), limit: rng.gen_range(0..2048) },
        7 => Request::Metrics,
        8 => Request::SubscribeMetrics { interval_ms: rng.gen(), count: rng.gen() },
        9 => Request::SubscribeTrace { from: rng.gen(), interval_ms: rng.gen(), count: rng.gen() },
        10 => Request::Snapshot,
        _ => Request::Shutdown,
    }
}

fn response(rng: &mut SmallRng, pool: &Pool) -> Response {
    match rng.gen_range(0..12) {
        0 => Response::Pong,
        1 => Response::Ingested { world_event: rng.gen() },
        2 => Response::Advanced { now: time(rng), watermark: time(rng), new_reports: rng.gen() },
        3 => Response::Frontier {
            watermark: time(rng),
            // Up to 20 components: inline and spilled stamps.
            vector: VectorStamp::from(
                (0..rng.gen_range(0..=20))
                    .map(|_| rng.gen_range(0..1u64 << 40))
                    .collect::<Vec<_>>(),
            ),
            reports: rng.gen(),
            events: rng.gen(),
            rejected: rng.gen(),
        },
        4 => Response::Watching { name: text(rng), watched: rng.gen_range(0..9) },
        5 => Response::Status {
            name: text(rng),
            online: OnlineStatus {
                holds: rng.gen(),
                open_since: rng.gen_bool(0.5).then(|| time(rng)),
                occurrences: rng.gen_range(0..1000),
                buffered: rng.gen_range(0..100),
                late_reports: rng.gen_range(0..3),
            },
            modal: ModalStatus {
                possibly: rng.gen_range(0..100),
                definitely: rng.gen_range(0..100),
                holding_now: rng.gen(),
            },
            mem_high_water_cuts: rng.gen(),
            frontier_width: rng.gen_range(0..64),
        },
        6 => {
            let from = rng.gen_range(0..pool.reports.len());
            let to = rng.gen_range(from..=pool.reports.len().min(from + 6));
            Response::TraceSlice {
                from,
                total: pool.reports.len(),
                reports: pool.reports[from..to].to_vec(),
            }
        }
        7 => pool.metrics[rng.gen_range(0..pool.metrics.len())].clone(),
        8 => Response::Subscribed { stream: text(rng), count: rng.gen(), interval_ms: rng.gen() },
        9 => Response::Snapshot { path: rng.gen_bool(0.5).then(|| text(rng)), bytes: rng.gen() },
        10 => Response::ShuttingDown,
        _ => Response::Error {
            code: [
                ErrorCode::BadRequest,
                ErrorCode::UnknownProcess,
                ErrorCode::TimeRegression,
                ErrorCode::UnknownPredicate,
                ErrorCode::Internal,
            ][rng.gen_range(0..5usize)],
            message: text(rng),
        },
    }
}

/// Values only a running session makes: snapshots taken mid-stream (with
/// pending ingests), reports whose vector stamps are 4 and 11 wide (the
/// latter spilled past the 8 inline components), metrics snapshots.
struct Pool {
    snapshots: Vec<ServeSnapshot>,
    reports: Vec<ReceivedReport>,
    metrics: Vec<Response>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Pool { snapshots: Vec::new(), reports: Vec::new(), metrics: Vec::new() };
        for (n, seed) in [(3, 1), (10, 2)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = ServeSession::new(ServeConfig::new(n));
            s.handle(Request::Watch {
                name: "occ".into(),
                predicate: Predicate::occupancy_over(n, 2),
            });
            s.handle(Request::Watch { name: text(&mut rng), predicate: predicate(&mut rng) });
            let mut ms: u64 = 1000;
            for i in 0..40 {
                ms += rng.gen_range(1u64..300);
                let process = rng.gen_range(0..n);
                let value = AttrValue::Int(rng.gen_range(0..4));
                let at = SimTime::from_millis(ms);
                s.handle(Request::Ingest { at, process, key: AttrKey::new(process, i % 2), value });
                if i % 8 == 7 {
                    s.handle(Request::Advance { to: SimTime::from_millis(ms - 200) });
                }
            }
            pool.snapshots.push(s.snapshot());
            let Response::TraceSlice { reports, .. } =
                s.handle(Request::TraceSlice { from: 0, limit: 1024 })
            else {
                panic!("a trace slice")
            };
            assert!(!reports.is_empty(), "the session received reports");
            pool.reports.extend(reports);
            pool.metrics.push(s.handle(Request::Metrics));
        }
        pool
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_writer_the_parser_and_the_value_tree_agree(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = pool();
        check(&request(&mut rng), &mut rng);
        check(&response(&mut rng, pool), &mut rng);
        check(&predicate(&mut rng), &mut rng);
        let snapshot = &pool.snapshots[rng.gen_range(0..pool.snapshots.len())];
        check::<ServeSnapshot>(snapshot, &mut rng);
        check::<LiveSnapshot>(&snapshot.live, &mut rng);
    }
}

#[test]
fn every_variant_is_generated() {
    let mut rng = SmallRng::seed_from_u64(7);
    let pool = pool();
    let tag = |v: Value| match v {
        Value::Str(s) => s,
        Value::Map(m) => m[0].0.clone(),
        other => panic!("{other:?}"),
    };
    let requests: std::collections::BTreeSet<String> =
        (0..400).map(|_| tag(request(&mut rng).to_value())).collect();
    let responses: std::collections::BTreeSet<String> =
        (0..400).map(|_| tag(response(&mut rng, pool).to_value())).collect();
    assert_eq!(requests.len(), 12, "{requests:?}");
    assert_eq!(responses.len(), 12, "{responses:?}");
    assert!(pool.reports.iter().any(|r| r.report.stamps.vector.len() > 8), "spilled stamps");
}
