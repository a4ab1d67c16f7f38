//! The whole-trace sweep, pinned bit for bit on the four committed golden
//! worlds.
//!
//! For every `scenarios/*.psn` program (its defaults, seed 42) and one
//! relational and one two-conjunct predicate per world, an FNV-1a hash over
//! the full `Vec<Detection>` of all six [`Discipline`]s. A change to the
//! detector that moves one detection or one borderline flag moves a
//! constant.

use std::fs;
use std::path::PathBuf;

use psn_core::run_execution;
use psn_lang::{compile, render};
use psn_predicates::{detect_occurrences, Conjunct, Detection, Discipline, Expr, Predicate};
use psn_world::AttrKey;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn hash_detections(h: &mut u64, found: &[Detection]) {
    fnv1a(h, &(found.len() as u64).to_le_bytes());
    for d in found {
        fnv1a(h, &d.start.as_nanos().to_le_bytes());
        fnv1a(h, &d.end.map_or(u64::MAX, |t| t.as_nanos()).to_le_bytes());
        fnv1a(h, &[u8::from(d.end.is_some()), u8::from(d.borderline)]);
    }
}

fn var(object: usize, attr: usize) -> Expr {
    Expr::var(AttrKey::new(object, attr))
}

/// Object `d` is sensed by process `d` in all four worlds.
fn both(a: Expr, b: Expr) -> Predicate {
    Predicate::Conjunctive(vec![Conjunct { process: 0, expr: a }, Conjunct { process: 1, expr: b }])
}

/// One relational and one two-conjunct predicate over `world`'s attributes.
fn predicates(world: &str) -> [Predicate; 2] {
    match world {
        "exhibition" => {
            let busy = |d| var(d, 0).sub(var(d, 1)).gt(Expr::int(45));
            [Predicate::occupancy_over(4, 180), both(busy(0), busy(1))]
        }
        "office" => [
            Predicate::Relational(
                Expr::Sum((0..4).map(|r| var(r, 1)).collect())
                    .ge(Expr::int(2))
                    .or(var(0, 0).gt(var(1, 0).add(Expr::float(1.5)))),
            ),
            both(var(0, 0).gt(Expr::float(25.5)).and(var(0, 1)), var(1, 1)),
        ],
        "hospital" => [
            Predicate::Relational(Expr::Sum((1..5).map(|w| var(w, 0)).collect()).gt(Expr::int(3))),
            both(var(1, 0).gt(Expr::int(0)), var(2, 0).gt(Expr::int(0)).and(var(2, 1).negate())),
        ],
        "habitat" => [
            Predicate::Relational(var(0, 0).add(var(1, 0)).mul(Expr::int(2)).gt(Expr::int(1))),
            both(var(0, 0).gt(Expr::int(0)), var(1, 0).eq_expr(Expr::int(0))),
        ],
        other => panic!("no predicates for {other}"),
    }
}

/// `(world, relational hash, conjunctive hash)`.
const PINNED: [(&str, u64, u64); 4] = [
    ("exhibition", 0xab00b00249f9bdfa, 0xc623bb3204f5b111),
    ("office", 0x4af577de6128750d, 0x5b913b3e423c1b2e),
    ("hospital", 0x92239483e843d625, 0xbaacdab1f8c2e1fd),
    ("habitat", 0xd4b43d149f183783, 0xf9777726c3cdade0),
];

#[test]
fn sweep_output_is_pinned_on_the_golden_worlds() {
    let mut blips = 0;
    let mut moved = Vec::new();
    for (world, relational, conjunctive) in PINNED {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(format!("{world}.psn"));
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let compiled = match compile(&src) {
            Ok(c) => c,
            Err(diags) => panic!("{world}.psn:\n{}", render(&src, world, &diags)),
        };
        let trace = run_execution(&compiled.scenario, &compiled.config);
        let init = compiled.scenario.timeline.initial_state();

        for (predicate, pinned) in predicates(world).iter().zip([relational, conjunctive]) {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for discipline in Discipline::ALL {
                let found = detect_occurrences(&trace, predicate, &init, discipline);
                assert!(!found.is_empty(), "{world} {discipline:?}: a pin over nothing");
                blips += found.iter().filter(|d| d.borderline && d.end == Some(d.start)).count();
                hash_detections(&mut h, &found);
            }

            if h != pinned {
                moved.push(format!("{world} {}: {h:#018x}", predicate_kind(predicate)));
            }
        }
    }
    assert!(moved.is_empty(), "sweep output moved:\n{}", moved.join("\n"));
    assert!(blips > 0, "the near-miss probe must emit at least one borderline blip");
}

fn predicate_kind(p: &Predicate) -> &'static str {
    match p {
        Predicate::Relational(_) => "relational",
        Predicate::Conjunctive(_) => "conjunctive",
    }
}
