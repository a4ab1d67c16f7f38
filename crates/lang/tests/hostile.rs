//! Hostile `.psn` source must end in a spanned diagnostic, never a panic,
//! an arithmetic overflow, an unbounded allocation or a stack overflow.

use std::fs;
use std::panic::catch_unwind;
use std::path::PathBuf;

use psn_lang::{compile, render};

/// A minimal scenario whose relational predicate is `expr > 0`.
fn with_predicate(expr: &str) -> String {
    format!(
        "scenario \"hostile\" {{\n    world exhibition {{ doors 2 duration 60s }}\n    \
         predicate \"p\" relational {{\n        {expr} > 0\n    }}\n}}\n"
    )
}

/// Compile `source`, which must fail; returns the rendered diagnostics.
fn rejected(source: &str) -> String {
    match compile(source) {
        Ok(_) => panic!("hostile source compiled"),
        Err(diags) => {
            assert!(diags.iter().all(|d| d.span.line == 4), "spanned at the predicate: {diags:?}");
            render(source, "hostile.psn", &diags)
        }
    }
}

#[test]
fn index_overflow_is_a_diagnostic() {
    let out = rejected(&with_predicate("door[9223372036854775807 + 1].x"));
    assert!(out.contains("overflows 64 bits"), "{out}");
    let out = rejected(&with_predicate("door[-(-9223372036854775807 - 1)].x"));
    assert!(out.contains("overflows 64 bits"), "{out}");
}

#[test]
fn huge_sum_ranges_are_diagnostics() {
    let out = rejected(&with_predicate("sum(d in 0..9223372036854775807)(1)"));
    assert!(out.contains("unrolls past 4096 terms"), "{out}");
    let out = rejected(&with_predicate("sum(d in -9223372036854775807..9223372036854775807)(1)"));
    assert!(out.contains("unrolls past 4096 terms"), "{out}");
    // Nested sums share one budget.
    let out = rejected(&with_predicate("sum(a in 0..100)(sum(b in 0..100)(1))"));
    assert!(out.contains("unrolls past 4096 terms"), "{out}");
    let fine = with_predicate("sum(a in 0..32)(sum(b in 0..32)(1))");
    assert!(compile(&fine).is_ok(), "32 + 32 × 32 terms fit");
}

#[test]
fn deep_nesting_is_a_diagnostic() {
    for expr in [
        format!("{}1", "(".repeat(200_000)),
        format!("{}1", "-".repeat(200_000)),
        format!("1{}", " + 1".repeat(200_000)),
    ] {
        let out = rejected(&with_predicate(&expr));
        assert!(out.contains("nests deeper than 128 levels"), "{out}");
    }
    let fine = format!("{}1{}", "(".repeat(100), ")".repeat(100));
    assert!(compile(&with_predicate(&fine)).is_ok());
}

/// xorshift64* — a seeded byte mutator needs nothing more.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// Bytes the mutator writes: the language's punctuation and whitespace.
/// Digits, `.` and letters are left out, and digits and `.` are never
/// deleted or overwritten, so no mutant turns `1800s` into `1800h` or
/// `1.0` into `10`: world sizes stay as small as the originals and each
/// mutant compiles in milliseconds.
const ALPHABET: &[u8] = b"(){}[]<>=!+-*,:_\"# \n";

fn mutate(source: &str, rng: &mut Rng) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        // ASCII positions only: they are char boundaries.
        let candidates: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
        let pos = candidates[rng.below(candidates.len())];
        let fixed = bytes[pos].is_ascii_digit() || bytes[pos] == b'.';
        let byte = ALPHABET[rng.below(ALPHABET.len())];
        match rng.below(3) {
            0 if !fixed => {
                bytes.remove(pos);
            }
            1 if !fixed => bytes[pos] = byte,
            _ => bytes.insert(pos, byte),
        }
    }
    String::from_utf8(bytes).expect("ASCII edits at char boundaries")
}

#[test]
fn mutated_scenarios_never_panic() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut outcomes = [0usize; 2];
    for name in ["exhibition", "habitat", "hospital", "office"] {
        let path = dir.join(format!("{name}.psn"));
        let source = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        assert!(compile(&source).is_ok(), "{name}.psn compiles");
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ name.len() as u64);
        for i in 0..48 {
            let mutant = mutate(&source, &mut rng);
            let result = catch_unwind(|| compile(&mutant).is_ok());
            let ok = result.unwrap_or_else(|_| panic!("{name}.psn mutant {i} panicked:\n{mutant}"));
            outcomes[usize::from(ok)] += 1;
        }
    }
    let [rejected, accepted] = outcomes;
    assert!(rejected > 0 && accepted > 0, "{rejected} rejected, {accepted} accepted");
}
