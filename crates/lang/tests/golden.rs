//! Round-trip proof for the committed `.psn` scenarios: each of the four
//! built-in worlds, written as a `.psn` program under `scenarios/`, must
//! compile and run **bit-identically** to its hand-coded generator with
//! the same seed — checked structurally (same trace, net stats, end
//! time) and pinned with an FNV-1a golden hash so any drift in the
//! lexer, parser, compiler, generators, or engine shows up as a failing
//! constant.

use std::fs;
use std::path::PathBuf;

use psn_core::{run_execution, ExecutionConfig, ExecutionTrace};
use psn_lang::{compile, render};
use psn_world::scenarios::{exhibition, habitat, hospital, office, Scenario};

/// FNV-1a over a stable encoding (same algorithm as tests/determinism.rs,
/// so constants are comparable across the repo).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the full network-plane trace: every record with its `seq`,
/// time and message id. Process events live in the process logs, not in
/// the trace.
fn trace_full_hash(trace: &psn_sim::trace::Trace) -> u64 {
    use psn_sim::trace::TraceKind;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.records() {
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

fn scenario_source(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.psn"));
    (
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}")),
        format!("{name}.psn"),
    )
}

/// The configuration the hand-coded side uses: exactly what the compiler
/// produces for a `.psn` file with no network/clocks/strobes/run blocks.
fn hand_config() -> ExecutionConfig {
    ExecutionConfig { seed: 42, record_sim_trace: true, ..Default::default() }
}

fn golden(name: &str, hand: Scenario, pinned: u64) {
    let (src, file) = scenario_source(name);
    let compiled = match compile(&src) {
        Ok(c) => c,
        Err(diags) => panic!("{file} failed to compile:\n{}", render(&src, &file, &diags)),
    };
    assert_eq!(compiled.seed, 42, "{file}: golden scenarios pin seed 42");
    assert_eq!(
        compiled.scenario.num_processes(),
        hand.num_processes(),
        "{file}: process count differs from the hand-coded world"
    );
    assert_eq!(
        compiled.scenario.timeline.len(),
        hand.timeline.len(),
        "{file}: world-event count differs from the hand-coded world"
    );

    let dsl: ExecutionTrace = run_execution(&compiled.scenario, &compiled.config);
    let coded: ExecutionTrace = run_execution(&hand, &hand_config());

    assert_eq!(dsl.net, coded.net, "{file}: network stats differ");
    assert_eq!(dsl.ended_at, coded.ended_at, "{file}: end times differ");
    let dsl_hash = trace_full_hash(&dsl.sim);
    let coded_hash = trace_full_hash(&coded.sim);
    assert_eq!(
        dsl_hash, coded_hash,
        "{file}: compiled run is not bit-identical to the hand-coded run"
    );
    assert_eq!(
        dsl_hash, pinned,
        "{file}: golden trace hash moved (got {dsl_hash:#018x}) — if the change is \
         intentional, update the pinned constant"
    );
}

#[test]
fn office_psn_matches_hand_coded() {
    golden("office", office::generate(&office::OfficeParams::default(), 42), OFFICE_HASH);
}

#[test]
fn exhibition_psn_matches_hand_coded() {
    golden(
        "exhibition",
        exhibition::generate(&exhibition::ExhibitionParams::default(), 42),
        EXHIBITION_HASH,
    );
}

#[test]
fn hospital_psn_matches_hand_coded() {
    golden("hospital", hospital::generate(&hospital::HospitalParams::default(), 42), HOSPITAL_HASH);
}

#[test]
fn habitat_psn_matches_hand_coded() {
    golden("habitat", habitat::generate(&habitat::HabitatParams::default(), 42), HABITAT_HASH);
}

// Golden full-trace hashes for the four committed scenarios at seed 42.
// Recorded from the hand-coded generators; the `.psn` compilations must
// land on the same constants.
const OFFICE_HASH: u64 = 0xbff6b6e088311c8e;
const EXHIBITION_HASH: u64 = 0xdeed8ee7a14929c7;
const HOSPITAL_HASH: u64 = 0xcfc4568b9b546f14;
const HABITAT_HASH: u64 = 0xb8e26a1cad7c8ac4;
