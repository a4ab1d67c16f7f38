//! The harness binaries reject a command line they cannot read: an
//! unparsable number or an unknown flag exits with code 2 and names the
//! offending flag, instead of quietly running a default configuration.
//!
//! Each case ends in a flag that would make a lenient parser stop at once
//! with exit code 0 (`--list` for `experiments`, `--help` for `chaos`), so
//! a regression fails here fast rather than running a full sweep.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: stderr {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: stderr does not name {flag}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: stderr has no usage: {stderr}");
}

#[test]
fn experiments_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    rejects(bin, &["--shards", "x", "--list"], "--shards");
    rejects(bin, &["--shard-plan", "affinity", "--list"], "--shard-plan");
    rejects(bin, &["--shrads", "4", "--list"], "--shrads");
    rejects(bin, &["--list", "--obs-out"], "--obs-out");
    rejects(bin, &["--telemetry-out", "/dev/null", "--list"], "--telemetry-out");
}

#[test]
fn chaos_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_chaos");
    rejects(bin, &["--shards", "x", "--help"], "--shards");
    rejects(bin, &["--shard-plan", "affinity", "--help"], "--shard-plan");
    rejects(bin, &["--seeds", "-1", "--help"], "--seeds");
    rejects(bin, &["--obs-out", "--help"], "--obs-out");
    rejects(bin, &["--telemetry-out", "/dev/null", "--help"], "--telemetry-out");
}

#[test]
fn psn_script_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_psn-script");
    rejects(bin, &["--shards", "x", "--help"], "--shards");
    rejects(bin, &["--shard-plan", "affinity", "--help"], "--shard-plan");
    rejects(bin, &["--obs-out", "--help"], "--obs-out");
    rejects(bin, &["--telemetry-out", "/dev/null", "--help"], "--telemetry-out");
}
