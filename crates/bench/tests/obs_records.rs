//! What an `--obs-out` record says about its run: E15 runs the engine once
//! per cell, so each of its records counts one run, and the run wall is
//! that run's alone.

use std::process::Command;

use serde::Value;

#[test]
fn e15_obs_records_count_one_run_each() {
    let path = std::env::temp_dir().join(format!("psn-e15-obs-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--only", "e15", "--obs-out"])
        .arg(&path)
        .output()
        .expect("experiments runs");
    let text = std::fs::read_to_string(&path).expect("the sink wrote its file");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "experiments exited {:?}", out.status);
    let mut records = 0usize;
    for line in text.lines() {
        let record = serde_json::parse(line).expect("each record parses");
        let runs = record.get("telemetry").and_then(|t| t.get("runs"));
        assert_eq!(runs, Some(&Value::UInt(1)), "{line}");
        records += 1;
    }
    assert!(records > 0, "E15 wrote no records");
}
