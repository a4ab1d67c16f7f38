//! The `--quick` experiment tables are a golden: every paper-claim table
//! except E14 (whose rate columns are wall-clock) must come out byte for
//! byte as `golden/quick_tables.md` records them, once the `_(… took …)_`
//! timing lines are dropped. A change to the engine, the clocks, the
//! detectors or the sweep that moves one cell fails here, naming the first
//! line that differs.
//!
//! To regenerate after a deliberate change, run
//! `experiments --quick --only <QUICK_IDS>` and drop the `took` lines.

use std::process::Command;

const QUICK_IDS: &str = "e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,e13,e15,a1,a2,a3,a4";
const GOLDEN: &str = include_str!("golden/quick_tables.md");

fn is_timing_line(line: &str) -> bool {
    line.starts_with("_(") && line.ends_with(")_") && line.contains(" took ")
}

#[test]
fn quick_tables_match_the_golden() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let out = Command::new(bin)
        .args(["--quick", "--only", QUICK_IDS])
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "experiments exited {:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("tables are UTF-8");
    let got: Vec<&str> = stdout.lines().filter(|l| !is_timing_line(l)).collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "quick tables differ from the golden at line {}:\n  golden: {:?}\n  got:    {:?}",
            i + 1,
            want.get(i),
            got.get(i)
        );
    }
}
