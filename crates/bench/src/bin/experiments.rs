//! The experiment runner.
//!
//! ```sh
//! cargo run --release -p psn-bench --bin experiments            # all, full size
//! cargo run --release -p psn-bench --bin experiments -- --quick # all, small
//! cargo run --release -p psn-bench --bin experiments -- --only e2 e5
//! cargo run --release -p psn-bench --bin experiments -- --only e9,e11,e12
//! cargo run --release -p psn-bench --bin experiments -- --csv --only e8
//! cargo run --release -p psn-bench --bin experiments -- --only e7 --metrics-out /tmp/m.jsonl
//! cargo run --release -p psn-bench --bin experiments -- --only e7 e9 --trace-out /tmp/traces
//! cargo run --release -p psn-bench --bin experiments -- --only e7 --shards 4 --delay-floor-ms 50
//! ```
//!
//! `--shards N` runs every cell on the sharded engine (bit-identical to
//! sequential); `--delay-floor-ms X` raises the minimum network delay so
//! the conservative scheduler has lookahead — the CI shard-equivalence job
//! runs the same cells with and without `--shards` at the same floor and
//! diffs the trace files. An unknown flag, a missing value or an
//! unparsable number prints the usage and exits with code 2.

use std::time::Instant;

use psn_bench::cli::Args;
use psn_bench::experiments::{run_one, ALL};
use psn_bench::metrics_out;
use psn_bench::telemetry_out;
use psn_bench::trace_out;

const USAGE: &str = "usage: experiments [--quick] [--csv] [--only e1 e2,e3 ...] [--list] \
     [--metrics-out <path.jsonl>] [--telemetry-out <path.jsonl>] \
     [--trace-out <dir>] [--trace-format chrome|jsonl] \
     [--shards N] [--delay-floor-ms X]\n\
     \n\
     --only accepts experiment ids separated by spaces, commas, or both\n\
     (e.g. `--only e9,e11,e12`); see --list for the known ids.\n\
     --shards runs cells on the sharded engine (bit-identical);\n\
     --delay-floor-ms raises the minimum network delay (lookahead).";

fn main() {
    let mut args = Args::from_env(USAGE);
    let (mut quick, mut csv, mut list) = (false, false, false);
    let mut metrics_path: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut trace_format = trace_out::TraceFormat::default();
    let mut only: Vec<String> = ALL.iter().map(|s| s.to_string()).collect();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--list" => list = true,
            "--only" => {
                only = args.list("--only").into_iter().map(|id| id.to_lowercase()).collect()
            }
            "--metrics-out" => metrics_path = Some(args.value("--metrics-out")),
            "--trace-out" => trace_dir = Some(args.value("--trace-out")),
            "--telemetry-out" => telemetry_path = Some(args.value("--telemetry-out")),
            "--trace-format" => {
                let f = args.value("--trace-format");
                trace_format = trace_out::TraceFormat::parse(&f).unwrap_or_else(|| {
                    args.fail(&format!("unknown --trace-format {f} (known: chrome, jsonl)"))
                });
            }
            "--shards" => psn_bench::common::set_shards(args.parse("--shards")),
            "--delay-floor-ms" => {
                psn_bench::common::set_delay_floor_ms(args.parse("--delay-floor-ms"))
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => args.fail(&format!("unknown flag {flag}")),
            other => args.fail(&format!("unexpected argument {other}")),
        }
    }
    if let Some(path) = metrics_path {
        if let Err(e) = metrics_out::set_metrics_out(&path) {
            eprintln!("cannot open --metrics-out {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = telemetry_path {
        if let Err(e) = telemetry_out::set_telemetry_out(&path) {
            eprintln!("cannot open --telemetry-out {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = trace_dir {
        if let Err(e) = trace_out::set_trace_out(&dir, trace_format) {
            eprintln!("cannot open --trace-out {dir}: {e}");
            std::process::exit(1);
        }
    }
    if list {
        for id in ALL {
            println!("{id}");
        }
        return;
    }

    for id in &only {
        let t0 = Instant::now();
        match run_one(id, quick) {
            Some(table) => {
                if csv {
                    print!("{}", table.to_csv());
                } else {
                    println!("{}", table.to_markdown());
                    println!("_({id} took {:.1}s)_\n", t0.elapsed().as_secs_f64());
                }
            }
            None => eprintln!("unknown experiment id: {id} (known: {})", ALL.join(", ")),
        }
    }
    metrics_out::finish();
    telemetry_out::finish();
    let traces = trace_out::finish();
    if traces > 0 {
        eprintln!("trace-out: wrote {traces} cell trace file(s)");
    }
}
