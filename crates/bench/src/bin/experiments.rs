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
//! cargo run --release -p psn-bench --bin experiments -- --only e7 --shards 4 \
//!     --delay-floor-ms 50 --shard-plan affinity
//! ```
//!
//! `--shards N` runs every cell on the sharded engine (bit-identical to
//! sequential); `--delay-floor-ms X` raises the minimum network delay so
//! the conservative scheduler has lookahead — the CI shard-equivalence job
//! runs the same cells with and without `--shards` at the same floor and
//! diffs the trace files. `--shard-plan NAME` picks how actors map to
//! shards (contiguous, interleaved/roundrobin, hash, affinity); every plan
//! is proven bit-identical by the same trace diff.

use std::time::Instant;

use psn_bench::experiments::{run_one, ALL};
use psn_bench::metrics_out;
use psn_bench::telemetry_out;
use psn_bench::trace_out;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let metrics_path: Option<&String> =
        args.iter().position(|a| a == "--metrics-out").and_then(|p| args.get(p + 1));
    let trace_dir: Option<&String> =
        args.iter().position(|a| a == "--trace-out").and_then(|p| args.get(p + 1));
    let telemetry_path: Option<&String> =
        args.iter().position(|a| a == "--telemetry-out").and_then(|p| args.get(p + 1));
    let trace_format: Option<&String> =
        args.iter().position(|a| a == "--trace-format").and_then(|p| args.get(p + 1));
    let shards: Option<usize> = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse().ok());
    let delay_floor_ms: Option<u64> = args
        .iter()
        .position(|a| a == "--delay-floor-ms")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse().ok());
    let shard_plan: Option<&String> =
        args.iter().position(|a| a == "--shard-plan").and_then(|p| args.get(p + 1));
    // Ids may be space-separated, comma-separated, or a mix:
    // `--only e9 e11`, `--only e9,e11,e12`, `--only e9, e11`.
    let only: Vec<String> = match args.iter().position(|a| a == "--only") {
        Some(pos) => args[pos + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .flat_map(|a| a.split(','))
            .map(|a| a.trim().to_lowercase())
            .filter(|s| !s.is_empty())
            .collect(),
        None => ALL.iter().map(|s| s.to_string()).collect(),
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: experiments [--quick] [--csv] [--only e1 e2,e3 ...] [--list] \
             [--metrics-out <path.jsonl>] [--telemetry-out <path.jsonl>] \
             [--trace-out <dir>] [--trace-format chrome|jsonl] \
             [--shards N] [--delay-floor-ms X] [--shard-plan NAME]\n\
             \n\
             --only accepts experiment ids separated by spaces, commas, or both\n\
             (e.g. `--only e9,e11,e12`); see --list for the known ids.\n\
             --shards runs cells on the sharded engine (bit-identical);\n\
             --delay-floor-ms raises the minimum network delay (lookahead);\n\
             --shard-plan picks the actor→shard map (contiguous, interleaved,\n\
             roundrobin, hash, affinity)."
        );
        return;
    }
    if let Some(k) = shards {
        psn_bench::common::set_shards(k);
    }
    if let Some(ms) = delay_floor_ms {
        psn_bench::common::set_delay_floor_ms(ms);
    }
    if let Some(name) = shard_plan {
        match psn_bench::common::parse_shard_plan(name) {
            Some(kind) => psn_bench::common::set_shard_plan(kind),
            None => {
                eprintln!(
                    "unknown --shard-plan {name} (known: contiguous, interleaved, \
                     roundrobin, hash, affinity)"
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = metrics_path {
        if let Err(e) = metrics_out::set_metrics_out(path) {
            eprintln!("cannot open --metrics-out {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = telemetry_path {
        if let Err(e) = telemetry_out::set_telemetry_out(path) {
            eprintln!("cannot open --telemetry-out {path}: {e}");
            std::process::exit(1);
        }
    }
    let format = match trace_format {
        Some(f) => match trace_out::TraceFormat::parse(f) {
            Some(f) => f,
            None => {
                eprintln!("unknown --trace-format {f} (known: chrome, jsonl)");
                std::process::exit(1);
            }
        },
        None => trace_out::TraceFormat::default(),
    };
    if let Some(dir) = trace_dir {
        if let Err(e) = trace_out::set_trace_out(dir, format) {
            eprintln!("cannot open --trace-out {dir}: {e}");
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--list") {
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
