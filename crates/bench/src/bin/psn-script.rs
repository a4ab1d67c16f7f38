//! `psn-script` — parse, type-check, and run `.psn` scenario programs.
//!
//! The front door to the scenario language (`psn-lang`): each file on
//! the command line is compiled into a world + execution config +
//! predicates and, unless `--check` is given, run end-to-end through the
//! engine. Per-predicate detections are scored against ground truth and
//! the usual output sinks are available (`--obs-out`, `--trace-out`).
//!
//! ```sh
//! cargo run --release -p psn-bench --bin psn-script -- scenarios/exhibition.psn
//! cargo run --release -p psn-bench --bin psn-script -- --check scenarios/*.psn
//! cargo run --release -p psn-bench --bin psn-script -- scenarios/office.psn \
//!     --shards 4 --obs-out obs.jsonl
//! ```
//!
//! `--check` parses and type-checks without running (a pre-commit lint);
//! diagnostics render compiler-style with the offending line and a caret
//! under the span:
//!
//! ```text
//! error: unknown exhibition field `dors` (known: doors, arrival_rate_hz, …)
//!  --> bad.psn:3:25
//!   |
//! 3 |     world exhibition { dors 3 }
//!   |                        ^^^^
//! ```

use psn_bench::cli::Args;
use psn_bench::obs_out::{self, cell_object};
use psn_bench::trace_out;
use psn_core::run_execution_instrumented;
use psn_lang::{compile, render, CompiledScenario};
use psn_predicates::{detect_occurrences, modal_status, score, BorderlinePolicy, StreamingModal};
use psn_sim::time::SimDuration;
use psn_world::truth_intervals;
use serde::Value;

const USAGE: &str = "usage: psn-script [--check] [--stream] FILE.psn... [--shards K] \
    [--obs-out <path.jsonl>] \
    [--trace-out <dir>] [--trace-format chrome|jsonl]\n\
    --check parses and type-checks without running.\n\
    --stream also scores each predicate through the streaming detector \
    (bounded hold-back, Δ-bound GC) and reports its memory high-water.";

struct Options {
    check: bool,
    stream: bool,
    files: Vec<String>,
    shards: Option<usize>,
}

fn parse_args() -> Options {
    let mut args = Args::from_env(USAGE);
    let mut opts = Options { check: false, stream: false, files: Vec::new(), shards: None };
    let mut trace_dir: Option<String> = None;
    let mut trace_format = trace_out::TraceFormat::Jsonl;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--stream" => opts.stream = true,
            "--shards" => opts.shards = Some(args.parse("--shards")),
            "--obs-out" => {
                let v = args.value("--obs-out");
                if let Err(e) = obs_out::set_obs_out(&v) {
                    eprintln!("cannot open --obs-out {v}: {e}");
                    std::process::exit(2);
                }
            }
            "--trace-out" => trace_dir = Some(args.value("--trace-out")),
            "--trace-format" => {
                let f = args.value("--trace-format");
                trace_format = trace_out::TraceFormat::parse(&f).unwrap_or_else(|| {
                    args.fail(&format!("unknown --trace-format {f} (known: chrome, jsonl)"))
                });
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => args.fail(&format!("unknown flag {flag}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if let Some(dir) = trace_dir {
        if let Err(e) = trace_out::set_trace_out(&dir, trace_format) {
            eprintln!("cannot open --trace-out {dir}: {e}");
            std::process::exit(2);
        }
    }
    if opts.files.is_empty() {
        args.fail("no .psn files given");
    }
    opts
}

/// Compile one file, rendering diagnostics on failure.
fn compile_file(path: &str) -> Result<CompiledScenario, ()> {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return Err(());
        }
    };
    match compile(&source) {
        Ok(c) => Ok(c),
        Err(diags) => {
            eprint!("{}", render(&source, path, &diags));
            Err(())
        }
    }
}

fn run_file(path: &str, opts: &Options) -> Result<(), ()> {
    let mut compiled = compile_file(path)?;
    if let Some(shards) = opts.shards {
        compiled.config.shards = shards;
    }

    let metrics = obs_out::registry();
    let trace = run_execution_instrumented(&compiled.scenario, &compiled.config, &metrics);
    let horizon = trace.ended_at;
    println!(
        "{path}: scenario \"{}\" seed {} n={} shards={} — {} world events, {} sent / {} delivered / {} lost, ended at {:?}",
        compiled.name,
        compiled.seed,
        compiled.scenario.num_processes(),
        compiled.config.shards,
        compiled.scenario.timeline.len(),
        trace.net.messages_sent,
        trace.net.messages_delivered,
        trace.net.messages_lost,
        horizon,
    );

    let initial = compiled.scenario.timeline.initial_state();
    for p in &compiled.predicates {
        let detections = detect_occurrences(&trace, &p.predicate, &initial, compiled.discipline);
        let truth = truth_intervals(&compiled.scenario.timeline, |s| p.predicate.eval_state(s));
        let report = score(
            &detections,
            &truth,
            horizon,
            SimDuration::from_secs(1),
            BorderlinePolicy::AsPositive,
        );
        println!(
            "  predicate \"{}\" [{}]: {} truth / {} detected ({} borderline) — \
             precision {:.3} recall {:.3}",
            p.name,
            compiled.discipline.label(),
            truth.len(),
            detections.len(),
            report.borderline,
            report.precision(),
            report.recall(),
        );

        if opts.stream {
            // Hold reports back for one worst-case delay so strobe keys
            // release in order; an unbounded delay model falls back to the
            // sealed-trace adapter (hold everything, sort at the seal).
            let hold_back = compiled.config.delay.delta_bound().unwrap_or(SimDuration::MAX);
            let mut sm = StreamingModal::new(&p.predicate, &initial, trace.n, hold_back);
            for r in &trace.log.reports {
                sm.offer(r);
            }
            let high = sm.mem_high_water_cuts();
            let width = sm.frontier_width();
            let late = sm.late_reports();
            let streamed = sm.seal();
            let offline = modal_status(&trace, &p.predicate, &initial);
            let agree = streamed == offline;
            println!(
                "    stream: possibly {} definitely {} holding_now {} — \
                 mem_high_water_cuts {high} frontier_width {width} late {late} — \
                 {} offline sweep",
                streamed.possibly,
                streamed.definitely,
                streamed.holding_now,
                if agree { "matches" } else { "DIVERGES from" },
            );
            if !agree && late == 0 {
                eprintln!(
                    "{path}: predicate \"{}\": streaming verdict diverged from the \
                     offline sweep with no late reports — this is a detector bug",
                    p.name,
                );
                return Err(());
            }
        }
    }

    let cell = cell_object(
        &compiled.name,
        &[
            ("file", Value::Str(path.to_string())),
            ("seed", Value::UInt(compiled.seed)),
            ("shards", Value::UInt(compiled.config.shards as u64)),
        ],
    );
    obs_out::emit_cell("psn-script", cell, &metrics);
    if trace_out::is_enabled() {
        trace_out::emit_cell_trace("psn-script", &compiled.name, &trace.sim, trace.n);
    }
    Ok(())
}

fn main() {
    let opts = parse_args();
    let mut failures = 0usize;
    for path in &opts.files {
        let outcome = if opts.check {
            compile_file(path).map(|c| {
                println!(
                    "{path}: ok — scenario \"{}\", {} processes, {} predicate(s), {} world events",
                    c.name,
                    c.scenario.num_processes(),
                    c.predicates.len(),
                    c.scenario.timeline.len(),
                );
            })
        } else {
            run_file(path, &opts)
        };
        if outcome.is_err() {
            failures += 1;
        }
    }
    obs_out::finish();
    trace_out::finish();
    if failures > 0 {
        eprintln!("psn-script: {failures}/{} file(s) failed", opts.files.len());
        std::process::exit(1);
    }
}
