//! Chaos soak: seeded, generated fault scripts against a live execution,
//! with system invariants checked on every run.
//!
//! For each seed a [`FaultScript::generate`] schedule (crashes with and
//! without recovery, partitions with drop/park policies, channel
//! drop/duplicate/reorder/corrupt rules, clock faults) is installed over
//! a scenario, and the run must satisfy:
//!
//! 1. **Determinism** — re-running the same `(scenario, script, seed)`
//!    reproduces the structured trace, net stats, fault stats, and end
//!    time bit for bit.
//! 2. **Message conservation** — every transmission is accounted for:
//!    `sent == delivered + lost + parked_leftover` (duplicates count as
//!    sent; all fault-plane removals count as lost).
//! 3. **Detection confinement** — every non-borderline detection that
//!    matches no ground-truth occurrence lies in the temporal vicinity of
//!    an injected fault or a lost message (the E9/E11–E13 locality
//!    claims, enforced as an invariant instead of a table).
//!
//! Any violation prints the offending run and the process exits
//! non-zero, so the same binary serves as a CI smoke job (`--quick
//! --seeds 3`) and a longer soak (default 20 seeds).
//!
//! ```sh
//! cargo run --release -p psn-bench --bin chaos                # 20 seeds
//! cargo run --release -p psn-bench --bin chaos -- --seeds 50
//! cargo run --release -p psn-bench --bin chaos -- --quick --seeds 3
//! cargo run --release -p psn-bench --bin chaos -- --quick --seeds 3 --shards 4
//! cargo run --release -p psn-bench --bin chaos -- --only office,hospital --seeds 5
//! cargo run --release -p psn-bench --bin chaos -- --only scenarios/exhibition.psn
//! cargo run --release -p psn-bench --bin chaos -- --grammar --seeds 20
//! ```
//!
//! The default soak targets the exhibition world. `--only LIST` widens or
//! narrows the target set: a comma- or space-separated list mixing
//! built-in world names (`exhibition`, `office`, `hospital`, `habitat`)
//! and paths to `.psn` scenario programs. Built-ins run once per seed
//! with a freshly generated fault script; `.psn` files run once each,
//! exactly as written (their faults come from the file's own `faults`
//! block and seed). `--grammar` soaks the language itself: each seed
//! draws a random scenario program from the `psn-lang` grammar sampler,
//! compiles it, and checks the same three invariants — coverage of the
//! scenario space instead of one hand-picked world.
//!
//! With `--shards N` the primary run executes on the sharded engine while
//! the replay leg stays sequential, so invariant 1 sharpens into a
//! sharded-vs-sequential bit-equivalence check under live fault scripts.
//! Sharding needs lookahead, so built-in targets swap the pure Δ-bounded
//! delay (minimum 0) for a `[50 ms, 300 ms]` band — same Δ ceiling,
//! nonzero floor (grammar-sampled scenarios always carry a nonzero delay
//! floor for the same reason).
//!
//! An unknown flag, a missing value or an unparsable number prints the
//! usage and exits with code 2.

use psn_bench::cli::Args;
use psn_bench::obs_out::{self, cell_object};
use psn_core::{run_execution, run_execution_instrumented, ExecutionConfig};
use psn_predicates::{detect_occurrences, detection_matches, Discipline, Expr, Predicate};
use psn_sim::fault::{ChaosConfig, FaultScript};
use psn_sim::time::{SimDuration, SimTime};
use psn_sim::trace_analysis::TraceAnalysis;
use psn_world::scenarios::exhibition::ExhibitionParams;
use psn_world::scenarios::{exhibition, habitat, hospital, office, Scenario};
use psn_world::{truth_intervals, AttrKey};
use serde::Value;

const USAGE: &str = "usage: chaos [--seeds N] [--quick] [--shards K] \
     [--obs-out <path.jsonl>] [--only LIST] [--grammar]\n\
     --only LIST  soak specific targets: a comma- or space-separated list of\n\
                  built-in world names (exhibition, office, hospital, habitat)\n\
                  and/or .psn file paths, e.g. `--only office,hospital` or\n\
                  `--only scenarios/exhibition.psn office`. Built-ins run once\n\
                  per seed under a generated fault script; .psn files run once\n\
                  each, exactly as written.\n\
     --grammar    soak grammar-sampled scenarios: each seed draws a random .psn\n\
                  program from the psn-lang sampler, compiles it, and checks\n\
                  the same three invariants.";

/// Everything one soak run needs: a world, an engine configuration (with
/// the fault script already installed), the predicates to monitor, and
/// the horizon for detection matching.
struct SoakCase {
    label: String,
    scenario: Scenario,
    cfg: ExecutionConfig,
    preds: Vec<(String, Predicate)>,
    discipline: Discipline,
    horizon: SimTime,
}

fn params(quick: bool) -> ExhibitionParams {
    ExhibitionParams {
        doors: 4,
        arrival_rate_hz: 3.0,
        mean_stay: SimDuration::from_secs(20),
        duration: SimTime::from_secs(if quick { 300 } else { 600 }),
        capacity: 60,
    }
}

/// Delay model for built-in targets: sharded mode needs a nonzero
/// minimum delay (lookahead), sequential mode keeps the pure Δ bound.
fn builtin_delay(shards: usize) -> psn_sim::delay::DelayModel {
    if shards > 1 {
        psn_sim::delay::DelayModel::DeltaBounded {
            min: SimDuration::from_millis(50),
            max: SimDuration::from_millis(300),
        }
    } else {
        psn_sim::delay::DelayModel::delta(SimDuration::from_millis(300))
    }
}

/// Build the soak case for a built-in world name, or `None` if the name
/// is not a built-in. Each world gets its canonical predicate and a
/// generated fault script over all of its processes.
fn builtin_case(name: &str, seed: u64, quick: bool, shards: usize) -> Option<SoakCase> {
    let secs = if quick { 300 } else { 600 };
    let (scenario, pred, horizon): (Scenario, Predicate, SimTime) = match name {
        "exhibition" => {
            let p = params(quick);
            let scenario = exhibition::generate(&p, 9100 + seed);
            (scenario, Predicate::occupancy_over(p.doors, p.capacity), p.duration)
        }
        "office" => {
            let p = office::OfficeParams {
                base_temp: 29.0,
                duration: SimTime::from_secs(secs),
                ..Default::default()
            };
            let scenario = office::generate(&p, 9100 + seed);
            (scenario, Predicate::hot_and_occupied(0, 30.0), p.duration)
        }
        "hospital" => {
            let p = hospital::HospitalParams {
                mean_dwell: SimDuration::from_secs(60),
                duration: SimTime::from_secs(secs),
                ..Default::default()
            };
            let ward = p.infectious_ward;
            let scenario = hospital::generate(&p, 9100 + seed);
            let pred = Predicate::Relational(
                Expr::var(AttrKey::new(ward, hospital::ATTR_COUNT)).gt(Expr::int(0)),
            );
            (scenario, pred, p.duration)
        }
        "habitat" => {
            let p = habitat::HabitatParams {
                mean_dwell: SimDuration::from_secs(60),
                duration: SimTime::from_secs(secs),
                ..Default::default()
            };
            let scenario = habitat::generate(&p, 9100 + seed);
            let pred = Predicate::Relational(
                Expr::var(AttrKey::new(0, habitat::ATTR_PRESENT)).gt(Expr::int(0)),
            );
            (scenario, pred, p.duration)
        }
        _ => return None,
    };
    let n = scenario.num_processes();
    let script = FaultScript::generate(&ChaosConfig::new((0..n).collect(), horizon), seed);
    let cfg = ExecutionConfig {
        delay: builtin_delay(shards),
        seed,
        record_sim_trace: true,
        faults: Some(script),
        shards,
        ..Default::default()
    };
    Some(SoakCase {
        label: format!("{name} seed {seed}"),
        scenario,
        cfg,
        preds: vec![(name.to_string(), pred)],
        discipline: Discipline::VectorStrobe,
        horizon,
    })
}

/// Build a soak case from compiled `.psn` source (a file or a sampled
/// program), applying the CLI shard override.
fn compiled_case(
    label: String,
    source: &str,
    origin: &str,
    shards: usize,
) -> Result<SoakCase, String> {
    let compiled = psn_lang::compile(source).map_err(|diags| {
        format!(
            "{label}: scenario failed to compile:\n{}",
            psn_lang::render(source, origin, &diags)
        )
    })?;
    let mut cfg = compiled.config;
    cfg.record_sim_trace = true;
    if shards > 1 {
        cfg.shards = shards;
    }
    let horizon = compiled.scenario.timeline.duration();
    Ok(SoakCase {
        label: format!("{label} ({})", compiled.name),
        scenario: compiled.scenario,
        cfg,
        preds: compiled.predicates.into_iter().map(|p| (p.name, p.predicate)).collect(),
        discipline: compiled.discipline,
        horizon,
    })
}

/// Run one case and check the three invariants. Returns the one-line
/// summary on success, a violation message otherwise.
fn soak(case: &SoakCase) -> Result<String, String> {
    let SoakCase { label, scenario, cfg, preds, discipline, horizon } = case;
    let shards = cfg.shards;
    // With an --obs-out sink open the primary run records into an enabled
    // registry and one JSONL record is emitted per run.
    let metrics = obs_out::registry();
    let trace = run_execution_instrumented(scenario, cfg, &metrics);
    obs_out::emit_cell(
        "chaos",
        cell_object(
            &format!("{label} shards={shards}"),
            &[("seed", Value::UInt(cfg.seed)), ("shards", Value::UInt(shards as u64))],
        ),
        &metrics,
    );

    // 1. Determinism: same (scenario, script, seed) ⇒ identical run. When
    // the primary run is sharded, the replay runs sequentially — the same
    // invariant then proves the sharded engine bit-identical to the
    // sequential one under this fault script.
    let replay_cfg = ExecutionConfig { shards: 1, ..cfg.clone() };
    let replay = run_execution(scenario, &replay_cfg);
    if replay.sim.records() != trace.sim.records() {
        return Err(format!("{label}: replay diverged (structured trace records differ)"));
    }
    if replay.net != trace.net || replay.faults != trace.faults || replay.ended_at != trace.ended_at
    {
        return Err(format!("{label}: replay diverged (stats or end time differ)"));
    }

    // 2. Message conservation. The run quiesces (no heartbeats), so
    // nothing is still in flight at the end; parked messages of a
    // never-healed partition are the only legitimate remainder. World
    // sense events are injected deliveries (they bypass the network and
    // never count as sent), so they join the sent side of the ledger.
    let fs = trace.faults.clone().unwrap_or_default();
    let injected: u64 = scenario
        .timeline
        .events
        .iter()
        .filter(|e| scenario.sensing.process_for(e.key).is_some())
        .count() as u64;
    let accounted = trace.net.messages_delivered + trace.net.messages_lost + fs.parked_leftover;
    if trace.net.messages_sent + injected != accounted {
        return Err(format!(
            "{label}: conservation violated: sent {} + injected {injected} != \
             delivered {} + lost {} + parked {}",
            trace.net.messages_sent,
            trace.net.messages_delivered,
            trace.net.messages_lost,
            fs.parked_leftover,
        ));
    }

    // 3. Detection confinement: a non-borderline detection matching no
    // truth occurrence must sit near an injected fault or a lost message.
    let tol = SimDuration::from_millis(1_000);
    let vicinity = SimDuration::from_secs(15);
    let analysis = TraceAnalysis::build(&trace.sim);
    let initial = scenario.timeline.initial_state();
    let mut det_total = 0usize;
    let mut truth_total = 0usize;
    for (name, pred) in preds {
        let truth = truth_intervals(&scenario.timeline, |s| pred.eval_state(s));
        let det = detect_occurrences(&trace, pred, &initial, *discipline);
        let mut unexplained = 0usize;
        for d in det.iter().filter(|d| !d.borderline) {
            if detection_matches(d, &truth, *horizon, tol) {
                continue;
            }
            let end = d.end.unwrap_or(trace.ended_at);
            if !analysis.near_any_fault(d.start, end, vicinity)
                && !analysis.near_any_loss(d.start, end, vicinity)
            {
                unexplained += 1;
            }
        }
        if unexplained > 0 {
            return Err(format!(
                "{label}: {unexplained} detection(s) of `{name}` match no truth occurrence \
                 and are not near any fault or loss"
            ));
        }
        det_total += det.len();
        truth_total += truth.len();
    }

    let n_faults = cfg.faults.as_ref().map_or(0, |s| s.faults.len());
    Ok(format!(
        "{label}: ok — {} faults scripted (crashes {} recoveries {} cuts {} heals {} \
         clock {}), {} msgs ({} lost, {} corrupted, {} duplicated, {} reordered, {} parked), \
         {} detections / {} truth",
        n_faults,
        fs.crashes,
        fs.recoveries,
        fs.cuts,
        fs.heals,
        fs.clock_faults,
        trace.net.messages_sent,
        trace.net.messages_lost,
        fs.corrupted,
        fs.duplicated,
        fs.reordered,
        fs.parked,
        det_total,
        truth_total,
    ))
}

fn run_grammar_seed(seed: u64, shards: usize) -> Result<String, String> {
    let source = psn_lang::sample_source(seed);
    let case = compiled_case(format!("grammar seed {seed}"), &source, "<sampled>", shards)?;
    soak(&case)
}

fn run_file(path: &str, shards: usize) -> Result<String, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let case = compiled_case(path.to_string(), &source, path, shards)?;
    soak(&case)
}

fn run_builtin_seed(name: &str, seed: u64, quick: bool, shards: usize) -> Result<String, String> {
    let case = builtin_case(name, seed, quick, shards)
        .unwrap_or_else(|| panic!("not a built-in scenario: {name}"));
    soak(&case)
}

const BUILTINS: [&str; 4] = ["exhibition", "office", "hospital", "habitat"];

fn main() {
    let mut args = Args::from_env(USAGE);
    let (mut quick, mut grammar) = (false, false);
    let mut seeds: u64 = 20;
    let mut shards: usize = 1;
    // --only takes a comma- or space-separated list of built-in names
    // and/or .psn paths, terminated by the next --flag.
    let mut only: Vec<String> = Vec::new();
    let mut obs_path: Option<String> = None;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--grammar" => grammar = true,
            "--seeds" => seeds = args.parse("--seeds"),
            "--shards" => shards = args.parse("--shards"),
            "--only" => only = args.list("--only"),
            "--obs-out" => obs_path = Some(args.value("--obs-out")),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => args.fail(&format!("unknown flag {flag}")),
            other => args.fail(&format!("unexpected argument {other}")),
        }
    }
    for entry in &only {
        if !BUILTINS.contains(&entry.as_str()) && !std::path::Path::new(entry).is_file() {
            eprintln!(
                "--only {entry}: not a built-in scenario (known: {}) and not a .psn file",
                BUILTINS.join(", ")
            );
            std::process::exit(2);
        }
    }
    if let Some(path) = obs_path {
        if let Err(e) = obs_out::set_obs_out(&path) {
            eprintln!("cannot open --obs-out {path}: {e}");
            std::process::exit(1);
        }
    }
    if shards > 1 {
        println!("chaos: sharded mode ({shards} shards; replay leg runs sequentially)");
    }
    let mut failures = 0u64;
    let mut runs = 0u64;
    let mut tally = |res: Result<String, String>| {
        runs += 1;
        match res {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("VIOLATION {line}");
                failures += 1;
            }
        }
    };
    if grammar {
        println!("chaos: grammar mode — {seeds} sampled scenario(s) from the psn-lang grammar");
        for seed in 0..seeds {
            tally(run_grammar_seed(seed, shards));
        }
    } else if !only.is_empty() {
        for entry in &only {
            if BUILTINS.contains(&entry.as_str()) {
                for seed in 0..seeds {
                    tally(run_builtin_seed(entry, seed, quick, shards));
                }
            } else {
                tally(run_file(entry, shards));
            }
        }
    } else {
        for seed in 0..seeds {
            tally(run_builtin_seed("exhibition", seed, quick, shards));
        }
    }
    obs_out::finish();
    if failures > 0 {
        eprintln!("chaos: {failures}/{runs} run(s) violated an invariant");
        std::process::exit(1);
    }
    println!("chaos: all {runs} run(s) clean");
}
