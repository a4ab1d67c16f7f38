//! The parent process: one child per workload (pinned where the workload asks
//! for it), the layer probes in the traced pass, the printed report, the
//! results file and the driver's result line.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::child::{self, WorkloadResult};
use crate::host;
use crate::layers;
use crate::metrics::{self, MetricMap};
use crate::workload::Kind;
use crate::Options;

/// Where results and span files go unless `--out` names another file.
const RESULTS_DIR: &str = "benchmark/results";

fn print_json_line(v: &Value) {
    let mut line = String::new();
    serde_json::write_value_to(v, &mut line);
    println!("{line}");
}

/// Entry of a `child` process: run one workload, print its result as the
/// last line of standard output.
pub fn child_main(o: &Options) -> ExitCode {
    let Some(kind) = o.workload else {
        eprintln!("benchmark child: --workload is required");
        return ExitCode::from(2);
    };
    let (result, spans) = child::run(kind, o.sizes(), o.seed, o.seconds, o.trace);
    if spans.enabled() {
        if let Err(e) = write_spans(&format!("spans-{}.jsonl", kind.name()), kind.name(), &spans) {
            eprintln!("benchmark: cannot write spans: {e}");
        }
    }
    print_json_line(&result.to_value());
    ExitCode::SUCCESS
}

/// Entry of a `layers` process: run one part of the layer probes.
pub fn layers_main(o: &Options) -> ExitCode {
    let part = o.part.as_deref().unwrap_or("pinned");
    let mut spans = crate::spans::Spans::new(true);
    let measured = match part {
        "pinned" => layers::pinned_part(o.sizes(), o.seed, &mut spans),
        "wide" => layers::wide_part(o.sizes(), o.seed, &mut spans),
        other => {
            eprintln!("benchmark layers: unknown part {other}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = write_spans(&format!("spans-layers-{part}.jsonl"), "layers", &spans) {
        eprintln!("benchmark: cannot write spans: {e}");
    }
    print_json_line(&metrics::metrics_to_value(&measured));
    ExitCode::SUCCESS
}

fn write_spans(file: &str, workload: &str, spans: &crate::spans::Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(Path::new(RESULTS_DIR).join(file))?);
    spans.write_jsonl(workload, &mut out)?;
    std::io::Write::flush(&mut out)
}

/// Run this binary again with `args`, pinned to one CPU if asked and
/// possible, and parse the last line it prints.
fn spawn(exe: &Path, args: &[String], pin: bool) -> Result<Value, String> {
    let run = |mut cmd: Command| -> Result<Value, String> {
        // One malloc arena. glibc otherwise gives every thread an arena of its
        // own, and which arena a short-lived server or shard thread lands in
        // depends on timing: the peak RSS of one and the same session came
        // out as 222 or 240 MB, of one wide job as 189 or 211 MB even with two
        // arenas. With one it repeats to within 1%.
        cmd.env("MALLOC_ARENA_MAX", "1");
        if pin {
            // A served session grows multi-megabyte vectors while a second
            // connection allocates beside them. Under glibc's *dynamic* mmap
            // threshold, whether such a vector can grow in place depends on
            // what was freed when: one seed's paced session peaked at 79.5,
            // 83.7 or 88.3 MB. Pinning the threshold to its initial value
            // keeps every large buffer in a mapping of its own: 69.6 ± 0.2 MB,
            // at no cost in speed here. (The batch jobs, which allocate and
            // free their large buffers once per job, lose up to 10% to the
            // extra page faults and are steady without it, so they keep the
            // default.)
            cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
        }
        let out = cmd
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        if !out.status.success() {
            return Err(format!(
                "{:?} {} ended with {}",
                cmd.get_program(),
                args.join(" "),
                out.status
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().ok_or("the child printed nothing")?;
        serde_json::parse(last).map_err(|e| format!("the child's result does not parse: {e}"))
    };
    if pin {
        match host::pinned_command(exe) {
            Some(cmd) => return run(cmd),
            None => eprintln!("benchmark: taskset cannot pin here; running unpinned"),
        }
    }
    run(Command::new(exe))
}

fn common_args(o: &Options) -> Vec<String> {
    let mut args = vec!["--seed".to_string(), o.seed.to_string()];
    if o.quick {
        args.push("--quick".into());
    }
    args
}

fn run_workload(
    exe: &Path,
    kind: Kind,
    o: &Options,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let mut args = vec!["child".to_string(), "--workload".into(), kind.name().into()];
    args.extend(common_args(o));
    args.extend(["--seconds".into(), o.seconds.to_string()]);
    args.extend(["--trace".into(), if traced { "1" } else { "0" }.into()]);
    let value = spawn(exe, &args, kind.pinned())?;
    let mut r = WorkloadResult::from_value(&value).ok_or("the child's result is incomplete")?;
    mark_unresolved_if_unpinned(kind, &mut r);
    Ok(r)
}

/// Add what a traced child measured to the untraced result of the same
/// workload: its operations and findings, and every metric that is not an
/// end-to-end one (those stay as measured with tracing off).
fn absorb_traced(r: &mut WorkloadResult, traced: WorkloadResult) {
    r.traced = true;
    r.repetitions += traced.repetitions;
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    r.verdict_mismatches += traced.verdict_mismatches;
    r.findings.extend(traced.findings);
    r.pinned &= traced.pinned;
    for (name, m) in traced.metrics {
        if metrics::end_to_end(&name).is_none() {
            r.metrics.insert(name, m);
        }
    }
}

fn run_layers(exe: &Path, o: &Options) -> Result<MetricMap, String> {
    let mut all = MetricMap::new();
    for (part, pin) in [("pinned", true), ("wide", false)] {
        let mut args = vec!["layers".to_string(), "--part".into(), part.into()];
        args.extend(common_args(o));
        let value = spawn(exe, &args, pin)?;
        all.extend(metrics::metrics_from_value(&value).ok_or("the layer metrics are incomplete")?);
    }
    Ok(all)
}

fn print_metrics(metrics: &MetricMap) {
    for (name, m) in metrics {
        let mut line = format!("  {name:<48} {:>16.4} {:<6}", m.value, m.unit);
        if let Some(s) = &m.summary {
            line.push_str(&format!(
                " n={} min={:.4} q1={:.4} q3={:.4} max={:.4}",
                s.n, s.min, s.q1, s.q3, s.max
            ));
        }
        if let Some(note) = &m.note {
            line.push_str(&format!(" ({note})"));
        }
        println!("{line}");
    }
}

fn print_workload(r: &WorkloadResult) {
    println!(
        "== {} == seed {} · {} repetitions · {} · {} operations, {} failed, {} verdict mismatches",
        r.workload,
        r.seed,
        r.repetitions,
        if r.pinned { "pinned to one CPU" } else { "unpinned" },
        r.attempted,
        r.failed,
        r.verdict_mismatches
    );
    for f in &r.findings {
        println!("  FINDING: {f}");
    }
    print_metrics(&r.metrics);
}

/// The serve workloads are only comparable when the process was confined to
/// one CPU; otherwise the numbers depend on where the scheduler put the
/// threads, and the report says so instead of passing them off as results.
fn mark_unresolved_if_unpinned(kind: Kind, r: &mut WorkloadResult) {
    if kind.pinned() && !r.pinned {
        for m in r.metrics.values_mut() {
            let note = m.note.take().map_or(String::new(), |n| format!("; {n}"));
            m.note = Some(format!("unresolved: measured unpinned{note}"));
        }
    }
}

fn results_file(
    o: &Options,
    results: &[WorkloadResult],
    layer_metrics: &Option<MetricMap>,
) -> Value {
    let mut top = vec![
        ("schema".to_string(), Value::UInt(1)),
        ("host".to_string(), host::fingerprint(o.seed, o.seconds, o.quick)),
        ("workloads".to_string(), Value::Seq(results.iter().map(|r| r.to_value()).collect())),
    ];
    if let Some(l) = layer_metrics {
        top.push(("layers".to_string(), metrics::metrics_to_value(l)));
    }
    Value::Map(top)
}

/// The driver's result object: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (untraced) or every per-layer metric (traced).
fn contract_line(r: &WorkloadResult, traced: bool, all: &MetricMap) -> Result<Value, String> {
    let metrics = if traced {
        metrics::contract_metrics(layers::PER_LAYER.iter().map(|(name, _)| *name), all)?
    } else {
        metrics::contract_metrics(
            metrics::END_TO_END.iter().filter(|d| d.declared).map(|d| d.name),
            all,
        )?
    };
    Ok(Value::Map(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::UInt(r.attempted.max(1))),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), metrics),
    ]))
}

fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let kinds = o.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    // Asked for one workload traced (the driver's form), the traced child is
    // the whole run. A traced run of everything measures each workload end
    // to end for the full time first, tracing off, and traces it afterwards.
    let traced_only = o.trace && o.workload.is_some();
    let mut results = Vec::new();
    for &kind in &kinds {
        let mut r = run_workload(&exe, kind, o, traced_only)?;
        if o.trace && !traced_only {
            absorb_traced(&mut r, run_workload(&exe, kind, o, true)?);
        }
        print_workload(&r);
        results.push(r);
    }
    let layer_metrics = if o.trace {
        let l = run_layers(&exe, o)?;
        println!("== layers ==");
        print_metrics(&l);
        Some(l)
    } else {
        None
    };
    let correct = results.iter().all(|r| r.correct());

    let out: Option<PathBuf> = match (&o.out, o.workload) {
        (Some(path), _) => Some(PathBuf::from(path)),
        (None, None) => Some(Path::new(RESULTS_DIR).join("latest.json")),
        (None, Some(_)) => None,
    };
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&results_file(o, &results, &layer_metrics))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    if let (Some(_), [r]) = (o.workload, &results[..]) {
        // Layer probes first, so a workload's own traced figures (its paced
        // generator, its tracing overhead) take precedence over the probes'.
        let mut all = layer_metrics.unwrap_or_default();
        all.extend(r.metrics.clone());
        // The driver wants every declared metric from every workload. A batch
        // job has no rounds: its event→verdict latency is the job itself,
        // input to checked verdict. (The results file keeps to "a metric that
        // does not apply is absent".)
        if let Some(wall) = r.metrics.get("job_wall_s") {
            all.insert(
                "verdict_latency_p50_us".into(),
                metrics::Measured::plain(wall.value * 1e6, "us"),
            );
        }
        all.insert(
            "loadgen.pinned".into(),
            metrics::Measured::plain(f64::from(u8::from(r.pinned)), "bool"),
        );
        print_json_line(&contract_line(r, o.trace, &all)?);
    }
    Ok(correct)
}

/// Entry of the parent process.
pub fn run_main(o: &Options) -> ExitCode {
    match run_all(o) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed operations or verdict mismatches; see FINDING lines");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
