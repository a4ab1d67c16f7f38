//! The repo's benchmark. See `benchmark/README.md` for what it measures and
//! why; `benchmark/run.sh` builds and runs it.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! benchmark compare BASELINE.json CANDIDATE.json
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh child process,
//! and one results file is written. With it, the last line of standard
//! output is the driver's result object for that workload.

mod child;
mod compare;
mod host;
mod inputs;
mod layers;
mod metrics;
mod orchestrate;
mod serve_load;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::Kind;

/// Seconds one workload measures for unless `--seconds` says otherwise; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 0.5;
const DEFAULT_SEED: u64 = 11;

/// Options shared by the orchestrator and its children.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
    /// `layers` child only: which half of the layer probes to run.
    pub part: Option<String>,
}

impl Options {
    pub fn sizes(&self) -> &'static inputs::Sizes {
        if self.quick {
            &inputs::QUICK
        } else {
            &inputs::FULL
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        trace: false,
        quick: false,
        out: None,
        part: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1` is the driver's form; a bare `--trace` means 1.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value("--out")?),
            "--part" => o.part = Some(value("--part")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.seconds.is_nan() {
        o.seconds = if o.quick { QUICK_SECONDS } else { DEFAULT_SECONDS };
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", o.seconds));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("child" | "layers" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    if command == "compare" {
        return compare::main(rest);
    }
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "child" => orchestrate::child_main(&options),
        "layers" => orchestrate::layers_main(&options),
        _ => orchestrate::run_main(&options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let o =
            parse(&["--workload", "serve_paced", "--seed", "7", "--seconds", "15", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Kind::ServePaced), 7, 15.0, true)
        );
        let o = parse(&["--trace", "0", "--quick"]).unwrap();
        assert!(!o.trace && o.quick && o.seconds == QUICK_SECONDS);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }
}
