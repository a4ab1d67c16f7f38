//! The host side of a run: CPU pinning through `taskset`, memory high-water
//! marks from `/proc`, and the fingerprint stored with every results file.

use std::process::Command;

use serde_json::Value;

fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim_start_matches(':').trim().to_string())
}

fn proc_status_kb(field: &str) -> Option<f64> {
    proc_status(field)?.trim_end_matches("kB").trim().parse().ok()
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM").map(|kb| kb / 1024.0)
}

/// `VmRSS` of this process in bytes.
pub fn rss_bytes() -> Option<f64> {
    proc_status_kb("VmRSS").map(|kb| kb * 1024.0)
}

/// Parse a kernel CPU list such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    proc_status("Cpus_allowed_list").map(|l| parse_cpu_list(&l)).unwrap_or_default()
}

/// True when this process is confined to exactly one CPU.
pub fn is_pinned() -> bool {
    allowed_cpus().len() == 1
}

/// `taskset -c <cpu> <exe>`, on the last CPU this process may use (the one
/// least likely to take the host's interrupts). `None` when the CPU set is
/// unknown or `taskset` cannot pin a process here.
pub fn pinned_command(exe: &std::path::Path) -> Option<Command> {
    let cpu = allowed_cpus().last()?.to_string();
    let works = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !works {
        return None;
    }
    let mut cmd = Command::new("taskset");
    cmd.arg("-c").arg(cpu).arg(exe);
    Some(cmd)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to know about where the numbers were taken.
pub fn fingerprint(seed: u64, seconds: f64, quick: bool) -> Value {
    let cpus = allowed_cpus();
    Value::Map(vec![
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu_set".into(), Value::Seq(cpus.iter().map(|&c| Value::UInt(c as u64)).collect())),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["--version"]))),
        ("git_commit".into(), Value::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
        (
            "build_profile".into(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("quick".into(), Value::Bool(quick)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3, 7"), vec![0, 2, 3, 7]);
        assert_eq!(parse_cpu_list("1"), vec![1]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn this_process_has_a_memory_high_water_mark() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
