//! Strict command-line reading for the harness binaries.
//!
//! Arguments are read left to right. An unknown `--flag`, a flag without
//! its value, a value that does not parse, or a stray positional argument
//! prints the message and the binary's usage to stderr and exits with
//! code 2 — a mistyped flag never quietly runs a default configuration.

use std::str::FromStr;

/// One binary's arguments (program name excluded) and its usage text.
pub struct Args {
    args: Vec<String>,
    next: usize,
    usage: &'static str,
}

impl Args {
    /// The process's own arguments.
    pub fn from_env(usage: &'static str) -> Self {
        Args { args: std::env::args().skip(1).collect(), next: 0, usage }
    }

    /// The next argument, or `None` once all are read.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.get(self.next).cloned();
        self.next += 1;
        arg
    }

    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.next_arg() {
            Some(v) if !v.starts_with("--") => v,
            _ => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The value that follows `flag`, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse().unwrap_or_else(|_| self.fail(&format!("bad {flag} {v}")))
    }

    /// Every argument up to the next `--flag`, each split at commas, for
    /// list-valued flags: `--only e9 e11`, `--only e9,e11`, `--only e9, e11`.
    pub fn list(&mut self, flag: &str) -> Vec<String> {
        let mut items = Vec::new();
        while let Some(arg) = self.args.get(self.next).filter(|a| !a.starts_with("--")) {
            items.extend(arg.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from));
            self.next += 1;
        }
        if items.is_empty() {
            self.fail(&format!("{flag} needs a value"));
        }
        items
    }

    /// Reject the command line: `msg` and the usage to stderr, exit code 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }
}
