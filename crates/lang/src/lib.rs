//! `psn-lang` — a declarative scenario language for the pervasive-time
//! workspace.
//!
//! One `.psn` file describes a complete experiment: the world (one of
//! the parameterized generators — office, exhibition, hospital, habitat,
//! structure), the network (delay/loss/FIFO), clock hardware and strobe
//! policy, the run setup (shards, detection discipline),
//! named predicates (relational or conjunctive), and a fault script
//! (explicit entries and/or a seeded chaos block). The pipeline is
//! classic and dependency-free:
//!
//! ```text
//! source ──lex──▶ tokens ──parse──▶ ScenarioDef ──compile──▶ CompiledScenario
//!                                    (typed AST)              { Scenario,
//!   every stage reports Diagnostics with line:col               ExecutionConfig,
//!   spans, rendered with a source excerpt + caret               Predicates }
//! ```
//!
//! ```
//! let src = r#"scenario "demo" {
//!     seed 7
//!     world exhibition { doors 3 duration 120s capacity 40 }
//!     network { delay uniform 20ms..200ms }
//!     predicate "crowded" relational {
//!         sum(d in 0..doors)(door[d].x - door[d].y) > capacity
//!     }
//! }"#;
//! let compiled = psn_lang::compile(src).expect("valid scenario");
//! assert_eq!(compiled.scenario.num_processes(), 3);
//! ```
//!
//! [`generate::sample_source`] draws valid scenarios from the grammar for
//! seeded soak testing (`chaos --grammar`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod compile;
mod diag;
pub mod generate;
pub mod lexer;
pub mod parser;

pub use compile::{check, compile, CompiledPredicate, CompiledScenario};
pub use diag::{render, Diagnostic, Span, Spanned};
pub use generate::sample_source;
pub use parser::parse;
