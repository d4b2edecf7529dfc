//! # lint — the workspace invariant linter
//!
//! A from-scratch, offline static-analysis gate (no `syn`, no `clippy`
//! plumbing: a hand-rolled comment/string/raw-string-aware Rust lexer
//! plus a small rule engine) that enforces the repo's correctness
//! invariants at build time instead of test time:
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1 `determinism` | no wall-clock / ambient-RNG / env reads outside bench, `src/main.rs`, tests |
//! | R2 `ordered-serialization` | no `HashMap`/`HashSet` fields in `Serialize` types |
//! | R3 `persist-parity` | every serde-skipped field on report-reachable types round-trips through `analysis::persist` |
//! | R4 `panic-hygiene` | no `unwrap`/`expect`/`panic!`/`todo!` in crawl/browser/store non-test code |
//! | R5 `journal-format` | `crates/store` journal constants match DESIGN.md §8 |
//! | R6 `lock-order` | no cycles in the may-hold-while-acquiring graph (interprocedural) |
//! | R7 `blocking-under-lock` | no guard live across a transitively blocking call (CFG block-scoped liveness) |
//! | R8 `seed-taint` | RNG seed state flows only from the CLI seed / `PopulationConfig` |
//! | R9 `hot-path-allocation` | no avoidable allocation in functions reachable from the per-visit roots |
//! | R10 `unbounded-growth` | collections on long-lived structs must shrink somewhere |
//! | R11 `swallowed-io-errors` | IO `Result`s are handled or propagated, never discarded |
//! | R12 `test-only-api` | every `pub fn` of a library crate has a production use, not only test callers |
//!
//! Each rule is suppressible inline with `// lint:allow(rule) — reason`
//! (the reason is mandatory); a directive that silences nothing is itself
//! a finding. [`run`] is one serial pass over the tree. See DESIGN.md §10
//! for the policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod source;

pub use engine::{run, Report};
pub use rules::{Finding, Rule, Workspace, RULES};
