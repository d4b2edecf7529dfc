//! R1 `determinism`: the measurement pipeline must be a pure function of
//! its seeds. Wall-clock reads (`SystemTime::now`, `Instant::now`),
//! ambient randomness (`thread_rng`), and process-environment reads
//! (`std::env::…`) are banned everywhere except the CLI entry point
//! `src/main.rs` (flags and exit paths) and `#[cfg(test)]` code.

use super::{match_path, Finding, Rule, Workspace};

/// `std::env` accessors that leak ambient process state into a run.
const ENV_READS: &[&str] = &[
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
    "current_exe",
    "home_dir",
    "set_var",
    "remove_var",
];

/// R1: offline determinism.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn code(&self) -> &'static str {
        "R1"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if file.path == "src/main.rs" {
                continue;
            }
            let tokens = &file.tokens;
            let mut i = 0;
            while i < tokens.len() {
                if file.in_test_region(i) {
                    i += 1;
                    continue;
                }
                let hit: Option<(usize, String)> =
                    if let Some(n) = match_path(tokens, i, &["SystemTime", "now"]) {
                        Some((n, "SystemTime::now".to_string()))
                    } else if let Some(n) = match_path(tokens, i, &["Instant", "now"]) {
                        Some((n, "Instant::now".to_string()))
                    } else if tokens[i].is_ident("thread_rng") {
                        Some((1, "thread_rng".to_string()))
                    } else if let Some((n, f)) = env_read(tokens, i) {
                        Some((n, f))
                    } else {
                        None
                    };
                match hit {
                    Some((n, what)) => {
                        out.push(Finding {
                            rule: self.name(),
                            path: file.path.clone(),
                            line: tokens[i].line,
                            col: tokens[i].col,
                            message: format!(
                                "call to `{what}` — wall-clock, ambient RNG, and process-environment \
                                 reads are banned outside `src/main.rs` and `#[cfg(test)]` code \
                                 (use the seeded/virtual equivalents)"
                            ),
                        });
                        i += n;
                    }
                    None => i += 1,
                }
            }
        }
    }
}

/// Match `std::env::<read>` or a bare `env::<read>` (from `use std::env`).
/// The bare form must not be the tail of a longer path (`std::env::var`
/// matches once, at `std`).
fn env_read(tokens: &[crate::lexer::Token], i: usize) -> Option<(usize, String)> {
    for read in ENV_READS {
        if let Some(n) = match_path(tokens, i, &["std", "env", read]) {
            return Some((n, format!("std::env::{read}")));
        }
    }
    if i > 0 && tokens[i - 1].is_punct(':') {
        return None;
    }
    for read in ENV_READS {
        if let Some(n) = match_path(tokens, i, &["env", read]) {
            return Some((n, format!("env::{read}")));
        }
    }
    None
}
