//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p lint --                      # lint this workspace
//! cargo run -p lint -- --root DIR           # lint another tree (fixtures)
//! cargo run -p lint -- --list-rules         # what the rules enforce
//! cargo run -p lint -- --format json        # machine-readable findings
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error.

#![allow(clippy::disallowed_methods, reason = "the CLI reads its flags")]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo run -p lint -- [--root DIR] [--format text|json] [--list-rules] [--help]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format needs `text` or `json`"),
            },
            "--list-rules" => {
                for rule in lint::RULES {
                    println!("{:<4} {}", rule.code(), rule.name());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    match lint::run(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&format!("scanning {}: {e}", root.display())),
    }
}

/// Default to the workspace this binary was built from: the linter runs
/// from any cwd under `cargo run -p lint` because the manifest dir is
/// baked in at compile time.
fn find_workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn usage(error: &str) -> ExitCode {
    eprintln!("lint: {error}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("lint: {message}");
    ExitCode::from(2)
}
