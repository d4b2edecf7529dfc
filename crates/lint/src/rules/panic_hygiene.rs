//! R4 `panic-hygiene`: the crawl orchestrator, the browser, and the
//! persistent store must degrade, not die — a panic in one worker is
//! contained by `catch_unwind`, but that containment is a backstop, not a
//! license to write panicking code. `unwrap` / `expect` / `panic!` /
//! `todo!` / `unimplemented!` are banned in those modules' non-test code;
//! return an error or record the failure instead.

use super::{Finding, Rule, Workspace};

/// Modules under the no-panic contract: path prefixes and exact files.
const SCOPE_PREFIXES: &[&str] = &["crates/browser/src/", "crates/store/src/"];
const SCOPE_FILES: &[&str] = &["crates/analysis/src/crawl.rs"];

/// R4: no panics in crawl/browser/store code.
pub struct PanicHygiene;

impl Rule for PanicHygiene {
    fn name(&self) -> &'static str {
        "panic-hygiene"
    }

    fn code(&self) -> &'static str {
        "R4"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let in_scope = SCOPE_PREFIXES.iter().any(|p| file.path.starts_with(p))
                || SCOPE_FILES.contains(&file.path.as_str());
            if !in_scope {
                continue;
            }
            let tokens = &file.tokens;
            for (i, tok) in tokens.iter().enumerate() {
                if file.in_test_region(i) {
                    continue;
                }
                let what = if (tok.is_ident("unwrap") || tok.is_ident("expect"))
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    format!(".{}(…)", tok.text)
                } else if (tok.is_ident("panic")
                    || tok.is_ident("todo")
                    || tok.is_ident("unimplemented"))
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
                {
                    format!("{}!", tok.text)
                } else {
                    continue;
                };
                out.push(Finding {
                    rule: self.name(),
                    path: file.path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{what}` in crawl/browser/store non-test code — these modules must \
                         degrade instead of panicking (catch_unwind is a backstop, not a \
                         license); return or record the failure"
                    ),
                });
            }
        }
    }
}
