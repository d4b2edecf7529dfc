//! The linter driver: scan a workspace root, run every rule, apply the
//! `lint:allow` suppressions, and render the report. A valid `lint:allow`
//! that silences no finding of any rule it names is stale, and is
//! reported as a failing `suppression` finding.
//!
//! One serial pass: parse every file, mark the files a `#[cfg(test)] mod`
//! includes as test code, build the call graph, run every rule, then
//! silence the findings against each file's directives. Findings are
//! sorted at the end, so the report is byte-identical from run to run.

use crate::callgraph::{Crates, Model};
use crate::rules::{suppressible_names, Finding, Workspace, RULES};
use crate::source::{self, SourceFile};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of one lint run.
pub struct Report {
    /// Findings no directive silenced, sorted by (path, line, rule,
    /// message). Every one fails the run.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by valid `lint:allow` directives.
    pub suppressed: usize,
}

impl Report {
    /// Human-readable report: one line per finding plus a summary. The
    /// format is pinned by the golden test — change it deliberately.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "lint: {} failing, {} suppressed across {} files\n",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable report. The schema is stable (CI and editors
    /// depend on it): a top-level object with `findings` (each carrying
    /// `rule`, `code`, `path`, `line`, `span.col`, `message`) and
    /// `summary` counts. `line` and `span.col` are 1-based; synthetic
    /// findings (malformed or unused suppressions) anchor at column 1.
    /// Suppressed findings never appear; every listed finding fails.
    pub fn render_json(&self) -> String {
        let code_of = |rule: &str| {
            RULES
                .iter()
                .find(|r| r.name() == rule)
                .map(|r| r.code())
                .unwrap_or("")
        };
        let mut out = String::from("{\n  \"findings\": [");
        for (n, f) in self.findings.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"code\": {}, \"path\": {}, \"line\": {}, \
                 \"span\": {{\"col\": {}}}, \"message\": {}}}",
                json_str(f.rule),
                json_str(code_of(f.rule)),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message),
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"summary\": {{\"failing\": {}, \"suppressed\": {}, \"files_scanned\": {}}}\n}}",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the linter is zero-dependency by design, so no serde here.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse each of `paths` under its workspace-relative name.
fn parse_files(root: &Path, paths: &[PathBuf], known: &[&str]) -> io::Result<Vec<SourceFile>> {
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)?;
            Ok(SourceFile::parse(
                source::relative_path(root, path),
                &text,
                known,
            ))
        })
        .collect()
}

/// Run every rule over the workspace at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let known = suppressible_names();
    let mut files = parse_files(root, &source::collect_files(root)?, &known)?;
    source::mark_test_modules(&mut files);
    let callers = parse_files(root, &source::collect_caller_files(root)?, &known)?;
    let manifests = source::collect_manifests(root)
        .iter()
        .map(|path| {
            let rel = source::relative_path(root, path);
            let name = rel.strip_prefix("crates/").unwrap_or("");
            let name = name.strip_suffix("/Cargo.toml").unwrap_or(name);
            Ok((name.to_string(), fs::read_to_string(path)?))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let model = Model::build(&files, Crates::new(&manifests));
    let ws = Workspace {
        files,
        callers,
        design: fs::read_to_string(root.join("DESIGN.md")).ok(),
        model,
    };
    let mut raw = Vec::new();
    for rule in RULES {
        rule.check(&ws, &mut raw);
    }

    // Silence each finding against the directives of its file, noting
    // which directives silenced something.
    let index: BTreeMap<&str, usize> = (ws.files.iter().enumerate())
        .map(|(i, file)| (file.path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = (ws.files.iter())
        .map(|file| vec![false; file.suppressions.len()])
        .collect();
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        match index.get(f.path.as_str()) {
            Some(&i) if silence(&ws.files[i], &f, &mut used[i]) => suppressed += 1,
            _ => findings.push(f),
        }
    }
    for (file, used) in ws.files.iter().zip(&used) {
        suppression_findings(file, used, &mut findings);
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
        suppressed,
    })
}

/// Is the finding silenced by a valid `lint:allow` on its line that names
/// its rule (by name or R-code)? Every such directive is marked `used`.
fn silence(file: &SourceFile, f: &Finding, used: &mut [bool]) -> bool {
    let code = RULES
        .iter()
        .find(|r| r.name() == f.rule)
        .map(|r| r.code())
        .unwrap_or("");
    let mut silenced = false;
    for (s, used) in file.suppressions.iter().zip(used) {
        if s.covers(f.rule, f.line) || s.covers(code, f.line) {
            *used = true;
            silenced = true;
        }
    }
    silenced
}

/// The `suppression` findings of `file`: its malformed directives, and
/// each valid one that silenced no finding of any rule it names, which
/// can only hide a future finding nobody has reviewed.
fn suppression_findings(file: &SourceFile, used: &[bool], out: &mut Vec<Finding>) {
    // Synthetic findings anchor at line start; col is 1-based.
    for bad in &file.bad_suppressions {
        out.push(Finding {
            rule: "suppression",
            path: file.path.clone(),
            line: bad.line,
            col: 1,
            message: bad.message.clone(),
        });
    }
    for (s, _) in (file.suppressions.iter().zip(used)).filter(|(_, used)| !**used) {
        out.push(Finding {
            rule: "suppression",
            path: file.path.clone(),
            line: s.lines.0,
            col: 1,
            message: format!(
                "lint:allow({}) silences no finding of the rules it names — delete it",
                s.rules.join(", ")
            ),
        });
    }
}
