//! Workspace scanning: which files the linter reads, and the per-file
//! facts every rule needs — the token stream, the `#[cfg(test)]` regions,
//! and the `lint:allow` suppression directives.

use crate::lexer::{self, Comment, Lexed, Token, TokenKind};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `tests`, `benches` and
/// `examples` hold test/demo code outside every rule's scope; `fixtures`
/// keeps the linter's own known-bad corpus from failing the real tree;
/// `vendor` and `target` are not ours to lint.
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "vendor", "target",
];

/// One scanned source file with everything the rules pattern-match over.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Lexed code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (suppressions live here).
    pub comments: Vec<Comment>,
    /// Valid suppression directives parsed from the comments.
    pub suppressions: Vec<Suppression>,
    /// `lint:allow` directives that are malformed (no reason, unknown
    /// rule); each is a finding in its own right.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    /// The whole file is test code: a `#[cfg(test)] mod x;` includes it
    /// ([`mark_test_modules`]).
    test_file: bool,
}

/// A well-formed `// lint:allow(rule, …) — reason` directive.
#[derive(Debug)]
pub struct Suppression {
    /// Rules the directive names.
    pub rules: Vec<String>,
    /// Lines the directive covers: its own line(s) and the next line, so
    /// it works both as a trailing comment and on the line above.
    pub lines: (u32, u32),
}

/// A malformed suppression and why it is rejected.
#[derive(Debug)]
pub struct BadSuppression {
    /// Line of the directive.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

impl SourceFile {
    /// Parse one file's text into the rule-facing model.
    pub fn parse(path: String, text: &str, known_rules: &[&str]) -> SourceFile {
        let Lexed { tokens, comments } = lexer::lex(text);
        let test_regions = find_test_regions(&tokens);
        let mut suppressions = Vec::new();
        let mut bad_suppressions = Vec::new();
        for comment in &comments {
            parse_suppressions(
                comment,
                known_rules,
                &mut suppressions,
                &mut bad_suppressions,
            );
        }
        SourceFile {
            path,
            tokens,
            comments,
            suppressions,
            bad_suppressions,
            test_regions,
            test_file: false,
        }
    }

    /// Is the token at `idx` inside a `#[cfg(test)]` item, or the whole
    /// file test code?
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| (start..=end).contains(&idx))
    }

    /// The paths of the files this file's test-code `mod x;` declarations
    /// include: `x.rs` or `x/mod.rs` in the directory of this module's
    /// children (the file's own directory for `lib.rs`, `main.rs` and
    /// `mod.rs`, else a directory named after the file).
    fn test_module_paths(&self) -> Vec<String> {
        let (dir, name) = self.path.rsplit_once('/').unwrap_or(("", &self.path));
        let dir = match name.strip_suffix(".rs") {
            Some("lib" | "main" | "mod") | None => format!("{dir}/"),
            Some(stem) => format!("{dir}/{stem}/"),
        };
        let tokens = &self.tokens;
        let mut out = Vec::new();
        for (k, w) in tokens.windows(3).enumerate() {
            if w[0].is_ident("mod")
                && w[1].kind == TokenKind::Ident
                && w[2].is_punct(';')
                && self.in_test_region(k)
            {
                out.push(format!("{dir}{}.rs", w[1].text));
                out.push(format!("{dir}{}/mod.rs", w[1].text));
            }
        }
        out
    }
}

/// Mark each file that a test-code `mod x;` declaration includes as test
/// code throughout — a `#[cfg(test)] mod samples;` makes all of
/// `samples.rs` test code — and so on through the modules such a file
/// declares in turn.
pub fn mark_test_modules(files: &mut [SourceFile]) {
    let index: BTreeMap<String, usize> = (files.iter().enumerate())
        .map(|(i, f)| (f.path.clone(), i))
        .collect();
    let mut queue: Vec<usize> = (0..files.len()).collect();
    while let Some(i) = queue.pop() {
        for path in files[i].test_module_paths() {
            if let Some(&child) = index.get(&path) {
                if !files[child].test_file {
                    files[child].test_file = true;
                    queue.push(child);
                }
            }
        }
    }
}

impl Suppression {
    /// Does the directive cover `line` and name `rule`? Rule names are
    /// matched case-insensitively so `lint:allow(r9)` and
    /// `lint:allow(R9)` are the same directive.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        (self.lines.0..=self.lines.1).contains(&line)
            && self.rules.iter().any(|r| r.eq_ignore_ascii_case(rule))
    }
}

/// Parse a suppression directive from one comment. The grammar:
///
/// ```text
/// // lint:allow(rule[, rule…]) — reason text
/// ```
///
/// The directive must be a plain `//` or `/* */` comment (doc comments
/// document APIs, they cannot suppress) and must *start* the comment, so
/// prose that merely mentions the syntax is never parsed as a directive.
/// The reason is mandatory (a suppression that does not say *why* is an
/// error, not a suppression) and `—`, `-`, or `:` may introduce it.
fn parse_suppressions(
    comment: &Comment,
    known_rules: &[&str],
    ok: &mut Vec<Suppression>,
    bad: &mut Vec<BadSuppression>,
) {
    let body = if let Some(line) = comment.text.strip_prefix("//") {
        // `///` and `//!` are doc comments.
        if line.starts_with('/') || line.starts_with('!') {
            return;
        }
        line
    } else if let Some(block) = comment.text.strip_prefix("/*") {
        // `/**` and `/*!` are doc comments.
        if block.starts_with('*') || block.starts_with('!') {
            return;
        }
        block
    } else {
        return;
    };
    let rest = body.trim_start();
    let Some(rest) = rest.strip_prefix("lint:allow") else {
        return;
    };
    let Some(open) = rest.strip_prefix('(') else {
        bad.push(BadSuppression {
            line: comment.line,
            message: "lint:allow must be followed by a parenthesized rule list".to_string(),
        });
        return;
    };
    let Some(close) = open.find(')') else {
        bad.push(BadSuppression {
            line: comment.line,
            message: "unclosed rule list in lint:allow(...)".to_string(),
        });
        return;
    };
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        bad.push(BadSuppression {
            line: comment.line,
            message: "lint:allow names no rule".to_string(),
        });
        return;
    }
    if let Some(unknown) = rules
        .iter()
        .find(|r| !known_rules.iter().any(|k| k.eq_ignore_ascii_case(r)))
    {
        bad.push(BadSuppression {
            line: comment.line,
            message: format!("lint:allow names unknown rule `{unknown}`"),
        });
        return;
    }
    // Reason: the remainder of the comment after the rule list, with the
    // introducing dash/colon stripped, must contain a word. `*/` tails of
    // block comments do not count.
    let reason = open[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim_end_matches(['*', '/', ' ', '\t', '\n']);
    if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
        bad.push(BadSuppression {
            line: comment.line,
            message: format!(
                "lint:allow({}) has no reason — write `lint:allow(rule) — why`",
                rules.join(", ")
            ),
        });
        return;
    }
    ok.push(Suppression {
        rules,
        lines: (comment.line, comment.end_line + 1),
    });
}

/// Find token-index ranges belonging to `#[cfg(test)]` (or `#[test]`)
/// items: the attribute, any further attributes, and the item's body up
/// to its matching close brace (or terminating `;`).
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (content_start, attr_end) = match attr_span(tokens, i) {
            Some(span) => span,
            None => break, // unterminated attribute at EOF
        };
        if !attr_is_test(&tokens[content_start..attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match attr_span(tokens, j) {
                Some((_, end)) => j = end + 1,
                None => return regions,
            }
        }
        // The item runs to its first top-level `;` or the brace block that
        // starts at its first top-level `{`.
        let mut depth_paren = 0i32;
        let mut end = j;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct('(') || t.is_punct('[') {
                depth_paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth_paren -= 1;
            } else if depth_paren == 0 && t.is_punct(';') {
                break;
            } else if depth_paren == 0 && t.is_punct('{') {
                end = match_brace(tokens, end);
                break;
            }
            end += 1;
        }
        regions.push((attr_start, end.min(tokens.len().saturating_sub(1))));
        i = end + 1;
    }
    regions
}

/// Given `tokens[open]` == `#` and `tokens[open+1]` == `[`, return the
/// token range of the attribute content and the index of the closing `]`.
fn attr_span(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < tokens.len() {
        if tokens[k].is_punct('[') {
            depth += 1;
        } else if tokens[k].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 2, k));
            }
        }
        k += 1;
    }
    None
}

/// Is this attribute content `cfg(test)`-like (`cfg` whose arguments
/// mention `test`) or a bare `#[test]`?
fn attr_is_test(content: &[Token]) -> bool {
    match content.first() {
        Some(t) if t.is_ident("test") && content.len() == 1 => true,
        Some(t) if t.is_ident("cfg") => content.iter().skip(1).any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token when
/// unbalanced).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Recursively collect the `.rs` files the linter scans: `src/**` at the
/// workspace root and under every `crates/*`, skipping `SKIP_DIRS`.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                walk(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The `.rs` files read for their call sites only, which no rule checks:
/// the root package's examples and the benchmark's sources.
pub fn collect_caller_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in ["examples", "perfbench/src"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    Ok(out)
}

/// The manifests that scope call resolution: the root `Cargo.toml` and
/// every `crates/*/Cargo.toml`, in path order.
pub fn collect_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("Cargo.toml"))
        .chain([root.join("Cargo.toml")])
        .filter(|p| p.is_file())
        .collect();
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render `path` relative to `root` with `/` separators.
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(
            "test.rs".to_string(),
            src,
            &["determinism", "panic-hygiene"],
        )
    }

    #[test]
    fn cfg_test_module_region_is_detected() {
        let src = "fn live() { before(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { inside(); }\n\
                   }\n\
                   fn after() { outside(); }";
        let f = parse(src);
        let inside = f.tokens.iter().position(|t| t.is_ident("inside")).unwrap();
        let before = f.tokens.iter().position(|t| t.is_ident("before")).unwrap();
        let outside = f.tokens.iter().position(|t| t.is_ident("outside")).unwrap();
        assert!(f.in_test_region(inside));
        assert!(!f.in_test_region(before));
        assert!(!f.in_test_region(outside));
    }

    #[test]
    fn cfg_test_with_extra_attributes_and_test_fns() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() { a(); } }\n\
                   #[test]\nfn unit() { b(); }\nfn live() { c(); }";
        let f = parse(src);
        let a = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let b = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        let c = f.tokens.iter().position(|t| t.is_ident("c")).unwrap();
        assert!(f.in_test_region(a));
        assert!(f.in_test_region(b));
        assert!(!f.in_test_region(c));
    }

    #[test]
    fn cfg_all_test_counts_as_test_region() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn x() { a(); } }";
        let f = parse(src);
        let a = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        assert!(f.in_test_region(a));
    }

    #[test]
    fn a_cfg_test_mod_declaration_makes_its_file_test_code() {
        let file = |path: &str, src: &str| SourceFile::parse(path.to_string(), src, &[]);
        let mut files = vec![
            file("src/lib.rs", "mod live;\n#[cfg(test)]\nmod samples;"),
            file("src/live.rs", "fn a() {}"),
            file("src/samples.rs", "fn b() {}\nmod nested;"),
            file("src/samples/nested/mod.rs", "fn c() {}"),
        ];
        mark_test_modules(&mut files);
        let test: Vec<bool> = files.iter().map(|f| f.in_test_region(0)).collect();
        assert_eq!(test, [false, false, true, true]);
    }

    #[test]
    fn suppression_with_reason_covers_its_line_and_the_next() {
        let src = "// lint:allow(determinism) — wall-clock metrics only\nlet t = now();";
        let f = parse(src);
        assert!(f.bad_suppressions.is_empty());
        let [s] = &f.suppressions[..] else {
            panic!("one directive")
        };
        assert!(s.covers("determinism", 1));
        assert!(s.covers("DETERMINISM", 2));
        assert!(!s.covers("determinism", 3));
        assert!(!s.covers("panic-hygiene", 2));
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        let src = "// lint:allow(determinism)\nlet t = now();";
        let f = parse(src);
        assert_eq!(f.suppressions.len(), 0);
        assert_eq!(f.bad_suppressions.len(), 1);
        assert!(f.bad_suppressions[0].message.contains("no reason"));
    }

    #[test]
    fn suppression_with_unknown_rule_is_rejected() {
        let src = "// lint:allow(made-up) — because\nx();";
        let f = parse(src);
        assert!(f.suppressions.is_empty());
        assert!(f.bad_suppressions[0].message.contains("unknown rule"));
    }

    #[test]
    fn multi_rule_suppression_parses() {
        let src = "stmt(); // lint:allow(determinism, panic-hygiene): intentional here\n";
        let f = parse(src);
        assert!(f.bad_suppressions.is_empty());
        let [s] = &f.suppressions[..] else {
            panic!("one directive")
        };
        assert!(s.covers("determinism", 1));
        assert!(s.covers("panic-hygiene", 1));
    }
}
