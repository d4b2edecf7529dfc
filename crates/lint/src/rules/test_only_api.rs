//! R12 `test-only-api`: no public function, and no public field, that
//! only tests use.
//!
//! A plain `pub fn` in a library crate under `crates/` that has a
//! manifest must have a production use: a call, or a path naming it as a
//! value (`map(Tally::total)`), in non-test code. Production code is every
//! scanned file plus the caller-only files (`examples/`, `perfbench/src`);
//! `#[cfg(test)]` code never counts and `tests/` directories are never
//! read. A use inside the function's own body does not count either.
//!
//! A plain `pub` field of a plain `pub struct` in such a crate must be
//! read by production code: a `.field` access that is not the target of
//! a plain assignment, a destructuring pattern naming the struct, or a
//! `#[derive(Serialize)]` on the struct (a report serializes every field
//! it does not skip). A struct literal writes a field and a `Debug` or
//! `Clone` derive only copies it, so neither counts. A `.field` access
//! counts for every visible struct with a field of that name.
//!
//! Uses match by name within the call graph's crate scope:
//!
//! * `.name(…)` counts for the methods its call site resolves to, or for
//!   every visible method of that name when the site is unresolved (a
//!   call-chain receiver, or a caller-only file, which the graph does not
//!   model);
//! * `Type::name` counts for `Type`'s function, `Self::name` for the
//!   same-named methods of the same crate, and `module::name` or a bare
//!   `name` for free functions.
//!
//! Every approximation errs towards a use — a local sharing a free
//! function's name keeps that function — so a finding is a function no
//! production path can reach by name.

use crate::callgraph::{CallTarget, FnId, Scope};
use crate::items;
use crate::lexer::{Token, TokenKind};
use crate::parser::match_delim;
use crate::rules::{Finding, Rule, Workspace};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// R12: public API that only tests call.
pub struct TestOnlyApi;

impl Rule for TestOnlyApi {
    fn name(&self) -> &'static str {
        "test-only-api"
    }

    fn code(&self) -> &'static str {
        "R12"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let model = &ws.model;
        let scope = &model.scope;
        let mut candidates: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, f) in model.fns.iter().enumerate() {
            if f.is_pub && !f.is_test && library_code(scope, f.file, &ws.files[f.file].path) {
                candidates.entry(&f.name).or_default().push(id);
            }
        }
        let mut method_sites: BTreeMap<(usize, usize), &CallTarget> = BTreeMap::new();
        for (caller, sites) in model.calls.iter().enumerate() {
            for site in sites.iter().filter(|s| s.method) {
                method_sites.insert((model.fns[caller].file, site.idx), &site.target);
            }
        }

        let mut used = vec![false; model.fns.len()];
        for (file_idx, file) in production_files(ws) {
            let tokens = &file.tokens;
            let mut k = 0;
            while k < tokens.len() {
                let t = &tokens[k];
                if t.is_ident("use") {
                    // An import names a function without using it.
                    k += tokens[k..]
                        .iter()
                        .position(|t| t.is_punct(';'))
                        .unwrap_or(tokens.len());
                    continue;
                }
                let named = candidates.get(t.text.as_str());
                k += 1;
                let Some(named) = named.filter(|_| t.kind == TokenKind::Ident) else {
                    continue;
                };
                let at = k - 1;
                let prev = |n: usize| at.checked_sub(n).map(|i| &tokens[i]);
                if prev(1).is_some_and(|p| p.is_ident("fn")) || file.in_test_region(at) {
                    continue;
                }
                let qualifier = prev(3).filter(|_| {
                    prev(1).is_some_and(|p| p.is_punct(':'))
                        && prev(2).is_some_and(|p| p.is_punct(':'))
                });
                let method_call = prev(1).is_some_and(|p| p.is_punct('.'));
                if method_call
                    && !tokens
                        .get(k)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
                {
                    continue; // a field access
                }
                let resolved = file_idx.and_then(|i| method_sites.get(&(i, at))).and_then(
                    |target| match target {
                        CallTarget::Resolved(ids) => Some(ids),
                        CallTarget::Unknown => None,
                    },
                );
                let owner_named = |q: &str| {
                    named
                        .iter()
                        .any(|&c| model.fns[c].owner.as_deref() == Some(q))
                };
                for &c in named {
                    let def = &model.fns[c];
                    let own_body =
                        file_idx == Some(def.file) && (def.body.0..def.body.1).contains(&at);
                    let visible = file_idx.is_none_or(|i| scope.visible(i, def));
                    let matches = if method_call {
                        def.owner.is_some() && resolved.is_none_or(|ids| ids.contains(&c))
                    } else {
                        match qualifier.map(|q| q.text.as_str()) {
                            Some("Self") => {
                                def.owner.is_some()
                                    && file_idx.is_none_or(|i| {
                                        scope.crate_of(i) == scope.crate_of(def.file)
                                    })
                            }
                            Some(q) if owner_named(q) => def.owner.as_deref() == Some(q),
                            _ => def.owner.is_none(),
                        }
                    };
                    if matches && visible && !own_body {
                        used[c] = true;
                    }
                }
            }
        }

        for ids in candidates.values() {
            for &id in ids.iter().filter(|&&id| !used[id]) {
                let def = &model.fns[id];
                out.push(Finding {
                    rule: self.name(),
                    path: ws.files[def.file].path.clone(),
                    line: def.line,
                    col: 0,
                    message: format!(
                        "`pub fn {}` has no production use, only tests call it — delete it, \
                         or move its tests onto the path production uses",
                        model.display(id)
                    ),
                });
            }
        }
        unread_fields(ws, self.name(), out);
    }
}

/// Every file whose code counts as a production use, with its index
/// among the scanned files (`None` for a caller-only file).
fn production_files(ws: &Workspace) -> impl Iterator<Item = (Option<usize>, &SourceFile)> {
    (ws.files.iter().enumerate().map(|(i, f)| (Some(i), f)))
        .chain(ws.callers.iter().map(|f| (None, f)))
}

/// Is scanned file `file` (at `path`) library code: a crate under
/// `crates/` with a manifest, outside its binaries?
fn library_code(scope: &Scope, file: usize, path: &str) -> bool {
    scope.crates.is_library(scope.crate_of(file))
        && !path.ends_with("/main.rs")
        && !path.contains("/bin/")
}

/// R12's field half: flag each plain-`pub` field of a plain-`pub` struct
/// in library code that no production code reads.
fn unread_fields(ws: &Workspace, rule: &'static str, out: &mut Vec<Finding>) {
    let scope = &ws.model.scope;
    // (file, struct, field) for every field the rule checks.
    let mut candidates: Vec<(usize, String, items::Field)> = Vec::new();
    for (i, file) in ws.files.iter().enumerate() {
        if !library_code(scope, i, &file.path) {
            continue;
        }
        let serialized = items::serialize_items(file);
        for st in items::pub_structs(file)
            .into_iter()
            .filter(|s| !file.in_test_region(s.at))
        {
            let derived = serialized.iter().find(|s| s.name == st.name);
            let serializes = |f: &items::Field| {
                derived.is_some_and(|d| d.fields.iter().any(|g| g.name == f.name && !g.serde_skip))
            };
            for f in st.fields.into_iter().filter(|f| f.is_pub && !serializes(f)) {
                candidates.push((i, st.name.clone(), f));
            }
        }
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (c, (_, _, f)) in candidates.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(c);
    }
    let mut read = vec![false; candidates.len()];
    for (file_idx, file) in production_files(ws) {
        let tokens = &file.tokens;
        let mut mark = |owner: Option<&str>, name: &str| {
            for &c in by_name.get(name).into_iter().flatten() {
                let (file, struct_name, _) = &candidates[c];
                let visible = file_idx
                    .is_none_or(|i| scope.crates.sees(scope.crate_of(i), scope.crate_of(*file)));
                if visible && owner.is_none_or(|o| o == struct_name) {
                    read[c] = true;
                }
            }
        };
        for k in 1..tokens.len() {
            let t = &tokens[k];
            if t.kind != TokenKind::Ident || file.in_test_region(k) {
                continue;
            }
            let next = |n: usize| tokens.get(k + n);
            if tokens[k - 1].is_punct('.') {
                // `.field`: not a method call or turbofish, and not the
                // target of a plain assignment (`==` and `=>` read).
                let call = next(1).is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
                let assigned = next(1).is_some_and(|n| n.is_punct('='))
                    && !next(2).is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
                if !call && !assigned {
                    mark(None, &t.text);
                }
            } else if next(1).is_some_and(|n| n.is_punct('{')) && is_pattern(tokens, k) {
                let owner = Some(t.text.as_str()).filter(|o| *o != "Self");
                for name in pattern_fields(tokens, k + 1) {
                    mark(owner, name);
                }
            }
        }
    }

    for ((file, struct_name, f), _) in candidates.iter().zip(&read).filter(|(_, r)| !**r) {
        out.push(Finding {
            rule,
            path: ws.files[*file].path.clone(),
            line: f.line,
            col: 0,
            message: format!(
                "`pub` field `{struct_name}::{}` is read by no production code, only written \
                 or read by tests — delete it, or read it where production needs it",
                f.name
            ),
        });
    }
}

/// Is the brace group after the struct path ending at `name` a pattern,
/// not a struct literal? A pattern is bound by `let`, or followed — past
/// any closing delimiters — by `=` (a `let`, `if let` or destructuring
/// assignment), `=>` or `if` (a match arm), `|` (an or-pattern) or `in`
/// (a `for` loop).
fn is_pattern(tokens: &[Token], name: usize) -> bool {
    if tokens[name - 1].is_ident("let") {
        return true;
    }
    let close = match_delim(tokens, name + 1);
    let mut after = close + 1;
    while tokens
        .get(after)
        .is_some_and(|t| t.is_punct(')') || t.is_punct(']'))
    {
        after += 1;
    }
    match tokens.get(after) {
        Some(t) if t.is_punct('=') => !tokens.get(after + 1).is_some_and(|n| n.is_punct('=')),
        Some(t) => t.is_punct('|') || t.is_ident("if") || t.is_ident("in"),
        None => false,
    }
}

/// The field names a struct pattern's brace group (opening at `open`)
/// binds: `{ a, b: pat, ref c, .. }` → `a`, `b`, `c`.
fn pattern_fields(tokens: &[Token], open: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut field_start) = (0i32, true);
    for t in &tokens[open + 1..match_delim(tokens, open)] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            field_start = true;
            continue;
        }
        if t.is_ident("ref") || t.is_ident("mut") {
            continue;
        }
        if field_start && t.kind == TokenKind::Ident {
            out.push(t.text.as_str());
        }
        field_start = false;
    }
    out
}
