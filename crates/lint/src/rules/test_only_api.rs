//! R12 `test-only-api`: no public function that only tests use.
//!
//! A plain `pub fn` in a library crate under `crates/` that has a
//! manifest must have a production use: a call, or a path naming it as a
//! value (`map(Tally::total)`), in non-test code. Production code is every
//! scanned file plus the caller-only files (`examples/`, `perfbench/src`);
//! `#[cfg(test)]` code never counts and `tests/` directories are never
//! read. A use inside the function's own body does not count either.
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

use crate::callgraph::{CallTarget, FnId};
use crate::lexer::TokenKind;
use crate::rules::{Finding, Rule, Workspace};
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
            let path = &ws.files[f.file].path;
            if f.is_pub
                && !f.is_test
                && scope.crates.is_library(scope.crate_of(f.file))
                && !path.ends_with("/main.rs")
                && !path.contains("/bin/")
            {
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
        let files = (ws.files.iter().enumerate().map(|(i, f)| (Some(i), f)))
            .chain(ws.callers.iter().map(|f| (None, f)));
        for (file_idx, file) in files {
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
    }
}
