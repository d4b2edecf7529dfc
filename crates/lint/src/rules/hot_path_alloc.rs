//! R9 `hot-path-allocation`: no avoidable allocation in functions on the
//! per-visit hot path.
//!
//! The hot path is everything transitively reachable — over the resolved
//! call graph — from the per-visit roots: `measure_site` (one cell of
//! the region × domain matrix), `Browser::fetch_document`, the `webdom`
//! parse entry points, and `pierce_shadow_roots` (the §3 shadow-DOM
//! workaround). Inside those functions the rule flags the classic
//! allocation idioms: `.clone()` / `.to_vec()` / `.to_owned()` /
//! `.to_string()` / `.concat()`, `String::from(...)`, `format!(...)`, and a
//! `Vec::new()` binding that is later `push`ed into (growing from empty
//! on every visit). Findings aggregate per function — one entry per hot
//! function listing every allocation site — so the report reads as a
//! ranked work-list of per-visit allocations.
//!
//! What the rule leaves out, and why that is sound (DESIGN.md §10):
//!
//! * a root is one definition, named by crate-qualified path the way the
//!   resolver tells functions apart (crate, owning type, name), so a
//!   same-named function elsewhere — `SelectorList::parse` beside the
//!   free `webdom::parse` — is hot only if a hot call resolves to it;
//! * an error path is cold: a closure passed to an error combinator
//!   (`map_err`, `ok_or_else`, `unwrap_or_else`, `or_else`), the
//!   argument of an `Err(..)`, and a branch or arm whose last statement
//!   is `return Err(..)` run only when a step fails, so their
//!   allocations are not counted and their calls add no hot edge. A
//!   function they call is still hot when a hot call also reaches it.
//!
//! Documented over-approximations: method-call edges without a
//! receiver-type hint resolve to every same-named method the caller's
//! crate can see; allocation in a closure outside an error combinator
//! counts against the defining function; and the rule cannot see whether
//! a `clone` result actually escapes the visit.

use crate::callgraph::{CallSite, CallTarget, FnId, Model};
use crate::lexer::Token;
use crate::parser::{match_delim, FnDef};
use crate::rules::{Finding, Rule, Workspace};
use std::collections::BTreeMap;

/// Per-visit roots by crate-qualified path, as the call graph tells
/// functions apart: `crate::name` is the crate's free function `name`,
/// `crate::Type::name` the associated function of `Type`. The crate `*`
/// is any crate: `measure_site`, the study's unit of work, is a root
/// wherever it is defined.
const ROOTS: &[&str] = &[
    "*::measure_site",
    "browser::Browser::fetch_document",
    "webdom::parse",
    "webdom::parse_fragment_into",
    "bannerclick::pierce_shadow_roots",
];

/// Is function `id` one of the [`ROOTS`]?
fn is_root(model: &Model, id: FnId) -> bool {
    let def = &model.fns[id];
    let krate = model.scope.crate_of(def.file);
    ROOTS.iter().any(|root| {
        let (c, owner, name) = match root.split("::").collect::<Vec<_>>()[..] {
            [c, name] => (c, None, name),
            [c, owner, name] => (c, Some(owner), name),
            _ => return false,
        };
        (c == "*" || krate == Some(c)) && def.owner.as_deref() == owner && def.name == name
    })
}

/// Combinators whose closure argument runs only on the error path.
const COLD_COMBINATORS: &[&str] = &["map_err", "ok_or_else", "unwrap_or_else", "or_else"];

/// Token ranges of `def`'s body that run only on an error path: the
/// argument of a [`COLD_COMBINATORS`] call or of an `Err(..)`
/// constructor, and a block (a branch or a match arm, not the body
/// itself) whose last statement is `return Err(..)`.
fn cold_ranges(tokens: &[Token], def: &FnDef, sites: &[CallSite]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = (sites.iter())
        .filter(|s| {
            if s.method {
                COLD_COMBINATORS.contains(&s.name.as_str())
            } else {
                s.name == "Err" && s.qualifier.is_empty()
            }
        })
        .map(|s| s.args)
        .collect();
    let (start, end) = (def.body.0, def.body.1.min(tokens.len()));
    for k in start..end.saturating_sub(2) {
        if !(tokens[k].is_ident("return")
            && tokens[k + 1].is_ident("Err")
            && tokens[k + 2].is_punct('('))
        {
            continue;
        }
        // The `return` ends its block when at most a `;` separates it
        // from a `}` — one inside the body, not the body's own.
        let mut close = match_delim(tokens, k + 2) + 1;
        if tokens.get(close).is_some_and(|t| t.is_punct(';')) {
            close += 1;
        }
        if close >= end || !tokens[close].is_punct('}') {
            continue;
        }
        let mut depth = 0i32;
        let open = (start..k).rev().find(|&j| {
            if tokens[j].is_punct('}') {
                depth += 1;
            } else if tokens[j].is_punct('{') {
                depth -= 1;
            }
            depth < 0
        });
        out.extend(open.map(|open| (open, close)));
    }
    out
}

/// Zero-argument methods that allocate an owned copy.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "concat"];

/// Crates never on the per-visit path: the analyzer analyzing it.
const COLD_PATHS: &[&str] = &["crates/lint/"];

/// R9: allocation-free per-visit hot path (arena-rewrite work-list).
pub struct HotPathAlloc;

impl Rule for HotPathAlloc {
    fn name(&self) -> &'static str {
        "hot-path-allocation"
    }

    fn code(&self) -> &'static str {
        "R9"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let model = &ws.model;

        // Breadth-first reachability from the roots, remembering which
        // root reached each function and in how many hops (the report's
        // ranking signal). Roots are seeded in declaration order and the
        // worklist is processed in order, so the labeling — and with it
        // the findings — is deterministic.
        let mut via: BTreeMap<FnId, (String, usize)> = BTreeMap::new();
        let mut queue: Vec<FnId> = Vec::new();
        for (id, def) in model.fns.iter().enumerate() {
            if is_root(model, id) && !def.is_test {
                via.insert(id, (model.display(id), 0));
                queue.push(id);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let (root, hops) = via[&id].clone();
            let def = &model.fns[id];
            let cold = cold_ranges(&ws.files[def.file].tokens, def, &model.calls[id]);
            for site in &model.calls[id] {
                if in_ranges(&cold, site.idx) {
                    continue; // an error path adds no hot edge
                }
                let CallTarget::Resolved(callees) = &site.target else {
                    continue;
                };
                for &callee in callees {
                    if model.fns[callee].is_test || via.contains_key(&callee) {
                        continue;
                    }
                    via.insert(callee, (root.clone(), hops + 1));
                    queue.push(callee);
                }
            }
        }

        for (id, def) in model.fns.iter().enumerate() {
            let Some((root, hops)) = via.get(&id) else {
                continue;
            };
            let file = &ws.files[def.file];
            if COLD_PATHS.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
            let cold = cold_ranges(&file.tokens, def, &model.calls[id]);
            let mut sites: Vec<(u32, String)> = Vec::new();
            for site in &model.calls[id] {
                if in_ranges(&cold, site.idx) {
                    continue; // an error path's allocation is not per-visit
                }
                if site.method
                    && site.args.0 == site.args.1
                    && ALLOC_METHODS.contains(&site.name.as_str())
                {
                    sites.push((site.line, format!("`.{}()`", site.name)));
                } else if !site.method
                    && site.name == "from"
                    && site.qualifier.last().is_some_and(|q| q == "String")
                {
                    sites.push((site.line, "`String::from`".to_string()));
                } else if !site.method
                    && site.name == "new"
                    && site.qualifier.last().is_some_and(|q| q == "Vec")
                {
                    // `let v = Vec::new()` that is later pushed into:
                    // grows from empty on every visit.
                    let tokens = &file.tokens;
                    let Some(name) = crate::locks::let_binding(tokens, def.body.0, site.idx) else {
                        continue;
                    };
                    let end = def.body.1.min(tokens.len());
                    let pushed = (site.idx..end).any(|k| {
                        tokens[k].is_ident(&name)
                            && tokens.get(k + 1).is_some_and(|t| t.is_punct('.'))
                            && tokens.get(k + 2).is_some_and(|t| t.is_ident("push"))
                            && tokens.get(k + 3).is_some_and(|t| t.is_punct('('))
                    });
                    if pushed {
                        sites.push((site.line, format!("`Vec::new`-then-push `{name}`")));
                    }
                }
            }
            // `format!` expands to an allocation but is a macro, not a
            // call site: match it on the token stream.
            let tokens = &file.tokens;
            let end = def.body.1.min(tokens.len());
            for k in def.body.0..end {
                if tokens[k].is_ident("format")
                    && !in_ranges(&cold, k)
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct('!'))
                {
                    sites.push((tokens[k].line, "`format!`".to_string()));
                }
            }
            if sites.is_empty() {
                continue;
            }
            sites.sort();
            let listed: Vec<String> = sites
                .iter()
                .map(|(line, what)| format!("{what} (line {line})"))
                .collect();
            out.push(Finding {
                rule: self.name(),
                path: file.path.clone(),
                line: def.line,
                col: 0,
                message: format!(
                    "per-visit hot path `{}` ({} hop{} from root `{root}`) allocates {} time{}: \
                     {} — remove it, or suppress it with the reason it stays",
                    model.display(id),
                    hops,
                    if *hops == 1 { "" } else { "s" },
                    sites.len(),
                    if sites.len() == 1 { "" } else { "s" },
                    listed.join(", ")
                ),
            });
        }
    }
}

/// Is token `idx` inside one of the half-open token `ranges`?
fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges
        .iter()
        .any(|&(open, close)| open <= idx && idx < close)
}
