//! R9 `hot-path-allocation`: no avoidable allocation in functions on the
//! per-visit hot path.
//!
//! The hot path is everything transitively reachable — over the resolved
//! call graph — from the per-visit roots: `measure_site` (one cell of
//! the region × domain matrix), `Browser::fetch_document`, the `webdom`
//! parse entry points, and `pierce_shadow_roots` (the §3 shadow-DOM
//! workaround). Inside those functions the rule flags the classic
//! allocation idioms: `.clone()` / `.to_vec()` / `.to_owned()` /
//! `.to_string()`, `String::from(...)`, `format!(...)`, and a
//! `Vec::new()` binding that is later `push`ed into (growing from empty
//! on every visit). Findings aggregate per function — one entry per hot
//! function listing every allocation site — so the report reads as a
//! ranked work-list of per-visit allocations.
//!
//! Documented over-approximations (DESIGN.md §10): method-call edges
//! without a receiver-type hint resolve to every same-named method, so
//! reachability can pull in cold same-named functions; allocation in a
//! closure body counts against the defining function; and the rule
//! cannot see whether a `clone` result actually escapes the visit.

use crate::callgraph::{CallTarget, FnId};
use crate::rules::{Finding, Rule, Workspace};
use std::collections::BTreeMap;

/// Per-visit roots as `(path fragment, owner, name)` filters; `None`
/// matches anything.
const ROOTS: &[(Option<&str>, Option<&str>, &str)] = &[
    (None, None, "measure_site"),
    (None, Some("Browser"), "fetch_document"),
    (Some("webdom"), None, "parse"),
    (Some("webdom"), None, "parse_fragment_into"),
    (None, None, "pierce_shadow_roots"),
];

/// Zero-argument methods that allocate an owned copy.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string"];

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
            let path = &ws.files[def.file].path;
            let is_root = ROOTS.iter().any(|(frag, owner, name)| {
                frag.is_none_or(|f| path.contains(f))
                    && owner.is_none_or(|o| def.owner.as_deref() == Some(o))
                    && def.name == *name
            });
            if is_root && !def.is_test {
                via.insert(id, (model.display(id), 0));
                queue.push(id);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let (root, hops) = via[&id].clone();
            for site in &model.calls[id] {
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
            let mut sites: Vec<(u32, String)> = Vec::new();
            for site in &model.calls[id] {
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
