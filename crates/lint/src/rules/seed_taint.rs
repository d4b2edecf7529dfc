//! R8 `seed-taint`: RNG/fault-hash state must derive only from the CLI
//! seed / `PopulationConfig`, never from an ambient source.
//!
//! Sinks are the RNG-seeding constructors (`from_seed`,
//! `seed_from_u64`). For every argument identifier the rule computes a
//! backward slice: intra-function `let` chains, plus interprocedural
//! steps from a parameter to every caller's matching argument expression
//! (depth-bounded, memoized). The slice is tainted if it reaches an
//! ambient origin — `SystemTime::now`, `Instant::now`, `thread_rng`,
//! `from_entropy`, `DefaultHasher::new`, `RandomState::new` — either as
//! a call in a traced binding or via a called function whose body uses
//! one (propagated through the call graph). This complements clippy's
//! `disallowed-methods` list (`clippy.toml`), which flags the ambient
//! call itself; R8 flags seed state that *flows* from one, across
//! function boundaries, and also knows `thread_rng`, which the vendored
//! `rand` lacks and so cannot be listed there.
//!
//! Documented approximations (DESIGN.md §10): struct fields and calls
//! with [`Unknown`](crate::callgraph::CallTarget::Unknown) targets are
//! trusted, and `std::env::args` in `src/main.rs` is the CLI seed
//! boundary (clippy's `disallowed-methods` owns ambient-env discipline).

use crate::callgraph::{witness_chain, CallSite, CallTarget, FnId, Model, Origin};
use crate::lexer::TokenKind;
use crate::rules::{Finding, Rule, Workspace};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Call names that seed an RNG (taint sinks).
const SINKS: &[&str] = &["from_seed", "seed_from_u64"];

/// Bare call names that are ambient origins wherever they appear.
const AMBIENT_FREE: &[&str] = &["thread_rng", "from_entropy"];

/// `Owner::name` pairs that are ambient origins.
const AMBIENT_ASSOC: &[(&str, &str)] = &[
    ("SystemTime", "now"),
    ("Instant", "now"),
    ("DefaultHasher", "new"),
    ("RandomState", "new"),
];

/// Maximum interprocedural steps when slicing a parameter backwards.
const MAX_SLICE_DEPTH: usize = 8;

/// Is this call site an ambient origin?
fn ambient_origin(site: &CallSite) -> bool {
    if AMBIENT_FREE.contains(&site.name.as_str()) {
        return true;
    }
    let owner = if site.method {
        site.recv.last().map(String::as_str)
    } else {
        site.qualifier.last().map(String::as_str)
    };
    owner.is_some_and(|o| AMBIENT_ASSOC.contains(&(o, site.name.as_str())))
}

/// R8: interprocedural seed-determinism taint.
pub struct SeedTaint;

impl Rule for SeedTaint {
    fn name(&self) -> &'static str {
        "seed-taint"
    }

    fn code(&self) -> &'static str {
        "R8"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let model = &ws.model;

        // Which functions transitively use an ambient origin anywhere in
        // their body (used to taint `let x = helper();` bindings).
        let mut direct: Vec<Vec<(String, Origin)>> = vec![Vec::new(); model.fns.len()];
        for (id, sites) in model.calls.iter().enumerate() {
            for site in sites {
                if ambient_origin(site) {
                    direct[id].push((
                        "ambient".to_string(),
                        Origin::Direct {
                            line: site.line,
                            what: format!("ambient `{}()`", site.name),
                        },
                    ));
                }
            }
        }
        let ambient = crate::callgraph::propagate_facts(model, &direct);

        for (id, def) in model.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            let file = &ws.files[def.file];
            for site in &model.calls[id] {
                if !SINKS.contains(&site.name.as_str()) {
                    continue;
                }
                let mut visited = BTreeSet::new();
                if let Some(trail) = slice_range(
                    SliceCx {
                        model,
                        files: &ws.files,
                        ambient: &ambient,
                    },
                    id,
                    site.args,
                    &mut visited,
                    0,
                ) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: site.line,
                        col: site.col,
                        message: format!(
                            "seed for `{}()` is tainted by an ambient source: {trail} — \
                             derive RNG state only from the CLI seed / PopulationConfig",
                            site.name
                        ),
                    });
                }
            }
        }
    }
}

/// Shared read-only state for the backward slice.
#[derive(Clone, Copy)]
struct SliceCx<'a> {
    model: &'a Model,
    files: &'a [SourceFile],
    ambient: &'a [BTreeMap<String, Origin>],
}

/// Slice a token range inside `id`'s body: tainted if it contains an
/// ambient origin call, a call to an ambient-deriving function, or an
/// identifier whose binding (or caller-supplied value) is tainted.
/// Returns the human-readable taint trail, or `None` when clean.
fn slice_range(
    cx: SliceCx<'_>,
    id: FnId,
    range: (usize, usize),
    visited: &mut BTreeSet<(FnId, String)>,
    depth: usize,
) -> Option<String> {
    let def = &cx.model.fns[id];
    let file = &cx.files[def.file];
    let tokens = &file.tokens;
    let (start, end) = (range.0, range.1.min(tokens.len()));

    // Calls inside the range: ambient origins and ambient-deriving fns.
    let mut callee_names = BTreeSet::new();
    for site in &cx.model.calls[id] {
        if !(start..end).contains(&site.idx) {
            continue;
        }
        callee_names.insert(site.name.clone());
        if ambient_origin(site) {
            return Some(format!(
                "ambient `{}()` in `{}` ({}:{})",
                site.name,
                cx.model.display(id),
                file.path,
                site.line
            ));
        }
        if let CallTarget::Resolved(callees) = &site.target {
            for &callee in callees {
                if cx.ambient[callee].contains_key("ambient") {
                    let chain = witness_chain(cx.model, cx.files, cx.ambient, callee, "ambient");
                    return Some(format!(
                        "via `{}()` ({}:{}) → {chain}",
                        site.name, file.path, site.line
                    ));
                }
            }
        }
    }

    // Identifiers in the range: trace each through its binding. Skip
    // callee names, field accesses (`x.field` tails), and keywords.
    let mut k = start;
    while k < end {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident
            || callee_names.contains(&t.text)
            || t.text == "self"
            || tokens
                .get(k.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('.'))
        {
            k += 1;
            continue;
        }
        if let Some(trail) = slice_ident(cx, id, &t.text, visited, depth) {
            return Some(trail);
        }
        k += 1;
    }
    None
}

/// Slice one identifier: find its `let` binding in the body and slice the
/// right-hand side; a parameter is sliced through every caller's matching
/// argument expression.
fn slice_ident(
    cx: SliceCx<'_>,
    id: FnId,
    ident: &str,
    visited: &mut BTreeSet<(FnId, String)>,
    depth: usize,
) -> Option<String> {
    if depth > MAX_SLICE_DEPTH || !visited.insert((id, ident.to_string())) {
        return None;
    }
    let def = &cx.model.fns[id];
    let file = &cx.files[def.file];
    let tokens = &file.tokens;
    let (start, end) = (def.body.0, def.body.1.min(tokens.len()));

    // `let [mut] ident = rhs ;` anywhere in the body.
    let mut k = start;
    while k + 2 < end {
        if tokens[k].is_ident("let") {
            let mut n = k + 1;
            if tokens[n].is_ident("mut") {
                n += 1;
            }
            if tokens[n].is_ident(ident) && tokens.get(n + 1).is_some_and(|t| t.is_punct('=')) {
                let rhs_start = n + 2;
                let mut rhs_end = rhs_start;
                let mut delim = 0i32;
                while rhs_end < end {
                    let t = &tokens[rhs_end];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        delim += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        delim -= 1;
                        if delim < 0 {
                            break;
                        }
                    } else if delim == 0 && t.is_punct(';') {
                        break;
                    }
                    rhs_end += 1;
                }
                if let Some(trail) = slice_range(cx, id, (rhs_start, rhs_end), visited, depth) {
                    return Some(format!("`{ident}` ← {trail}"));
                }
            }
        }
        k += 1;
    }

    // A parameter: slice every caller's matching argument expression.
    let pos = def.params.iter().position(|p| p.name == ident)?;
    for (caller, s) in cx.model.callers_of(id) {
        let site = &cx.model.calls[caller][s];
        // Method calls bind `self` as param 0; shift positional args.
        let shift =
            usize::from(site.method && def.params.first().is_some_and(|p| p.name == "self"));
        let Some(arg_pos) = pos.checked_sub(shift) else {
            continue;
        };
        let caller_file = &cx.files[cx.model.fns[caller].file];
        let args =
            crate::parser::split_top_level_commas(&caller_file.tokens, site.args.0, site.args.1);
        let Some(&(a_start, a_end)) = args.get(arg_pos) else {
            continue;
        };
        if let Some(trail) = slice_range(cx, caller, (a_start, a_end), visited, depth + 1) {
            return Some(format!(
                "param `{ident}` of `{}` ← (caller `{}`) {trail}",
                cx.model.display(id),
                cx.model.display(caller)
            ));
        }
    }
    None
}
