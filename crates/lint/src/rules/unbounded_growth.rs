//! R10 `unbounded-growth`: collections on long-lived structs must
//! shrink somewhere.
//!
//! Long-lived structs are those reachable — through field types, workspace
//! wide — from the process-lifetime roots `Store`, `QueryService` and
//! `FetchCache` (a `StudyReport` is a value built once per run, not a
//! root). For every collection-typed field of such a struct (`Vec`,
//! `VecDeque`, `HashMap`, `BTreeMap`, `HashSet`, `BTreeSet`,
//! `BinaryHeap`) the rule scans the whole workspace for
//! growth calls (`push`/`insert`/`extend`/…) and shrink evidence
//! (`remove`/`clear`/`drain`/`truncate`/`pop`/`retain`/… or a plain
//! reassignment, which replaces the collection wholesale). A field that
//! grows but never shrinks is memory the parked 1M-domain goal (ROADMAP "Parked from earlier rounds")
//! cannot afford: the 45k-site study fits in RAM, a production crawl
//! does not.
//!
//! Documented over-approximations (DESIGN.md §10): field usage is
//! matched by *name* (`.field.push(...)` anywhere in the workspace), so
//! a same-named field or local on any type contributes both growth and
//! shrink evidence; and a field that is only ever built once at startup
//! (bounded by construction) still counts as growing if built via
//! `push` — suppress with the reason.

use crate::lexer::{Token, TokenKind};
use crate::parser::match_delim;
use crate::rules::{Finding, Rule, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Structs that live for the whole process (reachability roots).
const ROOT_STRUCTS: &[&str] = &["Store", "QueryService", "FetchCache"];

/// Field types that can grow without bound.
const GROWABLE: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "BinaryHeap",
];

/// Method names that add elements.
const GROW_OPS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "entry",
];

/// Method names that remove elements or bound the collection.
const SHRINK_OPS: &[&str] = &[
    "remove",
    "remove_entry",
    "clear",
    "drain",
    "truncate",
    "pop",
    "pop_front",
    "pop_back",
    "retain",
    "swap_remove",
    "shift_remove",
    "split_off",
    "dedup",
    "take",
];

/// Calls that *drain their argument*: a field passed as `&mut x.field`
/// to one of these is emptied (`mem::take`, `mem::replace`, `mem::swap`,
/// `Vec::append`), which is the store's staging-buffer eviction idiom.
const DRAIN_CALLS: &[&str] = &["take", "replace", "swap", "append"];

/// One named field of a brace struct.
struct FieldDef {
    name: String,
    type_idents: Vec<String>,
    line: u32,
    col: u32,
}

/// One brace-struct definition found in a file.
struct StructDef {
    name: String,
    file: usize,
    fields: Vec<FieldDef>,
}

/// R10: no grow-only collections on long-lived structs.
pub struct UnboundedGrowth;

impl Rule for UnboundedGrowth {
    fn name(&self) -> &'static str {
        "unbounded-growth"
    }

    fn code(&self) -> &'static str {
        "R10"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // All brace structs, workspace-wide, in (file, decl) order.
        let mut structs: Vec<StructDef> = Vec::new();
        for (file_idx, file) in ws.files.iter().enumerate() {
            structs.extend(structs_in(&file.tokens, file_idx));
        }
        let by_name: BTreeMap<&str, usize> = structs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();

        // Reachability from the long-lived roots through field types.
        let mut live: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<(usize, String)> = Vec::new();
        for root in ROOT_STRUCTS {
            if let Some(&i) = by_name.get(root) {
                if live.insert(i) {
                    queue.push((i, root.to_string()));
                }
            }
        }
        let mut root_of: BTreeMap<usize, String> = queue.iter().cloned().collect();
        let mut head = 0;
        while head < queue.len() {
            let (i, root) = queue[head].clone();
            head += 1;
            for field in &structs[i].fields {
                for ty in &field.type_idents {
                    if let Some(&j) = by_name.get(ty.as_str()) {
                        if live.insert(j) {
                            root_of.insert(j, root.clone());
                            queue.push((j, root.clone()));
                        }
                    }
                }
            }
        }

        // Workspace-wide growth/shrink evidence per field *name*.
        let mut grows: BTreeMap<String, (String, u32, String)> = BTreeMap::new();
        let mut shrinks: BTreeSet<String> = BTreeSet::new();
        for file in &ws.files {
            let tokens = &file.tokens;
            for k in 1..tokens.len() {
                let t = &tokens[k];
                if t.kind != TokenKind::Ident || !tokens[k - 1].is_punct('.') {
                    continue;
                }
                // `.field.op(` — a method driven off the field.
                if tokens.get(k + 1).is_some_and(|n| n.is_punct('.')) {
                    if let Some(op) = tokens.get(k + 2).filter(|o| o.kind == TokenKind::Ident) {
                        if tokens.get(k + 3).is_some_and(|p| p.is_punct('(')) {
                            if GROW_OPS.contains(&op.text.as_str()) {
                                grows.entry(t.text.clone()).or_insert_with(|| {
                                    (file.path.clone(), op.line, op.text.clone())
                                });
                            } else if SHRINK_OPS.contains(&op.text.as_str()) {
                                shrinks.insert(t.text.clone());
                            }
                        }
                    }
                }
                // `.field = …` — wholesale replacement bounds the old
                // contents (but `==` comparisons do not).
                if tokens.get(k + 1).is_some_and(|n| n.is_punct('='))
                    && !tokens.get(k + 2).is_some_and(|n| n.is_punct('='))
                {
                    shrinks.insert(t.text.clone());
                }
            }
            // Drain-by-argument: any `.field` ending an argument of
            // `take`/`replace`/`swap`/`append` is emptied by the call.
            for k in 0..tokens.len() {
                let t = &tokens[k];
                if t.kind != TokenKind::Ident
                    || !DRAIN_CALLS.contains(&t.text.as_str())
                    || !tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                let close = match_delim(tokens, k + 1);
                for a in k + 2..close.min(tokens.len()) {
                    if tokens[a].kind == TokenKind::Ident
                        && tokens[a - 1].is_punct('.')
                        && tokens
                            .get(a + 1)
                            .is_some_and(|n| n.is_punct(')') || n.is_punct(','))
                    {
                        shrinks.insert(tokens[a].text.clone());
                    }
                }
            }
        }

        for (i, s) in structs.iter().enumerate() {
            if !live.contains(&i) {
                continue;
            }
            let file = &ws.files[s.file];
            for field in &s.fields {
                let coll = field
                    .type_idents
                    .iter()
                    .find(|ty| GROWABLE.contains(&ty.as_str()));
                let Some(coll) = coll else {
                    continue;
                };
                let Some((grow_path, grow_line, grow_op)) = grows.get(&field.name) else {
                    continue;
                };
                if shrinks.contains(&field.name) {
                    continue;
                }
                let root = root_of.get(&i).cloned().unwrap_or_default();
                out.push(Finding {
                    rule: self.name(),
                    path: file.path.clone(),
                    line: field.line,
                    col: field.col,
                    message: format!(
                        "`{0}.{1}` ({coll}) grows via `{grow_op}()` but never shrinks anywhere \
                         in the workspace — unbounded memory on the long-lived `{root}` graph \
                         breaks the parked 1M-domain goal (growth site matched by field and \
                         method name, not type: the first `.{1}.{grow_op}(` is at \
                         {grow_path}:{grow_line})",
                        s.name, field.name
                    ),
                });
            }
        }
    }
}

/// Scan one file's tokens for brace-struct definitions with named fields.
/// Tuple structs, unit structs, and enums are skipped; attributes and
/// visibility modifiers inside the body are stepped over.
fn structs_in(tokens: &[Token], file_idx: usize) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if !tokens[i].is_ident("struct") || tokens[i + 1].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        // Walk past generics/where to the body `{`; `;` or `(` first
        // means unit/tuple struct.
        let mut j = i + 2;
        let mut angle = 0i32;
        let open = loop {
            match tokens.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => angle = (angle - 1).max(0),
                Some(t) if angle == 0 && (t.is_punct(';') || t.is_punct('(')) => break None,
                Some(t) if angle == 0 && t.is_punct('{') => break Some(j),
                Some(_) => {}
            }
            j += 1;
        };
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = match_delim(tokens, open);
        out.push(StructDef {
            name,
            file: file_idx,
            fields: fields_in(tokens, open + 1, close),
        });
        i = close + 1;
    }
    out
}

/// Parse `name: Type, …` fields between a struct's braces.
fn fields_in(tokens: &[Token], start: usize, end: usize) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut k = start;
    while k < end.min(tokens.len()) {
        let t = &tokens[k];
        // Attributes and visibility before a field.
        if t.is_punct('#') && tokens.get(k + 1).is_some_and(|n| n.is_punct('[')) {
            k = match_delim(tokens, k + 1) + 1;
            continue;
        }
        if t.is_ident("pub") {
            k += 1;
            if tokens.get(k).is_some_and(|n| n.is_punct('(')) {
                k = match_delim(tokens, k) + 1;
            }
            continue;
        }
        // `name :` (single colon) starts a field.
        if t.kind == TokenKind::Ident
            && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
        {
            let ty_start = k + 2;
            let mut depth = 0i32;
            let mut angle = 0i32;
            let mut e = ty_start;
            while e < end {
                let ty = &tokens[e];
                if ty.is_punct('(') || ty.is_punct('[') || ty.is_punct('{') {
                    depth += 1;
                } else if ty.is_punct(')') || ty.is_punct(']') || ty.is_punct('}') {
                    depth -= 1;
                } else if ty.is_punct('<') {
                    angle += 1;
                } else if ty.is_punct('>') {
                    angle = (angle - 1).max(0);
                } else if ty.is_punct(',') && depth == 0 && angle == 0 {
                    break;
                }
                e += 1;
            }
            fields.push(FieldDef {
                name: t.text.clone(),
                type_idents: tokens[ty_start..e.min(tokens.len())]
                    .iter()
                    .filter(|ty| ty.kind == TokenKind::Ident)
                    .map(|ty| ty.text.clone())
                    .collect(),
                line: t.line,
                col: t.col,
            });
            k = e + 1;
            continue;
        }
        k += 1;
    }
    fields
}
