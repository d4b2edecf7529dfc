//! The workspace call graph: call-site extraction from function bodies,
//! path-based resolution (final path segment + `use`-alias tracking, with
//! a receiver-type hint for method calls, and a path's last qualifier
//! taken as an owner type or else a module of the caller's crate, or of
//! the dependency crate a path's first qualifier names), and a
//! generic fact-propagation fixpoint the interprocedural rules (R6–R8)
//! share.
//!
//! Resolution is scoped by crate: a call resolves only to functions of
//! its own crate and the crates that crate depends on ([`Crates`]), plus
//! impls of the traits it can see. Within that scope it over-approximates:
//! a method call resolves to *every* visible method of that name when the
//! receiver type is not hinted, and a call that resolves to nothing is
//! recorded as an [`Unknown`](CallTarget::Unknown) edge rather than
//! dropped — rules stay sound-by-default by treating unknown edges per
//! their own policy (documented in DESIGN.md §10).

use crate::cfg::Cfg;
use crate::lexer::{Token, TokenKind};
use crate::parser::{self, FnDef, ParsedFile};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`Model::fns`].
pub type FnId = usize;

/// What a call site resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// Candidate definitions in the workspace (over-approximated: every
    /// plausible match).
    Resolved(Vec<FnId>),
    /// No workspace definition matched (std / vendored / macro).
    Unknown,
}

/// One call or method-call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee name.
    pub idx: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// Final path segment (the called name).
    pub name: String,
    /// Path segments before the name (`a::b::name` → `["a", "b"]`).
    pub qualifier: Vec<String>,
    /// `.name(...)` method call?
    pub method: bool,
    /// For method calls: identifier chain of the receiver, outermost
    /// first (`self.inner.lock()` → `["self", "inner"]`); empty when the
    /// receiver is itself a call chain.
    pub recv: Vec<String>,
    /// Token range of the argument list, exclusive of the parens.
    pub args: (usize, usize),
    /// What the call resolves to.
    pub target: CallTarget,
}

/// The whole-workspace interprocedural model: every parsed function, its
/// call sites, and name-resolution indexes.
pub struct Model {
    /// All function definitions, workspace-wide, in (file, source) order.
    pub fns: Vec<FnDef>,
    /// Call sites per function (indexed by [`FnId`]).
    pub calls: Vec<Vec<CallSite>>,
    /// Per-function control-flow graph (indexed by [`FnId`]), shared by
    /// every dataflow-backed rule so each body is lowered exactly once.
    pub cfgs: Vec<Cfg>,
    /// Which functions the code of each file may call.
    pub scope: Scope,
}

/// The workspace's crates, read from their manifests: crate `crates/<n>`
/// is named `n` and the root package is named `""`. Each crate with a
/// manifest sees itself and its transitive workspace dependencies. Code
/// outside a crate with a manifest — every file of a tree without
/// manifests — sees every crate, so such a tree resolves unscoped.
#[derive(Debug, Default)]
pub struct Crates {
    /// Crate name → itself plus its transitive `[dependencies]` among
    /// the workspace's crates.
    sees: BTreeMap<String, BTreeSet<String>>,
}

impl Crates {
    /// Build from `(crate name, Cargo.toml text)` pairs. A root manifest
    /// without `[package]` is a virtual manifest and names no crate.
    pub fn new(manifests: &[(String, String)]) -> Crates {
        let direct: BTreeMap<&str, Vec<&str>> = manifests
            .iter()
            .filter(|(name, text)| !name.is_empty() || text.contains("[package]"))
            .map(|(name, text)| (name.as_str(), dependencies(text)))
            .collect();
        let mut sees = BTreeMap::new();
        for &name in direct.keys() {
            let mut seen = BTreeSet::from([name.to_string()]);
            let mut stack = vec![name];
            while let Some(c) = stack.pop() {
                for &dep in &direct[c] {
                    if direct.contains_key(dep) && seen.insert(dep.to_string()) {
                        stack.push(dep);
                    }
                }
            }
            sees.insert(name.to_string(), seen);
        }
        Crates { sees }
    }

    /// The crate a workspace-relative path belongs to: `crates/<n>/src/…`
    /// is `n`, the root `src/…` is `""`, anything else is in no crate.
    pub fn crate_of(path: &str) -> Option<&str> {
        match path.strip_prefix("crates/") {
            Some(rest) => rest
                .split_once('/')
                .filter(|(_, tail)| tail.starts_with("src/"))
                .map(|(name, _)| name),
            None => path.starts_with("src/").then_some(""),
        }
    }

    /// Is `name` a library crate under `crates/` with a manifest?
    pub fn is_library(&self, name: Option<&str>) -> bool {
        name.is_some_and(|n| !n.is_empty() && self.sees.contains_key(n))
    }

    /// May code in crate `from` name items of crate `to`?
    pub fn sees(&self, from: Option<&str>, to: Option<&str>) -> bool {
        match from.and_then(|f| self.sees.get(f)) {
            Some(visible) => to.is_some_and(|t| visible.contains(t)),
            None => true,
        }
    }
}

/// The dependency names in a manifest's `[dependencies]` table, one per
/// `name.workspace = true` / `name = …` line.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && !line.starts_with('#') {
            if let Some(name) = line.split(['.', '=', ' ']).next().filter(|n| !n.is_empty()) {
                out.push(name);
            }
        }
    }
    out
}

/// Call visibility: the crates of the files, and the crates defining each
/// workspace trait.
#[derive(Debug, Default)]
pub struct Scope {
    /// The crates and what each sees.
    pub crates: Crates,
    /// Crate of each scanned file, by file index.
    file_crates: Vec<Option<String>>,
    /// Trait name → crates defining a trait of that name.
    trait_crates: BTreeMap<String, Vec<Option<String>>>,
}

impl Scope {
    /// The crate of scanned file `file`.
    pub fn crate_of(&self, file: usize) -> Option<&str> {
        self.file_crates.get(file).and_then(Option::as_deref)
    }

    /// May code in file `from` call `callee`? Its crate must be visible
    /// from `from`'s crate, unless `callee` implements a trait visible
    /// there: a generic or a trait object hands the call to impls in
    /// crates the caller never names. A trait outside the workspace (std
    /// or vendored) is visible everywhere.
    pub fn visible(&self, from: usize, callee: &FnDef) -> bool {
        let from = self.crate_of(from);
        self.crates.sees(from, self.crate_of(callee.file))
            || callee.trait_impl.as_ref().is_some_and(|t| {
                self.trait_crates
                    .get(t)
                    .is_none_or(|defs| defs.iter().any(|c| self.crates.sees(from, c.as_deref())))
            })
    }
}

impl Model {
    /// Parse every file and build the call graph, resolved within the
    /// scope `crates` gives each file.
    pub fn build(files: &[SourceFile], crates: Crates) -> Model {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .enumerate()
            .map(|(i, f)| parser::parse_file(f, i))
            .collect();
        let mut fns: Vec<FnDef> = Vec::new();
        let mut scope = Scope {
            crates,
            ..Scope::default()
        };
        for (p, file) in parsed.iter().zip(files) {
            fns.extend(p.fns.iter().cloned());
            let krate = Crates::crate_of(&file.path).map(str::to_string);
            for t in &p.traits {
                let defs = scope.trait_crates.entry(t.clone()).or_default();
                defs.push(krate.clone());
            }
            scope.file_crates.push(krate);
        }

        // Name indexes for resolution.
        let mut names = Names::default();
        for (id, f) in fns.iter().enumerate() {
            names.by_name.entry(&f.name).or_default().push(id);
            let ids = match &f.owner {
                Some(owner) => names.by_owner_name.entry((owner, &f.name)).or_default(),
                None => {
                    let path = files[f.file].path.as_str();
                    let krate = Crates::crate_of(path);
                    let key = (krate, f.name.as_str());
                    names.by_crate_name.entry(key).or_default().push(id);
                    let key = (krate, module_of(path), f.name.as_str());
                    names.by_module_name.entry(key).or_default()
                }
            };
            ids.push(id);
        }

        let mut calls = Vec::with_capacity(fns.len());
        for f in &fns {
            let file = &files[f.file];
            let aliases = &parsed[f.file].aliases;
            let mut sites = extract_calls(file, f.body);
            // Innermost-definition-wins: drop sites that belong to a
            // nested fn whose body is strictly inside this one.
            sites.retain(|site| {
                !fns.iter().any(|other| {
                    !std::ptr::eq(other, f)
                        && other.file == f.file
                        && other.body.0 > f.body.0
                        && other.body.1 <= f.body.1
                        && (other.body.0..other.body.1).contains(&site.idx)
                })
            });
            for site in &mut sites {
                site.target = match resolve(site, f, file, aliases, &names, &scope.crates) {
                    CallTarget::Resolved(mut ids) => {
                        ids.retain(|&id| scope.visible(f.file, &fns[id]));
                        if ids.is_empty() {
                            CallTarget::Unknown
                        } else {
                            CallTarget::Resolved(ids)
                        }
                    }
                    CallTarget::Unknown => CallTarget::Unknown,
                };
            }
            calls.push(sites);
        }
        let cfgs = fns
            .iter()
            .map(|f| {
                let tokens = &files[f.file].tokens;
                Cfg::build(tokens, (f.body.0, f.body.1.min(tokens.len())))
            })
            .collect();
        Model {
            fns,
            calls,
            cfgs,
            scope,
        }
    }

    /// Qualified display name (`Owner::name` / `name`) for reports.
    pub fn display(&self, id: FnId) -> String {
        let f = &self.fns[id];
        match &f.owner {
            Some(owner) => format!("{owner}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Resolved call sites of every function calling `callee`, as
    /// `(caller, call-site index)` pairs.
    pub fn callers_of(&self, callee: FnId) -> Vec<(FnId, usize)> {
        let mut out = Vec::new();
        for (caller, sites) in self.calls.iter().enumerate() {
            for (s, site) in sites.iter().enumerate() {
                if let CallTarget::Resolved(ids) = &site.target {
                    if ids.contains(&callee) {
                        out.push((caller, s));
                    }
                }
            }
        }
        out
    }
}

/// The workspace's functions by name, for resolution.
#[derive(Default)]
struct Names<'a> {
    /// Every function, by name.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// Associated functions and methods, by `(owner type, name)`.
    by_owner_name: BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    /// Free functions, by `(crate, module, name)` ([`module_of`] their
    /// file).
    by_module_name: BTreeMap<(Option<&'a str>, &'a str, &'a str), Vec<FnId>>,
    /// Free functions, by `(crate, name)`: what a crate-root path may
    /// name through a `pub use` re-export.
    by_crate_name: BTreeMap<(Option<&'a str>, &'a str), Vec<FnId>>,
}

/// The module a workspace file holds, as a path call names it: the file
/// stem, the directory of a `mod.rs`, and `crate` for a crate root.
/// Inline `mod m { … }` blocks are not told apart from their file.
fn module_of(path: &str) -> &str {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    match file {
        "lib.rs" | "main.rs" => "crate",
        "mod.rs" => dir.rsplit('/').next().unwrap_or(dir),
        _ => file.strip_suffix(".rs").unwrap_or(file),
    }
}

/// Resolve one call site against the workspace indexes.
fn resolve(
    site: &CallSite,
    caller: &FnDef,
    file: &SourceFile,
    aliases: &[(String, String)],
    names: &Names<'_>,
    crates: &Crates,
) -> CallTarget {
    let Names {
        by_name,
        by_owner_name,
        by_module_name,
        by_crate_name,
    } = names;
    // `use x as y` — calls through the alias resolve to the original.
    let name = aliases
        .iter()
        .find(|(alias, _)| *alias == site.name)
        .map(|(_, original)| original.as_str())
        .unwrap_or(&site.name);

    if site.method {
        // Receiver-type hint: `self` → the impl owner; a `let x: T` or
        // `let x = T::…` binding, or else a parameter, whose type names
        // a known owner narrows to that owner. A call-chain receiver
        // (`make().len()`) carries no chain at all and stays Unknown —
        // over-approximating those to every `len` in the workspace
        // drowns real findings in noise.
        let Some(first) = site.recv.first().map(String::as_str) else {
            return CallTarget::Unknown;
        };
        let owns = |ty: &&String| by_owner_name.contains_key(&(ty.as_str(), name));
        let hint: Option<&str> = if first == "self" {
            caller.owner.as_deref()
        } else {
            let bound = binding_type(&file.tokens, caller.body.0, site.idx, first);
            match bound {
                Some(types) => types.into_iter().find(owns).map(String::as_str),
                None => caller
                    .params
                    .iter()
                    .find(|p| p.name == first)
                    .and_then(|p| p.type_idents.iter().find(owns))
                    .map(String::as_str),
            }
        };
        if let Some(owner) = hint {
            if let Some(ids) = by_owner_name.get(&(owner, name)) {
                return CallTarget::Resolved(ids.clone());
            }
        }
        // Conservative over-approximation: every method of that name
        // (the caller's scope narrows it to the visible ones).
        let mut ids: Vec<FnId> = Vec::new();
        for ((_, n), methods) in by_owner_name.iter() {
            if *n == name {
                ids.extend_from_slice(methods);
            }
        }
        return if ids.is_empty() {
            CallTarget::Unknown
        } else {
            CallTarget::Resolved(ids)
        };
    }

    // `Type::assoc(...)` — the last qualifier segment names the owner
    // (`Self` meaning the enclosing impl type). Failing that,
    // `module::f(...)` (`crate::f(...)` for the crate root) names a free
    // fn of that module in the caller's crate. A path whose first
    // qualifier names a workspace library the caller's crate depends on
    // names that crate instead: `krate::m::f(...)` its module `m`, and
    // `krate::f(...)` its root or, failing that, every free fn `f` of the
    // crate, one of which a root `pub use` re-exports. Any other
    // qualified call targets std or vendored code: Unknown, never the
    // same-named fns of unrelated workspace types.
    if let Some(owner) = site.qualifier.last() {
        let owner = if owner == "Self" {
            caller.owner.as_deref().unwrap_or(owner)
        } else {
            owner
        };
        let caller_crate = Crates::crate_of(&file.path);
        let dependency = site.qualifier.first().map(String::as_str).filter(|&krate| {
            Some(krate) != caller_crate
                && crates.is_library(Some(krate))
                && crates.sees(caller_crate, Some(krate))
        });
        let in_module = |krate, module| by_module_name.get(&(krate, module, name));
        return match by_owner_name
            .get(&(owner, name))
            .or_else(|| match dependency {
                Some(krate) if site.qualifier.len() == 1 => in_module(Some(krate), "crate")
                    .or_else(|| by_crate_name.get(&(Some(krate), name))),
                Some(krate) => in_module(Some(krate), owner),
                None => in_module(caller_crate, owner),
            }) {
            Some(ids) => CallTarget::Resolved(ids.clone()),
            None => CallTarget::Unknown,
        };
    }
    // Unqualified call: every definition of that name is a candidate —
    // free fns and, inside an impl block, same-named associated fns
    // called without `Self::`.
    match by_name.get(name) {
        Some(ids) => CallTarget::Resolved(ids.clone()),
        None => CallTarget::Unknown,
    }
}

/// The type identifiers of the latest `let x: T = …` or `let x = T::…`
/// binding of `name` in `body_start..idx` (`None` when there is none, so
/// the caller falls back to the parameters): the ascribed type's
/// identifiers, or the path segments before the constructor's name.
fn binding_type<'t>(
    tokens: &'t [Token],
    body_start: usize,
    idx: usize,
    name: &str,
) -> Option<Vec<&'t String>> {
    let at = (body_start.max(1)..idx).rev().find(|&k| {
        tokens[k].is_ident(name)
            && (tokens[k - 1].is_ident("let")
                || (k >= 2 && tokens[k - 1].is_ident("mut") && tokens[k - 2].is_ident("let")))
    })?;
    let rest = &tokens[at + 1..idx];
    let mut types = Vec::new();
    if rest.first()?.is_punct(':') {
        let mut angle = 0i32;
        for t in &rest[1..] {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle <= 0 && (t.is_punct('=') || t.is_punct(';')) {
                break;
            } else if t.kind == TokenKind::Ident {
                types.push(&t.text);
            }
        }
    } else if rest.first()?.is_punct('=') {
        // `Ident :: Ident :: … name` — every segment but the last.
        let mut k = 1;
        while rest.get(k).is_some_and(|t| t.kind == TokenKind::Ident)
            && rest.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && rest.get(k + 2).is_some_and(|t| t.is_punct(':'))
        {
            types.push(&rest[k].text);
            k += 3;
        }
    }
    Some(types)
}

/// Extract call and method-call sites from a body token range.
pub fn extract_calls(file: &SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    const NOT_CALLS: &[&str] = &[
        "if", "while", "for", "match", "return", "loop", "fn", "let", "else", "in", "as", "move",
        "break", "continue", "unsafe", "struct", "enum", "impl", "use", "mod", "where",
    ];
    let tokens = &file.tokens;
    let (start, end) = (body.0, body.1.min(tokens.len()));
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // `name(` — possibly with a `::<T>` turbofish between.
        let mut open = i + 1;
        if tokens.get(open).is_some_and(|t| t.is_punct(':'))
            && tokens.get(open + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(open + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut angle = 0i32;
            let mut k = open + 2;
            loop {
                match tokens.get(k) {
                    Some(t) if t.is_punct('<') => angle += 1,
                    Some(t) if t.is_punct('>') => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    Some(t) if t.is_punct(';') => break,
                    Some(_) => {}
                    None => break,
                }
                k += 1;
            }
            open = k + 1;
        }
        if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        // `name!(…)` macros are not calls; `fn name(` is a definition.
        if i > start
            && (tokens[i - 1].is_punct('!')
                || tokens[i - 1].is_ident("fn")
                || tokens[i - 1].is_punct('#'))
        {
            i += 1;
            continue;
        }
        let close = parser::match_delim(tokens, open);
        let method = i > start && tokens[i - 1].is_punct('.');
        let (qualifier, recv) = if method {
            (Vec::new(), receiver_chain(tokens, start, i - 1))
        } else {
            (qualifier_chain(tokens, start, i), Vec::new())
        };
        out.push(CallSite {
            idx: i,
            line: t.line,
            col: t.col,
            name: t.text.clone(),
            qualifier,
            method,
            recv,
            args: (open + 1, close),
            target: CallTarget::Unknown,
        });
        i += 1;
    }
    out
}

/// Walk the `a::b::` path segments preceding a free call name.
fn qualifier_chain(tokens: &[Token], start: usize, name_idx: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut k = name_idx;
    while k >= start + 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].kind == TokenKind::Ident
    {
        segs.push(tokens[k - 3].text.clone());
        k -= 3;
    }
    segs.reverse();
    segs
}

/// The identifier chain of a method receiver, walking back from the `.`
/// at `dot`: `self.inner.lock()` → `["self", "inner"]`. Indexing
/// (`slots[i]`) is stepped over; a receiver ending in a call chain
/// (`foo().bar()`) yields an empty chain (unknown receiver).
pub(crate) fn receiver_chain(tokens: &[Token], start: usize, dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = dot; // tokens[k] is the `.`
    loop {
        if k == start || k == 0 {
            break;
        }
        let prev = &tokens[k - 1];
        if prev.is_punct(']') {
            // step over an index expression
            let mut depth = 0i32;
            let mut j = k - 1;
            loop {
                if tokens[j].is_punct(']') {
                    depth += 1;
                } else if tokens[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == start || j == 0 {
                    break;
                }
                j -= 1;
            }
            k = j;
            continue;
        }
        if prev.is_punct(')') {
            return Vec::new(); // receiver is a call chain — unknown
        }
        if prev.kind == TokenKind::Ident {
            chain.push(prev.text.clone());
            k -= 1;
            // keep walking through `a.b` / `a::b` links
            if k > start
                && k >= 2
                && ((tokens[k - 1].is_punct('.'))
                    || (tokens[k - 1].is_punct(':') && tokens[k - 2].is_punct(':')))
            {
                if tokens[k - 1].is_punct('.') {
                    k -= 1;
                } else {
                    k -= 2;
                }
                continue;
            }
            break;
        }
        break;
    }
    chain.reverse();
    chain
}

/// How a propagated fact reached a function.
#[derive(Debug, Clone)]
pub enum Origin {
    /// The fact holds directly in this function's body.
    Direct {
        /// 1-based line of the witnessing token.
        line: u32,
        /// What the witness is (e.g. the acquired lock or blocking call).
        what: String,
    },
    /// The fact holds in a callee reached from this call site.
    Via {
        /// 1-based line of the forwarding call site.
        line: u32,
        /// Name of the call at the site.
        call: String,
        /// The callee the fact came from.
        callee: FnId,
    },
}

/// Propagate per-function facts up the call graph to a fixpoint: a
/// function has fact `k` if its body witnesses it directly or any
/// resolved callee has it. Unknown edges propagate nothing (documented
/// approximation). Returns, per function, the facts with one witness
/// each — chains are reconstructed by following [`Origin::Via`].
pub fn propagate_facts(
    model: &Model,
    direct: &[Vec<(String, Origin)>],
) -> Vec<BTreeMap<String, Origin>> {
    let mut facts: Vec<BTreeMap<String, Origin>> =
        direct.iter().map(|v| v.iter().cloned().collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..model.fns.len() {
            for site in &model.calls[id] {
                let CallTarget::Resolved(callees) = &site.target else {
                    continue;
                };
                for &callee in callees {
                    if callee == id {
                        continue;
                    }
                    let keys: Vec<String> = facts[callee].keys().cloned().collect();
                    for k in keys {
                        facts[id].entry(k).or_insert_with(|| {
                            changed = true;
                            Origin::Via {
                                line: site.line,
                                call: site.name.clone(),
                                callee,
                            }
                        });
                    }
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

/// Render the witness chain for fact `key` starting at `id`:
/// `held in f (a.rs:3) → via g() (a.rs:4) → acquired in h (b.rs:9)`.
pub fn witness_chain(
    model: &Model,
    files: &[SourceFile],
    facts: &[BTreeMap<String, Origin>],
    id: FnId,
    key: &str,
) -> String {
    let mut parts = Vec::new();
    let mut cur = id;
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 64 {
            break; // cycles in Via links cannot happen, but stay bounded
        }
        let path = |f: FnId| files[model.fns[f].file].path.clone();
        match facts[cur].get(key) {
            Some(Origin::Direct { line, what }) => {
                parts.push(format!(
                    "{} in `{}` ({}:{})",
                    what,
                    model.display(cur),
                    path(cur),
                    line
                ));
                break;
            }
            Some(Origin::Via { line, call, callee }) => {
                parts.push(format!(
                    "via `{}()` in `{}` ({}:{})",
                    call,
                    model.display(cur),
                    path(cur),
                    line
                ));
                cur = *callee;
            }
            None => break,
        }
    }
    parts.join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn model(src: &str) -> (Model, Vec<SourceFile>) {
        let files = vec![SourceFile::parse("test.rs".to_string(), src, &[])];
        (Model::build(&files, Crates::default()), files)
    }

    fn fn_id(m: &Model, name: &str) -> FnId {
        m.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn free_calls_resolve_and_unknowns_are_recorded() {
        let (m, _) = model("fn a() { b(); missing(); }\nfn b() {}");
        let a = fn_id(&m, "a");
        let b = fn_id(&m, "b");
        let targets: Vec<(&str, &CallTarget)> = m.calls[a]
            .iter()
            .map(|s| (s.name.as_str(), &s.target))
            .collect();
        assert_eq!(targets.len(), 2);
        assert_eq!(*targets[0].1, CallTarget::Resolved(vec![b]));
        assert_eq!(*targets[1].1, CallTarget::Unknown);
    }

    #[test]
    fn method_calls_resolve_by_receiver_hint() {
        let src = "struct A; struct B;\n\
                   impl A { fn go(&self) {} }\n\
                   impl B { fn go(&self) {} }\n\
                   fn use_a(a: &A) { a.go(); }";
        let (m, _) = model(src);
        let use_a = fn_id(&m, "use_a");
        let a_go = m
            .fns
            .iter()
            .position(|f| f.name == "go" && f.owner.as_deref() == Some("A"))
            .unwrap();
        assert_eq!(m.calls[use_a][0].target, CallTarget::Resolved(vec![a_go]));
    }

    #[test]
    fn unhinted_method_calls_over_approximate_to_all_candidates() {
        let src = "struct A; struct B;\n\
                   impl A { fn go(&self) {} }\n\
                   impl B { fn go(&self) {} }\n\
                   fn any(x: &Unknown) { x.go(); }";
        let (m, _) = model(src);
        let any = fn_id(&m, "any");
        match &m.calls[any][0].target {
            CallTarget::Resolved(ids) => assert_eq!(ids.len(), 2),
            other => panic!("expected over-approximated resolution, got {other:?}"),
        }
    }

    #[test]
    fn let_bindings_hint_the_receiver_type() {
        let src = "struct A; struct B;\n\
                   impl A { fn new() -> A { A } fn go(&self) {} }\n\
                   impl B { fn go(&self) {} }\n\
                   fn typed() { let x: A = make(); x.go(); }\n\
                   fn built() { let mut x = A::new(); x.go(); }";
        let (m, _) = model(src);
        let a_go = m
            .fns
            .iter()
            .position(|f| f.name == "go" && f.owner.as_deref() == Some("A"))
            .unwrap();
        for caller in ["typed", "built"] {
            let site = m.calls[fn_id(&m, caller)]
                .iter()
                .find(|s| s.name == "go")
                .unwrap();
            assert_eq!(site.target, CallTarget::Resolved(vec![a_go]), "{caller}");
        }
    }

    #[test]
    fn crates_see_themselves_and_their_transitive_dependencies() {
        let crates = Crates::new(&[
            ("".into(), "[workspace]\nmembers = [\"crates/*\"]\n".into()),
            (
                "a".into(),
                "[package]\n[dependencies]\nb.workspace = true\n".into(),
            ),
            (
                "b".into(),
                "[package]\n[dependencies]\nc = { workspace = true }\n".into(),
            ),
            (
                "c".into(),
                "[package]\n[dev-dependencies]\na.workspace = true\n".into(),
            ),
        ]);
        assert!(crates.sees(Some("a"), Some("a")));
        assert!(
            crates.sees(Some("a"), Some("c")),
            "dependencies are transitive"
        );
        assert!(!crates.sees(Some("b"), Some("a")));
        assert!(
            !crates.sees(Some("c"), Some("a")),
            "dev-dependencies are test code"
        );
        assert!(
            crates.sees(Some(""), Some("a")),
            "a virtual root is unscoped"
        );
        assert!(
            crates.sees(None, Some("b")),
            "code outside a crate is unscoped"
        );
        assert_eq!(Crates::crate_of("crates/a/src/x/y.rs"), Some("a"));
        assert_eq!(Crates::crate_of("src/main.rs"), Some(""));
        assert_eq!(Crates::crate_of("crates/a/tests/t.rs"), None);
    }

    #[test]
    fn use_alias_resolves_to_the_original() {
        let src = "use helpers::real as fake;\nfn a() { fake(); }\nfn real() {}";
        let (m, _) = model(src);
        let a = fn_id(&m, "a");
        let real = fn_id(&m, "real");
        assert_eq!(m.calls[a][0].target, CallTarget::Resolved(vec![real]));
    }

    #[test]
    fn module_paths_resolve_to_free_fns_of_the_callers_crate() {
        let files = vec![
            SourceFile::parse(
                "crates/a/src/lib.rs".to_string(),
                "fn root() {}
fn top() { index::write(); crate::root(); other::write(); }",
                &[],
            ),
            SourceFile::parse("crates/a/src/index.rs".to_string(), "fn write() {}", &[]),
            SourceFile::parse("crates/b/src/index.rs".to_string(), "fn write() {}", &[]),
            SourceFile::parse(
                "crates/a/src/other/mod.rs".to_string(),
                "fn write() {}",
                &[],
            ),
        ];
        let m = Model::build(&files, Crates::default());
        let id = |path: &str, name: &str| {
            m.fns
                .iter()
                .position(|f| files[f.file].path == path && f.name == name)
                .unwrap()
        };
        let targets: Vec<&CallTarget> = m.calls[id("crates/a/src/lib.rs", "top")]
            .iter()
            .map(|s| &s.target)
            .collect();
        assert_eq!(
            targets,
            [
                &CallTarget::Resolved(vec![id("crates/a/src/index.rs", "write")]),
                &CallTarget::Resolved(vec![id("crates/a/src/lib.rs", "root")]),
                &CallTarget::Resolved(vec![id("crates/a/src/other/mod.rs", "write")]),
            ]
        );
    }

    #[test]
    fn crate_paths_resolve_into_the_named_dependency() {
        let files = vec![
            SourceFile::parse(
                "crates/a/src/lib.rs".to_string(),
                "fn top() { b::root(); b::io::write(); c::root(); b::missing(); b::write(); }",
                &[],
            ),
            SourceFile::parse("crates/b/src/lib.rs".to_string(), "fn root() {}", &[]),
            SourceFile::parse("crates/b/src/io.rs".to_string(), "fn write() {}", &[]),
            SourceFile::parse("crates/c/src/lib.rs".to_string(), "fn root() {}", &[]),
        ];
        let crates = Crates::new(&[
            (
                "a".into(),
                "[package]\n[dependencies]\nb.workspace = true\n".into(),
            ),
            ("b".into(), "[package]\n".into()),
            ("c".into(), "[package]\n".into()),
        ]);
        let m = Model::build(&files, crates);
        let id = |path: &str, name: &str| {
            m.fns
                .iter()
                .position(|f| files[f.file].path == path && f.name == name)
                .unwrap()
        };
        let targets: Vec<&CallTarget> = m.calls[id("crates/a/src/lib.rs", "top")]
            .iter()
            .map(|s| &s.target)
            .collect();
        assert_eq!(
            targets,
            [
                &CallTarget::Resolved(vec![id("crates/b/src/lib.rs", "root")]),
                &CallTarget::Resolved(vec![id("crates/b/src/io.rs", "write")]),
                &CallTarget::Unknown, // `a` does not depend on `c`
                &CallTarget::Unknown,
                // Not at `b`'s root: the `io` fn a `pub use` may re-export.
                &CallTarget::Resolved(vec![id("crates/b/src/io.rs", "write")]),
            ]
        );
    }

    #[test]
    fn receiver_chains_walk_fields_and_indexing() {
        let src = "fn f(&self) { self.inner.lock(); slots[i].lock(); make().lock(); }";
        let (m, _) = model(src);
        let f = fn_id(&m, "f");
        let recvs: Vec<Vec<String>> = m.calls[f]
            .iter()
            .filter(|s| s.name == "lock")
            .map(|s| s.recv.clone())
            .collect();
        assert_eq!(recvs[0], ["self", "inner"]);
        assert_eq!(recvs[1], ["slots"]);
        assert!(recvs[2].is_empty());
    }

    #[test]
    fn facts_propagate_transitively_with_witness_chains() {
        let src = "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}";
        let (m, files) = model(src);
        let leaf = fn_id(&m, "leaf");
        let top = fn_id(&m, "top");
        let mut direct: Vec<Vec<(String, Origin)>> = vec![Vec::new(); m.fns.len()];
        direct[leaf].push((
            "blocks".to_string(),
            Origin::Direct {
                line: 3,
                what: "calls `recv`".to_string(),
            },
        ));
        let facts = propagate_facts(&m, &direct);
        assert!(facts[top].contains_key("blocks"));
        let chain = witness_chain(&m, &files, &facts, top, "blocks");
        assert!(chain.contains("`mid()`"), "chain: {chain}");
        assert!(chain.contains("calls `recv`"), "chain: {chain}");
    }
}
