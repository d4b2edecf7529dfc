//! The intraprocedural dataflow layer: a small bitset-based forward
//! fixpoint framework over a [`Cfg`], plus def-use chains for
//! `let`-bound locals — the machinery R7's block-scoped guard liveness
//! and the resource rules (R9–R11) share.
//!
//! Everything here is an over-approximation in a *documented* direction
//! (DESIGN.md §10): uses resolve to the latest strictly-earlier def in
//! token order filtered by CFG reachability, so chains are acyclic by
//! construction; loop-carried reads are recovered conservatively by
//! [`DefUse::is_read`].

use crate::cfg::{BlockId, Cfg};
use crate::lexer::{Token, TokenKind};

// ---------------------------------------------------------------- bitset

/// A fixed-width bitset over `len` facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The empty set over `len` bits.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Set bit `i`; returns `true` when the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let had = self.words[w] & b != 0;
        self.words[w] |= b;
        !had
    }

    /// Is bit `i` set?
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Union `other` into `self`; returns `true` when anything changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            changed |= new != *w;
            *w = new;
        }
        changed
    }

    /// Remove every bit set in `other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// No bits set?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Forward may-analysis to a fixpoint over `cfg` with the classic
/// transfer `out[b] = (in[b] \ kill[b]) ∪ gen[b]` and union meet:
/// `in[b] = ∪ out[p]` over predecessors. Returns `(ins, outs)` indexed
/// by block. Facts are whatever the caller numbers 0..`nbits` (guard
/// ids for R7 liveness). Terminates because sets only grow.
pub fn forward(
    cfg: &Cfg,
    nbits: usize,
    gen: &[BitSet],
    kill: &[BitSet],
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = cfg.blocks.len();
    let mut ins: Vec<BitSet> = (0..n).map(|_| BitSet::new(nbits)).collect();
    let mut outs: Vec<BitSet> = (0..n).map(|_| BitSet::new(nbits)).collect();
    // Seed every block's out with its gen so facts flow even before the
    // first full pass reaches it.
    let mut work: Vec<BlockId> = (0..n).collect();
    while let Some(b) = work.pop() {
        let mut inb = BitSet::new(nbits);
        for &p in &cfg.blocks[b].preds {
            inb.union_with(&outs[p]);
        }
        let mut outb = inb.clone();
        if let Some(k) = kill.get(b) {
            outb.subtract(k);
        }
        if let Some(g) = gen.get(b) {
            outb.union_with(g);
        }
        let in_changed = ins[b] != inb;
        let out_changed = outs[b] != outb;
        ins[b] = inb;
        outs[b] = outb;
        if out_changed || in_changed {
            for &s in &cfg.blocks[b].succs {
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }
    (ins, outs)
}

// --------------------------------------------------------------- def-use

/// One definition of a local: a `let` binding (including `if let` /
/// `while let` / destructuring patterns) or a plain `name = …`
/// reassignment at statement level.
#[derive(Debug, Clone)]
pub struct Def {
    /// The bound name (`_` for wildcard discards — R11 reads those).
    pub name: String,
    /// Token index of the binding identifier.
    pub name_idx: usize,
    /// Token range of the initializer expression (empty when the binding
    /// has none, e.g. `let x;`).
    pub rhs: (usize, usize),
    /// 1-based line of the binding identifier.
    pub line: u32,
    /// 1-based column of the binding identifier.
    pub col: u32,
}

/// Def-use chains for one function body.
#[derive(Debug)]
pub struct DefUse {
    /// All defs in token order.
    pub defs: Vec<Def>,
    /// Per def (parallel to `defs`), the token indices of uses that
    /// resolve to it.
    pub uses: Vec<Vec<usize>>,
}

impl DefUse {
    /// Is this def ever read? Counts resolved uses plus — conservatively
    /// — loop-carried reads: a same-name use textually *before* the def
    /// whose block the def's block can reach back to (e.g. `loop {
    /// use(x); x = io(); }`). Over-approximating reads keeps R11 from
    /// flagging bindings that are consumed on the next iteration.
    pub fn is_read(&self, cfg: &Cfg, tokens: &[Token], def_idx: usize) -> bool {
        if !self.uses[def_idx].is_empty() {
            return true;
        }
        let def = &self.defs[def_idx];
        if def.name == "_" {
            return false;
        }
        let Some(db) = cfg.block_of(def.name_idx) else {
            return true; // unknown position: assume read
        };
        let reach = cfg.reachable_from(db);
        for (i, t) in tokens[cfg.body.0..cfg.body.1.min(tokens.len())]
            .iter()
            .enumerate()
        {
            let idx = cfg.body.0 + i;
            if idx >= def.name_idx || !t.is_ident(&def.name) || self.is_def_site(idx) {
                continue;
            }
            if let Some(ub) = cfg.block_of(idx) {
                if reach[ub] {
                    return true; // def flows around a back edge into it
                }
            }
        }
        false
    }

    fn is_def_site(&self, idx: usize) -> bool {
        self.defs.iter().any(|d| d.name_idx == idx)
    }
}

/// Keywords that can appear inside a `let` pattern without binding.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box"];

/// Build def-use chains for the body covered by `cfg`.
pub fn def_use(tokens: &[Token], cfg: &Cfg) -> DefUse {
    let (start, end) = (cfg.body.0, cfg.body.1.min(tokens.len()));
    let mut defs = collect_defs(tokens, start, end);
    defs.sort_by_key(|d| d.name_idx);
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];

    // Resolve every candidate use to the latest strictly-earlier def of
    // the same name whose rhs does not contain the use (so initializers
    // see the *previous* binding: `let x = x + 1` links to the outer x)
    // and whose block reaches the use's block.
    for u in start..end {
        let t = &tokens[u];
        if t.kind != TokenKind::Ident || t.text == "_" {
            continue;
        }
        if defs.iter().any(|d| d.name_idx == u) {
            continue; // a binding position, not a use
        }
        // `.name` (field/method), `name:` (struct field init / ascription
        // — but not `name::`), `::name` (path segment) are not local uses.
        if u > 0 && tokens[u - 1].is_punct('.') {
            continue;
        }
        if u >= 2 && tokens[u - 1].is_punct(':') && tokens[u - 2].is_punct(':') {
            continue;
        }
        if tokens.get(u + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(u + 2).is_some_and(|n| n.is_punct(':'))
        {
            continue;
        }
        let ub = cfg.block_of(u);
        let candidate = defs
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, d)| d.name == t.text && d.name_idx < u)
            .find(|(_, d)| {
                if (d.rhs.0..d.rhs.1).contains(&u) {
                    return false; // its own initializer
                }
                match (cfg.block_of(d.name_idx), ub) {
                    (Some(db), Some(ub)) => db == ub || cfg.reachable_from(db)[ub],
                    _ => true, // unknown blocks: keep (conservative)
                }
            });
        if let Some((di, _)) = candidate {
            uses[di].push(u);
        }
    }
    DefUse { defs, uses }
}

/// Scan `start..end` for `let` bindings and statement-level
/// reassignments. The scan continues *inside* each initializer: a
/// block-valued rhs (`let x = if c { let y = …; … } else { … };`) holds
/// real bindings that later uses must resolve to, so only the pattern
/// and `=` are stepped over, never the rhs itself.
fn collect_defs(tokens: &[Token], start: usize, end: usize) -> Vec<Def> {
    let mut defs = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.is_ident("let") {
            let in_cond =
                i > start && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
            let (binders, eq) = let_pattern(tokens, i + 1, end);
            let rhs = match eq {
                Some(eq) => rhs_range(tokens, eq + 1, end, in_cond),
                None => {
                    let p = binders.last().map(|&b| b + 1).unwrap_or(i + 1);
                    (p, p)
                }
            };
            for b in &binders {
                defs.push(Def {
                    name: tokens[*b].text.clone(),
                    name_idx: *b,
                    rhs,
                    line: tokens[*b].line,
                    col: tokens[*b].col,
                });
            }
            i = rhs.0.max(i + 1);
            continue;
        }
        // `name = …` reassignment at statement level: previous token is a
        // statement boundary, next is a single `=` (not `==` / `=>`).
        if t.kind == TokenKind::Ident
            && t.text != "_"
            && (i == start
                || tokens[i - 1].is_punct(';')
                || tokens[i - 1].is_punct('{')
                || tokens[i - 1].is_punct('}'))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('='))
            && !tokens
                .get(i + 2)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
        {
            let rhs = rhs_range(tokens, i + 2, end, false);
            defs.push(Def {
                name: t.text.clone(),
                name_idx: i,
                rhs,
                line: t.line,
                col: t.col,
            });
            i = rhs.0.max(i + 1);
            continue;
        }
        i += 1;
    }
    defs
}

/// Parse the pattern after a `let`: collect binding identifiers (skipping
/// type ascriptions after `:` and uppercase path/constructor names) up to
/// the `=` / `;` / `{` that ends it. Returns `(binders, eq_idx)`.
fn let_pattern(tokens: &[Token], from: usize, end: usize) -> (Vec<usize>, Option<usize>) {
    let mut binders = Vec::new();
    let mut depth = 0i32;
    let mut in_type = false;
    let limit = end.min(from + 96); // a 96-token pattern is already absurd
    let mut k = from;
    while k < limit {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('{') {
            // `let S { a, b } = …` — a brace *after a path ident* opens a
            // struct pattern; anywhere else it ends the let (malformed).
            if k > from && tokens[k - 1].kind == TokenKind::Ident {
                depth += 1;
            } else {
                return (binders, None);
            }
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return (binders, None);
            }
        } else if depth == 0 && t.is_punct('=') {
            // `=` ends the pattern (a `==` cannot appear here).
            return (binders, Some(k));
        } else if depth == 0 && t.is_punct(';') {
            return (binders, None); // `let x;` — no initializer
        } else if depth == 0
            && t.is_punct(':')
            && !tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
        {
            in_type = true; // `let x: Type = …`
        } else if !in_type
            && t.kind == TokenKind::Ident
            && !PATTERN_KEYWORDS.contains(&t.text.as_str())
            && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
            // At nesting depth an ident followed by `:` is a struct-pattern
            // field *name* (`S { x: y }`); at depth 0 the `:` is the type
            // ascription, so the ident is the binder itself.
            && (depth == 0 || !tokens.get(k + 1).is_some_and(|n| n.is_punct(':')))
        {
            binders.push(k);
        }
        k += 1;
    }
    (binders, None)
}

/// The initializer range from `from`: to the `;` at depth 0, a depth-0
/// `{` when the let sits in an `if let`/`while let` condition, a depth-0
/// `else` (let-else), or the close of the enclosing block.
fn rhs_range(tokens: &[Token], from: usize, end: usize, stop_at_brace: bool) -> (usize, usize) {
    let mut depth = 0i32;
    let mut k = from;
    while k < end {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('{') {
            if depth == 0 && stop_at_brace {
                return (from, k);
            }
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return (from, k);
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_ident("else")) {
            return (from, k);
        }
        k += 1;
    }
    (from, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn analyze(src: &str) -> (DefUse, Cfg, SourceFile) {
        let file = SourceFile::parse("test.rs".to_string(), src, &[]);
        let parsed = crate::parser::parse_file(&file, 0);
        let def = parsed.fns[0].clone();
        let cfg = Cfg::build(&file.tokens, def.body);
        let du = def_use(&file.tokens, &cfg);
        (du, cfg, file)
    }

    fn def_named<'a>(du: &'a DefUse, name: &str) -> (usize, &'a Def) {
        du.defs
            .iter()
            .enumerate()
            .find(|(_, d)| d.name == name)
            .unwrap_or_else(|| panic!("no def of {name}"))
    }

    #[test]
    fn let_bindings_collect_their_uses() {
        let (du, _, _) = analyze("fn f() { let x = make(); sink(x); x.consume(); }");
        let (i, _) = def_named(&du, "x");
        assert_eq!(du.uses[i].len(), 2, "sink(x) and x.consume()");
    }

    #[test]
    fn shadowing_resolves_to_the_latest_def() {
        let (du, _, _) = analyze("fn f() { let x = a(); let x = b(); use_it(x); }");
        let first = du.defs.iter().position(|d| d.name == "x").unwrap();
        let second = first + 1;
        assert_eq!(du.defs.len(), 2);
        assert!(du.uses[first].is_empty(), "shadowed def has no uses");
        assert_eq!(du.uses[second].len(), 1);
    }

    #[test]
    fn initializer_sees_the_previous_binding_not_itself() {
        let (du, _, _) = analyze("fn f() { let x = seed(); let x = x + 1; done(x); }");
        let first = 0;
        let second = 1;
        // the `x` inside the second initializer resolves to the first def
        assert_eq!(du.uses[first].len(), 1);
        assert_eq!(du.uses[second].len(), 1); // done(x)
    }

    #[test]
    fn destructuring_binds_every_lowercase_ident() {
        let (du, _, _) = analyze("fn f() { let (a, Some(b)) = pair(); go(a); go(b); }");
        def_named(&du, "a");
        def_named(&du, "b");
        assert!(!du.defs.iter().any(|d| d.name == "Some"));
    }

    #[test]
    fn wildcard_discard_is_a_def_with_no_reads() {
        let (du, cfg, file) = analyze("fn f() { let _ = io_call(); }");
        let (i, d) = def_named(&du, "_");
        assert!(du.uses[i].is_empty());
        assert!(!du.is_read(&cfg, &file.tokens, i));
        // The rhs covers the call.
        let call = file
            .tokens
            .iter()
            .position(|t| t.is_ident("io_call"))
            .unwrap();
        assert!((d.rhs.0..d.rhs.1).contains(&call));
    }

    #[test]
    fn type_ascriptions_and_field_inits_are_not_uses() {
        let (du, _, _) = analyze("fn f() { let x: Wide = mk(); let s = S { x: 1 }; keep(s); }");
        let (xi, _) = def_named(&du, "x");
        assert!(du.uses[xi].is_empty(), "field init `x: 1` is not a use");
    }

    #[test]
    fn unreachable_uses_do_not_resolve() {
        let (du, _, _) =
            analyze("fn f() { if c() { let x = io(); return; } else { return; } sink(x); }");
        let (xi, _) = def_named(&du, "x");
        // sink(x) is in unreachable code; the def cannot flow there —
        // but either way the chain stays acyclic and in-bounds.
        for &u in &du.uses[xi] {
            assert!(u > du.defs[xi].name_idx);
        }
    }

    #[test]
    fn loop_carried_reads_count_via_is_read() {
        let (du, cfg, file) = analyze("fn f() { let mut x = init(); loop { send(x); x = io(); } }");
        let re = du
            .defs
            .iter()
            .rposition(|d| d.name == "x")
            .expect("reassignment def");
        // `send(x)` is textually before `x = io()` but reads it on the
        // next iteration: is_read must say true.
        assert!(du.is_read(&cfg, &file.tokens, re));
    }

    #[test]
    fn chains_are_acyclic() {
        let (du, _, _) =
            analyze("fn f() { let a = { let b = one(); b }; let c = a; let a = c; out(a); }");
        // def -> def edges via uses in initializers must have no cycle.
        let n = du.defs.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (di, d) in du.defs.iter().enumerate() {
            for (ui, uses) in du.uses.iter().enumerate() {
                if uses.iter().any(|u| (d.rhs.0..d.rhs.1).contains(u)) {
                    edges[di].push(ui);
                }
            }
        }
        // Kahn: a cycle leaves nodes unprocessed.
        let mut indeg = vec![0usize; n];
        for es in &edges {
            for &e in es {
                indeg[e] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &e in &edges[v] {
                indeg[e] -= 1;
                if indeg[e] == 0 {
                    queue.push(e);
                }
            }
        }
        assert_eq!(seen, n, "def-use chain has a cycle");
    }

    #[test]
    fn bitset_forward_fixpoint_reaches_loop_blocks() {
        let file = SourceFile::parse(
            "t.rs".into(),
            "fn f() { seed(); loop { body(); if done() { break; } } tail(); }",
            &[],
        );
        let parsed = crate::parser::parse_file(&file, 0);
        let cfg = Cfg::build(&file.tokens, parsed.fns[0].body);
        let n = cfg.blocks.len();
        let mut gen: Vec<BitSet> = (0..n).map(|_| BitSet::new(1)).collect();
        gen[Cfg::ENTRY].insert(0);
        let kill: Vec<BitSet> = (0..n).map(|_| BitSet::new(1)).collect();
        let (ins, outs) = forward(&cfg, 1, &gen, &kill);
        // The fact born in the entry must flow into every reachable block.
        let reach = cfg.reachable_from(Cfg::ENTRY);
        for b in 0..n {
            if reach[b] && b != Cfg::ENTRY {
                assert!(ins[b].contains(0), "block {b} must see the fact");
            }
        }
        assert!(outs[Cfg::ENTRY].contains(0));
    }
}
