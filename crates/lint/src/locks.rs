//! The lock-site model: find guard-producing acquisitions (`.lock()`,
//! `.read()`, `.write()` with empty argument lists) in a function body,
//! give each a canonical *lock class* derived from its receiver, and
//! compute the guard's live token range.
//!
//! Live ranges are computed over the function's [`Cfg`], not borrowck:
//!
//! * a **let-bound** guard is *killed* by `drop(g)` or by a call that
//!   takes `g` by value (ownership transfers to the callee, which
//!   becomes responsible), and is bounded by the end of its enclosing
//!   lexical block. Kills are path-sensitive: a single forward dataflow
//!   fact ("guard still held") is propagated block-to-block, so a
//!   conditional `drop(g)` in one branch ends liveness on that path but
//!   keeps it on every path that skips the branch — the pre-CFG model
//!   treated any textual `drop`/move as ending the whole range, which
//!   both missed real holds (the skipping path) and over-reported code
//!   after a rejoin where every path had dropped;
//! * a **temporary** guard lives to the end of its statement — including
//!   an attached `if let` / `match` block, whose scrutinee temporaries
//!   really do live that long — except on the left side of a plain
//!   assignment, where Rust evaluates the right operand *first*, so the
//!   guard is acquired only after the RHS ran.
//!
//! Known imprecision (documented in DESIGN.md §10): shadowed rebindings
//! of the same name are treated as one guard, and two locals with the
//! same name in different functions share a lock class.

use crate::callgraph::receiver_chain;
use crate::cfg::Cfg;
use crate::dataflow::{forward, BitSet};
use crate::lexer::{Token, TokenKind};
use crate::parser::FnDef;
use crate::source::SourceFile;

/// Method names that produce a guard when called with no arguments.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One guard with its lock class and live range.
#[derive(Debug)]
pub struct Guard {
    /// Canonical lock identity (see [`lock_class`]).
    pub class: String,
    /// Token index of the acquiring method name.
    pub acquire_idx: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// 1-based column of the acquisition.
    pub col: u32,
    /// Lexical token-index bound (in the file's token stream): from just
    /// after the acquisition call to the end of the enclosing block (for
    /// a binding) or statement (for a temporary). The refined liveness
    /// in [`Guard::covers`] never extends past this range.
    pub range: (usize, usize),
    /// CFG-refined live segments: sorted, disjoint token sub-ranges of
    /// `range` on which some path still holds the guard.
    live: Vec<(usize, usize)>,
}

impl Guard {
    /// Is the guard (possibly) still held at token `idx`? True when any
    /// refined live segment contains the index — i.e. at least one
    /// control-flow path reaches `idx` without dropping or moving the
    /// guard first.
    pub fn covers(&self, idx: usize) -> bool {
        self.live.iter().any(|&(a, b)| (a..b).contains(&idx))
    }
}

/// Every guard acquired in `def`'s body, with liveness refined over the
/// function's `cfg`.
pub fn guards_in(file: &SourceFile, def: &FnDef, cfg: &Cfg) -> Vec<Guard> {
    let tokens = &file.tokens;
    let (start, end) = (def.body.0, def.body.1.min(tokens.len()));
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        let is_acquire = t.kind == TokenKind::Ident
            && ACQUIRE_METHODS.contains(&t.text.as_str())
            && i > start
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'));
        if !is_acquire {
            i += 1;
            continue;
        }
        let chain = receiver_chain(tokens, start, i - 1);
        let class = lock_class(&chain, def);
        let after = i + 3; // past `name ( )`
        let (bound, live) = match let_binding(tokens, start, i) {
            Some(name) => {
                let bound = let_scope_end(tokens, after, end);
                let kills = guard_kills(tokens, after, bound, &name);
                (bound, refine_live(cfg, i, after, bound, &kills))
            }
            None => {
                // A temporary dies at a fixed lexical point regardless of
                // branching: one segment, no dataflow needed.
                let bound = temp_guard_range(tokens, start, after, end, i);
                (bound, vec![(after, bound)])
            }
        };
        out.push(Guard {
            class,
            acquire_idx: i,
            line: t.line,
            col: t.col,
            range: (after, bound),
            live,
        });
        i = after;
    }
    out
}

/// Canonical lock identity from a receiver chain:
///
/// * `self.field` → `Owner::field` (the impl type owns the lock);
/// * `param.field` where the parameter's declared type names `T` →
///   `T::field`;
/// * a bare local/param (`slots[i].lock()`) → `local:name` — name-based,
///   shared across functions (over-approximation, see module docs);
/// * an unknown receiver (call-chain) → `local:?`.
pub fn lock_class(chain: &[String], def: &FnDef) -> String {
    match chain {
        [] => "local:?".to_string(),
        [only] => format!("local:{only}"),
        [first, rest @ ..] => {
            let owner: Option<String> = if first == "self" {
                def.owner.clone()
            } else {
                def.params
                    .iter()
                    .find(|p| &p.name == first)
                    .and_then(|p| p.type_idents.last().cloned())
            };
            match owner {
                Some(ty) => format!("{ty}::{}", rest.join(".")),
                None => format!("local:{first}.{}", rest.join(".")),
            }
        }
    }
}

/// Is the acquisition at `idx` the RHS of `let [mut] name = …`? The
/// receiver chain may sit between: `let g = self.inner.lock()`.
pub(crate) fn let_binding(tokens: &[Token], start: usize, idx: usize) -> Option<String> {
    // Walk back over the receiver chain to its head.
    let mut k = idx; // the method name; tokens[k-1] is `.`
    loop {
        if k <= start + 1 {
            return None;
        }
        let prev = &tokens[k - 1];
        if prev.is_punct('.') || prev.is_punct(':') || prev.kind == TokenKind::Ident {
            k -= 1;
            continue;
        }
        if prev.is_punct(']') {
            let mut depth = 0i32;
            while k > start {
                k -= 1;
                if tokens[k].is_punct(']') {
                    depth += 1;
                } else if tokens[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            continue;
        }
        break;
    }
    // Now expect `= name [mut] let` walking backwards.
    if !(k > start && tokens[k - 1].is_punct('=')) {
        return None;
    }
    // Reject `==`, `+=`, `<=` … compound forms.
    if k >= 2 && tokens[k - 2].is_punct('=') {
        return None;
    }
    let mut b = k - 1;
    let name = tokens.get(b.checked_sub(1)?)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    b -= 1;
    let mut intro = b.checked_sub(1)?;
    if tokens[intro].is_ident("mut") {
        intro = intro.checked_sub(1)?;
    }
    if tokens[intro].is_ident("let") {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Lexical scope bound of a let-bound guard: the close of the enclosing
/// block, or the end of the body.
fn let_scope_end(tokens: &[Token], after: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = after;
    while k < end {
        let t = &tokens[k];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return k; // enclosing block closed
            }
        }
        k += 1;
    }
    end
}

/// Token positions at which guard `name` stops being held *on the path
/// through that token*: `drop(name)` calls, and bare `name` arguments
/// (not `&name`) where ownership moves into the callee. A move kill is
/// placed just before the callee name so the transferring call itself
/// does not count as running under the guard.
fn guard_kills(tokens: &[Token], after: usize, bound: usize, name: &str) -> Vec<usize> {
    let mut kills = Vec::new();
    for k in after..bound.min(tokens.len()) {
        let t = &tokens[k];
        if t.is_ident("drop")
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(k + 2).is_some_and(|t| t.is_ident(name))
            && tokens.get(k + 3).is_some_and(|t| t.is_punct(')'))
        {
            kills.push(k);
        } else if t.is_ident(name)
            && tokens
                .get(k.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('(') || p.is_punct(','))
            && tokens
                .get(k + 1)
                .is_some_and(|n| n.is_punct(')') || n.is_punct(','))
            && !tokens
                .get(k.wrapping_sub(2))
                .is_some_and(|p| p.is_punct('&'))
        {
            kills.push(k.saturating_sub(2));
        }
    }
    kills.sort_unstable();
    kills.dedup();
    kills
}

/// Refine a let-bound guard's liveness over the CFG. With no kill sites
/// the guard is held on every path to the scope end: one segment. With
/// kills, a single "still held" fact is propagated forward — generated
/// in the acquiring block (unless a kill follows the acquisition in that
/// same block), killed by any block containing a kill site — and each
/// live-in block contributes a segment clipped at its first kill.
fn refine_live(
    cfg: &Cfg,
    acquire_idx: usize,
    after: usize,
    bound: usize,
    kills: &[usize],
) -> Vec<(usize, usize)> {
    if after >= bound {
        return Vec::new();
    }
    if kills.is_empty() {
        return vec![(after, bound)];
    }
    let Some(acq_b) = cfg.block_of(acquire_idx) else {
        // Acquisition outside the CFG (malformed body): fall back to the
        // lexical bound — over-approximating toward more coverage.
        return vec![(after, bound)];
    };
    let n = cfg.blocks.len();
    let in_block = |b: usize, k: usize| {
        let r = cfg.blocks[b].range;
        (r.0..r.1).contains(&k)
    };
    let mut gen = vec![BitSet::new(1); n];
    let mut kill = vec![BitSet::new(1); n];
    for (b, set) in kill.iter_mut().enumerate() {
        if kills.iter().any(|&k| in_block(b, k)) {
            set.insert(0);
        }
    }
    let first_kill_after_acq = kills
        .iter()
        .copied()
        .filter(|&k| in_block(acq_b, k) && k >= after)
        .min();
    if first_kill_after_acq.is_none() {
        gen[acq_b].insert(0);
    }
    let (ins, _) = forward(cfg, 1, &gen, &kill);

    let mut segs = Vec::new();
    let acq_end = cfg.blocks[acq_b].range.1;
    segs.push((after, first_kill_after_acq.unwrap_or(acq_end).min(acq_end)));
    for (b, inb) in ins.iter().enumerate() {
        if !inb.contains(0) {
            continue;
        }
        let r = cfg.blocks[b].range;
        let first_kill = kills.iter().copied().filter(|&k| in_block(b, k)).min();
        segs.push((r.0, first_kill.unwrap_or(r.1)));
    }
    // Clamp to the guard's lexical window, then merge into disjoint
    // sorted segments.
    let mut clamped: Vec<(usize, usize)> = segs
        .into_iter()
        .map(|(a, b)| (a.max(after), b.min(bound)))
        .filter(|&(a, b)| a < b)
        .collect();
    clamped.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (a, b) in clamped {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Live range of a temporary guard: to the end of its statement. The
/// statement ends at a `;` at the acquisition's nesting depth, at the
/// close of an attached block opened at that depth (`if let` / `match`
/// bodies — unless an `else` continues the statement), at the close of
/// the *enclosing* block, or — when the guard sits on the left of a
/// plain `=` assignment — already at the `=`, because Rust evaluates the
/// right operand first.
fn temp_guard_range(
    tokens: &[Token],
    start: usize,
    after: usize,
    end: usize,
    acquire_idx: usize,
) -> usize {
    let _ = start;
    let _ = acquire_idx;
    let mut depth = 0i32;
    let mut k = after;
    while k < end {
        let t = &tokens[k];
        if t.is_punct('{') {
            // An attached block at depth 0: the temporary lives through
            // it (if-let / match scrutinee semantics) but not past it.
            if depth == 0 {
                let close = crate::parser::match_delim(tokens, k);
                if tokens.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                    k = close + 1;
                    continue;
                }
                return close.min(end);
            }
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if depth == 0 && t.is_punct(';') {
            return k;
        } else if depth == 0
            && t.is_punct('=')
            && !tokens.get(k + 1).is_some_and(|n| n.is_punct('='))
            && !tokens.get(k.wrapping_sub(1)).is_some_and(|p| {
                p.is_punct('=') || p.is_punct('!') || p.is_punct('<') || p.is_punct('>')
            })
        {
            // `*x.lock() = rhs` — the RHS ran before the lock was taken.
            return k;
        }
        k += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Crates, Model};
    use crate::source::SourceFile;

    fn guards(src: &str) -> (Vec<Guard>, SourceFile) {
        let file = SourceFile::parse("test.rs".to_string(), src, &[]);
        let model = Model::build(std::slice::from_ref(&file), Crates::default());
        let def = model.fns[0].clone();
        let cfg = model.cfgs[0].clone();
        let file = SourceFile::parse("test.rs".to_string(), src, &[]);
        (guards_in(&file, &def, &cfg), file)
    }

    fn covers(file: &SourceFile, g: &Guard, ident: &str) -> bool {
        file.tokens
            .iter()
            .enumerate()
            .any(|(i, t)| t.is_ident(ident) && g.covers(i))
    }

    #[test]
    fn let_bound_guard_lives_to_drop() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); one(); drop(g); two(); } }";
        let (gs, file) = guards(src);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].class, "S::a");
        assert!(covers(&file, &gs[0], "one"));
        assert!(!covers(&file, &gs[0], "two"));
    }

    #[test]
    fn let_bound_guard_lives_to_block_end_without_drop() {
        let src = "fn f(m: &Holder) { { let g = m.inner.lock(); one(); } two(); }";
        let (gs, file) = guards(src);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].class, "Holder::inner");
        assert!(covers(&file, &gs[0], "one"));
        assert!(!covers(&file, &gs[0], "two"));
    }

    #[test]
    fn moved_guard_ends_at_the_transferring_call() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); self.finish(g); after(); } }";
        let (gs, file) = guards(src);
        assert!(!covers(&file, &gs[0], "after"));
        // …but a borrow keeps it live.
        let src2 = "impl S { fn f(&self) { let g = self.a.lock(); look(&g); after(); } }";
        let (gs2, file2) = guards(src2);
        assert!(covers(&file2, &gs2[0], "after"));
    }

    #[test]
    fn temporary_guard_ends_at_statement_semicolon() {
        let src = "fn f(c: &Cache) { c.map.lock().insert(k, v); later(); }";
        let (gs, file) = guards(src);
        assert_eq!(gs[0].class, "Cache::map");
        assert!(covers(&file, &gs[0], "insert"));
        assert!(!covers(&file, &gs[0], "later"));
    }

    #[test]
    fn assignment_lhs_guard_does_not_cover_the_rhs() {
        let src = "fn f() { *slots[i].lock() = compute(x); later(); }";
        let (gs, file) = guards(src);
        assert_eq!(gs[0].class, "local:slots");
        assert!(!covers(&file, &gs[0], "compute"));
    }

    #[test]
    fn if_let_scrutinee_guard_lives_through_the_body_not_past_it() {
        let src = "fn f(c: &Cache) { if let Some(r) = c.map.lock().get(k) { body(); } past(); }";
        let (gs, file) = guards(src);
        assert!(covers(&file, &gs[0], "body"));
        assert!(!covers(&file, &gs[0], "past"));
    }

    #[test]
    fn conditional_drop_keeps_the_skipping_path_live() {
        // `drop(g)` only runs when `c` holds: `two()` is still reached
        // with the guard held on the other path. The pre-CFG model ended
        // the range at the first textual drop and missed this.
        let src = "impl S { fn f(&self) { let g = self.a.lock(); if c { drop(g); } two(); } }";
        let (gs, file) = guards(src);
        assert_eq!(gs.len(), 1);
        assert!(covers(&file, &gs[0], "two"));
    }

    #[test]
    fn drop_on_every_path_ends_liveness_at_the_rejoin() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); \
                   if c { drop(g); } else { drop(g); } two(); } }";
        let (gs, file) = guards(src);
        assert_eq!(gs.len(), 1);
        assert!(!covers(&file, &gs[0], "two"));
    }

    #[test]
    fn code_after_a_branch_drop_inside_that_branch_is_not_covered() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); \
                   if c { drop(g); in_branch(); } two(); } }";
        let (gs, file) = guards(src);
        assert!(!covers(&file, &gs[0], "in_branch"));
        assert!(covers(&file, &gs[0], "two"));
    }

    #[test]
    fn conditional_move_keeps_the_skipping_path_live() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); \
                   if c { self.finish(g); } two(); } }";
        let (gs, file) = guards(src);
        assert!(covers(&file, &gs[0], "two"));
        assert!(!covers(&file, &gs[0], "finish"));
    }

    #[test]
    fn rwlock_read_write_and_bare_locals_classify() {
        let src = "fn f(l: &Shared) { let r = l.table.read(); use_it(&r); }";
        let (gs, _) = guards(src);
        assert_eq!(gs[0].class, "Shared::table");
        // read()/write() with arguments are IO, not lock acquisitions.
        let src2 = "fn g(mut f: File) { f.read(buf); f.write(buf); }";
        let (gs2, _) = guards(src2);
        assert!(gs2.is_empty());
    }
}
