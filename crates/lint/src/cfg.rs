//! Per-function control-flow graphs over the token stream.
//!
//! A [`Cfg`] partitions a function body's token range into basic blocks
//! and connects them with edges for `if`/`else if`/`else`, `match` arms,
//! `loop`/`while`/`for` (back edges plus `break`/`continue` targets),
//! `return`, and the early-exit edge of every `?`. Closure bodies become
//! *nested* CFGs recorded in [`Cfg::closures`]; their tokens stay inside
//! the enclosing block's range so that range-based queries over the
//! outer function conservatively include captured work (documented
//! over-approximation, DESIGN.md §10).
//!
//! Like the item parser this is tolerant, not a Rust parser: it never
//! panics or loops on arbitrary input (pinned by the CFG proptests), and
//! control nesting deeper than [`crate::parser::MAX_DELIM_DEPTH`]
//! degrades to straight-line consumption instead of recursing further.
//!
//! Block ranges tile the body left to right: every token belongs to at
//! most one block, a construct's closing `}` belongs to the *following*
//! block (join/else), and blocks that no path can reach (code after a
//! diverging `if`/`match`, a `loop` without `break`) have no path from
//! [`Cfg::ENTRY`] ([`Cfg::reachable_from`]).

use crate::lexer::{Token, TokenKind};
use crate::parser::{match_delim, MAX_DELIM_DEPTH};

/// Index of a block in [`Cfg::blocks`].
pub type BlockId = usize;

/// One basic block: a contiguous token range plus its CFG edges.
#[derive(Debug, Clone)]
pub struct Block {
    /// Token-index range `[start, end)` in the file's token stream; may
    /// be empty for synthetic blocks (the exit, empty joins).
    pub range: (usize, usize),
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks (mirror of `succs`).
    pub preds: Vec<BlockId>,
}

/// A closure found inside the function: its body token range and the
/// nested CFG built over that range.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Token range of the closure body (inside the braces for block
    /// bodies, the whole expression otherwise).
    pub body: (usize, usize),
    /// The closure's own control-flow graph.
    pub cfg: Cfg,
}

/// The control-flow graph of one function body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All blocks; `blocks[Cfg::ENTRY]` starts the body,
    /// `blocks[Cfg::EXIT]` is the synthetic exit every
    /// `return`/`?`/fallthrough edge targets.
    pub blocks: Vec<Block>,
    /// Nested closure CFGs in source order.
    pub closures: Vec<Closure>,
    /// The body token range the graph covers.
    pub body: (usize, usize),
}

impl Cfg {
    /// The entry block's id.
    pub const ENTRY: BlockId = 0;
    /// The synthetic exit block's id (its range is empty).
    pub const EXIT: BlockId = 1;

    /// Build the CFG for the body token range `body` (exclusive of the
    /// fn's braces, as in [`crate::parser::FnDef::body`]). Total work is
    /// linear in the range; malformed input degrades to coarser blocks.
    pub fn build(tokens: &[Token], body: (usize, usize)) -> Cfg {
        Self::build_bounded(tokens, body, 0)
    }

    fn build_bounded(tokens: &[Token], body: (usize, usize), closure_depth: u32) -> Cfg {
        let start = body.0.min(tokens.len());
        let end = body.1.min(tokens.len()).max(start);
        let mut b = Builder {
            tokens,
            end,
            blocks: vec![
                Block {
                    range: (start, start),
                    succs: Vec::new(),
                    preds: Vec::new(),
                },
                Block {
                    range: (end, end),
                    succs: Vec::new(),
                    preds: Vec::new(),
                },
            ],
            closures: Vec::new(),
            loops: Vec::new(),
            depth: 0,
            closure_depth,
        };
        if let Some(fall) = b.lower(start, end, Cfg::ENTRY) {
            b.edge(fall, Cfg::EXIT);
        }
        let mut cfg = Cfg {
            blocks: b.blocks,
            closures: b.closures,
            body: (start, end),
        };
        cfg.finalize();
        cfg
    }

    /// Fill `preds`.
    fn finalize(&mut self) {
        for id in 0..self.blocks.len() {
            let succs = self.blocks[id].succs.clone();
            for s in succs {
                if !self.blocks[s].preds.contains(&id) {
                    self.blocks[s].preds.push(id);
                }
            }
        }
    }

    /// The block whose range contains token `idx`, if any (the synthetic
    /// exit and empty joins own no tokens; tokens consumed past the depth
    /// budget may fall into coarse blocks but never into none — gaps only
    /// appear on malformed input).
    pub fn block_of(&self, idx: usize) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| (b.range.0..b.range.1).contains(&idx))
    }

    /// Bitvector of blocks reachable from `from` (inclusive) via `succs`.
    pub fn reachable_from(&self, from: BlockId) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if from >= self.blocks.len() {
            return seen;
        }
        let mut work = vec![from];
        seen[from] = true;
        while let Some(b) = work.pop() {
            for &s in &self.blocks[b].succs {
                if s < seen.len() && !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        seen
    }
}

/// An enclosing loop during lowering: where `continue` and `break` go.
struct LoopCtx {
    continue_to: BlockId,
    break_to: BlockId,
}

struct Builder<'t> {
    tokens: &'t [Token],
    end: usize,
    blocks: Vec<Block>,
    closures: Vec<Closure>,
    loops: Vec<LoopCtx>,
    depth: u32,
    closure_depth: u32,
}

/// Closures nested deeper than this get a trivial single-block CFG
/// instead of a real one — fuzzed input nests arbitrarily.
const MAX_CLOSURE_DEPTH: u32 = 8;

impl<'t> Builder<'t> {
    fn new_block(&mut self, at: usize) -> BlockId {
        self.blocks.push(Block {
            range: (at, at),
            succs: Vec::new(),
            preds: Vec::new(),
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Extend `b`'s range to cover tokens up to `to` (exclusive).
    fn extend(&mut self, b: BlockId, to: usize) {
        let r = &mut self.blocks[b].range;
        r.1 = r.1.max(to.min(self.end));
    }

    /// Lower `start..end` starting in block `cur`; return the block that
    /// falls through past `end`, or `None` when every path diverges.
    fn lower(&mut self, start: usize, end: usize, cur: BlockId) -> Option<BlockId> {
        if self.depth >= MAX_DELIM_DEPTH {
            // Past the budget: consume straight-line, never recurse.
            self.extend(cur, end);
            return Some(cur);
        }
        self.depth += 1;
        let out = self.lower_inner(start, end, cur);
        self.depth -= 1;
        out
    }

    fn lower_inner(&mut self, start: usize, end: usize, mut cur: BlockId) -> Option<BlockId> {
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            let next = if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        let (fall, ni) = self.lower_if(i, end, cur);
                        match fall {
                            Some(b) => cur = b,
                            None => {
                                if ni >= end {
                                    return None;
                                }
                                cur = self.new_block(ni); // unreachable tail
                            }
                        }
                        ni
                    }
                    "match" => {
                        let (fall, ni) = self.lower_match(i, end, cur);
                        match fall {
                            Some(b) => cur = b,
                            None => {
                                if ni >= end {
                                    return None;
                                }
                                cur = self.new_block(ni);
                            }
                        }
                        ni
                    }
                    "loop" | "while" | "for" => {
                        let (fall, ni) = self.lower_loop(i, end, cur);
                        cur = fall;
                        ni
                    }
                    "return" | "break" | "continue" => {
                        let ni = self.lower_jump(i, end, cur);
                        if ni >= end {
                            return None;
                        }
                        cur = self.new_block(ni); // code after a jump
                        ni
                    }
                    "fn" => {
                        // A nested `fn` item: its body is a separate
                        // function (with its own CFG via the model); the
                        // tokens stay in `cur` as opaque straight-line.
                        self.opaque_to_block_end(i, end, cur)
                    }
                    _ => {
                        self.extend(cur, i + 1);
                        i + 1
                    }
                }
            } else if t.is_punct('?') {
                // Early return on `Err`/`None`: edge to the exit, then a
                // fresh fallthrough block on the `Ok` path.
                self.extend(cur, i + 1);
                self.edge(cur, Cfg::EXIT);
                let nxt = self.new_block(i + 1);
                self.edge(cur, nxt);
                cur = nxt;
                i + 1
            } else if t.is_punct('{') {
                // A bare/`unsafe` block or struct literal: lower inline —
                // inner control flow is real control flow.
                let close = match_delim(self.tokens, i);
                self.extend(cur, i + 1);
                match self.lower(i + 1, close.min(end), cur) {
                    Some(b) => {
                        cur = b;
                        self.extend(cur, (close + 1).min(end));
                    }
                    None => {
                        if close + 1 >= end {
                            return None;
                        }
                        cur = self.new_block(close + 1);
                    }
                }
                close + 1
            } else if t.is_punct('|') && self.closure_starts(start, i) {
                match self.lower_closure(i, end, cur) {
                    Some(ni) => ni,
                    None => {
                        self.extend(cur, i + 1);
                        i + 1
                    }
                }
            } else {
                self.extend(cur, i + 1);
                i + 1
            };
            i = next.max(i + 1);
        }
        Some(cur)
    }

    /// Lower `if cond { … } [else if … ] [else { … }]` with `tokens[i]`
    /// being the `if`. Returns the fallthrough block (`None` when both
    /// arms diverge) and the index after the whole chain.
    fn lower_if(&mut self, i: usize, end: usize, cur: BlockId) -> (Option<BlockId>, usize) {
        let Some(open) = self.find_open_brace(i + 1, end) else {
            self.extend(cur, i + 1);
            return (Some(cur), i + 1);
        };
        self.extend(cur, open + 1); // cond tokens + `{` stay pre-branch
        let close = match_delim(self.tokens, open).min(end);
        let then_entry = self.new_block(open + 1);
        self.edge(cur, then_entry);
        let then_exit = self.lower(open + 1, close, then_entry);

        let has_else = close + 1 < end && self.tokens[close + 1].is_ident("else");
        if !has_else {
            let after = (close + 1).min(end);
            let join = self.new_block(close.min(end)); // owns the `}`
            self.extend(join, after);
            self.edge(cur, join); // false path skips the then-block
            if let Some(b) = then_exit {
                self.edge(b, join);
            }
            return (Some(join), after);
        }

        // `} else` tokens open the else block.
        let else_entry = self.new_block(close);
        self.edge(cur, else_entry);
        let e = close + 2; // token after `else`
        let (else_exit, after) = if e < end && self.tokens[e].is_ident("if") {
            self.extend(else_entry, e);
            self.lower_if(e, end, else_entry)
        } else if e < end && self.tokens[e].is_punct('{') {
            self.extend(else_entry, e + 1);
            let close2 = match_delim(self.tokens, e).min(end);
            let exit = self.lower(e + 1, close2, else_entry);
            // The else's closing `}` belongs to its fallthrough block.
            if let Some(b) = exit {
                self.extend(b, (close2 + 1).min(end));
            }
            (exit, (close2 + 1).min(end))
        } else {
            // Malformed `else` tail: fall through.
            self.extend(else_entry, e.min(end));
            (Some(else_entry), e.min(end))
        };

        match (then_exit, else_exit) {
            (None, None) => (None, after),
            _ => {
                let join = self.new_block(after);
                if let Some(b) = then_exit {
                    self.edge(b, join);
                }
                if let Some(b) = else_exit {
                    self.edge(b, join);
                }
                (Some(join), after)
            }
        }
    }

    /// Lower `match scrutinee { pat [if g] => body, … }`. Each arm gets
    /// its own block edging to a join after the match; the match itself
    /// is total, so `cur` only reaches the join through an arm.
    fn lower_match(&mut self, i: usize, end: usize, cur: BlockId) -> (Option<BlockId>, usize) {
        let Some(open) = self.find_open_brace(i + 1, end) else {
            self.extend(cur, i + 1);
            return (Some(cur), i + 1);
        };
        self.extend(cur, open + 1);
        let close = match_delim(self.tokens, open).min(end);
        let join = self.new_block(close); // owns the closing `}`
        self.extend(join, (close + 1).min(end));
        let mut any_arm = false;
        let mut any_falls = false;

        let mut p = open + 1;
        while p < close {
            // `pattern [if guard] =>` — find the arrow at depth 0.
            let Some(arrow) = self.find_arrow(p, close) else {
                // Malformed tail: lower what remains as one arm.
                let entry = self.new_block(p);
                self.edge(cur, entry);
                if let Some(b) = self.lower(p, close, entry) {
                    self.edge(b, join);
                    any_falls = true;
                }
                any_arm = true;
                break;
            };
            let entry = self.new_block(p);
            self.edge(cur, entry);
            self.extend(entry, arrow + 2); // pattern + guard + `=>`
            let (body_end, next_p) = self.arm_body_end(arrow + 2, close);
            let exit = self.lower(arrow + 2, body_end, entry);
            if let Some(b) = exit {
                self.extend(b, next_p); // the `,`/`}` ending the arm
                self.edge(b, join);
                any_falls = true;
            }
            any_arm = true;
            p = next_p.max(p + 1);
        }
        if !any_arm {
            // `match x {}` (or unparsed): conservatively fall through.
            self.edge(cur, join);
            any_falls = true;
        }
        let after = (close + 1).min(end);
        if any_falls {
            (Some(join), after)
        } else {
            (None, after)
        }
    }

    /// Lower `loop`/`while`/`for` at `tokens[i]`. Returns the join block
    /// (where `break` lands / the loop condition fails) and the index
    /// after the loop. The join of a break-less `loop` keeps no preds and
    /// is reported unreachable — which is exactly right.
    fn lower_loop(&mut self, i: usize, end: usize, cur: BlockId) -> (BlockId, usize) {
        let kw = self.tokens[i].text.as_str();
        let Some(open) = self.find_open_brace(i + 1, end) else {
            self.extend(cur, i + 1);
            // Treat as a plain token; reuse cur as the "join".
            return (cur, i + 1);
        };
        let close = match_delim(self.tokens, open).min(end);
        let join = self.new_block(close); // owns the closing `}`
        self.extend(join, (close + 1).min(end));
        let (head, body_entry) = if kw == "loop" {
            self.extend(cur, open + 1);
            let body = self.new_block(open + 1);
            self.edge(cur, body);
            (body, body) // `continue` re-enters the body directly
        } else {
            // `while cond {` / `for pat in iter {`: the head re-evaluates
            // the condition/iterator each round and can exit to the join.
            let head = self.new_block(i);
            self.edge(cur, head);
            self.extend(head, open + 1);
            let body = self.new_block(open + 1);
            self.edge(head, body);
            self.edge(head, join);
            (head, body)
        };
        self.loops.push(LoopCtx {
            continue_to: head,
            break_to: join,
        });
        let body_exit = self.lower(open + 1, close, body_entry);
        self.loops.pop();
        if let Some(b) = body_exit {
            self.edge(b, head); // back edge
        }
        (join, (close + 1).min(end))
    }

    /// Lower `return`/`break`/`continue` plus its value expression up to
    /// the statement boundary; add the jump edge. Returns the index after
    /// the statement — the caller starts a fresh (unreachable) block.
    fn lower_jump(&mut self, i: usize, end: usize, cur: BlockId) -> usize {
        let target = match self.tokens[i].text.as_str() {
            "return" => Cfg::EXIT,
            "break" => self.loops.last().map_or(Cfg::EXIT, |l| l.break_to),
            _ => self.loops.last().map_or(Cfg::EXIT, |l| l.continue_to),
        };
        // Consume the value expression (e.g. `return Err(e);`) as
        // straight line: it runs before the jump. Control flow *inside*
        // it is not decomposed (documented over-approximation).
        let mut depth = 0i32;
        let mut k = i + 1;
        while k < end {
            let t = &self.tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break; // enclosing block closes the statement
                }
            } else if depth == 0 && t.is_punct(';') {
                k += 1; // the `;` belongs to the jump statement
                break;
            }
            k += 1;
        }
        self.extend(cur, k.min(end));
        self.edge(cur, target);
        k.min(end)
    }

    /// Can the `|` at `i` start a closure? Only after tokens that cannot
    /// end a value: start of range, an opening delimiter, `,`/`=`/`;`/
    /// `:`/`{`/`[`/`(`, or one of the few keywords an expression can
    /// follow. `a | b` and or-patterns stay bitwise/pattern ors.
    fn closure_starts(&self, start: usize, i: usize) -> bool {
        if i == start || i == 0 {
            return true;
        }
        let prev = &self.tokens[i - 1];
        match prev.kind {
            TokenKind::Ident => matches!(
                prev.text.as_str(),
                "move" | "return" | "else" | "in" | "if" | "while" | "match" | "break"
            ),
            TokenKind::Punct => matches!(
                prev.text.as_str(),
                "(" | "," | "=" | ";" | "{" | "[" | ":" | ">"
            ),
            _ => false,
        }
    }

    /// Lower a closure starting at the `|` at `i`: find the closing `|`,
    /// take the body (braced block or trailing expression), build its
    /// nested CFG, and consume the whole closure into `cur` as straight
    /// line. Returns the index after the closure, or `None` when the
    /// shape does not parse as a closure.
    fn lower_closure(&mut self, i: usize, end: usize, cur: BlockId) -> Option<usize> {
        // Params: scan for the closing `|` at delimiter depth 0.
        let mut depth = 0i32;
        let mut k = i + 1;
        let params_close = loop {
            if k >= end || k - i > 64 {
                return None;
            }
            let t = &self.tokens[k];
            if depth == 0 && t.is_punct('|') {
                break k;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                return None;
            }
            k += 1;
        };
        // Body: skip `-> Type` to a braced block, else take the
        // expression up to the enclosing `,` / `;` / closing delimiter.
        let mut b = params_close + 1;
        if b < end
            && self.tokens[b].is_punct('-')
            && self.tokens.get(b + 1).is_some_and(|t| t.is_punct('>'))
        {
            while b < end && !self.tokens[b].is_punct('{') {
                b += 1;
            }
        }
        let body = if b < end && self.tokens[b].is_punct('{') {
            let close = match_delim(self.tokens, b).min(end);
            ((b + 1).min(close), close)
        } else {
            let mut depth = 0i32;
            let mut k = b;
            while k < end {
                let t = &self.tokens[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 && (t.is_punct(',') || t.is_punct(';')) {
                    break;
                }
                k += 1;
            }
            (b, k)
        };
        let after = if b < end && self.tokens[b].is_punct('{') {
            (body.1 + 1).min(end)
        } else {
            body.1
        };
        let cfg = if self.closure_depth >= MAX_CLOSURE_DEPTH {
            Cfg::build_bounded(self.tokens, (body.0, body.0), self.closure_depth + 1)
        } else {
            Cfg::build_bounded(self.tokens, body, self.closure_depth + 1)
        };
        self.closures.push(Closure { body, cfg });
        // The closure's tokens stay straight-line in the outer block.
        self.extend(cur, after.max(i + 1));
        Some(after.max(i + 1))
    }

    /// First `{` at delimiter depth 0 in `from..end` (an `if`/`while`/
    /// `for`/`match` header cannot contain a top-level brace).
    fn find_open_brace(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in from..end {
            let t = &self.tokens[k];
            if t.is_punct('{') && depth == 0 {
                return Some(k);
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            } else if depth == 0 && t.is_punct(';') {
                return None;
            }
        }
        None
    }

    /// First `=>` at delimiter depth 0 in `from..end`.
    fn find_arrow(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = from;
        while k + 1 < end {
            let t = &self.tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            } else if depth == 0
                && t.is_punct('=')
                && self.tokens[k + 1].is_punct('>')
                && !(k > from && self.tokens[k - 1].is_punct('='))
            {
                return Some(k);
            }
            k += 1;
        }
        None
    }

    /// End of a match-arm body starting at `from`: a braced body ends at
    /// its `}` (plus an optional `,`), an expression body at the next
    /// `,` at depth 0 or the match's close. Returns `(body_end,
    /// next_arm_start)`.
    fn arm_body_end(&self, from: usize, close: usize) -> (usize, usize) {
        if from < close && self.tokens[from].is_punct('{') {
            let c = match_delim(self.tokens, from).min(close);
            let mut next = c + 1;
            if next < close && self.tokens[next].is_punct(',') {
                next += 1;
            }
            return ((c + 1).min(close), next);
        }
        let mut depth = 0i32;
        let mut k = from;
        while k < close {
            let t = &self.tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                return (k, k + 1);
            }
            k += 1;
        }
        (close, close)
    }

    /// Consume an opaque item (a nested `fn`) up to the end of its body
    /// braces into `cur`; returns the index to continue from.
    fn opaque_to_block_end(&mut self, i: usize, end: usize, cur: BlockId) -> usize {
        match self.find_open_brace(i + 1, end) {
            Some(open) => {
                let close = match_delim(self.tokens, open).min(end);
                self.extend(cur, (close + 1).min(end));
                (close + 1).min(end)
            }
            None => {
                self.extend(cur, i + 1);
                i + 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    /// Build the CFG of the first fn in `src`; return it with the file.
    fn cfg_of(src: &str) -> (Cfg, SourceFile) {
        let file = SourceFile::parse("test.rs".to_string(), src, &[]);
        let parsed = crate::parser::parse_file(&file, 0);
        let def = parsed.fns[0].clone();
        let cfg = Cfg::build(&file.tokens, def.body);
        (cfg, file)
    }

    fn block_of_ident(cfg: &Cfg, file: &SourceFile, ident: &str) -> BlockId {
        let idx = file
            .tokens
            .iter()
            .position(|t| t.is_ident(ident))
            .unwrap_or_else(|| panic!("ident {ident} not found"));
        cfg.block_of(idx)
            .unwrap_or_else(|| panic!("ident {ident} (token {idx}) not in any block"))
    }

    /// Is there a path from `a`'s block to `b`'s block?
    fn reaches(cfg: &Cfg, file: &SourceFile, a: &str, b: &str) -> bool {
        let from = block_of_ident(cfg, file, a);
        let to = block_of_ident(cfg, file, b);
        cfg.reachable_from(from)[to]
    }

    #[test]
    fn straight_line_is_one_block() {
        let (cfg, _) = cfg_of("fn f() { a(); b(); c(); }");
        assert_eq!(cfg.blocks[Cfg::ENTRY].succs, vec![Cfg::EXIT]);
        assert!(cfg.reachable_from(Cfg::ENTRY).iter().all(|&r| r));
    }

    #[test]
    fn if_else_branches_and_join() {
        let (cfg, file) = cfg_of("fn f() { if c() { t(); } else { e(); } j(); }");
        // then and else do not reach each other; both reach the join.
        assert!(!reaches(&cfg, &file, "t", "e"));
        assert!(!reaches(&cfg, &file, "e", "t"));
        assert!(reaches(&cfg, &file, "t", "j"));
        assert!(reaches(&cfg, &file, "e", "j"));
        // the condition reaches both arms.
        assert!(reaches(&cfg, &file, "c", "t"));
        assert!(reaches(&cfg, &file, "c", "e"));
        assert!(cfg.reachable_from(Cfg::ENTRY).iter().all(|&r| r));
    }

    #[test]
    fn if_without_else_can_skip_the_then_block() {
        let (cfg, file) = cfg_of("fn f() { if c() { t(); } j(); }");
        let cond = block_of_ident(&cfg, &file, "c");
        let then = block_of_ident(&cfg, &file, "t");
        let join = block_of_ident(&cfg, &file, "j");
        assert!(cfg.blocks[cond].succs.contains(&then));
        assert!(cfg.blocks[cond].succs.contains(&join));
    }

    #[test]
    fn else_if_chains_join_at_the_end() {
        let (cfg, file) =
            cfg_of("fn f() { if a() { x(); } else if b() { y(); } else { z(); } j(); }");
        for arm in ["x", "y", "z"] {
            assert!(reaches(&cfg, &file, arm, "j"), "{arm} must reach join");
        }
        assert!(!reaches(&cfg, &file, "x", "y"));
        assert!(!reaches(&cfg, &file, "y", "z"));
    }

    #[test]
    fn match_arms_are_parallel_blocks() {
        let (cfg, file) = cfg_of(
            "fn f(v: u8) { match v { 0 => zero(), 1 if odd() => { one(); } _ => other(), } j(); }",
        );
        for arm in ["zero", "one", "other"] {
            assert!(reaches(&cfg, &file, arm, "j"), "{arm} must reach join");
        }
        assert!(!reaches(&cfg, &file, "zero", "one"));
        assert!(!reaches(&cfg, &file, "one", "other"));
    }

    #[test]
    fn return_diverges_and_tail_is_unreachable() {
        let (cfg, file) = cfg_of("fn f() { if c() { return; } live(); }");
        assert!(reaches(&cfg, &file, "c", "live"));
        let (cfg2, file2) = cfg_of("fn g() { return; dead(); }");
        let dead = block_of_ident(&cfg2, &file2, "dead");
        assert!(
            !cfg2.reachable_from(Cfg::ENTRY)[dead],
            "code after return must be unreachable"
        );
    }

    #[test]
    fn both_arms_diverging_make_the_tail_unreachable() {
        let (cfg, file) = cfg_of("fn f() { if c() { return; } else { return; } dead(); }");
        let dead = block_of_ident(&cfg, &file, "dead");
        assert!(!cfg.reachable_from(Cfg::ENTRY)[dead]);
    }

    #[test]
    fn loops_have_back_edges_and_break_targets() {
        let (cfg, file) = cfg_of("fn f() { loop { step(); if done() { break; } } after(); }");
        // the loop body reaches itself (back edge) and `after` via break.
        assert!(reaches(&cfg, &file, "step", "step"));
        assert!(reaches(&cfg, &file, "step", "after"));
        // A break-less loop never reaches the code after it.
        let (cfg2, file2) = cfg_of("fn g() { loop { step(); } after(); }");
        assert!(!reaches(&cfg2, &file2, "step", "after"));
        let after = block_of_ident(&cfg2, &file2, "after");
        assert!(!cfg2.reachable_from(Cfg::ENTRY)[after]);
    }

    #[test]
    fn while_and_for_can_skip_their_bodies() {
        let (cfg, file) = cfg_of("fn f(n: u32) { while more(n) { work(); } done(); }");
        assert!(reaches(&cfg, &file, "more", "done"));
        assert!(reaches(&cfg, &file, "work", "more")); // back edge
        let head = block_of_ident(&cfg, &file, "more");
        let body = block_of_ident(&cfg, &file, "work");
        let join = block_of_ident(&cfg, &file, "done");
        assert!(cfg.blocks[head].succs.contains(&body));
        assert!(cfg.blocks[head].succs.contains(&join));
    }

    #[test]
    fn continue_edges_back_to_the_loop_head() {
        let (cfg, file) =
            cfg_of("fn f() { for x in xs() { if skip(x) { continue; } use_it(x); } end(); }");
        assert!(reaches(&cfg, &file, "skip", "use_it"));
        assert!(reaches(&cfg, &file, "use_it", "end"));
        // continue re-reaches the head, so the body reaches itself.
        assert!(reaches(&cfg, &file, "skip", "skip"));
    }

    #[test]
    fn question_mark_edges_to_the_exit() {
        let (cfg, file) = cfg_of("fn f() -> R { step()?; after(); }");
        let step = block_of_ident(&cfg, &file, "step");
        // the `?` block must have the exit among its successors.
        assert!(
            cfg.blocks[step].succs.contains(&Cfg::EXIT),
            "`?` must edge to the exit"
        );
        assert!(reaches(&cfg, &file, "step", "after"));
    }

    #[test]
    fn closures_get_nested_cfgs_and_stay_in_the_outer_block() {
        let (cfg, file) = cfg_of("fn f() { run(|x| { if x { a(); } b(); }); tail(); }");
        assert_eq!(cfg.closures.len(), 1);
        let nested = &cfg.closures[0].cfg;
        assert!(nested.blocks.len() > 2, "closure body has real structure");
        // The closure tokens are still covered by the outer graph.
        assert!(reaches(&cfg, &file, "run", "tail"));
        let a_idx = file.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        assert!(cfg.block_of(a_idx).is_some());
        // `a` sits inside the nested body range.
        let (bs, be) = cfg.closures[0].body;
        assert!((bs..be).contains(&a_idx));
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let (cfg, _) = cfg_of("fn f(a: u8, b: u8) -> u8 { let c = a | b; c }");
        assert!(cfg.closures.is_empty());
        let (cfg2, _) = cfg_of("fn g(x: bool, y: bool) -> bool { x || y }");
        assert!(cfg2.closures.is_empty());
    }

    #[test]
    fn every_token_lands_in_exactly_one_block() {
        let src = "fn f(v: u8) -> R { if a() { b()?; } match v { 0 => c(), _ => { d(); } } \
                   for i in 0..v { e(i); } g() }";
        let (cfg, file) = cfg_of(src);
        let parsed = crate::parser::parse_file(&file, 0);
        let (s, e) = parsed.fns[0].body;
        for idx in s..e {
            let owners = cfg
                .blocks
                .iter()
                .filter(|b| (b.range.0..b.range.1).contains(&idx))
                .count();
            assert!(
                owners >= 1,
                "token {idx} `{}` not in any block",
                file.tokens[idx].text
            );
        }
    }

    #[test]
    fn preds_mirror_succs() {
        let (cfg, _) = cfg_of("fn f() { if a() { return; } else { return; } dead(); }");
        for (id, b) in cfg.blocks.iter().enumerate() {
            for &s in &b.succs {
                assert!(cfg.blocks[s].preds.contains(&id));
            }
            for &p in &b.preds {
                assert!(cfg.blocks[p].succs.contains(&id));
            }
        }
    }

    #[test]
    fn pathological_nesting_stays_bounded() {
        let mut src = String::from("fn deep() { ");
        for _ in 0..300 {
            src.push_str("if a() { ");
        }
        for _ in 0..300 {
            src.push('}');
        }
        src.push('}');
        let (cfg, _) = cfg_of(&src); // must not overflow the stack
        assert!(cfg.blocks.len() < 10_000);
    }
}
