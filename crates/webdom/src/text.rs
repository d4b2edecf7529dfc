//! Visible-text extraction.
//!
//! The cookiewall classifier (§3 of the paper) operates on the *text* of a
//! banner — the role BeautifulSoup's `get_text()` plays in the original
//! pipeline. [`Document::visible_text`] reproduces that: concatenate text
//! nodes in document order, skip `script`/`style`/`noscript`/`template`
//! content and comments, skip `display:none` subtrees, and normalize
//! whitespace.

use crate::style::Style;
use crate::tree::{Document, NodeId, NodeKind};

/// Tags whose text content is never user-visible.
const INVISIBLE_TAGS: &[&str] = &["script", "style", "noscript", "template", "head", "title"];

impl Document {
    /// User-visible text of the subtree at `id`, whitespace-normalized
    /// (runs of whitespace collapse to a single space, leading/trailing
    /// trimmed).
    ///
    /// Does **not** pierce shadow roots or iframes — callers that need the
    /// banner text behind those boundaries must pierce first (as the
    /// paper's workaround does) and extract from the inner scope.
    pub fn visible_text(&self, id: NodeId) -> String {
        let mut out = Normalizer::new(String::new());
        self.collect_text(id, &mut out);
        out.finish()
    }

    /// Raw concatenated text content of the subtree (no visibility rules,
    /// no whitespace normalization) — `textContent` semantics.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let Some(t) = self.text(n) {
                out.push_str(t);
            }
        }
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut Normalizer) {
        match &self.node(id).kind {
            NodeKind::Text(_) => out.push_str(self.text(id).unwrap_or("")),
            NodeKind::Comment(_) => {}
            NodeKind::Element(e) => {
                if INVISIBLE_TAGS.contains(&self.tag_of(e))
                    || self.attr_of(e, "hidden").is_some()
                    || Style::parse(self.attr_of(e, "style").unwrap_or("")).is_hidden()
                {
                    // Invisible subtree still acts as a word boundary so
                    // surrounding text runs don't glue together.
                    out.push_str(" ");
                    return;
                }
                // Block-level boundaries become a space so "…</p><p>…" does
                // not glue words together.
                out.push_str(" ");
                for c in self.children(id) {
                    self.collect_text(c, out);
                }
                out.push_str(" ");
            }
            NodeKind::Document | NodeKind::ShadowRoot(_) => {
                for c in self.children(id) {
                    self.collect_text(c, out);
                }
            }
        }
    }
}

/// Whitespace normalization applied while text is appended: the same
/// result as normalizing the concatenation, without building it first.
struct Normalizer {
    out: String,
    /// The last character written was a space, or nothing was written
    /// (leading whitespace is dropped).
    in_ws: bool,
}

impl Normalizer {
    fn new(out: String) -> Self {
        Normalizer { out, in_ws: true }
    }

    fn push_str(&mut self, s: &str) {
        let mut rest = s;
        while !rest.is_empty() {
            // A run of non-whitespace, copied as one slice.
            let word = rest.find(char::is_whitespace).unwrap_or(rest.len());
            if word > 0 {
                self.out.push_str(&rest[..word]);
                self.in_ws = false;
                rest = &rest[word..];
            }
            // A run of whitespace, written as at most one space.
            let space = rest
                .find(|c: char| !c.is_whitespace())
                .unwrap_or(rest.len());
            if space > 0 {
                if !self.in_ws {
                    self.out.push(' ');
                    self.in_ws = true;
                }
                rest = &rest[space..];
            }
        }
    }

    fn finish(mut self) -> String {
        while self.out.ends_with(' ') {
            self.out.pop();
        }
        self.out
    }
}

/// Collapse whitespace runs to single spaces and trim the ends.
pub fn normalize_whitespace(s: &str) -> String {
    let mut out = Normalizer::new(String::with_capacity(s.len()));
    out.push_str(s);
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn extracts_and_normalizes() {
        let d = parse("<div> Wir nutzen \n\n Cookies. <p>Mit <b>PUR</b> lesen.</p></div>");
        let body = d.body().unwrap();
        assert_eq!(d.visible_text(body), "Wir nutzen Cookies. Mit PUR lesen.");
    }

    #[test]
    fn skips_script_style_comments() {
        let d = parse(
            "<div>before<script>var hidden = 'secret';</script><style>.x{}</style><!-- c -->after</div>",
        );
        let body = d.body().unwrap();
        assert_eq!(d.visible_text(body), "before after");
    }

    #[test]
    fn skips_display_none_and_hidden_attr() {
        let d = parse(
            r#"<div><span style="display:none">invisible</span><span hidden>also</span><span>shown</span></div>"#,
        );
        let body = d.body().unwrap();
        assert_eq!(d.visible_text(body), "shown");
    }

    #[test]
    fn does_not_pierce_shadow() {
        let d = parse(
            r#"<div id="h">light<template shadowrootmode="open"><p>shadow text</p></template></div>"#,
        );
        let body = d.body().unwrap();
        assert_eq!(d.visible_text(body), "light");
        // Extracting from the shadow root scope reaches it.
        let h = d.get_element_by_id("h").unwrap();
        let sr = d.shadow_root(h).unwrap();
        assert_eq!(d.visible_text(sr.root), "shadow text");
    }

    #[test]
    fn block_boundaries_insert_spaces() {
        let d = parse("<p>Nur 2,99 €</p><p>pro Monat</p>");
        let body = d.body().unwrap();
        assert_eq!(d.visible_text(body), "Nur 2,99 € pro Monat");
    }

    #[test]
    fn text_content_is_raw() {
        let d = parse("<div>a<script>s</script> b </div>");
        let body = d.body().unwrap();
        assert_eq!(d.text_content(body), "as b ");
    }

    #[test]
    fn normalize_edge_cases() {
        assert_eq!(normalize_whitespace(""), "");
        assert_eq!(normalize_whitespace("   "), "");
        assert_eq!(normalize_whitespace(" a\t\nb "), "a b");
        assert_eq!(normalize_whitespace("a\u{a0}b"), "a b", "nbsp collapses");
    }
}
