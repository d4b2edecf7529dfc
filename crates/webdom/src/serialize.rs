//! DOM → HTML serialization.
//!
//! Produces HTML that [`crate::parse`] parses back into an equivalent tree —
//! the round-trip property the webdom proptests pin down. Shadow roots are
//! serialized as declarative `<template shadowrootmode=…>` children, so a
//! generated page survives the generator → HTTP body → browser-parse journey
//! with its shadow DOM intact.

use crate::entity::encode_entities_into;
use crate::tokenizer::RAW_TEXT_TAGS;
use crate::tree::{is_void_element, Document, NodeId, NodeKind};

impl Document {
    /// Serialize the subtree rooted at `id` (outerHTML semantics: includes
    /// `id` itself unless it is the document or a shadow root, whose
    /// children are emitted instead).
    pub fn outer_html(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_node(id, &mut out);
        out
    }

    /// Serialize the whole document.
    // lint:allow(test-only-api) — oracle: the DOM golden (analysis/tests/dom_golden.rs) digests every frame through it, and the parser's fixpoint proptests round-trip it
    pub fn to_html(&self) -> String {
        self.outer_html(self.root())
    }

    fn write_node(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Document | NodeKind::ShadowRoot(_) => {
                for c in self.children(id) {
                    self.write_node(c, out);
                }
            }
            NodeKind::Text(t) => encode_entities_into(self.str(*t), out),
            NodeKind::Comment(t) => {
                out.push_str("<!--");
                out.push_str(self.str(*t));
                out.push_str("-->");
            }
            NodeKind::Element(e) => {
                let tag = self.tag(id).unwrap_or("");
                out.push('<');
                out.push_str(tag);
                for (k, v) in self.attrs(id) {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    encode_entities_into(v, out);
                    out.push('"');
                }
                out.push('>');
                if is_void_element(tag) {
                    return;
                }
                let raw = RAW_TEXT_TAGS.iter().any(|t| tag.eq_ignore_ascii_case(t));
                // Declarative shadow root first, so the parser re-attaches it
                // to this element.
                if let Some(sref) = e.shadow_root {
                    out.push_str("<template shadowrootmode=\"");
                    out.push_str(sref.mode.as_str());
                    out.push_str("\">");
                    for c in self.children(sref.root) {
                        self.write_node(c, out);
                    }
                    out.push_str("</template>");
                }
                for c in self.children(id) {
                    if raw {
                        // Raw text elements: emit text verbatim (no entity
                        // encoding — entities are inactive there).
                        if let Some(t) = self.text(c) {
                            out.push_str(t);
                            continue;
                        }
                    }
                    self.write_node(c, out);
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;
    use crate::tree::{Document, ShadowMode};

    #[test]
    fn roundtrip_simple() {
        let html = r#"<html><body><div id="a" class="x y">text &amp; more</div></body></html>"#;
        let d = parse(html);
        let out = d.to_html();
        assert_eq!(out, html);
    }

    #[test]
    fn void_elements_not_closed() {
        let d = parse("<div><br><img src=\"x\"></div>");
        let out = d.to_html();
        assert!(out.contains("<br>"));
        assert!(!out.contains("</br>"));
        assert!(!out.contains("</img>"));
    }

    #[test]
    fn shadow_root_serializes_declaratively() {
        let mut d = Document::new();
        let html = d.create_element("html");
        let body = d.create_element("body");
        let host = d.create_element("div");
        d.set_attr(host, "id", "h");
        let root = d.root();
        d.append_child(root, html);
        d.append_child(html, body);
        d.append_child(body, host);
        let sr = d.attach_shadow(host, ShadowMode::Closed);
        let btn = d.create_element("button");
        d.append_child(sr, btn);
        let t = d.create_text("Jetzt abonnieren");
        d.append_child(btn, t);

        let out = d.to_html();
        assert!(out.contains(
            r#"<template shadowrootmode="closed"><button>Jetzt abonnieren</button></template>"#
        ));

        // Round-trip: re-parse and find the shadow button again.
        let d2 = parse(&out);
        let h = d2.get_element_by_id("h").unwrap();
        let sr2 = d2.shadow_root(h).expect("shadow root survives roundtrip");
        assert_eq!(sr2.mode, ShadowMode::Closed);
        let b = d2.children(sr2.root).next().unwrap();
        assert_eq!(d2.visible_text(b), "Jetzt abonnieren");
    }

    #[test]
    fn script_content_verbatim() {
        let d = parse("<script>if (a < b && c) {}</script>");
        let out = d.to_html();
        assert!(out.contains("if (a < b && c) {}"), "{out}");
    }

    #[test]
    fn attribute_values_escaped() {
        let mut d = Document::new();
        let e = d.create_element("div");
        let root = d.root();
        d.append_child(root, e);
        d.set_attr(e, "title", "a \"quoted\" & <angled>");
        let out = d.outer_html(e);
        assert_eq!(
            out,
            r#"<div title="a &quot;quoted&quot; &amp; &lt;angled&gt;"></div>"#
        );
        // Round-trip preserves the value.
        let d2 = parse(&out);
        let e2 = d2.select(d2.root(), "div").unwrap()[0];
        assert_eq!(d2.attr(e2, "title"), Some("a \"quoted\" & <angled>"));
    }

    #[test]
    fn inner_vs_outer() {
        let d = parse("<div id=a><span>x</span></div>");
        let a = d.get_element_by_id("a").unwrap();
        assert_eq!(d.outer_html(a), r#"<div id="a"><span>x</span></div>"#);
    }
}
