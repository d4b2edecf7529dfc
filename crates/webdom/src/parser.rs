//! Tree builder: tokenizer output → [`Document`].
//!
//! Implements a pragmatic subset of the WHATWG tree-construction algorithm:
//! a stack of open elements, void-element handling, implicit `<html>`/`<body>`
//! insertion, tolerant end-tag matching (unwind to the nearest matching open
//! element, ignore unmatched closers), and **declarative shadow DOM** —
//! a `<template shadowrootmode="open|closed">` becomes a shadow root attached
//! to its parent element, which is how the synthetic sites in this study ship
//! shadow-DOM-embedded cookiewalls over plain HTML.
//!
//! The builder is the tokenizer's [`Sink`]: it receives each token as
//! input ranges and stores them as spans of the document's source (see
//! the `tree` module), copying only what needs decoding or lowercasing.

use crate::entity::decode_entities;
use crate::tokenizer::{tokenize_into, Range, RawAttr, Sink, Text};
use crate::tree::{is_void_element, Atom, Document, NodeId, ShadowMode, Span, Tag};
use std::sync::Arc;

/// Parse an HTML string into a [`Document`].
///
/// Never fails: malformed HTML degrades the way browsers degrade it.
pub fn parse(html: &str) -> Document {
    let mut doc = Document::with_source(Arc::from(html));
    let mut builder = TreeBuilder::new(&mut doc, html);
    tokenize_into(html, &mut builder);
    builder.finish();
    doc
}

/// Parse an HTML *fragment* (no implicit html/body wrapping) and append the
/// resulting nodes under `parent` in an existing document.
///
/// Used by the browser simulator for script-driven DOM injection
/// (`element.innerHTML = …` equivalents). The fragment's text is copied
/// into the document's owned buffer, and its nodes borrow from that copy.
pub fn parse_fragment_into(doc: &mut Document, parent: NodeId, html: &str) {
    let base = doc.own(html).base();
    let mut builder = TreeBuilder {
        doc,
        input: html,
        base,
        stack: vec![parent],
        full_document: false,
        shadow_templates: Vec::new(),
        html_seen: true,
        body_seen: true,
        head_seen: true,
    };
    tokenize_into(html, &mut builder);
    builder.finish();
}

struct TreeBuilder<'a> {
    doc: &'a mut Document,
    /// The text being tokenized, and where the document holds it.
    input: &'a str,
    base: u32,
    /// Stack of open elements; bottom is the insertion root.
    stack: Vec<NodeId>,
    /// True when building a full document (implicit html/body synthesis).
    full_document: bool,
    /// Set when inside a `<template shadowrootmode>`: (host element,
    /// shadow root id) so the matching `</template>` pops correctly.
    shadow_templates: Vec<NodeId>,
    html_seen: bool,
    body_seen: bool,
    head_seen: bool,
}

impl<'a> TreeBuilder<'a> {
    fn new(doc: &'a mut Document, input: &'a str) -> Self {
        let root = doc.root();
        TreeBuilder {
            doc,
            input,
            base: 0,
            stack: vec![root],
            full_document: true,
            shadow_templates: Vec::new(),
            html_seen: false,
            body_seen: false,
            head_seen: false,
        }
    }

    fn top(&self) -> NodeId {
        *self.stack.last().expect("stack never empty")
    }

    fn span(&self, (start, end): Range) -> Span {
        Span::at(self.base, start, end)
    }

    /// The document's copy of input bytes `run`, entity-decoded.
    fn decoded(&mut self, (start, end): Range) -> Span {
        let raw = &self.input[start..end];
        if raw.contains('&') {
            self.doc.own_decoded(raw)
        } else {
            self.span((start, end))
        }
    }

    fn add_attrs(&mut self, el: NodeId, attrs: &[RawAttr]) {
        for attr in attrs {
            let raw_name = &self.input[attr.name.0..attr.name.1];
            let name = if raw_name.bytes().any(|b| b.is_ascii_uppercase()) {
                self.doc.own_lowercase(raw_name)
            } else {
                self.span(attr.name)
            };
            let value = attr.value.map_or(Span::EMPTY, |v| self.decoded(v));
            self.doc.put_attr(el, name, value);
        }
    }

    /// Ensure implicit structure exists before inserting content in a full
    /// document: `<html>` then `<body>` (unless we're in head-only content).
    fn ensure_body_context(&mut self, for_head_content: bool) {
        if !self.full_document {
            return;
        }
        if !self.html_seen {
            let html = self.doc.push_element(Tag::Atom(Atom::Html));
            let root = self.doc.root();
            self.doc.append_child(root, html);
            self.stack.push(html);
            self.html_seen = true;
        }
        if for_head_content {
            return;
        }
        if !self.body_seen {
            // Close any open <head>.
            if self.head_seen {
                while self.stack.len() > 1 && self.doc.tag(self.top()) != Some("html") {
                    self.stack.pop();
                }
            }
            let html_el = *self
                .stack
                .iter()
                .find(|&&id| self.doc.tag(id) == Some("html"))
                .unwrap_or(&self.top());
            let body = self.doc.push_element(Tag::Atom(Atom::Body));
            self.doc.append_child(html_el, body);
            // Truncate the stack down to html, then push body.
            while self.stack.len() > 1 && self.doc.tag(self.top()) != Some("html") {
                self.stack.pop();
            }
            self.stack.push(body);
            self.body_seen = true;
        }
    }

    /// Pop elements that the incoming start tag implicitly closes.
    fn apply_auto_close(&mut self, incoming: &str) {
        const BLOCKS_CLOSING_P: &[&str] = &[
            "p",
            "div",
            "section",
            "article",
            "aside",
            "ul",
            "ol",
            "table",
            "header",
            "footer",
            "main",
            "nav",
            "h1",
            "h2",
            "h3",
            "h4",
            "h5",
            "h6",
            "blockquote",
            "pre",
            "form",
        ];
        let closes_top = |top_tag: &str| -> bool {
            match top_tag {
                "p" => BLOCKS_CLOSING_P.contains(&incoming),
                "li" => incoming == "li",
                "tr" => incoming == "tr",
                "td" | "th" => matches!(incoming, "td" | "th" | "tr"),
                "dt" | "dd" => matches!(incoming, "dt" | "dd"),
                "option" => incoming == "option",
                _ => false,
            }
        };
        while let Some(&top) = self.stack.last() {
            // Never auto-close past a shadow-root boundary.
            if self.shadow_templates.last() == Some(&top) {
                break;
            }
            match self.doc.tag(top) {
                Some(tag) if closes_top(tag) => {
                    self.stack.pop();
                }
                _ => break,
            }
        }
    }

    fn finish(&mut self) {
        if self.full_document {
            self.ensure_body_context(false);
        }
    }
}

impl Sink for TreeBuilder<'_> {
    fn comment(&mut self, body: Range) {
        let node = self.doc.push_comment(self.span(body));
        let top = self.top();
        self.doc.append_child(top, node);
    }

    fn text(&mut self, text: Text<'_>) {
        let span = match text {
            Text::Encoded(run) => self.decoded(run),
            Text::Verbatim(run) => self.span(run),
            Text::Joined(text) => self.doc.own(text),
        };
        let at_top_level =
            self.top() == self.doc.root() || self.doc.tag(self.top()) == Some("html");
        if at_top_level && self.doc.str(span).chars().all(char::is_whitespace) {
            // Inter-element whitespace outside body: drop, like the
            // "in html"/"before body" insertion modes do.
            return;
        }
        // Only synthesize <body> when text appears at the top level;
        // text inside <head>/<title> etc. stays where it is.
        if at_top_level {
            self.ensure_body_context(false);
        }
        let node = self.doc.push_text(span);
        let top = self.top();
        self.doc.append_child(top, node);
    }

    fn start_tag(&mut self, name: Range, attrs: &[RawAttr], self_closing: bool) {
        let tag = self
            .doc
            .intern_tag(&self.input[name.0..name.1], self.span(name));
        // The special cases below all concern atoms; any other tag is an
        // ordinary element.
        let name = tag.known().unwrap_or("");
        match name {
            "html" if self.full_document => {
                if !self.html_seen {
                    let html = self.doc.push_element(tag);
                    self.add_attrs(html, attrs);
                    let root = self.doc.root();
                    self.doc.append_child(root, html);
                    self.stack.push(html);
                    self.html_seen = true;
                }
                return;
            }
            "head" if self.full_document => {
                self.ensure_body_context(true);
                if !self.head_seen {
                    let head = self.doc.push_element(tag);
                    let top = self.top();
                    self.doc.append_child(top, head);
                    self.stack.push(head);
                    self.head_seen = true;
                }
                return;
            }
            "body" if self.full_document => {
                self.ensure_body_context(true);
                if !self.body_seen {
                    // Pop back to html.
                    while self.stack.len() > 1 && self.doc.tag(self.top()) != Some("html") {
                        self.stack.pop();
                    }
                    let body = self.doc.push_element(tag);
                    self.add_attrs(body, attrs);
                    let top = self.top();
                    self.doc.append_child(top, body);
                    self.stack.push(body);
                    self.body_seen = true;
                }
                return;
            }
            _ => {}
        }

        let head_content = matches!(name, "meta" | "link" | "title" | "base");
        self.ensure_body_context(head_content && !self.body_seen);

        // Declarative shadow DOM: <template shadowrootmode=…> attaches a
        // shadow root to the current insertion point's *parent-to-be*, i.e.
        // the element currently on top of the stack.
        if name == "template" {
            let mode = attrs
                .iter()
                .find(|a| self.input[a.name.0..a.name.1].eq_ignore_ascii_case("shadowrootmode"))
                .and_then(|a| {
                    let (start, end) = a.value.unwrap_or((0, 0));
                    ShadowMode::parse(&decode_entities(&self.input[start..end]))
                });
            if let Some(mode) = mode {
                let host = self.top();
                if self.doc.element(host).is_some() && self.doc.shadow_root(host).is_none() {
                    let sr = self.doc.attach_shadow(host, mode);
                    self.stack.push(sr);
                    self.shadow_templates.push(sr);
                    return;
                }
            }
            // Fall through: ordinary template element.
        }

        // HTML auto-closing: certain elements implicitly end an open
        // element of a conflicting kind (<p>text<p>more ⇒ two sibling
        // paragraphs, <li>…<li> ⇒ sibling list items, …).
        self.apply_auto_close(name);

        let el = self.doc.push_element(tag);
        self.add_attrs(el, attrs);
        let top = self.top();
        self.doc.append_child(top, el);
        if !self_closing && !is_void_element(name) {
            self.stack.push(el);
        }
    }

    fn end_tag(&mut self, name: Range) {
        let name = &self.input[name.0..name.1];
        if name.eq_ignore_ascii_case("template") {
            // Close a declarative shadow root if one is open.
            if let Some(sr) = self.shadow_templates.last().copied() {
                if let Some(pos) = self.stack.iter().rposition(|&id| id == sr) {
                    self.stack.truncate(pos);
                    self.shadow_templates.pop();
                    return;
                }
            }
        }
        if self.full_document
            && (name.eq_ignore_ascii_case("html") || name.eq_ignore_ascii_case("body"))
        {
            // Keep them open until finish(); trailing content still lands in
            // body, matching browser behaviour.
            return;
        }
        // Find the nearest matching open element; ignore if none (stray
        // closer). Do not unwind past a shadow root boundary.
        let boundary = self
            .shadow_templates
            .last()
            .and_then(|&sr| self.stack.iter().rposition(|&id| id == sr))
            .unwrap_or(0);
        let matching = self.stack[boundary..]
            .iter()
            .rposition(|&id| {
                self.doc
                    .tag(id)
                    .is_some_and(|t| t.eq_ignore_ascii_case(name))
            })
            .map(|rel| boundary + rel);
        if let Some(pos) = matching {
            self.stack.truncate(pos);
            if self.stack.is_empty() {
                self.stack.push(self.doc.root());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ShadowMode;

    #[test]
    fn parses_minimal_document() {
        let d = parse("<html><body><p>hi</p></body></html>");
        let body = d.body().expect("body");
        let p = d.children(body).next().unwrap();
        assert_eq!(d.tag(p), Some("p"));
        let t = d.children(p).next().unwrap();
        assert_eq!(d.text(t), Some("hi"));
    }

    #[test]
    fn implicit_html_body() {
        let d = parse("<p>naked</p>");
        let body = d.body().expect("implicit body synthesized");
        assert_eq!(d.children(body).count(), 1);
        let html = d.html().expect("implicit html");
        assert!(d.is_ancestor(html, body));
    }

    #[test]
    fn head_and_body_separated() {
        let d = parse("<head><title>t</title></head><body><div>x</div></body>");
        let body = d.body().unwrap();
        assert_eq!(d.children(body).count(), 1);
        let titles = d.get_elements_by_tag("title");
        assert_eq!(titles.len(), 1);
        assert!(!d.is_ancestor(body, titles[0]), "title not inside body");
    }

    #[test]
    fn nested_and_misnested() {
        let d = parse("<div><span>a<b>c</span>d</div>");
        // </span> unwinds past the unclosed <b>; "d" lands in <div>.
        let body = d.body().unwrap();
        let div = d.children(body).next().unwrap();
        let kids: Vec<_> = d.children(div).collect();
        assert_eq!(d.tag(kids[0]), Some("span"));
        assert_eq!(d.text(kids[1]), Some("d"));
    }

    #[test]
    fn stray_end_tags_ignored() {
        let d = parse("</div><p>x</p></section>");
        let body = d.body().unwrap();
        assert_eq!(d.children(body).count(), 1);
    }

    #[test]
    fn void_elements_dont_nest() {
        let d = parse("<div><br><img src=x><span>y</span></div>");
        let body = d.body().unwrap();
        let div = d.children(body).next().unwrap();
        let kids: Vec<_> = d.children(div).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(d.children(kids[0]).count(), 0, "br has no children");
    }

    #[test]
    fn declarative_shadow_dom_open() {
        let d = parse(
            r#"<div id="host"><template shadowrootmode="open"><button>Akzeptieren</button></template></div>"#,
        );
        let host = d.get_element_by_id("host").unwrap();
        let sr = d.shadow_root(host).expect("shadow root attached");
        assert_eq!(sr.mode, ShadowMode::Open);
        let btn = d.children(sr.root).next().unwrap();
        assert_eq!(d.tag(btn), Some("button"));
        // Button invisible to light-DOM traversal.
        assert!(d.descendants(d.root()).all(|n| n != btn));
    }

    #[test]
    fn declarative_shadow_dom_closed_with_trailing_light_content() {
        let d = parse(
            r#"<div id="host"><template shadowrootmode="closed"><p>wall</p></template><em>light</em></div>"#,
        );
        let host = d.get_element_by_id("host").unwrap();
        let sr = d.shadow_root(host).unwrap();
        assert_eq!(sr.mode, ShadowMode::Closed);
        // <em> is a light child of host, after the template closed.
        let light: Vec<_> = d.children(host).collect();
        assert_eq!(light.len(), 1);
        assert_eq!(d.tag(light[0]), Some("em"));
    }

    #[test]
    fn plain_template_is_ordinary_element() {
        let d = parse("<div><template><span>x</span></template></div>");
        let tmpl = d.get_elements_by_tag("template");
        assert_eq!(tmpl.len(), 1);
        assert_eq!(d.children(tmpl[0]).count(), 1);
    }

    #[test]
    fn nested_shadow_roots() {
        let d = parse(
            r#"<div id="outer"><template shadowrootmode="open"><div id="inner"><template shadowrootmode="closed"><button id="b">Buy</button></template></div></template></div>"#,
        );
        let outer = d.get_element_by_id("outer").unwrap();
        let sr1 = d.shadow_root(outer).unwrap();
        let inner = d
            .descendant_elements(sr1.root)
            .find(|&n| d.attr(n, "id") == Some("inner"))
            .unwrap();
        let sr2 = d.shadow_root(inner).unwrap();
        assert_eq!(sr2.mode, ShadowMode::Closed);
        let btn = d.children(sr2.root).next().unwrap();
        assert_eq!(d.attr(btn, "id"), Some("b"));
    }

    #[test]
    fn fragment_parsing() {
        let mut d = parse("<div id=target></div>");
        let target = d.get_element_by_id("target").unwrap();
        parse_fragment_into(&mut d, target, "<span>a</span><span>b</span>");
        assert_eq!(d.children(target).count(), 2);
        // No implicit body inside a fragment.
        assert_eq!(d.get_elements_by_tag("body").len(), 1);
    }

    #[test]
    fn attributes_preserved() {
        let d = parse(r#"<iframe src="https://cmp.example/consent" width=400></iframe>"#);
        let ifr = d.get_elements_by_tag("iframe")[0];
        assert_eq!(d.attr(ifr, "src"), Some("https://cmp.example/consent"));
        assert_eq!(d.attr(ifr, "width"), Some("400"));
    }

    #[test]
    fn text_before_any_tag() {
        let d = parse("hello <b>world</b>");
        let body = d.body().unwrap();
        let kids: Vec<_> = d.children(body).collect();
        assert_eq!(d.text(kids[0]), Some("hello "));
        assert_eq!(d.tag(kids[1]), Some("b"));
    }

    #[test]
    fn payloads_borrow_from_the_source_unless_decoded() {
        let d = parse(r#"<P Title="a&amp;b" id=x>plain<i>&lt;tag&gt;</i></P>"#);
        let p = d.get_element_by_id("x").unwrap();
        assert_eq!(d.tag(p), Some("p"));
        assert_eq!(
            d.attrs(p).collect::<Vec<_>>(),
            vec![("title", "a&b"), ("id", "x")]
        );
        let texts: Vec<_> = d.descendants(p).filter_map(|n| d.text(n)).collect();
        assert_eq!(texts, vec!["plain", "<tag>"]);
        // Only the lowercased name and the two decoded payloads were copied.
        assert_eq!(d.owned_len(), "titlea&b<tag>".len());
    }

    #[test]
    fn fragment_payloads_survive_later_growth() {
        let mut d = parse("<div id=t></div>");
        let t = d.get_element_by_id("t").unwrap();
        parse_fragment_into(&mut d, t, "<b class=k>one &amp; two</b>");
        for i in 0..100 {
            d.create_text(&format!("filler {i}"));
        }
        let b = d.children(t).next().unwrap();
        assert_eq!(d.attr(b, "class"), Some("k"));
        assert_eq!(d.visible_text(b), "one & two");
    }

    #[test]
    fn deeply_nested_does_not_stack_overflow_iter() {
        let mut html = String::new();
        for _ in 0..2000 {
            html.push_str("<div>");
        }
        html.push('x');
        let d = parse(&html);
        // Traversal is iterative; counting must work.
        assert!(d.descendants(d.root()).count() > 2000);
    }
}

#[cfg(test)]
mod auto_close_tests {
    use super::parse;

    #[test]
    fn sibling_paragraphs() {
        let d = parse("<p>one<p>two<p>three");
        let body = d.body().unwrap();
        let kids: Vec<_> = d.children(body).collect();
        assert_eq!(kids.len(), 3, "three sibling <p>, not nested");
        for k in &kids {
            assert_eq!(d.tag(*k), Some("p"));
        }
        assert_eq!(d.visible_text(kids[2]), "three");
    }

    #[test]
    fn block_closes_paragraph() {
        let d = parse("<p>intro<div>content</div>");
        let body = d.body().unwrap();
        let kids: Vec<_> = d.children(body).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.tag(kids[0]), Some("p"));
        assert_eq!(d.tag(kids[1]), Some("div"));
    }

    #[test]
    fn list_items_are_siblings() {
        let d = parse("<ul><li>a<li>b<li>c</ul>");
        let ul = d.get_elements_by_tag("ul")[0];
        assert_eq!(d.children(ul).count(), 3);
    }

    #[test]
    fn table_cells_and_rows() {
        let d = parse("<table><tr><td>1<td>2<tr><td>3</table>");
        let rows = d.get_elements_by_tag("tr");
        assert_eq!(rows.len(), 2);
        assert_eq!(d.children(rows[0]).count(), 2);
        assert_eq!(d.children(rows[1]).count(), 1);
    }

    #[test]
    fn inline_elements_do_not_close_p() {
        let d = parse("<p>a <b>bold</b> and <em>em</em> end</p>");
        let p = d.get_elements_by_tag("p")[0];
        assert_eq!(d.visible_text(p), "a bold and em end");
        assert_eq!(d.get_elements_by_tag("p").len(), 1);
    }
}
