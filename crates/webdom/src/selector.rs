//! CSS selector engine (subset).
//!
//! Grammar supported — the subset banner-detection code and cosmetic adblock
//! filters actually use:
//!
//! ```text
//! selector-list  = selector ("," selector)*
//! selector       = compound (combinator compound)*
//! combinator     = " " (descendant) | ">" (child)
//! compound       = [tag | "*"] simple*
//! simple         = "#id" | ".class" | "[attr]" | "[attr=value]"
//!                | "[attr^=value]" | "[attr*=value]" | "[attr$=value]"
//! ```
//!
//! Matching never descends into shadow roots or iframes — by design, the
//! same opacity real CSS selectors (and Selenium lookups, per the paper §3)
//! exhibit.

use crate::tree::{Document, NodeId};
use std::fmt;

/// Error produced when a selector string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub at: usize,
}

impl fmt::Display for SelectorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "selector parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for SelectorParseError {}

/// How an attribute value must relate to the expected string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrOp {
    /// `[attr]` — attribute present.
    Exists,
    /// `[attr=v]` — exact match.
    Equals(String),
    /// `[attr^=v]` — prefix match.
    StartsWith(String),
    /// `[attr*=v]` — substring match.
    Contains(String),
    /// `[attr$=v]` — suffix match.
    EndsWith(String),
}

/// One simple selector inside a compound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Simple {
    /// `#id`.
    Id(String),
    /// `.class`.
    Class(String),
    /// `[name op value]`.
    Attr {
        /// Lowercased attribute name.
        name: String,
        /// Required relationship to the value.
        op: AttrOp,
    },
}

/// A compound selector: optional tag plus simple selectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compound {
    /// Lowercased tag name, or `None` for `*` / absent.
    pub tag: Option<String>,
    /// Simple selectors that must all match.
    pub simples: Vec<Simple>,
}

impl Compound {
    /// Does element `id` of `doc` satisfy every constraint of this
    /// compound?
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let Some(tag) = doc.tag(id) else {
            return false;
        };
        if self.tag.as_deref().is_some_and(|want| want != tag) {
            return false;
        }
        self.simples.iter().all(|s| match s {
            Simple::Id(want) => doc.attr(id, "id") == Some(want.as_str()),
            Simple::Class(c) => doc.has_class(id, c),
            Simple::Attr { name, op } => match doc.attr(id, name) {
                None => false,
                Some(v) => match op {
                    AttrOp::Exists => true,
                    AttrOp::Equals(x) => v == x,
                    AttrOp::StartsWith(x) => v.starts_with(x.as_str()),
                    AttrOp::Contains(x) => v.contains(x.as_str()),
                    AttrOp::EndsWith(x) => v.ends_with(x.as_str()),
                },
            },
        })
    }
}

/// Relationship between adjacent compounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combinator {
    /// Whitespace: any ancestor.
    Descendant,
    /// `>`: direct parent.
    Child,
}

/// One full selector: a chain of compounds joined by combinators, matched
/// right-to-left like real engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// `(combinator_to_previous, compound)`; first entry's combinator is
    /// ignored.
    pub parts: Vec<(Combinator, Compound)>,
}

/// A comma-separated selector list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorList {
    /// The alternatives; an element matching any of them matches the list.
    pub selectors: Vec<Selector>,
}

impl SelectorList {
    /// Parse a selector list.
    pub fn parse(input: &str) -> Result<Self, SelectorParseError> {
        Parser::new(input).parse_list()
    }

    /// True if element `id` in `doc` matches any selector in the list.
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        self.selectors.iter().any(|s| s.matches(doc, id))
    }
}

impl Selector {
    /// Match this selector against element `id` (right-to-left with ancestor
    /// backtracking for descendant combinators).
    pub fn matches(&self, doc: &Document, id: NodeId) -> bool {
        let last = self.parts.len() - 1;
        self.parts[last].1.matches(doc, id) && self.match_ancestors(doc, id, last)
    }

    fn match_ancestors(&self, doc: &Document, id: NodeId, part_idx: usize) -> bool {
        if part_idx == 0 {
            return true;
        }
        let (comb, _) = self.parts[part_idx];
        let target = &self.parts[part_idx - 1].1;
        match comb {
            Combinator::Child => {
                let Some(parent) = doc.node(id).parent else {
                    return false;
                };
                target.matches(doc, parent) && self.match_ancestors(doc, parent, part_idx - 1)
            }
            Combinator::Descendant => {
                let mut cursor = doc.node(id).parent;
                while let Some(anc) = cursor {
                    if target.matches(doc, anc) && self.match_ancestors(doc, anc, part_idx - 1) {
                        return true;
                    }
                    cursor = doc.node(anc).parent;
                }
                false
            }
        }
    }
}

impl Document {
    /// All elements in the light DOM under `scope` (inclusive) matching the
    /// selector string.
    ///
    /// # Errors
    /// Returns [`SelectorParseError`] if the selector is malformed.
    pub fn select(&self, scope: NodeId, selector: &str) -> Result<Vec<NodeId>, SelectorParseError> {
        let list = SelectorList::parse(selector)?;
        Ok(self
            .descendant_elements(scope)
            .filter(|&id| list.matches(self, id))
            .collect())
    }

    /// First match of `selector` under `scope`, like `querySelector`.
    pub fn select_first(
        &self,
        scope: NodeId,
        selector: &str,
    ) -> Result<Option<NodeId>, SelectorParseError> {
        let list = SelectorList::parse(selector)?;
        Ok(self
            .descendant_elements(scope)
            .find(|&id| list.matches(self, id)))
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> SelectorParseError {
        SelectorParseError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        self.pos != start
    }

    fn parse_list(&mut self) -> Result<SelectorList, SelectorParseError> {
        let mut selectors = Vec::new();
        loop {
            self.skip_ws();
            selectors.push(self.parse_selector()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                None => break,
                Some(c) => return Err(self.error(format!("unexpected byte {:?}", c as char))),
            }
        }
        if selectors.is_empty() {
            return Err(self.error("empty selector list"));
        }
        Ok(SelectorList { selectors })
    }

    fn parse_selector(&mut self) -> Result<Selector, SelectorParseError> {
        let mut parts = Vec::new();
        let first = self.parse_compound()?;
        parts.push((Combinator::Descendant, first));
        loop {
            let had_ws = self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    self.skip_ws();
                    let c = self.parse_compound()?;
                    parts.push((Combinator::Child, c));
                }
                Some(b',') | None => break,
                Some(_) if had_ws => {
                    let c = self.parse_compound()?;
                    parts.push((Combinator::Descendant, c));
                }
                Some(c) => {
                    return Err(self.error(format!("unexpected byte {:?} in selector", c as char)))
                }
            }
        }
        Ok(Selector { parts })
    }

    fn parse_compound(&mut self) -> Result<Compound, SelectorParseError> {
        let mut tag = None;
        let mut simples = Vec::new();
        let mut any = false;
        if self.peek() == Some(b'*') {
            self.pos += 1;
            any = true;
        } else if self.peek().is_some_and(|b| b.is_ascii_alphanumeric()) {
            tag = Some(self.parse_ident().to_ascii_lowercase());
            any = true;
        }
        loop {
            match self.peek() {
                Some(b'#') => {
                    self.pos += 1;
                    let id = self.parse_ident();
                    if id.is_empty() {
                        return Err(self.error("expected identifier after '#'"));
                    }
                    simples.push(Simple::Id(id));
                }
                Some(b'.') => {
                    self.pos += 1;
                    let class = self.parse_ident();
                    if class.is_empty() {
                        return Err(self.error("expected identifier after '.'"));
                    }
                    simples.push(Simple::Class(class));
                }
                Some(b'[') => {
                    self.pos += 1;
                    simples.push(self.parse_attr()?);
                }
                _ => break,
            }
            any = true;
        }
        if !any {
            return Err(self.error("expected a compound selector"));
        }
        Ok(Compound { tag, simples })
    }

    fn parse_ident(&mut self) -> String {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            self.pos += 1;
        }
        self.input[start..self.pos].to_string()
    }

    fn parse_attr(&mut self) -> Result<Simple, SelectorParseError> {
        self.skip_ws();
        let name = self.parse_ident().to_ascii_lowercase();
        if name.is_empty() {
            return Err(self.error("expected attribute name"));
        }
        self.skip_ws();
        let op_kind = match self.peek() {
            Some(b']') => {
                self.pos += 1;
                return Ok(Simple::Attr {
                    name,
                    op: AttrOp::Exists,
                });
            }
            Some(b'=') => {
                self.pos += 1;
                b'='
            }
            Some(op @ (b'^' | b'*' | b'$')) => {
                self.pos += 1;
                if self.peek() != Some(b'=') {
                    return Err(self.error("expected '=' after attribute operator"));
                }
                self.pos += 1;
                op
            }
            _ => return Err(self.error("expected ']', '=', '^=', '*=' or '$='")),
        };
        self.skip_ws();
        let value = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some_and(|b| b != q) {
                    self.pos += 1;
                }
                if self.peek().is_none() {
                    return Err(self.error("unterminated quoted attribute value"));
                }
                let v = self.input[start..self.pos].to_string();
                self.pos += 1;
                v
            }
            _ => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b != b']' && !b.is_ascii_whitespace())
                {
                    self.pos += 1;
                }
                self.input[start..self.pos].to_string()
            }
        };
        self.skip_ws();
        if self.peek() != Some(b']') {
            return Err(self.error("expected ']'"));
        }
        self.pos += 1;
        let op = match op_kind {
            b'=' => AttrOp::Equals(value),
            b'^' => AttrOp::StartsWith(value),
            b'*' => AttrOp::Contains(value),
            b'$' => AttrOp::EndsWith(value),
            _ => unreachable!(),
        };
        Ok(Simple::Attr { name, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Document {
        parse(
            r#"<div id="cmp" class="overlay modal">
                 <section class="inner">
                   <button class="btn accept" data-role="accept">OK</button>
                   <a href="https://pay.example/sub" class="btn">Subscribe</a>
                 </section>
               </div>
               <div class="content"><button>Unrelated</button></div>"#,
        )
    }

    #[test]
    fn tag_id_class() {
        let d = doc();
        let r = d.root();
        assert_eq!(d.select(r, "div").unwrap().len(), 2);
        assert_eq!(d.select(r, "#cmp").unwrap().len(), 1);
        assert_eq!(d.select(r, ".btn").unwrap().len(), 2);
        assert_eq!(d.select(r, "button.accept").unwrap().len(), 1);
        assert_eq!(d.select(r, "div.overlay.modal").unwrap().len(), 1);
        assert_eq!(
            d.select(r, "*").unwrap().len(),
            d.descendant_elements(r).count()
        );
    }

    #[test]
    fn attribute_selectors() {
        let d = doc();
        let r = d.root();
        assert_eq!(d.select(r, "[data-role]").unwrap().len(), 1);
        assert_eq!(d.select(r, "[data-role=accept]").unwrap().len(), 1);
        assert_eq!(d.select(r, "[data-role='accept']").unwrap().len(), 1);
        assert_eq!(d.select(r, "a[href^=\"https://pay\"]").unwrap().len(), 1);
        assert_eq!(d.select(r, "a[href*=example]").unwrap().len(), 1);
        assert_eq!(d.select(r, "a[href$=sub]").unwrap().len(), 1);
        assert_eq!(d.select(r, "a[href$=nope]").unwrap().len(), 0);
    }

    #[test]
    fn combinators() {
        let d = doc();
        let r = d.root();
        assert_eq!(d.select(r, "#cmp button").unwrap().len(), 1);
        assert_eq!(d.select(r, "#cmp > section > button").unwrap().len(), 1);
        assert_eq!(
            d.select(r, "#cmp > button").unwrap().len(),
            0,
            "button is a grandchild, not a child"
        );
        assert_eq!(d.select(r, "div section .btn").unwrap().len(), 2);
    }

    #[test]
    fn selector_groups() {
        let d = doc();
        let r = d.root();
        assert_eq!(d.select(r, "#cmp, .content").unwrap().len(), 2);
        assert_eq!(d.select(r, "a , button").unwrap().len(), 3);
    }

    #[test]
    fn select_first_in_document_order() {
        let d = doc();
        let first = d.select_first(d.root(), "button").unwrap().unwrap();
        assert_eq!(d.attr(first, "data-role"), Some("accept"));
    }

    #[test]
    fn scoped_selection() {
        let d = doc();
        let content = d.select_first(d.root(), ".content").unwrap().unwrap();
        assert_eq!(d.select(content, "button").unwrap().len(), 1);
        assert_eq!(d.select(content, ".accept").unwrap().len(), 0);
    }

    #[test]
    fn does_not_pierce_shadow() {
        let d = parse(
            r#"<div id="h"><template shadowrootmode="open"><button class="x">B</button></template></div>"#,
        );
        assert_eq!(d.select(d.root(), ".x").unwrap().len(), 0);
        // But selecting *inside* the shadow root scope works.
        let h = d.get_element_by_id("h").unwrap();
        let sr = d.shadow_root(h).unwrap();
        assert_eq!(d.select(sr.root, ".x").unwrap().len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(SelectorList::parse("").is_err());
        assert!(SelectorList::parse("#").is_err());
        assert!(SelectorList::parse("div[").is_err());
        assert!(SelectorList::parse("div[a=\"x]").is_err());
        assert!(SelectorList::parse("div >").is_err());
        assert!(SelectorList::parse(",div").is_err());
        let err = SelectorList::parse("div[a").unwrap_err();
        assert!(err.to_string().contains("selector parse error"));
    }

    #[test]
    fn case_handling() {
        let d = parse(r#"<DIV ID="Mixed" CLASS="Foo"></DIV>"#);
        // Tag matching is case-insensitive (both lowered); id/class values
        // are case-sensitive.
        assert_eq!(d.select(d.root(), "DIV").unwrap().len(), 1);
        assert_eq!(d.select(d.root(), "#Mixed").unwrap().len(), 1);
        assert_eq!(d.select(d.root(), "#mixed").unwrap().len(), 0);
        assert_eq!(d.select(d.root(), ".Foo").unwrap().len(), 1);
        assert_eq!(d.select(d.root(), ".foo").unwrap().len(), 0);
    }
}
