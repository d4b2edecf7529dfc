//! # webdom — HTML parsing and DOM trees for the cookiewall study
//!
//! A self-contained HTML parser and DOM implementation providing exactly the
//! browser surface the paper's measurement pipeline needs:
//!
//! * tolerant HTML tokenizer and tree builder ([`parse`]),
//! * an arena [`Document`] with elements, attributes, text, and comments,
//! * **shadow DOM** — open and closed roots, attached programmatically or
//!   via declarative `<template shadowrootmode>` markup, deliberately opaque
//!   to normal traversal and selectors (the limitation the paper's §3
//!   workaround pierces),
//! * a CSS selector subset ([`Document::select`]) and an XPath subset
//!   ([`Document::xpath`]) — both deliberately blind to shadow roots,
//!   exactly as §3 observes for real locators,
//! * inline-style parsing for overlay heuristics ([`Style`]),
//! * visible-text extraction ([`Document::visible_text`]) — the
//!   BeautifulSoup role in the original pipeline,
//! * serialization that round-trips, including shadow roots
//!   ([`Document::to_html`]).
//!
//! ## Payload layout
//!
//! A parsed document keeps its HTML as one `Arc<str>`. Text, comments and
//! attribute names and values are `u32` [`Span`]s into it, and known tag
//! names are interned atoms, so parsing copies a payload only when the
//! source does not hold it verbatim: entity-decoded text and values,
//! names written in uppercase, script-injected fragments and mutations go
//! to one owned buffer per document. The tokenizer hands its tokens
//! straight to the tree builder as byte ranges; no token list is built.
//! Read payloads through the document ([`Document::tag`],
//! [`Document::attr`], [`Document::attrs`], [`Document::text`]).
//!
//! ## Example
//!
//! ```
//! use webdom::parse;
//!
//! let doc = parse(r#"<div id="cmp" style="position:fixed">
//!     <p>Nur 2,99 € pro Monat ohne Werbung lesen, oder akzeptieren.</p>
//!     <button class="accept">Akzeptieren</button>
//! </div>"#);
//! let cmp = doc.get_element_by_id("cmp").unwrap();
//! assert!(doc.style(cmp).is_overlay_positioned());
//! assert!(doc.visible_text(cmp).contains("2,99 €"));
//! let buttons = doc.select(cmp, "button.accept").unwrap();
//! assert_eq!(buttons.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entity;
mod parser;
mod selector;
mod serialize;
mod style;
mod text;
mod tokenizer;
mod tree;
mod xpath;

pub use entity::{decode_entities, encode_entities};
pub use parser::{parse, parse_fragment_into};
pub use selector::{
    AttrOp, Combinator, Compound, Selector, SelectorList, SelectorParseError, Simple,
};
pub use style::{Style, OVERLAY_POSITIONS};
pub use text::normalize_whitespace;
pub use tree::{
    is_void_element, AncestorIter, ChildIter, DescendantIter, Document, ElementData, Node, NodeId,
    NodeKind, ShadowMode, ShadowRootRef, Span,
};
pub use xpath::{XPath, XPathError};
