//! Arena-based DOM tree.
//!
//! A [`Document`] owns every node in a flat arena; nodes reference each other
//! through [`NodeId`] indices. This mirrors how browser engines store DOM
//! trees and keeps the borrow checker out of tree-walking code.
//!
//! ## Payload layout
//!
//! Payloads borrow from the HTML they were parsed from. A document keeps
//! that source as one `Arc<str>`, and text, comments and attribute names
//! and values are [`Span`]s: `u32` byte ranges into it. Tag names the
//! parser knows are atoms, indices into a static name table; any other
//! tag name is a span. Whatever the source does not hold verbatim goes to
//! one append-only owned buffer per document, and a span with its top bit
//! set points there. The owned buffer holds:
//!
//! - entity-decoded text and attribute values;
//! - names the source spells in uppercase, lowercased;
//! - script-injected fragments ([`crate::parse_fragment_into`]);
//! - every mutation ([`Document::create_text`], [`Document::set_attr`], …).
//!
//! The attributes of all elements share one table, and each element holds
//! the range of its own. Parsing a page therefore grows a few vectors; it
//! does not allocate a string per node.
//!
//! Shadow roots are stored as ordinary subtrees inside the same arena whose
//! root node has kind [`NodeKind::ShadowRoot`] and no parent in the light
//! tree; the host element points at the shadow root through
//! [`ElementData::shadow_root`]. Normal tree traversal and the selector
//! engine deliberately do *not* descend into shadow roots — exactly the
//! opacity the paper's shadow-DOM workaround (§3) has to pierce.

use std::fmt;
use std::sync::Arc;

/// Index of a node inside a [`Document`] arena.
///
/// `NodeId`s are only meaningful together with the document that produced
/// them; using an id from one document on another is a logic error (and will
/// either panic or address an unrelated node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Numeric index of this node in the arena, useful for debugging and for
    /// building side tables keyed by node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A node payload's bytes: a range of its document's source, or of the
/// document's owned buffer when the top bit of `start` is set. Only the
/// document that made a span can read it ([`Document::text`],
/// [`Document::attr`], …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: u32,
    len: u32,
}

/// The `start` bit that marks a span into the owned buffer.
const OWNED: u32 = 1 << 31;

impl Span {
    /// The empty span (a boolean attribute's value).
    pub(crate) const EMPTY: Span = Span { start: 0, len: 0 };

    /// Bytes `start..end` of the text whose first byte is at `base`.
    pub(crate) fn at(base: u32, start: usize, end: usize) -> Span {
        Span {
            start: base + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Where this span starts, as a `base` for [`Span::at`].
    pub(crate) fn base(self) -> u32 {
        self.start
    }
}

macro_rules! atoms {
    ($($variant:ident = $name:literal,)*) => {
        /// A tag name the parser knows, stored as a small integer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Atom {
            $($variant,)*
        }

        impl Atom {
            fn as_str(self) -> &'static str {
                match self {
                    $(Atom::$variant => $name,)*
                }
            }

            /// The atom of the lowercase tag name `name`, if it has one.
            fn lookup(name: &str) -> Option<Atom> {
                match name {
                    $($name => Some(Atom::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

atoms! {
    A = "a", Abbr = "abbr", Address = "address", Area = "area", Article = "article",
    Aside = "aside", Audio = "audio", B = "b", Base = "base", Blockquote = "blockquote",
    Body = "body", Br = "br", Button = "button", Canvas = "canvas", Caption = "caption",
    Code = "code", Col = "col", Dd = "dd", Details = "details", Dialog = "dialog",
    Div = "div", Dl = "dl", Dt = "dt", Em = "em", Embed = "embed", Fieldset = "fieldset",
    Figure = "figure", Footer = "footer", Form = "form", H1 = "h1", H2 = "h2", H3 = "h3",
    H4 = "h4", H5 = "h5", H6 = "h6", Head = "head", Header = "header", Hr = "hr",
    Html = "html", I = "i", Iframe = "iframe", Img = "img", Input = "input",
    Label = "label", Legend = "legend", Li = "li", Link = "link", Main = "main",
    Meta = "meta", Nav = "nav", Noscript = "noscript", Ol = "ol", Option = "option",
    P = "p", Param = "param", Pre = "pre", Script = "script", Section = "section",
    Select = "select", Small = "small", Source = "source", Span = "span",
    Strong = "strong", Style = "style", Summary = "summary", Svg = "svg",
    Table = "table", Tbody = "tbody", Td = "td", Template = "template",
    Textarea = "textarea", Th = "th", Thead = "thead", Title = "title", Tr = "tr",
    Track = "track", U = "u", Ul = "ul", Video = "video", Wbr = "wbr",
}

/// The atom of tag name `name`, compared ASCII case-insensitively.
fn atom_of(name: &str) -> Option<Atom> {
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return Atom::lookup(name);
    }
    // No known name is longer than this buffer.
    let mut buf = [0u8; 16];
    let lower = buf.get_mut(..name.len())?;
    lower.copy_from_slice(name.as_bytes());
    lower.make_ascii_lowercase();
    Atom::lookup(std::str::from_utf8(lower).ok()?)
}

/// An element's lowercase tag name: an atom, or a span holding the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    Atom(Atom),
    Other(Span),
}

impl Tag {
    /// The name, if it is an atom's.
    pub(crate) fn known(self) -> Option<&'static str> {
        match self {
            Tag::Atom(atom) => Some(atom.as_str()),
            Tag::Other(_) => None,
        }
    }
}

/// Whether a shadow root is open (visible to page script) or closed.
///
/// The paper found cookiewalls behind both kinds, so the detection pipeline
/// must handle both; the distinction matters for the [`crate::Document`]
/// accessors that model what page JavaScript can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowMode {
    /// `attachShadow({mode: "open"})` — `element.shadowRoot` is non-null.
    Open,
    /// `attachShadow({mode: "closed"})` — hidden from page script, but
    /// automation tooling (Selenium's `shadow_root` property, and our
    /// simulator) can still reach it.
    Closed,
}

impl ShadowMode {
    /// Canonical string, as used in the declarative `shadowrootmode`
    /// attribute.
    pub fn as_str(self) -> &'static str {
        match self {
            ShadowMode::Open => "open",
            ShadowMode::Closed => "closed",
        }
    }

    /// Parse from a `shadowrootmode` attribute value.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("open") {
            Some(ShadowMode::Open)
        } else if s.eq_ignore_ascii_case("closed") {
            Some(ShadowMode::Closed)
        } else {
            None
        }
    }
}

/// Payload of an element node. Its tag and attributes are read through
/// the [`Document`]: [`Document::tag`], [`Document::attr`],
/// [`Document::attrs`].
#[derive(Debug, Clone)]
pub struct ElementData {
    tag: Tag,
    /// This element's range of the document's attribute table.
    attrs_start: u32,
    attrs_len: u32,
    /// Shadow root attached to this element, if any.
    pub shadow_root: Option<ShadowRootRef>,
}

impl ElementData {
    fn attr_range(&self) -> std::ops::Range<usize> {
        let start = self.attrs_start as usize;
        start..start + self.attrs_len as usize
    }
}

/// Host element's reference to its shadow root subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowRootRef {
    /// Root node of the shadow subtree (kind [`NodeKind::ShadowRoot`]).
    pub root: NodeId,
    /// Open or closed.
    pub mode: ShadowMode,
}

/// One attribute: lowercase name and value.
#[derive(Debug, Clone, Copy)]
struct Attr {
    name: Span,
    value: Span,
}

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// The document root. Exactly one per arena, always id 0.
    Document,
    /// An element with tag, attributes, and possibly a shadow root.
    Element(ElementData),
    /// A text node (already entity-decoded); see [`Document::text`].
    Text(Span),
    /// A comment (`<!-- … -->`); ignored by text extraction.
    Comment(Span),
    /// Root of a shadow subtree. Its children are the shadow DOM contents.
    ShadowRoot(ShadowMode),
}

/// One node slot in the arena: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node payload.
    pub kind: NodeKind,
    /// Parent in the light tree (or shadow tree, for shadow contents).
    pub parent: Option<NodeId>,
    /// First child, if any.
    pub first_child: Option<NodeId>,
    /// Last child, if any.
    pub last_child: Option<NodeId>,
    /// Previous sibling, if any.
    pub prev_sibling: Option<NodeId>,
    /// Next sibling, if any.
    pub next_sibling: Option<NodeId>,
}

impl Node {
    fn new(kind: NodeKind) -> Self {
        Node {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
        }
    }

    /// Element payload, if this node is an element.
    pub fn as_element(&self) -> Option<&ElementData> {
        match &self.kind {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// Void elements (never have children, no closing tag).
pub(crate) const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Returns true for tags that cannot have children.
pub fn is_void_element(tag: &str) -> bool {
    VOID_ELEMENTS.contains(&tag)
}

/// A DOM document: flat node arena plus the root id, the source its
/// payloads borrow from, and the owned buffer for the rest.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
    source: Arc<str>,
    owned: String,
    attrs: Vec<Attr>,
    /// Every element with a shadow root attached, in arena order.
    shadow_hosts: Vec<NodeId>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Create an empty document containing only the document root node.
    pub fn new() -> Self {
        Self::with_source(Arc::from(""))
    }

    /// An empty document whose payloads will borrow from `source`.
    ///
    /// # Panics
    /// Panics if `source` is 2 GiB or longer.
    pub(crate) fn with_source(source: Arc<str>) -> Self {
        assert!(
            source.len() < OWNED as usize,
            "documents of 2 GiB or more are not supported"
        );
        Document {
            nodes: vec![Node::new(NodeKind::Document)],
            root: NodeId(0),
            source,
            owned: String::new(),
            attrs: Vec::new(),
            shadow_hosts: Vec::new(),
        }
    }

    /// The document root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes in the arena (including detached ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Element payload of `id`, if it is an element.
    pub fn element(&self, id: NodeId) -> Option<&ElementData> {
        self.node(id).as_element()
    }

    /// Tag name of `id` (lowercase), if it is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        self.element(id).map(|e| self.tag_of(e))
    }

    /// Tag name of element `e` of this document.
    pub(crate) fn tag_of(&self, e: &ElementData) -> &str {
        match e.tag {
            Tag::Atom(atom) => atom.as_str(),
            Tag::Other(span) => self.str(span),
        }
    }

    /// Attributes of element `id` in document order, names lowercase
    /// (empty for other nodes).
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        let range = self.element(id).map_or(0..0, ElementData::attr_range);
        self.attrs[range]
            .iter()
            .map(|a| (self.str(a.name), self.str(a.value)))
    }

    /// First value of attribute `name` (ASCII case-insensitive) on element
    /// `id`, like browsers do.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attr_of(self.element(id)?, name)
    }

    /// [`Document::attr`] of element `e` of this document.
    pub(crate) fn attr_of(&self, e: &ElementData, name: &str) -> Option<&str> {
        self.attrs[e.attr_range()]
            .iter()
            .find(|a| {
                a.name.len as usize == name.len() && self.str(a.name).eq_ignore_ascii_case(name)
            })
            .map(|a| self.str(a.value))
    }

    /// True if the class list of element `id` contains `class_name`
    /// (case-sensitive, like the DOM's `classList.contains`).
    pub fn has_class(&self, id: NodeId, class_name: &str) -> bool {
        self.attr(id, "class")
            .is_some_and(|c| c.split_ascii_whitespace().any(|c| c == class_name))
    }

    /// Payload of text node `id`, if it is one.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.node(id).kind {
            NodeKind::Text(span) => Some(self.str(span)),
            _ => None,
        }
    }

    /// Bytes in the owned buffer (what parsing had to copy).
    #[cfg(test)]
    pub(crate) fn owned_len(&self) -> usize {
        self.owned.len()
    }

    /// The bytes `span` covers.
    pub(crate) fn str(&self, span: Span) -> &str {
        let (text, start) = if span.start & OWNED == 0 {
            (&*self.source, span.start)
        } else {
            (self.owned.as_str(), span.start & !OWNED)
        };
        &text[start as usize..(start + span.len) as usize]
    }

    /// Append what `write` pushes to the owned buffer and span it.
    fn own_with(&mut self, write: impl FnOnce(&mut String)) -> Span {
        let start = self.owned.len();
        write(&mut self.owned);
        assert!(
            self.owned.len() < OWNED as usize,
            "a document's owned text is limited to 2 GiB"
        );
        Span::at(OWNED, start, self.owned.len())
    }

    /// A copy of `text` in the owned buffer.
    pub(crate) fn own(&mut self, text: &str) -> Span {
        self.own_with(|owned| owned.push_str(text))
    }

    /// An ASCII-lowercased copy of `text` in the owned buffer.
    pub(crate) fn own_lowercase(&mut self, text: &str) -> Span {
        self.own_with(|owned| {
            let start = owned.len();
            owned.push_str(text);
            owned[start..].make_ascii_lowercase();
        })
    }

    /// The entity-decoded `raw` in the owned buffer.
    pub(crate) fn own_decoded(&mut self, raw: &str) -> Span {
        self.own_with(|owned| crate::entity::decode_entities_into(raw, owned))
    }

    /// The tag of name `name`, which `name_span` holds verbatim.
    pub(crate) fn intern_tag(&mut self, name: &str, name_span: Span) -> Tag {
        match atom_of(name) {
            Some(atom) => Tag::Atom(atom),
            None if name.bytes().any(|b| b.is_ascii_uppercase()) => {
                Tag::Other(self.own_lowercase(name))
            }
            None => Tag::Other(name_span),
        }
    }

    // ---------------------------------------------------------------- build

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Create a detached element node of tag `tag`.
    pub(crate) fn push_element(&mut self, tag: Tag) -> NodeId {
        let attrs_start = self.attrs.len() as u32;
        self.push(Node::new(NodeKind::Element(ElementData {
            tag,
            attrs_start,
            attrs_len: 0,
            shadow_root: None,
        })))
    }

    /// Create a detached text node holding `span`.
    pub(crate) fn push_text(&mut self, span: Span) -> NodeId {
        self.push(Node::new(NodeKind::Text(span)))
    }

    /// Create a detached comment node holding `span`.
    pub(crate) fn push_comment(&mut self, span: Span) -> NodeId {
        self.push(Node::new(NodeKind::Comment(span)))
    }

    /// Set attribute `name` (a lowercase span) to `value` on element `id`,
    /// replacing the value of an attribute already so named.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub(crate) fn put_attr(&mut self, id: NodeId, name: Span, value: Span) {
        let NodeKind::Element(e) = &self.nodes[id.index()].kind else {
            panic!("set_attr on non-element node: {:?}", self.node(id).kind);
        };
        let std::ops::Range { start, end } = e.attr_range();
        let wanted = self.str(name);
        if let Some(i) = (start..end).find(|&i| self.str(self.attrs[i].name) == wanted) {
            self.attrs[i].value = value;
            return;
        }
        // An element's attributes stay contiguous: move them to the end
        // of the table unless they already are.
        let start = if end == self.attrs.len() {
            start
        } else {
            let moved = self.attrs.len();
            self.attrs.extend_from_within(start..end);
            moved
        };
        self.attrs.push(Attr { name, value });
        if let NodeKind::Element(e) = &mut self.nodes[id.index()].kind {
            e.attrs_start = start as u32;
            e.attrs_len += 1;
        }
    }

    /// Create a detached element node.
    pub fn create_element(&mut self, tag: &str) -> NodeId {
        let tag = match atom_of(tag) {
            Some(atom) => Tag::Atom(atom),
            None => Tag::Other(self.own_lowercase(tag)),
        };
        self.push_element(tag)
    }

    /// Create a detached text node.
    pub fn create_text(&mut self, text: &str) -> NodeId {
        let span = self.own(text);
        self.push_text(span)
    }

    /// Set (or replace) attribute `name` on element `id`.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let name = self.own_lowercase(name);
        let value = self.own(value);
        self.put_attr(id, name, value);
    }

    /// Append `child` as the last child of `parent`, detaching it from any
    /// previous parent first.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert_ne!(parent, child, "cannot append a node to itself");
        self.detach(child);
        let old_last = self.node(parent).last_child;
        {
            let c = self.node_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = old_last;
            c.next_sibling = None;
        }
        match old_last {
            Some(last) => self.node_mut(last).next_sibling = Some(child),
            None => self.node_mut(parent).first_child = Some(child),
        }
        self.node_mut(parent).last_child = Some(child);
    }

    /// Remove `id` from its parent's child list (no-op if already detached).
    /// The node and its subtree stay in the arena, just unlinked.
    pub fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let n = self.node(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if let Some(p) = prev {
            self.node_mut(p).next_sibling = next;
        }
        if let Some(n) = next {
            self.node_mut(n).prev_sibling = prev;
        }
        if let Some(par) = parent {
            if self.node(par).first_child == Some(id) {
                self.node_mut(par).first_child = next;
            }
            if self.node(par).last_child == Some(id) {
                self.node_mut(par).last_child = prev;
            }
        }
        let n = self.node_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
    }

    /// Attach a shadow root to element `host` and return the shadow root's
    /// node id. Children appended under that id form the shadow DOM.
    ///
    /// # Panics
    /// Panics if `host` is not an element or already has a shadow root.
    pub fn attach_shadow(&mut self, host: NodeId, mode: ShadowMode) -> NodeId {
        let root = self.push(Node::new(NodeKind::ShadowRoot(mode)));
        match &mut self.node_mut(host).kind {
            NodeKind::Element(e) => {
                assert!(
                    e.shadow_root.is_none(),
                    "element {host} already has a shadow root"
                );
                e.shadow_root = Some(ShadowRootRef { root, mode });
            }
            other => panic!("attach_shadow on non-element node: {other:?}"),
        }
        let at = self.shadow_hosts.partition_point(|&h| h < host);
        self.shadow_hosts.insert(at, host);
        root
    }

    /// Shadow root reference of element `id`, regardless of mode.
    ///
    /// This models the automation-level `shadow_root` property (works for
    /// open *and* closed roots), which is the handle the paper's workaround
    /// relies on.
    pub fn shadow_root(&self, id: NodeId) -> Option<ShadowRootRef> {
        self.element(id).and_then(|e| e.shadow_root)
    }

    // ------------------------------------------------------------ traversal

    /// Iterate direct children of `id` in order.
    pub fn children(&self, id: NodeId) -> ChildIter<'_> {
        ChildIter {
            doc: self,
            next: self.node(id).first_child,
        }
    }

    /// Iterate the light-DOM subtree rooted at `id` in document (pre-)order,
    /// including `id` itself. Does **not** descend into shadow roots or
    /// iframes — callers that need those must pierce explicitly.
    pub fn descendants(&self, id: NodeId) -> DescendantIter<'_> {
        DescendantIter {
            doc: self,
            root: id,
            next: Some(id),
        }
    }

    /// Iterate element ids in the subtree at `id` (light DOM only).
    pub fn descendant_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(id)
            .filter(move |&n| matches!(self.node(n).kind, NodeKind::Element(_)))
    }

    /// Iterate ancestors of `id`, starting from its parent.
    pub fn ancestors(&self, id: NodeId) -> AncestorIter<'_> {
        AncestorIter {
            doc: self,
            next: self.node(id).parent,
        }
    }

    /// All elements in the whole arena (light trees *and* shadow trees) that
    /// have a shadow root attached, in arena order. This is the "look for
    /// possible elements within the main HTML DOM with the `shadow_root`
    /// property" step of the paper's workaround.
    pub fn shadow_hosts(&self) -> &[NodeId] {
        &self.shadow_hosts
    }

    /// The document root followed by the root of every shadow tree, in
    /// [`Document::shadow_hosts`] order: the scopes whose light subtrees
    /// together hold every attached node.
    pub fn scopes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.root).chain(
            self.shadow_hosts
                .iter()
                .filter_map(|&host| self.shadow_root(host).map(|s| s.root)),
        )
    }

    /// The `<body>` element, if the document has one.
    pub fn body(&self) -> Option<NodeId> {
        self.descendant_elements(self.root)
            .find(|&id| self.tag(id) == Some("body"))
    }

    /// First element with the given `id` attribute, searching the light DOM
    /// from the document root (like `getElementById`).
    pub fn get_element_by_id(&self, html_id: &str) -> Option<NodeId> {
        self.descendant_elements(self.root)
            .find(|&n| self.attr(n, "id") == Some(html_id))
    }

    /// True if `maybe_ancestor` is an ancestor of `id` (strictly above it).
    pub fn is_ancestor(&self, maybe_ancestor: NodeId, id: NodeId) -> bool {
        self.ancestors(id).any(|a| a == maybe_ancestor)
    }
}

/// Iterator over direct children. See [`Document::children`].
pub struct ChildIter<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for ChildIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Pre-order subtree iterator. See [`Document::descendants`].
pub struct DescendantIter<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for DescendantIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let current = self.next?;
        // Compute the successor in pre-order, staying within `root`.
        let node = self.doc.node(current);
        self.next = if let Some(c) = node.first_child {
            Some(c)
        } else {
            let mut cursor = current;
            loop {
                if cursor == self.root {
                    break None;
                }
                let n = self.doc.node(cursor);
                if let Some(sib) = n.next_sibling {
                    break Some(sib);
                }
                match n.parent {
                    Some(p) => cursor = p,
                    None => break None,
                }
            }
        };
        Some(current)
    }
}

/// Iterator over ancestors. See [`Document::ancestors`].
pub struct AncestorIter<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).parent;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let html = d.create_element("html");
        let body = d.create_element("body");
        let div = d.create_element("div");
        d.append_child(d.root(), html);
        d.append_child(html, body);
        d.append_child(body, div);
        (d, html, body, div)
    }

    #[test]
    fn build_and_traverse() {
        let (d, html, body, div) = small_doc();
        assert_eq!(d.children(d.root()).collect::<Vec<_>>(), vec![html]);
        assert_eq!(d.children(html).collect::<Vec<_>>(), vec![body]);
        let desc: Vec<_> = d.descendants(d.root()).collect();
        assert_eq!(desc, vec![d.root(), html, body, div]);
        assert_eq!(d.body(), Some(body));
        assert!(d.is_ancestor(html, div));
        assert!(!d.is_ancestor(div, html));
    }

    #[test]
    fn attrs_and_classes() {
        let mut d = Document::new();
        let e = d.create_element("DIV");
        assert_eq!(d.tag(e), Some("div"), "tags are lowercased");
        d.set_attr(e, "ID", "banner");
        d.set_attr(e, "class", "cmp overlay");
        assert_eq!(d.attr(e, "id"), Some("banner"));
        assert!(d.has_class(e, "overlay"));
        assert!(!d.has_class(e, "over"));
        d.set_attr(e, "id", "other");
        assert_eq!(d.attr(e, "id"), Some("other"), "set_attr replaces");
        assert_eq!(d.attrs(e).count(), 2, "no duplicate attribute entries");
    }

    #[test]
    fn detach_relinks_siblings() {
        let mut d = Document::new();
        let p = d.create_element("p");
        let a = d.create_text("a");
        let b = d.create_text("b");
        let c = d.create_text("c");
        d.append_child(d.root(), p);
        d.append_child(p, a);
        d.append_child(p, b);
        d.append_child(p, c);
        d.detach(b);
        assert_eq!(d.children(p).collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(d.node(a).next_sibling, Some(c));
        assert_eq!(d.node(c).prev_sibling, Some(a));
        // Re-append moves it to the end.
        d.append_child(p, b);
        assert_eq!(d.children(p).collect::<Vec<_>>(), vec![a, c, b]);
    }

    #[test]
    fn append_moves_between_parents() {
        let (mut d, _, body, div) = small_doc();
        let span = d.create_element("span");
        d.append_child(div, span);
        d.append_child(body, span); // move
        assert_eq!(d.node(span).parent, Some(body));
        assert_eq!(d.children(div).count(), 0);
        assert_eq!(d.children(body).collect::<Vec<_>>(), vec![div, span]);
    }

    #[test]
    fn shadow_roots_are_opaque_to_descendants() {
        let (mut d, _, body, div) = small_doc();
        let sr = d.attach_shadow(div, ShadowMode::Closed);
        let inner = d.create_element("button");
        d.append_child(sr, inner);
        // Light-DOM traversal must not see the button.
        assert!(d.descendants(body).all(|n| n != inner));
        // But the shadow_root handle reaches it.
        let sref = d.shadow_root(div).unwrap();
        assert_eq!(sref.mode, ShadowMode::Closed);
        assert_eq!(d.children(sref.root).collect::<Vec<_>>(), vec![inner]);
        let div2 = d.create_element("div");
        d.append_child(body, div2);
        d.attach_shadow(div2, ShadowMode::Open);
        // shadow_hosts finds both.
        let hosts = d.shadow_hosts();
        assert!(hosts.contains(&div) && hosts.contains(&div2));
    }

    #[test]
    #[should_panic(expected = "already has a shadow root")]
    fn double_attach_shadow_panics() {
        let mut d = Document::new();
        let e = d.create_element("div");
        d.attach_shadow(e, ShadowMode::Open);
        d.attach_shadow(e, ShadowMode::Open);
    }

    #[test]
    fn set_attr_keeps_each_elements_attributes_contiguous() {
        let mut d = Document::new();
        let a = d.create_element("a");
        let b = d.create_element("b");
        d.set_attr(a, "href", "/x");
        d.set_attr(b, "id", "b");
        // `a`'s range is no longer at the end of the table: it moves.
        d.set_attr(a, "CLASS", "btn");
        d.set_attr(a, "href", "/y");
        let attrs: Vec<_> = d.attrs(a).collect();
        assert_eq!(attrs, vec![("href", "/y"), ("class", "btn")]);
        assert_eq!(d.attrs(b).collect::<Vec<_>>(), vec![("id", "b")]);
    }

    #[test]
    fn tags_are_atoms_or_lowercased_names() {
        let mut d = Document::new();
        let known = d.create_element("BUTTON");
        let custom = d.create_element("My-Widget");
        assert_eq!(d.tag(known), Some("button"));
        assert_eq!(d.tag(custom), Some("my-widget"));
        assert_eq!(atom_of("TextArea"), Some(Atom::Textarea));
        assert_eq!(atom_of("a-very-long-custom-element-name"), None);
    }

    #[test]
    fn descendants_stays_within_subtree() {
        let (mut d, _, body, div) = small_doc();
        let sib = d.create_element("aside");
        d.append_child(body, sib);
        let inner = d.create_element("em");
        d.append_child(div, inner);
        let got: Vec<_> = d.descendants(div).collect();
        assert_eq!(got, vec![div, inner], "must not leak into siblings");
    }

    #[test]
    fn void_elements() {
        assert!(is_void_element("br"));
        assert!(is_void_element("img"));
        assert!(!is_void_element("div"));
    }
}
