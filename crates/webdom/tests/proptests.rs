//! Property-based tests for webdom.
//!
//! The central invariant: serialize → parse is a *fixpoint*. A freshly
//! parsed document may differ from its source (error recovery, implicit
//! elements), but once serialized, re-parsing must reproduce the exact same
//! serialization. We check this both for arbitrary junk input (tokenizer
//! robustness) and for structurally valid generated trees (tree fidelity,
//! including shadow roots).

use proptest::prelude::*;
use webdom::{decode_entities, encode_entities, normalize_whitespace, parse, Document, ShadowMode};

/// Strategy: text without markup metacharacters (used for generated trees).
fn plain_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ a-zA-Z0-9äöüßéè€$£,.:;!?%/-]{0,40}").unwrap()
}

fn tag_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "div", "span", "p", "section", "article", "button", "a", "em", "strong", "ul", "li",
    ])
}

#[derive(Debug, Clone)]
enum GenNode {
    Text(String),
    Element {
        tag: &'static str,
        id_attr: Option<u32>,
        classes: Vec<u8>,
        shadow: Option<(bool, Vec<GenNode>)>,
        children: Vec<GenNode>,
    },
}

fn gen_node() -> impl Strategy<Value = GenNode> {
    let leaf = prop_oneof![
        plain_text().prop_map(GenNode::Text),
        (tag_name(), proptest::option::of(0u32..100)).prop_map(|(tag, id_attr)| {
            GenNode::Element {
                tag,
                id_attr,
                classes: vec![],
                shadow: None,
                children: vec![],
            }
        }),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        (
            tag_name(),
            proptest::option::of(0u32..100),
            prop::collection::vec(0u8..5, 0..3),
            proptest::option::of((any::<bool>(), prop::collection::vec(inner.clone(), 0..3))),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(
                |(tag, id_attr, classes, shadow, children)| GenNode::Element {
                    tag,
                    id_attr,
                    classes,
                    shadow,
                    children,
                },
            )
    })
}

fn build(doc: &mut Document, parent: webdom::NodeId, node: &GenNode) {
    match node {
        GenNode::Text(t) => {
            let n = doc.create_text(t);
            doc.append_child(parent, n);
        }
        GenNode::Element {
            tag,
            id_attr,
            classes,
            shadow,
            children,
        } => {
            let e = doc.create_element(tag);
            doc.append_child(parent, e);
            if let Some(id) = id_attr {
                doc.set_attr(e, "id", &format!("id{id}"));
            }
            if !classes.is_empty() {
                let cls: Vec<String> = classes.iter().map(|c| format!("c{c}")).collect();
                doc.set_attr(e, "class", &cls.join(" "));
            }
            if let Some((open, shadow_children)) = shadow {
                let mode = if *open {
                    ShadowMode::Open
                } else {
                    ShadowMode::Closed
                };
                let sr = doc.attach_shadow(e, mode);
                for c in shadow_children {
                    build(doc, sr, c);
                }
            }
            for c in children {
                build(doc, e, c);
            }
        }
    }
}

/// A fixed input for the fixpoint below that random input rarely draws:
/// `<title>` and `<textarea>` hold raw text (entities stay encoded), so
/// their content must serialize verbatim, not gain an `amp;` per round.
#[test]
fn raw_text_title_and_textarea_reach_the_fixpoint() {
    for input in ["<title>a&lt;b</title>", "<textarea>a&lt;b</textarea>"] {
        let html1 = parse(input).to_html();
        let html2 = parse(&html1).to_html();
        assert_eq!(html1, html2, "{input}");
        assert!(html1.contains(">a&lt;b</"), "{input} → {html1}");
    }
}

proptest! {
    /// Arbitrary bytes never panic the parser, and serialization reaches a
    /// fixpoint after one parse.
    #[test]
    fn parse_any_input_fixpoint(input in "\\PC{0,300}") {
        let d1 = parse(&input);
        let html1 = d1.to_html();
        let d2 = parse(&html1);
        let html2 = d2.to_html();
        prop_assert_eq!(html1, html2);
    }

    /// Generated trees round-trip: one parse normalizes (HTML auto-close
    /// may flatten programmatically built invalid nestings like <p><p>),
    /// after which serialization is a fixpoint; shadow hosts and visible
    /// text always survive.
    #[test]
    fn generated_tree_roundtrip(nodes in prop::collection::vec(gen_node(), 0..5)) {
        let mut d = Document::new();
        let html = d.create_element("html");
        let body = d.create_element("body");
        let root = d.root();
        d.append_child(root, html);
        d.append_child(html, body);
        for n in &nodes {
            build(&mut d, body, n);
        }
        let out1 = d.to_html();
        let d2 = parse(&out1);
        let out2 = d2.to_html();
        let d3 = parse(&out2);
        let out3 = d3.to_html();
        prop_assert_eq!(&out2, &out3, "serialize∘parse is a fixpoint");
        prop_assert_eq!(d.shadow_hosts().len(), d2.shadow_hosts().len());
        // Text *content and order* are preserved by the round trip.
        // Inter-word spacing can legitimately change: auto-close may move a
        // text node out of a flattened paragraph (exactly what WHATWG tree
        // construction does for invalid nestings), altering block
        // boundaries.
        let body2 = d2.body().expect("body survives");
        let squash = |s: String| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        prop_assert_eq!(squash(d.visible_text(body)), squash(d2.visible_text(body2)));
    }

    /// Entity encoding always decodes back to the original.
    #[test]
    fn entity_roundtrip(s in "\\PC{0,200}") {
        prop_assert_eq!(decode_entities(&encode_entities(&s)), s);
    }

    /// Whitespace normalization is idempotent and never produces doubled
    /// spaces or boundary whitespace.
    #[test]
    fn normalize_whitespace_idempotent(s in "\\PC{0,200}") {
        let once = normalize_whitespace(&s);
        prop_assert_eq!(&normalize_whitespace(&once), &once);
        prop_assert!(!once.contains("  "));
        prop_assert!(!once.starts_with(' ') && !once.ends_with(' '));
    }

    /// Selector parsing never panics on arbitrary input.
    #[test]
    fn selector_parse_no_panic(s in "\\PC{0,80}") {
        let _ = webdom::SelectorList::parse(&s);
    }

    /// Valid simple selectors always parse and match what they built.
    #[test]
    fn selector_finds_built_id(id in 0u32..1000) {
        let html = format!("<div id=\"x{id}\" class=\"k\"><span>t</span></div>");
        let d = parse(&html);
        let sel = format!("div#x{id}.k > span");
        let hits = d.select(d.root(), &sel).expect("valid selector");
        prop_assert_eq!(hits.len(), 1);
    }
}
