//! Banner discovery and the shadow-DOM piercing workaround.
//!
//! The BannerClick pipeline (§3):
//!
//! 1. **Candidates** — elements whose text contains consent vocabulary.
//! 2. **Banner root** — ascend from a candidate to the nearest overlay
//!    element (fixed/sticky position, very high z-index, or a marker
//!    id/class like `cmp`, `consent`, `cookie`, `banner`, `wall`,
//!    `paywall`).
//! 3. **iframe descent** — repeat in every subframe; a consent iframe's
//!    whole document is the banner when the frame itself is the overlay.
//! 4. **Shadow workaround** — selectors cannot see into shadow roots, so
//!    for every element with a `shadow_root` property the paper clones the
//!    shadow children *into the body*, inspects them there, and maps any
//!    hit back to the original shadow element for interaction, for open
//!    *and* closed roots. This port walks each shadow child where it is,
//!    read-only, and lets its ascent continue from the shadow child to
//!    `<body>` and up, as the clone's would. A hit inside the shadow
//!    subtree is its own original; a hit on `<body>` or above has no
//!    original, and that shadow child yields nothing, exactly as in the
//!    paper's procedure. Detection therefore never changes the page.

use crate::corpus::consent_words;
use browser::{ElementRef, Page};
use webdom::{Document, NodeId};

/// Structural channel through which a banner was found — the §3 embedding
/// taxonomy (76 shadow / 132 iframe / 72 main DOM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservedEmbedding {
    /// In the main document's light DOM.
    MainDom,
    /// Inside an `<iframe>` subdocument.
    Iframe,
    /// Behind a shadow root (reached via the piercing workaround).
    ShadowDom,
}

/// A detected banner.
#[derive(Debug, Clone)]
pub struct BannerFinding {
    /// Banner root element (in the original DOM; for shadow banners, in
    /// the shadow tree).
    pub root: ElementRef,
    /// Where it was found.
    pub embedding: ObservedEmbedding,
    /// Visible text of the banner.
    pub text: String,
}

/// Detector configuration; the non-default settings exist for the
/// ablation experiment (what breaks without each §3 mechanism).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorOptions {
    /// Apply the shadow-DOM piercing workaround (§3). Off ⇒ the 76
    /// shadow-embedded walls go undetected.
    pub pierce_shadow: bool,
    /// Search iframe subdocuments. Off ⇒ the 132 iframe walls vanish.
    pub descend_iframes: bool,
    /// Require an overlay-style banner root in the main frame. Off ⇒ any
    /// consent-word element counts (noisy fallback mode).
    pub overlay_heuristics: bool,
}

impl Default for DetectorOptions {
    fn default() -> Self {
        DetectorOptions {
            pierce_shadow: true,
            descend_iframes: true,
            overlay_heuristics: true,
        }
    }
}

/// Marker substrings in id/class attributes that identify consent UI
/// containers.
const CONTAINER_MARKERS: &[&str] = &[
    "cmp", "consent", "cookie", "banner", "gdpr", "privacy", "wall", "paywall", "overlay",
    "notice", "purabo", "gate",
];

/// z-index at or above which an element counts as an overlay.
const OVERLAY_Z_INDEX: i64 = 1000;

/// Detect banners on a loaded page. The page is only read.
// lint:allow(r9) — the findings vec is the fn's return value
pub fn detect_banners(page: &Page, options: &DetectorOptions) -> Vec<BannerFinding> {
    let mut findings = Vec::new();
    let mut buffers = Buffers::default();
    for (frame_idx, frame) in page.frames.iter().enumerate() {
        if frame_idx > 0 && !options.descend_iframes {
            break;
        }
        let in_iframe = frame_idx > 0;
        let doc = &frame.doc;
        let root = ElementRef {
            frame: frame_idx,
            node: doc.root(),
        };

        // Light-DOM pass.
        let scope = Scope::light(doc, doc.root());
        if let Some(node) = find_banner_root(&scope, options, in_iframe, &mut buffers) {
            findings.push(BannerFinding {
                root: ElementRef { node, ..root },
                embedding: if in_iframe {
                    ObservedEmbedding::Iframe
                } else {
                    ObservedEmbedding::MainDom
                },
                text: doc.visible_text(node),
            });
            continue; // one banner per frame, like the original tool
        }

        // Shadow workaround pass.
        if options.pierce_shadow {
            if let Some(node) = pierce_shadow_roots(doc, options, &mut buffers) {
                findings.push(BannerFinding {
                    root: ElementRef { node, ..root },
                    embedding: ObservedEmbedding::ShadowDom,
                    text: doc.visible_text(node),
                });
            }
        }
    }
    findings
}

/// A subtree to search, and what its root's parent is during an ascent.
struct Scope<'a> {
    doc: &'a Document,
    root: NodeId,
    /// Stands in for the root's parent: `<body>` for a shadow child, which
    /// the paper's workaround appends to the body.
    above: Option<NodeId>,
}

impl<'a> Scope<'a> {
    fn light(doc: &'a Document, root: NodeId) -> Self {
        Scope {
            doc,
            root,
            above: None,
        }
    }

    fn parent(&self, node: NodeId) -> Option<NodeId> {
        match self.above {
            Some(above) if node == self.root => Some(above),
            _ => self.doc.node(node).parent,
        }
    }
}

/// Buffers reused across candidates and ancestors.
#[derive(Default)]
struct Buffers {
    joined: String,
    lower: String,
}

impl Buffers {
    /// The direct text children of `el`, joined with spaces and
    /// lowercased — only direct text counts for candidacy; this finds the
    /// `<p>`/`<span>`/`<button>` leaves rather than every ancestor.
    fn own_text(&mut self, doc: &Document, el: NodeId) -> &str {
        self.joined.clear();
        let mut texts = doc.children(el).filter_map(|c| doc.text(c));
        if let Some(first) = texts.next() {
            self.joined.push_str(first);
            for text in texts {
                self.joined.push(' ');
                self.joined.push_str(text);
            }
        }
        self.lower.clear();
        lowercase_into(&self.joined, &mut self.lower);
        &self.lower
    }

    /// Does `value`, lowercased, contain a container marker?
    fn has_marker(&mut self, value: &str) -> bool {
        let lower = if value
            .bytes()
            .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
        {
            value
        } else {
            self.lower.clear();
            lowercase_into(value, &mut self.lower);
            &self.lower
        };
        CONTAINER_MARKERS.iter().any(|m| lower.contains(m))
    }
}

/// Append `text`'s Unicode lowercase (`str::to_lowercase`) to `out`,
/// copying ASCII runs in bulk.
fn lowercase_into(text: &str, out: &mut String) {
    if text.contains('Σ') {
        // Only a capital sigma lowercases by its context.
        out.push_str(&text.to_lowercase());
        return;
    }
    let mut rest = text;
    while !rest.is_empty() {
        let ascii = rest
            .bytes()
            .position(|b| !b.is_ascii())
            .unwrap_or(rest.len());
        let start = out.len();
        out.push_str(&rest[..ascii]);
        out[start..].make_ascii_lowercase();
        rest = &rest[ascii..];
        if let Some(c) = rest.chars().next() {
            out.extend(c.to_lowercase());
            rest = &rest[c.len_utf8()..];
        }
    }
}

/// Find the banner root for the light subtree of `scope`.
fn find_banner_root(
    scope: &Scope<'_>,
    options: &DetectorOptions,
    in_iframe: bool,
    buffers: &mut Buffers,
) -> Option<NodeId> {
    let doc = scope.doc;
    // Candidates: elements whose own text mentions consent words, in
    // document order; the first one that resolves decides.
    for candidate in doc.descendant_elements(scope.root) {
        let tag = doc.tag(candidate).unwrap_or("");
        if matches!(tag, "script" | "style" | "head" | "title") {
            continue;
        }
        let text = buffers.own_text(doc, candidate);
        if text.is_empty() || !consent_words().found_in(text) {
            continue;
        }
        if let Some(root) = ascend_to_overlay(scope, candidate, buffers) {
            return Some(root);
        }
        if !options.overlay_heuristics {
            // Fallback mode: accept the candidate's parent block directly.
            return Some(scope.parent(candidate).unwrap_or(candidate));
        }
        if in_iframe {
            // Inside a dedicated consent iframe the frame itself is the
            // overlay; the whole body is the banner.
            if let Some(body) = doc.body() {
                return Some(body);
            }
        }
    }
    None
}

/// Ascend from `node` to the nearest ancestor-or-self that looks like an
/// overlay container.
fn ascend_to_overlay(scope: &Scope<'_>, node: NodeId, buffers: &mut Buffers) -> Option<NodeId> {
    let doc = scope.doc;
    let mut cursor = Some(node);
    while let Some(n) = cursor {
        if doc.element(n).is_some() {
            let style = doc.style(n);
            if style.is_overlay_positioned()
                || style.z_index().is_some_and(|z| z >= OVERLAY_Z_INDEX)
            {
                return Some(n);
            }
            // No marker contains a space, so the id and the class are
            // searched one at a time rather than as one `id class` string.
            if buffers.has_marker(doc.attr(n, "id").unwrap_or(""))
                || buffers.has_marker(doc.attr(n, "class").unwrap_or(""))
            {
                return Some(n);
            }
        }
        cursor = scope.parent(n);
    }
    None
}

/// The §3 shadow-DOM workaround, read-only: for every shadow host, search
/// each shadow child as if it were the body's last child, and keep a hit
/// only if it lies in that shadow child.
///
/// Returns the banner root *in the original shadow tree*.
fn pierce_shadow_roots(
    doc: &Document,
    options: &DetectorOptions,
    buffers: &mut Buffers,
) -> Option<NodeId> {
    let hosts = doc.shadow_hosts();
    if hosts.is_empty() {
        return None;
    }
    let body = doc.body()?;
    for &host in hosts {
        let Some(sref) = doc.shadow_root(host) else {
            continue;
        };
        for child in doc.children(sref.root) {
            let scope = Scope {
                doc,
                root: child,
                above: Some(body),
            };
            // A hit on <body> or above has no counterpart in the shadow
            // tree: this shadow child yields nothing.
            let hit = find_banner_root(&scope, options, false, buffers)
                .filter(|&hit| hit == child || doc.is_ancestor(child, hit));
            if hit.is_some() {
                return hit;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdom::parse;

    fn fake_page(html: &str) -> Page {
        let doc = parse(html);
        let url = httpsim::Url::parse("https://test.de/").unwrap();
        Page {
            url: url.clone(),
            final_url: url.clone(),
            status: 200,
            frames: vec![browser::Frame {
                doc,
                url,
                parent: None,
            }],
            blocked: 0,
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        }
    }

    #[test]
    fn detects_fixed_overlay_banner() {
        let page = fake_page(
            r#"<div id="x" style="position:fixed;bottom:0">
                 <p>Wir verwenden Cookies für Werbung.</p>
                 <button>Akzeptieren</button>
               </div>
               <main><p>Artikel über Brücken.</p></main>"#,
        );
        let found = detect_banners(&page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].embedding, ObservedEmbedding::MainDom);
        assert!(found[0].text.contains("Cookies"));
        assert!(!found[0].text.contains("Brücken"), "banner text only");
    }

    #[test]
    fn detects_marker_class_banner_without_styles() {
        let page = fake_page(
            r#"<div class="cmp-container"><span>We use cookies.</span><button>Accept</button></div>"#,
        );
        let found = detect_banners(&page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn privacy_footer_link_is_not_a_banner() {
        let page = fake_page(
            r#"<main><p>Article text here.</p></main>
               <footer><a href="/privacy">Privacy policy</a></footer>"#,
        );
        let found = detect_banners(&page, &DetectorOptions::default());
        assert!(
            found.is_empty(),
            "footer link must not be detected: {found:?}"
        );
    }

    #[test]
    fn no_banner_on_plain_page() {
        let page = fake_page("<main><p>Just an article about bridges.</p></main>");
        assert!(detect_banners(&page, &DetectorOptions::default()).is_empty());
    }

    #[test]
    fn shadow_banner_found_only_with_workaround() {
        let html = r#"<div id="host"><template shadowrootmode="closed">
            <div id="wall" style="position:fixed;z-index:100000">
              <p>Mit Werbung und Tracking weiterlesen oder Pur-Abo für 2,99 € pro Monat.</p>
              <button>Akzeptieren</button>
            </div></template></div>"#;
        // Workaround on: found, attributed to ShadowDom, mapped to the
        // original (interactable) element.
        let page = fake_page(html);
        let found = detect_banners(&page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].embedding, ObservedEmbedding::ShadowDom);
        assert!(found[0].text.contains("2,99"));
        let doc = &page.frames[0].doc;
        // The returned root must live in the original shadow tree: its
        // ancestors lead to a ShadowRoot node, not to body.
        let root = found[0].root.node;
        let in_shadow = doc
            .ancestors(root)
            .any(|a| matches!(doc.node(a).kind, webdom::NodeKind::ShadowRoot(_)));
        let is_shadow_child = matches!(
            doc.node(root).parent.map(|p| &doc.node(p).kind),
            Some(webdom::NodeKind::ShadowRoot(_))
        );
        assert!(
            in_shadow || is_shadow_child,
            "hit maps back into the shadow tree"
        );

        // Workaround off: invisible (the ablation's point).
        let page = fake_page(html);
        let opts = DetectorOptions {
            pierce_shadow: false,
            ..Default::default()
        };
        assert!(detect_banners(&page, &opts).is_empty());
    }

    /// Root of the single shadow finding, with its `id`.
    fn shadow_hit(page: &Page, options: &DetectorOptions) -> Option<String> {
        let found = detect_banners(page, options);
        assert!(found.len() <= 1);
        found.first().map(|f| {
            assert_eq!(f.embedding, ObservedEmbedding::ShadowDom);
            let doc = &page.frames[0].doc;
            doc.attr(f.root.node, "id").unwrap_or("").to_string()
        })
    }

    #[test]
    fn shadow_hit_on_body_is_skipped_not_returned() {
        // The first shadow child ascends to the marked <body>: a hit with
        // no counterpart in the shadow tree, so that child yields nothing
        // and the next one is searched.
        let html = r#"<body class="cookie-page"><div id="host"><template shadowrootmode="open"><p>Wir verwenden Cookies.</p><div id="box" class="consent-box"><span>cookies</span></div></template></div><p>light</p></body>"#;
        let page = fake_page(html);
        assert_eq!(
            shadow_hit(&page, &DetectorOptions::default()).as_deref(),
            Some("box")
        );
        let only_body = r#"<body class="cookie-page"><div id="host"><template shadowrootmode="open"><p>Wir verwenden Cookies.</p></template></div></body>"#;
        assert_eq!(
            shadow_hit(&fake_page(only_body), &DetectorOptions::default()),
            None
        );
    }

    #[test]
    fn shadow_fallback_parent_of_a_shadow_child_is_body() {
        // Without overlay heuristics a candidate's parent is the root. For
        // a shadow child that parent is <body>, which maps to nothing.
        let html = r#"<div id="host"><template shadowrootmode="closed"><p>We use cookies.</p><div id="outer"><span>cookies</span></div></template></div>"#;
        let page = fake_page(html);
        let options = DetectorOptions {
            overlay_heuristics: false,
            ..DetectorOptions::default()
        };
        assert_eq!(shadow_hit(&page, &options).as_deref(), Some("outer"));
    }

    #[test]
    fn iframe_descent_toggle() {
        let url = httpsim::Url::parse("https://test.de/").unwrap();
        let main = parse(r#"<p>article</p><iframe src="https://cmp.example/banner"></iframe>"#);
        let iframe_el = main.select(main.root(), "iframe").unwrap()[0];
        let frame_doc = parse(r#"<div><p>We use cookies.</p><button>Accept all</button></div>"#);
        let page = Page {
            url: url.clone(),
            final_url: url.clone(),
            status: 200,
            frames: vec![
                browser::Frame {
                    doc: main,
                    url: url.clone(),
                    parent: None,
                },
                browser::Frame {
                    doc: frame_doc,
                    url: httpsim::Url::parse("https://cmp.example/banner").unwrap(),
                    parent: Some((0, iframe_el)),
                },
            ],
            blocked: 0,
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        };
        let found = detect_banners(&page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].embedding, ObservedEmbedding::Iframe);

        let opts = DetectorOptions {
            descend_iframes: false,
            ..Default::default()
        };
        assert!(detect_banners(&page, &opts).is_empty());
    }
}
