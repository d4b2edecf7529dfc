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
//!    for every element with a `shadow_root` property the shadow children
//!    are *cloned and appended to the body*, inspected there, and any hit
//!    is mapped back to the original shadow element for interaction —
//!    exactly the paper's §3 procedure, for open *and* closed roots.

use crate::corpus::{contains_any, CONSENT_WORDS};
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
    /// Behind a shadow root (reached via the cloning workaround).
    ShadowDom,
}

/// A detected banner.
#[derive(Debug, Clone)]
pub struct BannerFinding {
    /// Banner root element (in the original, uncloned DOM).
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
    /// Apply the shadow-DOM cloning workaround (§3). Off ⇒ the 76
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

/// Detect banners on a loaded page.
///
/// Mutates frame documents transiently during the shadow workaround (clone
/// in, inspect, detach again); the page is structurally unchanged on
/// return.
// lint:allow(r9) — the findings vec is the fn's return value; per-visit buffer reuse is ROADMAP item 1
pub fn detect_banners(page: &mut Page, options: &DetectorOptions) -> Vec<BannerFinding> {
    let mut findings = Vec::new();
    let frame_count = page.frames.len();
    for frame_idx in 0..frame_count {
        if frame_idx > 0 && !options.descend_iframes {
            break;
        }
        let in_iframe = frame_idx > 0;

        // Light-DOM pass.
        let doc = &page.frames[frame_idx].doc;
        if let Some(root) = find_banner_root(doc, doc.root(), options, in_iframe) {
            findings.push(BannerFinding {
                root: ElementRef {
                    frame: frame_idx,
                    node: root,
                },
                embedding: if in_iframe {
                    ObservedEmbedding::Iframe
                } else {
                    ObservedEmbedding::MainDom
                },
                text: doc.visible_text(root),
            });
            continue; // one banner per frame, like the original tool
        }

        // Shadow workaround pass.
        if options.pierce_shadow {
            let doc = &mut page.frames[frame_idx].doc;
            if let Some((root, text)) = pierce_shadow_roots(doc, options) {
                findings.push(BannerFinding {
                    root: ElementRef {
                        frame: frame_idx,
                        node: root,
                    },
                    embedding: ObservedEmbedding::ShadowDom,
                    text,
                });
            }
        }
    }
    findings
}

/// Find the banner root in the light DOM of `scope`.
// lint:allow(r9) — the candidate list is the detection result handed to the caller; per-visit buffer reuse is ROADMAP item 1
fn find_banner_root(
    doc: &Document,
    scope: NodeId,
    options: &DetectorOptions,
    in_iframe: bool,
) -> Option<NodeId> {
    // Candidates: elements whose own subtree text mentions consent words.
    // Walk elements; check leaf-ish text to avoid selecting <html> every
    // time (we want the deepest matches, then ascend).
    let mut candidates = Vec::new();
    for el in doc.descendant_elements(scope) {
        let tag = doc.tag(el).unwrap_or("");
        if matches!(tag, "script" | "style" | "head" | "title") {
            continue;
        }
        // Only direct text children count for candidacy; this finds the
        // <p>/<span>/<button> leaves rather than every ancestor.
        let own_text: String = doc
            .children(el)
            .filter_map(|c| doc.node(c).as_text().map(str::to_string))
            .collect::<Vec<_>>()
            .join(" ")
            .to_lowercase();
        if !own_text.is_empty() && contains_any(&own_text, CONSENT_WORDS) {
            candidates.push(el);
        }
    }
    for candidate in candidates {
        if let Some(root) = ascend_to_overlay(doc, candidate) {
            return Some(root);
        }
        if !options.overlay_heuristics {
            // Fallback mode: accept the candidate's parent block directly.
            return Some(doc.node(candidate).parent.unwrap_or(candidate));
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
// lint:allow(r9) — overlay selector rendered once per detected banner, not per node; ROADMAP item 1
fn ascend_to_overlay(doc: &Document, node: NodeId) -> Option<NodeId> {
    let mut cursor = Some(node);
    while let Some(n) = cursor {
        if let Some(el) = doc.element(n) {
            let style = doc.style(n);
            if style.is_overlay_positioned()
                || style.z_index().is_some_and(|z| z >= OVERLAY_Z_INDEX)
            {
                return Some(n);
            }
            let idclass = format!(
                "{} {}",
                el.id().unwrap_or(""),
                el.attr("class").unwrap_or("")
            )
            .to_lowercase();
            if CONTAINER_MARKERS.iter().any(|m| idclass.contains(m)) {
                return Some(n);
            }
        }
        cursor = doc.node(n).parent;
    }
    None
}

/// The §3 shadow-DOM workaround: for every shadow host, clone the shadow
/// children into `<body>`, look for a banner in the clone, and map the hit
/// back to the original shadow element. The clone is detached afterwards.
///
/// Returns the banner root *in the original shadow tree* plus its text.
fn pierce_shadow_roots(doc: &mut Document, options: &DetectorOptions) -> Option<(NodeId, String)> {
    let hosts = doc.shadow_hosts();
    if hosts.is_empty() {
        return None;
    }
    let body = doc.body()?;
    for host in hosts {
        let Some(sref) = doc.shadow_root(host) else {
            continue;
        };
        let shadow_children: Vec<NodeId> = doc.children(sref.root).collect();
        for child in shadow_children {
            // Clone this shadow child into the body (the paper's "clone and
            // append all child elements within a shadow DOM to the body").
            let (clone, map) = doc.clone_subtree_mapped(child);
            doc.append_child(body, clone);
            let found = find_banner_root(doc, clone, options, false);
            // Map the cloned hit back to the original shadow element.
            let result = found.and_then(|clone_hit| {
                map.iter()
                    .find(|(_, &v)| v == clone_hit)
                    .map(|(&orig, _)| orig)
            });
            // Restore the document before returning or continuing.
            doc.detach(clone);
            if let Some(original) = result {
                let text = doc.visible_text(original);
                return Some((original, text));
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
            blocked: vec![],
            requests: vec![],
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        }
    }

    #[test]
    fn detects_fixed_overlay_banner() {
        let mut page = fake_page(
            r#"<div id="x" style="position:fixed;bottom:0">
                 <p>Wir verwenden Cookies für Werbung.</p>
                 <button>Akzeptieren</button>
               </div>
               <main><p>Artikel über Brücken.</p></main>"#,
        );
        let found = detect_banners(&mut page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].embedding, ObservedEmbedding::MainDom);
        assert!(found[0].text.contains("Cookies"));
        assert!(!found[0].text.contains("Brücken"), "banner text only");
    }

    #[test]
    fn detects_marker_class_banner_without_styles() {
        let mut page = fake_page(
            r#"<div class="cmp-container"><span>We use cookies.</span><button>Accept</button></div>"#,
        );
        let found = detect_banners(&mut page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn privacy_footer_link_is_not_a_banner() {
        let mut page = fake_page(
            r#"<main><p>Article text here.</p></main>
               <footer><a href="/privacy">Privacy policy</a></footer>"#,
        );
        let found = detect_banners(&mut page, &DetectorOptions::default());
        assert!(
            found.is_empty(),
            "footer link must not be detected: {found:?}"
        );
    }

    #[test]
    fn no_banner_on_plain_page() {
        let mut page = fake_page("<main><p>Just an article about bridges.</p></main>");
        assert!(detect_banners(&mut page, &DetectorOptions::default()).is_empty());
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
        let mut page = fake_page(html);
        let found = detect_banners(&mut page, &DetectorOptions::default());
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
        let mut page = fake_page(html);
        let opts = DetectorOptions {
            pierce_shadow: false,
            ..Default::default()
        };
        assert!(detect_banners(&mut page, &opts).is_empty());
    }

    #[test]
    fn shadow_workaround_leaves_document_clean() {
        let html = r#"<div id="host"><template shadowrootmode="open">
            <div class="consent-wall"><p>cookies und Abo 1,99 €</p></div>
            </template></div><p>light content</p>"#;
        let mut page = fake_page(html);
        let before = page.frames[0]
            .doc
            .body()
            .map(|b| page.frames[0].doc.children(b).count());
        let _ = detect_banners(&mut page, &DetectorOptions::default());
        let after = page.frames[0]
            .doc
            .body()
            .map(|b| page.frames[0].doc.children(b).count());
        assert_eq!(before, after, "clones must be detached again");
    }

    #[test]
    fn iframe_descent_toggle() {
        let url = httpsim::Url::parse("https://test.de/").unwrap();
        let main = parse(r#"<p>article</p><iframe src="https://cmp.example/banner"></iframe>"#);
        let iframe_el = main.select(main.root(), "iframe").unwrap()[0];
        let frame_doc = parse(r#"<div><p>We use cookies.</p><button>Accept all</button></div>"#);
        let mut page = Page {
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
            blocked: vec![],
            requests: vec![],
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        };
        let found = detect_banners(&mut page, &DetectorOptions::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].embedding, ObservedEmbedding::Iframe);

        let opts = DetectorOptions {
            descend_iframes: false,
            ..Default::default()
        };
        assert!(detect_banners(&mut page, &opts).is_empty());
    }
}
