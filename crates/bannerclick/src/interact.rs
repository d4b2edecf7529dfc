//! Banner interaction: locating and clicking accept/reject/subscribe
//! controls.
//!
//! For shadow-embedded banners the [`crate::detect`] stage already mapped
//! the banner root back into the original shadow tree, so button search
//! and the click itself operate on interactable elements — completing the
//! §3 workaround ("run the interaction function on the corresponding
//! element in the shadow DOM").

use crate::corpus::{
    contains_any, ACCEPT_EXACT_LABELS, ACCEPT_WORDS, REJECT_WORDS, SETTINGS_WORDS,
    SUBSCRIBE_ACTION_WORDS,
};
use crate::detect::BannerFinding;
use browser::{Browser, ClickOutcome, ElementRef, Page, VisitError};
use webdom::{Document, NodeId};

/// The role of a button within a consent UI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ButtonRole {
    /// Grants consent.
    Accept,
    /// Declines consent (absent on cookiewalls — their defining feature).
    Reject,
    /// Leads to the paid subscription.
    Subscribe,
    /// Opens the consent preferences layer ("options"/"manage my
    /// cookies"); cookiewalls replace this with the subscribe option.
    Settings,
}

/// A located control inside a banner.
#[derive(Debug, Clone)]
pub struct ButtonFinding {
    /// The element to click.
    pub element: ElementRef,
    /// Detected role.
    pub role: ButtonRole,
    /// The button's visible label.
    pub label: String,
}

/// Find all role-classified buttons inside a banner.
// lint:allow(r9) — the button list is the fn's return value
pub fn find_buttons(page: &Page, banner: &BannerFinding) -> Vec<ButtonFinding> {
    let doc = &page.frames[banner.root.frame].doc;
    let mut out = Vec::new();
    for node in clickable_descendants(doc, banner.root.node) {
        let label = doc.visible_text(node);
        let lower = label.to_lowercase();
        if lower.is_empty() || lower.len() > 80 {
            continue;
        }
        let role = classify_label(&lower);
        if let Some(role) = role {
            out.push(ButtonFinding {
                element: ElementRef {
                    frame: banner.root.frame,
                    node,
                },
                role,
                label,
            });
        }
    }
    out
}

/// The banner's accept button, if present.
pub fn accept_button(page: &Page, banner: &BannerFinding) -> Option<ButtonFinding> {
    find_buttons(page, banner)
        .into_iter()
        .find(|b| b.role == ButtonRole::Accept)
}

/// Click the accept button of `banner`. Returns the post-consent page.
pub fn click_accept(
    browser: &mut Browser,
    page: &Page,
    banner: &BannerFinding,
) -> Result<Option<Page>, VisitError> {
    let Some(button) = accept_button(page, banner) else {
        return Ok(None);
    };
    match browser.click(page, button.element)? {
        ClickOutcome::Accepted(p) => Ok(Some(p)),
        _ => Ok(None),
    }
}

/// Clickable elements in the subtree at `root` (works inside shadow trees,
/// since the subtree iterator is scope-based).
fn clickable_descendants(doc: &Document, root: NodeId) -> Vec<NodeId> {
    doc.descendant_elements(root)
        .filter(|&n| {
            matches!(doc.tag(n), Some("button" | "a" | "input"))
                || doc.attr(n, "role") == Some("button")
                || doc.attr(n, "data-cw-action").is_some()
        })
        .collect()
}

/// Label→role classification of a clickable element's visible text.
fn classify_label(lower: &str) -> Option<ButtonRole> {
    if contains_any(lower, SUBSCRIBE_ACTION_WORDS) {
        Some(ButtonRole::Subscribe)
    } else if contains_any(lower, SETTINGS_WORDS) {
        Some(ButtonRole::Settings)
    } else if contains_any(lower, REJECT_WORDS) {
        Some(ButtonRole::Reject)
    } else if contains_any(lower, ACCEPT_WORDS) || ACCEPT_EXACT_LABELS.contains(&lower.trim()) {
        Some(ButtonRole::Accept)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_banners, DetectorOptions};
    use webdom::parse;

    fn page_of(html: &str) -> Page {
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
    fn classifies_banner_buttons() {
        let page = page_of(
            r#"<div class="cookie-banner" style="position:fixed">
                <p>Wir verwenden Cookies.</p>
                <button>Alle akzeptieren</button>
                <button>Ablehnen</button>
                <a href="/mehr">Mehr erfahren</a>
               </div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        let buttons = find_buttons(&page, &banners[0]);
        assert_eq!(buttons.len(), 2, "the info link has no role: {buttons:?}");
        assert!(accept_button(&page, &banners[0]).is_some());
        assert!(buttons.iter().any(|b| b.role == ButtonRole::Reject));
    }

    #[test]
    fn wall_has_accept_and_subscribe_but_no_reject() {
        let page = page_of(
            r#"<div id="cw-wall" class="consent-wall" style="position:fixed;z-index:100000">
                <p>Mit Werbung und Tracking weiterlesen oder Pur-Abo für 2,99 € pro Monat.</p>
                <button data-cw-action="accept">Akzeptieren und weiter</button>
                <a data-cw-action="subscribe" href="/abo">Jetzt Abo abschließen</a>
               </div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        let buttons = find_buttons(&page, &banners[0]);
        assert!(buttons.iter().any(|b| b.role == ButtonRole::Accept));
        assert!(buttons.iter().any(|b| b.role == ButtonRole::Subscribe));
        assert!(
            buttons.iter().all(|b| b.role != ButtonRole::Reject),
            "the defining cookiewall property: no reject"
        );
    }

    #[test]
    fn subscribe_priority_over_accept_words() {
        // "Jetzt Abo abschließen und akzeptieren"-style labels must
        // classify as subscribe, not accept.
        let page = page_of(
            r#"<div class="consent-wall"><p>cookies</p>
               <a role="button">Jetzt Abo abschließen</a></div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        let buttons = find_buttons(&page, &banners[0]);
        assert_eq!(buttons.len(), 1);
        assert_eq!(buttons[0].role, ButtonRole::Subscribe);
    }

    #[test]
    fn settings_control_classified_not_confused() {
        let page = page_of(
            r#"<div class="cookie-banner"><p>We use cookies.</p>
                <button>Accept all</button>
                <a data-cw-action="settings" href="/privacy">Manage my cookies</a>
               </div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        let buttons = find_buttons(&page, &banners[0]);
        assert_eq!(buttons.len(), 2);
        assert!(buttons.iter().any(|b| b.role == ButtonRole::Settings));
        // "Manage my cookies" must NOT be an accept button despite the
        // "ok" substring inside "cookies".
        let settings = buttons
            .iter()
            .find(|b| b.role == ButtonRole::Settings)
            .unwrap();
        assert!(settings.label.contains("Manage"));
    }

    #[test]
    fn bare_ok_label_is_accept() {
        let page = page_of(
            r#"<div class="cookie-banner"><p>We use cookies.</p><button>OK</button></div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        let accept = accept_button(&page, &banners[0]).expect("OK is an accept button");
        assert_eq!(accept.label, "OK");
    }

    #[test]
    fn buttons_found_inside_shadow_tree() {
        let page = page_of(
            r#"<div id="h"><template shadowrootmode="open">
                <div class="consent-wall"><p>Cookies und Abo für 1,99 €</p>
                <button>Accept all</button></div>
               </template></div>"#,
        );
        let banners = detect_banners(&page, &DetectorOptions::default());
        assert_eq!(banners.len(), 1);
        let btn = accept_button(&page, &banners[0]).expect("button in shadow tree");
        // The button element must be interactable: it lives in the original
        // shadow subtree, not in a detached clone.
        let doc = &page.frames[0].doc;
        assert_eq!(doc.tag(btn.element.node), Some("button"));
    }
}
