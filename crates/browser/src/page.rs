//! Loaded pages: frame trees plus load metadata.
//!
//! A [`Page`] is what one navigation produced: the main document, every
//! successfully loaded iframe as an additional [`Frame`], how many requests
//! the content blocker cancelled, and the two §4.5 post-load observations
//! (scroll lock, adblock interstitial).

use httpsim::Url;
use webdom::{Document, NodeId};

/// One document in the frame tree.
#[derive(Debug)]
pub struct Frame {
    /// The parsed document.
    pub doc: Document,
    /// URL the document was loaded from.
    pub url: Url,
    /// For subframes: (parent frame index, `<iframe>` element in the parent
    /// document). `None` for the main frame.
    pub parent: Option<(usize, NodeId)>,
}

/// An element address that is stable across the frame tree: frame index
/// plus node id within that frame's document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRef {
    /// Index into [`Page::frames`].
    pub frame: usize,
    /// Node within that frame's document.
    pub node: NodeId,
}

/// The result of a completed navigation.
#[derive(Debug)]
pub struct Page {
    /// The URL the navigation was asked for.
    pub url: Url,
    /// The URL the final response came from (after redirects).
    pub final_url: Url,
    /// HTTP status of the final response.
    pub status: u16,
    /// Frame tree; index 0 is the main frame.
    pub frames: Vec<Frame>,
    /// How many requests the content blocker cancelled.
    pub blocked: usize,
    /// Main-frame `<body>` is pinned (`overflow:hidden`) — the promipool
    /// symptom when a wall is blocked but its scroll lock is not.
    pub scroll_locked: bool,
    /// The site detected the content blocker and injected a
    /// please-disable-your-adblocker interstitial (hausbau-forum symptom).
    pub adblock_interstitial: bool,
    /// The load was transparently repeated after a successful SMP
    /// entitlement check (subscriber flow, §4.4).
    // lint:allow(test-only-api) — §4.4 subscriber harness: tests/cross_crate.rs and browser/tests/browsing.rs assert the entitlement reload happened
    pub reloaded_for_subscription: bool,
}

impl Page {
    /// The main frame.
    pub fn main(&self) -> &Frame {
        &self.frames[0]
    }

    /// Host of the top-level page.
    pub fn host(&self) -> &str {
        self.final_url.host()
    }

    /// Visible text of the main frame (not including subframes or shadow
    /// roots — what a naive scraper would see).
    pub fn main_text(&self) -> String {
        let doc = &self.main().doc;
        doc.visible_text(doc.root())
    }

    /// Run a CSS selector over every frame, returning matches across the
    /// whole frame tree (light DOM only; shadow content is *not* searched —
    /// that is the detector's job via the piercing workaround).
    pub fn select_all_frames(&self, selector: &str) -> Vec<ElementRef> {
        let mut out = Vec::new();
        for (i, frame) in self.frames.iter().enumerate() {
            if let Ok(hits) = frame.doc.select(frame.doc.root(), selector) {
                out.extend(hits.into_iter().map(|node| ElementRef { frame: i, node }));
            }
        }
        out
    }

    /// True if any load in any frame was blocked.
    pub fn anything_blocked(&self) -> bool {
        self.blocked > 0
    }
}
