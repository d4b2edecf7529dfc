//! The top-level per-site analysis: visit → detect → classify → (optionally)
//! interact. This is the unit of work the crawl orchestration runs 45k × 8
//! times.

use crate::classify::{classify_wall, CorpusMode, WallClassification};
use crate::detect::{detect_banners, BannerFinding, DetectorOptions, ObservedEmbedding};
use crate::pricing::PriceQuote;
use crate::summary::DetectionSummary;
use browser::{Browser, Page, VisitError};
use httpsim::Url;
use std::sync::{Arc, OnceLock};
use webdom::{NodeId, SelectorList};

/// Detector + classifier configuration.
#[derive(Debug, Clone, Default)]
pub struct BannerClick {
    /// Detection options (shadow piercing, iframe descent, overlay
    /// heuristics).
    pub detector: DetectorOptions,
    /// Cookiewall corpus mode.
    pub corpus: CorpusMode,
}

impl BannerClick {
    /// The paper's configuration: everything enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Visit `domain` and analyze its consent UI without interacting.
    pub fn analyze(&self, browser: &mut Browser, domain: &str) -> SiteAnalysis {
        match browser.visit_domain(domain) {
            Ok(page) => self.analyze_page(domain, &page),
            Err(err) => SiteAnalysis::unreachable(domain, err),
        }
    }

    /// The detection step of [`BannerClick::analyze_page`] on its own: the
    /// first banner this detector finds, not yet classified. Detection
    /// only reads the page, so detecting again — under these or other
    /// [`DetectorOptions`] — finds what a fresh load would.
    pub fn detect(&self, page: &Page) -> Option<BannerFinding> {
        detect_banners(page, &self.detector).into_iter().next()
    }

    /// Analyze an already loaded page.
    pub fn analyze_page(&self, domain: &str, page: &Page) -> SiteAnalysis {
        self.analyze_detected(domain, page, self.detect(page))
    }

    /// [`BannerClick::analyze_page`] plus the [`DetectionSummary`] of its
    /// one detection pass, from which [`DetectionSummary::verdict`]
    /// answers other detector settings and corpus halves without
    /// detecting again. The summary is `None` unless this detector
    /// pierces shadow roots and descends iframes.
    pub fn analyze_summarized(
        &self,
        domain: &str,
        page: &Page,
    ) -> (SiteAnalysis, Option<DetectionSummary>) {
        let mut findings = detect_banners(page, &self.detector).into_iter();
        let analysis = self.analyze_detected(domain, page, findings.next());
        let summary = DetectionSummary::new(&self.detector, &analysis, findings.as_slice());
        (analysis, summary)
    }

    /// Analyze a loaded page whose first finding under this detector is
    /// `banner`.
    fn analyze_detected(
        &self,
        domain: &str,
        page: &Page,
        banner: Option<BannerFinding>,
    ) -> SiteAnalysis {
        let provider = observed_provider(page);
        let Some(banner) = banner else {
            return SiteAnalysis {
                domain: domain.to_string(),
                reachable: true,
                banner: None,
                classification: None,
                provider,
                page_flags: PageFlags::of(page),
            };
        };
        let classification = classify_wall(&banner.text, self.corpus);
        SiteAnalysis {
            domain: domain.to_string(),
            reachable: true,
            banner: Some(banner),
            classification: Some(classification),
            provider,
            page_flags: PageFlags::of(page),
        }
    }
}

/// Post-load page observations relevant to §4.5.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageFlags {
    /// Requests were cancelled by the content blocker.
    pub anything_blocked: bool,
    /// The page demanded the ad blocker be disabled.
    pub adblock_interstitial: bool,
    /// Body scroll is pinned.
    pub scroll_locked: bool,
}

impl PageFlags {
    fn of(page: &Page) -> Self {
        PageFlags {
            anything_blocked: page.anything_blocked(),
            adblock_interstitial: page.adblock_interstitial,
            scroll_locked: page.scroll_locked,
        }
    }
}

/// Everything the pipeline learned about one site visit.
#[derive(Debug)]
pub struct SiteAnalysis {
    /// The crawled domain.
    pub domain: String,
    /// The site answered with a page.
    pub reachable: bool,
    /// The detected banner, if any.
    pub banner: Option<BannerFinding>,
    /// Cookiewall classification of the banner text.
    pub classification: Option<WallClassification>,
    /// Observed third-party consent infrastructure host (SMP CDN, CMP
    /// host), from iframe/script sources. Shared, so every record of
    /// this document holds the one allocation.
    pub provider: Option<Arc<str>>,
    /// §4.5 page observations.
    pub page_flags: PageFlags,
}

impl SiteAnalysis {
    fn unreachable(domain: &str, _err: VisitError) -> Self {
        SiteAnalysis {
            domain: domain.to_string(),
            reachable: false,
            banner: None,
            classification: None,
            provider: None,
            page_flags: PageFlags::default(),
        }
    }

    /// Was a banner of any kind detected?
    pub fn banner_detected(&self) -> bool {
        self.banner.is_some()
    }

    /// Was the banner classified as a cookiewall?
    pub fn cookiewall_detected(&self) -> bool {
        self.classification
            .as_ref()
            .is_some_and(|c| c.is_cookiewall)
    }

    /// The extracted subscription offer.
    pub fn price(&self) -> Option<&PriceQuote> {
        self.classification.as_ref().and_then(|c| c.price.as_ref())
    }

    /// Where the banner was embedded.
    pub fn embedding(&self) -> Option<ObservedEmbedding> {
        self.banner.as_ref().map(|b| b.embedding)
    }
}

/// Identify the consent-infrastructure provider serving this page's
/// banner/wall from iframe and script sources — the signal §4.4 uses to
/// attribute walls to SMPs. Iframes are searched before scripts, each in
/// document order, over the main frame's light DOM, in one walk.
pub fn observed_provider(page: &Page) -> Option<Arc<str>> {
    static SELECTORS: OnceLock<[SelectorList; 2]> = OnceLock::new();
    let [iframes, scripts] = SELECTORS.get_or_init(|| {
        ["iframe[src]", "script[src]"]
            .map(|s| SelectorList::parse(s).expect("the provider selectors are valid"))
    });
    let main = &page.frames[0].doc;
    let mut script_provider = None;
    for node in main.descendant_elements(main.root()) {
        if iframes.matches(main, node) {
            if let Some(host) = provider_host(page, node) {
                return Some(host);
            }
        } else if script_provider.is_none() && scripts.matches(main, node) {
            script_provider = provider_host(page, node);
        }
    }
    script_provider
}

/// The host serving element `node`'s source, if it is a third party's
/// wall or banner.
fn provider_host(page: &Page, node: NodeId) -> Option<Arc<str>> {
    let main = &page.frames[0].doc;
    let src = main
        .attr(node, "src")
        .or_else(|| main.attr(node, "data-src"))?;
    // The path is `src`'s own segments, so it can name a wall or banner
    // only if `src` does; most sources skip the parse.
    if !(src.contains("wall") || src.contains("banner")) {
        return None;
    }
    let url = Url::parse(src).ok()?;
    let third_party = !httpsim::same_site(url.host(), page.host());
    (third_party && (url.path().contains("wall") || url.path().contains("banner")))
        .then(|| Arc::from(url.host()))
}
