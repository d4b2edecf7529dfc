//! Detection summaries: what one detection pass with every mechanism on
//! tells the ablation's other detector settings and corpus halves, so a
//! page analyzed once answers them all without being detected again.
//!
//! [`detect_banners`] walks the frames in order and yields at most one
//! finding per frame: the frame's light-DOM banner or, failing that and
//! with `pierce_shadow`, its first shadow-DOM banner. The light pass does
//! not read either option. Turning a mechanism off therefore only removes
//! findings from the full list:
//!
//! * without `pierce_shadow` they are the full list's non-shadow findings;
//! * without `descend_iframes` they are its main-frame findings (the walk
//!   stops at the first subframe, and the main frame comes first).
//!
//! Any setting's first finding is thus the full list's first finding or
//! its first non-shadow one, kept only if it lies in the main frame when
//! iframes are not descended. Classification reads only the finding's
//! text, so the two flags the corpus halves test are all a verdict needs.
//!
//! [`detect_banners`]: crate::detect_banners

use crate::analyzer::{BannerClick, SiteAnalysis};
use crate::classify::{classify_wall, CorpusMode, WallClassification};
use crate::detect::{BannerFinding, DetectorOptions, ObservedEmbedding};

/// What a detector and corpus conclude about a page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// A banner of any kind was detected.
    pub banner: bool,
    /// The banner was classified as a cookiewall.
    pub cookiewall: bool,
}

/// The facts about one finding that any detector setting and corpus half
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FindingFlags {
    /// The finding lies in the main frame.
    main_frame: bool,
    /// The finding lies behind a shadow root.
    shadow: bool,
    /// Its text has a subscription word.
    words: bool,
    /// Its text has a currency/price combination.
    price: bool,
}

impl FindingFlags {
    fn of(finding: &BannerFinding, classification: &WallClassification) -> Self {
        FindingFlags {
            main_frame: finding.root.frame == 0,
            shadow: finding.embedding == ObservedEmbedding::ShadowDom,
            words: classification.subscription_word,
            price: classification.price.is_some(),
        }
    }

    fn is_cookiewall(self, corpus: CorpusMode) -> bool {
        match corpus {
            CorpusMode::WordsAndPrices => self.words || self.price,
            CorpusMode::WordsOnly => self.words,
            CorpusMode::PricesOnly => self.price,
        }
    }
}

/// A page's detection under a setting that pierces shadow roots and
/// descends iframes, small enough to keep per document: the flags of the
/// first finding, and of the first non-shadow finding when that is
/// another one. See the module docs for why this determines the verdict
/// of every setting with the same overlay heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionSummary {
    /// The detector's `overlay_heuristics`: the findings of a setting
    /// without them are not a sublist of these.
    overlay_heuristics: bool,
    first: Option<FindingFlags>,
    /// Set only when the first finding is behind a shadow root.
    first_unshadowed: Option<FindingFlags>,
}

impl DetectionSummary {
    /// Summarize `analysis`, made from the first of `findings` by a
    /// detector under `options`; `rest` are the findings after it. `None`
    /// unless `options` pierce shadow roots and descend iframes.
    pub(crate) fn new(
        options: &DetectorOptions,
        analysis: &SiteAnalysis,
        rest: &[BannerFinding],
    ) -> Option<Self> {
        if !(options.pierce_shadow && options.descend_iframes) {
            return None;
        }
        let first = analysis
            .banner
            .as_ref()
            .zip(analysis.classification.as_ref())
            .map(|(finding, classification)| FindingFlags::of(finding, classification));
        let first_unshadowed = first
            .filter(|f| f.shadow)
            .and_then(|_| {
                rest.iter()
                    .find(|f| f.embedding != ObservedEmbedding::ShadowDom)
            })
            .map(|f| FindingFlags::of(f, &classify_wall(&f.text, CorpusMode::default())));
        Some(DetectionSummary {
            overlay_heuristics: options.overlay_heuristics,
            first,
            first_unshadowed,
        })
    }

    /// `tool`'s verdict on the summarized page, as [`BannerClick::detect`]
    /// and [`classify_wall`] would reach it: `None` when `tool`'s overlay
    /// heuristics differ from the summarized detector's.
    pub fn verdict(&self, tool: &BannerClick) -> Option<Verdict> {
        let options = &tool.detector;
        if options.overlay_heuristics != self.overlay_heuristics {
            return None;
        }
        let finding = match self.first {
            Some(first) if first.shadow && !options.pierce_shadow => self.first_unshadowed,
            first => first,
        }
        .filter(|f| f.main_frame || options.descend_iframes);
        Some(Verdict {
            banner: finding.is_some(),
            cookiewall: finding.is_some_and(|f| f.is_cookiewall(tool.corpus)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(main_frame: bool, shadow: bool, words: bool, price: bool) -> FindingFlags {
        FindingFlags {
            main_frame,
            shadow,
            words,
            price,
        }
    }

    fn tool(pierce_shadow: bool, descend_iframes: bool, corpus: CorpusMode) -> BannerClick {
        BannerClick {
            detector: DetectorOptions {
                pierce_shadow,
                descend_iframes,
                ..DetectorOptions::default()
            },
            corpus,
        }
    }

    fn verdict(banner: bool, cookiewall: bool) -> Option<Verdict> {
        Some(Verdict { banner, cookiewall })
    }

    #[test]
    fn each_setting_picks_its_finding_and_each_corpus_its_flag() {
        // A shadow wall with only a price in the main frame, then a
        // regular banner in an iframe.
        let summary = DetectionSummary {
            overlay_heuristics: true,
            first: Some(flags(true, true, false, true)),
            first_unshadowed: Some(flags(false, false, false, false)),
        };
        let full = CorpusMode::WordsAndPrices;
        assert_eq!(
            summary.verdict(&tool(true, true, full)),
            verdict(true, true)
        );
        assert_eq!(
            summary.verdict(&tool(true, true, CorpusMode::WordsOnly)),
            verdict(true, false)
        );
        assert_eq!(
            summary.verdict(&tool(true, true, CorpusMode::PricesOnly)),
            verdict(true, true)
        );
        assert_eq!(
            summary.verdict(&tool(false, true, full)),
            verdict(true, false)
        );
        assert_eq!(
            summary.verdict(&tool(true, false, full)),
            verdict(true, true)
        );
        assert_eq!(
            summary.verdict(&tool(false, false, full)),
            verdict(false, false)
        );

        let overlay_off = BannerClick {
            detector: DetectorOptions {
                overlay_heuristics: false,
                ..DetectorOptions::default()
            },
            corpus: full,
        };
        assert_eq!(summary.verdict(&overlay_off), None);
    }

    /// A page of `main` plus one consent iframe holding `iframe`.
    fn page(main: &str, iframe: &str) -> browser::Page {
        let url = httpsim::Url::parse("https://test.de/").unwrap();
        let cmp = httpsim::Url::parse("https://cmp.example/banner").unwrap();
        let main = webdom::parse(&format!(
            r#"{main}<iframe src="https://cmp.example/banner"></iframe>"#
        ));
        let iframe_el = main.select(main.root(), "iframe").unwrap()[0];
        browser::Page {
            url: url.clone(),
            final_url: url.clone(),
            status: 200,
            frames: vec![
                browser::Frame {
                    doc: main,
                    url,
                    parent: None,
                },
                browser::Frame {
                    doc: webdom::parse(iframe),
                    url: cmp,
                    parent: Some((0, iframe_el)),
                },
            ],
            blocked: 0,
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        }
    }

    /// Every detector setting and corpus half reads the verdict off the
    /// summary that detecting afresh reaches.
    fn assert_derivable(page: &browser::Page) {
        let (_, summary) = BannerClick::new().analyze_summarized("test.de", page);
        let summary = summary.expect("the full pipeline summarizes");
        for pierce in [true, false] {
            for descend in [true, false] {
                for corpus in [
                    CorpusMode::WordsAndPrices,
                    CorpusMode::WordsOnly,
                    CorpusMode::PricesOnly,
                ] {
                    let tool = tool(pierce, descend, corpus);
                    let finding = tool.detect(page);
                    let want = Verdict {
                        banner: finding.is_some(),
                        cookiewall: finding
                            .is_some_and(|b| classify_wall(&b.text, corpus).is_cookiewall),
                    };
                    assert_eq!(
                        summary.verdict(&tool),
                        Some(want),
                        "pierce={pierce} descend={descend} {corpus:?}"
                    );
                }
            }
        }
    }

    const PRICE_ONLY: &str = "Wir verwenden Cookies. Ohne Werbung lesen: 1,99 € pro Monat.";
    const WORDS_ONLY: &str = "We use cookies. Subscribe to read without them.";

    #[test]
    fn summaries_of_loaded_pages_answer_every_setting() {
        // A price-only wall behind a shadow root, then a words-only one in
        // the iframe: the settings disagree on finding and on flag.
        assert_derivable(&page(
            &format!(
                r#"<div id="host"><template shadowrootmode="closed"><div style="position:fixed;z-index:100000"><p>{PRICE_ONLY}</p></div></template></div>"#
            ),
            &format!("<div><p>{WORDS_ONLY}</p></div>"),
        ));
        // A words-only main-frame banner first, a price-only iframe after.
        assert_derivable(&page(
            &format!(r#"<div class="cookie-banner"><p>{WORDS_ONLY}</p></div>"#),
            &format!("<div><p>{PRICE_ONLY}</p></div>"),
        ));
        // A shadow-only page: without the workaround there is nothing.
        assert_derivable(&page(
            &format!(
                r#"<div id="host"><template shadowrootmode="open"><div class="consent"><p>{WORDS_ONLY}</p></div></template></div>"#
            ),
            "<p>article</p>",
        ));
    }

    #[test]
    fn nothing_found_is_no_banner_under_every_setting() {
        let summary = DetectionSummary {
            overlay_heuristics: true,
            first: None,
            first_unshadowed: None,
        };
        for pierce in [true, false] {
            for descend in [true, false] {
                let tool = tool(pierce, descend, CorpusMode::WordsAndPrices);
                assert_eq!(summary.verdict(&tool), verdict(false, false));
            }
        }
    }
}
