//! Derivation oracle: the verdict a [`DetectionSummary`] gives each
//! ablation setting against detecting afresh on the loaded page.
//!
//! A full study answers the ablation's and the bot detection's re-crawls
//! from the summary of the sweep's one detection per document. For every
//! distinct document a population serves in Germany, under the default
//! and the naive bot user agent, this loads the page, summarizes it as the
//! sweep does, and compares the summary's verdict for each detector
//! setting and corpus half with `tool.detect` plus `classify_wall`.
//!
//! The study-scale run (2,000 entries per list) is ignored by default;
//! `scripts/check.sh` runs it in release.

use analysis::experiments::botdetect::NAIVE_BOT_UA;
use analysis::Study;
use bannerclick::{
    classify_wall, BannerClick, CorpusMode, DetectionSummary, DetectorOptions, Verdict,
};
use browser::{Browser, Page};
use httpsim::{document_hash, Region};
use std::collections::HashSet;
use webgen::PopulationConfig;

/// The ablation's five tools, full pipeline first, plus the setting with
/// both mechanisms off.
fn tools() -> Vec<(&'static str, BannerClick)> {
    let tool = |pierce_shadow, descend_iframes, corpus| BannerClick {
        detector: DetectorOptions {
            pierce_shadow,
            descend_iframes,
            ..DetectorOptions::default()
        },
        corpus,
    };
    vec![
        (
            "full pipeline",
            tool(true, true, CorpusMode::WordsAndPrices),
        ),
        (
            "no shadow workaround",
            tool(false, true, CorpusMode::WordsAndPrices),
        ),
        (
            "no iframe descent",
            tool(true, false, CorpusMode::WordsAndPrices),
        ),
        ("words corpus only", tool(true, true, CorpusMode::WordsOnly)),
        (
            "prices corpus only",
            tool(true, true, CorpusMode::PricesOnly),
        ),
        (
            "neither mechanism",
            tool(false, false, CorpusMode::WordsAndPrices),
        ),
    ]
}

/// The verdict of detecting on `page` afresh.
fn detected(tool: &BannerClick, page: &Page) -> Verdict {
    let finding = tool.detect(page);
    Verdict {
        banner: finding.is_some(),
        cookiewall: finding.is_some_and(|b| classify_wall(&b.text, tool.corpus).is_cookiewall),
    }
}

/// Check every distinct German document of `config`'s population; returns
/// how many were checked.
fn check_population(config: PopulationConfig) -> usize {
    let study = Study::new(config);
    let tools = tools();
    let overlay_off = BannerClick {
        detector: DetectorOptions {
            overlay_heuristics: false,
            ..DetectorOptions::default()
        },
        corpus: CorpusMode::WordsAndPrices,
    };
    let mut seen = HashSet::new();
    // Per tool, documents whose verdict differs from the full pipeline's:
    // every setting must be exercised, not only agree where nothing moves.
    let mut differs = vec![0usize; tools.len()];
    for ua in [None, Some(NAIVE_BOT_UA)] {
        let mut browser = Browser::new(study.net.clone(), Region::Germany);
        if let Some(ua) = ua {
            browser = browser.with_user_agent(ua);
        }
        for domain in study.targets() {
            browser.clear_cookies();
            let Ok(fetched) = browser.fetch_domain_document(&domain) else {
                continue;
            };
            if !seen.insert((domain.clone(), document_hash(fetched.body_bytes()))) {
                continue;
            }
            let page = browser
                .load_fetched(&fetched)
                .expect("a fresh profile loads");
            let (_, summary) = study.tool.analyze_summarized(&domain, &page);
            let summary: DetectionSummary = summary.expect("the study's tool is the full pipeline");
            assert_eq!(summary.verdict(&overlay_off), None, "{domain}");
            let full = detected(&tools[0].1, &page);
            for (k, (label, tool)) in tools.iter().enumerate() {
                let want = detected(tool, &page);
                assert_eq!(
                    summary.verdict(tool),
                    Some(want),
                    "{label} on {domain} (user agent {ua:?})"
                );
                differs[k] += usize::from(want != full);
            }
        }
    }
    // Each mechanism must move some verdict. The corpus halves need not:
    // every generated wall has both a subscription word and a price (the
    // summary's own tests split them on hand-written pages).
    let [_, no_shadow, no_iframe, ..] = differs[..] else {
        unreachable!("six tools");
    };
    assert!(no_shadow > 0 && no_iframe > 0, "{differs:?}");
    seen.len()
}

#[test]
fn summaries_derive_every_ablation_verdict_small() {
    let checked = check_population(PopulationConfig::small());
    assert!(
        checked > PopulationConfig::small().list_size,
        "{checked} documents"
    );
}

#[test]
#[ignore = "study scale, about ten thousand pages; scripts/check.sh runs it in release"]
fn summaries_derive_every_ablation_verdict_study_scale() {
    check_population(PopulationConfig {
        list_size: 2_000,
        top1k_size: 200,
        global_sites: 600,
        dual_sites: 300,
        roster_divisor: 2,
        smp_divisor: 2,
        ..PopulationConfig::paper()
    });
}
