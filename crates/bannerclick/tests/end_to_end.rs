//! End-to-end detection against the synthetic web: every ground-truth wall
//! class must be found, regular banners must not be misclassified, and the
//! decoy must reproduce the designed false positive.

use bannerclick::{
    classify_wall, click_accept, BannerClick, CorpusMode, DetectorOptions, ObservedEmbedding,
};
use browser::Browser;
use httpsim::{Network, Region};
use std::sync::Arc;
use webgen::{BannerKind, Embedding, Population, PopulationConfig, Visibility};

fn world() -> (Arc<Population>, Network) {
    let pop = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&pop), &net);
    (pop, net)
}

#[test]
fn detects_every_wall_class_from_germany() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::Germany);
    let mut missed = Vec::new();
    for site in pop.ground_truth_walls() {
        browser.clear_cookies();
        let analysis = tool.analyze(&mut browser, &site.domain);
        if !analysis.cookiewall_detected() {
            missed.push((site.domain.clone(), site.banner.clone()));
        } else {
            // Embedding attribution matches ground truth.
            let BannerKind::Cookiewall(cw) = &site.banner else {
                unreachable!()
            };
            let expected = match cw.embedding {
                Embedding::MainDom => ObservedEmbedding::MainDom,
                Embedding::Iframe => ObservedEmbedding::Iframe,
                Embedding::ShadowOpen | Embedding::ShadowClosed => ObservedEmbedding::ShadowDom,
            };
            assert_eq!(
                analysis.embedding(),
                Some(expected),
                "embedding attribution for {}",
                site.domain
            );
            // Price extraction matches the ground-truth offer.
            let got = analysis.price().expect("wall has a price").monthly_eur;
            let want = cw.price.monthly_eur();
            assert!(
                (got - want).abs() < 0.05,
                "{}: price {got} vs ground truth {want}",
                site.domain
            );
        }
    }
    assert!(
        missed.is_empty(),
        "all walls must be detected from Germany, missed: {missed:#?}"
    );
}

#[test]
fn regular_banners_are_not_walls() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::Germany);
    let mut checked = 0;
    for site in pop
        .sites()
        .iter()
        .filter(|s| matches!(&s.banner, BannerKind::Banner(_)) && !s.toplists.is_empty())
        .take(40)
    {
        browser.clear_cookies();
        let analysis = tool.analyze(&mut browser, &site.domain);
        assert!(
            analysis.banner_detected(),
            "{} should show a banner from the EU",
            site.domain
        );
        assert!(
            !analysis.cookiewall_detected(),
            "{} is a regular banner, not a wall: {:?}",
            site.domain,
            analysis.classification
        );
        checked += 1;
    }
    assert!(checked >= 20);
}

#[test]
fn decoy_is_the_designed_false_positive() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::UsEast);
    let decoy = pop
        .sites()
        .iter()
        .find(|s| matches!(s.banner, BannerKind::DecoyPaywall))
        .unwrap();
    let analysis = tool.analyze(&mut browser, &decoy.domain);
    assert!(
        analysis.cookiewall_detected(),
        "the decoy paywall must fool the classifier (98.2% precision source)"
    );
}

#[test]
fn eu_only_walls_invisible_from_india() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::India);
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        if cw.visibility == Visibility::Global {
            continue;
        }
        browser.clear_cookies();
        let analysis = tool.analyze(&mut browser, &site.domain);
        assert!(
            !analysis.cookiewall_detected(),
            "{} targets the EU only",
            site.domain
        );
    }
}

#[test]
fn shadow_ablation_loses_shadow_walls_only() {
    let (pop, net) = world();
    let no_shadow = BannerClick {
        detector: DetectorOptions {
            pierce_shadow: false,
            ..Default::default()
        },
        corpus: CorpusMode::WordsAndPrices,
    };
    let mut browser = Browser::new(net, Region::Germany);
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        browser.clear_cookies();
        let analysis = no_shadow.analyze(&mut browser, &site.domain);
        if cw.embedding.is_shadow() {
            assert!(
                !analysis.cookiewall_detected(),
                "{} is shadow-embedded; without the workaround it must vanish",
                site.domain
            );
        } else {
            assert!(
                analysis.cookiewall_detected(),
                "{} is not shadow-embedded; ablation must not affect it",
                site.domain
            );
        }
    }
}

#[test]
fn iframe_ablation_loses_iframe_walls_only() {
    let (pop, net) = world();
    let no_iframes = BannerClick {
        detector: DetectorOptions {
            descend_iframes: false,
            ..Default::default()
        },
        corpus: CorpusMode::WordsAndPrices,
    };
    let mut browser = Browser::new(net, Region::Germany);
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        browser.clear_cookies();
        let analysis = no_iframes.analyze(&mut browser, &site.domain);
        assert_eq!(
            analysis.cookiewall_detected(),
            cw.embedding != Embedding::Iframe,
            "{} embedding {:?}",
            site.domain,
            cw.embedding
        );
    }
}

#[test]
fn accept_interaction_works_on_all_embeddings() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::Germany);
    let mut by_embedding = std::collections::HashMap::new();
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        if by_embedding.contains_key(&cw.embedding) {
            continue;
        }
        browser.clear_cookies();
        // The path the cookie measurement takes: visit, detect, click.
        let page = browser.visit_domain(&site.domain).expect("wall answers");
        let banner = tool
            .detect(&page)
            .unwrap_or_else(|| panic!("no banner on {}", site.domain));
        assert!(
            classify_wall(&banner.text, tool.corpus).is_cookiewall,
            "{}",
            site.domain
        );
        let after = click_accept(&mut browser, &page, &banner)
            .expect("reload answers")
            .unwrap_or_else(|| panic!("accept click failed on {}", site.domain));
        // Post-consent page shows no wall.
        let re = tool.analyze_page(&site.domain, &after);
        assert!(
            !re.banner_detected(),
            "wall gone after accept on {}",
            site.domain
        );
        by_embedding.insert(cw.embedding, true);
    }
    assert!(
        by_embedding.len() >= 3,
        "covered embeddings: {by_embedding:?}"
    );
}

#[test]
fn smp_provider_observed_for_iframe_walls() {
    let (pop, net) = world();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::Germany);
    let mut observed = 0;
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        if cw.smp.is_none() {
            continue;
        }
        browser.clear_cookies();
        let analysis = tool.analyze(&mut browser, &site.domain);
        if let Some(provider) = &analysis.provider {
            assert!(
                provider.contains("contentpass") || provider.contains("freechoice"),
                "{}: provider {provider}",
                site.domain
            );
            observed += 1;
        }
    }
    assert!(
        observed >= 1,
        "at least one SMP wall attributes its provider"
    );
}

#[test]
fn detection_on_one_loaded_page_matches_fresh_loads() {
    // The variant pass of the German re-crawls loads a page once and runs
    // every detector setting on it. The shadow workaround clones into and
    // detaches from the page's documents, so each run must leave the page
    // as a fresh load would find it: every setting, in any order and
    // repeated, must report exactly what it reports on a fresh load.
    let (pop, net) = world();
    let mut settings = Vec::new();
    for pierce_shadow in [true, false] {
        for descend_iframes in [true, false] {
            for overlay_heuristics in [true, false] {
                settings.push(DetectorOptions {
                    pierce_shadow,
                    descend_iframes,
                    overlay_heuristics,
                });
            }
        }
    }
    // Run the full list twice, in both directions, on the one page.
    let order: Vec<&DetectorOptions> = settings.iter().chain(settings.iter().rev()).collect();
    let mut browser = Browser::new(net, Region::Germany);
    let mut seen = std::collections::HashSet::new();
    for site in pop.ground_truth_walls() {
        let BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        seen.insert(cw.embedding);
        browser.clear_cookies();
        let shared = browser.visit_domain(&site.domain).expect("wall site loads");
        for detector in &order {
            let tool = BannerClick {
                detector: (*detector).clone(),
                corpus: CorpusMode::WordsAndPrices,
            };
            browser.clear_cookies();
            let fresh = browser.visit_domain(&site.domain).expect("wall site loads");
            let want = tool.detect(&fresh);
            let got = tool.detect(&shared);
            assert_eq!(
                got.as_ref().map(|f| (f.root, f.embedding, f.text.as_str())),
                want.as_ref()
                    .map(|f| (f.root, f.embedding, f.text.as_str())),
                "{} ({:?}) under {:?}",
                site.domain,
                cw.embedding,
                detector
            );
        }
    }
    for embedding in [
        Embedding::MainDom,
        Embedding::Iframe,
        Embedding::ShadowOpen,
        Embedding::ShadowClosed,
    ] {
        assert!(seen.contains(&embedding), "no {embedding:?} wall checked");
    }
}
