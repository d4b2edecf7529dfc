//! Property-based tests for the population generator and its servers.

use httpsim::{Network, Region, Request, Url};
use proptest::prelude::*;
use std::sync::Arc;
use webgen::{
    domain_name, format_price, plan_trackers, server, stable_hash, stable_shuffle, Currency,
    Period, Population, PopulationConfig, PriceSpec,
};

proptest! {
    /// Domain names are unique per (language, tld) and always parse as
    /// registrable domains.
    #[test]
    fn domain_names_well_formed(idx in 0usize..10_000) {
        for lang in [langid::Language::German, langid::Language::English] {
            let d = domain_name(lang, "de", idx);
            prop_assert!(Url::parse(&d).is_ok());
            prop_assert_eq!(httpsim::registrable_domain(&d), Some(d.as_str()));
            // Injective per index within the same pool.
            if idx > 0 {
                prop_assert_ne!(d, domain_name(lang, "de", idx - 1));
            }
        }
    }

    /// stable_hash and stable_shuffle are pure functions of their inputs.
    #[test]
    fn determinism_primitives(key in "[a-z0-9/]{1,30}", n in 1usize..50) {
        prop_assert_eq!(stable_hash(&key), stable_hash(&key));
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<usize> = (0..n).collect();
        stable_shuffle(&mut a, &key);
        stable_shuffle(&mut b, &key);
        prop_assert_eq!(&a, &b);
        // Shuffle is a permutation.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Tracker plans always hit their exact cookie budget, for any budget.
    #[test]
    fn tracker_plan_budget_exact(site in "[a-z]{3,10}", visit in 0u64..20, total in 0u32..180) {
        let plans = plan_trackers(&format!("{site}.de"), visit, total);
        let planned: u32 = plans.iter().map(|p| p.cookies + u32::from(p.sync_with.is_some())).sum();
        prop_assert_eq!(planned, total);
        // Every host is a listed tracker (so every planned cookie counts as
        // tracking under the justdomains classifier).
        let db = blocklist::TrackerDb::justdomains();
        for p in &plans {
            prop_assert!(db.is_tracking_domain(p.host));
            if let Some(s) = p.sync_with {
                prop_assert!(db.is_tracking_domain(s));
            }
        }
    }

    /// Every price the generator can render is parsed back by the
    /// bannerclick extractor to the same monthly EUR value.
    #[test]
    fn price_render_extract_roundtrip(
        cents in 99u32..5000,
        yearly in any::<bool>(),
        cur in 0usize..4,
        lang_idx in 0usize..8,
    ) {
        let currency = [Currency::Eur, Currency::Usd, Currency::Gbp, Currency::Aud][cur];
        let period = if yearly { Period::Year } else { Period::Month };
        let spec = PriceSpec { amount_cents: cents, currency, period };
        let lang = langid::Language::ALL[lang_idx];
        let text = format!(
            "Abo: {} {}",
            format_price(lang, &spec),
            webgen::period_phrase(lang, period)
        );
        let got = bannerclick::subscription_price(&text)
            .ok_or_else(|| TestCaseError::fail(format!("no price in {text:?}")))?;
        let want = spec.monthly_eur();
        prop_assert!(
            (got.monthly_eur - want).abs() < 0.02,
            "{:?}: got {} want {}",
            text, got.monthly_eur, want
        );
    }
}

#[test]
fn every_tiny_site_page_is_parseable_and_self_consistent() {
    let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
    let net = Network::new();
    server::install(Arc::clone(&pop), &net);
    for domain in pop.merged_targets() {
        let url = Url::parse(&domain).unwrap();
        let resp = net.dispatch(&Request::navigation(&url, Region::Germany));
        assert_eq!(resp.status, 200, "{domain}");
        let doc = webdom::parse(&resp.body_text());
        // Serialization round-trips for every generated page.
        let again = webdom::parse(&doc.to_html());
        assert_eq!(doc.to_html(), again.to_html(), "{domain} round-trip");
        // Pages have a body and a title mentioning the domain.
        assert!(doc.body().is_some(), "{domain}");
        assert!(doc.visible_text(doc.root()).len() > 50, "{domain}");
    }
}

#[test]
fn population_scales_are_consistent() {
    // The same roster strata appear at every scale; counts shrink
    // monotonically.
    let tiny = Population::generate(PopulationConfig::tiny());
    let small = Population::generate(PopulationConfig::small());
    assert!(tiny.ground_truth_walls().len() < small.ground_truth_walls().len());
    assert!(tiny.merged_targets().len() < small.merged_targets().len());
    for pop in [&tiny, &small] {
        // Walls never exceed targets; SMP partner lists are disjoint.
        let cp: std::collections::HashSet<_> =
            pop.smp_partners(webgen::Smp::Contentpass).iter().collect();
        let fc: std::collections::HashSet<_> =
            pop.smp_partners(webgen::Smp::Freechoice).iter().collect();
        assert!(cp.is_disjoint(&fc), "a site has one SMP at most");
    }
}

#[test]
fn dead_domains_are_unreachable_and_calibration_unaffected() {
    let mut cfg = PopulationConfig::tiny();
    cfg.unreachable_per_mille = 100; // 10% of banner-less filler sites die
    let pop = Arc::new(Population::generate(cfg.clone()));
    assert!(
        pop.sites().iter().any(|s| pop.is_dead(&s.domain)),
        "some sites must be dead"
    );
    let net = Network::new();
    server::install(Arc::clone(&pop), &net);
    // Dead domains fail like lapsed registrations.
    let dead = pop.sites().iter().find(|s| pop.is_dead(&s.domain)).unwrap();
    let url = Url::parse(&dead.domain).unwrap();
    let resp = net.dispatch(&Request::navigation(&url, Region::Germany));
    assert_eq!(resp.status, 0, "connection failure");
    // The calibrated populations (walls, decoys, banner sites) never die.
    for s in pop.ground_truth_walls() {
        assert!(!pop.is_dead(&s.domain), "{}", s.domain);
    }
    for s in pop
        .sites()
        .iter()
        .filter(|s| matches!(s.banner, webgen::BannerKind::DecoyPaywall))
    {
        assert!(!pop.is_dead(&s.domain));
    }
    // And the paper-scale config keeps everything reachable (the 45,222
    // targets are the *reachable* union by construction).
    assert_eq!(PopulationConfig::paper().unreachable_per_mille, 0);
}
