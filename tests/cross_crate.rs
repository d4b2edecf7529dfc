//! Cross-crate scenario tests: behaviours that only emerge when the whole
//! stack (generator → network → browser → detector → analysis) runs
//! together.

use std::sync::Arc;

use bannerclick::{BannerClick, CorpusMode, DetectorOptions};
use browser::{Browser, ClickOutcome};
use httpsim::{Network, Region, Url};
use webgen::{BannerKind, Population, PopulationConfig, Visibility};

fn world() -> (Arc<Population>, Network) {
    let pop = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&pop), &net);
    (pop, net)
}

#[test]
fn climate_data_footnote_case() {
    // The footnote-2 site: on the Brazilian toplist (its pt. subdomain),
    // walls only EU visitors.
    let (pop, net) = world();
    let special = pop
        .sites()
        .iter()
        .find(|s| s.domain.starts_with("pt."))
        .expect("special site exists");
    assert!(special.on_toplist(webgen::Country::Br));
    let tool = BannerClick::new();

    let mut from_brazil = Browser::new(net.clone(), Region::Brazil);
    let br = tool.analyze(&mut from_brazil, &special.domain);
    assert!(br.reachable);
    assert!(!br.cookiewall_detected(), "no wall from Brazil");

    let mut from_germany = Browser::new(net.clone(), Region::Germany);
    let de = tool.analyze(&mut from_germany, &special.domain);
    assert!(de.cookiewall_detected(), "wall appears from Germany");

    let mut from_sweden = Browser::new(net, Region::Sweden);
    let se = tool.analyze(&mut from_sweden, &special.domain);
    assert!(se.cookiewall_detected(), "…and from Sweden");
}

#[test]
fn corpus_ablation_changes_precision_recall_tradeoff() {
    let (pop, net) = world();
    let decoy = pop
        .sites()
        .iter()
        .find(|s| matches!(s.banner, BannerKind::DecoyPaywall))
        .unwrap()
        .domain
        .clone();
    let walls: Vec<String> = pop
        .ground_truth_walls()
        .iter()
        .filter(|s| matches!(&s.banner, BannerKind::Cookiewall(c) if c.visibility != Visibility::DeOnly))
        .map(|s| s.domain.clone())
        .take(10)
        .collect();

    let run = |corpus: CorpusMode, domain: &str| {
        let tool = BannerClick {
            detector: DetectorOptions::default(),
            corpus,
        };
        let mut b = Browser::new(net.clone(), Region::Germany);
        tool.analyze(&mut b, domain).cookiewall_detected()
    };

    // Full corpus: finds all walls, and the decoy (FP).
    for w in &walls {
        assert!(run(CorpusMode::WordsAndPrices, w), "{w}");
    }
    assert!(
        run(CorpusMode::WordsAndPrices, &decoy),
        "decoy trips full corpus"
    );

    // Each corpus half trips on the decoy on its own: the paywall shows a
    // price (price half) *and* its subscribe CTA carries subscription
    // vocabulary (word half). This is exactly why the paper's precision is
    // below 100%: hard paywalls are lexically indistinguishable from
    // accept-or-pay walls at the banner-text level.
    assert!(run(CorpusMode::PricesOnly, &decoy));
    assert!(run(CorpusMode::WordsOnly, &decoy));

    // Recall on true walls is stable under either half alone, because real
    // cookiewalls carry both signals.
    for w in &walls {
        assert!(run(CorpusMode::WordsOnly, w), "{w}");
        assert!(run(CorpusMode::PricesOnly, w), "{w}");
    }
}

#[test]
fn rejecting_a_regular_banner_prevents_trackers() {
    let (pop, net) = world();
    let site = pop
        .sites()
        .iter()
        .filter(|s| matches!(&s.banner, BannerKind::Banner(_)) && !s.toplists.is_empty())
        .find(|s| matches!(&s.banner, BannerKind::Banner(b) if b.has_reject && !b.eu_only))
        .expect("a banner with reject");
    let tool = BannerClick::new();
    let trackers = blocklist::TrackerDb::justdomains();

    let mut browser = Browser::new(net, Region::Germany);
    let page = browser.visit_domain(&site.domain).unwrap();
    let analysis = tool.analyze_page(&site.domain, &page);
    let banner = analysis.banner.as_ref().expect("banner detected");
    let button = bannerclick::find_buttons(&page, banner)
        .into_iter()
        .find(|b| b.role == bannerclick::ButtonRole::Reject)
        .expect("reject button");
    let ClickOutcome::Rejected(after) = browser.click(&page, button.element).unwrap() else {
        panic!("clicking the reject button must reject");
    };
    // No tracking cookies after rejecting.
    let b = browser
        .jar()
        .breakdown(&site.domain, |d| trackers.is_tracking_domain(d));
    assert_eq!(b.tracking, 0.0, "reject must prevent tracking cookies");
    // And the banner is gone.
    assert!(!tool.analyze_page(&site.domain, &after).banner_detected());
}

#[test]
fn bot_user_agent_changes_observed_behaviour() {
    // §3's limitation: bot-detecting sites serve different content to
    // crawler-like clients. Our default UA mimics a real browser
    // (OpenWPM-style), so walls are visible; a naive bot UA loses them.
    let (pop, net) = world();
    let wall = pop.ground_truth_walls().into_iter().find(|s| {
        s.bot_sensitive
            && matches!(&s.banner, BannerKind::Cookiewall(c) if c.visibility != Visibility::DeOnly)
    });
    let Some(wall) = wall else {
        return; // small population may have no bot-sensitive wall
    };
    let tool = BannerClick::new();
    let mut stealthy = Browser::new(net.clone(), Region::Germany);
    assert!(tool
        .analyze(&mut stealthy, &wall.domain)
        .cookiewall_detected());
    let mut obvious =
        Browser::new(net, Region::Germany).with_user_agent("cookiewall-crawler/1.0 (research bot)");
    assert!(
        !tool
            .analyze(&mut obvious, &wall.domain)
            .cookiewall_detected(),
        "bot UA must hide the wall on {}",
        wall.domain
    );
}

#[test]
fn revocation_requires_clearing_site_data() {
    // §5: switching from "accept" to a subscription is not trivial — the
    // user must delete the site's cookies first.
    let (pop, net) = world();
    let partner = pop.smp_partners(webgen::Smp::Contentpass)[0].clone();
    let tool = BannerClick::new();
    let mut browser = Browser::new(net, Region::Germany);

    // Accept the wall.
    let page = browser.visit_domain(&partner).unwrap();
    assert!(tool.analyze_page(&partner, &page).cookiewall_detected());
    let banner = tool.detect(&page).unwrap();
    let after = bannerclick::click_accept(&mut browser, &page, &banner).unwrap();
    assert!(after.is_some());

    // Later, the user buys a subscription (logs in) — but the consent
    // cookie still short-circuits the wall, so the site keeps serving the
    // tracking variant.
    assert!(browser.login_smp(webgen::Smp::Contentpass.account_host(), "alice", "pw"));
    let trackers = blocklist::TrackerDb::justdomains();
    browser.visit(&Url::parse(&partner).unwrap()).unwrap();
    let tracked = browser
        .jar()
        .breakdown(&partner, |d| trackers.is_tracking_domain(d));
    assert!(tracked.tracking > 0.0, "still tracked despite subscription");

    // Deleting only the cookies does not help either: the consent state
    // is restored from localStorage on the next visit (§5's "delete their
    // cookies and local storage").
    browser.clear_site_cookies(&partner);
    browser.visit(&Url::parse(&partner).unwrap()).unwrap();
    let restored = browser
        .jar()
        .breakdown(&partner, |d| trackers.is_tracking_domain(d));
    assert!(
        restored.tracking >= tracked.tracking,
        "cookie-only deletion is undone by the localStorage restore"
    );

    // Only the full site-data deletion lets the entitlement kick in.
    browser.clear_site_data(&partner);
    let stale_tracking = browser
        .jar()
        .breakdown(&partner, |d| trackers.is_tracking_domain(d))
        .tracking;
    assert!(
        stale_tracking > 0.0,
        "deleting *site* data does not remove third-party tracker cookies — \
         the §5 revocation pitfall"
    );
    let page = browser.visit(&Url::parse(&partner).unwrap()).unwrap();
    assert!(page.reloaded_for_subscription);
    let after = browser
        .jar()
        .breakdown(&partner, |d| trackers.is_tracking_domain(d))
        .tracking;
    assert_eq!(
        after, stale_tracking,
        "the subscriber visit adds no new tracking cookies"
    );
}

#[test]
fn overlay_heuristics_ablation_is_noisier() {
    // Without the overlay requirement, footer privacy links become banner
    // candidates — demonstrating why the heuristic exists.
    let (pop, net) = world();
    let plain_site = pop
        .sites()
        .iter()
        .find(|s| matches!(s.banner, BannerKind::None) && !s.toplists.is_empty())
        .unwrap();
    let strict = BannerClick::new();
    let sloppy = BannerClick {
        detector: DetectorOptions {
            overlay_heuristics: false,
            ..Default::default()
        },
        corpus: CorpusMode::WordsAndPrices,
    };
    let mut b = Browser::new(net.clone(), Region::Germany);
    assert!(!strict.analyze(&mut b, &plain_site.domain).banner_detected());
    let mut b = Browser::new(net, Region::Germany);
    assert!(
        sloppy.analyze(&mut b, &plain_site.domain).banner_detected(),
        "without overlay heuristics the privacy nav link is (wrongly) a banner"
    );
}
