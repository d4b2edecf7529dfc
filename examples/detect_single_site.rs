//! Anatomy of a single detection: walk one cookiewall site through the
//! whole pipeline and narrate every step — page load, frame tree, shadow
//! piercing, classification, price extraction, accept click, and the
//! cookie ledger before/after.
//!
//! Run with: `cargo run --release --example detect_single_site`

use std::sync::Arc;

use bannerclick::{detect_banners, find_buttons};
use blocklist::TrackerDb;
use browser::Browser;
use httpsim::{Network, Region};
use webgen::{BannerKind, Embedding, Population, PopulationConfig};

fn main() {
    // Build a small world and pick a shadow-DOM cookiewall — the hardest
    // embedding, the one §3's workaround exists for.
    let population = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&population), &net);

    let site = population
        .ground_truth_walls()
        .into_iter()
        .find(|s| {
            matches!(&s.banner, BannerKind::Cookiewall(c)
                if matches!(c.embedding, Embedding::ShadowClosed | Embedding::ShadowOpen)
                    && c.visibility != webgen::Visibility::DeOnly)
        })
        .expect("a shadow-embedded wall exists");
    println!(
        "target: https://{}/  (language {:?}, category {})",
        site.domain, site.language, site.category
    );

    let mut browser = Browser::new(net, Region::Germany);
    let page = browser.visit_domain(&site.domain).expect("site reachable");
    println!(
        "loaded: {} frame(s), {} nodes in the main document",
        page.frames.len(),
        page.main().doc.len()
    );

    // Naive selector lookup cannot see the wall — that is the point.
    let naive = page.select_all_frames("#cw-wall");
    println!(
        "naive '#cw-wall' selector hits: {} (shadow DOM is opaque)",
        naive.len()
    );
    println!(
        "shadow hosts present: {}",
        page.main().doc.shadow_hosts().len()
    );

    // The BannerClick pipeline pierces it.
    let banners = detect_banners(&page, &Default::default());
    let banner = banners.first().expect("wall detected via the workaround");
    println!("detected banner via {:?}", banner.embedding);
    println!("banner text: {}", banner.text);

    let classification = bannerclick::classify_wall(&banner.text, Default::default());
    println!(
        "cookiewall: {} (subscription word: {}, price: {:?})",
        classification.is_cookiewall,
        classification.subscription_word,
        classification
            .price
            .as_ref()
            .map(|p| format!("{} {} ≙ {:.2} €/month", p.amount, p.currency, p.monthly_eur)),
    );

    for button in find_buttons(&page, banner) {
        println!("  button [{:?}] {:?}", button.role, button.label);
    }

    // Accept and compare the cookie ledger.
    let trackers = TrackerDb::justdomains();
    let before = browser
        .jar()
        .breakdown(&site.domain, |d| trackers.is_tracking_domain(d));
    let after_page = bannerclick::click_accept(&mut browser, &page, banner)
        .expect("click dispatched")
        .expect("accept button found");
    let after = browser
        .jar()
        .breakdown(&site.domain, |d| trackers.is_tracking_domain(d));
    println!(
        "cookies before accept: {:.0} first-party / {:.0} third-party / {:.0} tracking",
        before.first_party, before.third_party, before.tracking
    );
    println!(
        "cookies after  accept: {:.0} first-party / {:.0} third-party / {:.0} tracking",
        after.first_party, after.third_party, after.tracking
    );
    println!(
        "wall still visible after accept: {}",
        !detect_banners(&after_page, &Default::default()).is_empty()
    );

    // Ground truth check — in the real study this was a manual screenshot
    // inspection.
    println!(
        "ground truth confirms cookiewall: {}",
        site.banner.is_cookiewall()
    );
}
