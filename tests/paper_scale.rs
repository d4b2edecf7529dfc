//! Paper-scale reproduction test: every headline number of the paper,
//! checked against the full 45,222-target / 8-vantage-point run.
//!
//! This is the flagship (and slowest) test — about a minute in release
//! mode, several in debug — so it is `#[ignore]`d by default:
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```

use analysis::{run_all, Study};
use httpsim::Region;

#[test]
#[ignore = "full 45k × 8 crawl; run with --release -- --ignored"]
fn paper_scale_headline_numbers() {
    let study = Study::paper();
    assert_eq!(
        study.targets().len(),
        45_222,
        "§3: unique reachable targets"
    );

    let report = run_all(&study);

    // Table 1, exactly as published where the population pins it.
    let de = report.table1.row(Region::Germany).unwrap();
    assert_eq!(de.cookiewalls, 280);
    assert_eq!(de.toplist, 259);
    assert_eq!(de.cctld, 233);
    assert_eq!(de.language, 252);
    let se = report.table1.row(Region::Sweden).unwrap();
    assert_eq!(se.cookiewalls, 276);
    assert_eq!(se.toplist, 15);
    assert_eq!(se.cctld, 0);
    assert_eq!(se.language, 0);
    let au = report.table1.row(Region::Australia).unwrap();
    assert_eq!(au.toplist, 5);
    // Non-EU detections in the paper's 190–199 band.
    for region in [
        Region::UsEast,
        Region::UsWest,
        Region::Brazil,
        Region::SouthAfrica,
        Region::India,
        Region::Australia,
    ] {
        let row = report.table1.row(region).unwrap();
        assert!(
            (185..=205).contains(&row.cookiewalls),
            "{region}: {}",
            row.cookiewalls
        );
        assert_eq!(row.cctld, 0, "{region} ccTLD column");
    }
    assert_eq!(report.table1.unique_walls, 280);
    // 0.6% overall; 8.5% in Germany's top 1k.
    assert!((report.table1.overall_rate - 0.0062).abs() < 0.0005);
    assert!((report.table1.de_top1k_rate - 0.085).abs() < 0.001);
    assert!(report.table1.top1k_rate > 0.012, "top-1k ≈ 1.7%");

    // §3 accuracy: 285 detections, 5 FP, 98.2% precision; the 1000-domain
    // audit finds all 6 walls it contains.
    assert_eq!(report.accuracy.detected, 285);
    assert_eq!(report.accuracy.false_positives, 5);
    assert!((report.accuracy.precision - 0.982).abs() < 0.002);
    assert_eq!(report.accuracy.sample_walls, 6);
    assert_eq!(report.accuracy.sample_detected, 6);

    // §3 embedding split: 76 shadow / 132 iframe / 72 main DOM.
    assert_eq!(report.embedding.shadow, 76);
    assert_eq!(report.embedding.iframe, 132);
    assert_eq!(report.embedding.main_dom, 72);

    // Figure 1: news and media above one fourth.
    assert!(report
        .fig1
        .shares
        .iter()
        .any(|s| s.category == "News and Media" && s.share > 0.25));

    // Figure 2: ~80% ≤ 3€, ~90% ≤ 4€, 3€ mode, expensive tail ≥ 9€.
    assert!((report.fig2.at_most_3 - 0.80).abs() < 0.06);
    assert!((report.fig2.at_most_4 - 0.90).abs() < 0.04);
    assert!((report.fig2.median - 2.99).abs() < 0.1);
    assert!(report.fig2.at_least_9 > 0.01);
    // Italian TLD cheaper than German.
    let mean_price = |tld: &str| {
        let prices: Vec<f64> = (report.fig2.prices.iter())
            .filter(|(domain, _)| domain.rsplit('.').next() == Some(tld))
            .map(|(_, price)| *price)
            .collect();
        assert!(!prices.is_empty(), "no .{tld} wall has a price");
        prices.iter().sum::<f64>() / prices.len() as f64
    };
    assert!(mean_price("it") < mean_price("de"));

    // Figure 3: no obvious relationship.
    assert!(report.fig3.eta_squared.unwrap() < 0.15);

    // Figure 4: medians FP 15/19-ish, TP 6.8/50.4-ish, tracking 1/43-ish;
    // ratios ≈ 6.4× (TP) and ≈ 42× (tracking).
    let f4 = &report.fig4;
    assert!((f4.banner.first_party.median - 15.0).abs() < 3.0);
    assert!((f4.wall.first_party.median - 19.0).abs() < 3.0);
    assert!((f4.banner.third_party.median - 6.8).abs() < 2.5);
    assert!((f4.wall.third_party.median - 50.4).abs() < 8.0);
    assert!((f4.banner.tracking.median - 1.0).abs() < 1.0);
    assert!((f4.wall.tracking.median - 43.0).abs() < 8.0);
    assert!(
        (4.0..10.0).contains(&f4.third_party_ratio),
        "{}",
        f4.third_party_ratio
    );
    assert!(
        (30.0..60.0).contains(&f4.tracking_ratio),
        "{}",
        f4.tracking_ratio
    );

    // Figure 5: 219 partners; accept ≈ 13 FP / 23.2 TP / 16 tracking;
    // subscription ≈ 6 / 4.4 / 0 with >100-tracking outliers on accept.
    let f5 = &report.fig5;
    assert_eq!(f5.partners, 219);
    assert!((f5.accept.first_party.median - 13.0).abs() < 2.5);
    assert!((f5.accept.third_party.median - 23.2).abs() < 4.0);
    assert!((f5.accept.tracking.median - 16.0).abs() < 3.0);
    assert!((f5.subscribed.first_party.median - 6.0).abs() < 1.5);
    assert!((f5.subscribed.third_party.median - 4.4).abs() < 1.5);
    assert_eq!(f5.subscribed.tracking.max, 0.0);
    assert!(
        f5.extreme_sites >= 1,
        "some sites send >100 tracking cookies"
    );

    // Figure 6: no meaningful linear correlation.
    assert!(report.fig6.pearson_r.unwrap().abs() < 0.2);

    // §4.5: 196/280 = 70% bypassed; exactly two misbehaving sites.
    assert_eq!(report.bypass.total, 280);
    assert_eq!(report.bypass.bypassed, 196);
    assert!((report.bypass.rate - 0.70).abs() < 0.01);
    assert_eq!(report.bypass.misbehaving, 2);

    // Mechanism ablation at paper scale: the shadow workaround buys the
    // 76 shadow walls, iframe descent the 132 iframe walls.
    assert_eq!(
        report
            .ablation
            .row("no shadow workaround")
            .unwrap()
            .lost_vs_full,
        76
    );
    assert_eq!(
        report
            .ablation
            .row("no iframe descent")
            .unwrap()
            .lost_vs_full,
        132
    );

    // Banner prevalence (§4.1 context): EU ≫ non-EU.
    let de_rate = report
        .banners
        .rows
        .iter()
        .find(|r| r.vp == "Germany")
        .unwrap()
        .rate;
    let in_rate = report
        .banners
        .rows
        .iter()
        .find(|r| r.vp == "India")
        .unwrap()
        .rate;
    assert!(
        de_rate > 0.35 && in_rate < 0.30,
        "DE {de_rate} vs IN {in_rate}"
    );

    // Bot detection (§3 limitation): a naive UA loses a handful of walls.
    assert!(
        (1..=25).contains(&report.botdetect.lost),
        "{}",
        report.botdetect.lost
    );

    // Dark pattern (§5): all 280 walls offer accept+subscribe, none
    // offers reject.
    assert_eq!(report.darkpatterns.walls.inspected, 280);
    assert_eq!(report.darkpatterns.walls.with_reject, 0);
    assert_eq!(report.darkpatterns.walls.with_subscribe, 280);

    // §4.4: contentpass 219 claimed / 76 in-list; freechoice 167 / 62.
    let cp = report
        .smp
        .platforms
        .iter()
        .find(|p| p.name == "contentpass")
        .unwrap();
    assert_eq!(cp.claimed_partners, 219);
    assert_eq!(cp.in_toplist, 76);
    assert_eq!(cp.attributed_by_crawl, 76);
    let fc = report
        .smp
        .platforms
        .iter()
        .find(|p| p.name == "freechoice")
        .unwrap();
    assert_eq!(fc.claimed_partners, 167);
    assert_eq!(fc.in_toplist, 62);
}
