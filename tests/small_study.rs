//! Workspace integration test: the complete study at reduced scale, with
//! every paper shape asserted — who wins, by roughly what factor, where the
//! crossovers fall.

use analysis::{run_all, Study};
use httpsim::Region;

#[test]
fn full_small_scale_study_reproduces_paper_shapes() {
    let study = Study::small();
    let report = run_all(&study);

    // ---- Table 1: EU vantage points see (almost) every wall, non-EU ~2/3.
    let de = report.table1.row(Region::Germany).unwrap();
    let se = report.table1.row(Region::Sweden).unwrap();
    let us = report.table1.row(Region::UsEast).unwrap();
    let au = report.table1.row(Region::Australia).unwrap();
    assert!(de.cookiewalls >= se.cookiewalls, "Germany sees everything");
    assert!(
        se.cookiewalls > us.cookiewalls,
        "EU ({}) must dominate non-EU ({})",
        se.cookiewalls,
        us.cookiewalls
    );
    // Germany dominates every per-VP characteristic.
    assert!(de.toplist > 0 && de.cctld > 0 && de.language > 0);
    assert!(us.toplist == 0, "no walls on the US toplist");
    assert!(us.cctld == 0, "no .us walls");
    assert_eq!(se.language, 0, "Table 1's Sweden language column is zero");
    assert!(au.toplist >= 1, "the Australian toplist walls show from AU");
    // Popularity: walls over-index in the top-1k bucket, Germany most.
    assert!(report.table1.top1k_rate > report.table1.overall_rate);
    assert!(report.table1.de_top1k_rate > report.table1.de_toplist_rate);

    // ---- §3 accuracy: high precision with at least the decoy FP;
    // perfect recall from the EU.
    assert!(
        report.accuracy.false_positives >= 1,
        "the decoy fools the tool"
    );
    assert!(report.accuracy.precision > 0.9);
    assert_eq!(report.accuracy.false_negatives, 0);
    assert_eq!(
        report.accuracy.sample_detected, report.accuracy.sample_walls,
        "random audit finds every wall in the sample"
    );

    // ---- §3 embedding: all three channels present; iframe the largest.
    let emb = &report.embedding;
    assert!(emb.shadow > 0 && emb.iframe > 0 && emb.main_dom > 0);
    assert!(emb.iframe >= emb.shadow && emb.iframe >= emb.main_dom);
    assert_eq!(
        emb.shadow + emb.iframe + emb.main_dom,
        report.table1.row(Region::Germany).unwrap().cookiewalls
    );

    // ---- Figure 1: news is the biggest category at paper scale; at small
    // scale it must at least be populated and the shares must sum to 1.
    let total_share: f64 = report.fig1.shares.iter().map(|s| s.share).sum();
    assert!((total_share - 1.0).abs() < 1e-9);
    assert!(report.fig1.total > 0);

    // ---- Figure 2: the 3-euro mode and the ≤4€ mass.
    assert!(
        report.fig2.at_most_4 > 0.80,
        "≤4€: {}",
        report.fig2.at_most_4
    );
    assert!(
        report.fig2.at_most_3 > 0.55,
        "≤3€: {}",
        report.fig2.at_most_3
    );
    assert!(
        report.fig2.median <= 3.05,
        "median near 3€: {}",
        report.fig2.median
    );
    assert!(!report.fig2.prices.is_empty());

    // ---- Figure 3: no meaningful category/price relationship.
    if let Some(eta) = report.fig3.eta_squared {
        assert!(eta < 0.5, "eta² should be small-ish: {eta}");
    }

    // ---- Figure 4: cookiewall sites send far more third-party and
    // tracking cookies.
    let f4 = &report.fig4;
    assert!(f4.wall.tracking.median > 10.0 * f4.banner.tracking.median.max(0.5));
    assert!(
        f4.tracking_ratio > 15.0,
        "tracking ratio {}",
        f4.tracking_ratio
    );
    assert!(
        f4.third_party_ratio > 3.0,
        "TP ratio {}",
        f4.third_party_ratio
    );
    // First-party counts are similar between groups (same order).
    assert!(f4.wall.first_party.median / f4.banner.first_party.median < 2.0);

    // ---- Figure 5: subscription eliminates tracking entirely.
    let f5 = &report.fig5;
    assert_eq!(
        f5.subscribed.tracking.max, 0.0,
        "no tracking for subscribers"
    );
    assert!(f5.accept.tracking.median > 5.0);
    assert!(f5.subscribed.first_party.median < f5.accept.first_party.median);
    assert!(f5.subscribed.third_party.median < f5.accept.third_party.median);

    // ---- Figure 6: no meaningful linear correlation.
    if let Some(r) = report.fig6.pearson_r {
        assert!(
            r.abs() < 0.5,
            "price/tracking correlation should be weak: {r}"
        );
    }

    // ---- §4.5: majority of walls bypassed, but not all.
    assert!(
        report.bypass.rate > 0.5 && report.bypass.rate < 0.9,
        "bypass rate {}",
        report.bypass.rate
    );
    assert!(report.bypass.bypassed < report.bypass.total);

    // ---- §4.4: both SMPs present; claimed > in-toplist; crawl attribution
    // matches the toplist intersection.
    let cp = report
        .smp
        .platforms
        .iter()
        .find(|p| p.name == "contentpass")
        .unwrap();
    let fc = report
        .smp
        .platforms
        .iter()
        .find(|p| p.name == "freechoice")
        .unwrap();
    assert!(cp.claimed_partners > cp.in_toplist);
    assert!(fc.claimed_partners > fc.in_toplist);
    assert_eq!(cp.attributed_by_crawl, cp.in_toplist);
    assert!((cp.monthly_eur - 2.99).abs() < 1e-9);

    // ---- Banner prevalence: EU sees more consent UIs than non-EU.
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
        de_rate > in_rate,
        "banner rate DE {de_rate} vs IN {in_rate}"
    );

    // ---- Mechanism ablation: each §3 mechanism loses exactly its
    // embedding class; the corpus halves keep recall on generator walls.
    let full = report.ablation.row("full pipeline").unwrap();
    let no_shadow = report.ablation.row("no shadow workaround").unwrap();
    let no_iframe = report.ablation.row("no iframe descent").unwrap();
    assert_eq!(no_shadow.lost_vs_full, report.embedding.shadow);
    assert_eq!(no_iframe.lost_vs_full, report.embedding.iframe);
    assert_eq!(full.true_positives, de.cookiewalls);

    // ---- Dark pattern: banners mostly offer reject; walls never do, and
    // always offer a subscription instead.
    let dp = &report.darkpatterns;
    assert!(dp.walls.inspected > 0 && dp.banners.inspected > 0);
    assert_eq!(dp.walls.with_reject, 0, "cookiewalls never offer reject");
    assert_eq!(dp.walls.with_subscribe, dp.walls.inspected);
    assert!(dp.banners.with_reject as f64 / dp.banners.inspected as f64 > 0.7);
    assert_eq!(dp.banners.with_subscribe, 0);
    assert_eq!(
        dp.walls.with_accept, dp.walls.inspected,
        "accept always present"
    );

    // ---- Bot detection: a naive crawler UA loses some consent UIs.
    let bd = &report.botdetect;
    assert!(bd.walls_naive <= bd.walls_stealth);
    assert!(bd.banners_naive <= bd.banners_stealth);

    // ---- The report renders and serializes.
    let text = report.render();
    assert!(text.contains("Table 1"));
    assert!(text.contains("Figure 6"));
    let json = report.to_json();
    assert!(json.contains("\"table1\""));
    assert!(json.contains("\"bypass\""));
    assert!(json.contains("\"ablation\""));
}
