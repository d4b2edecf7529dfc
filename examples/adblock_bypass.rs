//! The §4.5 experiment in miniature: visit every cookiewall with and
//! without uBlock Origin's Annoyances lists and report which walls are
//! bypassed, which sites fight back, and which break.
//!
//! Run with: `cargo run --release --example adblock_bypass`

use std::sync::Arc;

use bannerclick::BannerClick;
use blocklist::FilterEngine;
use browser::Browser;
use httpsim::{Network, Region};
use webgen::{Population, PopulationConfig};

fn main() {
    let population = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&population), &net);
    let tool = BannerClick::new();

    let mut bypassed = 0;
    let mut survived = 0;
    let mut notes = Vec::new();
    let walls = population.ground_truth_walls();
    println!("testing {} cookiewall sites…\n", walls.len());

    for site in &walls {
        // First without any blocker: the wall must be there (from the EU).
        let mut plain = Browser::new(net.clone(), Region::Germany);
        let plain_hit = tool.analyze(&mut plain, &site.domain).cookiewall_detected();

        // Then with uBlock Origin + Annoyances, five repetitions.
        let mut wall_seen = false;
        let mut interstitial = false;
        let mut scroll_broken = false;
        for _ in 0..5 {
            let mut blocked = Browser::new(net.clone(), Region::Germany)
                .with_blocker(FilterEngine::ublock_with_annoyances());
            if let Ok(page) = blocked.visit_domain(&site.domain) {
                let a = tool.analyze_page(&site.domain, &page);
                wall_seen |= a.cookiewall_detected();
                interstitial |= page.adblock_interstitial;
                scroll_broken |= page.scroll_locked && !a.cookiewall_detected();
            }
        }
        if !plain_hit {
            continue; // geo-hidden from this VP
        }
        if wall_seen {
            survived += 1;
        } else {
            bypassed += 1;
            if interstitial {
                notes.push(format!(
                    "{}: detects the ad blocker and demands deactivation",
                    site.domain
                ));
            } else if scroll_broken {
                notes.push(format!("{}: clickable but not scrollable", site.domain));
            }
        }
    }

    let total = bypassed + survived;
    println!("walls shown without blocker: {total}");
    println!(
        "bypassed with Annoyances:    {bypassed} ({:.0}%)",
        100.0 * bypassed as f64 / total as f64
    );
    println!("still shown (first-party):   {survived}");
    if notes.is_empty() {
        println!("no misbehaving sites in this sample");
    } else {
        println!("\nmisbehaving bypassed sites:");
        for n in notes {
            println!("  - {n}");
        }
    }
    println!("\npaper shape: ~70% bypassed, 2 misbehaving out of 196 (full scale)");
}
