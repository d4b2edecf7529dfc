//! §4.5: bypassing cookiewalls with a content blocker (uBlock Origin with
//! the Annoyances lists). The paper finds 196 of 280 walls (70%) no longer
//! display across five repetitions, with two of the bypassed sites
//! misbehaving.

use crate::context::Study;
use crate::crawl::VantageCrawl;
use blocklist::FilterEngine;
use browser::Browser;
use httpsim::Region;
use serde::Serialize;

/// Repetitions per site, as in the paper.
const REPS: usize = 5;

/// Per-site bypass outcome.
#[derive(Debug, Clone, Serialize)]
pub struct BypassRecord {
    /// The wall site.
    pub domain: String,
    /// The wall no longer displayed in any repetition.
    pub bypassed: bool,
    /// The site demanded the blocker be disabled (hausbau-forum case).
    pub adblock_interstitial: bool,
    /// The page stayed scroll-locked despite the hidden wall (promipool
    /// case).
    pub scroll_broken: bool,
}

/// The §4.5 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Bypass {
    /// Per-site outcomes.
    pub records: Vec<BypassRecord>,
    /// Walls tested.
    pub total: usize,
    /// Walls fully bypassed.
    pub bypassed: usize,
    /// Bypass rate (paper: 0.70).
    pub rate: f64,
    /// Bypassed-but-misbehaving sites (paper: 2).
    pub misbehaving: usize,
}

/// Run the bypass measurement over every verified wall.
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> Bypass {
    let mut walls: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for crawl in crawls {
        for r in crawl.detected_walls() {
            if study.verify_wall(&r.domain) && seen.insert(r.domain.clone()) {
                walls.push(r.domain.clone());
            }
        }
    }
    walls.sort();

    let (cells, _) = crate::crawl::par_matrix(
        study.workers,
        1,
        walls.len(),
        |_| (),
        |_, _, i| Some(test_site(study, &walls[i])),
    );
    let records = cells
        .and_then(|lanes| lanes.into_iter().next())
        .expect("a bypass task never aborts");
    let total = records.len();
    let bypassed = records.iter().filter(|r| r.bypassed).count();
    let misbehaving = records
        .iter()
        .filter(|r| r.bypassed && (r.adblock_interstitial || r.scroll_broken))
        .count();
    Bypass {
        total,
        bypassed,
        rate: if total == 0 {
            0.0
        } else {
            bypassed as f64 / total as f64
        },
        misbehaving,
        records,
    }
}

fn test_site(study: &Study, domain: &str) -> BypassRecord {
    let mut wall_seen = false;
    let mut interstitial = false;
    let mut scroll_broken = false;
    for _ in 0..REPS {
        let mut browser = Browser::new(study.net.clone(), Region::Germany)
            .with_blocker(FilterEngine::ublock_with_annoyances());
        match browser.visit_domain(domain) {
            Ok(page) => {
                let analysis = study.tool.analyze_page(domain, &page);
                if analysis.cookiewall_detected() {
                    wall_seen = true;
                }
                // The adblock interstitial is itself a blocking overlay.
                if page.adblock_interstitial {
                    interstitial = true;
                }
                if page.scroll_locked && !analysis.cookiewall_detected() {
                    scroll_broken = true;
                }
            }
            Err(_) => {
                wall_seen = true; // unreachable counts as not bypassed
            }
        }
    }
    BypassRecord {
        domain: domain.to_string(),
        bypassed: !wall_seen,
        adblock_interstitial: interstitial,
        scroll_broken,
    }
}

impl Bypass {
    /// Render the §4.5 summary.
    pub fn render(&self) -> String {
        let broken: Vec<&BypassRecord> = self
            .records
            .iter()
            .filter(|r| r.bypassed && (r.adblock_interstitial || r.scroll_broken))
            .collect();
        let mut notes = String::new();
        for r in &broken {
            notes.push_str(&format!(
                "  - {}: {}\n",
                r.domain,
                if r.adblock_interstitial {
                    "detects the blocker and demands deactivation"
                } else {
                    "clickable but not scrollable"
                }
            ));
        }
        format!(
            "Cookiewall bypass with uBlock Origin + Annoyances (§4.5)\n\
             --------------------------------------------------------\n\
             Walls tested:    {}\n\
             Bypassed:        {} ({:.0}%)\n\
             Misbehaving:     {}\n{}",
            self.total,
            self.bypassed,
            self.rate * 100.0,
            self.misbehaving,
            notes,
        )
    }
}
