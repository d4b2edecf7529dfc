//! Banner prevalence per vantage point — the context statistic §4.1 leans
//! on ("consistent with the generally higher prevalence of cookie banners
//! in the EU"): EU vantage points see far more consent UIs overall, not
//! just more cookiewalls.

use crate::crawl::VantageCrawl;
use crate::render::TextTable;
use serde::Serialize;

/// One vantage point's banner statistics.
#[derive(Debug, Clone, Serialize)]
pub struct BannerRow {
    /// Vantage point label.
    pub vp: String,
    /// Reachable sites crawled.
    pub reachable: usize,
    /// Sites showing any consent UI (banner or wall).
    pub banners: usize,
    /// Banner rate among reachable sites.
    pub rate: f64,
    /// …of which classified as cookiewalls.
    pub cookiewalls: usize,
}

/// The banner-prevalence report.
#[derive(Debug, Clone, Serialize)]
pub struct BannerPrevalence {
    /// Per-VP rows.
    // lint:allow(r10) — report rows are bounded by the study's site population; a streaming report is parked million-domain work (ROADMAP "Parked from earlier rounds")
    pub rows: Vec<BannerRow>,
}

/// Compute banner prevalence from the Table 1 crawls (no extra visits).
pub fn compute(crawls: &[VantageCrawl]) -> BannerPrevalence {
    let rows = crawls
        .iter()
        .map(|crawl| {
            let reachable = crawl.records.iter().filter(|r| r.reachable).count();
            let banners = crawl.records.iter().filter(|r| r.banner).count();
            let cookiewalls = crawl.records.iter().filter(|r| r.cookiewall).count();
            BannerRow {
                vp: crawl.region.label().to_string(),
                reachable,
                banners,
                rate: if reachable == 0 {
                    0.0
                } else {
                    banners as f64 / reachable as f64
                },
                cookiewalls,
            }
        })
        .collect();
    BannerPrevalence { rows }
}

impl BannerPrevalence {
    /// Render the prevalence table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["VP", "Reachable", "Banners", "Rate", "Cookiewalls"]);
        for r in &self.rows {
            t.row([
                r.vp.clone(),
                r.reachable.to_string(),
                r.banners.to_string(),
                format!("{:.1}%", r.rate * 100.0),
                r.cookiewalls.to_string(),
            ]);
        }
        format!(
            "Banner prevalence per vantage point (§4.1 context)\n{}",
            t.render()
        )
    }
}
