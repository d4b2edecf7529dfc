//! The defining dark pattern (§5, Appendix B): regular banners offer a
//! reject button; cookiewalls replace it with a subscribe option. This
//! experiment quantifies the claim by inspecting the controls of every
//! detected consent UI.

use crate::context::Study;
use crate::crawl::VantageCrawl;
use crate::render::TextTable;
use bannerclick::{detect_banners, find_buttons, ButtonRole};
use browser::Browser;
use httpsim::Region;
use serde::Serialize;

/// Button statistics for one group of consent UIs.
#[derive(Debug, Clone, Serialize)]
pub struct ControlStats {
    /// Group label.
    pub group: String,
    /// UIs inspected.
    pub inspected: usize,
    /// UIs with an accept control.
    pub with_accept: usize,
    /// UIs with a reject control.
    pub with_reject: usize,
    /// UIs with a settings/preferences control.
    pub with_settings: usize,
    /// UIs with a subscribe control.
    pub with_subscribe: usize,
}

/// The dark-pattern control comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DarkPatterns {
    /// Regular-banner group.
    pub banners: ControlStats,
    /// Cookiewall group.
    pub walls: ControlStats,
}

/// Inspect the controls of every verified wall plus an equal sample of
/// regular banners (from the German VP, which sees everything).
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> DarkPatterns {
    let de = crawls
        .iter()
        .find(|c| c.region == Region::Germany)
        .unwrap_or(&crawls[0]);
    let mut walls: Vec<String> = Vec::new();
    let mut banners: Vec<String> = Vec::new();
    for r in &de.records {
        if r.cookiewall && study.verify_wall(&r.domain) {
            walls.push(r.domain.clone());
        } else if r.banner && !r.cookiewall {
            banners.push(r.domain.clone());
        }
    }
    webgen::stable_shuffle(&mut banners, "darkpatterns/banner-sample");
    banners.truncate(walls.len().max(1));

    DarkPatterns {
        banners: inspect_group(study, "cookie banner", &banners),
        walls: inspect_group(study, "cookiewall", &walls),
    }
}

fn inspect_group(study: &Study, label: &str, domains: &[String]) -> ControlStats {
    let mut stats = ControlStats {
        group: label.to_string(),
        inspected: 0,
        with_accept: 0,
        with_reject: 0,
        with_settings: 0,
        with_subscribe: 0,
    };
    let mut browser = Browser::new(study.net.clone(), Region::Germany);
    for domain in domains {
        browser.clear_all_data();
        let Ok(page) = browser.visit_domain(domain) else {
            continue;
        };
        let found = detect_banners(&page, &study.tool.detector);
        let Some(banner) = found.first() else {
            continue;
        };
        stats.inspected += 1;
        let buttons = find_buttons(&page, banner);
        let has = |role: ButtonRole| buttons.iter().any(|b| b.role == role);
        if has(ButtonRole::Accept) {
            stats.with_accept += 1;
        }
        if has(ButtonRole::Reject) {
            stats.with_reject += 1;
        }
        if has(ButtonRole::Settings) {
            stats.with_settings += 1;
        }
        if has(ButtonRole::Subscribe) {
            stats.with_subscribe += 1;
        }
    }
    stats
}

impl DarkPatterns {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Group", "n", "Accept", "Reject", "Settings", "Subscribe"]);
        for g in [&self.banners, &self.walls] {
            let pct = |x: usize| {
                if g.inspected == 0 {
                    "0%".to_string()
                } else {
                    format!("{:.0}%", 100.0 * x as f64 / g.inspected as f64)
                }
            };
            t.row([
                g.group.clone(),
                g.inspected.to_string(),
                pct(g.with_accept),
                pct(g.with_reject),
                pct(g.with_settings),
                pct(g.with_subscribe),
            ]);
        }
        format!(
            "Consent-UI controls: banners vs. cookiewalls (the §5 dark pattern)\n{}\
             Cookiewalls replace the reject option with a subscription offer.\n",
            t.render()
        )
    }
}
