//! §3's bot-detection limitation, quantified: some sites behave differently
//! when the visitor looks like a crawler. OpenWPM mitigates this with a
//! realistic browser fingerprint; a naive crawler user agent loses part of
//! the measurement.
//!
//! Both user agents run in one German variant pass ([`crate::crawl`]'s
//! `crawl_variants`), stealthy first, with the study's tool, worker count,
//! cache mode and retry policy. Each cell is navigated once per user
//! agent. Only the main document reads the user agent, so a site without
//! bot detection serves both the same bytes, while a bot-sensitive site's
//! naive document hashes differently. In a full study
//! ([`crate::runner::run_all`]) a document the sweep analyzed — every
//! stealthy one, and every naive one that matches a document some vantage
//! point received — takes its verdict from the summary of the sweep's
//! detection. The rest are loaded and detected here, once per cell and
//! distinct document; this standalone [`compute`] loads every cell.

use crate::context::Study;
use crate::crawl::{crawl_variants, FetchCache, Variant};
use crate::render::TextTable;
use bannerclick::Verdict;
use httpsim::Region;
use serde::Serialize;

/// The obviously-automated user agent the degraded crawl presents.
pub const NAIVE_BOT_UA: &str = "cookiewall-crawler/1.0 (+research; bot)";

/// Bot-detection impact.
#[derive(Debug, Clone, Serialize)]
pub struct BotDetection {
    /// Verified walls detected with the OpenWPM-style (stealthy) UA.
    pub walls_stealth: usize,
    /// Verified walls detected with the naive bot UA.
    pub walls_naive: usize,
    /// Walls lost to bot detection.
    pub lost: usize,
    /// Banners (any consent UI) with the stealthy UA.
    pub banners_stealth: usize,
    /// Banners with the naive UA.
    pub banners_naive: usize,
}

/// Crawl the target list from Germany with both user agents.
pub fn compute(study: &Study) -> BotDetection {
    compute_with(study, None)
}

/// [`compute`], reading the verdicts on documents the sweep analyzed off
/// `analyzed`, its cache.
pub(crate) fn compute_with(study: &Study, analyzed: Option<&FetchCache>) -> BotDetection {
    let targets = study.targets();
    let variants = [
        Variant {
            tool: &study.tool,
            user_agent: None,
        },
        // A degraded crawl: identical pipeline, honest bot UA.
        Variant {
            tool: &study.tool,
            user_agent: Some(NAIVE_BOT_UA),
        },
    ];
    let verdicts = crawl_variants(
        &study.net,
        Region::Germany,
        &targets,
        &variants,
        &study.crawl_options(),
        analyzed,
    );
    let (stealth, naive) = (&verdicts[0], &verdicts[1]);
    let verified = |cells: &[Verdict]| {
        targets
            .iter()
            .zip(cells)
            .filter(|(domain, v)| v.cookiewall && study.verify_wall(domain))
            .count()
    };
    let banners = |cells: &[Verdict]| cells.iter().filter(|v| v.banner).count();
    let walls_stealth = verified(stealth);
    let walls_naive = verified(naive);
    BotDetection {
        walls_stealth,
        walls_naive,
        lost: walls_stealth.saturating_sub(walls_naive),
        banners_stealth: banners(stealth),
        banners_naive: banners(naive),
    }
}

impl BotDetection {
    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["User agent", "Walls detected", "Banners detected"]);
        t.row([
            "OpenWPM-style (stealth)".to_string(),
            self.walls_stealth.to_string(),
            self.banners_stealth.to_string(),
        ]);
        t.row([
            "naive crawler UA".to_string(),
            self.walls_naive.to_string(),
            self.banners_naive.to_string(),
        ]);
        format!(
            "Bot-detection impact (§3 limitation)\n{}\
             Walls lost to bot detection with a naive UA: {}\n",
            t.render(),
            self.lost
        )
    }
}
