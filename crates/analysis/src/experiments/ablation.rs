//! Mechanism-coverage ablation: re-run detection with each §3 mechanism
//! disabled and count what is lost. This turns the DESIGN.md ablation list
//! into a measured table: the shadow-DOM workaround buys exactly the
//! shadow-embedded walls (76 of 280 at paper scale), iframe descent buys
//! the iframe walls (132), and the corpus halves trade precision for
//! recall.
//!
//! All five configurations run in one German variant pass
//! ([`crate::crawl`]'s `crawl_variants`), with the study's worker count,
//! cache mode and retry policy: every cell is navigated once per
//! configuration, in table order. In a full study
//! ([`crate::runner::run_all`]) the sweep has already detected every
//! German document under the full pipeline, and each configuration's
//! verdict is read off that detection's summary. Only a document the
//! sweep did not analyze (a cell restored from a store, or any run
//! without the cache) is loaded here, once per cell, with each distinct
//! detector setting run once on it. This standalone [`compute`] has no
//! sweep to read from, so it always loads.

use crate::context::Study;
use crate::crawl::{crawl_variants, FetchCache, Variant};
use crate::render::TextTable;
use bannerclick::{BannerClick, CorpusMode, DetectorOptions};
use httpsim::Region;
use serde::Serialize;

/// Result of one detector configuration.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Verified cookiewalls detected (true positives).
    pub true_positives: usize,
    /// False positives (decoys and any other misclassification).
    pub false_positives: usize,
    /// Walls lost relative to the full configuration.
    pub lost_vs_full: usize,
}

/// The ablation report.
#[derive(Debug, Clone, Serialize)]
pub struct Ablation {
    /// One row per configuration, full pipeline first.
    pub rows: Vec<AblationRow>,
}

/// Configurations exercised by the ablation.
pub(crate) fn configs() -> Vec<(String, BannerClick)> {
    let full = DetectorOptions::default();
    vec![
        (
            "full pipeline".into(),
            BannerClick {
                detector: full.clone(),
                corpus: CorpusMode::WordsAndPrices,
            },
        ),
        (
            "no shadow workaround".into(),
            BannerClick {
                detector: DetectorOptions {
                    pierce_shadow: false,
                    ..full.clone()
                },
                corpus: CorpusMode::WordsAndPrices,
            },
        ),
        (
            "no iframe descent".into(),
            BannerClick {
                detector: DetectorOptions {
                    descend_iframes: false,
                    ..full.clone()
                },
                corpus: CorpusMode::WordsAndPrices,
            },
        ),
        (
            "words corpus only".into(),
            BannerClick {
                detector: full.clone(),
                corpus: CorpusMode::WordsOnly,
            },
        ),
        (
            "prices corpus only".into(),
            BannerClick {
                detector: full,
                corpus: CorpusMode::PricesOnly,
            },
        ),
    ]
}

/// Run the ablation from the German vantage point (which sees every wall).
pub fn compute(study: &Study) -> Ablation {
    compute_with(study, None)
}

/// [`compute`], reading the verdicts on documents the sweep analyzed off
/// `analyzed`, its cache.
pub(crate) fn compute_with(study: &Study, analyzed: Option<&FetchCache>) -> Ablation {
    let targets = study.targets();
    let configs = configs();
    let variants: Vec<Variant<'_>> = configs
        .iter()
        .map(|(_, tool)| Variant {
            tool,
            user_agent: None,
        })
        .collect();
    let verdicts = crawl_variants(
        &study.net,
        Region::Germany,
        &targets,
        &variants,
        &study.crawl_options(),
        analyzed,
    );
    let mut rows = Vec::new();
    let mut full_tp = 0usize;
    for ((label, _), cells) in configs.into_iter().zip(verdicts) {
        let mut tp = 0;
        let mut fp = 0;
        for (domain, _) in targets.iter().zip(cells).filter(|(_, v)| v.cookiewall) {
            if study.verify_wall(domain) {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        if rows.is_empty() {
            full_tp = tp;
        }
        rows.push(AblationRow {
            config: label,
            true_positives: tp,
            false_positives: fp,
            lost_vs_full: full_tp.saturating_sub(tp),
        });
    }
    Ablation { rows }
}

impl Ablation {
    /// Row by configuration label.
    pub fn row(&self, config: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.config == config)
    }

    /// Render the ablation table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Configuration",
            "Walls found",
            "False positives",
            "Lost vs full",
        ]);
        for r in &self.rows {
            t.row([
                r.config.clone(),
                r.true_positives.to_string(),
                r.false_positives.to_string(),
                r.lost_vs_full.to_string(),
            ]);
        }
        format!(
            "Detection-mechanism ablation (German VP; what each §3 mechanism buys)\n{}",
            t.render()
        )
    }
}
