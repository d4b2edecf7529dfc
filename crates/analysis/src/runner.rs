//! The full-study runner: every table and figure in one pass, sharing the
//! expensive crawls.

use crate::context::Study;
use crate::crawl::{
    crawl_all_regions_into, sweep, CheckpointPolicy, CrawlMetrics, FailureTaxonomy, FetchCache,
    VantageCrawl,
};
use crate::experiments::{
    ablation, accuracy, banners, botdetect, bypass, darkpatterns, fig1, fig2, fig3, fig4, fig5,
    fig6, smp, table1,
};
use crate::measure::{measure_sites, InteractionMode};
use httpsim::Region;
use serde::Serialize;
use store::Store;

/// Results of every experiment in the paper's evaluation.
#[derive(Debug, Serialize)]
pub struct StudyReport {
    /// Table 1.
    pub table1: table1::Table1,
    /// §3 detection accuracy.
    pub accuracy: accuracy::Accuracy,
    /// §3 embedding split.
    pub embedding: smp::EmbeddingSplit,
    /// Figure 1.
    pub fig1: fig1::Fig1,
    /// Figure 2.
    pub fig2: fig2::Fig2,
    /// Figure 3.
    pub fig3: fig3::Fig3,
    /// Figure 4.
    pub fig4: fig4::Fig4,
    /// Figure 5.
    pub fig5: fig5::Fig5,
    /// Figure 6.
    pub fig6: fig6::Fig6,
    /// §4.5 bypass.
    pub bypass: bypass::Bypass,
    /// §4.4 SMPs.
    pub smp: smp::SmpReport,
    /// Banner prevalence context (§4.1).
    pub banners: banners::BannerPrevalence,
    /// Detection-mechanism ablation.
    pub ablation: ablation::Ablation,
    /// Consent-UI control comparison (§5 dark pattern).
    pub darkpatterns: darkpatterns::DarkPatterns,
    /// Bot-detection impact (§3 limitation).
    pub botdetect: botdetect::BotDetection,
    /// Crawl failure taxonomy, present only when the study ran with fault
    /// injection enabled. Absent (not `null`) otherwise, so a fault-free
    /// report stays byte-identical to one produced before the fault layer
    /// existed.
    #[serde(skip_serializing_if = "Option::is_none")]
    // lint:allow(persist-parity) — the report is recomputed from journal records on resume; the taxonomy is derived, never persisted
    pub failures: Option<FailureTaxonomy>,
    /// Scheduler/cache observations for the crawl phase. Machine- and
    /// configuration-dependent, so excluded from the serialized report
    /// (the golden-snapshot tests compare JSON across cache modes).
    #[serde(skip)]
    // lint:allow(persist-parity) — machine-dependent diagnostics, intentionally absent from both the report and the journal
    pub crawl_metrics: CrawlMetrics,
}

/// Run every experiment. The crawls are shared: Table 1, accuracy,
/// Figures 1–3 and 6, bypass, and the SMP report all reuse them. So is
/// the sweep's cache: the ablation and bot-detection re-crawls still
/// navigate every cell, but read the verdict on a document the sweep
/// analyzed off its detection instead of loading the page again.
pub fn run_all(study: &Study) -> StudyReport {
    let cache = FetchCache::new(study.cache);
    let (crawls, metrics) = crawl_all_regions_into(
        &study.net,
        &study.targets(),
        &study.tool,
        &study.crawl_options(),
        &cache,
    );
    let mut report = experiments(study, &crawls, cache.analyzed());
    report.crawl_metrics = metrics;
    report
}

/// Name of the store note carrying the per-region epoch summary that the
/// longitudinal diff reads for tracking-cookie drift.
pub const EPOCH_SUMMARY_NOTE: &str = "epoch-summary";

/// [`run_all`], checkpointing every crawled cell into `store` and
/// restoring whatever a previous (interrupted) run already computed.
///
/// Returns `Ok(None)` when the sweep stopped early via
/// [`CheckpointPolicy::abort_after`]; re-invoking with the same store
/// resumes and — by construction, pinned by the resume tests — yields a
/// report byte-identical to an uninterrupted [`run_all`].
///
/// Errors when the store was built for a different target list (other
/// scale, generation seed, or epoch): resuming across universes would
/// silently mix incompatible records.
pub fn run_all_persistent(
    study: &Study,
    store: &Store,
    policy: &CheckpointPolicy,
) -> Result<Option<StudyReport>, String> {
    let targets = study.targets();
    let hash = crate::persist::targets_hash(&targets).to_string();
    match store.meta_value("targets_hash") {
        Some(stored) if stored != hash => {
            return Err(format!(
                "store targets_hash {stored} does not match this study's {hash}: \
                 the store was produced from a different population"
            ));
        }
        _ => {}
    }
    let opts = study.crawl_options();
    let cache = FetchCache::new(opts.cache);
    let (crawls, metrics) = sweep(
        &study.net,
        &Region::ALL,
        &targets,
        &study.tool,
        &opts,
        Some((store, policy)),
        &cache,
    )
    .map_err(|e| format!("checkpoint flush after the crawl failed: {e}"))?;
    let Some(crawls) = crawls else {
        return Ok(None);
    };
    let mut report = experiments(study, &crawls, cache.analyzed());
    // Nothing after the experiments reads the cache.
    drop(cache);
    report.crawl_metrics = metrics;
    // The epoch summary is written only after the report is computed: its
    // measurement probe advances origin visit counters, and running it
    // earlier would perturb the report relative to a plain `run_all`.
    let summary = epoch_summary(study, &crawls);
    // A failed note write degrades the later diff (tracking drift reads
    // it), never the report itself.
    // lint:allow(r11) — the note is advisory: losing it degrades the longitudinal diff, not the report
    let _ = store.write_note(EPOCH_SUMMARY_NOTE, &summary);
    Ok(Some(report))
}

/// One line per region: wall count, mean advertised price, and the mean
/// tracking-cookie count measured under Accept across that region's
/// detected walls. Parsed back by the longitudinal diff engine.
fn epoch_summary(study: &Study, crawls: &[VantageCrawl]) -> String {
    let mut out = String::new();
    for crawl in crawls {
        let walls: Vec<&crate::crawl::CrawlRecord> = crawl.detected_walls().collect();
        let priced: Vec<f64> = walls.iter().filter_map(|r| r.monthly_eur).collect();
        let mean_price = if priced.is_empty() {
            "na".to_string()
        } else {
            format!("{:.3}", priced.iter().sum::<f64>() / priced.len() as f64)
        };
        let domains: Vec<String> = walls.iter().map(|r| r.domain.clone()).collect();
        let mean_tracking = if domains.is_empty() {
            "na".to_string()
        } else {
            let measured = measure_sites(
                &study.net,
                crawl.region,
                &domains,
                InteractionMode::Accept,
                &study.tool,
                study.workers,
            );
            format!(
                "{:.3}",
                measured.iter().map(|m| m.tracking).sum::<f64>() / measured.len() as f64
            )
        };
        // Labels are slugged (spaces to dashes) so the line stays a flat
        // whitespace-separated key=value record.
        out.push_str(&format!(
            "region={} walls={} mean_price_eur={} mean_tracking={}\n",
            crawl.region.label().replace(' ', "-"),
            walls.len(),
            mean_price,
            mean_tracking
        ));
    }
    out
}

/// Every experiment against `crawls`; the re-crawls read what the sweep
/// analyzed off `analyzed`, its cache.
fn experiments(
    study: &Study,
    crawls: &[VantageCrawl],
    analyzed: Option<&FetchCache>,
) -> StudyReport {
    let table1 = table1::compute(study, crawls);
    let accuracy = accuracy::compute(study, crawls);
    let embedding = smp::embedding_split(study, crawls);
    let fig1 = fig1::compute(study, crawls);
    let fig2 = fig2::compute(study, crawls);
    let fig3 = fig3::compute(study, &fig2);
    let fig4 = fig4::compute(study, crawls);
    let fig5 = fig5::compute(study);
    let fig6 = fig6::compute(&fig2, &fig4);
    let bypass = bypass::compute(study, crawls);
    let smp_report = smp::compute(study, crawls);
    let banners = banners::compute(crawls);
    let ablation = ablation::compute_with(study, analyzed);
    let darkpatterns = darkpatterns::compute(study, crawls);
    let botdetect = botdetect::compute_with(study, analyzed);
    StudyReport {
        table1,
        accuracy,
        embedding,
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        bypass,
        smp: smp_report,
        banners,
        ablation,
        darkpatterns,
        botdetect,
        failures: study
            .fault_plan
            .is_some()
            .then(|| FailureTaxonomy::from_crawls(crawls)),
        crawl_metrics: CrawlMetrics::default(),
    }
}

impl StudyReport {
    /// Render every table and figure as one text report.
    pub fn render(&self) -> String {
        [
            self.table1.render(),
            self.accuracy.render(),
            self.embedding.render(),
            self.fig1.render(),
            self.fig2.render(),
            self.fig3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.fig6.render(),
            self.bypass.render(),
            self.smp.render(),
            self.banners.render(),
            self.ablation.render(),
            self.darkpatterns.render(),
            self.botdetect.render(),
        ]
        .join("\n")
            + &match &self.failures {
                Some(taxonomy) => format!("\n{}", taxonomy.render()),
                None => String::new(),
            }
    }

    /// Machine-readable JSON of every experiment result.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}
