//! The `study-journaled` workload and the traced experiments.

use crate::crawl::{build_study, store_meta, Batch, WORKERS};
use crate::expected::Expected;
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use analysis::crawl::{CheckpointPolicy, CrawlMetrics, VantageCrawl};
use analysis::experiments::{
    ablation, accuracy, banners, botdetect, bypass, darkpatterns, fig1, fig2, fig3, fig4, fig5,
    fig6, smp, table1,
};
use analysis::{run_all_persistent, Study, StudyReport};
use httpsim::{content_hash, Region};
use std::path::Path;
use std::time::Instant;
use store::{Store, StoreSnapshot};
use webgen::PopulationConfig;

/// The study scale between `small` and `paper`: 2,000 entries per
/// country list.
pub fn study_config() -> PopulationConfig {
    PopulationConfig {
        list_size: 2_000,
        top1k_size: 200,
        global_sites: 600,
        dual_sites: 300,
        roster_divisor: 2,
        smp_divisor: 2,
        ..PopulationConfig::paper()
    }
}

/// Digest of a report's JSON, which is byte-identical for every worker
/// count and cache setting.
pub fn report_digest(report: &StudyReport) -> u64 {
    content_hash(report.to_json().as_bytes())
}

/// Operations of one study that fail their checks: all of its cells
/// when the report digest is not the pinned one, else the cells missing
/// from the sealed store.
fn failed_cells(
    report: &StudyReport,
    sealed: usize,
    cells: usize,
    expected: Option<&[u64]>,
) -> u64 {
    match check_report(report, cells as u64, expected) {
        0 => cells.saturating_sub(sealed) as u64,
        failed => failed,
    }
}

/// `study-journaled`: [`Batch::operations`] runs of `run_all_persistent`,
/// each on a fresh store and a freshly set-up world.
pub fn run_study(
    config: &PopulationConfig,
    key: &str,
    seconds: f64,
    expected: &Expected,
    work: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Tracer::new(Instant::now(), 0, 0);
    let mut batch = Batch::default();
    let mut cells = 0;
    let mut n = 0;
    let mut set_up = |n: usize| {
        let dir = work.join(format!("study-{n}"));
        let study = build_study(config.clone(), WORKERS, &mut scratch);
        let store = Store::create(&dir, Region::ALL.len(), &store_meta(&study.targets()))
            .expect("study store");
        (dir, study, store)
    };
    // Set-ups first, as the sweep does. Their stores stay until the run's
    // work directory is removed.
    batch.more_setups(|| {
        n += 1;
        set_up(n)
    });
    for _ in 0..Batch::operations(seconds) {
        n += 1;
        let ((dir, study, store), report) = batch.measure(
            || set_up(n),
            |(_, study, store)| {
                run_all_persistent(study, store, &CheckpointPolicy::default())
                    .expect("study runs")
                    .expect("study is not aborted")
            },
        );
        cells = Region::ALL.len() * study.targets().len();
        drop(store);
        let sealed = StoreSnapshot::open(&dir).map_or(0, |s| s.len());
        eprintln!(
            "study {key}: {}",
            report.crawl_metrics.render().lines().next().unwrap_or("")
        );
        out.tally(
            cells as u64,
            failed_cells(&report, sealed, cells, expected.get(key)),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    batch.metrics(&mut out.metrics, cells);
    out
}

/// Every experiment over `crawls`, in `run_all_with_crawls` order, each
/// in its own span, assembled into the report that function returns.
pub fn traced_experiments(study: &Study, crawls: &[VantageCrawl], t: &mut Tracer) -> StudyReport {
    let table1 = t.span("analysis.experiments.table1", 0, |_| {
        table1::compute(study, crawls)
    });
    let accuracy = t.span("analysis.experiments.accuracy", 0, |_| {
        accuracy::compute(study, crawls)
    });
    let embedding = t.span("analysis.experiments.embedding", 0, |_| {
        smp::embedding_split(study, crawls)
    });
    let fig1 = t.span("analysis.experiments.fig1", 0, |_| {
        fig1::compute(study, crawls)
    });
    let fig2 = t.span("analysis.experiments.fig2", 0, |_| {
        fig2::compute(study, crawls)
    });
    let fig3 = t.span("analysis.experiments.fig3", 0, |_| {
        fig3::compute(study, &fig2)
    });
    let fig4 = t.span("analysis.experiments.fig4", 0, |_| {
        fig4::compute(study, crawls)
    });
    let fig5 = t.span("analysis.experiments.fig5", 0, |_| fig5::compute(study));
    let fig6 = t.span("analysis.experiments.fig6", 0, |_| {
        fig6::compute(&fig2, &fig4)
    });
    let bypass = t.span("analysis.experiments.bypass", 0, |_| {
        bypass::compute(study, crawls)
    });
    let smp_report = t.span("analysis.experiments.smp", 0, |_| {
        smp::compute(study, crawls)
    });
    let banners = t.span("analysis.experiments.banners", 0, |_| {
        banners::compute(crawls)
    });
    let ablation = t.span("analysis.experiments.ablation", 0, |_| {
        ablation::compute(study)
    });
    let darkpatterns = t.span("analysis.experiments.darkpatterns", 0, |_| {
        darkpatterns::compute(study, crawls)
    });
    let botdetect = t.span("analysis.experiments.botdetect", 0, |_| {
        botdetect::compute(study)
    });
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
        failures: None,
        crawl_metrics: CrawlMetrics::default(),
    }
}

/// Check a traced report against the pinned digest: `cells` failed
/// operations when it differs.
pub fn check_report(report: &StudyReport, cells: u64, expected: Option<&[u64]>) -> u64 {
    let digest = report_digest(report);
    eprintln!("digest report {digest:016x}");
    if expected == Some(&[digest][..]) {
        0
    } else {
        cells
    }
}

/// The experiment metrics, from whichever tracer ran the experiments.
pub fn experiment_metrics(m: &mut Metrics, t: &Tracer) {
    for name in ["sweep", "ablation", "botdetect", "fig4", "fig5", "bypass"] {
        let span = format!("analysis.experiments.{name}");
        m.set(&format!("{span}_s"), t.stats(&span).total_ns as f64 / 1e9);
    }
}
