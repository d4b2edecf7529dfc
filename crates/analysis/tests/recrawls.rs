//! The German re-crawls of the ablation and bot-detection experiments run
//! as one variant pass. These tests pin that pass against the separate
//! crawls it replaces — standalone, and inside a full study in each state
//! the sweep can leave its cache in — and pin that every re-crawl honours
//! the study's retry budget.

use analysis::crawl::{
    analyze_domain, crawl_region_with, CrawlRecord, RegionMetrics, VantageCrawl,
};
use analysis::experiments::{ablation, botdetect};
use analysis::persist::targets_hash;
use analysis::{run_all, run_all_persistent, CheckpointPolicy, RetryPolicy, Study, StudyReport};
use bannerclick::{BannerClick, CorpusMode, DetectorOptions};
use browser::Browser;
use httpsim::{FaultConfig, FaultPlan, Network, Region};
use std::collections::HashMap;
use std::sync::Arc;
use store::Store;
use webgen::{Population, PopulationConfig};

/// A transient-only fault plan: every cell it hits recovers within two
/// attempts, so the default retry budget rescues every one of them.
fn transient_faults() -> FaultConfig {
    FaultConfig {
        transient_rate: 0.3,
        ..FaultConfig::new(11)
    }
}

/// The ablation's detector configurations, in table order.
fn ablation_configs() -> Vec<(&'static str, BannerClick)> {
    let full = DetectorOptions::default();
    let tool = |detector: DetectorOptions, corpus| BannerClick { detector, corpus };
    vec![
        (
            "full pipeline",
            tool(full.clone(), CorpusMode::WordsAndPrices),
        ),
        (
            "no shadow workaround",
            tool(
                DetectorOptions {
                    pierce_shadow: false,
                    ..full.clone()
                },
                CorpusMode::WordsAndPrices,
            ),
        ),
        (
            "no iframe descent",
            tool(
                DetectorOptions {
                    descend_iframes: false,
                    ..full.clone()
                },
                CorpusMode::WordsAndPrices,
            ),
        ),
        (
            "words corpus only",
            tool(full.clone(), CorpusMode::WordsOnly),
        ),
        ("prices corpus only", tool(full, CorpusMode::PricesOnly)),
    ]
}

/// The ablation rows as five separate German crawls compute them:
/// `(config, true positives, false positives, lost vs full)`.
fn reference_ablation(study: &Study) -> Vec<(String, usize, usize, usize)> {
    let targets = study.targets();
    let mut rows = Vec::new();
    let mut full_tp = 0;
    for (label, tool) in ablation_configs() {
        let crawl = crawl_region_with(
            &study.net,
            Region::Germany,
            &targets,
            &tool,
            study.workers,
            &RetryPolicy::default(),
        );
        let tp = crawl
            .detected_walls()
            .filter(|r| study.verify_wall(&r.domain))
            .count();
        let fp = crawl.wall_count() - tp;
        if rows.is_empty() {
            full_tp = tp;
        }
        rows.push((label.to_string(), tp, fp, full_tp.saturating_sub(tp)));
    }
    rows
}

/// The bot-detection counts as a stealthy German crawl plus the naive
/// crawl below compute them:
/// `(walls stealth, walls naive, lost, banners stealth, banners naive)`.
fn reference_botdetect(study: &Study) -> (usize, usize, usize, usize, usize) {
    let targets = study.targets();
    let stealth = crawl_region_with(
        &study.net,
        Region::Germany,
        &targets,
        &study.tool,
        study.workers,
        &RetryPolicy::default(),
    );
    let naive = crawl_with_ua(study, &targets, botdetect::NAIVE_BOT_UA);
    let verified = |crawl: &VantageCrawl| {
        crawl
            .detected_walls()
            .filter(|r| study.verify_wall(&r.domain))
            .count()
    };
    let banners = |crawl: &VantageCrawl| crawl.records.iter().filter(|r| r.banner).count();
    let (walls_stealth, walls_naive) = (verified(&stealth), verified(&naive));
    (
        walls_stealth,
        walls_naive,
        walls_stealth.saturating_sub(walls_naive),
        banners(&stealth),
        banners(&naive),
    )
}

/// The naive-UA crawl as the bot-detection experiment ran it on a pool
/// of its own, before it moved onto the variant pass: one attempt per
/// cell, no retries. Kept as written then, only the paths adjusted.
fn crawl_with_ua(study: &Study, targets: &[String], user_agent: &str) -> VantageCrawl {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let tool = BannerClick {
        detector: study.tool.detector.clone(),
        corpus: study.tool.corpus,
    };
    let next = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<CrawlRecord>>> = targets
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..study.workers.max(1) {
            scope.spawn(|| {
                let mut browser = Browser::new(study.net.clone(), Region::Germany)
                    .with_user_agent(user_agent.to_string());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= targets.len() {
                        break;
                    }
                    browser.clear_all_data();
                    let record = analyze_domain(&tool, &mut browser, &targets[i]);
                    *slots[i].lock() = Some(record);
                }
            });
        }
    });
    let records: Vec<CrawlRecord> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("crawled"))
        .collect();
    let metrics = RegionMetrics {
        tasks: records.len(),
        ..Default::default()
    };
    VantageCrawl {
        region: Region::Germany,
        records,
        metrics,
    }
}

fn fresh_small_study(workers: usize, fault: Option<FaultConfig>) -> Study {
    let mut study = Study::with_fault_config(PopulationConfig::small(), fault);
    study.workers = workers;
    study
}

#[test]
fn variant_pass_matches_separate_recrawls() {
    for fault in [None, Some(transient_faults())] {
        for workers in [1, 4] {
            // Each side gets a fresh world: both advance origin visit
            // counters and fault-attempt ordinals, and must do so alike.
            let reference = fresh_small_study(workers, fault);
            let want_ablation = reference_ablation(&reference);
            let want_bot = reference_botdetect(&reference);

            let study = fresh_small_study(workers, fault);
            let got_ablation: Vec<(String, usize, usize, usize)> = ablation::compute(&study)
                .rows
                .into_iter()
                .map(|r| {
                    (
                        r.config,
                        r.true_positives,
                        r.false_positives,
                        r.lost_vs_full,
                    )
                })
                .collect();
            let bot = botdetect::compute(&study);
            let got_bot = (
                bot.walls_stealth,
                bot.walls_naive,
                bot.lost,
                bot.banners_stealth,
                bot.banners_naive,
            );
            let setting = format!("workers={workers} faults={}", fault.is_some());
            assert_eq!(got_ablation, want_ablation, "ablation, {setting}");
            assert_eq!(got_bot, want_bot, "bot detection, {setting}");
            if let (Some(a), Some(b)) = (&reference.fault_plan, &study.fault_plan) {
                assert!(a.injected().total() > 0, "the fault plan fired");
                assert_eq!(a.injected(), b.injected(), "same faults, {setting}");
            }
        }
    }
}

type AblationRows = Vec<(String, usize, usize, usize)>;
type BotCounts = (usize, usize, usize, usize, usize);

fn report_rows(report: &StudyReport) -> (AblationRows, BotCounts) {
    let ablation = report
        .ablation
        .rows
        .iter()
        .map(|r| {
            (
                r.config.clone(),
                r.true_positives,
                r.false_positives,
                r.lost_vs_full,
            )
        })
        .collect();
    let bot = &report.botdetect;
    (
        ablation,
        (
            bot.walls_stealth,
            bot.walls_naive,
            bot.lost,
            bot.banners_stealth,
            bot.banners_naive,
        ),
    )
}

/// What the sweep leaves in its cache for a full study's re-crawls.
#[derive(Debug, Clone, Copy)]
enum CacheState {
    /// Every document the sweep analyzed, with its detection summary.
    Full,
    /// Records restored from a store: slots without summaries.
    Restored,
    /// `--no-cache`: no slots at all.
    Off,
}

/// A full study's re-crawl rows with the sweep's cache in `state`.
fn full_study_rows(state: CacheState, fault: Option<FaultConfig>) -> (AblationRows, BotCounts) {
    let mut study = fresh_small_study(2, fault);
    let report = match state {
        CacheState::Full => run_all(&study),
        CacheState::Off => {
            study.cache = false;
            run_all(&study)
        }
        CacheState::Restored => {
            let dir = std::env::temp_dir().join(format!(
                "cookiewall-recrawls-{}-{}",
                std::process::id(),
                fault.is_some()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let meta = [(
                "targets_hash".to_string(),
                targets_hash(&study.targets()).to_string(),
            )];
            let policy = CheckpointPolicy::default();
            let store = Store::create(&dir, Region::ALL.len(), &meta).expect("store creates");
            run_all_persistent(&study, &store, &policy)
                .expect("targets match")
                .expect("not aborted");
            drop(store);
            // A fresh world over the filled store restores every cell.
            let resumed = fresh_small_study(2, fault);
            let store = Store::open(&dir).expect("store reopens");
            let report = run_all_persistent(&resumed, &store, &policy)
                .expect("targets match")
                .expect("not aborted");
            assert_eq!(
                report.crawl_metrics.cache_misses, 0,
                "every cell is restored, so no slot has a summary"
            );
            drop(store);
            std::fs::remove_dir_all(&dir).expect("store removes");
            report
        }
    };
    report_rows(&report)
}

#[test]
fn full_study_recrawls_match_separate_recrawls_in_every_cache_state() {
    for fault in [None, Some(transient_faults())] {
        let reference = fresh_small_study(2, fault);
        let want = (
            reference_ablation(&reference),
            reference_botdetect(&reference),
        );
        for state in [CacheState::Full, CacheState::Restored, CacheState::Off] {
            assert_eq!(
                full_study_rows(state, fault),
                want,
                "{state:?}, faults={}",
                fault.is_some()
            );
        }
    }
}

/// Navigations the re-crawls dispatched to each registrable domain from
/// Germany, read off the fault plan's per-cell attempt counters (claiming
/// one more attempt, harmlessly, once the experiments are done).
fn german_attempts(study: &Study, plan: &FaultPlan) -> HashMap<String, u32> {
    study
        .targets()
        .iter()
        .map(|domain| {
            let key = httpsim::registrable_domain(domain)
                .unwrap_or(domain)
                .to_string();
            (key, domain)
        })
        .collect::<HashMap<_, _>>()
        .into_iter()
        .map(|(key, domain)| (key, plan.next_attempt(Region::Germany, domain)))
        .collect()
}

/// Run both re-crawling experiments on a tiny world whose origins sit
/// behind `plan`, with `retry`, and count the German navigations.
fn recrawl_attempts(plan: Arc<FaultPlan>, retry: RetryPolicy) -> HashMap<String, u32> {
    let population = Arc::new(Population::generate(PopulationConfig::tiny()));
    let net = Network::new();
    webgen::server::install_with_faults(Arc::clone(&population), &net, Some(Arc::clone(&plan)));
    let study = Study {
        population,
        net,
        tool: BannerClick::new(),
        workers: 2,
        cache: true,
        retry,
        fault_plan: Some(Arc::clone(&plan)),
    };
    ablation::compute(&study);
    botdetect::compute(&study);
    german_attempts(&study, &plan)
}

#[test]
fn recrawls_honour_max_retries() {
    // Baseline: the same experiments behind a fault layer that never
    // fires, so every cell takes exactly one navigation per variant.
    let clean = recrawl_attempts(
        Arc::new(FaultPlan::new(FaultConfig::new(3))),
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    );
    // Every cell starts with a transient fault window. With retries off,
    // no re-crawl may spend a second attempt on any cell: the per-cell
    // navigation counts must equal the fault-free ones.
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        transient_rate: 1.0,
        ..FaultConfig::new(3)
    }));
    let faulted = recrawl_attempts(
        Arc::clone(&plan),
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    );
    assert!(plan.injected().total() > 0, "the fault plan fired");
    assert_eq!(faulted.len(), clean.len());
    let mut retried: Vec<&String> = clean
        .keys()
        .filter(|host| faulted[*host] != clean[*host])
        .collect();
    retried.sort();
    assert!(
        retried.is_empty(),
        "{} cells were navigated more than once per variant with max_retries = 0: {:?}",
        retried.len(),
        &retried[..retried.len().min(5)]
    );
    // The counters do see retries when the budget allows them.
    let retried = recrawl_attempts(
        Arc::new(FaultPlan::new(FaultConfig {
            transient_rate: 1.0,
            ..FaultConfig::new(3)
        })),
        RetryPolicy::default(),
    );
    assert!(
        retried.iter().any(|(host, n)| *n > clean[host]),
        "retries under the default policy leave no trace in the counts"
    );
}
