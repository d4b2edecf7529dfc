//! Concurrency stress battery for the sharded lock topology.
//!
//! The tentpole guarantee of the striped cache / sharded store / per-worker
//! counters refactor is that worker count is *invisible* in the output:
//! any interleaving of 1, 4, or 64 workers — with or without deterministic
//! fault injection — must produce a `StudyReport` byte-identical to the
//! serial (workers = 1) baseline. Eight repetitions per configuration
//! shake out interleaving bugs a single run can miss; a persistent
//! abort + resume pass at 64 workers pins the pipelined checkpoint path.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use analysis::persist::targets_hash;
use analysis::{run_all, run_all_persistent, CheckpointPolicy, Study};
use httpsim::{FaultConfig, Region};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use store::Store;
use webgen::PopulationConfig;

const WORKER_COUNTS: [usize; 3] = [1, 4, 64];
const REPETITIONS: usize = 8;

fn tempdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cookiewall-stress-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fault_config() -> FaultConfig {
    let mut f = FaultConfig::new(1234);
    f.transient_rate = 0.12;
    f.permanent_rate = 0.04;
    f
}

/// A fresh world per run: new origin visit counters, new browser pool,
/// new cache — so repetitions are independent, as separate processes
/// would be.
fn fresh_study(workers: usize, fault: bool) -> Study {
    let mut study = Study::with_fault_config(PopulationConfig::tiny(), fault.then(fault_config));
    study.workers = workers;
    study
}

fn report_json(workers: usize, fault: bool) -> String {
    run_all(&fresh_study(workers, fault)).to_json()
}

fn assert_worker_counts_invisible(fault: bool) {
    let baseline = report_json(1, fault);
    for workers in WORKER_COUNTS {
        for rep in 0..REPETITIONS {
            let json = report_json(workers, fault);
            assert_eq!(
                json, baseline,
                "StudyReport diverged from the serial baseline \
                 (workers={workers}, fault={fault}, repetition={rep})"
            );
        }
    }
}

#[test]
fn study_report_is_byte_identical_across_worker_counts() {
    assert_worker_counts_invisible(false);
}

#[test]
fn study_report_is_byte_identical_across_worker_counts_under_faults() {
    assert_worker_counts_invisible(true);
}

fn create_store(dir: &Path, study: &Study) -> Store {
    let hash = targets_hash(&study.targets()).to_string();
    Store::create(
        dir,
        Region::ALL.len(),
        &[("targets_hash".to_string(), hash)],
    )
    .expect("store creates")
}

/// Abort a 64-worker persistent sweep mid-flight (dropping the unflushed
/// tail, like a kill), resume it at 64 workers, and require the resumed
/// report byte-identical to an uninterrupted serial run — the pipelined
/// sharded checkpoint must neither lose nor duplicate any cell.
#[test]
fn persistent_abort_and_resume_at_high_concurrency() {
    let baseline = report_json(1, false);
    let dir = tempdir();
    {
        let study = fresh_study(64, false);
        let store = create_store(&dir, &study);
        let policy = CheckpointPolicy {
            every: 4,
            abort_after: Some(50),
        };
        let aborted = run_all_persistent(&study, &store, &policy).expect("targets hash matches");
        assert!(aborted.is_none(), "the abort hook must trigger");
        // The store (with its buffered, unflushed tail) drops here.
    }
    let study = fresh_study(64, false);
    let store = Store::open(&dir).expect("store reopens");
    let policy = CheckpointPolicy {
        every: 4,
        abort_after: None,
    };
    let report = run_all_persistent(&study, &store, &policy)
        .expect("targets hash matches")
        .expect("the finishing run completes");
    assert_eq!(
        report.to_json(),
        baseline,
        "resumed 64-worker report must match the uninterrupted serial run"
    );
    assert_eq!(
        store.len(),
        Region::ALL.len() * study.targets().len(),
        "every cell persisted exactly once"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Single-flight misses: a fault-free sweep analyzes each distinct
/// `(domain, document)` exactly once, so the miss count is the same at
/// every worker count — workers reaching a document another worker is
/// still analyzing wait for its record instead of redoing the work.
#[test]
fn cache_misses_are_independent_of_worker_count() {
    use analysis::crawl::{crawl_all_regions_with, CrawlOptions};
    use bannerclick::BannerClick;
    use std::sync::Arc;
    use webgen::Population;

    let tool = BannerClick::new();
    let sweep = |workers: usize| {
        let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
        let net = httpsim::Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        let targets = pop.merged_targets();
        let (_, metrics) = crawl_all_regions_with(
            &net,
            &targets,
            &tool,
            &CrawlOptions {
                workers,
                ..CrawlOptions::default()
            },
        );
        let cells = targets.len() * Region::ALL.len();
        assert_eq!(metrics.tasks_completed, cells);
        assert_eq!(
            metrics.cache_hits + metrics.cache_misses,
            cells,
            "every cell is one hit or one miss (workers={workers})"
        );
        metrics.cache_misses
    };
    let baseline = sweep(1);
    assert!(baseline > 0);
    for workers in [1, 2, 4, 64] {
        for rep in 0..REPETITIONS {
            assert_eq!(
                sweep(workers),
                baseline,
                "cache misses moved (workers={workers}, repetition={rep})"
            );
        }
    }
}
