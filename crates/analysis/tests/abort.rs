//! Abort accounting of a persistent sweep: a sweep stopped after `k` new
//! cells reports, and has stored, exactly the `k` cells it completed, and
//! a resume on the same store completes the whole matrix.

use analysis::{crawl_all_regions_persistent, CheckpointPolicy, CrawlOptions, Study};
use httpsim::Region;
use store::Store;
use webgen::PopulationConfig;

#[test]
fn aborted_sweep_counts_exactly_the_cells_it_completed() {
    let study = Study::new(PopulationConfig::tiny());
    let targets = study.targets();
    let dir = std::env::temp_dir().join(format!("cookiewall-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, Region::ALL.len(), &[]).expect("store creates");
    let opts = CrawlOptions {
        workers: 1,
        ..CrawlOptions::default()
    };
    // Past the first region, so the lone worker has also stolen cells.
    let k = targets.len() + 3;
    let sweep = |abort_after| {
        let policy = CheckpointPolicy {
            every: 4,
            abort_after,
        };
        crawl_all_regions_persistent(&study.net, &targets, &study.tool, &opts, &store, &policy)
            .expect("the sweep checkpoints")
    };

    let (crawls, metrics) = sweep(Some(k));
    assert!(crawls.is_none(), "an aborted sweep returns no crawls");
    assert_eq!(metrics.tasks_completed, k);
    assert!(metrics.per_region.is_empty());
    assert_eq!(store.len(), k);

    let (crawls, metrics) = sweep(None);
    let crawls = crawls.expect("the resumed sweep completes");
    assert_eq!(crawls.len(), Region::ALL.len());
    assert_eq!(metrics.tasks_completed, Region::ALL.len() * targets.len());
    assert_eq!(store.len(), Region::ALL.len() * targets.len());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
