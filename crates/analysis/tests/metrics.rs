//! Metrics-merge tests: the per-worker plain counters that replaced the
//! shared atomics must (a) merge to the same totals the shared counters
//! would have accumulated — recounted here from per-record ground truth
//! on a deterministic serial fixture crawl — and (b) merge commutatively,
//! so worker join order can never change the reported `CrawlMetrics`.

use analysis::{
    crawl_all_regions_with, CrawlMetrics, FailureKind, RetryPolicy, Study, VantageCrawl,
    WorkerCounters,
};
use httpsim::Region;
use webgen::PopulationConfig;

fn fixture_study(workers: usize) -> Study {
    let fault = {
        let mut f = httpsim::FaultConfig::new(1234);
        f.transient_rate = 0.12;
        f.permanent_rate = 0.04;
        f
    };
    let mut study = Study::with_fault_config(PopulationConfig::tiny(), Some(fault));
    study.workers = workers;
    study
}

/// The study's eight-region crawl and what the scheduler observed.
fn crawl(study: &Study) -> (Vec<VantageCrawl>, CrawlMetrics) {
    crawl_all_regions_with(
        &study.net,
        &study.targets(),
        &study.tool,
        &study.crawl_options(),
    )
}

/// At workers = 1 the schedule is deterministic and the merge degenerates
/// to the lone worker's counters, so every merged total can be recounted
/// independently from the records — exactly what the old shared atomics
/// summed at the same bump sites.
#[test]
fn merged_totals_match_record_ground_truth_serially() {
    let study = fixture_study(1);
    let policy = study.retry.clone();
    let (crawls, metrics) = crawl(&study);
    let n_tasks = Region::ALL.len() * study.targets().len();
    let records: Vec<_> = crawls.iter().flat_map(|c| &c.records).collect();

    assert_eq!(metrics.tasks_completed, n_tasks);
    assert_eq!(records.len(), n_tasks);

    // Cache tallies (summed across stripes) cover exactly the tasks whose
    // fetch succeeded; failed cells never reach the cache.
    let unreachable_cells = records.iter().filter(|r| r.failure.is_some()).count();
    assert_eq!(
        metrics.cache_hits + metrics.cache_misses,
        n_tasks - unreachable_cells,
        "each fetched task is either a hit or a miss"
    );

    // Retries: every record spent attempts-1 retries (0 attempts = a
    // breaker skip, which retries nothing).
    let expected_retries: u64 = records
        .iter()
        .map(|r| u64::from(r.attempts.saturating_sub(1)))
        .sum();
    assert_eq!(metrics.retries, expected_retries);

    // Backoff: the virtual charge is a pure function of the retry counts.
    let expected_backoff: u64 = records
        .iter()
        .map(|r| (1..r.attempts).map(|k| policy.backoff_ms(k)).sum::<u64>())
        .sum();
    assert_eq!(metrics.backoff_virtual_ms, expected_backoff);

    // Breaker: skipped cells are the ones that never attempted; opened
    // hosts are the distinct registrable hosts that exhausted retries on
    // an unresolved name.
    let expected_skips = records.iter().filter(|r| r.attempts == 0).count();
    assert_eq!(metrics.breaker_skips, expected_skips);
    let mut opened_hosts: Vec<&str> = records
        .iter()
        .filter(|r| r.failure == Some(FailureKind::Unreachable) && r.attempts > 0)
        .map(|r| httpsim::registrable_domain(&r.domain).unwrap_or(&r.domain))
        .collect();
    opened_hosts.sort_unstable();
    opened_hosts.dedup();
    assert_eq!(metrics.breaker_open_hosts, opened_hosts.len());

    assert_eq!(metrics.panics, 0, "the fixture pipeline never panics");

    // Steal accounting: per-region stolen counts are the merged per-worker
    // vectors; a single worker working its home region first still steals
    // every task of the other regions.
    let stolen_total: usize = metrics.per_region.iter().map(|(_, m)| m.stolen).sum();
    assert_eq!(
        stolen_total,
        (Region::ALL.len() - 1) * study.targets().len(),
        "one worker steals every non-home region task"
    );
}

/// Concurrency may reorder work but never invent or lose counted events:
/// the totals that are schedule-independent must match the serial run.
#[test]
fn merged_totals_are_schedule_independent() {
    let (serial_crawls, serial) = crawl(&fixture_study(1));
    let (parallel_crawls, parallel) = crawl(&fixture_study(4));
    assert_eq!(serial.tasks_completed, parallel.tasks_completed);
    assert_eq!(
        serial.cache_hits + serial.cache_misses,
        parallel.cache_hits + parallel.cache_misses,
        "fetched-task count is schedule-independent"
    );
    assert_eq!(serial.panics, parallel.panics);
    // The failure taxonomy is derived from records, which the stress suite
    // pins byte-identical — recount it here from both runs' records.
    let count = |crawls: &[VantageCrawl]| {
        crawls
            .iter()
            .flat_map(|c| &c.records)
            .filter(|r| r.failure.is_some())
            .count()
    };
    assert_eq!(count(&serial_crawls), count(&parallel_crawls));
}

fn synthetic_counters() -> Vec<WorkerCounters> {
    (0..7u64)
        .map(|w| WorkerCounters {
            tasks: 3 + w as usize,
            busy_us: 1_000 * (w + 1),
            stolen: (0..4).map(|r| ((w + r) % 3) as usize).collect(),
            retries: 2 * w,
            backoff_virtual_ms: 250 * w,
            panics: (w % 2) as usize,
            breaker_opened: (w % 3) as usize,
            breaker_skips: w as usize,
        })
        .collect()
}

fn merge_in_order(
    counters: &[WorkerCounters],
    order: impl Iterator<Item = usize>,
) -> WorkerCounters {
    let mut merged = WorkerCounters::new(4);
    for i in order {
        merged.merge(&counters[i]);
    }
    merged
}

#[test]
fn merge_is_commutative() {
    let counters = synthetic_counters();
    let forward = merge_in_order(&counters, 0..counters.len());
    let reverse = merge_in_order(&counters, (0..counters.len()).rev());
    let interleaved = merge_in_order(&counters, (0..counters.len()).map(|i| (i * 3) % 7));
    assert_eq!(forward, reverse);
    assert_eq!(forward, interleaved);
}

/// Rendered `CrawlMetrics` built from merges in different orders are
/// identical — join order is not observable downstream.
#[test]
fn merge_order_does_not_change_rendered_metrics() {
    let counters = synthetic_counters();
    let render_from = |merged: WorkerCounters| {
        let metrics = CrawlMetrics {
            workers: counters.len(),
            cache_enabled: true,
            tasks_completed: merged.tasks,
            cache_hits: 10,
            cache_misses: 32,
            wall_ms: 1_000,
            busy_us: merged.busy_us,
            per_region: Region::ALL
                .iter()
                .take(4)
                .enumerate()
                .map(|(r, &region)| {
                    (
                        region,
                        analysis::RegionMetrics {
                            tasks: merged.tasks,
                            stolen: merged.stolen[r],
                            wall_ms: 900,
                        },
                    )
                })
                .collect(),
            retries: merged.retries,
            backoff_virtual_ms: merged.backoff_virtual_ms,
            panics: merged.panics,
            breaker_open_hosts: merged.breaker_opened,
            breaker_skips: merged.breaker_skips,
            unresolved_requests: 5,
            failures: Default::default(),
        };
        metrics.render()
    };
    let forward = render_from(merge_in_order(&counters, 0..counters.len()));
    let reverse = render_from(merge_in_order(&counters, (0..counters.len()).rev()));
    assert_eq!(forward, reverse);
}

/// The default retry policy used by the ground-truth backoff recount must
/// be the study's policy — guard against the fixtures drifting apart.
#[test]
fn fixture_policy_matches_default() {
    assert_eq!(fixture_study(1).retry, RetryPolicy::default());
}
