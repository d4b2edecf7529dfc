//! Bench: Table 1 — the eight-vantage-point crawl and its aggregation,
//! plus the parallel-crawl scaling ablation.

use analysis::{
    crawl_all_regions_with, crawl_region, experiments::table1, run_crawls, CrawlOptions,
};
use bannerclick::BannerClick;
use bench::{small_crawls, small_study, tiny_study};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use httpsim::Region;
use std::hint::black_box;

fn bench_crawl(c: &mut Criterion) {
    let tiny = tiny_study();
    let targets = tiny.targets();
    let tool = BannerClick::new();

    let mut g = c.benchmark_group("table1");
    g.sample_size(10);

    // One vantage point over the tiny target list.
    g.bench_function("crawl_one_region_tiny", |b| {
        b.iter(|| {
            let crawl = crawl_region(&tiny.net, Region::Germany, &targets, &tool, tiny.workers);
            black_box(crawl.wall_count())
        })
    });

    // All eight vantage points (the full Table 1 measurement, tiny scale).
    g.bench_function("crawl_all_regions_tiny", |b| {
        b.iter(|| black_box(run_crawls(tiny).len()))
    });

    // Aggregation only, on the precomputed small crawls.
    let small = small_study();
    let crawls = small_crawls();
    g.bench_function("compute_table_small", |b| {
        b.iter(|| {
            let t = table1::compute(small, crawls);
            black_box(t.unique_walls)
        })
    });
    g.finish();

    // Scheduler vs. the seed's serial region loop, at equal worker counts:
    // the serial sweep pays eight sequential barriers, the global scheduler
    // drains one (region × domain) matrix — with and without the
    // shared-fetch cache, to separate the two effects.
    let mut g = c.benchmark_group("table1/sweep_8_regions");
    g.sample_size(10);
    let workers = 4usize;
    g.bench_function("serial_loop", |b| {
        b.iter(|| {
            let crawls: Vec<_> = Region::ALL
                .iter()
                .map(|&region| crawl_region(&tiny.net, region, &targets, &tool, workers))
                .collect();
            black_box(crawls.len())
        })
    });
    g.bench_function("scheduler_no_cache", |b| {
        b.iter(|| {
            let opts = CrawlOptions {
                workers,
                cache: false,
                ..CrawlOptions::default()
            };
            black_box(
                crawl_all_regions_with(&tiny.net, &targets, &tool, &opts)
                    .0
                    .len(),
            )
        })
    });
    g.bench_function("scheduler_cached", |b| {
        b.iter(|| {
            let opts = CrawlOptions {
                workers,
                cache: true,
                ..CrawlOptions::default()
            };
            black_box(
                crawl_all_regions_with(&tiny.net, &targets, &tool, &opts)
                    .0
                    .len(),
            )
        })
    });
    g.finish();

    // Ablation: crawl parallelism 1 … 64 workers. The high counts
    // oversubscribe the machine on purpose: with the striped cache and
    // per-worker counters the extra workers should cost contention-free
    // queue churn, not lock convoys on shared metrics.
    let mut g = c.benchmark_group("table1/worker_scaling");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8, 16, 32, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let crawl = crawl_region(&tiny.net, Region::Germany, &targets, &tool, w);
                black_box(crawl.records.len())
            })
        });
    }
    g.finish();

    // The full eight-region scheduler sweep at high worker counts — the
    // path the sharded lock topology is for: 64 workers share one striped
    // fetch cache and one global queue.
    let mut g = c.benchmark_group("table1/sweep_worker_scaling");
    g.sample_size(10);
    for workers in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let opts = CrawlOptions {
                    workers: w,
                    cache: true,
                    ..CrawlOptions::default()
                };
                black_box(
                    crawl_all_regions_with(&tiny.net, &targets, &tool, &opts)
                        .0
                        .len(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_crawl);
criterion_main!(benches);
