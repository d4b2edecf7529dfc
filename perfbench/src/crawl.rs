//! The crawl side: building a study, the timed `sweep-paper` workload,
//! and the traced crawl, which drives every cell through the crates'
//! public calls itself and checks it against the scheduler.

use crate::counting::{CountingBackend, IoCounts};
use crate::expected::Expected;
use crate::report::{median, peak_rss_mb, tail, Metrics, Outcome};
use crate::trace::Tracer;
use analysis::crawl::{
    crawl_all_regions_persistent, crawl_all_regions_with, CheckpointPolicy, CrawlMetrics,
    CrawlOptions, CrawlRecord, RegionMetrics, RetryPolicy, VantageCrawl,
};
use analysis::persist::{encode_record, targets_hash};
use analysis::Study;
use bannerclick::BannerClick;
use browser::Browser;
use httpsim::{content_hash, Network, Region};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use store::{Store, StoreSnapshot};
use webgen::{Population, PopulationConfig};

/// Crawl workers in the timed runs. One, because at two the shared-fetch
/// cache's miss count depends on timing (two concurrent misses on one key
/// both do the work): over three paper-scale sweeps it ranged 84,268 to
/// 92,537, and misses take most of a sweep's time. At one worker the work
/// is the same in every run.
pub const WORKERS: usize = 1;
/// Setups measured per timed run, at least; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// Short setups are repeated until they add up to this many seconds...
const SETUP_SECONDS: f64 = 2.0;
/// ...or this many samples.
const SETUP_MAX_SAMPLES: usize = 50;

/// Whether a run has measured enough setups.
pub fn setups_done(setups: &[f64]) -> bool {
    setups.len() >= SETUP_MAX_SAMPLES
        || (setups.len() >= SETUP_SAMPLES && setups.iter().sum::<f64>() >= SETUP_SECONDS)
}

/// The target list in a seeded order (Fisher-Yates on splitmix64): the
/// same sites, visited in an order the seed picks.
pub fn shuffled(mut targets: Vec<String>, seed: u64) -> Vec<String> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..targets.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        targets.swap(i, j);
    }
    targets
}

/// Generate and install a population, as `Study::new` does, with each
/// step in its own span.
pub fn build_study(config: PopulationConfig, workers: usize, t: &mut Tracer) -> Study {
    let population = t.span("webgen.generate", 0, |_| {
        Arc::new(Population::generate(config))
    });
    let net = Network::new();
    t.span("webgen.install", 0, |_| {
        webgen::server::install(Arc::clone(&population), &net)
    });
    Study {
        population,
        net,
        tool: BannerClick::new(),
        workers,
        cache: true,
        retry: RetryPolicy::default(),
        fault_plan: None,
    }
}

/// Store metadata as the CLI writes it for a study's target list.
pub fn store_meta(targets: &[String]) -> Vec<(String, String)> {
    vec![(
        "targets_hash".to_string(),
        targets_hash(targets).to_string(),
    )]
}

/// Per-region digest of the encoded records in domain order, so it does
/// not depend on the order the targets were crawled in.
pub fn region_digests(crawls: &[VantageCrawl]) -> Vec<u64> {
    crawls
        .iter()
        .map(|c| {
            let mut records: Vec<&CrawlRecord> = c.records.iter().collect();
            records.sort_by(|a, b| a.domain.cmp(&b.domain));
            let bytes: Vec<u8> = records.into_iter().flat_map(encode_record).collect();
            content_hash(&bytes)
        })
        .collect()
}

/// Cells of `crawls` that fail their checks: every cell of a region
/// whose digest (from [`region_digests`]) differs from the pinned one,
/// plus unreachable cells (the fault-free config must reach every site).
fn failed_cells(crawls: &[VantageCrawl], digests: &[u64], expected: Option<&[u64]>) -> u64 {
    crawls
        .iter()
        .enumerate()
        .map(|(r, c)| {
            if expected.and_then(|e| e.get(r)) != Some(&digests[r]) {
                c.records.len() as u64
            } else {
                c.records.iter().filter(|rec| !rec.reachable).count() as u64
            }
        })
        .sum()
}

/// About what one single-worker sweep (17 s) or study (23 s) takes on the
/// reference box, for planning: a run of `seconds` does
/// `seconds / OPERATION_SECONDS` operations.
const OPERATION_SECONDS: f64 = 20.0;

/// Timings of a workload whose operation is one whole sweep or study,
/// each on its own freshly set-up world.
#[derive(Debug, Default)]
pub struct Batch {
    pub setups: Vec<f64>,
    pub op_secs: Vec<f64>,
    /// VmHWM after the first set-up and operation, in MB.
    pub first_peak_mb: f64,
}

impl Batch {
    /// Operations in a run of `seconds`: at least one, and a count fixed
    /// by `seconds` alone, so every run of a workload does the same work
    /// in the same order. (Memory the allocator keeps from earlier
    /// operations makes later ones differ.)
    pub fn operations(seconds: f64) -> usize {
        ((seconds / OPERATION_SECONDS).round() as usize).max(1)
    }

    /// Time `setup`, then `op` on its result.
    pub fn measure<S, T>(&mut self, setup: impl FnOnce() -> S, op: impl FnOnce(&S) -> T) -> (S, T) {
        let t0 = Instant::now();
        let world = setup();
        self.setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let out = op(&world);
        self.op_secs.push(t1.elapsed().as_secs_f64());
        if self.op_secs.len() == 1 {
            self.first_peak_mb = peak_rss_mb();
        }
        eprintln!(
            "operation {}: set-up {:.4} s, operation {:.3} s, peak so far {:.1} MB",
            self.op_secs.len(),
            self.setups.last().unwrap_or(&0.0),
            self.op_secs.last().unwrap_or(&0.0),
            peak_rss_mb()
        );
        (world, out)
    }

    /// Time set-ups until there are enough samples of it, each dropped
    /// after its time is taken.
    pub fn more_setups<S>(&mut self, mut setup: impl FnMut() -> S) {
        while !setups_done(&self.setups) {
            let t0 = Instant::now();
            let world = setup();
            self.setups.push(t0.elapsed().as_secs_f64());
            drop(world);
        }
    }

    /// `setup_s`, `throughput_per_s` (cells per second of one operation)
    /// and the response percentiles (one operation's time), each over the
    /// run's samples, and `peak_rss_mb` of the first operation.
    pub fn metrics(&self, m: &mut Metrics, cells: usize) {
        m.set("setup_s", median(&self.setups));
        let rates: Vec<f64> = self.op_secs.iter().map(|s| cells as f64 / s).collect();
        m.set("throughput_per_s", median(&rates));
        let mut ms: Vec<f64> = self.op_secs.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        m.set("response_p50_ms", median(&ms));
        m.set("response_p99_ms", tail(&ms, 99.0));
        m.set("peak_rss_mb", self.first_peak_mb);
    }
}

/// `sweep-paper`: [`Batch::operations`] cached single-worker sweeps of every
/// region over the seed's target order, each on a freshly set-up world.
pub fn run_sweep(
    config: &PopulationConfig,
    seed: u64,
    key: &str,
    seconds: f64,
    expected: &Expected,
) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Tracer::new(Instant::now(), 0, 0);
    let opts = CrawlOptions {
        workers: WORKERS,
        cache: true,
        retry: RetryPolicy::default(),
    };
    let mut batch = Batch::default();
    // Set-ups first, so every sample starts from the same heap: one taken
    // after a sweep starts from the sweep's freed memory.
    batch.more_setups(|| build_study(config.clone(), WORKERS, &mut scratch));
    let mut cells = 0;
    for _ in 0..Batch::operations(seconds) {
        let ((_, targets), (crawls, metrics)) = batch.measure(
            || {
                let study = build_study(config.clone(), WORKERS, &mut scratch);
                let targets = shuffled(study.targets(), seed);
                (study, targets)
            },
            |(study, targets)| crawl_all_regions_with(&study.net, targets, &study.tool, &opts),
        );
        cells = crawls.len() * targets.len();
        eprintln!(
            "sweep {key}: {}",
            metrics.render().lines().next().unwrap_or("")
        );
        let digests = region_digests(&crawls);
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        eprintln!("digest {key} {}", hex.join(" "));
        out.tally(
            cells as u64,
            failed_cells(&crawls, &digests, expected.get(key)),
        );
    }
    batch.metrics(&mut out.metrics, cells);
    out
}

/// What the traced crawl measured.
pub struct CrawlTrace {
    /// The study the traced loop crawled (its origins have seen exactly
    /// the visits a scheduler sweep makes), with the loop's records.
    pub study: Study,
    pub crawls: Vec<VantageCrawl>,
    /// `CrawlMetrics` of the untraced reference sweep.
    pub reference: CrawlMetrics,
    /// [`region_digests`] of the reference sweep.
    pub reference_digests: Vec<u64>,
    pub reference_secs: f64,
    pub traced_secs: f64,
    pub io: IoCounts,
    pub payload_bytes: u64,
    pub open_read_bytes: u64,
    pub cells: u64,
    /// Cells whose encoded record differs from the scheduler's, or that
    /// were unreachable, or missing from the sealed snapshot.
    pub failed: u64,
}

/// The traced crawl: first an untraced single-worker persistent sweep
/// (the reference for both the records and the tracing overhead), then
/// the same sweep on a fresh world, driven cell by cell from here with a
/// span around each public call. With `order_seed` the targets are
/// crawled in that seed's order, as the timed sweep crawls them.
pub fn traced_crawl(
    config: &PopulationConfig,
    order_seed: Option<u64>,
    work: &Path,
    t: &mut Tracer,
) -> CrawlTrace {
    let opts = CrawlOptions {
        workers: 1,
        cache: true,
        retry: RetryPolicy::default(),
    };
    let study = build_study(config.clone(), 1, t);
    let targets = match order_seed {
        Some(seed) => shuffled(study.targets(), seed),
        None => study.targets(),
    };
    let meta = store_meta(&targets);
    let ref_dir = work.join("reference-store");
    let store = Store::create(&ref_dir, Region::ALL.len(), &meta).expect("reference store");
    let t0 = Instant::now();
    let (crawls, reference) = t
        .span("analysis.experiments.sweep", 0, |_| {
            crawl_all_regions_persistent(
                &study.net,
                &targets,
                &study.tool,
                &opts,
                &store,
                &CheckpointPolicy::default(),
            )
        })
        .expect("reference sweep checkpoints");
    let reference_secs = t0.elapsed().as_secs_f64();
    let crawls = crawls.expect("reference sweep is not aborted");
    let reference_digests = region_digests(&crawls);
    let expected: Vec<Vec<Vec<u8>>> = crawls
        .iter()
        .map(|c| c.records.iter().map(encode_record).collect())
        .collect();
    drop((crawls, store, study));
    let _ = std::fs::remove_dir_all(&ref_dir);

    let study = build_study(config.clone(), 1, t);
    let backend = Arc::new(CountingBackend::default());
    let dir = work.join("traced-store");
    let store =
        Store::create_with(&dir, Region::ALL.len(), &meta, backend.clone()).expect("traced store");
    let mut runner = CellRunner {
        tool: &study.tool,
        cache: HashMap::new(),
        payload_bytes: 0,
    };
    let t1 = Instant::now();
    let mut crawls = Vec::with_capacity(Region::ALL.len());
    let mut failed = 0;
    for (r, &region) in Region::ALL.iter().enumerate() {
        let mut browser = Browser::new(study.net.clone(), region);
        let mut records = Vec::with_capacity(targets.len());
        for (i, domain) in targets.iter().enumerate() {
            let item = (r * targets.len() + i) as u64;
            let (record, payload) = runner.cell(t, &mut browser, &store, r as u8, domain, item);
            if !record.reachable || payload != expected[r][i] {
                failed += 1;
            }
            records.push(record);
        }
        crawls.push(VantageCrawl {
            region,
            records,
            metrics: RegionMetrics {
                tasks: targets.len(),
                ..RegionMetrics::default()
            },
        });
    }
    t.span("store.seal", 0, |_| store.checkpoint())
        .expect("traced store seals");
    let traced_secs = t1.elapsed().as_secs_f64();
    let io = backend.counts();
    let snapshot = t.span("store.snapshot_open", 0, |_| {
        StoreSnapshot::open_with(&dir, backend.clone())
    });
    let open_read_bytes = backend.counts().since(&io).read_bytes;
    let cells = (Region::ALL.len() * targets.len()) as u64;
    let sealed = snapshot.map_or(0, |s| s.len() as u64);
    failed += cells.saturating_sub(sealed);
    let payload_bytes = runner.payload_bytes;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    CrawlTrace {
        study,
        crawls,
        reference,
        reference_digests,
        reference_secs,
        traced_secs,
        io,
        payload_bytes,
        open_read_bytes,
        cells,
        failed,
    }
}

/// Cells of a traced crawl that fail the pinned sweep digests: all of
/// them when the scheduler's output differs from `expected`.
pub fn check_sweep(c: &CrawlTrace, expected: Option<&[u64]>) -> u64 {
    if expected == Some(&c.reference_digests[..]) {
        0
    } else {
        c.cells
    }
}

/// Per-cell state of the traced crawl loop: the shared-fetch cache, keyed as
/// the scheduler keys it, by `(domain, content hash of the document)`.
struct CellRunner<'a> {
    tool: &'a BannerClick,
    cache: HashMap<(String, u64), CrawlRecord>,
    payload_bytes: u64,
}

impl CellRunner<'_> {
    /// One cell, as the scheduler's cached single-attempt path runs it:
    /// fetch, cache lookup, then on a miss load, analyze and detect the
    /// language; then encode and put. The document is parsed once more
    /// outside the load span so the parse has a span of its own.
    fn cell(
        &mut self,
        t: &mut Tracer,
        browser: &mut Browser,
        store: &Store,
        region: u8,
        domain: &str,
        item: u64,
    ) -> (CrawlRecord, Vec<u8>) {
        t.span("crawl.cell", item, |t| {
            browser.clear_cookies();
            let record = match t.span("browser.fetch", item, |_| {
                browser.fetch_domain_document(domain)
            }) {
                Err(_) => unreachable_record(domain),
                Ok(fetched) => {
                    let key = (domain.to_string(), content_hash(fetched.body().as_bytes()));
                    match t.span("analysis.cache_lookup", item, |_| {
                        self.cache.get(&key).cloned()
                    }) {
                        Some(record) => record,
                        None => {
                            let loaded =
                                t.span("browser.load", item, |_| browser.load_fetched(&fetched));
                            t.span("webdom.parse", item, |_| {
                                drop(webdom::parse(fetched.body()))
                            });
                            let record = match loaded {
                                Ok(mut page) => self.analyze(t, domain, &mut page, item),
                                Err(_) => unreachable_record(domain),
                            };
                            self.cache.insert(key, record.clone());
                            record
                        }
                    }
                }
            };
            let payload = t.span("analysis.persist.encode", item, |_| encode_record(&record));
            self.payload_bytes += payload.len() as u64;
            let put = t.span("store.put", item, |_| store.put(region, domain, &payload));
            if !matches!(put, Ok(true)) {
                return (unreachable_record(domain), payload);
            }
            (record, payload)
        })
    }

    fn analyze(
        &self,
        t: &mut Tracer,
        domain: &str,
        page: &mut browser::Page,
        item: u64,
    ) -> CrawlRecord {
        let analysis = t.span("bannerclick.analyze", item, |_| {
            self.tool.analyze_page(domain, page)
        });
        let mut text = page.main_text();
        if let Some(b) = &analysis.banner {
            text.push(' ');
            text.push_str(&b.text);
        }
        let language = t.span("langid.detect", item, |_| {
            langid::detect(&text).map(|d| d.language.code())
        });
        CrawlRecord {
            domain: domain.to_string(),
            reachable: true,
            banner: analysis.banner_detected(),
            cookiewall: analysis.cookiewall_detected(),
            embedding: analysis.embedding(),
            monthly_eur: analysis.price().map(|p| p.monthly_eur),
            provider: analysis.provider.clone(),
            language,
            attempts: 1,
            failure: None,
        }
    }
}

/// A cell the traced loop could not complete; it always fails its check.
fn unreachable_record(domain: &str) -> CrawlRecord {
    CrawlRecord {
        domain: domain.to_string(),
        reachable: false,
        banner: false,
        cookiewall: false,
        embedding: None,
        monthly_eur: None,
        provider: None,
        language: None,
        attempts: 1,
        failure: None,
    }
}

/// The per-layer metrics of the crawl side.
pub fn crawl_layer_metrics(m: &mut Metrics, t: &Tracer, c: &CrawlTrace) {
    m.set(
        "webgen.generate_ms",
        t.stats("webgen.generate").self_us() / 1e3,
    );
    m.set(
        "webgen.install_ms",
        t.stats("webgen.install").self_us() / 1e3,
    );
    for (metric, span) in [
        ("browser.fetch", "browser.fetch"),
        ("browser.load", "browser.load"),
        ("webdom.parse", "webdom.parse"),
        ("bannerclick.analyze", "bannerclick.analyze"),
    ] {
        let s = t.stats(span);
        m.set(&format!("{metric}_us"), s.self_us());
        m.set(&format!("{metric}_allocs"), s.allocs_per_call());
    }
    m.set("langid.detect_us", t.stats("langid.detect").self_us());
    m.set(
        "analysis.persist.encode_us",
        t.stats("analysis.persist.encode").self_us(),
    );
    let r = &c.reference;
    m.set("analysis.crawl.cache_hit_ratio", r.hit_rate());
    m.set("analysis.crawl.cache_misses", r.cache_misses as f64);
    m.set("analysis.crawl.utilization", r.utilization());
    let walls = r.per_region.iter().map(|(_, rm)| rm.wall_ms);
    let skew = walls.clone().max().unwrap_or(0) - walls.min().unwrap_or(0);
    m.set("analysis.crawl.region_skew_ms", skew as f64);
    // The extra parse is work the untraced sweep never does.
    let parse_secs = t.stats("webdom.parse").total_ns as f64 / 1e9;
    m.set(
        "trace.overhead_ratio",
        (c.traced_secs - parse_secs) / c.reference_secs.max(1e-9),
    );
}

/// The store metrics of a traced crawl's single store.
pub fn crawl_store_metrics(m: &mut Metrics, t: &Tracer, c: &CrawlTrace) {
    m.set("store.put_us", t.stats("store.put").self_us());
    m.set("store.seal_ms", t.stats("store.seal").self_us() / 1e3);
    m.set("store.append_calls", c.io.append_calls as f64);
    m.set(
        "store.write_bytes_per_payload_byte",
        c.io.written_bytes as f64 / c.payload_bytes.max(1) as f64,
    );
    m.set(
        "store.snapshot_open_ms",
        t.stats("store.snapshot_open").self_us() / 1e3,
    );
    m.set("store.snapshot_open_read_bytes", c.open_read_bytes as f64);
}
