//! The `serve-live` workload: one closed-loop reader answering a seeded
//! Zipf request stream while an open-loop ingest thread re-ingests,
//! seals, opens and installs an epoch of identical content at a fixed
//! cell rate.
//!
//! Both epochs are built, sealed, opened and installed during set-up, so
//! no measured diff ever waits for the service's first install; that
//! transient is deliberately not measured.

use crate::counting::{CountingBackend, IoCounts};
use crate::crawl::setups_done;
use crate::report::{median, peak_rss_mb, percentile, tail, Metrics, Outcome};
use crate::trace::Tracer;
use analysis::crawl::CrawlRecord;
use analysis::persist::encode_record;
use analysis::query::{evaluate, Query};
use serve::{QueryService, RequestStream};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{FsBackend, StorageBackend, Store, StoreSnapshot};

/// Zipf exponent of the request stream's hot keys.
const ZIPF: f64 = 1.1;
/// Cells put between two pacing checks of the ingest loop.
const BATCH: usize = 64;
/// Regions of each served epoch.
const REGIONS: usize = 4;
/// Cells per second the ingest is scheduled to put.
const INGEST_RATE: f64 = 20_000.0;
/// Query classes, in report order.
pub const CLASSES: [&str; 4] = ["wall-status", "prevalence", "prices", "diff"];

/// Size of the served epochs.
#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    pub domains: usize,
    /// Requests answered by each pass of the traced run.
    pub traced_requests: usize,
}

impl ServeScale {
    /// 4 regions × 8,000 domains: a diff walks 64,000 cells.
    pub fn full() -> ServeScale {
        ServeScale {
            domains: 8_000,
            traced_requests: 3_000,
        }
    }

    pub fn tiny() -> ServeScale {
        ServeScale {
            domains: 200,
            traced_requests: 400,
        }
    }

    fn cells(&self) -> usize {
        REGIONS * self.domains
    }

    fn domain_names(&self) -> Vec<String> {
        (0..self.domains)
            .map(|i| format!("site-{i}.example"))
            .collect()
    }
}

/// A synthetic crawl cell: every 5th domain (shifted by epoch and seed)
/// is a wall with a price, so two epochs differ in walls and prices.
fn record(domain: &str, i: usize, epoch: u64, seed: u64) -> Vec<u8> {
    let wall = (i as u64 + seed) % 5 == epoch % 5;
    encode_record(&CrawlRecord {
        domain: domain.to_string(),
        reachable: true,
        banner: wall || i.is_multiple_of(3),
        cookiewall: wall,
        embedding: None,
        monthly_eur: wall.then_some(1.99 + (i % 7) as f64),
        provider: None,
        language: Some("en"),
        attempts: 1,
        failure: None,
    })
}

/// The encoded cells of one epoch, `(region, domain, payload)`.
fn epoch_cells(scale: &ServeScale, epoch: u64, seed: u64) -> Vec<(u8, String, Vec<u8>)> {
    let mut cells = Vec::with_capacity(scale.cells());
    for (i, domain) in scale.domain_names().into_iter().enumerate() {
        let payload = record(&domain, i, epoch, seed);
        for region in 0..REGIONS as u8 {
            cells.push((region, domain.clone(), payload.clone()));
        }
    }
    cells
}

/// Open-loop schedule: cell `k` is due `k / rate` seconds after start.
struct Pacer {
    start: Instant,
    rate: f64,
    issued: u64,
    /// How late each batch started, in ms.
    lateness_ms: Vec<f64>,
}

impl Pacer {
    fn new(rate: f64) -> Pacer {
        Pacer {
            start: Instant::now(),
            rate,
            issued: 0,
            lateness_ms: Vec::new(),
        }
    }

    /// Wait until the next `n` cells are due, noting how late they are.
    fn next_batch(&mut self, n: usize) {
        let due = self.start + Duration::from_secs_f64(self.issued as f64 / self.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        self.lateness_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        self.issued += n as u64;
    }
}

/// Put every cell, checkpoint (flush and seal) and open the sealed view.
/// With a pacer the puts follow its schedule and stop early, returning
/// `None`, once `stop` is raised.
fn ingest(
    dir: &Path,
    cells: &[(u8, String, Vec<u8>)],
    backend: Arc<dyn StorageBackend>,
    mut pacer: Option<&mut Pacer>,
    stop: &AtomicBool,
    t: &mut Tracer,
) -> Option<StoreSnapshot> {
    let store = Store::create_with(dir, REGIONS, &[], Arc::clone(&backend)).expect("epoch store");
    for (k, (region, domain, payload)) in cells.iter().enumerate() {
        if k % BATCH == 0 {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(p) = pacer.as_deref_mut() {
                p.next_batch(BATCH);
            }
        }
        t.span("store.put", k as u64, |_| {
            store.put(*region, domain, payload)
        })
        .expect("put succeeds");
    }
    t.span("store.seal", 0, |_| store.checkpoint())
        .expect("epoch seals");
    drop(store);
    let snapshot = t
        .span("store.snapshot_open", 0, |_| {
            StoreSnapshot::open_with(dir, backend)
        })
        .expect("epoch opens");
    Some(snapshot)
}

/// A service over two sealed epochs (A, then B with identical content to
/// every later re-ingest), plus the cells the ingest repeats.
struct Served {
    service: QueryService,
    /// Epochs the ingest thread has installed since set-up.
    installs: AtomicU64,
    epoch_a: Arc<StoreSnapshot>,
    epoch_b: Arc<StoreSnapshot>,
    cells_b: Vec<(u8, String, Vec<u8>)>,
}

fn set_up(scale: &ServeScale, seed: u64, work: &Path, tag: &str, t: &mut Tracer) -> Served {
    let never = AtomicBool::new(false);
    let mut open = |epoch: u64| {
        let dir = work.join(format!("{tag}-epoch{epoch}"));
        let cells = epoch_cells(scale, epoch, seed);
        let backend: Arc<dyn StorageBackend> = Arc::new(FsBackend);
        let snapshot =
            ingest(&dir, &cells, backend, None, &never, t).expect("set-up ingest is never stopped");
        (Arc::new(snapshot), cells)
    };
    let (epoch_a, _) = open(0);
    let (epoch_b, cells_b) = open(1);
    let service = QueryService::with_epochs(Arc::clone(&epoch_a), Arc::clone(&epoch_b));
    Served {
        service,
        installs: AtomicU64::new(0),
        epoch_a,
        epoch_b,
        cells_b,
    }
}

/// What the ingest thread did while the reader ran.
#[derive(Default)]
struct IngestLog {
    /// Re-ingested epochs whose sealed view lost cells.
    bad_epochs: u64,
    lateness_ms: Vec<f64>,
    /// IO counts of each completed epoch store.
    io: Vec<IoCounts>,
    tracer: Option<Tracer>,
}

/// Re-ingest epoch B at [`INGEST_RATE`] until `stop`, installing each
/// sealed copy into the service.
fn ingest_loop(served: &Served, work: &Path, stop: &AtomicBool, mut t: Tracer) -> IngestLog {
    let mut log = IngestLog::default();
    let mut pacer = Pacer::new(INGEST_RATE);
    let mut k = 0;
    loop {
        let dir = work.join(format!("ingest-{k}"));
        k += 1;
        let backend = Arc::new(CountingBackend::default());
        let snapshot = ingest(
            &dir,
            &served.cells_b,
            backend.clone(),
            Some(&mut pacer),
            stop,
            &mut t,
        );
        let Some(snapshot) = snapshot else { break };
        if snapshot.len() != served.cells_b.len() {
            log.bad_epochs += 1;
        }
        log.io.push(backend.counts());
        served.service.install_second_epoch(Arc::new(snapshot));
        served.installs.fetch_add(1, Ordering::Relaxed);
    }
    log.lateness_ms = pacer.lateness_ms;
    log.tracer = Some(t);
    log
}

/// One answered request.
struct Answered {
    query: Query,
    class: &'static str,
    latency_ns: u64,
    sim_micros: u64,
    text: String,
    from_second: bool,
}

/// Answers that are not byte-identical to `evaluate` on the sealed epoch
/// they came from. Every re-ingested epoch B has B's content, so B's
/// set-up snapshot stands for all of them.
fn mismatches(served: &Served, answers: &[Answered]) -> u64 {
    let mut memo: HashMap<(String, bool), String> = HashMap::new();
    let a = served.epoch_a.as_ref();
    let b = served.epoch_b.as_ref();
    answers
        .iter()
        .filter(|ans| {
            let expected = memo
                .entry((ans.query.render(), ans.from_second))
                .or_insert_with(|| match &ans.query {
                    Query::EpochDiff => evaluate(&ans.query, b, Some(a)).text,
                    q if ans.from_second => evaluate(q, b, None::<&StoreSnapshot>).text,
                    q => evaluate(q, a, None::<&StoreSnapshot>).text,
                });
            *expected != ans.text
        })
        .count() as u64
}

/// Answer the requests of reader lane 0, in order, until `done` says stop.
fn read(
    served: &Served,
    stream: &RequestStream,
    mut done: impl FnMut(usize) -> bool,
    mut t: Option<&mut Tracer>,
) -> Vec<Answered> {
    let mut answers = Vec::new();
    let mut i = 0;
    while !done(answers.len()) {
        let query = stream.request(0, i);
        let class = query.class();
        let t0 = Instant::now();
        let response = match t.as_deref_mut() {
            Some(t) => t.span(answer_span(class), i as u64, |_| {
                served.service.answer(&query)
            }),
            None => served.service.answer(&query),
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        answers.push(Answered {
            query,
            class,
            latency_ns,
            sim_micros: response.sim_micros,
            text: response.text,
            from_second: response.from_second_epoch,
        });
        i += 1;
    }
    answers
}

fn answer_span(class: &str) -> &'static str {
    match class {
        "wall-status" => "serve.answer.wall-status",
        "prevalence" => "serve.answer.prevalence",
        "prices" => "serve.answer.prices",
        "diff" => "serve.answer.diff",
        _ => "serve.answer.other",
    }
}

fn remove_work(work: &Path, prefixes: &[&str]) {
    if let Ok(entries) = std::fs::read_dir(work) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if prefixes.iter().any(|p| name.starts_with(p)) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// The timed `serve-live` run.
pub fn run_serve(scale: &ServeScale, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Tracer::new(Instant::now(), 0, 0);
    let mut setup_secs = Vec::new();
    let mut served = None;
    let mut n = 0;
    while !setups_done(&setup_secs) {
        n += 1;
        // Drop the previous set-up first so only one lives at a time.
        drop(served.take());
        let t0 = Instant::now();
        served = Some(set_up(
            scale,
            seed,
            work,
            &format!("setup{n}"),
            &mut scratch,
        ));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");
    let stream = RequestStream::new(seed, scale.domain_names(), ZIPF, REGIONS as u8, true);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (answers, measured, log) = std::thread::scope(|s| {
        let ingest = s.spawn(|| ingest_loop(&served, work, &stop, Tracer::new(start, 0, 0)));
        let answers = read(
            &served,
            &stream,
            |_| start.elapsed().as_secs_f64() >= seconds,
            None,
        );
        // The reader's phase ends here; the ingest thread's drain after
        // `stop` is not part of it.
        let measured = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (answers, measured, ingest.join().expect("ingest thread"))
    });
    eprintln!(
        "serve-live: {} answers in {measured:.3} s, {} epochs re-ingested, ingest lateness p99 {:.3} ms",
        answers.len(),
        served.installs.load(Ordering::Relaxed),
        tail(&sorted(log.lateness_ms.clone()), 99.0)
    );
    out.tally(answers.len() as u64, mismatches(&served, &answers));
    out.tally(served.installs.load(Ordering::Relaxed), log.bad_epochs);
    // Over the whole measured phase, not per slice of it: a diff costs
    // thousands of wall-status answers and makes up 5% of the mix, so a
    // few-second slice holds too few diffs for its rate or p99 to be
    // steady.
    let ms = sorted(answers.iter().map(|a| a.latency_ns as f64 / 1e6).collect());
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_secs));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("throughput_per_s", answers.len() as f64 / measured);
    m.set("response_p50_ms", percentile(&ms, 50.0));
    m.set("response_p99_ms", tail(&ms, 99.0));
    drop(served);
    remove_work(work, &["setup", "ingest-"]);
    out
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// What the traced serve run measured.
pub struct ServeTrace {
    pub requests: u64,
    pub failed: u64,
    pub overhead: f64,
}

/// The traced serve run: set up as the timed run does, then answer the
/// same fixed number of requests twice beside the paced ingest, first
/// untraced and then with a span per answer, and keep the ingest going
/// until it has installed at least one epoch. The ingest thread stores
/// through a counting backend and traces its puts, seals and opens into
/// its own tracer, folded into `t`.
pub fn traced_serve(
    scale: &ServeScale,
    seed: u64,
    work: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) -> ServeTrace {
    let mut setup_tracer = Tracer::new(Instant::now(), 0, 0);
    let served = set_up(scale, seed, work, "traced", &mut setup_tracer);
    let stream = RequestStream::new(seed, scale.domain_names(), ZIPF, REGIONS as u8, true);
    let n = scale.traced_requests;
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let (untraced_secs, traced_secs, answers, log) = std::thread::scope(|s| {
        let ingest =
            s.spawn(|| ingest_loop(&served, work, &stop, Tracer::new(origin, 3 << 40, 4096)));
        let t0 = Instant::now();
        let untraced = read(&served, &stream, |k| k >= n, None);
        let untraced_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut answers = read(&served, &stream, |k| k >= n, Some(t));
        let traced_secs = t1.elapsed().as_secs_f64();
        // The ingest loop only ends on `stop` or by panicking; a panic
        // propagates from the join below instead of hanging here.
        while served.installs.load(Ordering::Relaxed) == 0 && !ingest.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        answers.extend(untraced);
        (
            untraced_secs,
            traced_secs,
            answers,
            ingest.join().expect("ingest thread"),
        )
    });
    let failed = mismatches(&served, &answers) + log.bad_epochs;
    let traced = &answers[..n];
    for class in CLASSES {
        let of_class = traced.iter().filter(|a| a.class == class);
        let real = sorted(of_class.clone().map(|a| a.latency_ns as f64).collect());
        let sim = sorted(of_class.map(|a| a.sim_micros as f64).collect());
        for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
            let tag = format!("{class}.{tag}");
            m.set(&format!("serve.answer_us.{tag}"), tail(&real, p) / 1e3);
            m.set(&format!("serve.sim_us.{tag}"), tail(&sim, p));
        }
    }
    m.set(
        "serve.ingest.lag_ms",
        tail(&sorted(log.lateness_ms.clone()), 99.0),
    );
    m.set(
        "serve.ingest.epochs",
        served.installs.load(Ordering::Relaxed) as f64,
    );
    let ingest_tracer = log.tracer.expect("ingest tracer");
    let payload_bytes = served.cells_b.iter().map(|c| c.2.len() as u64).sum();
    ingest_store_metrics(m, &ingest_tracer, &log.io, payload_bytes);
    t.absorb(ingest_tracer);
    drop(served);
    remove_work(work, &["traced", "ingest-"]);
    ServeTrace {
        requests: 2 * n as u64,
        failed,
        overhead: traced_secs / untraced_secs.max(1e-9),
    }
}

/// The `store.*` per-layer metrics of the ingest thread, over the epochs
/// it completed: each put `payload_bytes`, then sealed and opened once.
/// Counts are per store.
fn ingest_store_metrics(m: &mut Metrics, t: &Tracer, io: &[IoCounts], payload_bytes: u64) {
    let epochs = io.len().max(1) as f64;
    let sum = |f: fn(&IoCounts) -> u64| io.iter().map(f).sum::<u64>() as f64;
    m.set("store.put_us", t.stats("store.put").self_us());
    m.set("store.seal_ms", t.stats("store.seal").self_us() / 1e3);
    m.set("store.append_calls", sum(|c| c.append_calls) / epochs);
    m.set(
        "store.write_bytes_per_payload_byte",
        sum(|c| c.written_bytes) / (payload_bytes as f64 * epochs),
    );
    m.set(
        "store.snapshot_open_ms",
        t.stats("store.snapshot_open").self_us() / 1e3,
    );
    m.set(
        "store.snapshot_open_read_bytes",
        sum(|c| c.read_bytes) / epochs,
    );
}

/// Scratch directory for one run's stores.
pub fn work_dir(base: &Path, workload: &str) -> PathBuf {
    base.join(format!("{workload}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_answer_that_differs_from_evaluate_is_a_mismatch() {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("unit-{}", std::process::id()));
        let scale = ServeScale::tiny();
        let mut t = Tracer::new(Instant::now(), 0, 0);
        let served = set_up(&scale, 9, &work, "unit", &mut t);
        let stream = RequestStream::new(9, scale.domain_names(), ZIPF, REGIONS as u8, true);
        let mut answers = read(&served, &stream, |k| k >= 200, None);
        assert!(
            answers.iter().any(|a| a.class == "diff"),
            "the mix reaches diffs"
        );
        assert_eq!(mismatches(&served, &answers), 0);
        answers[7].text.push(' ');
        assert_eq!(mismatches(&served, &answers), 1);
        drop(served);
        let _ = std::fs::remove_dir_all(&work);
    }
}
