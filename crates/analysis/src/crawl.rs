//! Crawl orchestration: run the BannerClick pipeline over a target list
//! from one or more vantage points, in parallel.
//!
//! ## The global scheduler
//!
//! Table 1 crawls the same target list from eight vantage points. Rather
//! than eight region-after-region passes, each paying its slowest site's
//! tail, [`crawl_all_regions_with`] schedules the whole `(region × domain)`
//! matrix over one work-stealing pool: every worker has a home region
//! (spread round-robin over the pool), claims its cells until that region
//! is drained, then steals from the next. The sweep ends when the global
//! matrix is drained. That pool, `par_matrix`, is the only one in the
//! crate: a one-region crawl ([`crawl_region_with`]), the persistent sweep
//! ([`crawl_all_regions_persistent`]), the variant pass, and the cookie and
//! bypass measurements all run on it. It stores results under one lock
//! per lane, and each lane of records comes back in the buffer it was
//! written to.
//!
//! ## The shared-fetch cache
//!
//! The synthetic web is deterministic: for a cookie-less (fresh-profile)
//! navigation, the main document a site serves is a pure function of
//! `(domain, region)` — and every downstream observation (subresources,
//! injected fragments, parsed DOM, detection verdict) is in turn a pure
//! function of that document. Two vantage points that receive
//! byte-identical documents would do byte-identical analysis work. The
//! scheduler therefore keys a cache on the domain's and the document's
//! [`document_hash`], and a hit must also match the domain the slot was
//! analyzed for. The navigation request is always dispatched (so origin
//! servers observe every vantage point's visit and per-site counters
//! advance exactly as in an uncached crawl), but the subresource loading,
//! DOM parse, and BannerClick analysis run only once per distinct
//! document: misses are single-flight, so a worker that reaches a
//! document another worker is still analyzing waits for that analysis
//! instead of redoing the work. A hit costs its navigation, one hash of
//! the body, and one probe; the document's own `Set-Cookie` headers are
//! never parsed, since only a load reads the jar. A slot keeps a compact
//! analyzed cell, not a record, and a hit's record allocates only its
//! domain: the provider is shared. Regions that get geo-gated content (a
//! wall hidden from a non-EU visitor) hash to a different key and are
//! analyzed separately, so region-dependent observations are never shared
//! by construction.
//!
//! ## Variant passes
//!
//! The ablation and bot-detection experiments re-crawl one region under
//! several detector settings or user agents. `crawl_variants` runs all of
//! them in one pass, cell by cell, under the same rule: every variant
//! dispatches its own navigation, so origins, visit counters and fault
//! plans see exactly the requests of one crawl per variant. What follows
//! the navigation is shared. A full study keeps the sweep's cache for its
//! variant passes, and each slot a miss filled also holds the
//! [`DetectionSummary`] of that miss's one detection pass. A variant whose
//! document the sweep analyzed reads its verdict off that summary: no
//! subresource request, no load, no detection. Only the other documents
//! (a bot-sensitive site's naive-UA page, cells restored from a store, any
//! run without the cache) are loaded, once per cell and distinct
//! document, and detected once per distinct detector setting.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use bannerclick::{
    classify_wall, BannerClick, BannerFinding, DetectionSummary, DetectorOptions,
    ObservedEmbedding, Verdict,
};
use browser::{Browser, FetchError, FetchedDocument, Page};
use httpsim::{document_hash, Network, Region};
use langid::Language;
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Instant;
use store::Store;

/// One crawled site, as the measurement pipeline saw it (no ground truth).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrawlRecord {
    /// The crawled domain.
    pub domain: String,
    /// The site answered.
    pub reachable: bool,
    /// A banner of any kind was detected.
    pub banner: bool,
    /// The banner was classified as a cookiewall.
    pub cookiewall: bool,
    /// Structural embedding of the detected banner.
    #[serde(skip)]
    pub embedding: Option<ObservedEmbedding>,
    /// Extracted subscription price, EUR/month.
    pub monthly_eur: Option<f64>,
    /// Observed consent-infrastructure host (SMP/CMP CDN). Shared with
    /// the [`bannerclick::SiteAnalysis`] it came from: every record of one
    /// analyzed document, cache hits included, holds the same allocation.
    pub provider: Option<Arc<str>>,
    /// Detected page language (ISO 639-1), from page + banner text.
    pub language: Option<&'static str>,
    /// Navigation attempts spent on this record (1 = first try succeeded;
    /// 0 = skipped by an open circuit breaker). It never exceeds one more
    /// than [`MAX_RETRIES`], so it fits; the store codec still writes it
    /// as 4 bytes. Excluded from serialized reports: under concurrency the
    /// breaker may or may not fire first, so this is diagnostic, not part
    /// of the measurement.
    #[serde(skip)]
    pub attempts: u16,
    /// Why the crawl gave up, when it did. Excluded from the serialized
    /// record (the report-level [`FailureTaxonomy`] aggregates it) so the
    /// per-record JSON stays identical to a fault-free crawl.
    #[serde(skip)]
    pub failure: Option<FailureKind>,
}

impl CrawlRecord {
    /// Did the crawl abandon this target only after retrying (retries
    /// exhausted, or a circuit breaker skipped it)? First-attempt verdicts
    /// — clean success, 4xx, panic — are not "gave up".
    pub fn gave_up(&self) -> bool {
        self.failure.is_some() && self.attempts != 1
    }

    /// Did a retry rescue this record after at least one failed attempt?
    pub fn retried_ok(&self) -> bool {
        self.failure.is_none() && self.attempts > 1
    }
}

/// The failure classes of the crawl taxonomy, derived from
/// [`browser::FetchError`] plus the panic bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FailureKind {
    /// No server answered (dead origin) — or a circuit breaker, already
    /// open for the host, skipped the attempt.
    Unreachable,
    /// Connection reset mid-handshake or mid-response.
    ConnectionReset,
    /// Virtual transfer time exceeded the browser's timeout budget.
    Timeout,
    /// The origin answered 5xx for the top document.
    ServerError,
    /// The origin answered 4xx for the top document (not retried).
    ClientError,
    /// The top document body stopped mid-transfer.
    Truncated,
    /// The analysis pipeline panicked; the worker survived and recorded
    /// the casualty instead of tearing down the sweep.
    Panic,
}

impl FailureKind {
    fn from_error(err: &FetchError) -> Self {
        match err {
            FetchError::Unreachable(_) => FailureKind::Unreachable,
            FetchError::ConnectionReset(_) => FailureKind::ConnectionReset,
            FetchError::Timeout { .. } => FailureKind::Timeout,
            FetchError::Truncated(_) => FailureKind::Truncated,
            FetchError::HttpError(status) if *status >= 500 => FailureKind::ServerError,
            FetchError::HttpError(_) => FailureKind::ClientError,
        }
    }

    /// Stable lowercase label used in renders and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Unreachable => "unreachable",
            FailureKind::ConnectionReset => "connection-reset",
            FailureKind::Timeout => "timeout",
            FailureKind::ServerError => "server-error",
            FailureKind::ClientError => "client-error",
            FailureKind::Truncated => "truncated",
            FailureKind::Panic => "panic",
        }
    }
}

/// How the crawl reacts to transient failures: bounded retries with
/// exponential backoff in *virtual* time (no thread ever sleeps — the
/// simulated network has no real latency, so backoff is accounted, not
/// waited out), plus a per-host circuit breaker for dead origins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retries *and* the
    /// circuit breaker — single-shot crawls match the pre-resilience
    /// behaviour exactly). A budget above [`MAX_RETRIES`] retries only
    /// that often.
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff_ms << (n-1)` virtual ms.
    pub base_backoff_ms: u64,
    /// Unresolved-host give-ups on one registrable domain before the
    /// breaker opens and later attempts for that host are skipped.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 250,
            breaker_threshold: 1,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff charged before retrying after `failures` failed
    /// attempts (1-based), exponential with a cap against shift overflow.
    pub fn backoff_ms(&self, failures: u16) -> u64 {
        self.base_backoff_ms << failures.saturating_sub(1).min(10)
    }
}

/// The largest retry budget that takes effect: a record's
/// [`CrawlRecord::attempts`] then never exceeds `u16::MAX`.
pub const MAX_RETRIES: u32 = u16::MAX as u32 - 1;

/// Stripes of the domain-hash sharded fetch cache: two workers on
/// domains in different stripes never contend on a common mutex.
const STRIPES: usize = 16;

/// Per-host failure memory shared by all workers of a sweep.
///
/// The breaker only opens on *unresolved-host* exhaustion: name resolution
/// in the simulated network is region-independent, so one region proving a
/// host dead proves it dead for every region — skipping the remaining
/// `(region, host)` cells cannot change any record, only save attempts.
/// Injected faults (resets, 5xx, stalls) never open it; they are
/// region-scoped and must stay retryable everywhere.
struct CircuitBreaker {
    /// Give-ups needed to open; 0 disables the breaker entirely.
    threshold: u32,
    /// Give-up counts, keyed by registrable host.
    giveups: parking_lot::Mutex<HashMap<String, u32>>,
}

impl CircuitBreaker {
    fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold,
            giveups: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    fn is_open(&self, host_key: &str) -> bool {
        self.threshold > 0
            && self.giveups.lock().get(host_key).copied().unwrap_or(0) >= self.threshold
    }

    /// Record one unresolved-host give-up; true when this give-up is the
    /// one that opened the breaker (the caller counts opened hosts in its
    /// private [`WorkerCounters`]).
    fn record_unresolved_giveup(&self, host_key: &str) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut giveups = self.giveups.lock();
        let count = giveups.entry(host_key.to_string()).or_insert(0);
        *count += 1;
        *count == self.threshold
    }
}

/// Hot-path observations a worker keeps in plain private fields and the
/// scheduler merges exactly once at join — no shared atomic is bumped per
/// task. Merging is commutative and associative: any merge order yields
/// the same totals, which the metrics tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks completed (crawled or restored) by this worker.
    pub tasks: usize,
    /// Summed per-task busy time, microseconds.
    pub busy_us: u64,
    /// Tasks executed for a region other than the worker's home, indexed
    /// by [`Region::ALL`] position.
    pub stolen: Vec<usize>,
    /// Navigation retries spent.
    pub retries: u64,
    /// Exponential backoff charged across retries, virtual ms.
    pub backoff_virtual_ms: u64,
    /// Panics converted to failure records.
    pub panics: usize,
    /// Hosts whose circuit breaker this worker's give-up opened.
    pub breaker_opened: usize,
    /// `(region, host)` attempts skipped because a breaker was open.
    pub breaker_skips: usize,
}

impl WorkerCounters {
    /// Zeroed counters for a sweep over `n_regions` vantage points.
    pub fn new(n_regions: usize) -> Self {
        WorkerCounters {
            stolen: vec![0; n_regions],
            ..WorkerCounters::default()
        }
    }

    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerCounters) {
        self.tasks += other.tasks;
        self.busy_us += other.busy_us;
        if self.stolen.len() < other.stolen.len() {
            self.stolen.resize(other.stolen.len(), 0);
        }
        for (r, s) in other.stolen.iter().enumerate() {
            self.stolen[r] += s;
        }
        self.retries += other.retries;
        self.backoff_virtual_ms += other.backoff_virtual_ms;
        self.panics += other.panics;
        self.breaker_opened += other.breaker_opened;
        self.breaker_skips += other.breaker_skips;
    }
}

/// Failure counts for one vantage point, by taxonomy class.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RegionFailures {
    /// Region label ([`Region::label`]).
    pub region: String,
    /// Dead origins (including breaker skips).
    pub unreachable: usize,
    /// Connection resets that survived every retry.
    pub connection_reset: usize,
    /// Navigations that stalled past the timeout budget on every attempt.
    pub timeout: usize,
    /// Persistent 5xx answers.
    pub server_error: usize,
    /// Definitive 4xx answers (never retried).
    pub client_error: usize,
    /// Truncated top-document transfers.
    pub truncated: usize,
    /// Analysis panics converted to failure records.
    pub panic: usize,
    /// Records abandoned only after retrying (subset of the above).
    pub gave_up: usize,
    /// Records rescued by a retry after ≥1 failed attempt.
    pub retried_ok: usize,
}

impl RegionFailures {
    /// Total failed records for this region.
    pub fn total(&self) -> usize {
        self.unreachable
            + self.connection_reset
            + self.timeout
            + self.server_error
            + self.client_error
            + self.truncated
            + self.panic
    }
}

/// The §4-style failure taxonomy of a sweep: what the crawl could not
/// measure, and why, per vantage point. Deterministic for a fixed
/// population, fault seed, and retry budget.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FailureTaxonomy {
    /// Per-region counts, in [`Region::ALL`] order.
    pub per_region: Vec<RegionFailures>,
    /// Failed records across all regions.
    pub total_failures: usize,
    /// Records abandoned only after retrying, across all regions.
    pub gave_up: usize,
    /// Records rescued by retries, across all regions.
    pub retried_ok: usize,
}

impl FailureTaxonomy {
    /// Aggregate the taxonomy from finished vantage crawls.
    pub fn from_crawls(crawls: &[VantageCrawl]) -> Self {
        let mut per_region = Vec::with_capacity(crawls.len());
        for crawl in crawls {
            let mut rf = RegionFailures {
                region: crawl.region.label().to_string(),
                ..RegionFailures::default()
            };
            for record in &crawl.records {
                match record.failure {
                    Some(FailureKind::Unreachable) => rf.unreachable += 1,
                    Some(FailureKind::ConnectionReset) => rf.connection_reset += 1,
                    Some(FailureKind::Timeout) => rf.timeout += 1,
                    Some(FailureKind::ServerError) => rf.server_error += 1,
                    Some(FailureKind::ClientError) => rf.client_error += 1,
                    Some(FailureKind::Truncated) => rf.truncated += 1,
                    Some(FailureKind::Panic) => rf.panic += 1,
                    None => {}
                }
                if record.gave_up() {
                    rf.gave_up += 1;
                }
                if record.retried_ok() {
                    rf.retried_ok += 1;
                }
            }
            per_region.push(rf);
        }
        let total_failures = per_region.iter().map(RegionFailures::total).sum();
        let gave_up = per_region.iter().map(|r| r.gave_up).sum();
        let retried_ok = per_region.iter().map(|r| r.retried_ok).sum();
        FailureTaxonomy {
            per_region,
            total_failures,
            gave_up,
            retried_ok,
        }
    }

    /// True when nothing failed and no retry was ever needed.
    pub fn is_clean(&self) -> bool {
        self.total_failures == 0 && self.retried_ok == 0
    }

    /// Human-readable table, one region per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "failure taxonomy: {} failed records ({} gave up after retries), {} rescued by retries\n",
            self.total_failures, self.gave_up, self.retried_ok
        );
        for r in &self.per_region {
            out.push_str(&format!(
                "  {:<13} {:>3} failed (unreachable {}, reset {}, timeout {}, 5xx {}, 4xx {}, truncated {}, panic {}), {} rescued\n",
                r.region,
                r.total(),
                r.unreachable,
                r.connection_reset,
                r.timeout,
                r.server_error,
                r.client_error,
                r.truncated,
                r.panic,
                r.retried_ok,
            ));
        }
        out
    }
}

/// Scheduler observations for one vantage point.
#[derive(Debug, Clone, Default)]
pub struct RegionMetrics {
    /// Tasks crawled for this region.
    pub tasks: usize,
    /// Tasks executed by workers whose home region is elsewhere.
    pub stolen: usize,
    /// Milliseconds from sweep start until this region's last record.
    pub wall_ms: u64,
}

/// Scheduler observations for a whole multi-region sweep.
#[derive(Debug, Clone, Default)]
pub struct CrawlMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Whether the shared-fetch cache was enabled.
    pub cache_enabled: bool,
    /// Tasks completed across all regions.
    pub tasks_completed: usize,
    /// Tasks answered from the shared-fetch cache.
    pub cache_hits: usize,
    /// Tasks that did the full load + analysis.
    pub cache_misses: usize,
    /// Wall-clock for the whole sweep, milliseconds.
    pub wall_ms: u64,
    /// Summed per-task busy time across workers, microseconds.
    pub busy_us: u64,
    /// Per-region observations, in [`Region::ALL`] order.
    pub per_region: Vec<(Region, RegionMetrics)>,
    /// Navigation retries spent across the sweep.
    pub retries: u64,
    /// Exponential backoff charged across all retries, virtual ms.
    pub backoff_virtual_ms: u64,
    /// Worker panics converted to failure records.
    pub panics: usize,
    /// Hosts whose circuit breaker opened.
    pub breaker_open_hosts: usize,
    /// `(region, host)` attempts skipped by an open breaker.
    pub breaker_skips: usize,
    /// Requests that hit no registered host during the sweep
    /// ([`httpsim::NetworkStats::unresolved`] delta).
    pub unresolved_requests: u64,
    /// Failure taxonomy aggregated over every vantage point.
    pub failures: FailureTaxonomy,
}

impl CrawlMetrics {
    /// Busy time / available worker time: 1.0 means no worker ever idled.
    pub fn utilization(&self) -> f64 {
        let available = self.wall_ms as f64 * 1000.0 * self.workers.max(1) as f64;
        if available == 0.0 {
            return 0.0;
        }
        (self.busy_us as f64 / available).min(1.0)
    }

    /// Cache hits / tasks, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.tasks_completed == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.tasks_completed as f64
    }

    /// Human-readable summary, one region per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "crawl scheduler: {} tasks on {} workers in {} ms ({} utilization){}\n",
            self.tasks_completed,
            self.workers,
            self.wall_ms,
            format_args!("{:.0}%", self.utilization() * 100.0),
            if self.cache_enabled {
                format!(
                    ", shared-fetch cache {} hits / {} misses ({:.0}% hit rate)",
                    self.cache_hits,
                    self.cache_misses,
                    self.hit_rate() * 100.0
                )
            } else {
                ", cache disabled".to_string()
            }
        );
        for (region, m) in &self.per_region {
            out.push_str(&format!(
                "  {:<13} {} tasks ({} stolen) done at {} ms\n",
                region.label(),
                m.tasks,
                m.stolen,
                m.wall_ms
            ));
        }
        out.push_str(&format!(
            "resilience: {} retries ({} virtual ms backoff), {} unresolved requests, {} panics, breaker opened for {} hosts ({} skips)\n",
            self.retries,
            self.backoff_virtual_ms,
            self.unresolved_requests,
            self.panics,
            self.breaker_open_hosts,
            self.breaker_skips,
        ));
        if !self.failures.is_clean() {
            out.push_str(&self.failures.render());
        }
        out
    }
}

/// Configuration for a multi-region sweep.
#[derive(Debug, Clone)]
pub struct CrawlOptions {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Share fetch/parse/analysis results across vantage points that
    /// received byte-identical documents.
    pub cache: bool,
    /// Retry/backoff/circuit-breaker behaviour for failed navigations.
    pub retry: RetryPolicy,
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// One vantage point's crawl over the full target list.
#[derive(Debug)]
pub struct VantageCrawl {
    /// Where the crawl ran from.
    pub region: Region,
    /// Per-domain records, in target-list order.
    pub records: Vec<CrawlRecord>,
    /// Scheduler observations for this vantage point.
    pub metrics: RegionMetrics,
}

impl VantageCrawl {
    /// Records classified as cookiewalls.
    pub fn detected_walls(&self) -> impl Iterator<Item = &CrawlRecord> {
        self.records.iter().filter(|r| r.cookiewall)
    }

    /// Number of detected cookiewalls.
    pub fn wall_count(&self) -> usize {
        self.detected_walls().count()
    }
}

/// Sweep-wide resilience state: the policy and the shared breaker.
/// Resilience *counters* (retries, backoff, panics) live in each worker's
/// private [`WorkerCounters`], off the hot path.
struct Resilience<'a> {
    policy: &'a RetryPolicy,
    breaker: CircuitBreaker,
}

impl<'a> Resilience<'a> {
    fn new(policy: &'a RetryPolicy) -> Self {
        // With retries off the breaker must stay off too: it exists to cap
        // *retry* spend on dead hosts, and a single-shot crawl has none to
        // cap — opening it would only make records order-dependent.
        let threshold = if policy.max_retries == 0 {
            0
        } else {
            policy.breaker_threshold
        };
        Resilience {
            policy,
            breaker: CircuitBreaker::new(threshold),
        }
    }
}

/// Where a cell's navigations come from: the network, the vantage point,
/// and the user agent the browser presents (`None`: the default one).
#[derive(Clone, Copy)]
struct Vantage<'a> {
    net: &'a Network,
    region: Region,
    user_agent: Option<&'a str>,
}

impl<'a> Vantage<'a> {
    /// A fresh browser profile at this vantage point.
    fn browser(&self) -> Browser {
        let browser = Browser::new(self.net.clone(), self.region);
        match self.user_agent {
            Some(ua) => browser.with_user_agent(ua),
            None => browser,
        }
    }
}

/// The crawl's retry protocol for one cell, generic over what an attempt
/// does with its navigation: skip a host whose breaker is open, clear the
/// profile's cookies before every try, retry transient fetch failures
/// with virtual backoff, and convert a panic into a failure.
///
/// `browser_slot` is the worker's reusable profile for this vantage point;
/// it is discarded after a panic (the pipeline may have left it in an
/// arbitrary half-updated state) and lazily rebuilt on the next attempt.
///
/// Returns the attempt's value, or the failure class; either way with the
/// attempts spent (0 when an open breaker skipped the cell).
fn with_retries<T>(
    res: &Resilience<'_>,
    vantage: Vantage<'_>,
    browser_slot: &mut Option<Browser>,
    domain: &str,
    counters: &mut WorkerCounters,
    mut attempt: impl FnMut(&mut Browser) -> Result<T, FetchError>,
) -> Result<(T, u16), (FailureKind, u16)> {
    let host_key = httpsim::registrable_domain(domain).unwrap_or(domain);
    if res.breaker.is_open(host_key) {
        counters.breaker_skips += 1;
        return Err((FailureKind::Unreachable, 0));
    }
    let budget = res.policy.max_retries.min(MAX_RETRIES);
    let mut attempts: u16 = 0;
    loop {
        attempts += 1;
        let browser = browser_slot.get_or_insert_with(|| vantage.browser());
        browser.clear_cookies();
        match catch_unwind(AssertUnwindSafe(|| attempt(browser))) {
            Err(_) => {
                *browser_slot = None;
                counters.panics += 1;
                return Err((FailureKind::Panic, attempts));
            }
            Ok(Ok(value)) => return Ok((value, attempts)),
            Ok(Err(err)) => {
                if err.is_transient() && u32::from(attempts) <= budget {
                    counters.retries += 1;
                    counters.backoff_virtual_ms += res.policy.backoff_ms(attempts);
                    continue;
                }
                let kind = FailureKind::from_error(&err);
                if kind == FailureKind::Unreachable
                    && res.breaker.record_unresolved_giveup(host_key)
                {
                    counters.breaker_opened += 1;
                }
                return Err((kind, attempts));
            }
        }
    }
}

/// Crawl one `(region, domain)` cell to a record under the retry protocol.
fn crawl_one(
    res: &Resilience<'_>,
    vantage: Vantage<'_>,
    tool: &BannerClick,
    browser_slot: &mut Option<Browser>,
    domain: &str,
    cache: Option<&FetchCache>,
    counters: &mut WorkerCounters,
) -> CrawlRecord {
    let outcome = with_retries(res, vantage, browser_slot, domain, counters, |browser| {
        try_analyze_domain(tool, browser, domain, cache)
    });
    match outcome {
        Ok((mut record, attempts)) => {
            record.attempts = attempts;
            record
        }
        Err((kind, attempts)) => failure_record(domain, kind, attempts),
    }
}

/// Run `task` over a `lanes × n` matrix of cells on `workers` workers, and
/// return the cells lane by lane together with every worker's private
/// state, in worker order.
///
/// Worker `w` gets its home lane `w % lanes` and the state `init(home)`.
/// It claims its home lane's cells in order and, once that lane is
/// drained, steals from the following lanes round-robin. The calling
/// thread is worker 0, so a one-worker pass spawns no thread.
///
/// Results go into one `Vec<Option<T>>` per lane behind one lock per
/// lane, not a lock per cell: a worker holds it only to store a finished
/// cell, and two workers meet on it only while both work that lane. For a
/// `T` with a niche, such as [`CrawlRecord`], `Option<T>` is no larger
/// than `T`, so each lane comes back as a `Vec<T>` collected in place, in
/// the buffer it was written to, and the matrix is never held twice.
///
/// A task that returns `None` stops its worker: that cell, and every cell
/// no worker goes on to claim, stays empty, and the matrix comes back
/// `None`. A task that panics is not caught here. The other workers drain
/// the matrix, and then the panic resumes out of `par_matrix` with its
/// own payload, so it never becomes a cell; turning a panic into a failure
/// record is [`with_retries`]'s job.
pub(crate) fn par_matrix<S: Send, T: Send>(
    workers: usize,
    lanes: usize,
    n: usize,
    init: impl Fn(usize) -> S + Sync,
    task: impl Fn(&mut S, usize, usize) -> Option<T> + Sync,
) -> (Option<Vec<Vec<T>>>, Vec<S>) {
    let cursors: Vec<AtomicUsize> = (0..lanes).map(|_| AtomicUsize::new(0)).collect();
    let slots: Vec<parking_lot::Mutex<Vec<Option<T>>>> = (0..lanes)
        .map(|_| parking_lot::Mutex::new(std::iter::repeat_with(|| None).take(n).collect()))
        .collect();
    let claim = |home: usize| {
        (0..lanes).map(|k| (home + k) % lanes).find_map(|lane| {
            let i = cursors[lane].fetch_add(1, Ordering::Relaxed);
            (i < n).then_some((lane, i))
        })
    };
    let work = |w: usize| {
        let home = w % lanes;
        let mut state = init(home);
        while let Some((lane, i)) = claim(home) {
            let Some(out) = task(&mut state, lane, i) else {
                break;
            };
            slots[lane].lock()[i] = Some(out);
        }
        state
    };
    let states = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut states = vec![work(0)];
        for handle in spawned {
            states.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        states
    });
    let cells = slots
        .into_iter()
        .map(|lane| lane.into_inner().into_iter().collect())
        .collect();
    (cells, states)
}

/// Crawl `targets` from `region` with `workers` parallel browser profiles
/// and the retry `policy`: a one-region sweep with the shared-fetch cache
/// off.
///
/// Each domain is visited with a fresh cookie state (profiles are reused
/// across domains but cleared, like the paper's stateless crawl).
pub fn crawl_region_with(
    net: &Network,
    region: Region,
    targets: &[String],
    tool: &BannerClick,
    workers: usize,
    policy: &RetryPolicy,
) -> VantageCrawl {
    let opts = CrawlOptions {
        workers,
        cache: false,
        retry: policy.clone(),
    };
    // Without a store a sweep neither fails nor aborts, so the fallback is
    // never taken.
    let (crawls, _) = sweep(
        net,
        &[region],
        targets,
        tool,
        &opts,
        None,
        &FetchCache::new(false),
    )
    .unwrap_or_default();
    crawls
        .into_iter()
        .flatten()
        .next()
        .unwrap_or_else(|| VantageCrawl {
            region,
            records: Vec::new(),
            metrics: RegionMetrics::default(),
        })
}

/// One setting of a variant pass: the tool that detects and classifies,
/// and the user agent its browser presents (`None`: the default,
/// OpenWPM-style one).
pub(crate) struct Variant<'a> {
    pub(crate) tool: &'a BannerClick,
    pub(crate) user_agent: Option<&'a str>,
}

/// Crawl `targets` from `region` once per variant, in one pass: each cell
/// runs every variant, in order, before the worker claims the next cell.
/// A cell's [`Verdict`] is what all the re-crawling experiments count; a
/// failed cell's is all `false`, as its failure record would be.
///
/// Every variant dispatches its own navigation — on its own browser, under
/// `opts.retry` and its own circuit breaker — so origins observe exactly
/// the visits (and the fault plan the attempt ordinals) of one
/// [`crawl_region_with`] per variant. What a navigation fetched is then
/// answered, cheapest first:
///
/// 1. from `analyzed`, the finished sweep's cache: a document whose slot
///    holds a [`DetectionSummary`] gives the variant's verdict with no
///    load and no detection, sound by the cache's own rule (a
///    fresh-profile page is a function of its domain and document);
/// 2. with `opts.cache`, from the cell's memo: a document that hashes
///    like the one the cell's page was loaded from reuses that page, and
///    detection runs once per distinct [`DetectorOptions`] on it;
/// 3. by loading the page and detecting. Without `opts.cache` (and so
///    without `analyzed`) nothing is shared.
///
/// Language and provider are never computed, and no price is recorded.
///
/// Returns the verdicts indexed `[variant][cell]`, cells in target order.
pub(crate) fn crawl_variants(
    net: &Network,
    region: Region,
    targets: &[String],
    variants: &[Variant<'_>],
    opts: &CrawlOptions,
    analyzed: Option<&FetchCache>,
) -> Vec<Vec<Verdict>> {
    let resilience: Vec<Resilience<'_>> = variants
        .iter()
        .map(|_| Resilience::new(&opts.retry))
        .collect();
    let (cells, _) = par_matrix(
        opts.workers,
        1,
        targets.len(),
        |_| VariantWorker {
            browsers: variants.iter().map(|_| None).collect(),
            memo: CellMemo::default(),
            counters: WorkerCounters::new(1),
        },
        |worker, _, i| {
            worker.memo.clear();
            let domain = targets[i].as_str();
            let mut verdicts = Vec::with_capacity(variants.len());
            for ((variant, res), browser_slot) in
                variants.iter().zip(&resilience).zip(&mut worker.browsers)
            {
                if !opts.cache {
                    worker.memo.clear();
                }
                let vantage = Vantage {
                    net,
                    region,
                    user_agent: variant.user_agent,
                };
                let memo = &mut worker.memo;
                let outcome = with_retries(
                    res,
                    vantage,
                    browser_slot,
                    domain,
                    &mut worker.counters,
                    |b| {
                        let fetched = b.fetch_domain_document(domain)?;
                        let key = CacheKey::new(domain, &fetched);
                        let derived = analyzed
                            .and_then(|cache| cache.summary(key, domain))
                            .and_then(|summary| summary.verdict(variant.tool));
                        match derived {
                            Some(verdict) => Ok(verdict),
                            None => memo.verdict(variant.tool, b, &fetched, key.document),
                        }
                    },
                );
                verdicts.push(match outcome {
                    Ok((verdict, _)) => verdict,
                    Err((kind, _)) => {
                        if kind == FailureKind::Panic {
                            // The page may be half-way through detection.
                            worker.memo.clear();
                        }
                        Verdict::default()
                    }
                });
            }
            Some(verdicts)
        },
    );
    // A variant task never aborts, so the one lane is always whole.
    let cells = cells.into_iter().flatten().next().unwrap_or_default();
    (0..variants.len())
        .map(|v| cells.iter().map(|cell| cell[v]).collect())
        .collect()
}

/// A variant-pass worker's private state: one browser per variant, the
/// current cell's memo, and its counters.
struct VariantWorker {
    browsers: Vec<Option<Browser>>,
    memo: CellMemo,
    counters: WorkerCounters,
}

/// The current cell's loaded page, keyed by the [`document_hash`] of the
/// document it was loaded from, plus the first finding per detector
/// setting run on it. The shared-fetch cache's soundness rule applies: a
/// fresh-profile page is a pure function of its document, and detection
/// only reads the page (it takes `&Page`).
#[derive(Default)]
struct CellMemo {
    page: Option<(u64, Page)>,
    findings: Vec<(DetectorOptions, Option<BannerFinding>)>,
}

impl CellMemo {
    fn clear(&mut self) {
        self.page = None;
        self.findings.clear();
    }

    /// `tool`'s verdict on `fetched`, whose [`document_hash`] is `hash`,
    /// loading the page only when the memo holds none for this document,
    /// and detecting only under a detector setting not yet run on it.
    fn verdict(
        &mut self,
        tool: &BannerClick,
        browser: &mut Browser,
        fetched: &FetchedDocument,
        hash: u64,
    ) -> Result<Verdict, FetchError> {
        let page = match self.page.take() {
            Some((memo_hash, page)) if memo_hash == hash => page,
            _ => {
                self.findings.clear();
                browser.load_fetched(fetched)?
            }
        };
        let page = &self.page.insert((hash, page)).1;
        let k = match self.findings.iter().position(|(d, _)| *d == tool.detector) {
            Some(k) => k,
            None => {
                self.findings
                    .push((tool.detector.clone(), tool.detect(page)));
                self.findings.len() - 1
            }
        };
        let finding = &self.findings[k].1;
        Ok(Verdict {
            banner: finding.is_some(),
            cookiewall: finding
                .as_ref()
                .is_some_and(|b| classify_wall(&b.text, tool.corpus).is_cookiewall),
        })
    }
}

/// Crawl every region over the same target list (Table 1's measurement)
/// with the work-stealing scheduler.
///
/// The full `(region × domain)` matrix is one task pool: workers start on
/// their home region (assigned round-robin) and steal from other regions
/// once it drains. With `opts.cache`, analysis results are shared across
/// vantage points that received byte-identical documents; the navigation
/// request itself is always dispatched so origin servers observe every
/// visit either way.
pub fn crawl_all_regions_with(
    net: &Network,
    targets: &[String],
    tool: &BannerClick,
    opts: &CrawlOptions,
) -> (Vec<VantageCrawl>, CrawlMetrics) {
    crawl_all_regions_into(net, targets, tool, opts, &FetchCache::new(opts.cache))
}

/// [`crawl_all_regions_with`], leaving the analyzed documents in `cache`
/// for the study's variant passes.
pub(crate) fn crawl_all_regions_into(
    net: &Network,
    targets: &[String],
    tool: &BannerClick,
    opts: &CrawlOptions,
    cache: &FetchCache,
) -> (Vec<VantageCrawl>, CrawlMetrics) {
    // Without a store a sweep neither fails nor aborts, so neither default
    // is ever taken.
    let (crawls, metrics) =
        sweep(net, &Region::ALL, targets, tool, opts, None, cache).unwrap_or_default();
    (crawls.unwrap_or_default(), metrics)
}

/// Checkpoint/abort behaviour for a persistent sweep.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Flush buffered store writes to disk every N newly completed cells
    /// (per-put granularity; `0` flushes on every put).
    pub every: usize,
    /// Test hook: stop claiming work once N *new* (non-restored) cells
    /// have completed, leaving the buffered tail unflushed — simulating a
    /// kill at an arbitrary point. `Some(0)` aborts before any work.
    pub abort_after: Option<usize>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every: store::DEFAULT_CHECKPOINT_EVERY,
            abort_after: None,
        }
    }
}

/// [`crawl_all_regions_with`], persisting every completed cell into
/// `store` and restoring already-stored cells instead of recomputing them.
///
/// Returns `(None, metrics)` when the sweep aborted early via
/// [`CheckpointPolicy::abort_after`]; otherwise the crawls are complete,
/// the store holds every `(region, domain)` cell, and a final checkpoint
/// has flushed the journal.
///
/// ## Byte-identical resume
///
/// A resumed sweep must produce the same report as an uninterrupted one,
/// and reports depend on origin-side per-site visit counters (they seed
/// the per-visit cookie noise the measure phase consumes). A restored
/// *reachable* cell therefore replays exactly one successful navigation —
/// same retry loop, same fault schedule — so the origin observes the same
/// visit it observed in the interrupted run; the expensive load/parse/
/// analysis is skipped and the stored record reused. Restored *failure*
/// cells replay nothing: their attempts never produced a successful fetch,
/// and the deterministic fault plan would re-inject the same failures
/// before any attempt reached the origin.
pub fn crawl_all_regions_persistent(
    net: &Network,
    targets: &[String],
    tool: &BannerClick,
    opts: &CrawlOptions,
    store: &Store,
    policy: &CheckpointPolicy,
) -> std::io::Result<(Option<Vec<VantageCrawl>>, CrawlMetrics)> {
    sweep(
        net,
        &Region::ALL,
        targets,
        tool,
        opts,
        Some((store, policy)),
        &FetchCache::new(opts.cache),
    )
}

/// A sweep worker's private state: its home lane, one lazily built
/// browser per lane, its counters, and when it last finished a cell of
/// each lane (ms since the sweep started).
struct SweepWorker {
    home: usize,
    browsers: Vec<Option<Browser>>,
    counters: WorkerCounters,
    done_ms: Vec<u64>,
}

/// Crawl `targets` from every region in `regions`, one lane per region,
/// as one [`par_matrix`] pass, sharing analysis through `cache` (empty at
/// the start) when it is enabled.
///
/// With a store, a cell already stored is restored and replayed instead of
/// crawled, every crawled cell is put, the sweep stops once
/// [`CheckpointPolicy::abort_after`] new cells are done, and a sweep that
/// did not stop ends with a checkpoint. A lane's store region is its index
/// in `regions`, so only [`Region::ALL`] sweeps are stored.
///
/// Returns `None` for the crawls when the sweep aborted; the metrics count
/// the cells completed either way, and carry no per-region entries for an
/// aborted sweep.
pub(crate) fn sweep(
    net: &Network,
    regions: &[Region],
    targets: &[String],
    tool: &BannerClick,
    opts: &CrawlOptions,
    store: Option<(&Store, &CheckpointPolicy)>,
    cache: &FetchCache,
) -> std::io::Result<(Option<Vec<VantageCrawl>>, CrawlMetrics)> {
    let workers = opts.workers.max(1);
    let lanes = regions.len();
    #[allow(clippy::disallowed_methods, reason = "feeds CrawlMetrics only")]
    let start = Instant::now();
    let cache_ref = cache.analyzed();
    let res = Resilience::new(&opts.retry);
    let unresolved_before = net.stats().unresolved();
    let new_done = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    if let Some((store, policy)) = store {
        store.set_checkpoint_every(policy.every);
        aborted.store(policy.abort_after == Some(0), Ordering::Relaxed);
    }

    let (lanes_done, states) = par_matrix(
        workers,
        lanes,
        targets.len(),
        |home| SweepWorker {
            home,
            browsers: (0..lanes).map(|_| None).collect(),
            counters: WorkerCounters::new(lanes),
            done_ms: vec![0; lanes],
        },
        |worker, lane, i| {
            if aborted.load(Ordering::Relaxed) {
                return None;
            }
            #[allow(clippy::disallowed_methods, reason = "per-task timing is diagnostic")]
            let task_start = Instant::now();
            let domain = &targets[i];
            let vantage = Vantage {
                net,
                region: regions[lane],
                user_agent: None,
            };
            let profile = &mut worker.browsers[lane];
            let counters = &mut worker.counters;
            // A payload that fails to decode (codec version skew) degrades
            // to a recompute of that cell.
            let restored = store
                .and_then(|(store, _)| store.get(lane as u8, domain))
                .and_then(|bytes| crate::persist::decode_record(&bytes).ok())
                .filter(|rec| rec.domain == *domain);
            let record = match restored {
                Some(rec) => {
                    replay_restored(&res, vantage, profile, domain, &rec, cache_ref, counters);
                    rec
                }
                None => {
                    let rec = crawl_one(&res, vantage, tool, profile, domain, cache_ref, counters);
                    if let Some((store, policy)) = store {
                        // A failed put is a durability loss, not a
                        // correctness loss: the journal stays valid
                        // (open() truncates any torn tail) and resume
                        // simply recomputes the cell.
                        // lint:allow(r11) — per-cell put loss is recoverable by design: resume recomputes the cell
                        let _ = store.put(lane as u8, domain, &crate::persist::encode_record(&rec));
                        let done = new_done.fetch_add(1, Ordering::Relaxed) + 1;
                        if policy.abort_after.is_some_and(|limit| done >= limit) {
                            aborted.store(true, Ordering::Relaxed);
                        }
                    }
                    rec
                }
            };
            counters.tasks += 1;
            counters.busy_us += task_start.elapsed().as_micros() as u64;
            if lane != worker.home {
                counters.stolen[lane] += 1;
            }
            worker.done_ms[lane] = start.elapsed().as_millis() as u64;
            Some(record)
        },
    );

    // Single merge point: fold every worker's private counters (merge
    // commutes, so the order is immaterial). A region finished when the
    // last worker to finish one of its cells did.
    let mut merged = WorkerCounters::new(lanes);
    let mut region_wall_ms = vec![0; lanes];
    for worker in &states {
        merged.merge(&worker.counters);
        for (wall, &done) in region_wall_ms.iter_mut().zip(&worker.done_ms) {
            *wall = done.max(*wall);
        }
    }

    let crawls = lanes_done.filter(|_| !aborted.load(Ordering::Relaxed));
    if let (Some(_), Some((store, _))) = (&crawls, store) {
        // Durability point: every cell is in the store, flush the tail.
        // A failed flush is a real durability loss — unlike a single
        // failed put, the whole journal tail may be unsynced — so it
        // surfaces to the caller instead of being discarded.
        store.checkpoint()?;
    }
    let crawls: Option<Vec<VantageCrawl>> = crawls.map(|lanes_done| {
        lanes_done
            .into_iter()
            .enumerate()
            .map(|(lane, records)| VantageCrawl {
                region: regions[lane],
                records,
                metrics: RegionMetrics {
                    tasks: targets.len(),
                    stolen: merged.stolen[lane],
                    wall_ms: region_wall_ms[lane],
                },
            })
            .collect()
    });
    let finished = crawls.as_deref().unwrap_or_default();
    let metrics = CrawlMetrics {
        workers,
        cache_enabled: cache.enabled,
        tasks_completed: merged.tasks,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        wall_ms: start.elapsed().as_millis() as u64,
        busy_us: merged.busy_us,
        per_region: finished
            .iter()
            .map(|crawl| (crawl.region, crawl.metrics.clone()))
            .collect(),
        retries: merged.retries,
        backoff_virtual_ms: merged.backoff_virtual_ms,
        panics: merged.panics,
        breaker_open_hosts: merged.breaker_opened,
        breaker_skips: merged.breaker_skips,
        unresolved_requests: net.stats().unresolved().saturating_sub(unresolved_before),
        failures: FailureTaxonomy::from_crawls(finished),
    };
    Ok((crawls, metrics))
}

/// Re-drive the origin-visible side effects of a restored reachable cell:
/// one successful navigation under the same retry protocol [`crawl_one`]
/// uses, without the load/parse/analysis that the stored record already
/// holds. With the cache on, the restored record is seeded under the
/// fetched document's key so later vantage points hit it exactly as they
/// would have hit the computed record.
fn replay_restored(
    res: &Resilience<'_>,
    vantage: Vantage<'_>,
    browser_slot: &mut Option<Browser>,
    domain: &str,
    record: &CrawlRecord,
    cache: Option<&FetchCache>,
    counters: &mut WorkerCounters,
) {
    if !record.reachable {
        // Failure cells never completed a fetch: the origin saw no visit,
        // so there is nothing to replay.
        return;
    }
    let replayed = with_retries(res, vantage, browser_slot, domain, counters, |browser| {
        let fetched = browser.fetch_domain_document(domain)?;
        if let Some(cache) = cache {
            // A restored record fills a vacant or pending slot (waking
            // its waiters) and never waits.
            let key = CacheKey::new(domain, &fetched);
            cache
                .stripe(key)
                .fill(key, domain, Analyzed::restored(record));
        }
        Ok(())
    });
    // The original run fetched this cell successfully, so under the
    // deterministic fault plan the replay succeeds too; the stored record
    // stands either way.
    let _ = replayed;
}

/// Shared-fetch cache: `(domain hash, document hash)` → slot, split into
/// [`STRIPES`] stripes by the domain hash. A slot is either pending (a
/// worker is loading that document) or ready: it holds the analyzed
/// domain, which a hit checks against its own so a hash collision never
/// shares a record, and an [`Analyzed`] cell, not a [`CrawlRecord`]. A
/// hit builds its record from that cell with its own domain, so the
/// domain is all it allocates. The hit/miss tallies live inside each
/// stripe — bumped under the stripe lock the probe already holds — and
/// are summed only at read-out.
///
/// Misses are single-flight. The first worker to miss a key installs a
/// pending slot and leads: it loads, analyzes, and fills the slot, or, if
/// the attempt fails or panics, its [`Lead`] is dropped and clears the
/// slot. Either way the stripe's condvar wakes every worker waiting on
/// that stripe, and each re-probes: a filled slot is a hit, a cleared one
/// makes the first re-prober the new leader (a miss), and a slot still
/// pending — another key's wake-up, or a new leader — is waited on again.
/// A leader never waits while it leads, so every wait ends. Fault-free,
/// misses therefore equal the number of distinct keys at any worker
/// count.
pub(crate) struct FetchCache {
    enabled: bool,
    stripes: Vec<CacheStripe>,
}

/// A cache key: the domain's and the document's [`document_hash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    domain: u64,
    document: u64,
}

impl CacheKey {
    fn new(domain: &str, fetched: &FetchedDocument) -> Self {
        CacheKey {
            domain: document_hash(domain.as_bytes()),
            document: document_hash(fetched.body_bytes()),
        }
    }
}

/// One stripe of the shared-fetch cache.
#[derive(Default)]
struct CacheStripe {
    state: parking_lot::Mutex<StripeState>,
    /// Notified whenever a slot of this stripe is filled or cleared.
    settled: Condvar,
}

#[derive(Default)]
struct StripeState {
    slots: HashMap<CacheKey, Slot>,
    hits: usize,
    misses: usize,
}

enum Slot {
    /// A leader is loading and analyzing the document.
    Pending,
    /// The domain that was analyzed, and what its analysis found.
    Ready(Box<str>, Analyzed),
}

/// What a cache slot keeps of an analyzed document: the observations a
/// hit's record copies, and the [`DetectionSummary`] of the miss's one
/// detection (a restored record has none). The provider is shared and the
/// language is one byte, so a record built from it allocates only its
/// domain.
struct Analyzed {
    banner: bool,
    cookiewall: bool,
    embedding: Option<ObservedEmbedding>,
    language: Option<Language>,
    monthly_eur: Option<f64>,
    provider: Option<Arc<str>>,
    summary: Option<DetectionSummary>,
}

impl Analyzed {
    /// What one detection pass finds on `domain`'s loaded page.
    fn of_page(tool: &BannerClick, domain: &str, page: &Page) -> Analyzed {
        let (analysis, summary) = tool.analyze_summarized(domain, page);
        // Language identification over page prose plus banner copy —
        // the CLD3 step of §4.1.
        let mut text = page.main_text();
        if let Some(b) = &analysis.banner {
            text.push(' ');
            text.push_str(&b.text);
        }
        Analyzed {
            banner: analysis.banner_detected(),
            cookiewall: analysis.cookiewall_detected(),
            embedding: analysis.embedding(),
            language: langid::detect(&text).map(|d| d.language),
            monthly_eur: analysis.price().map(|p| p.monthly_eur),
            provider: analysis.provider,
            summary,
        }
    }

    /// The observations of a reachable record restored from a store.
    fn restored(record: &CrawlRecord) -> Analyzed {
        Analyzed {
            banner: record.banner,
            cookiewall: record.cookiewall,
            embedding: record.embedding,
            language: record.language.and_then(Language::from_code),
            monthly_eur: record.monthly_eur,
            provider: record.provider.clone(),
            summary: None,
        }
    }

    /// The record of `domain`'s cell, reached on the first attempt.
    fn record(&self, domain: &str) -> CrawlRecord {
        CrawlRecord {
            domain: domain.to_string(),
            reachable: true,
            banner: self.banner,
            cookiewall: self.cookiewall,
            embedding: self.embedding,
            monthly_eur: self.monthly_eur,
            provider: self.provider.clone(),
            language: self.language.map(Language::code),
            attempts: 1,
            failure: None,
        }
    }
}

/// What a settled cache probe decided for one cell.
enum Claim<'a> {
    /// Another cell of the same domain fetched the same document.
    Hit(CrawlRecord),
    /// A miss: the caller computes the record and fills the slot.
    Lead(Lead<'a>),
    /// The key holds another domain's record (a hash collision): a miss
    /// the caller computes without caching.
    Bypass,
}

/// A miss's leadership of its pending slot. [`Lead::fill`] publishes the
/// analysis; dropping it unfilled — a failed attempt, or an unwind through
/// the retry loop's `catch_unwind` — clears the slot for a waiter to take
/// over. Both wake the stripe's waiters.
struct Lead<'a> {
    stripe: &'a CacheStripe,
    key: CacheKey,
    filled: bool,
}

impl Lead<'_> {
    fn fill(mut self, domain: &str, cell: Analyzed) {
        self.stripe.fill(self.key, domain, cell);
        self.filled = true;
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        if !self.filled {
            self.stripe.clear_pending(self.key);
        }
    }
}

impl CacheStripe {
    /// One probe of `key` for `domain` under the stripe lock: `None` while
    /// another worker leads the key.
    fn probe<'a>(
        &'a self,
        state: &mut StripeState,
        key: CacheKey,
        domain: &str,
    ) -> Option<Claim<'a>> {
        match state.slots.get(&key) {
            Some(Slot::Pending) => None,
            Some(Slot::Ready(analyzed, cell)) if **analyzed == *domain => {
                state.hits += 1;
                Some(Claim::Hit(cell.record(domain)))
            }
            Some(Slot::Ready(..)) => {
                state.misses += 1;
                Some(Claim::Bypass)
            }
            None => {
                state.slots.insert(key, Slot::Pending);
                state.misses += 1;
                Some(Claim::Lead(Lead {
                    stripe: self,
                    key,
                    filled: false,
                }))
            }
        }
    }

    /// Fill `key`'s slot with `domain`'s analyzed `cell` unless it is
    /// already ready, and wake the waiters.
    fn fill(&self, key: CacheKey, domain: &str, cell: Analyzed) {
        let mut state = self.state.lock();
        let slot = state.slots.entry(key).or_insert(Slot::Pending);
        if matches!(slot, Slot::Pending) {
            *slot = Slot::Ready(domain.into(), cell);
        }
        drop(state);
        self.settled.notify_all();
    }

    /// Clear `key`'s slot if it is still pending, and wake the waiters.
    fn clear_pending(&self, key: CacheKey) {
        let mut state = self.state.lock();
        if matches!(state.slots.get(&key), Some(Slot::Pending)) {
            state.slots.remove(&key);
        }
        drop(state);
        self.settled.notify_all();
    }
}

impl FetchCache {
    pub(crate) fn new(enabled: bool) -> Self {
        FetchCache {
            enabled,
            stripes: (0..STRIPES).map(|_| CacheStripe::default()).collect(),
        }
    }

    /// This cache, when it is enabled.
    pub(crate) fn analyzed(&self) -> Option<&Self> {
        self.enabled.then_some(self)
    }

    /// The summary a miss stored with `domain`'s analysis under `key`,
    /// once that slot is filled.
    fn summary(&self, key: CacheKey, domain: &str) -> Option<DetectionSummary> {
        match self.stripe(key).state.lock().slots.get(&key) {
            Some(Slot::Ready(analyzed, cell)) if **analyzed == *domain => cell.summary,
            _ => None,
        }
    }

    fn stripe(&self, key: CacheKey) -> &CacheStripe {
        &self.stripes[(key.domain % STRIPES as u64) as usize]
    }

    /// Settle `domain`'s cell under `key`: a hit, a lead, or a bypass,
    /// waiting while another worker leads the same key.
    fn claim(&self, key: CacheKey, domain: &str) -> Claim<'_> {
        let stripe = self.stripe(key);
        let mut state = stripe.state.lock();
        loop {
            if let Some(claim) = stripe.probe(&mut state, key, domain) {
                return claim;
            }
            // The wait takes the guard, releases the lock while parked,
            // and hands it back re-acquired.
            state = stripe
                .settled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Cache hits across all stripes.
    fn hits(&self) -> usize {
        self.stripes.iter().map(|s| s.state.lock().hits).sum()
    }

    /// Cache misses across all stripes.
    fn misses(&self) -> usize {
        self.stripes.iter().map(|s| s.state.lock().misses).sum()
    }
}

/// Analyze a single domain into a crawl record (single attempt, failures
/// folded into the record — the retrying path is [`crawl_region_with`]).
// lint:allow(test-only-api) — oracle: `crawl_with_ua` in tests/recrawls.rs, the frozen reference crawl the derived re-crawls are checked against
pub fn analyze_domain(tool: &BannerClick, browser: &mut Browser, domain: &str) -> CrawlRecord {
    match try_analyze_domain(tool, browser, domain, None) {
        Ok(record) => record,
        Err(err) => failure_record(domain, FailureKind::from_error(&err), 1),
    }
}

/// One navigation + analysis attempt, with the typed fetch failure
/// surfaced so the retry loop can branch on transience.
///
/// The main document is always fetched, so the origin sees the navigation.
/// With a cache, the analysis of byte-identical content is then reused —
/// or awaited from the worker already computing it — and only a miss
/// completes the load and publishes its analysis.
fn try_analyze_domain(
    tool: &BannerClick,
    browser: &mut Browser,
    domain: &str,
    cache: Option<&FetchCache>,
) -> Result<CrawlRecord, FetchError> {
    let fetched = browser.fetch_domain_document(domain)?;
    let lead = match cache.map(|cache| cache.claim(CacheKey::new(domain, &fetched), domain)) {
        Some(Claim::Hit(record)) => return Ok(record),
        Some(Claim::Lead(lead)) => Some(lead),
        Some(Claim::Bypass) | None => None,
    };
    // A failure or panic from here on drops `lead`, clearing its slot.
    let page = browser.load_fetched(&fetched)?;
    let cell = Analyzed::of_page(tool, domain, &page);
    let record = cell.record(domain);
    if let Some(lead) = lead {
        lead.fill(domain, cell);
    }
    Ok(record)
}

fn failure_record(domain: &str, kind: FailureKind, attempts: u16) -> CrawlRecord {
    CrawlRecord {
        domain: domain.to_string(),
        reachable: false,
        banner: false,
        cookiewall: false,
        embedding: None,
        monthly_eur: None,
        provider: None,
        language: None,
        attempts,
        failure: Some(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webgen::{Population, PopulationConfig};

    fn install_tiny() -> (Arc<Population>, Network) {
        let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        (pop, net)
    }

    /// Render a record including the serde-skipped embedding and failure
    /// class, so equality checks really cover every observation — but not
    /// `attempts`, which legitimately differs between a serial sweep
    /// (retries exhausted per region) and the shared-breaker scheduler
    /// (later regions skip a proven-dead host).
    fn fingerprint(records: &[CrawlRecord]) -> String {
        records
            .iter()
            .map(|r| {
                format!(
                    "{} reachable={} banner={} wall={} embedding={:?} eur={:?} provider={:?} lang={:?} failure={:?}\n",
                    r.domain,
                    r.reachable,
                    r.banner,
                    r.cookiewall,
                    r.embedding,
                    r.monthly_eur,
                    r.provider,
                    r.language,
                    r.failure,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_crawl_matches_serial() {
        let (pop, net) = install_tiny();
        let targets: Vec<String> = pop.merged_targets().into_iter().take(60).collect();
        let tool = BannerClick::new();
        let serial = crawl_region_with(
            &net,
            Region::Germany,
            &targets,
            &tool,
            1,
            &RetryPolicy::default(),
        );
        let parallel = crawl_region_with(
            &net,
            Region::Germany,
            &targets,
            &tool,
            4,
            &RetryPolicy::default(),
        );
        assert_eq!(serial.records.len(), parallel.records.len());
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.cookiewall, b.cookiewall, "{}", a.domain);
            assert_eq!(a.banner, b.banner, "{}", a.domain);
        }
    }

    #[test]
    fn scheduler_matches_serial_for_all_regions() {
        let (pop, net) = install_tiny();
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let serial: Vec<VantageCrawl> = Region::ALL
            .iter()
            .map(|&region| {
                crawl_region_with(&net, region, &targets, &tool, 1, &RetryPolicy::default())
            })
            .collect();
        for cache in [true, false] {
            let opts = CrawlOptions {
                workers: 4,
                cache,
                ..CrawlOptions::default()
            };
            let (scheduled, metrics) = crawl_all_regions_with(&net, &targets, &tool, &opts);
            assert_eq!(scheduled.len(), Region::ALL.len());
            assert_eq!(metrics.tasks_completed, Region::ALL.len() * targets.len());
            for (s, p) in serial.iter().zip(&scheduled) {
                assert_eq!(s.region, p.region);
                assert_eq!(
                    fingerprint(&s.records),
                    fingerprint(&p.records),
                    "region {} must be byte-identical to the serial crawl (cache={cache})",
                    s.region.label()
                );
            }
            if cache {
                assert!(
                    metrics.cache_hits > 0,
                    "EU vantage points serve identical documents; hits expected"
                );
            } else {
                assert_eq!(metrics.cache_hits, 0);
                assert_eq!(metrics.cache_misses, 0);
            }
        }
    }

    #[test]
    fn scheduler_metrics_are_consistent() {
        let (pop, net) = install_tiny();
        let targets: Vec<String> = pop.merged_targets().into_iter().take(40).collect();
        let tool = BannerClick::new();
        let opts = CrawlOptions {
            workers: 3,
            cache: true,
            ..CrawlOptions::default()
        };
        let (crawls, metrics) = crawl_all_regions_with(&net, &targets, &tool, &opts);
        assert_eq!(metrics.workers, 3);
        assert_eq!(
            metrics.cache_hits + metrics.cache_misses,
            metrics.tasks_completed
        );
        assert_eq!(metrics.per_region.len(), Region::ALL.len());
        for (crawl, (region, m)) in crawls.iter().zip(&metrics.per_region) {
            assert_eq!(crawl.region, *region);
            assert_eq!(m.tasks, targets.len());
            assert_eq!(crawl.metrics.tasks, targets.len());
            assert!(m.wall_ms <= metrics.wall_ms);
        }
        let util = metrics.utilization();
        assert!((0.0..=1.0).contains(&util), "utilization {util}");
        assert!(metrics.hit_rate() > 0.0);
        assert!(metrics.render().contains("crawl scheduler"));
    }

    fn cached_cell() -> Analyzed {
        Analyzed {
            banner: true,
            cookiewall: false,
            embedding: None,
            language: Some(Language::German),
            monthly_eur: None,
            provider: Some(Arc::from("cmp.example")),
            summary: None,
        }
    }

    /// The leader of a key fails and drops its lead without a record; the
    /// waiter takes over as the new leader. Driven one probe at a time,
    /// for a waiter that found the slot pending and for one that arrives
    /// after the failure.
    #[test]
    fn failed_leader_hands_the_key_to_a_waiter_in_either_order() {
        let record = cached_cell().record("a.de");
        for waiter_arrives_first in [true, false] {
            let cache = FetchCache::new(true);
            let key = CacheKey {
                domain: document_hash(b"a.de"),
                document: 7,
            };
            let stripe = cache.stripe(key);
            let Claim::Lead(lead) = cache.claim(key, "a.de") else {
                panic!("the first probe of a vacant key leads");
            };
            if waiter_arrives_first {
                let pending = stripe.probe(&mut stripe.state.lock(), key, "a.de");
                assert!(pending.is_none(), "a pending slot makes the waiter wait");
            }
            drop(lead);
            let Claim::Lead(takeover) = cache.claim(key, "a.de") else {
                panic!("a cleared slot is led by the next prober");
            };
            assert_eq!((cache.hits(), cache.misses()), (0, 2));
            takeover.fill("a.de", cached_cell());
            let Claim::Hit(hit) = cache.claim(key, "a.de") else {
                panic!("a filled slot is a hit");
            };
            assert_eq!(hit, record);
            assert_eq!((cache.hits(), cache.misses()), (1, 2));
        }
    }

    /// The same hand-over with a real waiter parked on the condvar: the
    /// leader unwinds through `catch_unwind`, as a panicking analysis does
    /// in the retry loop, and the waiter leads. Either interleaving ends
    /// the same way.
    #[test]
    fn leader_unwind_wakes_a_waiter_to_lead() {
        let cache = FetchCache::new(true);
        let key = CacheKey {
            domain: document_hash(b"a.de"),
            document: 7,
        };
        std::thread::scope(|scope| {
            let Claim::Lead(lead) = cache.claim(key, "a.de") else {
                panic!("the first probe of a vacant key leads");
            };
            let waiter = scope.spawn(|| match cache.claim(key, "a.de") {
                Claim::Lead(takeover) => {
                    takeover.fill("a.de", cached_cell());
                    true
                }
                _ => false,
            });
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let _lead = lead;
                std::panic::resume_unwind(Box::new("analysis failed"));
            }));
            assert!(unwound.is_err());
            assert!(waiter.join().expect("waiter thread"), "the waiter leads");
        });
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(matches!(cache.claim(key, "a.de"), Claim::Hit(_)));
    }

    /// A restored record fills a pending slot without waiting; the
    /// leader's own fill, or its failure, leaves that record in place. A
    /// key holding another domain's record is a miss that bypasses it.
    #[test]
    fn restored_fill_settles_a_pending_slot_and_collisions_bypass() {
        let record = cached_cell().record("a.de");
        let cache = FetchCache::new(true);
        let key = CacheKey {
            domain: document_hash(b"a.de"),
            document: 7,
        };
        let Claim::Lead(lead) = cache.claim(key, "a.de") else {
            panic!("the first probe of a vacant key leads");
        };
        cache
            .stripe(key)
            .fill(key, "a.de", Analyzed::restored(&record));
        drop(lead);
        assert!(matches!(cache.claim(key, "a.de"), Claim::Hit(r) if r == record));
        assert!(matches!(cache.claim(key, "b.de"), Claim::Bypass));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// A panic outside `with_retries` is not caught by the pool: whether
    /// the calling worker (home lane 0) or the spawned one hits it, the
    /// panic leaves `par_matrix` with its own payload and is never a cell.
    #[test]
    fn a_task_panic_propagates_out_of_par_matrix() {
        for panicking_home in [0, 1] {
            // Both workers meet at their first cell, so each has one.
            let both_started = std::sync::Barrier::new(2);
            let run = catch_unwind(AssertUnwindSafe(|| {
                par_matrix(
                    2,
                    2,
                    32,
                    |home| (home, false),
                    |(home, met), _, i| {
                        if !std::mem::replace(met, true) {
                            both_started.wait();
                        }
                        if *home == panicking_home {
                            panic!("analysis bug");
                        }
                        Some(i)
                    },
                )
            }));
            let payload = run.expect_err("the panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"analysis bug"));
        }
    }

    /// A task that stops mid-lane leaves its cell and every cell no worker
    /// claims after it empty, so the matrix comes back `None`; the workers'
    /// states still come back.
    #[test]
    fn a_task_that_stops_mid_lane_empties_the_matrix() {
        for workers in [1, 2] {
            let (cells, states) = par_matrix(
                workers,
                2,
                16,
                |home| home,
                |_, lane, i| (lane != 1 || i != 5).then_some(i),
            );
            assert!(cells.is_none(), "{workers} workers");
            assert_eq!(states.len(), workers);
        }
    }

    /// The matrix is the same at 1, 2 and 4 workers over 3 lanes: at 2
    /// workers the third lane has no home worker and both steal from it,
    /// and at 4 workers two workers share lane 0 from the start.
    #[test]
    fn par_matrix_is_independent_of_the_worker_count() {
        let want: Vec<Vec<usize>> = (0..3)
            .map(|lane| (0..200).map(|i| lane * 1000 + i).collect())
            .collect();
        for workers in [1, 2, 4] {
            let (cells, states) = par_matrix(
                workers,
                3,
                200,
                |_| 0usize,
                |done, lane, i| {
                    *done += 1;
                    Some(lane * 1000 + i)
                },
            );
            assert_eq!(cells.as_ref(), Some(&want), "{workers} workers");
            assert_eq!(states.iter().sum::<usize>(), 600, "{workers} workers");
        }
    }

    /// A record is at most 80 bytes, and a matrix slot no larger.
    #[test]
    fn a_record_is_at_most_80_bytes() {
        assert!(std::mem::size_of::<CrawlRecord>() <= 80);
        assert_eq!(
            std::mem::size_of::<Option<CrawlRecord>>(),
            std::mem::size_of::<CrawlRecord>()
        );
    }

    /// A hit's record is the leader's, field for field, and shares the
    /// leader's provider allocation.
    #[test]
    fn a_hit_copies_the_leaders_record_and_shares_its_provider() {
        let (pop, net) = install_tiny();
        let tool = BannerClick::new();
        let cache = FetchCache::new(true);
        let vantage = Vantage {
            net: &net,
            region: Region::Germany,
            user_agent: None,
        };
        let visit = |domain: &str| {
            try_analyze_domain(&tool, &mut vantage.browser(), domain, Some(&cache))
                .expect("a fault-free fetch")
        };
        let (leader, hit) = pop
            .merged_targets()
            .iter()
            .find_map(|domain| {
                let leader = visit(domain);
                let hit = visit(domain);
                leader.provider.is_some().then_some((leader, hit))
            })
            .expect("tiny has a site with a provider");
        // Field for field: `PartialEq` covers the serde-skipped fields too.
        assert_eq!(hit, leader);
        let (Some(a), Some(b)) = (&leader.provider, &hit.provider) else {
            unreachable!("both records have a provider");
        };
        assert!(Arc::ptr_eq(a, b), "the hit shares the leader's provider");
        assert_eq!(cache.hits(), cache.misses());
    }

    /// Requests a profile that navigates and never loads dispatches for
    /// every `(variant, target)` cell from Germany.
    fn navigation_requests(net: &Network, targets: &[String], variants: &[Variant<'_>]) -> u64 {
        let before = net.stats().requests.load(Ordering::Relaxed);
        for variant in variants {
            let vantage = Vantage {
                net,
                region: Region::Germany,
                user_agent: variant.user_agent,
            };
            let mut browser = vantage.browser();
            for domain in targets {
                browser.clear_cookies();
                let _ = browser.fetch_domain_document(domain);
            }
        }
        net.stats().requests.load(Ordering::Relaxed) - before
    }

    /// Over documents the sweep analyzed, the ablation's and the bot
    /// detection's variant passes dispatch only their navigations: no
    /// subresource request and so no load, since every page references
    /// `/static/app.js`. Their verdicts are the loading passes'.
    #[test]
    fn variant_passes_over_analyzed_documents_only_navigate() {
        let (pop, net) = install_tiny();
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let opts = CrawlOptions {
            workers: 2,
            cache: true,
            ..CrawlOptions::default()
        };
        let cache = FetchCache::new(true);
        crawl_all_regions_into(&net, &targets, &tool, &opts, &cache);

        let configs = crate::experiments::ablation::configs();
        let ablation: Vec<Variant<'_>> = configs
            .iter()
            .map(|(_, tool)| Variant {
                tool,
                user_agent: None,
            })
            .collect();
        let bot = [
            Variant {
                tool: &tool,
                user_agent: None,
            },
            Variant {
                tool: &tool,
                user_agent: Some(crate::experiments::botdetect::NAIVE_BOT_UA),
            },
        ];
        // A bot-sensitive site serves the naive UA a page the sweep may
        // never have seen.
        let bot_targets: Vec<String> = targets
            .iter()
            .filter(|domain| pop.site(domain).is_some_and(|site| !site.bot_sensitive))
            .cloned()
            .collect();
        assert!(
            bot_targets.len() < targets.len(),
            "tiny has bot-sensitive sites"
        );
        for (variants, targets) in [(&ablation[..], &targets), (&bot[..], &bot_targets)] {
            let navigations = navigation_requests(&net, targets, variants);
            let before = net.stats().requests.load(Ordering::Relaxed);
            let derived = crawl_variants(
                &net,
                Region::Germany,
                targets,
                variants,
                &opts,
                cache.analyzed(),
            );
            assert_eq!(
                net.stats().requests.load(Ordering::Relaxed) - before,
                navigations
            );
            let before = net.stats().requests.load(Ordering::Relaxed);
            let loaded = crawl_variants(&net, Region::Germany, targets, variants, &opts, None);
            assert!(
                net.stats().requests.load(Ordering::Relaxed) - before > navigations,
                "loads fetch subresources"
            );
            assert_eq!(derived, loaded);
            assert!(derived[0].iter().any(|v| v.cookiewall), "walls are found");
        }
    }

    #[test]
    fn eu_sees_more_walls_than_non_eu() {
        let pop = Arc::new(Population::generate(PopulationConfig::small()));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let de = crawl_region_with(
            &net,
            Region::Germany,
            &targets,
            &tool,
            4,
            &RetryPolicy::default(),
        );
        let us = crawl_region_with(
            &net,
            Region::UsEast,
            &targets,
            &tool,
            4,
            &RetryPolicy::default(),
        );
        assert!(
            de.wall_count() > us.wall_count(),
            "DE {} vs US {}",
            de.wall_count(),
            us.wall_count()
        );
    }
}
