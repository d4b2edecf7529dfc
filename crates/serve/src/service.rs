//! The query service proper: two epoch slots, an answer path that never
//! blocks readers behind the ingest, and a per-class latency ledger.

use crate::clock::{cost_micros, SimClock};
use analysis::query::{self, Query};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, PoisonError};
use store::StoreSnapshot;

/// One served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The query's class label.
    pub class: &'static str,
    /// The deterministic single-line answer.
    pub text: String,
    /// What the answer cost on the simulated clock, in microseconds.
    pub sim_micros: u64,
    /// Whether the answer was read from the second epoch — recorded so
    /// a verifier knows which sealed view to re-evaluate against.
    pub from_second_epoch: bool,
}

/// The always-on query service. Readers share it behind an `Arc`; the
/// ingest thread installs the second epoch with
/// [`QueryService::install_second_epoch`] once its store seals.
///
/// Answering never holds a lock across evaluation: the epoch slot is a
/// `Mutex<Option<Arc<StoreSnapshot>>>` that is locked only long enough
/// to clone the `Arc`, so a reader mid-scan never blocks the installer
/// or other readers. A diff reader that arrives before the install
/// sleeps on `installed`, which the install notifies.
pub struct QueryService {
    epoch_a: Arc<StoreSnapshot>,
    epoch_b: Mutex<Option<Arc<StoreSnapshot>>>,
    installed: Condvar,
    /// Whether a second epoch is expected to arrive: diffs wait for it
    /// when true, and degrade to a deterministic error line when false.
    expect_second: bool,
    clock: SimClock,
    ledger: Mutex<LatencyLedger>,
}

impl QueryService {
    /// A service over one sealed epoch. `expect_second` declares whether
    /// an ingest will later install a second epoch — it decides whether
    /// diff queries wait or answer `second-epoch-unavailable`.
    pub fn new(epoch_a: Arc<StoreSnapshot>, expect_second: bool) -> QueryService {
        QueryService {
            epoch_a,
            epoch_b: Mutex::new(None),
            installed: Condvar::new(),
            expect_second,
            clock: SimClock::new(),
            ledger: Mutex::new(LatencyLedger::new()),
        }
    }

    /// A service that starts with both epochs sealed and installed.
    pub fn with_epochs(epoch_a: Arc<StoreSnapshot>, epoch_b: Arc<StoreSnapshot>) -> QueryService {
        let service = QueryService::new(epoch_a, true);
        service.install_second_epoch(epoch_b);
        service
    }

    /// Install (or replace) the second epoch and wake every diff reader
    /// waiting for it. Readers pick it up on their next query; a reader
    /// mid-answer keeps the view it cloned.
    pub fn install_second_epoch(&self, epoch: Arc<StoreSnapshot>) {
        *self.epoch_b.lock() = Some(epoch);
        self.installed.notify_all();
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Answer one query. Point/scan classes read the newest installed
    /// epoch; diffs compare the first epoch against the second, waiting
    /// for the ingest to seal it when one is expected.
    pub fn answer(&self, query: &Query) -> Response {
        let class = query.class();
        let (answer, from_second) = match query {
            Query::EpochDiff => match self.wait_for_second_epoch() {
                Some(after) => (
                    query::evaluate(query, after.as_ref(), Some(self.epoch_a.as_ref())),
                    true,
                ),
                None => (
                    query::evaluate(query, self.epoch_a.as_ref(), None::<&StoreSnapshot>),
                    false,
                ),
            },
            _ => {
                let (snapshot, from_second) = self.newest_epoch();
                (
                    query::evaluate(query, snapshot.as_ref(), None::<&StoreSnapshot>),
                    from_second,
                )
            }
        };
        let sim_micros = cost_micros(class, answer.cells_scanned);
        self.clock.advance(sim_micros);
        self.ledger.lock().record(class, sim_micros);
        Response {
            class,
            text: answer.text,
            sim_micros,
            from_second_epoch: from_second,
        }
    }

    /// Snapshot of the latency ledger so far.
    pub fn ledger(&self) -> LatencyLedger {
        self.ledger.lock().clone()
    }

    fn newest_epoch(&self) -> (Arc<StoreSnapshot>, bool) {
        let second = { self.epoch_b.lock().clone() };
        match second {
            Some(snapshot) => (snapshot, true),
            None => (Arc::clone(&self.epoch_a), false),
        }
    }

    /// Wait for the ingest to install the second epoch (when one is
    /// expected). The wait releases the slot's lock, so waiting diff
    /// readers never block the installer, and the install's notify
    /// wakes them: no reader polls.
    fn wait_for_second_epoch(&self) -> Option<Arc<StoreSnapshot>> {
        let slot = self.epoch_b.lock();
        let slot = if self.expect_second {
            (self.installed)
                .wait_while(slot, |slot| slot.is_none())
                .unwrap_or_else(PoisonError::into_inner)
        } else {
            slot
        };
        slot.clone()
    }
}

/// Per-class simulated latencies of every answered query.
#[derive(Debug, Clone, Default)]
pub struct LatencyLedger {
    // lint:allow(r10) — keyed by request class — a small closed set — so growth is bounded regardless of crawl size
    samples: BTreeMap<&'static str, Vec<u64>>,
}

/// Percentile summary of one query class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSummary {
    /// Query class label.
    pub class: &'static str,
    /// Answers recorded.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
}

impl LatencyLedger {
    /// An empty ledger.
    pub fn new() -> LatencyLedger {
        LatencyLedger::default()
    }

    /// Record one answer's latency.
    pub fn record(&mut self, class: &'static str, micros: u64) {
        self.samples.entry(class).or_default().push(micros);
    }

    /// Total answers recorded across classes.
    pub fn total(&self) -> usize {
        self.samples.values().map(|v| v.len()).sum()
    }

    /// Per-class percentile summaries, in class-label order.
    pub fn summaries(&self) -> Vec<ClassSummary> {
        self.samples
            .iter()
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(class, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                ClassSummary {
                    class,
                    count: sorted.len(),
                    p50_micros: percentile(&sorted, 50),
                    p99_micros: percentile(&sorted, 99),
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile over an already-sorted sample set.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() as u64 * p).div_ceil(100).max(1) - 1;
    sorted[idx as usize]
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]
mod tests {
    use super::*;
    use analysis::crawl::CrawlRecord;
    use analysis::persist::encode_record;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use store::Store;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cookiewall-serve-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(domain: &str, wall: bool) -> Vec<u8> {
        encode_record(&CrawlRecord {
            domain: domain.to_string(),
            reachable: true,
            banner: wall,
            cookiewall: wall,
            embedding: None,
            monthly_eur: wall.then_some(3.49),
            provider: None,
            language: Some("en"),
            attempts: 1,
            failure: None,
        })
    }

    fn sealed_snapshot(dir: &std::path::Path, walls: usize) -> Arc<StoreSnapshot> {
        let store = Store::create(dir, 2, &[]).unwrap();
        for i in 0..4 {
            let domain = format!("site-{i}.example");
            store.put(0, &domain, &record(&domain, i < walls)).unwrap();
        }
        store.checkpoint().unwrap();
        Arc::new(StoreSnapshot::open(dir).unwrap())
    }

    #[test]
    fn answers_are_deterministic_and_ledgered() {
        let dir = tempdir("answers");
        let snap = sealed_snapshot(&dir, 2);
        let service = QueryService::new(Arc::clone(&snap), false);
        let q = Query::Prevalence { region: 0 };
        let first = service.answer(&q);
        let second = service.answer(&q);
        assert_eq!(first.text, second.text);
        assert!(!first.from_second_epoch);
        assert_eq!(first.sim_micros, second.sim_micros);
        assert_eq!(service.ledger().total(), 2);
        let summary = &service.ledger().summaries()[0];
        assert_eq!(summary.class, "prevalence");
        assert_eq!(summary.p50_micros, summary.p99_micros);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_degrades_without_a_second_epoch_and_uses_one_when_installed() {
        let dir_a = tempdir("epoch-a");
        let dir_b = tempdir("epoch-b");
        let a = sealed_snapshot(&dir_a, 1);
        let b = sealed_snapshot(&dir_b, 3);
        let service = QueryService::new(Arc::clone(&a), false);
        let degraded = service.answer(&Query::EpochDiff);
        assert_eq!(degraded.text, "diff error=second-epoch-unavailable");
        service.install_second_epoch(Arc::clone(&b));
        let diffed = service.answer(&Query::EpochDiff);
        assert!(diffed.from_second_epoch);
        assert!(diffed.text.contains("appeared=2"), "{}", diffed.text);
        // Non-diff queries now read the newest epoch.
        let status = service.answer(&Query::WallStatus {
            region: 0,
            domain: "site-2.example".into(),
        });
        assert!(status.from_second_epoch);
        assert!(status.text.contains("outcome=wall"), "{}", status.text);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// A diff reader started before the install answers from the second
    /// epoch: it blocks on the condvar until the install wakes it.
    #[test]
    fn a_waiting_diff_reader_gets_the_second_epoch_once_installed() {
        let dir_a = tempdir("wait-a");
        let dir_b = tempdir("wait-b");
        let a = sealed_snapshot(&dir_a, 1);
        let b = sealed_snapshot(&dir_b, 3);
        let service = QueryService::new(Arc::clone(&a), true);
        let expected =
            QueryService::with_epochs(Arc::clone(&a), Arc::clone(&b)).answer(&Query::EpochDiff);
        let diffed = std::thread::scope(|s| {
            let reader = s.spawn(|| service.answer(&Query::EpochDiff));
            // Whether the reader already waits or has not yet looked when
            // the install lands, it answers from the second epoch: no
            // timing decides the outcome.
            service.install_second_epoch(Arc::clone(&b));
            reader.join().expect("diff reader")
        });
        assert!(diffed.from_second_epoch);
        assert_eq!(diffed.text, expected.text);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// With no second epoch expected, a diff answers at once: the test
    /// thread would hang here if it waited.
    #[test]
    fn an_unexpected_second_epoch_answers_unavailable_without_blocking() {
        let dir = tempdir("unexpected");
        let service = QueryService::new(sealed_snapshot(&dir, 2), false);
        let answered = service.answer(&Query::EpochDiff);
        assert_eq!(answered.text, "diff error=second-epoch-unavailable");
        assert!(!answered.from_second_epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut ledger = LatencyLedger::new();
        for v in [10u64, 20, 30, 40, 50] {
            ledger.record("wall-status", v);
        }
        let s = &ledger.summaries()[0];
        assert_eq!((s.p50_micros, s.p99_micros), (30, 50));
        ledger.record("diff", 7);
        assert_eq!(ledger.total(), 6);
    }
}
