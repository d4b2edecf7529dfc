//! Property: over arbitrary interleavings of puts, checkpoints, aborts
//! (drop without flushing) and reopens on a small `(region × domain)`
//! matrix, journal replay is exactly-once — a reopened store holds every
//! task that was checkpointed, none that was not, each exactly once with
//! its original payload. A second property reads every cell and walks
//! every region after every step — through domains stored in several
//! regions and skipped by others, failed flushes, aborts, reopens, seals
//! and fsck quarantines — and compares them with a model, the sealed
//! view after each checkpoint included. The torture tests below
//! hammer concurrent `put`s against cadence flushes that may find another
//! writer mid-append.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use store::{fsck, MemBackend, StorageBackend, Store, StoreRead, StoreSnapshot};

const REGIONS: u8 = 3;
const DOMAINS: [&str; 12] = [
    "alpha.example",
    "beta.example",
    "gamma.example",
    "delta.example",
    "epsilon.example",
    "zeta.example",
    "eta.example",
    "theta.example",
    "iota.example",
    "kappa.example",
    "lambda.example",
    "mu.example",
];

/// One scripted step against the store.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store the result for cell (region, domain index).
    Put(u8, usize),
    /// Flush everything buffered to disk.
    Checkpoint,
    /// Kill the process mid-run: drop without flushing, reopen.
    AbortAndReopen,
    /// Clean restart: flush, drop, reopen.
    CheckpointAndReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0u8..REGIONS, 0usize..DOMAINS.len()).prop_map(|(kind, r, d)| match kind {
        0..6 => Op::Put(r, d),
        6 | 7 => Op::Checkpoint,
        8 => Op::AbortAndReopen,
        _ => Op::CheckpointAndReopen,
    })
}

fn payload(region: u8, domain: &str) -> Vec<u8> {
    format!("result for {domain} from region {region}").into_bytes()
}

fn tempdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "cookiewall-store-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    fn journal_replay_is_exactly_once(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let dir = tempdir();
        let _ = std::fs::remove_dir_all(&dir);
        let mut live = Store::create(&dir, REGIONS as usize, &[]).unwrap();

        // Model state: what a correct store must contain after each reopen.
        let mut durable: BTreeSet<(u8, usize)> = BTreeSet::new(); // checkpointed
        let mut buffered: BTreeSet<(u8, usize)> = BTreeSet::new(); // put, not yet flushed
        let mut ever_put: BTreeSet<(u8, usize)> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Put(r, d) => {
                    let fresh = live.put(r, DOMAINS[d], &payload(r, DOMAINS[d])).unwrap();
                    // Exactly-once at the API: a second put of a live key
                    // is refused, a genuinely new key is accepted.
                    let expected_fresh = !durable.contains(&(r, d)) && !buffered.contains(&(r, d));
                    prop_assert_eq!(fresh, expected_fresh, "put ({}, {})", r, d);
                    buffered.insert((r, d));
                    ever_put.insert((r, d));
                }
                Op::Checkpoint => {
                    live.checkpoint().unwrap();
                    durable.append(&mut buffered);
                }
                Op::AbortAndReopen => {
                    drop(live); // buffered tail dies with the process
                    buffered.clear();
                    live = Store::open(&dir).unwrap();
                }
                Op::CheckpointAndReopen => {
                    live.checkpoint().unwrap();
                    durable.append(&mut buffered);
                    drop(live);
                    live = Store::open(&dir).unwrap();
                }
            }
        }

        // Final verdict after one more clean restart.
        live.checkpoint().unwrap();
        durable.append(&mut buffered);
        drop(live);
        let reopened = Store::open(&dir).unwrap();

        prop_assert_eq!(reopened.len(), durable.len(), "no task lost or duplicated");
        for &(r, d) in &durable {
            prop_assert_eq!(
                reopened.get(r, DOMAINS[d]),
                Some(payload(r, DOMAINS[d])),
                "payload of ({}, {}) survives verbatim",
                r,
                d
            );
        }
        let region_domains = |r: u8| {
            let mut domains = Vec::new();
            reopened.for_each_region_entry(r, &mut |domain, _| domains.push(domain.to_string()));
            domains
        };
        for r in 0..REGIONS {
            let entries = region_domains(r);
            let expected: Vec<&str> = {
                let mut v: Vec<&str> = durable
                    .iter()
                    .filter(|(pr, _)| *pr == r)
                    .map(|&(_, d)| DOMAINS[d])
                    .collect();
                v.sort_unstable();
                v
            };
            let got: Vec<&str> = entries.iter().map(String::as_str).collect();
            prop_assert_eq!(got, expected, "region {} entry set", r);
        }
        // Tasks that were put but never checkpointed before an abort may
        // legitimately be absent — but nothing outside ever_put may appear.
        for r in 0..REGIONS {
            for domain in region_domains(r) {
                let d = DOMAINS.iter().position(|&x| x == domain).unwrap();
                prop_assert!(ever_put.contains(&(r, d)), "phantom task ({}, {})", r, domain);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One scripted step of the read-back property.
#[derive(Debug, Clone, Copy)]
enum ReadOp {
    Put(u8, usize),
    /// Put one domain in every region but one.
    PutAcross(usize, u8),
    Checkpoint,
    /// A checkpoint whose appends fail with ENOSPC: nothing lands, every
    /// payload stays queued.
    FailedCheckpoint,
    /// Drop without flushing, reopen.
    AbortAndReopen,
    /// Checkpoint, drop, reopen.
    CheckpointAndReopen,
    /// Checkpoint, drop, flip a byte of the cell's durable payload, fsck
    /// (which quarantines it) and reopen.
    Quarantine(u8, usize),
}

fn read_op_strategy() -> impl Strategy<Value = ReadOp> {
    (0u32..14, 0u8..REGIONS, 0usize..DOMAINS.len()).prop_map(|(kind, r, d)| match kind {
        0..5 => ReadOp::Put(r, d),
        5 | 6 => ReadOp::PutAcross(d, r),
        7 | 8 => ReadOp::Checkpoint,
        9 => ReadOp::FailedCheckpoint,
        10 => ReadOp::AbortAndReopen,
        11 => ReadOp::CheckpointAndReopen,
        _ => ReadOp::Quarantine(r, d),
    })
}

/// An in-memory disk whose appends fail with ENOSPC while armed.
#[derive(Default)]
struct Flaky {
    mem: MemBackend,
    full: AtomicBool,
}

impl StorageBackend for Flaky {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.mem.read_file(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.mem.read_range(path, offset, len)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.mem.write_file(path, bytes)
    }
    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.full.load(Ordering::Relaxed) {
            return Err(io::Error::other("no space left on device (test)"));
        }
        self.mem.append_file(path, bytes)
    }
    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        self.mem.truncate_file(path, len)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.mem.sync_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.mem.create_dir_all(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.mem.file_exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.mem.rename(from, to)
    }
}

/// Every `(domain, payload)` of each region, in domain order.
fn walks(store: &dyn StoreRead) -> Vec<Vec<(String, Vec<u8>)>> {
    (0..REGIONS)
        .map(|r| {
            let mut cells = Vec::new();
            store.for_each_region_entry(r, &mut |d, p| cells.push((d.to_string(), p.to_vec())));
            cells
        })
        .collect()
}

/// What [`walks`] must return for the cells of `model`.
fn model_walks(model: &BTreeMap<(u8, usize), Vec<u8>>) -> Vec<Vec<(String, Vec<u8>)>> {
    (0..REGIONS)
        .map(|r| {
            let mut cells: Vec<(String, Vec<u8>)> = model
                .iter()
                .filter(|((region, _), _)| *region == r)
                .map(|(&(_, d), payload)| (DOMAINS[d].to_string(), payload.clone()))
                .collect();
            cells.sort();
            cells
        })
        .collect()
}

proptest! {
    fn every_get_matches_the_model(ops in prop::collection::vec(read_op_strategy(), 1..40)) {
        let dir = PathBuf::from("/mem/store");
        let disk = Arc::new(Flaky::default());
        let open = || Store::open_with(&dir, disk.clone()).unwrap();
        let mut live = Store::create_with(&dir, REGIONS as usize, &[], disk.clone()).unwrap();
        live.set_checkpoint_every(usize::MAX);
        // What `get` must return now, and what survives an abort.
        let mut model: BTreeMap<(u8, usize), Vec<u8>> = BTreeMap::new();
        let mut durable = model.clone();
        let mut takes = 0;
        let mut put = |live: &Store, model: &mut BTreeMap<(u8, usize), Vec<u8>>, r: u8, d: usize| {
            takes += 1;
            let payload = format!("<{} in {r}, take {takes}>", DOMAINS[d]).into_bytes();
            let fresh = !model.contains_key(&(r, d));
            prop_assert_eq!(live.put(r, DOMAINS[d], &payload).unwrap(), fresh);
            model.entry((r, d)).or_insert(payload);
            Ok(())
        };
        for op in ops {
            let mut sealed = false;
            match op {
                ReadOp::Put(r, d) => put(&live, &mut model, r, d)?,
                ReadOp::PutAcross(d, skip) => {
                    for r in (0..REGIONS).filter(|&r| r != skip) {
                        put(&live, &mut model, r, d)?;
                    }
                }
                ReadOp::Checkpoint => {
                    live.checkpoint().unwrap();
                    durable = model.clone();
                    sealed = true;
                }
                ReadOp::FailedCheckpoint => {
                    disk.full.store(true, Ordering::Relaxed);
                    let failed = live.checkpoint().is_err();
                    disk.full.store(false, Ordering::Relaxed);
                    prop_assert_eq!(failed, model != durable, "only a flush with work fails");
                }
                ReadOp::AbortAndReopen => {
                    drop(live);
                    live = open();
                    model = durable.clone();
                }
                ReadOp::CheckpointAndReopen => {
                    live.checkpoint().unwrap();
                    drop(live);
                    live = open();
                    durable = model.clone();
                    sealed = true;
                }
                ReadOp::Quarantine(r, d) => {
                    live.checkpoint().unwrap();
                    drop(live);
                    if let Some(payload) = model.remove(&(r, d)) {
                        let shard = dir.join("shards").join(format!("shard-{r}.bin"));
                        let mut bytes = disk.read_file(&shard).unwrap();
                        let at = bytes
                            .windows(payload.len())
                            .rposition(|w| w == payload)
                            .unwrap();
                        bytes[at + 1] ^= 0x20;
                        disk.write_file(&shard, &bytes).unwrap();
                        let report = fsck(&dir, disk.as_ref(), false).unwrap();
                        prop_assert_eq!(report.quarantined.len(), 1);
                    }
                    live = open();
                    durable = model.clone();
                }
            }
            live.set_checkpoint_every(usize::MAX);
            for r in 0..REGIONS {
                for (d, domain) in DOMAINS.iter().enumerate() {
                    prop_assert_eq!(
                        live.get(r, domain),
                        model.get(&(r, d)).cloned(),
                        "({}, {}) after {:?}", r, domain, op
                    );
                }
            }
            prop_assert_eq!(live.len(), model.len());
            let want = model_walks(&model);
            prop_assert_eq!(walks(&live), want.clone(), "region walks after {:?}", op);
            for (r, cells) in (0..REGIONS).zip(&want) {
                prop_assert_eq!(live.region_len(r), cells.len());
            }
            if sealed {
                let snapshot = StoreSnapshot::open_with(&dir, disk.clone()).unwrap();
                prop_assert_eq!(walks(&snapshot), want, "sealed view after {:?}", op);
            }
        }
    }
}

/// Every thread races to put every `(region, domain)` cell while the
/// small auto-checkpoint cadence keeps flushes in flight:
/// exactly one racer must win each cell, and the journal must replay the
/// complete matrix after a clean shutdown.
#[test]
fn concurrent_puts_are_exactly_once() {
    let dir = tempdir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, REGIONS as usize, &[]).unwrap();
    store.set_checkpoint_every(5);
    let accepted = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let store = &store;
            let accepted = &accepted;
            scope.spawn(move || {
                for r in 0..REGIONS {
                    for domain in DOMAINS {
                        if store.put(r, domain, &payload(r, domain)).unwrap() {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let total = REGIONS as usize * DOMAINS.len();
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        total,
        "each cell accepted exactly once across 8 racing threads"
    );
    store.checkpoint().unwrap();
    drop(store);

    let reopened = Store::open(&dir).unwrap();
    assert_eq!(reopened.len(), total);
    for r in 0..REGIONS {
        for domain in DOMAINS {
            assert_eq!(
                reopened.get(r, domain),
                Some(payload(r, domain)),
                "payload of ({r}, {domain}) survives verbatim"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Concurrent putters race explicit checkpoints from a flusher thread,
/// then the process "dies" (drop without a final checkpoint). The journal
/// must replay a valid prefix — no phantoms, no duplicates, payloads
/// verbatim — and re-putting the missing tail must be accepted exactly
/// once per lost cell.
#[test]
fn concurrent_puts_with_abort_replay_a_valid_journal() {
    let dir = tempdir();
    let _ = std::fs::remove_dir_all(&dir);
    let total = REGIONS as usize * DOMAINS.len();
    let survivors = {
        let store = Store::create(&dir, REGIONS as usize, &[]).unwrap();
        store.set_checkpoint_every(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for r in 0..REGIONS {
                        for domain in DOMAINS {
                            store.put(r, domain, &payload(r, domain)).unwrap();
                        }
                    }
                });
            }
            let store = &store;
            scope.spawn(move || {
                for _ in 0..6 {
                    store.checkpoint().unwrap();
                }
            });
        });
        store.len()
        // Kill point: the store drops here without a final checkpoint.
    };
    assert_eq!(survivors, total, "every cell was put before the abort");

    let reopened = Store::open(&dir).unwrap();
    assert!(
        reopened.len() <= total,
        "replay can hold at most what was put"
    );
    let mut missing = 0usize;
    for r in 0..REGIONS {
        for domain in DOMAINS {
            match reopened.get(r, domain) {
                Some(bytes) => assert_eq!(
                    bytes,
                    payload(r, domain),
                    "replayed payload of ({r}, {domain}) is verbatim"
                ),
                None => missing += 1,
            }
        }
    }
    assert_eq!(reopened.len(), total - missing, "no phantom entries");

    // Recover the lost tail: each missing cell is accepted exactly once.
    let mut accepted = 0usize;
    for r in 0..REGIONS {
        for domain in DOMAINS {
            if reopened.put(r, domain, &payload(r, domain)).unwrap() {
                accepted += 1;
            }
        }
    }
    assert_eq!(accepted, missing, "exactly the lost cells are re-accepted");
    reopened.checkpoint().unwrap();
    drop(reopened);
    let full = Store::open(&dir).unwrap();
    assert_eq!(full.len(), total);
    std::fs::remove_dir_all(&dir).unwrap();
}
