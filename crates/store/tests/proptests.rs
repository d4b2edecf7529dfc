//! Property: over arbitrary interleavings of puts, checkpoints, aborts
//! (drop without flushing) and reopens on a small `(region × domain)`
//! matrix, journal replay is exactly-once — a reopened store holds every
//! task that was checkpointed, none that was not, each exactly once with
//! its original payload. The domain list spans many of the sharded
//! store's domain-hash stripes, so the scripted interleavings exercise
//! cross-stripe staging, and the torture tests below hammer concurrent
//! `put`s against the pipelined checkpoint path.

use httpsim::content_hash;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use store::{Store, STRIPES};

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

/// The fixture must genuinely cross stripes, or every test above would
/// silently degenerate to single-stripe coverage.
#[test]
fn fixture_domains_span_multiple_stripes() {
    let stripes: BTreeSet<u64> = DOMAINS
        .iter()
        .map(|d| content_hash(d.as_bytes()) % STRIPES as u64)
        .collect();
    assert!(
        stripes.len() >= 4,
        "fixture domains hash to only {} distinct stripes",
        stripes.len()
    );
}

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

/// Every thread races to put every `(region, domain)` cell while the
/// small auto-checkpoint cadence keeps pipelined flushes in flight:
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
