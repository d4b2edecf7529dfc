//! Property: over arbitrary interleavings of puts, seals, and reopens,
//! a [`StoreSnapshot`] is always a faithful sealed prefix of the live
//! store — every cell it serves is byte-equal to a direct `Store::get`,
//! it holds exactly the cells durable at the last seal, and snapshots
//! opened mid-ingest (while a writer races puts and seals) never observe
//! a torn index: some complete, verified seal always serves.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use store::{Store, StoreSnapshot};

const REGIONS: u8 = 3;
const DOMAINS: [&str; 8] = [
    "alpha.example",
    "beta.example",
    "gamma.example",
    "delta.example",
    "epsilon.example",
    "zeta.example",
    "eta.example",
    "theta.example",
];

fn tempdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "cookiewall-snap-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn payload(region: u8, domain: &str) -> Vec<u8> {
    format!("sealed result for {domain} from region {region}").into_bytes()
}

/// One scripted step against the store.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store the result for cell (region, domain index).
    Put(u8, usize),
    /// Seal: flush, then write a new index generation.
    Seal,
    /// Open a snapshot right here and check it against the model.
    Snapshot,
    /// Clean restart (seals on the way down, so the index survives).
    SealAndReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0u8..REGIONS, 0usize..DOMAINS.len()).prop_map(|(kind, r, d)| match kind {
        0..5 => Op::Put(r, d),
        5 | 6 => Op::Seal,
        7 | 8 => Op::Snapshot,
        _ => Op::SealAndReopen,
    })
}

/// The model check: a snapshot must hold exactly `sealed`, byte-equal to
/// both the model payload and a direct live-store read.
fn check_snapshot(
    snap: &StoreSnapshot,
    live: &Store,
    sealed: &BTreeMap<(u8, usize), Vec<u8>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.len(), sealed.len(), "snapshot holds the sealed set");
    for (&(r, d), bytes) in sealed {
        prop_assert_eq!(
            snap.get(r, DOMAINS[d]),
            Some(bytes.as_slice()),
            "sealed cell ({}, {}) serves verbatim",
            r,
            DOMAINS[d]
        );
        prop_assert_eq!(
            snap.get(r, DOMAINS[d]).map(|b| b.to_vec()),
            live.get(r, DOMAINS[d]),
            "snapshot and live store agree on ({}, {})",
            r,
            DOMAINS[d]
        );
    }
    // Region iteration agrees with point reads.
    for r in 0..REGIONS {
        let mut listed = 0usize;
        snap.for_each_region_entry(r, &mut |domain, bytes| {
            listed += 1;
            let d = DOMAINS.iter().position(|&x| x == domain).unwrap();
            assert_eq!(bytes, &sealed[&(r, d)][..], "iterated cell is verbatim");
        });
        let expected = sealed.keys().filter(|(pr, _)| *pr == r).count();
        prop_assert_eq!(listed, expected, "region {} iteration is complete", r);
    }
    Ok(())
}

proptest! {
    fn snapshots_are_faithful_sealed_prefixes(ops in prop::collection::vec(op_strategy(), 1..32)) {
        let dir = tempdir();
        let _ = std::fs::remove_dir_all(&dir);
        let mut live = Store::create(&dir, REGIONS as usize, &[]).unwrap();

        // Model: everything durable, and the subset visible at the last seal.
        let mut durable: BTreeMap<(u8, usize), Vec<u8>> = BTreeMap::new();
        let mut sealed: BTreeMap<(u8, usize), Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Put(r, d) => {
                    live.put(r, DOMAINS[d], &payload(r, DOMAINS[d])).unwrap();
                    durable.insert((r, d), payload(r, DOMAINS[d]));
                }
                Op::Seal => {
                    live.seal().unwrap();
                    sealed = durable.clone();
                }
                Op::Snapshot => {
                    let snap = StoreSnapshot::open(live.dir()).unwrap();
                    check_snapshot(&snap, &live, &sealed)?;
                }
                Op::SealAndReopen => {
                    live.seal().unwrap();
                    sealed = durable.clone();
                    drop(live);
                    live = Store::open(&dir).unwrap();
                }
            }
        }

        // A final seal makes everything visible, across a reopen too.
        live.seal().unwrap();
        sealed = durable.clone();
        check_snapshot(&StoreSnapshot::open(live.dir()).unwrap(), &live, &sealed)?;
        drop(live);
        let reopened = Store::open(&dir).unwrap();
        check_snapshot(&StoreSnapshot::open(reopened.dir()).unwrap(), &reopened, &sealed)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A snapshot of a never-sealed store is empty, not an error.
#[test]
fn never_sealed_store_yields_an_empty_snapshot() {
    let dir = tempdir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, REGIONS as usize, &[]).unwrap();
    store.put(0, DOMAINS[0], b"unsealed").unwrap();
    let snap = StoreSnapshot::open(store.dir()).unwrap();
    assert!(snap.is_empty());
    assert_eq!(snap.generation(), 0);
    assert_eq!(
        snap.get(0, DOMAINS[0]),
        None,
        "unsealed cells stay invisible"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Damage one index slot: the other slot still serves, and fsck rewrites
/// both back to health.
#[test]
fn a_damaged_slot_falls_back_to_its_twin() {
    let dir = tempdir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, REGIONS as usize, &[]).unwrap();
    for (d, domain) in DOMAINS.iter().enumerate() {
        store.put(0, domain, &payload(0, domain)).unwrap();
        if d % 3 == 2 {
            store.seal().unwrap();
        }
    }
    let generation = store.seal().unwrap();
    drop(store);

    // The live slot is generation % 2; garbage it.
    let live_slot = dir.join(format!("index-{}.cwi", generation % 2));
    assert!(live_slot.exists(), "seal wrote its slot");
    std::fs::write(&live_slot, b"CWI1 but torn mid-write").unwrap();

    let snap = StoreSnapshot::open(&dir).unwrap();
    assert!(
        snap.generation() < generation,
        "the surviving twin is an older generation"
    );
    for domain in DOMAINS.iter().take(6) {
        assert_eq!(
            snap.get(0, domain),
            Some(&payload(0, domain)[..]),
            "{domain} still serves from the twin slot"
        );
    }

    // fsck rewrites both slots; the full sealed set comes back.
    let report = store::fsck(&dir, &store::FsBackend, false).unwrap();
    assert_eq!(report.index_slots_rewritten, 2);
    let healed = StoreSnapshot::open(&dir).unwrap();
    assert_eq!(healed.len(), DOMAINS.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mid-ingest snapshots never observe a torn index: while one thread
/// puts and seals as fast as it can, readers open snapshots in a loop —
/// every open must yield a complete, verified seal (never an error, never
/// a half-written slot), with generations moving monotonically forward
/// per reader and every served cell byte-equal to its eventual payload.
#[test]
fn snapshots_mid_ingest_never_observe_a_torn_index() {
    let dir = tempdir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, REGIONS as usize, &[]).unwrap();
    let domains: Vec<String> = (0..48).map(|i| format!("churn-{i}.example")).collect();

    std::thread::scope(|scope| {
        let writer = {
            let store = &store;
            let domains = &domains;
            scope.spawn(move || {
                for (i, domain) in domains.iter().enumerate() {
                    for r in 0..REGIONS {
                        store.put(r, domain, &payload(r, domain)).unwrap();
                    }
                    if i % 4 == 3 {
                        store.seal().unwrap();
                    }
                }
                store.seal().unwrap();
            })
        };
        for _ in 0..3 {
            let store = &store;
            scope.spawn(move || {
                let mut last_generation = 0u64;
                for _ in 0..40 {
                    let snap =
                        StoreSnapshot::open(store.dir()).expect("mid-ingest snapshot opens clean");
                    assert!(
                        snap.generation() >= last_generation,
                        "generations never move backwards"
                    );
                    last_generation = snap.generation();
                    for r in 0..REGIONS {
                        snap.for_each_region_entry(r, &mut |domain, bytes| {
                            assert_eq!(bytes, &payload(r, domain)[..], "sealed cell is never torn");
                        });
                    }
                }
            });
        }
        writer.join().unwrap();
    });

    // After the ingest, the final snapshot holds the complete matrix.
    let snap = StoreSnapshot::open(store.dir()).unwrap();
    assert_eq!(snap.len(), REGIONS as usize * domains.len());
    std::fs::remove_dir_all(&dir).unwrap();
}
