//! Disk-fault battery for the store: backend crash semantics, the
//! deterministic fault trace, fsck quarantine/repair, and an exhaustive
//! crash-point sweep — a crash after *every* mutated byte of a schedule
//! must leave a store that fscks clean, keeps only exact payloads, and
//! recovers to the full set once the missing cells are re-put — and a
//! second sweep over a note replacement, which must read back whole.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use proptest::test_runner::{run_cases, TestCaseError};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use store::{
    fsck, quarantine_ledger, DiskFaultConfig, FaultyBackend, MemBackend, StorageBackend, Store,
    StoreSnapshot,
};

fn mem_dir() -> PathBuf {
    PathBuf::from("/mem/store")
}

fn cell_payload(region: u8, domain: &str) -> Vec<u8> {
    format!("payload for {domain} in region {region}").into_bytes()
}

/// A small deterministic put schedule across two regions.
fn cells() -> Vec<(u8, String, Vec<u8>)> {
    let domains = [
        "alpha.example",
        "bravo.example",
        "charlie.example",
        "delta.example",
        "echo.example",
        "foxtrot.example",
        "golf.example",
        "hotel.example",
    ];
    domains
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let region = (i % 2) as u8;
            (region, d.to_string(), cell_payload(region, d))
        })
        .collect()
}

/// What a schedule run got acknowledged before its first error.
struct Acked {
    /// Which cells a seal that *reported success* covered.
    cells: Vec<bool>,
    /// Generation of the last seal that reported success (0: none did).
    generation: u64,
}

/// Run the schedule, sealing every third put and once at the end.
fn run_schedule(store: &Store, cells: &[(u8, String, Vec<u8>)]) -> Acked {
    store.set_checkpoint_every(usize::MAX); // only explicit seals
    let mut acked = Acked {
        cells: vec![false; cells.len()],
        generation: 0,
    };
    let mut done = 0;
    let mut seal = |done: usize| {
        if let Ok(generation) = store.seal() {
            acked.cells[..done].fill(true);
            acked.generation = generation;
        }
    };
    for (i, (region, domain, payload)) in cells.iter().enumerate() {
        if store.put(*region, domain, payload).is_err() {
            break;
        }
        done = i + 1;
        if i % 3 == 2 {
            seal(done);
        }
    }
    seal(done);
    acked
}

/// Every payload the store holds must be byte-exact — corruption is
/// dropped at open, never decoded into wrong data.
fn assert_payloads_exact(store: &Store, cells: &[(u8, String, Vec<u8>)]) {
    for (region, domain, payload) in cells {
        if let Some(got) = store.get(*region, domain) {
            assert_eq!(
                &got, payload,
                "stored payload for {domain} must be byte-exact"
            );
        }
    }
}

/// A `MemBackend` that remembers every file path written through it,
/// so two runs can be compared file by file.
#[derive(Default)]
struct Recorder {
    mem: MemBackend,
    written: Mutex<BTreeSet<PathBuf>>,
}

impl Recorder {
    fn note(&self, path: &Path) {
        self.written.lock().unwrap().insert(path.to_path_buf());
    }

    fn written(&self) -> BTreeSet<PathBuf> {
        self.written.lock().unwrap().clone()
    }
}

impl StorageBackend for Recorder {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.mem.read_file(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.note(path);
        self.mem.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.note(path);
        self.mem.append_file(path, bytes)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        self.note(path);
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
        self.note(to);
        self.mem.rename(from, to)
    }
}

#[test]
fn mem_backend_models_cache_vs_platter() {
    let mem = MemBackend::default();
    let f = Path::new("/mem/file");
    mem.append_file(f, b"hello").unwrap();
    assert_eq!(mem.read_file(f).unwrap(), b"hello");
    assert_eq!(mem.durable_bytes(f), None, "never synced");
    mem.sync_file(f).unwrap();
    assert_eq!(mem.durable_bytes(f).as_deref(), Some(b"hello".as_ref()));
    mem.append_file(f, b" world").unwrap();
    mem.crash();
    assert_eq!(
        mem.read_file(f).unwrap(),
        b"hello",
        "crash reverts to the synced image"
    );
    let g = Path::new("/mem/unsynced");
    mem.write_file(g, b"gone").unwrap();
    mem.crash();
    assert!(!mem.file_exists(g), "unsynced files vanish on crash");
}

#[test]
fn lying_fsync_is_only_observable_through_a_crash() {
    let mem = Arc::new(MemBackend::default());
    // rate 1.0: every sync through the faulty layer lies.
    let faulty = FaultyBackend::new(mem.clone(), DiskFaultConfig { seed: 9, rate: 1.0 });
    let f = Path::new("/mem/lied-to");
    mem.append_file(f, b"important").unwrap();
    faulty.sync_file(f).unwrap(); // reports success, syncs nothing
    assert!(faulty
        .trace()
        .iter()
        .any(|line| line.starts_with("lying-fsync")));
    assert_eq!(mem.read_file(f).unwrap(), b"important", "no crash, no harm");
    mem.crash();
    assert!(
        !mem.file_exists(f),
        "the lie surfaces on crash: the file was never durable"
    );
}

#[test]
fn fault_trace_is_a_pure_function_of_the_seed() {
    let schedule = |seed: u64| {
        let mem = Arc::new(MemBackend::default());
        let faulty = FaultyBackend::new(mem, DiskFaultConfig { seed, rate: 0.5 });
        for i in 0..32u32 {
            let path = PathBuf::from(format!("/mem/f{}", i % 4));
            let _ = faulty.append_file(&path, format!("bytes-{i}").as_bytes());
            let _ = faulty.sync_file(&path);
            let _ = faulty.read_file(&path);
        }
        faulty.trace()
    };
    let a = schedule(42);
    assert_eq!(a, schedule(42), "same seed, same schedule, same trace");
    assert!(!a.is_empty(), "rate 0.5 over 96 ops must inject something");
    assert_ne!(a, schedule(43), "a different seed reshuffles the faults");
}

#[test]
fn fault_mix_covers_every_kind() {
    let mem = Arc::new(MemBackend::default());
    let faulty = FaultyBackend::new(mem.clone(), DiskFaultConfig { seed: 7, rate: 1.0 });
    for i in 0..64u32 {
        let path = PathBuf::from(format!("/mem/mix{i}"));
        mem.write_file(&path, b"seed content").unwrap();
        let _ = faulty.append_file(&path, b"appended payload");
        let _ = faulty.read_file(&path);
        let _ = faulty.sync_file(&path);
    }
    let trace = faulty.trace().join("\n");
    for kind in [
        "torn-write",
        "bit-rot",
        "enospc",
        "short-read",
        "lying-fsync",
    ] {
        assert!(trace.contains(kind), "expected a {kind} fault in:\n{trace}");
    }
}

#[test]
fn fsck_quarantines_exactly_the_corrupt_cell() {
    let dir = std::env::temp_dir().join(format!("cookiewall-fsck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, 2, &[]).unwrap();
    let cells = cells();
    for (region, domain, payload) in &cells {
        store.put(*region, domain, payload).unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);

    // Flip one byte in the middle of region 0's shard: exactly one cell's
    // payload hash breaks.
    let shard = dir.join("shards").join("shard-0.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    let hit = bytes.len() / 2;
    bytes[hit] ^= 0x40;
    std::fs::write(&shard, &bytes).unwrap();

    let backend = store::FsBackend;
    let dry = fsck(&dir, &backend, true).unwrap();
    assert_eq!(dry.quarantined.len(), 1, "exactly one cell is damaged");
    assert_eq!(dry.quarantined[0].fault, "corrupt");
    assert!(!dry.repaired, "dry run writes nothing");
    assert!(dry.to_json().contains("\"quarantined_cells\": 1"));

    let report = fsck(&dir, &backend, false).unwrap();
    assert!(report.repaired);
    let bad = (
        report.quarantined[0].region,
        report.quarantined[0].domain.clone(),
    );
    assert_eq!(
        quarantine_ledger(&dir, &backend).unwrap(),
        vec![bad.clone()],
        "the sidecar records the lost cell"
    );

    // After repair the store is clean and holds every other cell exactly.
    let clean = fsck(&dir, &backend, false).unwrap();
    assert!(clean.is_clean(), "{}", clean.render());
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), cells.len() - 1);
    assert!(!store.contains(bad.0, &bad.1));
    assert_payloads_exact(&store, &cells);

    // A resumed crawl re-fetches the quarantined cell; the healed store
    // then fscks clean with the stale sidecar entry superseded.
    let payload = cells
        .iter()
        .find(|(r, d, _)| (*r, d.clone()) == bad)
        .map(|(_, _, p)| p.clone())
        .unwrap();
    assert!(store.put(bad.0, &bad.1, &payload).unwrap());
    store.checkpoint().unwrap();
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), cells.len());
    assert_payloads_exact(&store, &cells);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsck_drops_bad_records_superseded_by_a_recrawl() {
    let dir = std::env::temp_dir().join(format!("cookiewall-fsck-sup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, 1, &[]).unwrap();
    store.put(0, "only.example", b"original bytes").unwrap();
    store.checkpoint().unwrap();
    drop(store);

    let shard = dir.join("shards").join("shard-0.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[3] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();

    // Reopen (the damaged cell is skipped) and re-crawl it *before* any
    // fsck ran — the later valid record shadows the corrupt one.
    let store = Store::open(&dir).unwrap();
    assert!(!store.contains(0, "only.example"));
    assert!(store.put(0, "only.example", b"original bytes").unwrap());
    store.checkpoint().unwrap();
    drop(store);

    let backend = store::FsBackend;
    let report = fsck(&dir, &backend, false).unwrap();
    assert_eq!(
        report.quarantined.len(),
        0,
        "a re-crawled cell is healed, not lost"
    );
    assert_eq!(report.superseded_dropped, 1, "the stale record is dropped");
    assert!(report.repaired);
    let clean = fsck(&dir, &backend, false).unwrap();
    assert!(clean.is_clean(), "{}", clean.render());
    let store = Store::open(&dir).unwrap();
    assert_eq!(
        store.get(0, "only.example").as_deref(),
        Some(b"original bytes".as_ref())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `FaultyBackend` at rate 0 is free: the same schedule leaves every
/// file byte-identical (cached and durable images) to a run on the bare
/// backend, acks every cell, and injects nothing.
#[test]
fn noop_fault_layer_leaves_every_file_identical() {
    let dir = mem_dir();
    let cells = cells();

    let bare = Arc::new(Recorder::default());
    Store::create_with(&dir, 2, &[], bare.clone()).unwrap();
    let bare_acked = run_schedule(&Store::open_with(&dir, bare.clone()).unwrap(), &cells);

    let disk = Arc::new(Recorder::default());
    let faulty = Arc::new(FaultyBackend::new(disk.clone(), DiskFaultConfig::noop()));
    Store::create_with(&dir, 2, &[], faulty.clone()).unwrap();
    let faulty_acked = run_schedule(&Store::open_with(&dir, faulty.clone()).unwrap(), &cells);

    assert!(
        bare_acked.cells.iter().all(|&a| a),
        "bare run acks every cell"
    );
    assert!(
        faulty_acked.cells.iter().all(|&a| a),
        "noop run acks every cell"
    );
    assert!(faulty.trace().is_empty(), "rate 0 injects no fault");
    let files = bare.written();
    assert!(!files.is_empty(), "the schedule must write files");
    assert_eq!(files, disk.written(), "both runs write the same files");
    for path in &files {
        // `.ok()`: a slot's temp file is written, then renamed away.
        assert_eq!(
            bare.mem.read_file(path).ok(),
            disk.mem.read_file(path).ok(),
            "cached bytes of {} differ",
            path.display()
        );
        assert_eq!(
            bare.mem.durable_bytes(path),
            disk.mem.durable_bytes(path),
            "durable bytes of {} differ",
            path.display()
        );
    }
}

/// The store-level crash invariant: crash after every single mutated
/// byte of the schedule — inside a slot's temp write, its sync and its
/// rename included. Each crash state must still serve the last seal
/// that reported success (a crash between a slot's sync and its rename
/// leaves the previous generation), then fsck into a store whose
/// payloads are exact, whose acked seals survived, and which returns to
/// the full set after re-putting the missing cells.
#[test]
fn every_crash_point_recovers_to_an_exact_store() {
    let dir = mem_dir();
    let cells = cells();

    // Pass 1, no crash: create the store durably, run the schedule once
    // to learn the total mutation-clock bytes it exposes.
    let mem = Arc::new(MemBackend::default());
    Store::create_with(&dir, 2, &[], mem.clone()).unwrap();
    let probe = Arc::new(FaultyBackend::new(mem.clone(), DiskFaultConfig::noop()));
    {
        let store = Store::open_with(&dir, probe.clone()).unwrap();
        let acked = run_schedule(&store, &cells);
        assert!(
            acked.cells.iter().all(|&a| a),
            "fault-free run acks everything"
        );
    }
    let total = probe.mutated_bytes();
    assert!(total > 0, "schedule must exercise the mutation clock");

    let mut slot_crashes = BTreeSet::new();
    for crash_at in 1..=total {
        let mem = Arc::new(MemBackend::default());
        Store::create_with(&dir, 2, &[], mem.clone()).unwrap();
        let faulty = Arc::new(FaultyBackend::with_crash_point(
            mem.clone(),
            DiskFaultConfig::noop(),
            Some(crash_at),
        ));
        let acked = {
            let store = Store::open_with(&dir, faulty.clone()).unwrap();
            run_schedule(&store, &cells)
        };
        let trace = faulty.trace();
        let crash = trace
            .iter()
            .find(|event| event.starts_with("crash "))
            .unwrap_or_else(|| panic!("crash point {crash_at}/{total} must fire"));
        for (needle, kind) in [
            ("index.tmp during=write", "temp write"),
            ("index.tmp during=append", "temp write"),
            ("index.tmp during=sync", "temp sync"),
            ("during=rename", "rename"),
        ] {
            if crash.contains(needle) {
                slot_crashes.insert(kind);
            }
        }

        // Power loss: unsynced bytes vanish. The newest slot on disk is
        // the last seal that reported success, whole.
        mem.crash();
        let snapshot = StoreSnapshot::open_with(&dir, mem.clone())
            .unwrap_or_else(|e| panic!("snapshot after crash at {crash_at}: {e}"));
        assert_eq!(
            snapshot.generation(),
            acked.generation,
            "crash at {crash_at} ({crash}) must leave the last acked seal served"
        );
        fsck(&dir, mem.as_ref(), false)
            .unwrap_or_else(|e| panic!("fsck after crash at {crash_at}: {e}"));
        let store = Store::open_with(&dir, mem.clone())
            .unwrap_or_else(|e| panic!("reopen after crash at {crash_at}: {e}"));
        assert_payloads_exact(&store, &cells);
        for (i, (region, domain, _)) in cells.iter().enumerate() {
            if acked.cells[i] {
                assert!(
                    store.contains(*region, domain),
                    "cell {domain} was acked by a seal before the crash \
                     at {crash_at} but did not survive"
                );
            }
        }

        // Re-put whatever was lost: the store must return to full size.
        for (region, domain, payload) in &cells {
            if !store.contains(*region, domain) {
                store.put(*region, domain, payload).unwrap();
            }
        }
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open_with(&dir, mem.clone()).unwrap();
        assert_eq!(
            store.len(),
            cells.len(),
            "full set after crash at {crash_at}"
        );
        assert_payloads_exact(&store, &cells);
    }
    assert_eq!(
        slot_crashes.into_iter().collect::<Vec<_>>(),
        ["rename", "temp sync", "temp write"],
        "the sweep crashes inside every step of a slot write"
    );
}

/// A note is replaced by a rename: a power cut at every byte of the
/// replacement (its temp write, the sync and the rename) reads back the
/// old note or the new one, never a prefix or nothing, and the new one
/// once `write_note` has returned.
#[test]
fn every_crash_point_of_a_note_replacement_reads_old_or_new() {
    let dir = mem_dir();
    let (old, new) = ("walls=3\n", "walls=4\nprices=2.99,3.99\n");
    let with_old_note = || {
        let mem = Arc::new(MemBackend::default());
        let store = Store::create_with(&dir, 1, &[], mem.clone()).unwrap();
        store.write_note("summary", old).unwrap();
        mem
    };
    let replace = |crash_at: Option<u64>| {
        let mem = with_old_note();
        let faulty = Arc::new(FaultyBackend::with_crash_point(
            mem.clone(),
            DiskFaultConfig::noop(),
            crash_at,
        ));
        let store = Store::open_with(&dir, faulty.clone()).unwrap();
        assert_eq!(
            faulty.mutated_bytes(),
            0,
            "opening a clean store writes nothing"
        );
        let acked = store.write_note("summary", new).is_ok();
        (mem, faulty, acked)
    };
    let (_, probe, acked) = replace(None);
    assert!(acked);
    let total = probe.mutated_bytes();
    assert!(
        total > new.len() as u64,
        "the temp write, its sync and the rename"
    );
    // One past the last byte: the replacement completes, then the power goes.
    for crash_at in 1..=total + 1 {
        let (mem, faulty, acked) = replace(Some(crash_at));
        assert_eq!(
            acked,
            crash_at > total,
            "crash at {crash_at}: {:?}",
            faulty.trace()
        );
        mem.crash();
        let store = Store::open_with(&dir, mem.clone()).unwrap();
        let note = store.read_note("summary").unwrap();
        let want: &[&str] = if acked { &[new] } else { &[old, new] };
        assert!(
            note.as_deref().is_some_and(|note| want.contains(&note)),
            "crash at {crash_at} ({:?}) read back {note:?}",
            faulty.trace()
        );
    }
}

/// Random disk chaos (no crash): whatever mix of torn writes, bit rot,
/// ENOSPC, short reads, and lying fsyncs a seed injects, the store never
/// serves a wrong byte, and a scrub + re-put round-trip heals it.
#[test]
fn random_disk_chaos_never_corrupts_a_served_payload() {
    run_cases("store_disk_chaos", |rng| {
        let seed = rng.next_u64();
        let rate = 0.05 + rng.unit_f64() * 0.25;
        let inputs = format!("seed={seed:#x} rate={rate:.3}");

        let dir = mem_dir();
        let cells = cells();
        let mem = Arc::new(MemBackend::default());
        Store::create_with(&dir, 2, &[], mem.clone()).unwrap();
        let faulty = Arc::new(FaultyBackend::new(
            mem.clone(),
            DiskFaultConfig { seed, rate },
        ));
        match Store::open_with(&dir, faulty.clone()) {
            Ok(store) => {
                let _ = run_schedule(&store, &cells);
            }
            Err(_) => {
                // A short read of the meta file can fail the open itself;
                // that seed still must leave a scrubbable store behind.
            }
        }

        // Scrub and reopen on the clean backend (the faults were the
        // disk's, not the files').
        if let Err(e) = fsck(&dir, mem.as_ref(), false) {
            return (
                inputs,
                Err(TestCaseError::fail(format!("fsck failed: {e}"))),
            );
        }
        let store = match Store::open_with(&dir, mem.clone()) {
            Ok(s) => s,
            Err(e) => {
                return (
                    inputs,
                    Err(TestCaseError::fail(format!("reopen failed: {e}"))),
                )
            }
        };
        for (region, domain, payload) in &cells {
            if let Some(got) = store.get(*region, domain) {
                if &got != payload {
                    return (
                        inputs,
                        Err(TestCaseError::fail(format!(
                            "payload for {domain} corrupted in place"
                        ))),
                    );
                }
            }
        }
        for (region, domain, payload) in &cells {
            if !store.contains(*region, domain) {
                store.put(*region, domain, payload).unwrap();
            }
        }
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open_with(&dir, mem).unwrap();
        if store.len() != cells.len() {
            return (
                inputs,
                Err(TestCaseError::fail("re-puts did not restore the full set")),
            );
        }
        (inputs, Ok(()))
    });
}

/// A flush that fails with ENOSPC leaves its bytes queued: `get` slices
/// the payload out of the retry queue, and once the retry lands it reads
/// the same bytes back from disk. Covered for a failed shard append
/// (nothing landed) and a failed journal append (the shard bytes landed,
/// the ledger entry is still queued). The schedule is the first fault
/// seed whose only injected fault is ENOSPC on that file's first append.
#[test]
fn get_reads_queued_bytes_across_an_enospc_flush() {
    let dir = mem_dir();
    let payload = cell_payload(0, "alpha.example");
    for file in ["shard-0.bin", "journal.wal"] {
        let run = |seed: u64| {
            let mem = Arc::new(MemBackend::default());
            Store::create_with(&dir, 1, &[], mem.clone()).unwrap();
            let faulty = Arc::new(FaultyBackend::new(mem, DiskFaultConfig { seed, rate: 0.3 }));
            let store = Store::open_with(&dir, faulty.clone()).ok()?;
            store.put(0, "alpha.example", &payload).unwrap();
            let failed = store.checkpoint().is_err();
            let queued = store.get(0, "alpha.example");
            let retried = store.checkpoint().is_ok();
            let durable = store.get(0, "alpha.example");
            let trace = faulty.trace();
            let enospc = format!("enospc path={}", dir.join("shards").join(file).display());
            let enospc = enospc.replace("shards/journal.wal", "journal.wal");
            (failed && retried && trace.len() == 1 && trace[0].starts_with(&enospc))
                .then_some((queued, durable))
        };
        let (queued, durable) = (0..10_000)
            .find_map(run)
            .unwrap_or_else(|| panic!("no seed fails only the first {file} append"));
        assert_eq!(queued.as_deref(), Some(&payload[..]), "{file}: queued");
        assert_eq!(durable.as_deref(), Some(&payload[..]), "{file}: landed");
    }
}

/// Every backend's `read_range` returns exactly the bytes asked for, or
/// an error: a range past the end never comes back shorter.
#[test]
fn read_range_is_exact_or_an_error() {
    let bytes = b"0123456789";
    let fs_dir = std::env::temp_dir().join(format!("cookiewall-range-{}", std::process::id()));
    std::fs::create_dir_all(&fs_dir).unwrap();
    let fs_path = fs_dir.join("file");
    let mem_path = PathBuf::from("/mem/file");
    let faulty_path = PathBuf::from("/mem/faulty-file");
    let mem = Arc::new(MemBackend::default());
    let backends: [(&dyn StorageBackend, &Path); 3] = [
        (&store::FsBackend, &fs_path),
        (mem.as_ref(), &mem_path),
        (
            &FaultyBackend::new(mem.clone(), DiskFaultConfig::noop()),
            &faulty_path,
        ),
    ];
    for (backend, path) in backends {
        let name = path.display();
        assert_eq!(
            backend.read_range(path, 0, 1).unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "{name}: missing file"
        );
        backend.write_file(path, bytes).unwrap();
        assert_eq!(backend.read_range(path, 2, 5).unwrap(), b"23456", "{name}");
        assert_eq!(backend.read_range(path, 0, 10).unwrap(), bytes, "{name}");
        assert_eq!(backend.read_range(path, 10, 0).unwrap(), b"", "{name}");
        for (offset, len) in [(8, 3), (10, 1), (0, 11), (11, 1)] {
            let err = backend.read_range(path, offset, len).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "{name}: {len} bytes at {offset}"
            );
        }
        assert!(backend.read_range(path, u64::MAX, 1).is_err(), "{name}");
        // A rewrite is read back, not a handle's stale view of the file.
        backend.write_file(path, b"abcdefghij").unwrap();
        assert_eq!(backend.read_range(path, 2, 5).unwrap(), b"cdefg", "{name}");
    }
    std::fs::remove_dir_all(&fs_dir).unwrap();

    // A faulty disk's short read keeps a strict prefix of the range.
    let faulty = FaultyBackend::new(mem, DiskFaultConfig { seed: 5, rate: 1.0 });
    for _ in 0..32 {
        let got = faulty.read_range(&mem_path, 1, 8).unwrap();
        assert!(got.len() < 8, "every read at rate 1 is short");
        assert_eq!(got, b"bcdefghi"[..got.len()]);
    }
}

/// A store whose disk starts returning short reads after its cells
/// landed never hands one out: `get` and the region walk give the exact
/// payload or nothing. (A short read of a whole region still holds the
/// extents inside the prefix it kept; those verify and are exact.)
#[test]
fn short_reads_never_reach_a_caller() {
    /// Reads go through a fault layer once armed; writes stay clean.
    struct ShortReads {
        mem: Arc<MemBackend>,
        faulty: FaultyBackend,
        armed: std::sync::atomic::AtomicBool,
    }
    impl StorageBackend for ShortReads {
        fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.mem.read_file(path)
        }
        fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            if self.armed.load(std::sync::atomic::Ordering::Relaxed) {
                self.faulty.read_range(path, offset, len)
            } else {
                self.mem.read_range(path, offset, len)
            }
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.mem.write_file(path, bytes)
        }
        fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
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

    let mem = Arc::new(MemBackend::default());
    let disk = Arc::new(ShortReads {
        mem: mem.clone(),
        faulty: FaultyBackend::new(
            mem,
            DiskFaultConfig {
                seed: 11,
                rate: 1.0,
            },
        ),
        armed: false.into(),
    });
    let cells = cells();
    let store = Store::create_with(&mem_dir(), 2, &[], disk.clone()).unwrap();
    for (region, domain, payload) in &cells {
        store.put(*region, domain, payload).unwrap();
    }
    store.checkpoint().unwrap();
    assert_payloads_exact(&store, &cells);
    assert!(cells.iter().all(|(r, d, _)| store.get(*r, d).is_some()));

    disk.armed.store(true, std::sync::atomic::Ordering::Relaxed);
    for (region, domain, _) in &cells {
        assert_eq!(store.get(*region, domain), None, "short read of {domain}");
    }
    for region in 0..2 {
        store.for_each_region_entry(region, &mut |domain, bytes| {
            assert_eq!(bytes, cell_payload(region, domain), "walked {domain}");
        });
    }
    assert!(!disk.faulty.trace().is_empty());
}
