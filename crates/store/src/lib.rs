//! # store — the persistent crawl store
//!
//! A content-addressed, sharded on-disk store for completed crawl task
//! results, with a write-ahead journal so an interrupted sweep can resume
//! and recompute only the missing `(region, domain)` cells.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/meta               key=value text: format, region count, and the
//!                          caller's configuration fingerprint
//! <dir>/journal.wal        append-only journal, one record per stored task
//! <dir>/shards/shard-N.bin raw payload bytes for region index N
//! <dir>/index-S.cwi        double-buffered sealed-view index slots
//!                          (see [`index`] — the `CWI1` contract)
//! <dir>/note-<name>        free-form text attachments (epoch summaries)
//! <dir>/quarantine         fsck's sidecar of damaged cells (see below)
//! ```
//!
//! Each journal record carries the task key (region index + domain), the
//! payload's byte offset and length in its region shard, the payload's
//! [`content_hash`], and a trailing hash of the record bytes themselves
//! (see the `journal` module). [`Store::open`] replays the journal tolerantly:
//! every record is verified against the shard bytes actually on disk —
//! a payload is never handed back (let alone decoded) unless its hash
//! matches — and a record that is torn (its shard bytes never landed) or
//! corrupt (bit rot) is *skipped*, not fatal to the records after it. An
//! unparseable journal tail is truncated away; unparseable runs in the
//! middle are skipped when a later record resyncs. Partial recovery is
//! reported on stderr, and `cookiewall-study fsck` ([`fsck`]) turns the
//! same classification into repair: damaged cells are quarantined into a
//! sidecar file and dropped from the journal, so a resumed crawl
//! re-fetches exactly those cells.
//!
//! ## Storage backends
//!
//! Every byte of store IO flows through a [`StorageBackend`]
//! ([`FsBackend`] by default — the real filesystem). [`MemBackend`]
//! models the page-cache/platter split with an explicit
//! [`MemBackend::crash`], and [`FaultyBackend`] injects deterministic
//! disk chaos (torn writes, short reads, ENOSPC, lying fsyncs, bit rot,
//! byte-level crash points) for the crash-point fuzzer and the CLI's
//! `--disk-fault-*` flags.
//!
//! ## Sharded write path
//!
//! The in-memory side is split into [`STRIPES`] stripes keyed by
//! `fnv1a(domain) % STRIPES`: concurrent `put`s on domains that hash to
//! different stripes never contend on a common mutex, so a 64-worker
//! sweep does not serialize on one `Mutex<Inner>`. Each stripe owns the
//! index slice for its domains plus the list of puts accepted since the
//! last flush. Flushing drains the stripes in deterministic stripe order
//! (then arrival order within a stripe), allocates shard offsets and
//! encodes journal records under a single small `queue` mutex, and hands
//! the bytes to the disk side — so for any fixed sequence of stripe
//! states the journal bytes are a pure function of that sequence, and
//! per-region shard offsets stay monotone in journal order.
//!
//! ## Durability model
//!
//! Puts are buffered in memory and flushed by [`Store::checkpoint`], which
//! runs automatically every [`Store::set_checkpoint_every`] puts (shard
//! bytes are written before the journal records that reference them, so the
//! journal never points past a shard's end on a clean flush; each file is
//! synced through the backend after its append). Dropping the store
//! without a checkpoint abandons the buffered tail — exactly what a
//! `Ctrl-C` or a crash does — and the exactly-once property tests pin that
//! a reopened store holds precisely the checkpointed puts, no more, no
//! fewer, no duplicates.
//!
//! Checkpointing is pipelined: an auto-checkpoint triggered by `put`
//! stages its bytes and only *tries* to take the disk-writer lock. If
//! another thread is already appending, the staged bytes are left for
//! that writer (which re-drains the queue before releasing the lock) and
//! the putting worker returns immediately — writers never wait on disk.
//! An explicit [`Store::checkpoint`] still blocks until everything
//! staged is durable, which is what its callers rely on.
//!
//! A flush that fails midway (disk full, permission error) does not lose
//! the buffered tail either: the unwritten bytes stay queued on the disk
//! side, the error is returned to the caller, and the next checkpoint
//! first truncates any partially-appended file back to its last durable
//! byte, then retries the queued bytes ahead of newer buffers — so the
//! shard offsets already encoded into journal records stay valid
//! across a transient IO error.
//!
//! ## Sealed reads
//!
//! [`Store::seal`] (run by every [`Store::checkpoint`]) freezes the
//! durable prefix of every shard and describes it in a double-buffered,
//! FNV-checksummed index file (the `CWI1` contract, see the `index` module).
//! [`StoreSnapshot`] opens that sealed view straight from disk — it
//! never takes the writer's stripe/queue/io locks, so an always-on query
//! service reads at full speed while a new epoch ingests. The
//! [`StoreRead`] trait is the common read surface of the live store and
//! the snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod index;
mod journal;
mod recovery;
mod snapshot;
mod stripe;

pub use backend::{DiskFaultConfig, FaultyBackend, FsBackend, MemBackend, StorageBackend};
pub use recovery::{fsck, quarantine_ledger, FsckReport, QuarantinedCell};
pub use snapshot::StoreSnapshot;
pub use stripe::STRIPES;

use httpsim::content_hash;
use index::{encode_index, slot_path, IndexEntry, SlotState, INDEX_SLOTS};
use journal::{encode_record, shard_path, JOURNAL_FILE, META_FILE, SHARD_DIR};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use stripe::{stripe_of, DiskState, FlushQueue, LedgerEntry, Stripe};

/// Default auto-checkpoint cadence (puts between flushes).
pub const DEFAULT_CHECKPOINT_EVERY: usize = 64;

/// The read surface shared by the live [`Store`] and the sealed
/// [`StoreSnapshot`]: report aggregation, the longitudinal diff, and the
/// query evaluators are written against this trait so the same code
/// answers from either.
pub trait StoreRead {
    /// Number of region shards.
    fn regions(&self) -> usize;

    /// Look up one meta value.
    fn meta_value(&self, key: &str) -> Option<&str>;

    /// Read back a note (see [`Store::write_note`]).
    fn read_note(&self, name: &str) -> io::Result<Option<String>>;

    /// Fetch one stored payload (cloned), or `None` when absent.
    fn payload(&self, region: u8, domain: &str) -> Option<Vec<u8>>;

    /// Visit every `(domain, payload)` of one region in domain order
    /// without materializing the region into a vector. The callback
    /// must not call back into the same store.
    fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8]));
}

/// Seal-side state, guarded by `Store::seal_state`: the next index
/// generation and what the previous seal looked like.
struct SealState {
    /// Generation the next seal will write.
    next_generation: u64,
    /// The entries of the last sealed view, in `(region, domain)` order,
    /// their domains shared with the ledger: a cell keeps its segment as
    /// long as its offset is unchanged, so epoch tooling can tell stable
    /// cells from rewritten ones.
    sealed: Vec<IndexEntry>,
    /// `(ledger length, durable shard lengths)` at the last seal — when
    /// unchanged, sealing again skips the slot write entirely.
    fingerprint: Option<(usize, Vec<u64>)>,
}

/// The persistent crawl store. Thread-safe: workers `put` concurrently.
///
/// Lock order (see DESIGN.md §8): a stripe mutex is never held while
/// taking `queue`, `queue` is never held while taking `io`, and the
/// reverse orders never occur — the may-hold-while-acquiring graph is
/// `io → queue` plus `seal_state → io` (a seal briefly reads the disk
/// watermarks), which stays acyclic.
pub struct Store {
    dir: PathBuf,
    regions: usize,
    /// The meta pairs as a map, built once at create/open so resume
    /// validation does not linear-scan per lookup.
    meta_map: BTreeMap<String, String>,
    /// Every byte of disk IO goes through here; [`FsBackend`] by default.
    backend: Arc<dyn StorageBackend>,
    checkpoint_every: AtomicUsize,
    /// In-memory side, sharded by `stripe_of` so `put`/`get` on
    /// different domains never serialize on a common mutex.
    stripes: Vec<Mutex<Stripe>>,
    /// Puts accepted since a flush was last triggered (across stripes);
    /// drives the auto-checkpoint cadence without a shared buffer lock.
    pending: AtomicUsize,
    /// Offset allocator and staging area between the stripes and the
    /// disk side: flushes drain stripes in stripe order, then assign
    /// shard offsets and encode journal records under this one small
    /// mutex, so journal bytes are a pure function of the drained
    /// sequence and per-region offsets stay monotone in journal order.
    queue: Mutex<FlushQueue>,
    /// True while any bytes sit staged in `queue` or queued for retry in
    /// [`DiskState`] — lets a checkpoint with nothing buffered return
    /// without touching `io`. Set under the `queue` lock when staging;
    /// cleared under the `queue` lock only after the writer confirms
    /// both sides empty, so staged bytes can never be stranded behind a
    /// checkpoint that thinks it has nothing to do.
    flush_pending: AtomicBool,
    /// Disk-side flush state. Single on purpose: one appender at a time
    /// keeps file appends in the same order as their journal offsets.
    /// Writers never *wait* here — an auto-checkpoint only `try_lock`s,
    /// leaving its staged bytes to the in-flight writer, which re-drains
    /// the queue before releasing the lock.
    io: Mutex<DiskState>,
    /// Seal-side state: one sealer at a time writes index slots, so slot
    /// generations stay monotone and the double-buffer invariant (the
    /// newest two sealed views live in different slots) holds.
    seal_state: Mutex<SealState>,
}

impl Store {
    /// Create a fresh store at `dir` for `regions` shards, recording the
    /// caller's `meta` pairs. Fails if a store already exists there.
    pub fn create(dir: &Path, regions: usize, meta: &[(String, String)]) -> io::Result<Store> {
        Store::create_with(dir, regions, meta, Arc::new(FsBackend))
    }

    /// [`Store::create`] on an explicit storage backend.
    pub fn create_with(
        dir: &Path,
        regions: usize,
        meta: &[(String, String)],
        backend: Arc<dyn StorageBackend>,
    ) -> io::Result<Store> {
        if regions == 0 || regions > u8::MAX as usize {
            return Err(invalid("region count must be in 1..=255"));
        }
        if backend.file_exists(&dir.join(META_FILE)) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("a store already exists at {}", dir.display()),
            ));
        }
        backend.create_dir_all(&dir.join(SHARD_DIR))?;
        let mut pairs = vec![
            ("format".to_string(), "1".to_string()),
            ("regions".to_string(), regions.to_string()),
        ];
        for (k, v) in meta {
            if k.is_empty() || k.contains('=') || k.contains('\n') || v.contains('\n') {
                return Err(invalid("meta keys/values must be single-line, '='-free"));
            }
            if k == "format" || k == "regions" {
                return Err(invalid("meta keys 'format' and 'regions' are reserved"));
            }
            pairs.push((k.clone(), v.clone()));
        }
        let text: String = pairs.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
        let meta_path = dir.join(META_FILE);
        backend.write_file(&meta_path, text.as_bytes())?;
        backend.sync_file(&meta_path)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            regions,
            meta_map: pairs.into_iter().collect(),
            backend,
            checkpoint_every: AtomicUsize::new(DEFAULT_CHECKPOINT_EVERY),
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::new(regions)))
                .collect(),
            pending: AtomicUsize::new(0),
            queue: Mutex::new(FlushQueue::new(vec![0; regions])),
            flush_pending: AtomicBool::new(false),
            io: Mutex::new(DiskState::new(vec![0; regions], 0, Vec::new())),
            seal_state: Mutex::new(SealState {
                next_generation: 1,
                sealed: Vec::new(),
                fingerprint: None,
            }),
        })
    }

    /// Open an existing store, replaying the journal. Recovery is
    /// tolerant: a torn or corrupt cell is skipped (and reported on
    /// stderr), never decoded, and never fatal to the cells after it; an
    /// unparseable journal tail is truncated away so the next open is
    /// clean. See [`fsck`] for turning skipped cells into quarantine.
    pub fn open(dir: &Path) -> io::Result<Store> {
        Store::open_with(dir, Arc::new(FsBackend))
    }

    /// [`Store::open`] on an explicit storage backend.
    pub fn open_with(dir: &Path, backend: Arc<dyn StorageBackend>) -> io::Result<Store> {
        let (meta, regions) = read_store_config(dir, backend.as_ref())?;
        let (journal, shards) = recovery::read_journal_and_shards(dir, backend.as_ref(), regions)?;
        let replay = recovery::replay(&journal, &shards);

        // One structured line so operators see partial recovery happened
        // (the journal replay itself is silent about what it skips).
        let damage = replay.torn_cells + replay.corrupt_cells > 0 || replay.gap_bytes > 0;
        if damage || replay.torn_tail.is_some() {
            let (tail_offset, tail_bytes) = replay.torn_tail.unwrap_or((replay.keep_len, 0));
            eprintln!(
                "store: partial recovery at {}: skipped {} torn + {} corrupt cell(s), \
                 {} mid-journal gap byte(s), truncated {} torn tail byte(s) at offset {} \
                 — run `cookiewall-study fsck` to quarantine",
                dir.display(),
                replay.torn_cells,
                replay.corrupt_cells,
                replay.gap_bytes,
                tail_bytes,
                tail_offset,
            );
        }

        // Repair on disk: drop the unparseable journal tail and any
        // orphan shard bytes (payloads flushed whose journal record
        // never landed). Skipped-but-parseable records stay until fsck.
        if replay.torn_tail.is_some() {
            let journal_path = dir.join(JOURNAL_FILE);
            backend.truncate_file(&journal_path, replay.keep_len)?;
            backend.sync_file(&journal_path)?;
        }
        for (r, shard) in shards.iter().enumerate().take(regions) {
            if (shard.len() as u64) > replay.high_water[r] {
                let path = shard_path(dir, r as u8);
                backend.truncate_file(&path, replay.high_water[r])?;
                backend.sync_file(&path)?;
            }
        }

        // Distribute the replayed index across the domain-hash stripes.
        let mut stripes: Vec<Stripe> = (0..STRIPES).map(|_| Stripe::new(regions)).collect();
        for ((region, domain), payload) in replay.index {
            let s = stripe_of(&domain);
            stripes[s].index[region as usize].insert(domain.into(), payload.into());
        }

        // Resume the seal sequence from the newest valid index slot, so
        // new seals keep strictly newer generations than what readers
        // may already hold. Damaged or missing slots just restart the
        // sequence past whatever is still valid.
        let slots = index::read_slots(dir, backend.as_ref(), regions)?;
        let best = slots
            .into_iter()
            .filter_map(|s| match s {
                SlotState::Valid(file) => Some(file),
                _ => None,
            })
            .max_by_key(|file| file.generation);
        let next_generation = best.as_ref().map_or(0, |file| file.generation) + 1;
        let mut sealed = best.map(|file| file.entries).unwrap_or_default();
        // Every writer emits entries in key order; sorting keeps the seal's
        // merge from depending on it.
        sealed.sort_unstable_by(|a, b| (a.region, &a.domain).cmp(&(b.region, &b.domain)));

        Ok(Store {
            dir: dir.to_path_buf(),
            regions,
            meta_map: meta.into_iter().collect(),
            backend,
            checkpoint_every: AtomicUsize::new(DEFAULT_CHECKPOINT_EVERY),
            stripes: stripes.into_iter().map(Mutex::new).collect(),
            pending: AtomicUsize::new(0),
            queue: Mutex::new(FlushQueue::new(replay.high_water.clone())),
            flush_pending: AtomicBool::new(false),
            io: Mutex::new(DiskState::new(
                replay.high_water,
                replay.keep_len,
                replay.ledger,
            )),
            seal_state: Mutex::new(SealState {
                next_generation,
                sealed,
                fingerprint: None,
            }),
        })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of region shards.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Look up one meta value (map lookup — the map is built once at
    /// create/open).
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta_map.get(key).map(|v| v.as_str())
    }

    /// Change the auto-checkpoint cadence (puts between flushes); 0 means
    /// flush on every put.
    pub fn set_checkpoint_every(&self, every: usize) {
        self.checkpoint_every.store(every, Ordering::Relaxed);
    }

    /// Store one completed task result. Returns `Ok(false)` without
    /// writing anything when the key is already present (exactly-once:
    /// a result is never duplicated or overwritten). Only the domain's
    /// own stripe is locked, so concurrent puts on different domains
    /// never serialize; when the auto-checkpoint cadence is reached the
    /// flush is pipelined and does not wait on an in-flight disk write.
    pub fn put(&self, region: u8, domain: &str, payload: &[u8]) -> io::Result<bool> {
        if (region as usize) >= self.regions {
            return Err(invalid("region index out of range"));
        }
        if domain.len() > u16::MAX as usize {
            return Err(invalid("domain too long for a journal record"));
        }
        {
            let mut stripe = self.stripes[stripe_of(domain)].lock();
            if stripe.get(region, domain).is_some() {
                return Ok(false);
            }
            let (domain, payload): (Arc<str>, Arc<[u8]>) = (domain.into(), payload.into());
            stripe.index[region as usize].insert(Arc::clone(&domain), Arc::clone(&payload));
            stripe.fresh.push((region, domain, payload));
        }
        let pending = self.pending.fetch_add(1, Ordering::AcqRel) + 1;
        if pending >= self.checkpoint_every.load(Ordering::Relaxed).max(1) {
            self.pending.store(0, Ordering::Release);
            self.flush(false)?;
        }
        Ok(true)
    }

    /// Fetch a stored payload (a copy: the stripe lock is released before
    /// returning).
    pub fn get(&self, region: u8, domain: &str) -> Option<Vec<u8>> {
        self.stripes[stripe_of(domain)]
            .lock()
            .get(region, domain)
            .map(<[u8]>::to_vec)
    }

    /// Is this task already stored?
    pub fn contains(&self, region: u8, domain: &str) -> bool {
        self.stripes[stripe_of(domain)]
            .lock()
            .get(region, domain)
            .is_some()
    }

    /// Total stored task results across all regions.
    pub fn len(&self) -> usize {
        (0..STRIPES).map(|i| self.stripes[i].lock().len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every `(domain, payload)` of one region in domain order,
    /// borrowing each payload instead of cloning the whole region into a
    /// `Vec`. Domains are collected first (one stripe lock at a time),
    /// then each payload is borrowed under its own stripe's lock — no
    /// two stripe locks are ever held together, and a cell put
    /// concurrently with the walk is either visited or not, exactly as
    /// if the walk ran before or after the put. The callback must not
    /// call back into the same store.
    pub fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        let mut domains: Vec<Arc<str>> = Vec::new();
        for i in 0..STRIPES {
            let stripe = self.stripes[i].lock();
            if let Some(map) = stripe.index.get(region as usize) {
                domains.extend(map.keys().cloned());
            }
        }
        domains.sort_unstable();
        for domain in domains {
            let stripe = self.stripes[stripe_of(&domain)].lock();
            if let Some(payload) = stripe.get(region, &domain) {
                f(&domain, payload);
            }
        }
    }

    /// Flush every buffered put to disk, wait until it is durable, then
    /// seal the durable prefix into the on-disk index so readers can
    /// open it as a [`StoreSnapshot`]. Shard bytes land before the
    /// journal records that reference them, so a crash between the two
    /// leaves orphan shard bytes (reclaimed on open), never a journal
    /// record pointing past its shard. On failure nothing is lost: the
    /// unwritten bytes stay queued and the next checkpoint retries them
    /// (see the module docs on the durability model).
    pub fn checkpoint(&self) -> io::Result<()> {
        self.seal().map(|_| ())
    }

    /// Flush, then write a sealed index slot describing every durable
    /// cell (the `CWI1` contract, see the `index` module). Returns the sealed
    /// generation. Sealing an unchanged store skips the slot write and
    /// returns the previous generation. One sealer runs at a time; the
    /// slot written alternates with the generation, so the newest two
    /// sealed views always live in different slots and a torn slot
    /// write can only damage the older one.
    pub fn seal(&self) -> io::Result<u64> {
        self.pending.store(0, Ordering::Release);
        self.flush(true)?;
        let mut seal = self.seal_state.lock();
        // Briefly read the durable state under `io`; `seal_state → io`
        // is the only new lock-order edge and nothing blocks while both
        // are held.
        let (ledger, sealed_len) = {
            let disk = self.io.lock();
            (disk.ledger.clone(), disk.durable_shard.clone())
        };
        let fingerprint = (ledger.len(), sealed_len.clone());
        if seal.fingerprint.as_ref() == Some(&fingerprint) {
            return Ok(seal.next_generation - 1);
        }
        let generation = seal.next_generation;
        // Last-wins over the ledger (a re-crawled cell shadows its
        // quarantined predecessor), then keep the previous segment for
        // cells whose offset is unchanged. Both the cells and the last
        // sealed entries ascend by `(region, domain)`, so one merge pass
        // pairs them, and every entry shares its domain with the ledger.
        let mut cells: BTreeMap<(u8, &Arc<str>), (u64, u32, u64)> = BTreeMap::new();
        for entry in &ledger {
            cells.insert(
                (entry.region, &entry.domain),
                (entry.offset, entry.len, entry.payload_hash),
            );
        }
        let mut previous = seal.sealed.iter().peekable();
        let entries: Vec<IndexEntry> = cells
            .into_iter()
            .map(|((region, domain), (offset, len, payload_hash))| {
                while previous
                    .next_if(|e| (e.region, &e.domain) < (region, domain))
                    .is_some()
                {}
                let segment = match previous.peek() {
                    Some(e) if (e.region, &e.domain, e.offset) == (region, domain, offset) => {
                        e.segment
                    }
                    _ => generation,
                };
                IndexEntry {
                    region,
                    domain: Arc::clone(domain),
                    segment,
                    offset,
                    len,
                    payload_hash,
                }
            })
            .collect();
        let bytes = encode_index(generation, &sealed_len, &entries);
        let path = slot_path(&self.dir, (generation % INDEX_SLOTS as u64) as usize);
        // lint:allow(blocking-under-lock) — `seal_state` exists solely to order slot writes
        self.backend.write_file(&path, &bytes)?;
        // lint:allow(blocking-under-lock) — `seal_state` exists solely to order slot writes
        self.backend.sync_file(&path)?;
        seal.sealed = entries;
        seal.next_generation += 1;
        seal.fingerprint = Some(fingerprint);
        Ok(generation)
    }

    /// Drain every stripe's fresh puts in deterministic stripe order,
    /// stage them (offset allocation + journal encoding) under `queue`,
    /// and hand them to the disk writer. With `wait` the caller blocks
    /// until the staged bytes are durable; without it the disk lock is
    /// only tried — when another thread is mid-append the staged bytes
    /// are left for that writer, which re-drains the queue before
    /// releasing `io`, and this thread returns immediately. When nothing
    /// is buffered, staged, or queued for retry, returns without
    /// touching `io` at all.
    fn flush(&self, wait: bool) -> io::Result<()> {
        let mut entries: Vec<(u8, Arc<str>, Arc<[u8]>)> = Vec::new();
        for i in 0..STRIPES {
            let mut stripe = self.stripes[i].lock();
            entries.append(&mut stripe.fresh);
        }
        if entries.is_empty() && !self.flush_pending.load(Ordering::Acquire) {
            return Ok(());
        }
        if !entries.is_empty() {
            let mut q = self.queue.lock();
            for (region, domain, payload) in &entries {
                let r = *region as usize;
                let offset = q.shard_len[r];
                q.staged_shards[r].extend_from_slice(payload);
                q.shard_len[r] += payload.len() as u64;
                let record = encode_record(*region, domain, offset, payload);
                q.staged_journal.extend_from_slice(&record);
                q.staged_ledger.push(LedgerEntry {
                    region: *region,
                    domain: Arc::clone(domain),
                    offset,
                    len: payload.len() as u32,
                    payload_hash: content_hash(payload),
                });
            }
            // Set while still holding `queue` so the writer's
            // confirm-empty check can never miss these bytes.
            self.flush_pending.store(true, Ordering::Release);
        }
        if wait {
            let mut disk = self.io.lock();
            // lint:allow(blocking-under-lock) — `io` exists solely to order these appends
            self.write_out(&mut disk)
        } else {
            match self.io.try_lock() {
                Some(mut disk) => self.write_out(&mut disk),
                // An in-flight writer holds `io`; it re-drains the queue
                // before releasing, so our staged bytes are its problem.
                None => Ok(()),
            }
        }
    }

    /// The disk writer, run with `io` held: move staged bytes into the
    /// retry queue, append them (repairing any partial tail a previous
    /// failed append left behind), and repeat until a pass finds the
    /// staging queue empty — picking up anything other threads staged
    /// while we were appending. On error the unwritten bytes stay queued
    /// for the next attempt, so shard offsets already encoded into
    /// journal records remain valid across the failure.
    fn write_out(&self, disk: &mut DiskState) -> io::Result<()> {
        loop {
            {
                let mut q = self.queue.lock();
                for (r, buf) in q.staged_shards.iter_mut().enumerate() {
                    disk.retry_shards[r].append(buf);
                }
                disk.retry_journal.append(&mut q.staged_journal);
                disk.retry_ledger.append(&mut q.staged_ledger);
            }
            let queued =
                !disk.retry_journal.is_empty() || disk.retry_shards.iter().any(|b| !b.is_empty());
            if queued || disk.dirty {
                self.drain(disk)?;
            }
            let q = self.queue.lock();
            if q.staged_journal.is_empty() && q.staged_shards.iter().all(|b| b.is_empty()) {
                // Cleared under `queue`: a concurrent flush that stages
                // after this check will set the flag again itself.
                self.flush_pending.store(false, Ordering::Release);
                return Ok(());
            }
            // More bytes were staged while we were appending — go again.
        }
    }

    /// Append-and-sync the queued bytes through the backend, advancing
    /// the durable watermarks only after each file's sync returns — a
    /// backend whose sync *lies* advances them too, which is exactly the
    /// failure the recovery path and the crash-point fuzzer cover.
    fn drain(&self, disk: &mut DiskState) -> io::Result<()> {
        if disk.dirty {
            for r in 0..self.regions {
                self.truncate_back(&shard_path(&self.dir, r as u8), disk.durable_shard[r])?;
            }
            self.truncate_back(&self.dir.join(JOURNAL_FILE), disk.durable_journal)?;
        }
        disk.dirty = true; // an append interrupted below leaves a partial tail
        for r in 0..self.regions {
            if disk.retry_shards[r].is_empty() {
                continue;
            }
            let path = shard_path(&self.dir, r as u8);
            self.backend.append_file(&path, &disk.retry_shards[r])?;
            self.backend.sync_file(&path)?;
            disk.durable_shard[r] += disk.retry_shards[r].len() as u64;
            disk.retry_shards[r].clear();
        }
        if !disk.retry_journal.is_empty() {
            let path = self.dir.join(JOURNAL_FILE);
            self.backend.append_file(&path, &disk.retry_journal)?;
            self.backend.sync_file(&path)?;
            disk.durable_journal += disk.retry_journal.len() as u64;
            disk.retry_journal.clear();
            // Only now are these cells durable end to end — journal
            // records synced after the shard bytes they reference — so
            // only now may a seal index them.
            let retried = std::mem::take(&mut disk.retry_ledger);
            disk.ledger.extend(retried);
        }
        disk.dirty = false;
        Ok(())
    }

    /// Truncate a file that may not exist yet: a missing file already has
    /// nothing past any durable length, so `NotFound` is success.
    fn truncate_back(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.backend.truncate_file(path, len) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// Attach (or replace) a free-form text note, e.g. an epoch summary.
    pub fn write_note(&self, name: &str, text: &str) -> io::Result<()> {
        let path = self.note_path(name)?;
        self.backend.write_file(&path, text.as_bytes())?;
        self.backend.sync_file(&path)
    }

    /// Read back a note written by [`Store::write_note`].
    pub fn read_note(&self, name: &str) -> io::Result<Option<String>> {
        match self.backend.read_file(&self.note_path(name)?) {
            Ok(bytes) => Ok(Some(
                String::from_utf8(bytes).map_err(|_| invalid("note is not valid UTF-8"))?,
            )),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn note_path(&self, name: &str) -> io::Result<PathBuf> {
        note_path(&self.dir, name)
    }
}

impl StoreRead for Store {
    fn regions(&self) -> usize {
        Store::regions(self)
    }

    fn meta_value(&self, key: &str) -> Option<&str> {
        Store::meta_value(self, key)
    }

    fn read_note(&self, name: &str) -> io::Result<Option<String>> {
        Store::read_note(self, name)
    }

    fn payload(&self, region: u8, domain: &str) -> Option<Vec<u8>> {
        Store::get(self, region, domain)
    }

    fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        Store::for_each_region_entry(self, region, f)
    }
}

/// Validated path of a note attachment under a store directory. Shared
/// by the live store and the sealed snapshot.
pub(crate) fn note_path(dir: &Path, name: &str) -> io::Result<PathBuf> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(invalid("note names must be non-empty [a-z0-9-]"));
    }
    Ok(dir.join(format!("note-{name}")))
}

pub(crate) fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message.to_string())
}

/// Read and validate a store's meta file: the full pair list plus the
/// parsed region count. Shared by [`Store::open_with`] and [`fsck`].
pub(crate) fn read_store_config(
    dir: &Path,
    backend: &dyn StorageBackend,
) -> io::Result<(Vec<(String, String)>, usize)> {
    let bytes = backend
        .read_file(&dir.join(META_FILE))
        .map_err(|e| io::Error::new(e.kind(), format!("no store at {}: {e}", dir.display())))?;
    let meta_text =
        String::from_utf8(bytes).map_err(|_| invalid("store meta is not valid UTF-8"))?;
    let meta = parse_meta(&meta_text)?;
    let regions: usize = meta_lookup(&meta, "regions")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0 && n <= u8::MAX as usize)
        .ok_or_else(|| invalid("store meta has no valid 'regions' entry"))?;
    if meta_lookup(&meta, "format") != Some("1") {
        return Err(invalid("unsupported store format"));
    }
    Ok((meta, regions))
}

fn parse_meta(text: &str) -> io::Result<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| invalid("malformed store meta line"))?;
        pairs.push((k.to_string(), v.to_string()));
    }
    Ok(pairs)
}

fn meta_lookup<'a>(meta: &'a [(String, String)], key: &str) -> Option<&'a str> {
    meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use journal::MAGIC;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cookiewall-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(region: u8, domain: &str) -> Vec<u8> {
        format!("payload/{region}/{domain}").into_bytes()
    }

    fn truncate(path: &Path, len: u64) {
        FsBackend.truncate_file(path, len).unwrap();
    }

    #[test]
    fn roundtrip_after_checkpoint() {
        let dir = tempdir("roundtrip");
        let meta = vec![("scale".to_string(), "tiny".to_string())];
        let store = Store::create(&dir, 8, &meta).unwrap();
        assert!(store.put(0, "a.example", &payload(0, "a.example")).unwrap());
        assert!(store.put(3, "b.example", &payload(3, "b.example")).unwrap());
        assert!(store.put(0, "c.example", &payload(0, "c.example")).unwrap());
        store.checkpoint().unwrap();
        drop(store);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.meta_value("scale"), Some("tiny"));
        assert_eq!(store.get(0, "a.example"), Some(payload(0, "a.example")));
        assert_eq!(store.get(3, "b.example"), Some(payload(3, "b.example")));
        assert!(!store.contains(1, "a.example"));
        let mut domains = Vec::new();
        store.for_each_region_entry(0, &mut |domain, _| domains.push(domain.to_string()));
        assert_eq!(domains, ["a.example", "c.example"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A cell keeps the generation that first sealed it across later
    /// seals and a reopen, while cells added around it, in key order
    /// before, between and after the sealed ones, take their own.
    #[test]
    fn sealed_cells_keep_their_first_segment() {
        let dir = tempdir("segments");
        let meta = vec![("scale".to_string(), "tiny".to_string())];
        let put = |store: &Store, cells: &[(u8, &str)]| {
            for &(region, domain) in cells {
                assert!(store.put(region, domain, &payload(region, domain)).unwrap());
            }
        };
        let store = Store::create(&dir, 2, &meta).unwrap();
        put(
            &store,
            &[(0, "b.example"), (0, "d.example"), (1, "a.example")],
        );
        assert_eq!(store.seal().unwrap(), 1);
        put(
            &store,
            &[
                (0, "a.example"),
                (0, "c.example"),
                (0, "e.example"),
                (1, "b.example"),
            ],
        );
        assert_eq!(store.seal().unwrap(), 2);
        drop(store);
        let store = Store::open(&dir).unwrap();
        put(&store, &[(1, "0.example")]);
        assert_eq!(store.seal().unwrap(), 3);
        let snapshot = StoreSnapshot::open(&dir).unwrap();
        let segments: Vec<(u8, &str, Option<u64>)> = [
            (0, "a.example"),
            (0, "b.example"),
            (0, "c.example"),
            (0, "d.example"),
            (0, "e.example"),
            (1, "0.example"),
            (1, "a.example"),
            (1, "b.example"),
        ]
        .into_iter()
        .map(|(region, domain)| (region, domain, snapshot.segment_of(region, domain)))
        .collect();
        assert_eq!(
            segments,
            vec![
                (0, "a.example", Some(2)),
                (0, "b.example", Some(1)),
                (0, "c.example", Some(2)),
                (0, "d.example", Some(1)),
                (0, "e.example", Some(2)),
                (1, "0.example", Some(3)),
                (1, "a.example", Some(1)),
                (1, "b.example", Some(2)),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_is_rejected() {
        let dir = tempdir("dup");
        let store = Store::create(&dir, 2, &[]).unwrap();
        assert!(store.put(1, "x.example", b"first").unwrap());
        assert!(!store.put(1, "x.example", b"second").unwrap());
        assert_eq!(store.get(1, "x.example"), Some(b"first".to_vec()));
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(!store.put(1, "x.example", b"third").unwrap());
        assert_eq!(store.get(1, "x.example"), Some(b"first".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_without_checkpoint_loses_only_the_tail() {
        let dir = tempdir("abort");
        let store = Store::create(&dir, 2, &[]).unwrap();
        store.put(0, "kept.example", b"kept").unwrap();
        store.checkpoint().unwrap();
        store.put(0, "lost.example", b"lost").unwrap();
        drop(store); // simulated kill: buffered tail never flushed

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(0, "kept.example"));
        assert!(!store.contains(0, "lost.example"));
        // The lost task can be recomputed and stored again.
        assert!(store.put(0, "lost.example", b"lost").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_cadence_flushes() {
        let dir = tempdir("cadence");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.set_checkpoint_every(0); // flush on every put
        store.put(0, "a.example", b"a").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(store.contains(0, "a.example"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_checkpoint_is_a_no_op() {
        let dir = tempdir("emptyflush");
        let store = Store::create(&dir, 2, &[]).unwrap();
        store.checkpoint().unwrap();
        store.checkpoint().unwrap();
        // Nothing was buffered, so no journal or shard file was created.
        assert!(!dir.join(JOURNAL_FILE).exists());
        assert!(!shard_path(&dir, 0).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_journal_flush_keeps_bytes_queued_for_retry() {
        let dir = tempdir("retry-journal");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.put(0, "a.example", &payload(0, "a.example")).unwrap();
        // Sabotage: a directory at the journal path makes the append fail
        // *after* the shard bytes already landed.
        fs::create_dir(dir.join(JOURNAL_FILE)).unwrap();
        assert!(store.checkpoint().is_err());
        // Keep writing through the outage: these offsets must stay valid.
        store.put(0, "b.example", &payload(0, "b.example")).unwrap();
        assert!(store.checkpoint().is_err(), "outage persists");
        fs::remove_dir(dir.join(JOURNAL_FILE)).unwrap();
        store.checkpoint().unwrap();
        drop(store);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "no record lost across the failed flush");
        assert_eq!(store.get(0, "a.example"), Some(payload(0, "a.example")));
        assert_eq!(store.get(0, "b.example"), Some(payload(0, "b.example")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_shard_flush_preserves_journal_offsets() {
        let dir = tempdir("retry-shard");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.put(0, "a.example", &payload(0, "a.example")).unwrap();
        // Sabotage the shard file itself: nothing reaches disk at all.
        fs::create_dir(shard_path(&dir, 0)).unwrap();
        assert!(store.checkpoint().is_err());
        store.put(0, "b.example", &payload(0, "b.example")).unwrap();
        fs::remove_dir(shard_path(&dir, 0)).unwrap();
        store.checkpoint().unwrap();
        drop(store);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(0, "b.example"), Some(payload(0, "b.example")));
        // The retried bytes landed in original put order, exactly once.
        let mut want = payload(0, "a.example");
        want.extend(payload(0, "b.example"));
        assert_eq!(fs::read(shard_path(&dir, 0)).unwrap(), want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_journal_record_is_truncated() {
        let dir = tempdir("torn");
        let store = Store::create(&dir, 2, &[]).unwrap();
        for d in ["a.example", "b.example", "c.example"] {
            store.put(0, d, &payload(0, d)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);

        // Tear the last record: chop a few bytes off the journal tail.
        let journal = dir.join(JOURNAL_FILE);
        let len = fs::metadata(&journal).unwrap().len();
        truncate(&journal, len - 5);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "only the torn record is dropped");
        assert!(store.contains(0, "a.example"));
        assert!(store.contains(0, "b.example"));
        assert!(!store.contains(0, "c.example"));
        // The torn task is storable again, and the repaired store reopens
        // cleanly at full size.
        assert!(store.put(0, "c.example", &payload(0, "c.example")).unwrap());
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flush order is stripe order (then put order within a stripe), not
    /// put order: the domains sorted by their on-disk position.
    fn flush_order(domains: &[&str]) -> Vec<String> {
        let mut ordered: Vec<(usize, usize, String)> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (stripe_of(d), i, d.to_string()))
            .collect();
        ordered.sort();
        ordered.into_iter().map(|(_, _, d)| d).collect()
    }

    #[test]
    fn corrupt_shard_byte_drops_only_that_cell() {
        let dir = tempdir("corrupt");
        let store = Store::create(&dir, 1, &[]).unwrap();
        let domains = ["a.example", "b.example", "c.example"];
        for d in domains {
            store.put(0, d, &payload(0, d)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);

        // Flip a byte inside the payload flushed second: with tolerant
        // replay only that cell is dropped — the clean record *after* it
        // survives (pre-PR-7 recovery threw away the whole tail).
        let order = flush_order(&domains);
        let shard = shard_path(&dir, 0);
        let mut bytes = fs::read(&shard).unwrap();
        let first_len = payload(0, &order[0]).len();
        bytes[first_len + 2] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert!(store.contains(0, &order[0]), "clean prefix survives");
        assert!(!store.contains(0, &order[1]), "corrupt record dropped");
        assert!(store.contains(0, &order[2]), "clean suffix survives too");
        assert_eq!(store.get(0, &order[2]), Some(payload(0, &order[2])));
        // The dropped cell is storable again; after a re-put the store
        // reopens at full size with the fresh payload winning.
        assert!(store.put(0, &order[1], &payload(0, &order[1])).unwrap());
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(0, &order[1]), Some(payload(0, &order[1])));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_journal_is_fully_truncated() {
        let dir = tempdir("garbage");
        let store = Store::create(&dir, 1, &[]).unwrap();
        drop(store);
        fs::write(dir.join(JOURNAL_FILE), b"not a journal at all").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        drop(store);
        assert_eq!(fs::read(dir.join(JOURNAL_FILE)).unwrap(), b"");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_journal_opens_empty() {
        let dir = tempdir("zerolen");
        let store = Store::create(&dir, 2, &[]).unwrap();
        drop(store);
        fs::write(dir.join(JOURNAL_FILE), b"").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        // And the store still accepts work afterwards.
        assert!(store.put(0, "a.example", b"a").unwrap());
        store.checkpoint().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn magic_only_journal_is_truncated_to_empty() {
        let dir = tempdir("magiconly");
        let store = Store::create(&dir, 2, &[]).unwrap();
        drop(store);
        // Four valid magic bytes and nothing else: a record torn at the
        // earliest possible point.
        fs::write(dir.join(JOURNAL_FILE), MAGIC).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        drop(store);
        assert_eq!(fs::read(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_record_torn_yields_zero_cells() {
        let dir = tempdir("firsttorn");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.put(0, "a.example", &payload(0, "a.example")).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        // Tear the *first* (and only) record mid-way: the valid prefix is
        // zero cells long.
        let journal = dir.join(JOURNAL_FILE);
        let len = fs::metadata(&journal).unwrap().len();
        truncate(&journal, len / 2);

        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty(), "valid prefix is zero cells");
        // The orphaned shard bytes were reclaimed, so a re-put starts at
        // offset zero again and the store round-trips.
        assert_eq!(fs::read(shard_path(&dir, 0)).unwrap().len(), 0);
        assert!(store.put(0, "a.example", &payload(0, "a.example")).unwrap());
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(0, "a.example"), Some(payload(0, "a.example")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_journal_bit_rot_resyncs_on_the_next_record() {
        let dir = tempdir("rotjournal");
        let store = Store::create(&dir, 1, &[]).unwrap();
        let domains = ["a.example", "b.example", "c.example"];
        for d in domains {
            store.put(0, d, &payload(0, d)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);

        // Flip one byte inside the *second* journal record: its record
        // hash fails, the scanner resyncs on the third record's magic.
        let order = flush_order(&domains);
        let journal = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&journal).unwrap();
        let rec_len = |d: &str| journal::RECORD_OVERHEAD + d.len();
        let second_start = rec_len(&order[0]);
        bytes[second_start + 8] ^= 0x01;
        fs::write(&journal, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert!(store.contains(0, &order[0]));
        assert!(!store.contains(0, &order[1]), "rotted record dropped");
        assert!(store.contains(0, &order[2]), "resynced past the rot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store_and_bad_meta() {
        let dir = tempdir("create");
        let _store = Store::create(&dir, 1, &[]).unwrap();
        assert!(Store::create(&dir, 1, &[]).is_err());
        let dir2 = tempdir("create-meta");
        let bad = vec![("has=equals".to_string(), "v".to_string())];
        assert!(Store::create(&dir2, 1, &bad).is_err());
        let reserved = vec![("regions".to_string(), "9".to_string())];
        assert!(Store::create(&dir2, 1, &reserved).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn notes_roundtrip() {
        let dir = tempdir("notes");
        let store = Store::create(&dir, 1, &[]).unwrap();
        assert_eq!(store.read_note("summary").unwrap(), None);
        store.write_note("summary", "walls=3\n").unwrap();
        assert_eq!(
            store.read_note("summary").unwrap().as_deref(),
            Some("walls=3\n")
        );
        assert!(store.write_note("../escape", "x").is_err());
        assert!(store.write_note("", "x").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_directory_fails() {
        let dir = tempdir("missing");
        assert!(Store::open(&dir).is_err());
    }
}
