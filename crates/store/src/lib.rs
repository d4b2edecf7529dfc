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
//! <dir>/index.tmp          a slot being written, renamed over its slot
//!                          once synced
//! <dir>/note-<name>        free-form text attachments (epoch summaries),
//!                          replaced like a slot through note-<name>.tmp
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
//! ## Write path
//!
//! The in-memory side is one `Buffer` behind one mutex, and it holds
//! keys, not payloads, with one copy of each domain: a domain table gives
//! each distinct domain a dense id and holds its only `Arc<str>`, and
//! each region keeps a column of `u32` ledger positions indexed by id,
//! `u32::MAX` where it has not stored the domain. A put allocates its
//! domain only when no region has stored it yet. The puts accepted since
//! the last flush keep the table's domain and their payloads, in put
//! order, until a flush takes them. A flush takes those puts and
//! advances the buffer's `flushed` watermark, gives each the shard offset
//! after every byte already durable or queued for retry, encodes their
//! journal records, and appends — so the journal lands in put order, its
//! bytes are a pure function of the flushed sequence, and per-region
//! shard offsets stay monotone in journal order. Positions below the
//! watermark index the durable ledger followed by the entries a failed
//! flush left queued; that order holds because a failed flush retries in
//! put order.
//!
//! ## Read path
//!
//! [`Store::get`] reads a payload back from wherever its bytes are. It
//! copies the cell's position out under the buffer lock (one table probe
//! and one column read; or the payload itself, while no flush has taken
//! it) and releases the lock. Under the io lock it finds the ledger
//! entry, and slices the queued retry bytes when the extent is not yet
//! durable. A durable extent is read after the io lock is released, with
//! [`StorageBackend::read_range`], and handed out only if it hashes to
//! the entry's payload hash; otherwise `get` returns `None` and the
//! caller recomputes the cell. A region walk goes through the table in
//! domain order and skips the domains the region's column marks absent.
//! A read never holds two locks, and no backend call runs under a lock.
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
//! An auto-checkpoint triggered by `put` only *tries* to take the
//! disk-writer lock. If another thread is already appending, the puts
//! stay buffered for the next flush and the putting worker returns
//! immediately — writers never wait on disk. An explicit
//! [`Store::checkpoint`] blocks until everything buffered is durable,
//! which is what its callers rely on.
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
//! The seal walks the index, not the ledger: under the buffer lock it
//! copies the table's domain order and each region's positions below the
//! durable ledger's length, which are exactly the cells' last durable
//! entries because `put` is exactly-once. With the buffer released it
//! streams the slot into a temp file in fixed pieces, reading each
//! position's ledger entry in place, then syncs it and renames it over
//! the slot, so it holds no copy of the ledger or of the slot, and a
//! reader only ever sees a whole slot. [`StoreSnapshot`] opens that
//! sealed view straight from disk — it never takes the writer's buffer
//! or io locks, so an always-on query service reads at full speed while
//! a new epoch ingests. The [`StoreRead`] trait is the common read
//! surface of the live store and the snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod backend;
mod index;
mod journal;
mod recovery;
#[cfg(test)]
mod slot_oracle;
mod snapshot;
mod state;

pub use backend::{DiskFaultConfig, FaultyBackend, FsBackend, MemBackend, StorageBackend};
pub use recovery::{fsck, quarantine_ledger, FsckReport, QuarantinedCell};
pub use snapshot::StoreSnapshot;

use httpsim::content_hash;
use index::{IndexEntry, SlotState, INDEX_SLOTS};
use journal::{encode_record, shard_path, JOURNAL_FILE, META_FILE, SHARD_DIR};
use parking_lot::Mutex;
use state::{next_position, Buffer, DiskState, Extent, LedgerEntry, Located, ABSENT};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

    /// Visit every `(domain, payload)` of one region in domain order.
    /// The callback runs with no lock of the store held.
    fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8]));
}

/// Seal-side state, guarded by `Store::seal_state`: the next index
/// generation and what the previous seal looked like.
struct SealState {
    /// Generation the next seal will write.
    next_generation: u64,
    /// `(ledger length, durable shard lengths)` at the last seal — when
    /// unchanged, sealing again skips the slot write entirely.
    fingerprint: Option<(usize, Vec<u64>)>,
}

/// The persistent crawl store. Thread-safe: workers `put` concurrently.
///
/// Lock order (see DESIGN.md §8): `buffer` is never held while taking
/// another lock; a flush takes `buffer` briefly under `io`, and a seal
/// holds `seal_state` and then `io` from its flush to its slot's rename
/// — the may-hold-while-acquiring graph is `io → buffer` plus
/// `seal_state → io`, which stays acyclic. A read takes `buffer`, then
/// `io`, one at a time, and reads the disk with neither held. A put
/// never waits on the seal: its auto-flush only `try_lock`s `io` and
/// defers.
pub struct Store {
    dir: PathBuf,
    regions: usize,
    /// The meta pairs as a map, built once at create/open so resume
    /// validation does not linear-scan per lookup.
    meta_map: BTreeMap<String, String>,
    /// Every byte of disk IO goes through here; [`FsBackend`] by default.
    backend: Arc<dyn StorageBackend>,
    checkpoint_every: AtomicUsize,
    /// The in-memory side: every cell's ledger position, plus the puts
    /// not yet taken by a flush.
    buffer: Mutex<Buffer>,
    /// Disk-side flush state. Single on purpose: one appender at a time
    /// keeps file appends in the same order as their journal offsets.
    /// Writers never *wait* here — an auto-checkpoint only `try_lock`s,
    /// leaving its puts buffered for the next flush.
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
            buffer: Mutex::new(Buffer::new(regions)),
            io: Mutex::new(DiskState::new(vec![0; regions], 0, Vec::new())),
            seal_state: Mutex::new(SealState {
                next_generation: 1,
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
        let replay = recovery::replay(&journal, &shards)?;

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
        let mut ledger = replay.ledger;
        if let Some(mut file) = best {
            // Every writer emits entries in key order; sorting keeps the
            // merge from depending on it.
            file.entries
                .sort_unstable_by(|a, b| (a.region, &a.domain).cmp(&(b.region, &b.domain)));
            stamp_segments(regions, &replay.buffer, &mut ledger, &file.entries);
        }

        Ok(Store {
            dir: dir.to_path_buf(),
            regions,
            meta_map: meta.into_iter().collect(),
            backend,
            checkpoint_every: AtomicUsize::new(DEFAULT_CHECKPOINT_EVERY),
            buffer: Mutex::new(replay.buffer),
            io: Mutex::new(DiskState::new(replay.high_water, replay.keep_len, ledger)),
            seal_state: Mutex::new(SealState {
                next_generation,
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
    /// a result is never duplicated or overwritten). When the
    /// auto-checkpoint cadence is reached the put flushes — unless
    /// another thread is mid-append, in which case the puts stay
    /// buffered for the next flush and this one returns without waiting.
    pub fn put(&self, region: u8, domain: &str, payload: &[u8]) -> io::Result<bool> {
        if (region as usize) >= self.regions {
            return Err(invalid("region index out of range"));
        }
        if domain.len() > u16::MAX as usize {
            return Err(invalid("domain too long for a journal record"));
        }
        let due = {
            let mut buffer = self.buffer.lock();
            if buffer.position(region, domain).is_some() {
                return Ok(false);
            }
            let position = next_position(buffer.flushed + buffer.fresh.len()).ok_or_else(|| {
                invalid("store full: a ledger position must be a u32 below u32::MAX")
            })?;
            let domain = buffer.insert(region, domain, position);
            buffer.fresh.push((region, domain, payload.into()));
            buffer.fresh.len() >= self.checkpoint_every.load(Ordering::Relaxed).max(1)
        };
        if due {
            if let Some(mut disk) = self.io.try_lock() {
                self.write_out(&mut disk)?;
            }
        }
        Ok(true)
    }

    /// Fetch a stored payload: a copy of the buffered or queued bytes,
    /// or the durable extent read back from its shard. A durable extent
    /// that no longer hashes to its ledger entry reads as `None`, so the
    /// caller recomputes the cell. Holds one lock at a time and reads
    /// the shard with none held (see the module docs on the read path).
    pub fn get(&self, region: u8, domain: &str) -> Option<Vec<u8>> {
        let position = {
            let buffer = self.buffer.lock();
            let position = buffer.position(region, domain)?;
            if let Some(payload) = buffer.unflushed(position) {
                return Some(payload);
            }
            position
        };
        let located = {
            let disk = self.io.lock();
            disk.locate(position)?
        };
        match located {
            Located::Copied(bytes) => Some(bytes),
            Located::Durable(extent) => self.read_extent(region, extent),
        }
    }

    /// Read a durable extent back from its region shard, `None` unless
    /// the bytes are exactly the payload its ledger entry hashed.
    fn read_extent(&self, region: u8, extent: Extent) -> Option<Vec<u8>> {
        let path = shard_path(&self.dir, region);
        let bytes = self
            .backend
            .read_range(&path, extent.offset, extent.len as usize)
            .ok()?;
        extent.holds(&bytes).then_some(bytes)
    }

    /// Is this task already stored?
    pub fn contains(&self, region: u8, domain: &str) -> bool {
        let buffer = self.buffer.lock();
        buffer.position(region, domain).is_some()
    }

    /// Total stored task results across all regions.
    pub fn len(&self) -> usize {
        let buffer = self.buffer.lock();
        let regions = 0..self.regions as u8;
        regions.map(|r| buffer.walk(r).count()).sum()
    }

    /// Stored task results of one region, counted from the index: no
    /// payload is read.
    pub fn region_len(&self, region: u8) -> usize {
        let buffer = self.buffer.lock();
        buffer.walk(region).count()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every `(domain, payload)` of one region in domain order. The
    /// walk copies the region's positions under the buffer lock, so a
    /// cell put concurrently is either visited or not, exactly as if the
    /// walk ran before or after the put. It then locates them under the
    /// io lock and, with no lock held, reads the region's shard once and
    /// hands out only extents that hash to their ledger entries. The
    /// callback runs with no lock held.
    pub fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        let cells = {
            let buffer = self.buffer.lock();
            buffer.region_cells(region)
        };
        let cells: Vec<(Arc<str>, Located)> = {
            let disk = self.io.lock();
            cells
                .into_iter()
                .filter_map(|(domain, position, unflushed)| {
                    let located = match unflushed {
                        Some(bytes) => Located::Copied(bytes),
                        None => disk.locate(position)?,
                    };
                    Some((domain, located))
                })
                .collect()
        };
        let end = cells
            .iter()
            .filter_map(|(_, located)| match located {
                Located::Durable(extent) => Some(extent.offset + extent.len as u64),
                Located::Copied(_) => None,
            })
            .max();
        let path = shard_path(&self.dir, region);
        let shard = end.and_then(|end| self.backend.read_range(&path, 0, end as usize).ok());
        for (domain, located) in &cells {
            let payload = match located {
                Located::Copied(bytes) => Some(&bytes[..]),
                Located::Durable(extent) => shard.as_deref().and_then(|shard| {
                    let start = extent.offset as usize;
                    let bytes = shard.get(start..start + extent.len as usize)?;
                    extent.holds(bytes).then_some(bytes)
                }),
            };
            if let Some(payload) = payload {
                f(domain, payload);
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
    /// sealed views always live in different slots, and each slot is
    /// replaced by a rename, so no reader ever sees a torn one.
    pub fn seal(&self) -> io::Result<u64> {
        let mut seal = self.seal_state.lock();
        // `io` stays held from the flush to the rename, so the ledger is
        // read in place. No put waits on it: a cadence flush only
        // `try_lock`s `io` and leaves its puts buffered.
        let mut disk = self.io.lock();
        // lint:allow(blocking-under-lock) — `seal_state` and `io` exist to order these appends and slot writes; puts only `try_lock` `io`
        self.write_out(&mut disk)?;
        let disk = &mut *disk;
        if seal
            .fingerprint
            .as_ref()
            .is_some_and(|(len, shards)| *len == disk.ledger.len() && *shards == disk.durable_shard)
        {
            return Ok(seal.next_generation - 1);
        }
        let generation = seal.next_generation;
        // The cells to index are the positions below the durable ledger's
        // length: `put` is exactly-once and replay keeps each cell's last
        // record, so each is its cell's last durable entry, and a put that
        // arrived after the flush lies past them. They are copied under
        // `buffer` and walked with it released.
        let (domains, columns) = {
            let buffer = self.buffer.lock();
            buffer.ordered(disk.ledger.len())
        };
        let sealed = || columns.iter().flatten().filter(|&&p| p != ABSENT);
        let ledger = &disk.ledger;
        let entries = (0u8..).zip(&columns).flat_map(|(region, column)| {
            let cells = domains.iter().zip(column).filter(|(_, &p)| p != ABSENT);
            cells.map(move |(domain, &position)| {
                let cell = &ledger[position as usize];
                IndexEntry {
                    region,
                    domain: &**domain,
                    segment: if cell.segment == 0 {
                        generation
                    } else {
                        cell.segment
                    },
                    offset: cell.offset,
                    len: cell.len,
                    payload_hash: cell.payload_hash,
                }
            })
        });
        let slot = (generation % INDEX_SLOTS as u64) as usize;
        // lint:allow(blocking-under-lock) — `seal_state` and `io` exist to order these appends and slot writes; puts only `try_lock` `io`
        index::write_slot(
            &self.dir,
            self.backend.as_ref(),
            slot,
            generation,
            &disk.durable_shard,
            sealed().count() as u64,
            entries,
        )?;
        // Only a published slot names its generation: stamp the entries
        // it indexed for the first time.
        for &position in sealed() {
            let cell = &mut disk.ledger[position as usize];
            if cell.segment == 0 {
                cell.segment = generation;
            }
        }
        seal.next_generation += 1;
        seal.fingerprint = Some((disk.ledger.len(), disk.durable_shard.clone()));
        Ok(generation)
    }

    /// The disk writer, run with `io` held: take the buffered puts,
    /// give each the shard offset after everything durable or queued,
    /// encode its journal record after anything a failed flush left
    /// queued, and append (repairing any partial tail a previous failed
    /// append left behind). On error the unwritten bytes stay queued for
    /// the next attempt, so shard offsets already encoded into journal
    /// records remain valid across the failure.
    fn write_out(&self, disk: &mut DiskState) -> io::Result<()> {
        // The taken puts' positions now index `retry_ledger`, filled below
        // before `io` is released, so a reader that finds them flushed
        // finds them on the disk side.
        let fresh = {
            let mut buffer = self.buffer.lock();
            buffer.flushed += buffer.fresh.len();
            std::mem::take(&mut buffer.fresh)
        };
        for (region, domain, payload) in fresh {
            let r = region as usize;
            let offset = disk.durable_shard[r] + disk.retry_shards[r].len() as u64;
            disk.retry_shards[r].extend_from_slice(&payload);
            let record = encode_record(region, &domain, offset, &payload);
            disk.retry_journal.extend_from_slice(&record);
            disk.retry_ledger.push(LedgerEntry {
                region,
                offset,
                len: payload.len() as u32,
                payload_hash: content_hash(&payload),
                segment: 0,
            });
        }
        let queued =
            !disk.retry_journal.is_empty() || disk.retry_shards.iter().any(|b| !b.is_empty());
        if queued || disk.dirty {
            self.drain(disk)?;
        }
        Ok(())
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
    /// The note is written to `note-<name>.tmp` and renamed over its
    /// path once synced, so a crash leaves the old note or the new one.
    pub fn write_note(&self, name: &str, text: &str) -> io::Result<()> {
        let path = self.note_path(name)?;
        let temp = path.with_extension("tmp");
        backend::publish(self.backend.as_ref(), &temp, &path, |sink| {
            sink(text.as_bytes())
        })
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

/// Give each replayed cell's ledger entry the segment `sealed` (a
/// slot's entries, in `(region, domain)` order) recorded for it, when the
/// slot names that same entry: offsets are unique within a shard, so the
/// same offset is the same entry. The table walks each region in domain
/// order, so one merge pass pairs the two.
fn stamp_segments(
    regions: usize,
    replayed: &Buffer,
    ledger: &mut [LedgerEntry],
    sealed: &[IndexEntry],
) {
    let mut sealed = sealed.iter().peekable();
    for region in 0..regions as u8 {
        for (domain, position) in replayed.walk(region) {
            let key = (region, &**domain);
            while sealed.next_if(|e| (e.region, &*e.domain) < key).is_some() {}
            let cell = &mut ledger[position as usize];
            let same = |e: &&&IndexEntry| (e.region, &*e.domain) == key && e.offset == cell.offset;
            if let Some(e) = sealed.peek().filter(same) {
                cell.segment = e.segment;
            }
        }
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
#[allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]
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

    /// Every region that stores a domain shares the table's one copy of
    /// it, in a live store and in a reopened one.
    #[test]
    fn regions_share_one_copy_of_each_domain() {
        let dir = tempdir("shared");
        let store = Store::create(&dir, 3, &[]).unwrap();
        for (region, domain) in [(0, "a.example"), (2, "a.example"), (2, "b.example")] {
            store.put(region, domain, &payload(region, domain)).unwrap();
        }
        let shared = |store: &Store| {
            let buffer = store.buffer.lock();
            let (first, last) = (buffer.region_cells(0), buffer.region_cells(2));
            assert_eq!((first.len(), last.len()), (1, 2));
            Arc::ptr_eq(&first[0].0, &last[0].0)
        };
        assert!(shared(&store), "one allocation for a.example");
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(shared(&store), "replay shares it too");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A domain stored in one region only is in no other region: not to
    /// `get`, `contains`, `region_len` or a region walk, before or after
    /// a flush and a reopen.
    #[test]
    fn a_domain_of_one_region_is_absent_from_the_others() {
        let dir = tempdir("absent");
        let store = Store::create(&dir, 3, &[]).unwrap();
        store.set_checkpoint_every(usize::MAX);
        store.put(0, "a.example", &payload(0, "a.example")).unwrap();
        store.put(1, "b.example", &payload(1, "b.example")).unwrap();
        let check = |store: &Store| {
            for region in 0..3u8 {
                let mut walked = Vec::new();
                store.for_each_region_entry(region, &mut |d, _| walked.push(d.to_string()));
                let want: &[&str] = match region {
                    0 => &["a.example"],
                    1 => &["b.example"],
                    _ => &[],
                };
                assert_eq!(walked, want, "region {region}");
                assert_eq!(store.region_len(region), want.len());
                for domain in ["a.example", "b.example"] {
                    let stored = want.contains(&domain);
                    assert_eq!(store.contains(region, domain), stored);
                    assert_eq!(store.get(region, domain).is_some(), stored);
                }
            }
            assert_eq!(store.len(), 2);
        };
        check(&store);
        store.checkpoint().unwrap();
        check(&store);
        drop(store);
        check(&Store::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A cell keeps the generation that first sealed it across later
    /// seals and reopens, while cells added around it, in key order
    /// before, between and after the sealed ones, take their own, and a
    /// cell re-put after a reopen takes the generation that seals it.
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
        let cells = [
            (0, "a.example"),
            (0, "b.example"),
            (0, "c.example"),
            (0, "d.example"),
            (0, "e.example"),
            (1, "0.example"),
            (1, "a.example"),
            (1, "b.example"),
        ];
        let segments = || {
            let snapshot = StoreSnapshot::open(&dir).unwrap();
            cells.map(|(region, domain)| snapshot.segment_of(region, domain).unwrap_or(0))
        };
        assert_eq!(segments(), [2, 1, 2, 1, 2, 3, 1, 2]);

        // Re-put (0, b.example) as a re-crawl does after a quarantine: a
        // second journal record for the cell, at a new offset.
        drop(store);
        let shard_len = fs::metadata(shard_path(&dir, 0)).unwrap().len();
        FsBackend.append_file(&shard_path(&dir, 0), b"new").unwrap();
        let record = encode_record(0, "b.example", shard_len, b"new");
        FsBackend
            .append_file(&dir.join(JOURNAL_FILE), &record)
            .unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.seal().unwrap(), 4);
        assert_eq!(segments(), [2, 4, 2, 1, 2, 3, 1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal holding two valid records for one cell replays the
    /// later one, and the seal indexes that same record.
    #[test]
    fn seal_indexes_the_last_record_of_a_cell() {
        let dir = tempdir("lastwins");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.put(0, "a.example", b"old").unwrap();
        store.put(0, "b.example", b"b").unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let shard_len = fs::metadata(shard_path(&dir, 0)).unwrap().len();
        FsBackend.append_file(&shard_path(&dir, 0), b"new").unwrap();
        let record = encode_record(0, "a.example", shard_len, b"new");
        FsBackend
            .append_file(&dir.join(JOURNAL_FILE), &record)
            .unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(0, "a.example"), Some(b"new".to_vec()));
        store.seal().unwrap();
        let snapshot = StoreSnapshot::open(&dir).unwrap();
        assert_eq!(snapshot.payload(0, "a.example"), Some(b"new".to_vec()));
        assert_eq!(snapshot.payload(0, "b.example"), Some(b"b".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A put no flush has taken yet reads back from the buffer, and the
    /// same bytes read back from the shard once a checkpoint lands them.
    #[test]
    fn get_reads_an_unflushed_put_then_its_durable_extent() {
        let dir = tempdir("unflushed");
        let store = Store::create(&dir, 2, &[]).unwrap();
        store.set_checkpoint_every(usize::MAX);
        store.put(1, "a.example", &payload(1, "a.example")).unwrap();
        assert!(!shard_path(&dir, 1).exists(), "nothing flushed yet");
        assert_eq!(store.get(1, "a.example"), Some(payload(1, "a.example")));
        assert_eq!(store.get(0, "a.example"), None);
        assert_eq!(store.get(9, "a.example"), None, "no such region");
        store.checkpoint().unwrap();
        store.put(1, "b.example", &payload(1, "b.example")).unwrap();
        for domain in ["a.example", "b.example"] {
            assert_eq!(store.get(1, domain), Some(payload(1, domain)));
        }
        let mut walked = Vec::new();
        store.for_each_region_entry(1, &mut |domain, bytes| {
            walked.push((domain.to_string(), bytes.to_vec()))
        });
        let want: Vec<(String, Vec<u8>)> = ["a.example", "b.example"]
            .map(|d| (d.to_string(), payload(1, d)))
            .into();
        assert_eq!(walked, want, "durable and buffered cells, in domain order");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A bit flipped in a durable extent after the checkpoint makes `get`
    /// return `None`, never other bytes, and the region walk skip that
    /// cell; the cells around it still read back exactly.
    #[test]
    fn a_rotted_durable_extent_reads_as_absent() {
        let dir = tempdir("rotread");
        let store = Store::create(&dir, 1, &[]).unwrap();
        let domains = ["a.example", "b.example", "c.example"];
        for d in domains {
            store.put(0, d, &payload(0, d)).unwrap();
        }
        store.checkpoint().unwrap();
        assert_eq!(store.get(0, domains[1]), Some(payload(0, domains[1])));

        let shard = shard_path(&dir, 0);
        let mut bytes = fs::read(&shard).unwrap();
        bytes[payload(0, domains[0]).len() + 3] ^= 0x10;
        fs::write(&shard, &bytes).unwrap();

        assert_eq!(store.get(0, domains[1]), None);
        assert!(store.contains(0, domains[1]), "the key is still stored");
        for d in [domains[0], domains[2]] {
            assert_eq!(store.get(0, d), Some(payload(0, d)));
        }
        let mut walked = Vec::new();
        store.for_each_region_entry(0, &mut |domain, bytes| {
            assert_eq!(bytes, payload(0, domain));
            walked.push(domain.to_string());
        });
        assert_eq!(walked, [domains[0], domains[2]]);
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

    /// A cadence flush that finds another thread mid-append leaves its
    /// puts buffered instead of waiting; the next checkpoint makes them
    /// durable.
    #[test]
    fn put_defers_its_flush_while_io_is_held() {
        let dir = tempdir("deferred");
        let store = Store::create(&dir, 1, &[]).unwrap();
        store.set_checkpoint_every(0);
        {
            let _writer = store.io.lock();
            assert!(store.put(0, "a.example", b"a").unwrap());
            assert!(!dir.join(JOURNAL_FILE).exists());
            assert!(!shard_path(&dir, 0).exists());
        }
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(0, "a.example"), Some(b"a".to_vec()));
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
        let shard = shard_path(&dir, 0);
        let mut bytes = fs::read(&shard).unwrap();
        let first_len = payload(0, domains[0]).len();
        bytes[first_len + 2] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert!(store.contains(0, domains[0]), "clean prefix survives");
        assert!(!store.contains(0, domains[1]), "corrupt record dropped");
        assert!(store.contains(0, domains[2]), "clean suffix survives too");
        assert_eq!(store.get(0, domains[2]), Some(payload(0, domains[2])));
        // The dropped cell is storable again; after a re-put the store
        // reopens at full size with the fresh payload winning.
        assert!(store.put(0, domains[1], &payload(0, domains[1])).unwrap());
        store.checkpoint().unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(0, domains[1]), Some(payload(0, domains[1])));
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
        let journal = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&journal).unwrap();
        let rec_len = |d: &str| journal::RECORD_OVERHEAD + d.len();
        let second_start = rec_len(domains[0]);
        bytes[second_start + 8] ^= 0x01;
        fs::write(&journal, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert!(store.contains(0, domains[0]));
        assert!(!store.contains(0, domains[1]), "rotted record dropped");
        assert!(store.contains(0, domains[2]), "resynced past the rot");
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
