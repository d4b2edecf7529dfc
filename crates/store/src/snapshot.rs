//! [`StoreSnapshot`]: the lock-free sealed read path.
//!
//! A snapshot opens the view a [`crate::Store::seal`] froze: it reads
//! the store config, both index slots, and the sealed prefix of every
//! shard straight from disk — it never takes the writer's stripe, queue
//! or io locks, so any number of readers run at full speed while a new
//! epoch ingests into the same directory.
//!
//! Slot selection is defensive end to end. Both slots are parsed; a
//! candidate is trusted only when every entry's extent lies inside the
//! shard bytes read *and* the payload bytes hash to the entry's recorded
//! `payload_hash` — a slot that survived its own checksum but points at
//! extents a crash-recovery truncated away is rejected, and the reader
//! falls back to the older slot. A store that was never sealed opens as
//! an empty snapshot at generation 0; a store whose every existing slot
//! is damaged is an error (`fsck` rewrites the slots from the journal).

use crate::backend::{FsBackend, StorageBackend};
use crate::index::{read_slots, IndexFile, SlotState};
use crate::journal::shard_path;
use crate::{invalid, note_path, read_store_config, StoreRead};
use httpsim::content_hash;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where one sealed cell's payload lives in the snapshot's shard bytes.
#[derive(Debug, Clone, Copy)]
struct Cell {
    segment: u64,
    offset: u64,
    len: u32,
}

/// An immutable sealed view of a store. See the module docs.
pub struct StoreSnapshot {
    dir: PathBuf,
    regions: usize,
    meta_map: BTreeMap<String, String>,
    generation: u64,
    /// The sealed prefix of every region shard, read once at open.
    shards: Vec<Vec<u8>>,
    /// Sealed cells, one domain-keyed map per region.
    entries: Vec<BTreeMap<Arc<str>, Cell>>,
    backend: Arc<dyn StorageBackend>,
}

impl StoreSnapshot {
    /// Open the newest valid sealed view under `dir`.
    pub fn open(dir: &Path) -> io::Result<StoreSnapshot> {
        StoreSnapshot::open_with(dir, Arc::new(FsBackend))
    }

    /// [`StoreSnapshot::open`] on an explicit storage backend.
    pub fn open_with(dir: &Path, backend: Arc<dyn StorageBackend>) -> io::Result<StoreSnapshot> {
        let (meta, regions) = read_store_config(dir, backend.as_ref())?;
        let mut slots = read_slots(dir, backend.as_ref(), regions)?;
        // An invalid slot is usually not damage but a seal mid-overwrite
        // (slot writes are not atomic): re-read until the write settles
        // before trusting the classification, so a concurrent reader
        // neither errors out on a half-written first seal nor falls back
        // past a generation it already served. Genuinely damaged slots
        // stay invalid and take the fallback path after the patience
        // runs out.
        let mut patience = 64;
        while patience > 0 && slots.iter().any(|s| matches!(s, SlotState::Invalid)) {
            std::thread::yield_now();
            slots = read_slots(dir, backend.as_ref(), regions)?;
            patience -= 1;
        }
        let never_sealed = slots.iter().all(|s| matches!(s, SlotState::Missing));

        // Shard bytes are read once, before candidate verification, so
        // every candidate is judged against the same frozen view.
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(regions);
        for r in 0..regions {
            shards.push(match backend.read_file(&shard_path(dir, r as u8)) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            });
        }

        // Newest candidate first; fall back to the older slot when the
        // newest no longer matches the bytes on disk.
        let mut candidates: Vec<IndexFile> = slots
            .into_iter()
            .filter_map(|s| match s {
                SlotState::Valid(file) => Some(file),
                _ => None,
            })
            .collect();
        candidates.sort_by_key(|file| std::cmp::Reverse(file.generation));
        let chosen = candidates.into_iter().find(|file| verifies(file, &shards));

        let Some(file) = chosen else {
            if never_sealed {
                return Ok(StoreSnapshot {
                    dir: dir.to_path_buf(),
                    regions,
                    meta_map: meta.into_iter().collect(),
                    generation: 0,
                    shards: vec![Vec::new(); regions],
                    entries: vec![BTreeMap::new(); regions],
                    backend,
                });
            }
            return Err(invalid(
                "every index slot is damaged or stale — run `cookiewall-study fsck` to rewrite them",
            ));
        };

        // Trim each shard to its sealed prefix so concurrently appended
        // bytes can never leak into this view.
        for (r, shard) in shards.iter_mut().enumerate() {
            shard.truncate(file.sealed_len[r] as usize);
        }
        // `verifies` checked every entry's region against the shards.
        let mut entries = vec![BTreeMap::new(); regions];
        for e in file.entries {
            if let Some(region) = entries.get_mut(e.region as usize) {
                let cell = Cell {
                    segment: e.segment,
                    offset: e.offset,
                    len: e.len,
                };
                region.insert(e.domain, cell);
            }
        }
        Ok(StoreSnapshot {
            dir: dir.to_path_buf(),
            regions,
            meta_map: meta.into_iter().collect(),
            generation: file.generation,
            shards,
            entries,
            backend,
        })
    }

    /// Directory this snapshot was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of region shards.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Look up one meta value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta_map.get(key).map(|v| v.as_str())
    }

    /// Generation of the sealed view (0 when never sealed).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation that first sealed this cell at its current offset.
    pub fn segment_of(&self, region: u8, domain: &str) -> Option<u64> {
        self.cell(region, domain).map(|cell| cell.segment)
    }

    /// Borrow a sealed payload.
    pub fn get(&self, region: u8, domain: &str) -> Option<&[u8]> {
        let cell = self.cell(region, domain)?;
        let shard = self.shards.get(region as usize)?;
        shard.get(cell.offset as usize..cell.offset as usize + cell.len as usize)
    }

    /// Is this cell sealed?
    pub fn contains(&self, region: u8, domain: &str) -> bool {
        self.cell(region, domain).is_some()
    }

    /// Total sealed cells across all regions.
    pub fn len(&self) -> usize {
        self.entries.iter().map(BTreeMap::len).sum()
    }

    /// True when the sealed view holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(BTreeMap::is_empty)
    }

    /// Read back a note (see [`crate::Store::write_note`]). Notes are
    /// not sealed — this reads whatever is on disk now.
    pub fn read_note(&self, name: &str) -> io::Result<Option<String>> {
        match self.backend.read_file(&note_path(&self.dir, name)?) {
            Ok(bytes) => Ok(Some(
                String::from_utf8(bytes).map_err(|_| invalid("note is not valid UTF-8"))?,
            )),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Visit every sealed `(domain, payload)` of one region in domain
    /// order, borrowing straight from the sealed shard bytes.
    pub fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        let (Some(cells), Some(shard)) = (
            self.entries.get(region as usize),
            self.shards.get(region as usize),
        ) else {
            return;
        };
        for (domain, cell) in cells {
            if let Some(payload) =
                shard.get(cell.offset as usize..cell.offset as usize + cell.len as usize)
            {
                f(domain, payload);
            }
        }
    }

    fn cell(&self, region: u8, domain: &str) -> Option<&Cell> {
        self.entries.get(region as usize)?.get(domain)
    }
}

impl StoreRead for StoreSnapshot {
    fn regions(&self) -> usize {
        StoreSnapshot::regions(self)
    }

    fn meta_value(&self, key: &str) -> Option<&str> {
        StoreSnapshot::meta_value(self, key)
    }

    fn read_note(&self, name: &str) -> io::Result<Option<String>> {
        StoreSnapshot::read_note(self, name)
    }

    fn payload(&self, region: u8, domain: &str) -> Option<Vec<u8>> {
        self.get(region, domain).map(|p| p.to_vec())
    }

    fn for_each_region_entry(&self, region: u8, f: &mut dyn FnMut(&str, &[u8])) {
        StoreSnapshot::for_each_region_entry(self, region, f)
    }
}

/// Does every entry of a candidate slot match the shard bytes on disk?
/// The sealed lengths must fit inside what was read, and each entry's
/// extent must hash to its recorded payload hash — a slot whose extents
/// a crash-recovery truncated or rewrote is rejected as a whole.
fn verifies(file: &IndexFile, shards: &[Vec<u8>]) -> bool {
    for (r, &sealed) in file.sealed_len.iter().enumerate() {
        match shards.get(r) {
            Some(shard) if sealed <= shard.len() as u64 => {}
            _ => return false,
        }
    }
    file.entries.iter().all(|e| {
        let Some(shard) = shards.get(e.region as usize) else {
            return false;
        };
        match shard.get(e.offset as usize..e.offset as usize + e.len as usize) {
            Some(payload) => content_hash(payload) == e.payload_hash,
            None => false,
        }
    })
}
