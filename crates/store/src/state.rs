//! The store's in-memory state machine: the put buffer and the
//! disk-side retry state. Pure data — every byte of IO these structures
//! feed is performed by `Store` through its [`crate::StorageBackend`].

use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-memory side, guarded by `Store::buffer`.
pub(crate) struct Buffer {
    /// Every stored payload (flushed and buffered): one domain-keyed map
    /// per region, so a lookup borrows its domain instead of building a
    /// `(region, domain)` key and a region walk is already in domain
    /// order. Domain and payload are shared with [`Buffer::fresh`]: a put
    /// copies each once.
    // lint:allow(r10) — the in-memory key index IS the store's lookup structure; paging it out is parked million-domain work (ROADMAP "Parked from earlier rounds")
    pub index: Vec<BTreeMap<Arc<str>, Arc<[u8]>>>,
    /// Puts accepted since the last flush took them, in put order.
    pub fresh: Vec<(u8, Arc<str>, Arc<[u8]>)>,
}

impl Buffer {
    pub(crate) fn new(index: Vec<BTreeMap<Arc<str>, Arc<[u8]>>>) -> Buffer {
        Buffer {
            index,
            fresh: Vec::new(),
        }
    }

    /// The stored payload of `(region, domain)`.
    pub(crate) fn get(&self, region: u8, domain: &str) -> Option<&[u8]> {
        self.index.get(region as usize)?.get(domain).map(|p| &p[..])
    }

    /// Stored payloads across every region.
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
    /// Shared with the buffer index entry of the same put.
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
