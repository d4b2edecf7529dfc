//! The store's in-memory state machine: domain-hash stripes, the flush
//! staging queue, and the disk-side retry state. Pure data — every byte
//! of IO these structures feed is performed by `Store` through its
//! [`crate::StorageBackend`].

use httpsim::content_hash;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Number of domain-hash stripes the in-memory buffers are split into.
/// Concurrent `put`s on domains in different stripes share no mutex.
pub const STRIPES: usize = 16;

/// Which stripe a domain's buffers live in: `fnv1a(domain) % STRIPES`.
pub(crate) fn stripe_of(domain: &str) -> usize {
    (content_hash(domain.as_bytes()) % STRIPES as u64) as usize
}

/// One domain-hash stripe of the in-memory side.
pub(crate) struct Stripe {
    /// Every stored payload (flushed and buffered) whose domain hashes
    /// here: one domain-keyed map per region, so a lookup borrows its
    /// domain instead of building a `(region, domain)` key. Domain and
    /// payload are shared with [`Stripe::fresh`]: a put copies each once.
    // lint:allow(r10) — the in-memory key index IS the store's lookup structure; paging it out is parked million-domain work (ROADMAP "Parked from earlier rounds")
    pub index: Vec<BTreeMap<Arc<str>, Arc<[u8]>>>,
    /// Puts accepted since this stripe was last drained, in put order.
    pub fresh: Vec<(u8, Arc<str>, Arc<[u8]>)>,
}

impl Stripe {
    pub(crate) fn new(regions: usize) -> Stripe {
        Stripe {
            index: (0..regions).map(|_| BTreeMap::new()).collect(),
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
/// staged → retry → durable pipeline as the bytes they describe.
#[derive(Debug, Clone)]
pub(crate) struct LedgerEntry {
    pub region: u8,
    /// Shared with the stripe index entry of the same put.
    pub domain: Arc<str>,
    /// Offset of the payload within its region shard.
    pub offset: u64,
    pub len: u32,
    /// `content_hash` of the payload bytes.
    pub payload_hash: u64,
}

/// Staged flush state, guarded by `Store::queue`.
pub(crate) struct FlushQueue {
    /// Logical length of each region shard (durable + staged).
    pub shard_len: Vec<u64>,
    /// Staged payload bytes per region, not yet handed to the disk side.
    pub staged_shards: Vec<Vec<u8>>,
    /// Staged journal records, same discipline.
    pub staged_journal: Vec<u8>,
    /// One ledger entry per staged journal record, in stage order.
    pub staged_ledger: Vec<LedgerEntry>,
}

impl FlushQueue {
    pub(crate) fn new(shard_len: Vec<u64>) -> FlushQueue {
        let regions = shard_len.len();
        FlushQueue {
            shard_len,
            staged_shards: vec![Vec::new(); regions],
            staged_journal: Vec::new(),
            staged_ledger: Vec::new(),
        }
    }
}

/// What is durably on disk and what a failed flush left queued, guarded
/// by `Store::io`.
pub(crate) struct DiskState {
    /// Bytes of each shard file known durably appended.
    pub durable_shard: Vec<u64>,
    /// Bytes of the journal known durably appended.
    pub durable_journal: u64,
    /// Shard bytes not yet durable: what the current flush moved out of
    /// the stripes, plus anything an earlier failed flush left behind —
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
