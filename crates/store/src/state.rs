//! The store's in-memory state machine: the domain table with its
//! per-region position columns, the put buffer, and the disk-side retry
//! state. Pure data — every byte of IO these structures feed is
//! performed by `Store` through its [`crate::StorageBackend`].

use httpsim::content_hash;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A position column's mark for a domain its region has not stored.
pub(crate) const ABSENT: u32 = u32::MAX;

/// The ledger position of a cell that `taken` earlier cells precede, or
/// `None` when it does not fit: a position is a `u32` below [`ABSENT`].
pub(crate) fn next_position(taken: usize) -> Option<u32> {
    u32::try_from(taken).ok().filter(|&p| p != ABSENT)
}

/// The in-memory side, guarded by `Store::buffer`. It holds keys, not
/// payloads: a stored cell is a ledger position, and its bytes live in
/// [`Buffer::fresh`] until a flush takes them, then in the disk-side
/// retry queue or the region shard. There is one copy of each domain: a
/// table gives each distinct domain a dense id, and each region keeps a
/// column of positions indexed by id, [`ABSENT`] where it has not stored
/// the domain. A column ends after its region's highest id.
pub(crate) struct Buffer {
    /// Each domain's id, and the only `Arc<str>` of the domain.
    // lint:allow(r10) — the domain table IS the store's lookup structure, one entry per distinct domain; paging it out is parked million-domain work (ROADMAP "Parked from earlier rounds")
    domains: BTreeMap<Arc<str>, u32>,
    columns: Vec<Vec<u32>>,
    /// Puts accepted since the last flush took them, in put order: the
    /// put at `fresh[i]` has position `flushed + i`.
    pub fresh: Vec<(u8, Arc<str>, Box<[u8]>)>,
    /// Positions below this were taken by a flush. They index
    /// `DiskState::ledger` followed by `DiskState::retry_ledger`.
    pub flushed: usize,
}

impl Buffer {
    pub(crate) fn new(regions: usize) -> Buffer {
        Buffer {
            domains: BTreeMap::new(),
            columns: vec![Vec::new(); regions],
            fresh: Vec::new(),
            flushed: 0,
        }
    }

    /// The position of domain `id` in `region`. (Named `get` so that the
    /// lint's call graph resolves the `self.….get(..)` calls here, not to
    /// every `get` in the store, `Store::get`'s io lock included.)
    fn get(&self, region: u8, id: u32) -> Option<u32> {
        let position = *self.columns.get(region as usize)?.get(id as usize)?;
        (position != ABSENT).then_some(position)
    }

    /// The ledger position of `(region, domain)`.
    pub(crate) fn position(&self, region: u8, domain: &str) -> Option<u32> {
        let (_, &id) = self.domains.get_key_value(domain)?;
        self.get(region, id)
    }

    /// Store `(region, domain)` at `position` (a later replayed record
    /// replaces an earlier one) and return the table's copy of the domain,
    /// allocated the first time any region stores it.
    pub(crate) fn insert(&mut self, region: u8, domain: &str, position: u32) -> Arc<str> {
        let (domain, id) = match self.domains.get_key_value(domain) {
            Some((shared, &id)) => (Arc::clone(shared), id),
            None => {
                let id = self.domains.len() as u32;
                let shared: Arc<str> = domain.into();
                self.domains.insert(Arc::clone(&shared), id);
                (shared, id)
            }
        };
        let column = &mut self.columns[region as usize];
        if column.len() <= id as usize {
            column.resize(id as usize + 1, ABSENT);
        }
        column[id as usize] = position;
        domain
    }

    /// Every cell of `region` in domain order: its domain and position.
    pub(crate) fn walk(&self, region: u8) -> impl Iterator<Item = (&Arc<str>, u32)> {
        let cells = self.domains.iter();
        cells.filter_map(move |(domain, &id)| Some((domain, self.get(region, id)?)))
    }

    /// The table's domains in order and, per region, the positions below
    /// `below` in that order ([`ABSENT`] elsewhere): what a seal copies
    /// before it releases the buffer lock.
    pub(crate) fn ordered(&self, below: usize) -> (Vec<Arc<str>>, Vec<Vec<u32>>) {
        let sealed = |region, id| self.get(region, id).filter(|&p| (p as usize) < below);
        let column = |region| {
            let ids = self.domains.values();
            ids.map(|&id| sealed(region, id).unwrap_or(ABSENT))
                .collect()
        };
        let domains = self.domains.keys().cloned().collect();
        (domains, (0..self.columns.len() as u8).map(column).collect())
    }

    /// A copy of the payload at `position` while no flush has taken it.
    pub(crate) fn unflushed(&self, position: u32) -> Option<Vec<u8>> {
        let i = (position as usize).checked_sub(self.flushed)?;
        self.fresh.get(i).map(|(_, _, payload)| payload.to_vec())
    }

    /// Every cell of `region` in domain order: its domain, its position
    /// and, while no flush has taken it, a copy of its payload.
    pub(crate) fn region_cells(&self, region: u8) -> Vec<(Arc<str>, u32, Option<Vec<u8>>)> {
        let cells = self.walk(region);
        cells
            .map(|(domain, position)| (Arc::clone(domain), position, self.unflushed(position)))
            .collect()
    }
}

/// One flushed cell's durable location, tracked so a later seal can
/// index it without re-reading the journal. Entries ride the same
/// retry → durable pipeline as the bytes they describe. The domain is
/// not repeated here: seal and open read it from the [`Buffer`]'s table.
#[derive(Debug, Clone)]
pub(crate) struct LedgerEntry {
    pub region: u8,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `put` and `replay` take their positions here: the last `u32` is
    /// the absent mark, so the position before it is the last one given.
    #[test]
    fn next_position_refuses_the_absent_mark() {
        let last = ABSENT as usize - 1;
        assert_eq!(next_position(0), Some(0));
        assert_eq!(next_position(last), Some(ABSENT - 1));
        assert_eq!(next_position(last + 1), None);
        assert_eq!(next_position(last + 2), None);
    }

    /// The durable ledger holds one entry per flushed cell, domain-free.
    #[test]
    fn a_ledger_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<LedgerEntry>(), 32);
    }

    /// A replayed later record replaces the cell's position; a domain
    /// first stored by a later region extends only that region's column.
    #[test]
    fn insert_replaces_a_position_and_keeps_other_regions_absent() {
        let mut buffer = Buffer::new(2);
        let a = buffer.insert(1, "a.example", 0);
        buffer.insert(0, "b.example", 1);
        let again = buffer.insert(1, "a.example", 2);
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(buffer.position(1, "a.example"), Some(2));
        assert_eq!(buffer.position(0, "a.example"), None);
        assert_eq!(buffer.position(1, "b.example"), None);
        assert_eq!(buffer.position(2, "a.example"), None, "no such region");
        assert_eq!((buffer.walk(0).count(), buffer.walk(1).count()), (1, 1));
        let (domains, columns) = buffer.ordered(3);
        let domains: Vec<&str> = domains.iter().map(|d| &**d).collect();
        assert_eq!(domains, ["a.example", "b.example"]);
        assert_eq!(columns, [vec![ABSENT, 1], vec![2, ABSENT]]);
        let (_, columns) = buffer.ordered(2);
        assert_eq!(columns, [vec![ABSENT, 1], vec![ABSENT, ABSENT]]);
    }
}
