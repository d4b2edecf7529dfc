//! On-disk index format for sealed store segments: the `CWI1` contract.
//!
//! A seal freezes the durable prefix of every shard and describes it in a
//! single self-checking index file so readers can open the store without
//! touching the writer's locks. The file is double-buffered across two
//! slots (`index-0.cwi` / `index-1.cwi`): the writer alternates slots by
//! generation parity, so the newest two sealed views live in different
//! files. A slot is never written in place: [`write_slot`] streams it
//! into `index.tmp`, syncs that, and renames it over the slot, so a
//! reader sees a slot's old bytes or its new ones, never a torn mix. A
//! crash before the rename leaves the old slot and a stray temp file,
//! which no reader opens and the next slot write replaces.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      4 bytes   "CWI1"
//! version    u8        1
//! generation u64       monotonically increasing seal number
//! regions    u8        region count (matches the store config)
//! sealed_len u64 × R   durable shard length per region at seal time
//! count      u64       number of entries
//! entries    …         sorted by (region, domain)
//! checksum   u64       content_hash of every preceding byte
//! ```
//!
//! Each entry is `region u8 | domain_len u16 | domain | domain_hash u64 |
//! segment u64 | offset u64 | len u32 | payload_hash u64`. `domain_hash`
//! is `content_hash(domain)` and gates resync-free validation; `segment`
//! is the generation that first sealed the cell at this offset, so
//! epoch-over-epoch tooling can tell a stable cell from a rewritten one;
//! `payload_hash` lets a snapshot verify the shard bytes an entry points
//! at before trusting the slot.

use crate::backend::{publish, StorageBackend};
use httpsim::{content_hash, content_hash_extend};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of every index slot. Version `CWI1`.
pub(crate) const INDEX_MAGIC: [u8; 4] = *b"CWI1";

/// Stem of the two slot files; slot `s` lives at `<stem>-<s>.cwi`.
pub(crate) const INDEX_FILE: &str = "index";

/// Number of double-buffered slot files.
pub(crate) const INDEX_SLOTS: usize = 2;

/// Fixed bytes per entry besides the domain itself: region tag (1),
/// domain length (2), domain hash (8), segment (8), offset (8),
/// payload length (4) and payload hash (8).
pub(crate) const INDEX_ENTRY_OVERHEAD: usize = 1 + 2 + 8 + 8 + 8 + 4 + 8;

/// Format version written into every slot.
pub(crate) const INDEX_VERSION: u8 = 1;

/// Bytes a slot write hands the backend at a time: the most of a slot
/// that is ever held in memory.
const SLOT_PIECE: usize = 64 * 1024;

/// Path of one index slot file under the store directory.
pub(crate) fn slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("{INDEX_FILE}-{slot}.cwi"))
}

/// Path of the temp file a slot is written to before its rename.
fn temp_path(dir: &Path) -> PathBuf {
    dir.join(format!("{INDEX_FILE}.tmp"))
}

/// One sealed cell: where its payload lives in the frozen shard prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexEntry<D = Arc<str>> {
    pub region: u8,
    pub domain: D,
    /// Generation that first sealed the cell at this offset.
    pub segment: u64,
    pub offset: u64,
    pub len: u32,
    pub payload_hash: u64,
}

/// A decoded slot: one immutable sealed view of the store.
#[derive(Debug)]
pub(crate) struct IndexFile {
    pub generation: u64,
    /// Durable shard length per region at seal time.
    pub sealed_len: Vec<u64>,
    /// Entries sorted by `(region, domain)`.
    pub entries: Vec<IndexEntry>,
}

/// Stream a sealed view of `count` entries into `sink`, `piece` bytes at
/// a time (the last piece may be shorter). Entries must come sorted by
/// `(region, domain)`; the encoder trusts its callers: the seal walks the
/// store's domain table region by region and fsck walks a `BTreeMap`.
/// An iterator that yields other than `count` entries is an error before
/// the last piece. The trailing checksum is `content_hash` carried across
/// the pieces, so it equals the hash of every byte before it although
/// those bytes are never held at once.
pub(crate) fn encode_index<D: AsRef<str>>(
    generation: u64,
    sealed_len: &[u64],
    count: u64,
    entries: impl Iterator<Item = IndexEntry<D>>,
    piece: usize,
    sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = Pieces {
        buf: Vec::with_capacity(piece),
        piece,
        hash: content_hash(&[]),
        sink,
    };
    out.put(&INDEX_MAGIC)?;
    out.put(&[INDEX_VERSION])?;
    out.put(&generation.to_le_bytes())?;
    out.put(&[sealed_len.len() as u8])?;
    for len in sealed_len {
        out.put(&len.to_le_bytes())?;
    }
    out.put(&count.to_le_bytes())?;
    let mut written = 0u64;
    for entry in entries {
        let domain = entry.domain.as_ref();
        out.put(&[entry.region])?;
        out.put(&(domain.len() as u16).to_le_bytes())?;
        out.put(domain.as_bytes())?;
        out.put(&content_hash(domain.as_bytes()).to_le_bytes())?;
        out.put(&entry.segment.to_le_bytes())?;
        out.put(&entry.offset.to_le_bytes())?;
        out.put(&entry.len.to_le_bytes())?;
        out.put(&entry.payload_hash.to_le_bytes())?;
        written += 1;
    }
    if written != count {
        return Err(io::Error::other("index slot entry count mismatch"));
    }
    out.finish()
}

/// The encoder's output buffer: fills up to one piece, hands it to the
/// sink and carries the checksum over it.
struct Pieces<'s> {
    buf: Vec<u8>,
    piece: usize,
    /// `content_hash` of every byte already handed to the sink.
    hash: u64,
    sink: &'s mut dyn FnMut(&[u8]) -> io::Result<()>,
}

impl Pieces<'_> {
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let take = (self.piece - self.buf.len()).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.buf.extend_from_slice(head);
            bytes = rest;
            if self.buf.len() == self.piece {
                self.hash = content_hash_extend(self.hash, &self.buf);
                (self.sink)(&self.buf)?;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Append the checksum and hand over the last, partial piece.
    fn finish(mut self) -> io::Result<()> {
        let checksum = content_hash_extend(self.hash, &self.buf);
        self.put(&checksum.to_le_bytes())?;
        if self.buf.is_empty() {
            return Ok(());
        }
        (self.sink)(&self.buf)
    }
}

/// Publish one slot of `count` entries over `index-{slot}.cwi` through
/// the temp file (see [`publish`]): a failure or crash before the rename
/// leaves the slot's previous bytes in place.
pub(crate) fn write_slot<D: AsRef<str>>(
    dir: &Path,
    backend: &dyn StorageBackend,
    slot: usize,
    generation: u64,
    sealed_len: &[u64],
    count: u64,
    entries: impl Iterator<Item = IndexEntry<D>>,
) -> io::Result<()> {
    publish(backend, &temp_path(dir), &slot_path(dir, slot), |sink| {
        encode_index(generation, sealed_len, count, entries, SLOT_PIECE, sink)
    })
}

/// Decode and validate one slot file. Returns `None` on any structural
/// damage: wrong magic/version, region count mismatch, out-of-bounds
/// extents, a domain hash that does not match its domain, a segment
/// newer than the slot's own generation, or a trailing checksum that
/// does not cover the bytes. A torn or bit-flipped slot never yields a
/// partial view — the caller falls back to the other slot.
pub(crate) fn parse_index(buf: &[u8], regions: usize) -> Option<IndexFile> {
    if buf.len() < 8 {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().ok()?);
    if content_hash(body) != checksum {
        return None;
    }
    let mut cur = Cursor { buf: body, pos: 0 };
    if cur.bytes(4)? != INDEX_MAGIC {
        return None;
    }
    if cur.u8()? != INDEX_VERSION {
        return None;
    }
    let generation = cur.u64()?;
    if cur.u8()? as usize != regions {
        return None;
    }
    let mut sealed_len = Vec::with_capacity(regions);
    for _ in 0..regions {
        sealed_len.push(cur.u64()?);
    }
    let count = cur.u64()?;
    // A slot can never hold more entries than bytes remain; this bounds
    // the allocation below against a corrupt count field.
    if count > (body.len() - cur.pos) as u64 / INDEX_ENTRY_OVERHEAD as u64 {
        return None;
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let region = cur.u8()?;
        if region as usize >= regions {
            return None;
        }
        let domain_len = cur.u16()? as usize;
        let raw = cur.slice(domain_len)?;
        let domain_hash = cur.u64()?;
        if content_hash(raw) != domain_hash {
            return None;
        }
        let domain: Arc<str> = std::str::from_utf8(raw).ok()?.into();
        let segment = cur.u64()?;
        if segment > generation {
            return None;
        }
        let offset = cur.u64()?;
        let len = cur.u32()?;
        let end = offset.checked_add(u64::from(len))?;
        if end > sealed_len[region as usize] {
            return None;
        }
        entries.push(IndexEntry {
            region,
            domain,
            segment,
            offset,
            len,
            payload_hash: cur.u64()?,
        });
    }
    if cur.pos != body.len() {
        return None;
    }
    Some(IndexFile {
        generation,
        sealed_len,
        entries,
    })
}

/// What one slot file held when read back.
pub(crate) enum SlotState {
    /// No file on disk — the store was never sealed into this slot.
    Missing,
    /// A file exists but fails validation (bit rot, a lost sync).
    Invalid,
    /// A structurally valid sealed view.
    Valid(IndexFile),
}

/// Read and classify every index slot of a store. IO errors other than
/// `NotFound` propagate; damage is classification, not an error.
pub(crate) fn read_slots(
    dir: &Path,
    backend: &dyn StorageBackend,
    regions: usize,
) -> io::Result<Vec<SlotState>> {
    let mut slots = Vec::with_capacity(INDEX_SLOTS);
    for s in 0..INDEX_SLOTS {
        slots.push(match backend.read_file(&slot_path(dir, s)) {
            Ok(bytes) => match parse_index(&bytes, regions) {
                Some(file) => SlotState::Valid(file),
                None => SlotState::Invalid,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => SlotState::Missing,
            Err(e) => return Err(e),
        });
    }
    Ok(slots)
}

/// Bounds-checked little-endian reader over a slot body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn slice(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        self.slice(n)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.slice(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.slice(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.slice(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.slice(8)?.try_into().ok()?))
    }
}

/// The one-shot encoder the streamed [`encode_index`] replaced, kept as
/// the oracle its output must match byte for byte.
#[cfg(test)]
pub(crate) fn encode_index_oneshot(
    generation: u64,
    sealed_len: &[u64],
    entries: &[IndexEntry],
) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&INDEX_MAGIC);
    buf.push(INDEX_VERSION);
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.push(sealed_len.len() as u8);
    for len in sealed_len {
        buf.extend_from_slice(&len.to_le_bytes());
    }
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for entry in entries {
        buf.push(entry.region);
        buf.extend_from_slice(&(entry.domain.len() as u16).to_le_bytes());
        buf.extend_from_slice(entry.domain.as_bytes());
        buf.extend_from_slice(&content_hash(entry.domain.as_bytes()).to_le_bytes());
        buf.extend_from_slice(&entry.segment.to_le_bytes());
        buf.extend_from_slice(&entry.offset.to_le_bytes());
        buf.extend_from_slice(&entry.len.to_le_bytes());
        buf.extend_from_slice(&entry.payload_hash.to_le_bytes());
    }
    let checksum = content_hash(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Run the streamed encoder with `piece`-byte pieces and collect them.
#[cfg(test)]
pub(crate) fn encode_index_pieces(
    generation: u64,
    sealed_len: &[u64],
    entries: &[IndexEntry],
    piece: usize,
) -> Vec<Vec<u8>> {
    let mut pieces = Vec::new();
    let mut sink = |bytes: &[u8]| {
        pieces.push(bytes.to_vec());
        Ok(())
    };
    let count = entries.len() as u64;
    encode_index(
        generation,
        sealed_len,
        count,
        entries.iter().cloned(),
        piece,
        &mut sink,
    )
    .expect("an in-memory sink never fails");
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(generation: u64, sealed_len: &[u64], entries: &[IndexEntry]) -> Vec<u8> {
        encode_index_pieces(generation, sealed_len, entries, SLOT_PIECE).concat()
    }

    fn sample() -> (u64, Vec<u64>, Vec<IndexEntry>) {
        let entries = vec![
            IndexEntry {
                region: 0,
                domain: "aldi.example".into(),
                segment: 1,
                offset: 0,
                len: 4,
                payload_hash: content_hash(b"abcd"),
            },
            IndexEntry {
                region: 1,
                domain: "zeit.example".into(),
                segment: 2,
                offset: 4,
                len: 3,
                payload_hash: content_hash(b"xyz"),
            },
        ];
        (2, vec![8, 16], entries)
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let (generation, sealed, entries) = sample();
        let bytes = encode(generation, &sealed, &entries);
        let parsed = parse_index(&bytes, sealed.len()).expect("valid slot");
        assert_eq!(parsed.generation, generation);
        assert_eq!(parsed.sealed_len, sealed);
        assert_eq!(parsed.entries, entries);
    }

    #[test]
    fn every_flipped_bit_is_rejected() {
        let (generation, sealed, entries) = sample();
        let bytes = encode(generation, &sealed, &entries);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    parse_index(&damaged, sealed.len()).is_none(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn truncation_and_region_mismatch_are_rejected() {
        let (generation, sealed, entries) = sample();
        let bytes = encode(generation, &sealed, &entries);
        for cut in 0..bytes.len() {
            assert!(parse_index(&bytes[..cut], sealed.len()).is_none());
        }
        assert!(parse_index(&bytes, sealed.len() + 1).is_none());
    }

    #[test]
    fn out_of_bounds_extent_is_rejected() {
        let (generation, sealed, mut entries) = sample();
        entries[1].len = 64;
        let bytes = encode(generation, &sealed, &entries);
        assert!(parse_index(&bytes, sealed.len()).is_none());
    }

    #[test]
    fn empty_index_roundtrips() {
        let bytes = encode(1, &[0, 0, 0], &[]);
        let parsed = parse_index(&bytes, 3).expect("valid slot");
        assert_eq!(parsed.generation, 1);
        assert!(parsed.entries.is_empty());
    }

    /// Every piece size cuts the same bytes: full pieces of exactly
    /// `piece` bytes, one shorter last piece, and a checksum carried
    /// across the cuts.
    #[test]
    fn streamed_slot_matches_the_oneshot_encoder_at_every_piece_size() {
        let (generation, sealed, entries) = sample();
        let oracle = encode_index_oneshot(generation, &sealed, &entries);
        for piece in 1..=oracle.len() + 1 {
            let pieces = encode_index_pieces(generation, &sealed, &entries, piece);
            let (last, full) = pieces.split_last().expect("a slot is never empty");
            assert!(full.iter().all(|p| p.len() == piece), "piece {piece}");
            assert!(!last.is_empty() && last.len() <= piece, "piece {piece}");
            assert_eq!(pieces.concat(), oracle, "piece {piece}");
        }
    }

    /// A slot is published only by the rename: until then the slot keeps
    /// its old bytes, and a crash before the rename leaves them there.
    #[test]
    fn write_slot_publishes_by_rename() {
        let mem = crate::MemBackend::default();
        let dir = Path::new("/mem/store");
        let (generation, sealed, entries) = sample();
        let slot = slot_path(dir, 0);
        mem.write_file(&slot, b"old").unwrap();
        mem.sync_file(&slot).unwrap();
        let count = entries.len() as u64;
        write_slot(
            dir,
            &mem,
            0,
            generation,
            &sealed,
            count,
            entries.iter().cloned(),
        )
        .unwrap();
        let oracle = encode_index_oneshot(generation, &sealed, &entries);
        assert_eq!(mem.read_file(&slot).unwrap(), oracle);
        assert_eq!(mem.durable_bytes(&slot), Some(oracle));
        assert!(
            !mem.file_exists(&temp_path(dir)),
            "the temp file was renamed"
        );
    }
}
