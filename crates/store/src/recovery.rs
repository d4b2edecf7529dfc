//! Journal recovery and the `fsck` scrubber.
//!
//! [`scan_journal`] classifies every journal record against the shard
//! bytes actually on disk:
//!
//! * **valid** — parses, its shard extent exists, the payload hash
//!   matches;
//! * **torn** — parses, but references shard bytes past the shard's end
//!   (the payload append never completed — a crash or a lying fsync);
//! * **corrupt** — parses, the shard bytes exist, but their hash does
//!   not match (bit rot, or a stale record whose extent was reused).
//!
//! Unparseable byte runs are *gaps* when a later record resyncs (the
//! scanner hunts for the next record magic and verifies the record hash
//! before trusting it) and the *torn tail* when nothing parses after
//! them. Replay on open is tolerant: bad cells are skipped — never
//! decoded, the hash check rejects them first — and the clean remainder
//! of the journal is kept, so one flipped byte no longer costs every
//! record after it.
//!
//! [`fsck`] turns the same classification into repair: bad cells are
//! quarantined into a `quarantine` sidecar (one line per cell, with the
//! on-disk bytes hex-dumped for forensics), the journal is rewritten
//! keeping only valid records, orphan shard bytes are reclaimed, and a
//! machine-readable report is returned. A resumed crawl then re-fetches
//! exactly the quarantined cells, because they are no longer in the
//! index.

use crate::backend::StorageBackend;
use crate::index::{write_slot, IndexEntry, INDEX_SLOTS};
use crate::journal::{parse_record, shard_path, JOURNAL_FILE, MAGIC, QUARANTINE_FILE};
use crate::state::{next_position, Buffer, LedgerEntry};
use httpsim::content_hash;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// How a scanned record relates to the bytes on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordClass {
    /// Shard extent present, payload hash matches.
    Valid,
    /// References shard bytes past the shard's end.
    Torn,
    /// Shard bytes present but hash-mismatched (or region out of range).
    Corrupt,
}

impl RecordClass {
    fn label(self) -> &'static str {
        match self {
            RecordClass::Valid => "valid",
            RecordClass::Torn => "torn",
            RecordClass::Corrupt => "corrupt",
        }
    }
}

/// One parseable journal record plus its classification.
pub(crate) struct ScannedRecord {
    /// Byte range of the raw record in the journal.
    pub span: (usize, usize),
    pub region: u8,
    pub domain: String,
    pub offset: u64,
    pub len: u32,
    /// Payload hash the record claims (verified for `Valid` records).
    pub payload_hash: u64,
    pub class: RecordClass,
}

/// The full classification of a journal against its shards.
pub(crate) struct Scan {
    pub records: Vec<ScannedRecord>,
    /// Unparseable byte runs that a later record resynced past:
    /// `(offset, len)` pairs, in journal order.
    pub gaps: Vec<(u64, u64)>,
    /// Unparseable run at the end of the journal, `(offset, len)`.
    pub torn_tail: Option<(u64, u64)>,
    /// Journal bytes up to the end of the last parseable record — what a
    /// tail truncation keeps.
    pub keep_len: u64,
}

impl Scan {
    fn count(&self, class: RecordClass) -> usize {
        self.records.iter().filter(|r| r.class == class).count()
    }
}

/// Find the next offset `>= from` where a record both starts with the
/// magic and parses (the record hash gates false resyncs on payload
/// bytes that happen to contain the magic).
fn resync(journal: &[u8], from: usize) -> Option<usize> {
    let mut q = from;
    while q + MAGIC.len() <= journal.len() {
        if journal[q..q + MAGIC.len()] == MAGIC && parse_record(journal, q).is_some() {
            return Some(q);
        }
        q += 1;
    }
    None
}

/// Classify every journal record against the shard bytes on disk.
pub(crate) fn scan_journal(journal: &[u8], shards: &[Vec<u8>]) -> Scan {
    let regions = shards.len();
    let mut scan = Scan {
        records: Vec::new(),
        gaps: Vec::new(),
        torn_tail: None,
        keep_len: 0,
    };
    let mut pos = 0usize;
    while pos < journal.len() {
        let Some((rec, next)) = parse_record(journal, pos) else {
            // Unparseable bytes: hunt for the next real record. Found →
            // this run is a gap; not found → it is the torn tail.
            match resync(journal, pos + 1) {
                Some(q) => {
                    scan.gaps.push((pos as u64, (q - pos) as u64));
                    pos = q;
                    continue;
                }
                None => {
                    scan.torn_tail = Some((pos as u64, (journal.len() - pos) as u64));
                    break;
                }
            }
        };
        let r = rec.region as usize;
        let end = rec.offset.saturating_add(rec.len as u64);
        let class = if r >= regions {
            RecordClass::Corrupt
        } else if end > shards[r].len() as u64 {
            RecordClass::Torn
        } else {
            let payload = &shards[r][rec.offset as usize..end as usize];
            if content_hash(payload) == rec.payload_hash {
                RecordClass::Valid
            } else {
                RecordClass::Corrupt
            }
        };
        scan.records.push(ScannedRecord {
            span: (pos, next),
            region: rec.region,
            domain: rec.domain,
            offset: rec.offset,
            len: rec.len,
            payload_hash: rec.payload_hash,
            class,
        });
        scan.keep_len = next as u64;
        pos = next;
    }
    scan
}

/// What replaying a scanned journal yields: the surviving index, the
/// logical shard lengths new appends must start from, and the damage
/// counts the open-time warning reports.
pub(crate) struct Replay {
    /// Each surviving cell's position in [`Replay::ledger`], in the
    /// store's buffer, every position flushed, so a reopened store keeps
    /// one copy of each domain too. No payload is copied: the bytes stay
    /// in the shards.
    pub buffer: Buffer,
    /// Per-region logical length: the max extent of every record whose
    /// bytes exist on disk (valid *and* corrupt — corrupt extents are
    /// kept so already-journaled offsets stay aligned until `fsck`
    /// rewrites the journal).
    pub high_water: Vec<u64>,
    /// One [`LedgerEntry`] per valid journal record, in journal order —
    /// rebuilt so a seal after reopen can index the durable cells.
    pub ledger: Vec<LedgerEntry>,
    pub keep_len: u64,
    pub torn_cells: usize,
    pub corrupt_cells: usize,
    pub gap_bytes: u64,
    /// `(offset, len)` of the unparseable journal tail, if any.
    pub torn_tail: Option<(u64, u64)>,
}

/// Tolerant replay: last-wins over valid records (a re-crawled cell
/// shadows its quarantined predecessor), bad records skipped. Fails only
/// when the valid records outnumber the ledger positions (a `u32` below
/// `u32::MAX`, which marks an absent cell).
pub(crate) fn replay(journal: &[u8], shards: &[Vec<u8>]) -> io::Result<Replay> {
    let scan = scan_journal(journal, shards);
    let mut buffer = Buffer::new(shards.len());
    let mut high_water = vec![0u64; shards.len()];
    let mut ledger = Vec::new();
    for rec in &scan.records {
        let r = rec.region as usize;
        if r >= shards.len() {
            continue;
        }
        let end = rec.offset.saturating_add(rec.len as u64);
        match rec.class {
            RecordClass::Valid => {
                let position = next_position(ledger.len()).ok_or_else(|| {
                    crate::invalid("journal too long: ledger positions are u32 below u32::MAX")
                })?;
                buffer.insert(rec.region, &rec.domain, position);
                high_water[r] = high_water[r].max(end);
                ledger.push(LedgerEntry {
                    region: rec.region,
                    offset: rec.offset,
                    len: rec.len,
                    payload_hash: rec.payload_hash,
                    segment: 0,
                });
            }
            // Corrupt extents exist on disk; keep them under the water
            // line so offsets already encoded into later journal records
            // stay valid. Torn extents never landed — nothing to keep.
            RecordClass::Corrupt => high_water[r] = high_water[r].max(end),
            RecordClass::Torn => {}
        }
    }
    buffer.flushed = ledger.len();
    Ok(Replay {
        buffer,
        high_water,
        ledger,
        keep_len: scan.keep_len,
        torn_cells: scan.count(RecordClass::Torn),
        corrupt_cells: scan.count(RecordClass::Corrupt),
        gap_bytes: scan.gaps.iter().map(|(_, n)| n).sum(),
        torn_tail: scan.torn_tail,
    })
}

/// One cell `fsck` moved to the quarantine sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// Region index of the damaged cell.
    pub region: u8,
    /// Domain of the damaged cell.
    pub domain: String,
    /// Shard offset its journal record claimed.
    pub offset: u64,
    /// Payload length its journal record claimed.
    pub len: u32,
    /// `"torn"` or `"corrupt"`.
    pub fault: &'static str,
}

/// Machine-readable result of an [`fsck`] scan/repair pass.
#[derive(Debug)]
pub struct FsckReport {
    /// Store directory scanned.
    pub dir: String,
    /// Region shard count from the store meta.
    pub regions: usize,
    /// Parseable journal records scanned.
    pub records_scanned: usize,
    /// Cells whose latest record is valid.
    pub valid_cells: usize,
    /// Cells lost to damage — these re-crawl on the next resume.
    pub quarantined: Vec<QuarantinedCell>,
    /// Bad records shadowed by a later valid record for the same cell
    /// (already re-crawled); dropped from the journal, not quarantined.
    pub superseded_dropped: usize,
    /// Unparseable mid-journal bytes skipped by resync.
    pub journal_gap_bytes: u64,
    /// Unparseable bytes at the journal's end.
    pub torn_tail_bytes: u64,
    /// Shard bytes past the last referenced extent, reclaimed on repair.
    pub orphan_shard_bytes: u64,
    /// Index slots that failed to parse or verify — a torn or bit-rotted
    /// seal. Readers fall back to the surviving twin; repair rewrites
    /// both.
    pub damaged_index_slots: usize,
    /// Index slots rewritten on repair so a sealed view never points at
    /// quarantined or reclaimed extents (0 when the store was never
    /// sealed, or on a dry run).
    pub index_slots_rewritten: usize,
    /// Whether repairs were written back (false on a dry run, or when
    /// the store was already clean).
    pub repaired: bool,
}

impl FsckReport {
    /// Nothing torn, nothing corrupt, nothing to reclaim.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.superseded_dropped == 0
            && self.journal_gap_bytes == 0
            && self.torn_tail_bytes == 0
            && self.orphan_shard_bytes == 0
            && self.damaged_index_slots == 0
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fsck {}: {} records scanned, {} valid cells\n",
            self.dir, self.records_scanned, self.valid_cells
        ));
        for cell in &self.quarantined {
            out.push_str(&format!(
                "  quarantined: region {} domain {} offset {} len {} ({})\n",
                cell.region, cell.domain, cell.offset, cell.len, cell.fault
            ));
        }
        if self.superseded_dropped > 0 {
            out.push_str(&format!(
                "  dropped {} stale damaged record(s) already re-crawled\n",
                self.superseded_dropped
            ));
        }
        if self.journal_gap_bytes > 0 {
            out.push_str(&format!(
                "  skipped {} unparseable mid-journal byte(s)\n",
                self.journal_gap_bytes
            ));
        }
        if self.torn_tail_bytes > 0 {
            out.push_str(&format!(
                "  torn journal tail: {} byte(s)\n",
                self.torn_tail_bytes
            ));
        }
        if self.orphan_shard_bytes > 0 {
            out.push_str(&format!(
                "  orphan shard bytes: {}\n",
                self.orphan_shard_bytes
            ));
        }
        if self.damaged_index_slots > 0 {
            out.push_str(&format!(
                "  damaged index slot(s): {}\n",
                self.damaged_index_slots
            ));
        }
        if self.index_slots_rewritten > 0 {
            out.push_str(&format!(
                "  index slots rewritten: {}\n",
                self.index_slots_rewritten
            ));
        }
        out.push_str(if self.is_clean() {
            "  store is clean\n"
        } else if self.repaired {
            "  repairs written; resume will re-crawl quarantined cells\n"
        } else {
            "  dry run: no repairs written\n"
        });
        out
    }

    /// Ordered-key JSON for scripts and CI.
    pub fn to_json(&self) -> String {
        let mut cells = String::new();
        for (i, c) in self.quarantined.iter().enumerate() {
            if i > 0 {
                cells.push_str(", ");
            }
            cells.push_str(&format!(
                "{{\"region\": {}, \"domain\": \"{}\", \"offset\": {}, \"len\": {}, \"fault\": \"{}\"}}",
                c.region,
                json_escape(&c.domain),
                c.offset,
                c.len,
                c.fault
            ));
        }
        format!(
            "{{\n  \"store\": \"{}\",\n  \"regions\": {},\n  \"records_scanned\": {},\n  \
             \"valid_cells\": {},\n  \"quarantined_cells\": {},\n  \"quarantined\": [{}],\n  \
             \"superseded_records_dropped\": {},\n  \"journal_gap_bytes\": {},\n  \
             \"torn_tail_bytes\": {},\n  \"orphan_shard_bytes\": {},\n  \
             \"damaged_index_slots\": {},\n  \
             \"index_slots_rewritten\": {},\n  \"clean\": {},\n  \
             \"repaired\": {}\n}}\n",
            json_escape(&self.dir),
            self.regions,
            self.records_scanned,
            self.valid_cells,
            self.quarantined.len(),
            cells,
            self.superseded_dropped,
            self.journal_gap_bytes,
            self.torn_tail_bytes,
            self.orphan_shard_bytes,
            self.damaged_index_slots,
            self.index_slots_rewritten,
            self.is_clean(),
            self.repaired
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    const CAP: usize = 4096;
    let mut out = String::with_capacity(bytes.len().min(CAP) * 2 + 1);
    for &b in bytes.iter().take(CAP) {
        out.push_str(&format!("{b:02x}"));
    }
    if bytes.len() > CAP {
        out.push('+');
    }
    out
}

/// Scan a store's journal and shards, classify every cell, and — unless
/// `dry_run` — quarantine damaged cells into the sidecar, rewrite the
/// journal keeping only valid records, and reclaim orphan shard bytes.
/// The store must not be open elsewhere while repairing.
pub fn fsck(dir: &Path, backend: &dyn StorageBackend, dry_run: bool) -> io::Result<FsckReport> {
    let (_meta, regions) = crate::read_store_config(dir, backend)?;
    let (journal, shards) = read_journal_and_shards(dir, backend, regions)?;
    let scan = scan_journal(&journal, &shards);

    // A cell is lost only when *no* record for it is valid: last-wins
    // replay means a later re-crawl already healed earlier damage.
    let healthy: BTreeSet<(u8, &str)> = scan
        .records
        .iter()
        .filter(|r| r.class == RecordClass::Valid)
        .map(|r| (r.region, r.domain.as_str()))
        .collect();
    let mut quarantined = Vec::new();
    let mut superseded = 0usize;
    for rec in &scan.records {
        if rec.class == RecordClass::Valid {
            continue;
        }
        if healthy.contains(&(rec.region, rec.domain.as_str())) {
            superseded += 1;
            continue;
        }
        quarantined.push(QuarantinedCell {
            region: rec.region,
            domain: rec.domain.clone(),
            offset: rec.offset,
            len: rec.len,
            fault: rec.class.label(),
        });
    }

    // Valid cells and the shard water line the repaired journal needs.
    let mut valid_cells: BTreeSet<(u8, &str)> = BTreeSet::new();
    let mut valid_water = vec![0u64; regions];
    for rec in scan
        .records
        .iter()
        .filter(|r| r.class == RecordClass::Valid)
    {
        valid_cells.insert((rec.region, rec.domain.as_str()));
        let r = rec.region as usize;
        if r < regions {
            valid_water[r] = valid_water[r].max(rec.offset.saturating_add(rec.len as u64));
        }
    }
    let orphan_shard_bytes: u64 = (0..regions)
        .map(|r| (shards[r].len() as u64).saturating_sub(valid_water[r]))
        .sum();

    let mut report = FsckReport {
        dir: dir.display().to_string(),
        regions,
        records_scanned: scan.records.len(),
        valid_cells: valid_cells.len(),
        quarantined,
        superseded_dropped: superseded,
        journal_gap_bytes: scan.gaps.iter().map(|(_, n)| n).sum(),
        torn_tail_bytes: scan.torn_tail.map(|(_, n)| n).unwrap_or(0),
        orphan_shard_bytes,
        damaged_index_slots: 0,
        index_slots_rewritten: 0,
        repaired: false,
    };
    // A torn or bit-rotted index slot is damage in its own right, even
    // when the journal is pristine — it must make the store un-clean so
    // the repair pass below rewrites both slots.
    let slots = crate::index::read_slots(dir, backend, regions)?;
    report.damaged_index_slots = slots
        .iter()
        .filter(|s| matches!(s, crate::index::SlotState::Invalid))
        .count();
    if dry_run || report.is_clean() {
        return Ok(report);
    }

    // Quarantine sidecar: one line per lost cell, with the on-disk bytes
    // (when any exist) hex-dumped before they are orphaned.
    let mut sidecar = String::new();
    for cell in &report.quarantined {
        let r = cell.region as usize;
        let end = cell.offset.saturating_add(cell.len as u64);
        let found = match shards.get(r) {
            Some(shard) if end <= shard.len() as u64 => {
                hex(&shard[cell.offset as usize..end as usize])
            }
            _ => "missing".to_string(),
        };
        sidecar.push_str(&format!(
            "cell region={} domain={} offset={} len={} fault={} found={}\n",
            cell.region, cell.domain, cell.offset, cell.len, cell.fault, found
        ));
    }
    for (offset, len) in &scan.gaps {
        sidecar.push_str(&format!("journal-gap offset={offset} bytes={len}\n"));
    }
    if let Some((offset, len)) = scan.torn_tail {
        sidecar.push_str(&format!("torn-tail offset={offset} bytes={len}\n"));
    }
    let quarantine_path = dir.join(QUARANTINE_FILE);
    backend.append_file(&quarantine_path, sidecar.as_bytes())?;
    backend.sync_file(&quarantine_path)?;

    // Rewrite the journal keeping only valid records (their raw bytes,
    // verbatim, in original order — shard offsets are untouched), then
    // reclaim shard bytes past the last valid extent. Not crash-atomic:
    // a crash mid-rewrite tears the journal tail, which the next open
    // salvages like any other torn tail — cells, not correctness, are
    // the worst case.
    let mut rewritten = Vec::with_capacity(scan.keep_len as usize);
    for rec in scan
        .records
        .iter()
        .filter(|r| r.class == RecordClass::Valid)
    {
        rewritten.extend_from_slice(&journal[rec.span.0..rec.span.1]);
    }
    let journal_path = dir.join(JOURNAL_FILE);
    backend.write_file(&journal_path, &rewritten)?;
    backend.sync_file(&journal_path)?;
    for r in 0..regions {
        if (shards[r].len() as u64) > valid_water[r] {
            let path = shard_path(dir, r as u8);
            backend.truncate_file(&path, valid_water[r])?;
            backend.sync_file(&path)?;
        }
    }

    // If the store was ever sealed, both index slots are rewritten from
    // the repaired journal: a stale sealed view could otherwise point a
    // snapshot at quarantined or reclaimed extents. Never-sealed stores
    // stay index-less.
    if slots
        .iter()
        .any(|s| !matches!(s, crate::index::SlotState::Missing))
    {
        let best = slots
            .iter()
            .filter_map(|s| match s {
                crate::index::SlotState::Valid(file) => Some(file),
                _ => None,
            })
            .max_by_key(|file| file.generation);
        // Keep the prior segment assignment for cells whose offset is
        // unchanged so epoch tooling still sees them as stable.
        let prior: BTreeMap<(u8, &str), (u64, u64)> = best
            .map(|file| {
                file.entries
                    .iter()
                    .map(|e| ((e.region, &*e.domain), (e.segment, e.offset)))
                    .collect()
            })
            .unwrap_or_default();
        let generation = best.map(|file| file.generation).unwrap_or(0) + 1;
        let mut cells: BTreeMap<(u8, &str), (u64, u32, u64)> = BTreeMap::new();
        for rec in scan
            .records
            .iter()
            .filter(|r| r.class == RecordClass::Valid)
        {
            cells.insert(
                (rec.region, &rec.domain),
                (rec.offset, rec.len, rec.payload_hash),
            );
        }
        let entry = |(&(region, domain), &(offset, len, payload_hash))| {
            let segment = match prior.get(&(region, domain)) {
                Some(&(seg, prior_offset)) if prior_offset == offset => seg,
                _ => generation,
            };
            IndexEntry {
                region,
                domain,
                segment,
                offset,
                len,
                payload_hash,
            }
        };
        for slot in 0..INDEX_SLOTS {
            let view = cells.iter().map(entry);
            let count = cells.len() as u64;
            write_slot(dir, backend, slot, generation, &valid_water, count, view)?;
        }
        report.index_slots_rewritten = INDEX_SLOTS;
    }
    report.repaired = true;
    Ok(report)
}

/// The quarantine ledger: every `(region, domain)` cell ever quarantined
/// at this store, in sidecar order. Empty when no sidecar exists.
pub fn quarantine_ledger(
    dir: &Path,
    backend: &dyn StorageBackend,
) -> io::Result<Vec<(u8, String)>> {
    let bytes = match backend.read_file(&dir.join(QUARANTINE_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut cells = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("cell ") else {
            continue;
        };
        let mut region = None;
        let mut domain = None;
        for field in rest.split_whitespace() {
            if let Some(v) = field.strip_prefix("region=") {
                region = v.parse::<u8>().ok();
            } else if let Some(v) = field.strip_prefix("domain=") {
                domain = Some(v.to_string());
            }
        }
        if let (Some(r), Some(d)) = (region, domain) {
            cells.push((r, d));
        }
    }
    Ok(cells)
}

/// Read the journal and every shard, treating missing files as empty.
pub(crate) fn read_journal_and_shards(
    dir: &Path,
    backend: &dyn StorageBackend,
    regions: usize,
) -> io::Result<(Vec<u8>, Vec<Vec<u8>>)> {
    let journal = match backend.read_file(&dir.join(JOURNAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut shards: Vec<Vec<u8>> = Vec::with_capacity(regions);
    for r in 0..regions {
        shards.push(match backend.read_file(&shard_path(dir, r as u8)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        });
    }
    Ok((journal, shards))
}
