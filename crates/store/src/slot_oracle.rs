//! Property: over random ledgers — puts, re-puts of a cell as a second
//! journal record, aborts and reopens, with seals in between — every
//! slot a seal writes is byte-identical to what the one-shot encoder
//! makes of the cells a model derives the way the seal did before it
//! streamed: the last record of each cell wins, and a cell keeps the
//! segment of the last sealed view while its offset is unchanged. The
//! same cells streamed in random small pieces must match the oracle
//! too, so the checksum carry across pieces is exercised on every slot.

use crate::index::{encode_index_oneshot, encode_index_pieces, slot_path, IndexEntry, INDEX_SLOTS};
use crate::journal::{encode_record, shard_path, JOURNAL_FILE};
use crate::{MemBackend, StorageBackend, Store};
use httpsim::content_hash;
use proptest::test_runner::{run_cases, TestCaseError, TestRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const REGIONS: usize = 3;

/// One durable journal record as the model sees it.
struct Record {
    region: u8,
    domain: String,
    offset: u64,
    len: u32,
    payload_hash: u64,
}

/// What a correct store has written, and what its next seal must write.
struct Model {
    /// Durable records in journal order.
    ledger: Vec<Record>,
    shard_len: Vec<u64>,
    /// Puts since the last seal, in put order.
    pending: Vec<(u8, String, Vec<u8>)>,
    /// `(segment, offset)` of every cell of the last sealed view.
    sealed: BTreeMap<(u8, String), (u64, u64)>,
    next_generation: u64,
    /// `(ledger length, shard lengths)` at the last seal of this open.
    fingerprint: Option<(usize, Vec<u64>)>,
}

impl Model {
    fn live(&self, region: u8, domain: &str) -> bool {
        let same = |r: u8, d: &str| r == region && d == domain;
        self.ledger.iter().any(|rec| same(rec.region, &rec.domain))
            || self.pending.iter().any(|(r, d, _)| same(*r, d))
    }

    fn append(&mut self, region: u8, domain: String, payload: &[u8]) {
        let offset = self.shard_len[region as usize];
        self.shard_len[region as usize] += payload.len() as u64;
        self.ledger.push(Record {
            region,
            domain,
            offset,
            len: payload.len() as u32,
            payload_hash: content_hash(payload),
        });
    }

    /// Flush, then the seal's generation and entries — `None` when the
    /// seal must skip the write because nothing changed.
    fn seal(&mut self) -> (u64, Option<Vec<IndexEntry>>) {
        for (region, domain, payload) in std::mem::take(&mut self.pending) {
            self.append(region, domain, &payload);
        }
        let fingerprint = (self.ledger.len(), self.shard_len.clone());
        if self.fingerprint.as_ref() == Some(&fingerprint) {
            return (self.next_generation - 1, None);
        }
        let generation = self.next_generation;
        let mut cells = BTreeMap::new();
        for rec in &self.ledger {
            cells.insert((rec.region, rec.domain.clone()), rec);
        }
        let entries: Vec<IndexEntry> = cells
            .iter()
            .map(|(key, rec)| IndexEntry {
                region: rec.region,
                domain: rec.domain.as_str().into(),
                segment: match self.sealed.get(key) {
                    Some(&(segment, offset)) if offset == rec.offset => segment,
                    _ => generation,
                },
                offset: rec.offset,
                len: rec.len,
                payload_hash: rec.payload_hash,
            })
            .collect();
        self.sealed = entries
            .iter()
            .map(|e| ((e.region, e.domain.to_string()), (e.segment, e.offset)))
            .collect();
        self.next_generation += 1;
        self.fingerprint = Some(fingerprint);
        (generation, Some(entries))
    }
}

fn open(dir: &Path, mem: &Arc<MemBackend>) -> Store {
    let store = Store::open_with(dir, mem.clone()).expect("reopen");
    store.set_checkpoint_every(usize::MAX); // only seals flush
    store
}

fn random_bytes(rng: &mut TestRng, alphabet: &[u8], len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

fn check(rng: &mut TestRng, log: &mut Vec<String>) -> Result<(), TestCaseError> {
    let dir = Path::new("/mem/oracle");
    let mem = Arc::new(MemBackend::default());
    Store::create_with(dir, REGIONS, &[], mem.clone()).expect("create");
    let mut store = open(dir, &mem);
    let domains: Vec<String> = (0..1 + rng.below(16))
        .map(|_| {
            let len = 1 + rng.below(40);
            String::from_utf8(random_bytes(rng, b"abcdefghij0123.-", len)).expect("ascii")
        })
        .collect();
    let mut model = Model {
        ledger: Vec::new(),
        shard_len: vec![0; REGIONS],
        pending: Vec::new(),
        sealed: BTreeMap::new(),
        next_generation: 1,
        fingerprint: None,
    };
    let mut seals = 0;
    for _ in 0..1 + rng.below(48) {
        let region = rng.below(REGIONS) as u8;
        let domain = domains[rng.below(domains.len())].clone();
        let len = rng.below(48);
        let payload = random_bytes(rng, b"0123456789abcdef<>/= ", len);
        match rng.below(10) {
            0..5 => {
                log.push(format!("put {region} {domain} {len}"));
                let fresh = !model.live(region, &domain);
                let accepted = store.put(region, &domain, &payload).expect("put");
                if accepted != fresh {
                    return Err(TestCaseError::fail("put acceptance differs from the model"));
                }
                if fresh {
                    model.pending.push((region, domain, payload));
                }
            }
            5 | 6 => {
                log.push("seal".to_string());
                seals += 1;
                seal_and_compare(&store, &mem, dir, &mut model, rng)?;
            }
            7 => {
                // A re-crawl's record: the cell again, at a new offset.
                log.push(format!("re-put {region} {domain} {len} and reopen"));
                drop(store);
                model.pending.clear();
                let offset = model.shard_len[region as usize];
                let record = encode_record(region, &domain, offset, &payload);
                mem.append_file(&shard_path(dir, region), &payload)
                    .expect("shard");
                mem.append_file(&dir.join(JOURNAL_FILE), &record)
                    .expect("journal");
                model.append(region, domain, &payload);
                model.fingerprint = None;
                store = open(dir, &mem);
            }
            _ => {
                log.push("abort and reopen".to_string());
                drop(store);
                model.pending.clear();
                model.fingerprint = None;
                store = open(dir, &mem);
            }
        }
    }
    if seals == 0 || rng.chance(0.5) {
        log.push("seal".to_string());
        seal_and_compare(&store, &mem, dir, &mut model, rng)?;
    }
    Ok(())
}

fn seal_and_compare(
    store: &Store,
    mem: &MemBackend,
    dir: &Path,
    model: &mut Model,
    rng: &mut TestRng,
) -> Result<(), TestCaseError> {
    let sealed = store.seal().expect("seal");
    let (generation, entries) = model.seal();
    if sealed != generation {
        return Err(TestCaseError::fail(format!(
            "sealed generation {sealed}, model {generation}"
        )));
    }
    let Some(entries) = entries else {
        return Ok(());
    };
    let oracle = encode_index_oneshot(generation, &model.shard_len, &entries);
    let slot = slot_path(dir, (generation % INDEX_SLOTS as u64) as usize);
    if mem.read_file(&slot).ok().as_ref() != Some(&oracle) {
        return Err(TestCaseError::fail(format!(
            "slot of generation {generation} differs from the oracle"
        )));
    }
    let piece = 1 + rng.below(oracle.len() + 1);
    let pieces = encode_index_pieces(generation, &model.shard_len, &entries, piece);
    if pieces.concat() != oracle {
        return Err(TestCaseError::fail(format!(
            "generation {generation} streamed in {piece}-byte pieces differs from the oracle"
        )));
    }
    Ok(())
}

#[test]
fn streamed_slots_match_the_oneshot_oracle() {
    run_cases("streamed_slots_match_the_oneshot_oracle", |rng| {
        let mut log = Vec::new();
        let outcome = check(rng, &mut log);
        (log.join("; "), outcome)
    });
}
