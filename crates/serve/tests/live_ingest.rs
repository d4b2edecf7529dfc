//! The query service under live ingest: three reader threads drive a
//! Zipf(1.1) request stream against epoch A while an ingest thread
//! builds, seals, and installs epoch B mid-stream. Every served answer
//! must be byte-identical to the same query evaluated directly against
//! the sealed snapshots once ingest is done — no reader may ever see a
//! half-installed epoch. Real latencies are perfbench's job
//! (`serve.answer_us.*`); this test pins correctness only.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use analysis::crawl::CrawlRecord;
use analysis::persist::encode_record;
use analysis::query::{evaluate, Query};
use serve::{QueryService, RequestStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::{Store, StoreSnapshot};

const REGIONS: usize = 4;
const DOMAINS: usize = 400;
const READERS: usize = 3;
const REQUESTS_PER_READER: usize = 1000;
const ZIPF: f64 = 1.1;
const SEED: u64 = 42;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cookiewall-serve-live-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic crawl cell: every 5th domain is a wall (offset by epoch,
/// so epochs differ in walls and prices).
fn record(domain: &str, i: usize, epoch: u64) -> Vec<u8> {
    let wall = i % 5 == epoch as usize % 5;
    encode_record(&CrawlRecord {
        domain: domain.to_string(),
        reachable: true,
        banner: wall || i.is_multiple_of(3),
        cookiewall: wall,
        embedding: None,
        monthly_eur: wall.then_some(1.99 + (i % 7) as f64),
        provider: None,
        language: Some("en"),
        attempts: 1,
        failure: None,
    })
}

/// Create one epoch's store, put every cell, and seal it.
fn ingest_epoch(dir: &Path, epoch: u64) {
    let store = Store::create(dir, REGIONS, &[]).expect("store creates");
    for i in 0..DOMAINS {
        let domain = format!("site-{i}.example");
        let payload = record(&domain, i, epoch);
        for region in 0..REGIONS as u8 {
            store.put(region, &domain, &payload).expect("put succeeds");
        }
    }
    store.checkpoint().expect("seal succeeds");
}

#[test]
fn every_answer_under_live_ingest_matches_the_sealed_snapshots() {
    let dir_a = fresh_dir("epoch-a");
    let dir_b = fresh_dir("epoch-b");
    ingest_epoch(&dir_a, 0);
    let snap_a = Arc::new(StoreSnapshot::open(&dir_a).expect("snapshot A opens"));
    let service = QueryService::new(snap_a, true);

    let domains: Vec<String> = (0..DOMAINS).map(|i| format!("site-{i}.example")).collect();
    let stream = RequestStream::new(SEED, domains, ZIPF, REGIONS as u8, true);

    let mut served: Vec<(Query, String, bool)> = Vec::new();
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            ingest_epoch(&dir_b, 1);
            let snap = Arc::new(StoreSnapshot::open(&dir_b).expect("snapshot B opens"));
            service.install_second_epoch(snap);
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let lane = stream.lane(r, REQUESTS_PER_READER);
                let service = &service;
                scope.spawn(move || {
                    lane.into_iter()
                        .map(|query| {
                            let response = service.answer(&query);
                            (query, response.text, response.from_second_epoch)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        ingest.join().expect("ingest thread");
        for handle in readers {
            served.extend(handle.join().expect("reader thread"));
        }
    });
    assert_eq!(served.len(), READERS * REQUESTS_PER_READER);

    let final_a = StoreSnapshot::open(&dir_a).expect("snapshot A reopens");
    let final_b = StoreSnapshot::open(&dir_b).expect("snapshot B reopens");
    for (query, text, second) in &served {
        let expected = match query {
            Query::EpochDiff => evaluate(query, &final_b, Some(&final_a)).text,
            _ if *second => evaluate(query, &final_b, None::<&StoreSnapshot>).text,
            _ => evaluate(query, &final_a, None::<&StoreSnapshot>).text,
        };
        assert_eq!(
            text, &expected,
            "served answer diverges from direct evaluation for {query:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
