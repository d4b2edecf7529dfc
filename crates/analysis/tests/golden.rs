//! Golden snapshot: the full small-scale study, serialized, against a
//! checked-in fixture.
//!
//! The study is deterministic end to end — the population is seeded, the
//! synthetic web is a pure function of it, and the crawl scheduler is
//! required to produce records independent of worker count, interleaving,
//! and cache mode. Any diff against the fixture is therefore a behavior
//! change that must be reviewed (and the fixtures regenerated with
//! `UPDATE_GOLDEN=1 cargo test -p analysis --test golden`).

#![allow(clippy::disallowed_methods, reason = "UPDATE_GOLDEN and scratch dirs")]

use analysis::persist::targets_hash;
use analysis::runner::EPOCH_SUMMARY_NOTE;
use analysis::{run_all_persistent, CheckpointPolicy, RetryPolicy, Study};
use bannerclick::BannerClick;
use httpsim::{FaultConfig, FaultPlan, Network, Region};
use std::sync::Arc;
use store::Store;
use webgen::{Population, PopulationConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_small.json"
);

const NOTE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/epoch_summary_small.txt"
);

fn report_json(cache: bool) -> String {
    let mut study = Study::small();
    study.cache = cache;
    analysis::run_all(&study).to_json()
}

fn fixture() -> String {
    std::fs::read_to_string(FIXTURE).expect(
        "golden fixture missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p analysis --test golden",
    )
}

#[test]
fn small_study_matches_golden_snapshot() {
    let json = report_json(true);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &json).expect("write fixture");
        eprintln!("fixture regenerated: {FIXTURE}");
        return;
    }
    assert_eq!(
        fixture(),
        json,
        "StudyReport JSON drifted from the golden fixture; if the change \
         is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_snapshot_is_cache_mode_independent() {
    // The shared-fetch cache must be a pure optimization: disabling it may
    // not change a single byte of the report.
    assert_eq!(report_json(true), report_json(false));
}

#[test]
fn disabled_fault_layer_matches_golden_snapshot() {
    // A zero-rate fault config is recognized as a no-op and installs no
    // fault plan at all, so the report (including the absence of the
    // `failures` section) is byte-identical to the fixture.
    let study = Study::with_fault_config(PopulationConfig::small(), Some(FaultConfig::new(7)));
    assert!(
        study.fault_plan.is_none(),
        "zero-rate fault config must be a no-op"
    );
    assert_eq!(fixture(), analysis::run_all(&study).to_json());
}

#[test]
fn zero_rate_faulty_server_is_byte_transparent() {
    // Stronger than the no-op filter: with the FaultyServer wrapper
    // actually interposed in front of every origin at rate zero, it must
    // inject nothing and forward every byte unchanged.
    let population = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    let plan = Arc::new(FaultPlan::new(FaultConfig::new(7)));
    webgen::server::install_with_faults(Arc::clone(&population), &net, Some(Arc::clone(&plan)));
    let study = Study {
        population,
        net,
        tool: BannerClick::new(),
        workers: 4,
        cache: true,
        retry: RetryPolicy::default(),
        // No plan on the study: the report must omit the failure section,
        // exactly like a fault-free run.
        fault_plan: None,
    };
    assert_eq!(fixture(), analysis::run_all(&study).to_json());
    assert_eq!(plan.injected().total(), 0, "zero rates may never fire");
}

#[test]
fn small_study_epoch_summary_matches_golden_note() {
    // The epoch-summary note measures cookies on every detected wall
    // *after* all experiments ran, so it reads origin visit counters that
    // every earlier navigation advanced — including each re-crawl of the
    // ablation and bot-detection experiments. A pass that skipped one of
    // those navigations would leave the report intact but drift here.
    let dir = std::env::temp_dir().join(format!("cookiewall-golden-note-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let study = Study::small();
    let meta = [(
        "targets_hash".to_string(),
        targets_hash(&study.targets()).to_string(),
    )];
    let store = Store::create(&dir, Region::ALL.len(), &meta).expect("store creates");
    run_all_persistent(&study, &store, &CheckpointPolicy::default())
        .expect("targets hash matches")
        .expect("no abort requested");
    let note = store
        .read_note(EPOCH_SUMMARY_NOTE)
        .expect("note readable")
        .expect("note written");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(NOTE_FIXTURE, &note).expect("write note fixture");
        eprintln!("fixture regenerated: {NOTE_FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(NOTE_FIXTURE).expect(
        "note fixture missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p analysis --test golden",
    );
    assert_eq!(
        expected, note,
        "epoch-summary note drifted from the golden fixture; if the change \
         is intended, regenerate with UPDATE_GOLDEN=1"
    );
}
