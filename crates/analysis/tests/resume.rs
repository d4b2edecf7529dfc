//! Resume determinism: a persistent run killed after K tasks and then
//! resumed (possibly several times) must produce a `StudyReport` whose
//! JSON is byte-identical to an uninterrupted `run_all` — with and
//! without deterministic fault injection.

#![allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]

use analysis::persist::targets_hash;
use analysis::{run_all, run_all_persistent, CheckpointPolicy, Study};
use httpsim::{FaultConfig, Region};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use store::Store;
use webgen::PopulationConfig;

fn tempdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cookiewall-resume-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_study(fault: Option<FaultConfig>) -> Study {
    // A fresh Study per phase simulates a process restart: new network,
    // new origin visit counters, new browser pool — only the store
    // directory survives, exactly as it would across a real kill.
    Study::with_fault_config(PopulationConfig::tiny(), fault)
}

fn create_store(dir: &Path, study: &Study) -> Store {
    let hash = targets_hash(&study.targets()).to_string();
    Store::create(
        dir,
        Region::ALL.len(),
        &[("targets_hash".to_string(), hash)],
    )
    .expect("store creates")
}

/// Run to completion through a sequence of kills: each phase aborts after
/// `k` newly crawled cells (dropping the unflushed tail, like a kill),
/// until a final phase with no abort finishes the sweep.
fn run_with_kills(dir: &Path, fault: Option<FaultConfig>, k: usize, max_kills: usize) -> String {
    let mut kills = 0;
    loop {
        let study = fresh_study(fault);
        let store = if kills == 0 {
            create_store(dir, &study)
        } else {
            Store::open(dir).expect("store reopens")
        };
        let abort_after = (kills < max_kills).then_some(k);
        let policy = CheckpointPolicy {
            every: 4,
            abort_after,
        };
        match run_all_persistent(&study, &store, &policy).expect("targets hash matches") {
            Some(report) => return report.to_json(),
            None => {
                kills += 1;
                assert!(
                    kills <= max_kills,
                    "aborted more often than the abort hook allows"
                );
                // The store (with its buffered, unflushed tail) is dropped
                // here — the simulated kill point.
            }
        }
    }
}

#[test]
fn resume_is_byte_identical_fault_free() {
    let baseline = run_all(&fresh_study(None)).to_json();
    for k in [0usize, 7, 40] {
        let dir = tempdir();
        let resumed = run_with_kills(&dir, None, k, 1);
        assert_eq!(
            resumed, baseline,
            "kill after {k} new cells must not change the report"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_is_byte_identical_under_faults() {
    let fault = {
        let mut f = FaultConfig::new(1234);
        f.transient_rate = 0.12;
        f.permanent_rate = 0.04;
        f
    };
    let baseline = run_all(&fresh_study(Some(fault))).to_json();
    assert!(
        baseline.contains("failures"),
        "fault injection should surface a failure taxonomy"
    );
    let dir = tempdir();
    let resumed = run_with_kills(&dir, Some(fault), 11, 1);
    assert_eq!(resumed, baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_kills_converge_to_the_same_report() {
    let baseline = run_all(&fresh_study(None)).to_json();
    let dir = tempdir();
    // Three kills at a coarse stride, then a finishing run.
    let resumed = run_with_kills(&dir, None, 150, 3);
    assert_eq!(resumed, baseline);
    // The finished store holds the full (region x domain) matrix.
    let store = Store::open(&dir).unwrap();
    let study = fresh_study(None);
    assert_eq!(
        store.len(),
        Region::ALL.len() * study.targets().len(),
        "every cell persisted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_store_is_rejected() {
    let dir = tempdir();
    let study = fresh_study(None);
    let store = Store::create(
        &dir,
        Region::ALL.len(),
        &[("targets_hash".to_string(), "12345".to_string())],
    )
    .unwrap();
    let err = run_all_persistent(&study, &store, &CheckpointPolicy::default())
        .expect_err("foreign store must be rejected");
    assert!(err.contains("targets_hash"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
