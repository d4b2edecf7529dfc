//! The crash-point fuzzer, report-level: a persistent sweep whose disk
//! dies at an arbitrary byte — optionally while also injecting torn
//! writes, bit rot, ENOSPC, short reads, and lying fsyncs — must, after
//! power loss, `fsck`, and a resumed sweep on a healthy disk, produce a
//! `StudyReport` byte-identical to an uninterrupted fault-free `run_all`.
//! Quarantined cells are simply re-crawled; corrupted payloads are never
//! decoded (the payload hash rejects them first), so no disk fault can
//! bend the science.

#![allow(clippy::disallowed_methods, reason = "PROPTEST_CASES sets the cases")]

use analysis::persist::targets_hash;
use analysis::{run_all, run_all_persistent, CheckpointPolicy, Study};
use httpsim::Region;
use proptest::test_runner::{TestCaseError, TestRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use store::{fsck, DiskFaultConfig, FaultyBackend, MemBackend, Store};
use webgen::PopulationConfig;

fn mem_dir() -> PathBuf {
    PathBuf::from("/mem/study-store")
}

fn fresh_study() -> Study {
    // A fresh Study per phase simulates a process restart, exactly as in
    // the resume tests: only the store contents survive.
    Study::with_fault_config(PopulationConfig::tiny(), None)
}

fn baseline_json() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| run_all(&fresh_study()).to_json())
}

fn create_mem_store(dir: &Path, mem: Arc<MemBackend>) {
    let study = fresh_study();
    let hash = targets_hash(&study.targets()).to_string();
    let store = Store::create_with(
        dir,
        Region::ALL.len(),
        &[("targets_hash".to_string(), hash)],
        mem,
    )
    .expect("mem store creates");
    drop(store);
}

/// Run the chaos phase: a persistent sweep on a disk that dies at
/// `crash_at` mutated bytes (with fault rate `rate` until then), then
/// power loss, then `fsck`. Returns an error string on a broken invariant.
fn crash_and_scrub(
    crash_at: u64,
    seed: u64,
    rate: f64,
    abort_after: usize,
) -> Result<Arc<MemBackend>, String> {
    let dir = mem_dir();
    let mem = Arc::new(MemBackend::default());
    create_mem_store(&dir, mem.clone());
    let faulty = Arc::new(FaultyBackend::with_crash_point(
        mem.clone(),
        DiskFaultConfig { seed, rate },
        Some(crash_at),
    ));
    let study = fresh_study();
    let policy = CheckpointPolicy {
        every: 4,
        abort_after: Some(abort_after),
    };
    // Store IO errors during the sweep are durability losses, not sweep
    // failures; a short read can fail the open itself — also survivable.
    if let Ok(store) = Store::open_with(&dir, faulty.clone()) {
        let _ = run_all_persistent(&study, &store, &policy);
    }
    mem.crash();
    fsck(&dir, mem.as_ref(), false).map_err(|e| format!("fsck after crash: {e}"))?;
    Ok(mem)
}

/// Resume on the now-healthy disk and demand the byte-identical report.
fn resume_and_check(mem: Arc<MemBackend>) -> Result<(), String> {
    let dir = mem_dir();
    let study = fresh_study();
    let store = Store::open_with(&dir, mem).map_err(|e| format!("reopen after fsck: {e}"))?;
    let policy = CheckpointPolicy {
        every: 4,
        abort_after: None,
    };
    match run_all_persistent(&study, &store, &policy) {
        Ok(Some(report)) => {
            if report.to_json() == baseline_json() {
                Ok(())
            } else {
                Err("resumed report diverged from the fault-free baseline".to_string())
            }
        }
        Ok(None) => Err("resume aborted without an abort hook".to_string()),
        Err(e) => Err(format!("resume failed: {e}")),
    }
}

/// Total mutated bytes a bounded chaos prefix exposes, learned from a
/// crash-free probe run — crash points are sampled inside this window.
fn probe_mutation_window(abort_after: usize) -> u64 {
    let dir = mem_dir();
    let mem = Arc::new(MemBackend::default());
    create_mem_store(&dir, mem.clone());
    let probe = Arc::new(FaultyBackend::new(mem, DiskFaultConfig::noop()));
    let study = fresh_study();
    let policy = CheckpointPolicy {
        every: 4,
        abort_after: Some(abort_after),
    };
    let store = Store::open_with(&dir, probe.clone()).expect("probe store opens");
    let _ = run_all_persistent(&study, &store, &policy);
    drop(store);
    probe.mutated_bytes()
}

#[test]
fn crash_at_quartile_points_resumes_byte_identical() {
    let total = probe_mutation_window(24);
    assert!(total > 0, "probe must exercise the mutation clock");
    for crash_at in [1, total / 4, total / 2, 3 * total / 4, total] {
        let crash_at = crash_at.max(1);
        let mem = crash_and_scrub(crash_at, 0, 0.0, 24)
            .unwrap_or_else(|e| panic!("crash point {crash_at}/{total}: {e}"));
        resume_and_check(mem).unwrap_or_else(|e| panic!("crash point {crash_at}/{total}: {e}"));
    }
}

/// A trimmed-down `proptest::run_cases`: each full cycle here costs a
/// resumed sweep (~1s), so the default case count is smaller than the
/// library's 64. `PROPTEST_CASES` still overrides it either way.
fn fuzz_cases<F>(name: &str, default_cases: usize, mut case: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default_cases);
    let seed = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    for i in 0..cases {
        let mut rng = TestRng::from_seed(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (inputs, outcome) = case(&mut rng);
        if let Err(TestCaseError::Fail(msg)) = outcome {
            panic!(
                "property `{name}` falsified at case {i}/{cases} (seed {seed:#x})\n\
                 inputs: {inputs}\n{msg}"
            );
        }
    }
}

#[test]
fn fuzzed_crash_points_with_disk_chaos_resume_byte_identical() {
    let total = probe_mutation_window(40);
    fuzz_cases("diskfault_crash_resume", 12, |rng| {
        let crash_at = 1 + rng.below(total as usize) as u64;
        let seed = rng.next_u64();
        // Half the cases are pure crashes; the rest crash a disk that was
        // already lying, tearing, and rotting bits on the way down.
        let rate = if rng.chance(0.5) {
            0.0
        } else {
            0.02 + rng.unit_f64() * 0.08
        };
        let abort_after = 1 + rng.below(40);
        let inputs = format!(
            "crash_at={crash_at}/{total} seed={seed:#x} rate={rate:.3} abort={abort_after}"
        );
        let outcome = crash_and_scrub(crash_at, seed, rate, abort_after)
            .and_then(resume_and_check)
            .map_err(TestCaseError::fail);
        (inputs, outcome)
    });
}
