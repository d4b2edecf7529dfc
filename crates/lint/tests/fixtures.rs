//! Integration tests over the fixture trees under `tests/fixtures/`: each
//! rule-class fixture makes its rule fire exactly once, the clean tree
//! reports nothing, the baselined tree grandfathers its violation, and
//! the CLI maps outcomes to exit codes (0 clean, 1 findings, 2 usage).

use lint::{run, Status};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run the linter over a fixture tree and return `(rule, status)` pairs.
fn findings(name: &str) -> Vec<(String, Status)> {
    let report = run(&fixture(name), None).expect("fixture tree scans");
    report
        .findings
        .iter()
        .map(|(f, s)| (f.rule.to_string(), *s))
        .collect()
}

fn fires_exactly_once(tree: &str, rule: &str) {
    let found = findings(tree);
    assert_eq!(
        found,
        vec![(rule.to_string(), Status::Failing)],
        "fixture `{tree}` must trip `{rule}` exactly once"
    );
}

#[test]
fn r1_determinism_fires_exactly_once() {
    fires_exactly_once("r1", "determinism");
}

#[test]
fn r2_ordered_serialization_fires_exactly_once() {
    fires_exactly_once("r2", "ordered-serialization");
}

#[test]
fn r3_persist_parity_fires_exactly_once() {
    fires_exactly_once("r3", "persist-parity");
}

#[test]
fn r4_panic_hygiene_fires_exactly_once() {
    fires_exactly_once("r4", "panic-hygiene");
}

#[test]
fn r5_journal_format_fires_exactly_once() {
    fires_exactly_once("r5", "journal-format");
}

#[test]
fn r5_index_format_fires_exactly_once() {
    // The index contract is gated on its own source file: this tree has
    // an `index.rs` with a drifted magic but no `journal.rs`, so only
    // the index pass fires — exactly once.
    fires_exactly_once("r5-index", "journal-format");
}

#[test]
fn r6_lock_order_fires_exactly_once() {
    fires_exactly_once("r6", "lock-order");
}

#[test]
fn r7_blocking_under_lock_fires_exactly_once() {
    fires_exactly_once("r7", "blocking-under-lock");
}

#[test]
fn r7_backend_io_under_lock_fires_exactly_once() {
    // StorageBackend IO methods are blocking roots too: a guard held
    // across `sync_file` must fire no matter which backend is plugged in.
    fires_exactly_once("r7-backend", "blocking-under-lock");
}

#[test]
fn r7_snapshot_io_under_lock_fires_exactly_once() {
    // Sealing and snapshotting are disk IO: a guard held across
    // `snapshot()` must fire like any other blocking root.
    fires_exactly_once("r7-serve", "blocking-under-lock");
}

#[test]
fn r8_seed_taint_fires_exactly_once() {
    fires_exactly_once("r8", "seed-taint");
}

#[test]
fn r9_hot_path_allocation_fires_exactly_once() {
    fires_exactly_once("r9-alloc", "hot-path-allocation");
}

#[test]
fn r10_unbounded_growth_fires_exactly_once() {
    // The drained `seen` field must stay silent; only the grow-only
    // `history` field fires.
    fires_exactly_once("r10-growth", "unbounded-growth");
}

#[test]
fn r11_swallowed_io_fires_exactly_once() {
    // The propagated write must stay silent; only `let _ =` fires.
    fires_exactly_once("r11-swallow", "swallowed-io-errors");
}

#[test]
fn cfg_liveness_scopes_r7_to_the_live_guard() {
    // Two guards, two waits: the early-dropped guard keeps its wait
    // silent, so block-scoped liveness reports exactly one finding — a
    // span-until-end-of-scope approximation would report two.
    let report = run(&fixture("cfg-liveness"), None).expect("tree scans");
    let lines: Vec<u32> = report.findings.iter().map(|(f, _)| f.line).collect();
    assert_eq!(
        lines,
        vec![25],
        "only the wait under the still-live guard may fire"
    );
    assert_eq!(report.findings[0].0.rule, "blocking-under-lock");
}

#[test]
fn r6_witness_chain_spans_every_function_in_the_cycle() {
    // The inversion in the r6 fixture crosses four functions; the single
    // finding must carry the complete multi-function witness chain with
    // a file:line span for each edge endpoint.
    let report = run(&fixture("r6"), None).expect("r6 tree scans");
    assert_eq!(report.findings.len(), 1);
    let message = &report.findings[0].0.message;
    for piece in [
        "`S::a` held in `S::forward` (src/lib.rs:13)",
        "via `tail()` (src/lib.rs:14)",
        "`S::b` acquired in `S::tail` (src/lib.rs:19)",
        "`S::b` held in `S::backward` (src/lib.rs:24)",
        "via `head()` (src/lib.rs:25)",
        "`S::a` acquired in `S::head` (src/lib.rs:30)",
    ] {
        assert!(
            message.contains(piece),
            "witness chain must contain `{piece}`, got:\n{message}"
        );
    }
}

#[test]
fn reasonless_suppression_is_itself_a_finding() {
    fires_exactly_once("suppression", "suppression");
}

#[test]
fn unused_suppression_is_itself_a_finding() {
    fires_exactly_once("suppression-unused", "suppression");
}

#[test]
fn a_file_cache_hit_keeps_its_directives_used() {
    // `a.rs`'s directive silences a local finding. When only `b.rs`
    // changes, `a.rs` hits the cache and skips its local phase: the
    // directive must still count as used, from the cached entry. A stale
    // directive added to `b.rs` is the one finding.
    let dir = std::env::temp_dir().join(format!("lint-used-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("src/a.rs"),
        "pub fn t() -> std::time::Instant {\n    \
         // lint:allow(determinism) — wall-clock metrics only\n    \
         std::time::Instant::now()\n}\n",
    )
    .unwrap();
    std::fs::write(dir.join("src/b.rs"), "pub fn f() {}\n").unwrap();
    let opts = lint::Options {
        jobs: 1,
        cache_dir: Some(dir.join("cache")),
    };
    let cold = lint::run_with(&dir, None, &opts).unwrap();
    assert!(cold.findings.is_empty(), "{}", cold.render());
    assert_eq!(cold.suppressed, 1);

    std::fs::write(
        dir.join("src/b.rs"),
        "// lint:allow(determinism) — nothing here reads the clock\npub fn f() {}\n",
    )
    .unwrap();
    let warm = lint::run_with(&dir, None, &opts).unwrap();
    let stats = warm.cache.expect("cache stats");
    assert_eq!((stats.file_hits, stats.global_hit), (1, false));
    let found: Vec<(&str, &str, u32)> = warm
        .findings
        .iter()
        .map(|(f, _)| (f.rule, f.path.as_str(), f.line))
        .collect();
    assert_eq!(found, [("suppression", "src/b.rs", 1)], "{}", warm.render());
    assert_eq!(warm.render(), lint::run(&dir, None).unwrap().render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_tree_reports_nothing_and_honors_the_suppression() {
    let report = run(&fixture("clean"), None).expect("clean tree scans");
    assert!(report.findings.is_empty(), "clean fixture must not fire");
    assert_eq!(report.suppressed, 1, "the reasoned lint:allow must count");
}

#[test]
fn baselined_violation_is_grandfathered_not_failing() {
    let found = findings("baselined");
    assert_eq!(found, vec![("determinism".into(), Status::Grandfathered)]);
    let report = run(&fixture("baselined"), None).unwrap();
    assert_eq!(report.failing(), 0);
    assert_eq!(report.grandfathered(), 1);
}

#[test]
fn stale_baseline_entry_fails_the_run() {
    // A baseline naming a finding that no longer exists must itself fail:
    // the baseline only ratchets down.
    let dir = std::env::temp_dir().join("lint-stale-baseline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("stale.baseline");
    let real = std::fs::read_to_string(fixture("baselined").join("lint.baseline")).unwrap();
    std::fs::write(
        &stale,
        format!("{real}panic-hygiene\tsrc/gone.rs\told message\n"),
    )
    .unwrap();
    let report = run(&fixture("baselined"), Some(&stale)).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|(f, _)| f.rule).collect();
    assert!(rules.contains(&"baseline"), "stale entry must be flagged");
    assert_eq!(report.failing(), 1);
}

#[test]
fn workspace_self_lint_is_clean() {
    // The repo itself must pass its own gate — same invariant check.sh
    // enforces, kept here so `cargo test` alone catches a regression.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root, None).expect("workspace scans");
    let failing: Vec<String> = report
        .findings
        .iter()
        .filter(|(_, s)| *s == Status::Failing)
        .map(|(f, _)| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        failing.is_empty(),
        "workspace lint failures:\n{}",
        failing.join("\n")
    );
}

#[test]
fn workspace_baseline_stays_empty_and_suppressions_name_live_rules() {
    // The workspace adopted the linter with a clean slate: the baseline
    // file must not exist (or carry no entries), so every new finding
    // fails immediately instead of being quietly grandfathered.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = root.join(lint::BASELINE_FILE);
    if baseline.exists() {
        let text = std::fs::read_to_string(&baseline).unwrap();
        let entries: Vec<&str> = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert!(
            entries.is_empty(),
            "workspace baseline must stay empty, found entries:\n{}",
            entries.join("\n")
        );
    }

    // Every inline suppression in the workspace must name a rule that
    // still exists — a directive naming a retired rule is reported by
    // the engine as a `suppression` finding, which the (clean) self-lint
    // above would catch; pin the mechanism itself here.
    let report = run(&root, None).expect("workspace scans");
    assert!(
        !report.findings.iter().any(|(f, _)| f.rule == "suppression"),
        "no workspace suppression may be malformed or name an unknown rule"
    );
    assert!(
        report.suppressed > 0,
        "the workspace's reasoned suppressions must match real findings"
    );
}

#[test]
fn stale_rule_suppression_becomes_a_finding() {
    // If a rule is ever retired, directives naming it must surface as
    // `suppression` findings rather than rot silently.
    let dir = std::env::temp_dir().join("lint-stale-rule-test");
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("src/lib.rs"),
        "// lint:allow(retired-rule) — rule no longer exists\npub fn f() {}\n",
    )
    .unwrap();
    let report = run(&dir, None).expect("temp tree scans");
    let suppression_findings: Vec<&str> = report
        .findings
        .iter()
        .filter(|(f, _)| f.rule == "suppression")
        .map(|(f, _)| f.message.as_str())
        .collect();
    assert_eq!(suppression_findings.len(), 1);
    assert!(
        suppression_findings[0].contains("unknown rule `retired-rule`"),
        "got: {}",
        suppression_findings[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- CLI exits

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("lint binary runs")
}

#[test]
fn cli_exit_codes_map_outcomes() {
    let violation = cli(&["--root", fixture("r1").to_str().unwrap()]);
    assert_eq!(violation.status.code(), Some(1), "findings must exit 1");

    let clean = cli(&["--root", fixture("clean").to_str().unwrap()]);
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");

    let usage = cli(&["--no-such-flag"]);
    assert_eq!(usage.status.code(), Some(2), "unknown flag must exit 2");
}

#[test]
fn cli_lists_all_eleven_rules() {
    let out = cli(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "determinism",
        "ordered-serialization",
        "persist-parity",
        "panic-hygiene",
        "journal-format",
        "lock-order",
        "blocking-under-lock",
        "seed-taint",
        "hot-path-allocation",
        "unbounded-growth",
        "swallowed-io-errors",
    ] {
        assert!(text.contains(rule), "--list-rules must name {rule}");
    }
}

// -------------------------------------------------- cache & parallelism

#[test]
fn warm_cache_run_is_a_full_hit_with_identical_findings() {
    let dir = std::env::temp_dir().join("lint-cache-hit-test");
    std::fs::remove_dir_all(&dir).ok();
    let opts = lint::Options {
        jobs: 0,
        cache_dir: Some(dir.clone()),
    };
    let cold = lint::run_with(&fixture("r6"), None, &opts).expect("cold run");
    let cold_stats = cold.cache.expect("cache enabled");
    assert_eq!(cold_stats.file_hits, 0, "first run must be cold");
    assert!(!cold_stats.global_hit);

    let warm = lint::run_with(&fixture("r6"), None, &opts).expect("warm run");
    let warm_stats = warm.cache.expect("cache enabled");
    assert_eq!(warm_stats.file_hits, warm_stats.file_total);
    assert!(warm_stats.global_hit, "unchanged tree must hit globally");
    assert_eq!(
        cold.render(),
        warm.render(),
        "warm findings must be byte-identical to cold"
    );
    assert_eq!(cold.render_json(), warm.render_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn editing_a_file_invalidates_its_entry_and_the_global_entry() {
    let dir = std::env::temp_dir().join("lint-cache-invalidate-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("src")).unwrap();
    let a = dir.join("src/lib.rs");
    let b = dir.join("src/other.rs");
    std::fs::write(&a, "pub fn ok() {}\n").unwrap();
    std::fs::write(&b, "pub fn also_ok() {}\n").unwrap();
    let cache_dir = dir.join("cache");
    let opts = lint::Options {
        jobs: 1,
        cache_dir: Some(cache_dir),
    };
    lint::run_with(&dir, None, &opts).expect("cold run");

    // Introduce a violation into one file: that file misses, the other
    // still hits, the global entry misses, and the finding appears.
    std::fs::write(
        &a,
        "pub fn t() -> u128 { now() }\nfn now() -> u128 { thread_rng() }\n",
    )
    .unwrap();
    let edited = lint::run_with(&dir, None, &opts).expect("edited run");
    let stats = edited.cache.expect("cache enabled");
    assert_eq!(stats.file_total, 2);
    assert_eq!(stats.file_hits, 1, "the untouched file must still hit");
    assert!(
        !stats.global_hit,
        "content change must miss the global entry"
    );
    assert_eq!(edited.failing(), 1, "the new violation must be reported");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_count_never_changes_the_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let one = lint::run_with(
        &root,
        None,
        &lint::Options {
            jobs: 1,
            cache_dir: None,
        },
    )
    .expect("jobs=1 run");
    let eight = lint::run_with(
        &root,
        None,
        &lint::Options {
            jobs: 8,
            cache_dir: None,
        },
    )
    .expect("jobs=8 run");
    assert_eq!(
        one.render(),
        eight.render(),
        "findings must be byte-identical at every job count"
    );
    assert_eq!(one.render_json(), eight.render_json());
}

#[test]
fn cli_json_format_emits_stable_schema_and_same_exit_codes() {
    let violation = cli(&[
        "--root",
        fixture("r6").to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(violation.status.code(), Some(1), "findings still exit 1");
    let text = String::from_utf8(violation.stdout).unwrap();
    for key in [
        "\"rule\": \"lock-order\"",
        "\"code\": \"R6\"",
        "\"path\": \"src/lib.rs\"",
        "\"line\": 13",
        "\"span\": {\"col\": 24}",
        "\"status\": \"failing\"",
        "\"summary\": {\"failing\": 1, \"grandfathered\": 0, \"suppressed\": 0, \"files_scanned\": 1}",
    ] {
        assert!(text.contains(key), "json output must contain `{key}`:\n{text}");
    }

    let clean = cli(&[
        "--root",
        fixture("clean").to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(clean.status.code(), Some(0), "clean tree still exits 0");
    let text = String::from_utf8(clean.stdout).unwrap();
    assert!(
        text.contains("\"findings\": []"),
        "empty findings array:\n{text}"
    );

    let bad = cli(&["--format", "yaml"]);
    assert_eq!(
        bad.status.code(),
        Some(2),
        "unknown format is a usage error"
    );
}
