//! Integration tests over the fixture trees under `tests/fixtures/`: each
//! rule-class fixture makes its rule fire exactly once, the clean tree
//! reports nothing, and the CLI maps outcomes to exit codes (0 clean, 1
//! findings, 2 usage).

use lint::run;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run the linter over a fixture tree and return the rules that fired.
fn findings(name: &str) -> Vec<String> {
    let report = run(&fixture(name)).expect("fixture tree scans");
    report.findings.iter().map(|f| f.rule.to_string()).collect()
}

fn fires_exactly_once(tree: &str, rule: &str) {
    let found = findings(tree);
    assert_eq!(
        found,
        vec![rule.to_string()],
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
fn r9_does_not_reach_a_same_named_method_outside_the_dependencies() {
    // `visit` depends on `dom`, not on `cli`: the unhinted `doc.render()`
    // reaches `Dom::render` only, though `Cli::render` allocates too.
    fires_exactly_once("r9-crates", "hot-path-allocation");
    let report = run(&fixture("r9-crates")).unwrap();
    assert!(report.findings[0].message.contains("`Dom::render`"));
}

#[test]
fn r9_reaches_a_trait_impl_in_a_crate_that_is_not_a_dependency() {
    // `net` cannot name `site`, but it sees the `Server` trait `site`
    // implements: the impl stays reachable, the inherent `Page::handle`
    // does not.
    fires_exactly_once("r9-trait", "hot-path-allocation");
    let report = run(&fixture("r9-trait")).unwrap();
    assert!(report.findings[0].message.contains("`Site::handle`"));
}

#[test]
fn r9_error_paths_are_cold() {
    // The helpers reached only through `map_err`, `Err(..)` and a branch
    // that returns `Err(..)` allocate too, but only `render` is hot.
    fires_exactly_once("r9-cold", "hot-path-allocation");
    let report = run(&fixture("r9-cold")).unwrap();
    assert!(report.findings[0].message.contains("`render`"));
}

#[test]
fn r9_roots_are_named_by_path() {
    // `webdom::parse` is a root; `Thing::parse` in the same crate is not.
    fires_exactly_once("r9-roots", "hot-path-allocation");
    let report = run(&fixture("r9-roots")).unwrap();
    assert!(report.findings[0].message.contains("from root `parse`"));
}

#[test]
fn a_cfg_test_module_file_is_test_code() {
    // `samples.rs`, included by `#[cfg(test)] mod samples;`, reads the
    // clock silently; its production sibling `clock.rs` fires.
    fires_exactly_once("r1-test-module", "determinism");
    let report = run(&fixture("r1-test-module")).unwrap();
    assert_eq!(report.findings[0].path, "src/clock.rs");
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
fn r12_test_only_api_fires_exactly_once() {
    // `peak` is called by a unit test and `tests/peak.rs` only; `total`
    // is named as a value in `report`, which the example calls.
    fires_exactly_once("r12-test-only", "test-only-api");
    let report = run(&fixture("r12-test-only")).unwrap();
    assert!(report.findings[0].message.contains("`pub fn Tally::peak`"));
}

#[test]
fn r12_unread_field_fires_exactly_once() {
    // `total` is read through `.total`, `peak` by a pattern, `Summary`'s
    // field by its `Serialize` derive; `label` only by a unit test.
    fires_exactly_once("r12-field", "test-only-api");
    let report = run(&fixture("r12-field")).unwrap();
    assert!(report.findings[0].message.contains("`Tally::label`"));
}

#[test]
fn cfg_liveness_scopes_r7_to_the_live_guard() {
    // Two guards, two waits: the early-dropped guard keeps its wait
    // silent, so block-scoped liveness reports exactly one finding — a
    // span-until-end-of-scope approximation would report two.
    let report = run(&fixture("cfg-liveness")).expect("tree scans");
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![25],
        "only the wait under the still-live guard may fire"
    );
    assert_eq!(report.findings[0].rule, "blocking-under-lock");
}

#[test]
fn r6_witness_chain_spans_every_function_in_the_cycle() {
    // The inversion in the r6 fixture crosses four functions; the single
    // finding must carry the complete multi-function witness chain with
    // a file:line span for each edge endpoint.
    let report = run(&fixture("r6")).expect("r6 tree scans");
    assert_eq!(report.findings.len(), 1);
    let message = &report.findings[0].message;
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
fn clean_tree_reports_nothing_and_honors_the_suppression() {
    let report = run(&fixture("clean")).expect("clean tree scans");
    assert!(report.findings.is_empty(), "clean fixture must not fire");
    assert_eq!(report.suppressed, 1, "the reasoned lint:allow must count");
}

#[test]
fn workspace_self_lint_is_clean() {
    // The repo itself must pass its own gate — same invariant check.sh
    // enforces, kept here so `cargo test` alone catches a regression.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("workspace scans");
    let failing: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        failing.is_empty(),
        "workspace lint failures:\n{}",
        failing.join("\n")
    );
}

#[test]
fn workspace_suppressions_name_live_rules() {
    // Every inline suppression in the workspace must name a rule that
    // still exists — a directive naming a retired rule is reported by
    // the engine as a `suppression` finding, which the clean self-lint
    // in `tests/workspace.rs` would catch; pin the mechanism itself here.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("workspace scans");
    assert!(
        !report.findings.iter().any(|f| f.rule == "suppression"),
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
    let report = run(&dir).expect("temp tree scans");
    let suppression_findings: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "suppression")
        .map(|f| f.message.as_str())
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

    for flag in [
        "--no-such-flag",
        "--cache",
        "--cache-dir",
        "--jobs",
        "--baseline",
        "--update-baseline",
    ] {
        let usage = cli(&[flag]);
        assert_eq!(usage.status.code(), Some(2), "`{flag}` must exit 2");
    }

    let help = cli(&["--help"]);
    assert_eq!(help.status.code(), Some(0), "--help must exit 0");
    let text = String::from_utf8(help.stdout).unwrap();
    assert!(text.starts_with("usage: "), "usage goes to stdout:\n{text}");
}

#[test]
fn cli_lists_all_twelve_rules() {
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
        "test-only-api",
    ] {
        assert!(text.contains(rule), "--list-rules must name {rule}");
    }
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
        "\"summary\": {\"failing\": 1, \"suppressed\": 0, \"files_scanned\": 1}",
    ] {
        assert!(
            text.contains(key),
            "json output must contain `{key}`:\n{text}"
        );
    }
    assert!(
        !text.contains("\"status\""),
        "findings carry no status:\n{text}"
    );

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
