//! Workspace self-analysis regression: the lock topology (striped fetch
//! cache, the store's buffer, io and seal locks) must keep the whole
//! workspace clean under the in-repo analyzer — in particular the R6
//! may-hold-while-acquiring graph must stay cycle-free.

use lint::run;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_failing_findings() {
    let report = run(&workspace_root()).expect("workspace tree scans");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    // `render()` carries the witness chains for lock-order cycles, so a
    // regression prints the full deadlock evidence, not just a count.
    assert!(
        report.findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        report.render()
    );
}

/// The lock-order rule specifically: a cycle fails here by name, so a
/// regression prints the deadlock evidence on its own.
#[test]
fn lock_order_graph_is_acyclic() {
    let report = run(&workspace_root()).expect("workspace tree scans");
    let lock_order: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .map(|f| format!("{}:{}: {}", f.path, f.line, f.message))
        .collect();
    assert!(
        lock_order.is_empty(),
        "lock-order cycle(s) in the refactored topology:\n{}",
        lock_order.join("\n")
    );
}
