//! Golden snapshot of the linter's rendered report — the line format is
//! parsed by humans, editors (path:line:), and check.sh, so it may only
//! change deliberately (regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p lint --test golden`).

use std::path::Path;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_report.txt");

#[test]
fn rendered_report_matches_golden_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden");
    let report = lint::run(&root).expect("golden fixture scans");
    let rendered = report.render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        eprintln!("fixture regenerated: {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE).expect(
        "golden report missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p lint --test golden",
    );
    assert_eq!(
        expected, rendered,
        "lint report format drifted from the golden fixture; if the \
         change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}
