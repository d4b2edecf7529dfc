//! Golden fixture: two failing rule findings and one malformed
//! suppression — pins the finding and summary lines of the report format.

use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
pub struct Tally {
    pub hits: HashMap<String, u64>,
}

// lint:allow(swallowed-io-errors)
pub fn save(path: &std::path::Path) {
    let _ = std::fs::write(path, b"");
}
