//! Golden fixture: two failing rule findings and one malformed
//! suppression — pins the finding and summary lines of the report format.

use serde::Serialize;
use std::collections::HashMap;
use std::time::SystemTime;

#[derive(Serialize)]
pub struct Tally {
    pub hits: HashMap<String, u64>,
}

// lint:allow(determinism)
pub fn started() -> SystemTime {
    SystemTime::now()
}
