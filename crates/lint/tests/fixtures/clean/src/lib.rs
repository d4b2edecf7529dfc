//! Clean fixture: every construct here *looks* like a violation but is
//! legitimately exempt — the linter must report nothing.

/// A suppressed discarded write, with the mandatory reason.
pub fn best_effort(path: &std::path::Path) {
    // lint:allow(swallowed-io-errors) — fixture demonstrating a well-formed suppression
    let _ = std::fs::write(path, b"");
}

/// Discarded writes inside string literals are text, not calls.
pub fn docs() -> &'static str {
    r#"let _ = std::fs::write(path, data); and the linter will // object"#
}

/// `HashMap` outside a `Serialize` derive is fine.
#[derive(Debug, Default)]
pub struct Scratch {
    pub seen: std::collections::HashMap<String, u32>,
}

#[cfg(test)]
mod tests {
    #[test]
    fn discarded_io_is_fine_in_tests() {
        let _ = std::fs::remove_file("no-such-scratch-file");
    }
}
