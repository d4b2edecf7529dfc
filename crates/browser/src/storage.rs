//! Per-origin `localStorage`.
//!
//! Consent state on real cookiewall sites lives in *two* places: the
//! consent cookie and a localStorage entry the wall script writes. That
//! redundancy is why §5 of the paper finds revocation non-trivial: "they
//! must delete their cookies **and local storage** (specific to the
//! website)" — deleting only the cookies lets the wall script restore the
//! consent cookie from localStorage on the next visit.

use std::collections::HashMap;

/// Browser-profile storage: origin (registrable domain) → key → value.
#[derive(Debug, Clone, Default)]
pub struct LocalStorage {
    origins: HashMap<String, HashMap<String, String>>,
}

impl LocalStorage {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// `localStorage.setItem` for `origin`.
    // lint:allow(r9) — localStorage owns its keys and values; only consent clicks write it, never a plain visit
    pub fn set(&mut self, origin: &str, key: &str, value: &str) {
        self.origins
            .entry(origin.to_ascii_lowercase())
            .or_default()
            .insert(key.to_string(), value.to_string());
    }

    /// `localStorage.getItem` for `origin`.
    pub fn get(&self, origin: &str, key: &str) -> Option<&str> {
        self.origins
            .get(&origin.to_ascii_lowercase())
            .and_then(|m| m.get(key))
            .map(String::as_str)
    }

    /// `localStorage.removeItem`.
    pub fn remove(&mut self, origin: &str, key: &str) {
        if let Some(m) = self.origins.get_mut(&origin.to_ascii_lowercase()) {
            m.remove(key);
        }
    }

    /// Clear one origin's storage (the site-specific half of the §5
    /// revocation procedure).
    pub fn clear_origin(&mut self, origin: &str) {
        self.origins.remove(&origin.to_ascii_lowercase());
    }

    /// Clear everything.
    pub fn clear(&mut self) {
        self.origins.clear();
    }

    /// Number of keys stored for `origin`.
    pub fn len_for(&self, origin: &str) -> usize {
        self.origins
            .get(&origin.to_ascii_lowercase())
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Total number of origins with any storage.
    pub fn origin_count(&self) -> usize {
        self.origins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut s = LocalStorage::new();
        assert_eq!(s.get("site.de", "k"), None);
        s.set("site.de", "k", "v");
        assert_eq!(s.get("site.de", "k"), Some("v"));
        assert_eq!(s.get("SITE.DE", "k"), Some("v"), "origin case-insensitive");
        assert_eq!(s.get("other.de", "k"), None, "origin isolation");
        s.set("site.de", "k", "v2");
        assert_eq!(s.get("site.de", "k"), Some("v2"));
        s.remove("site.de", "k");
        assert_eq!(s.get("site.de", "k"), None);
    }

    #[test]
    fn clear_origin_scoped() {
        let mut s = LocalStorage::new();
        s.set("a.de", "x", "1");
        s.set("a.de", "y", "2");
        s.set("b.de", "x", "3");
        assert_eq!(s.len_for("a.de"), 2);
        s.clear_origin("a.de");
        assert_eq!(s.len_for("a.de"), 0);
        assert_eq!(s.get("b.de", "x"), Some("3"));
        assert_eq!(s.origin_count(), 1);
        s.clear();
        assert_eq!(s.origin_count(), 0);
    }
}
