//! The incremental cache: skip re-analysis of unchanged inputs.
//!
//! Two layers, both stored in one human-greppable TSV under the cache
//! directory (`target/lint-cache` by default):
//!
//! * **file entries** — the post-suppression findings of the *local*
//!   rules (see [`crate::rules::Rule::is_local`]) plus that file's
//!   malformed-suppression findings, and which of its `lint:allow`
//!   directives silenced a local finding, keyed on the file's content
//!   hash. A file whose hash is unchanged skips its local analysis
//!   entirely.
//! * **one global entry** — the post-suppression findings of every
//!   cross-file rule (call graph, lock order, R9–R11), keyed on the
//!   *workspace fingerprint*: the hash of every file's `(path, hash)`
//!   pair plus `DESIGN.md`. The call graph makes these rules global, so
//!   any change anywhere invalidates them — per-file keys are kept
//!   anyway, both for the hit statistics and as the seam a finer
//!   local/global rule split would reuse. The unused-suppression
//!   findings need both phases' used directives, so they are computed
//!   with the global rules and cached with their findings.
//!
//! Every entry is additionally keyed on [`ruleset_id`]: editing a rule's
//! semantics bumps [`RULESET_VERSION`], and adding/renaming a rule
//! changes the id string, so stale caches self-invalidate. The baseline
//! is *not* cached — it is applied after cache assembly, so editing
//! `lint.baseline` never requires re-analysis.
//!
//! Cache corruption of any kind (truncated file, unknown rule name,
//! unparsable line) degrades to a cold run, never to wrong findings.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Bump when any rule's semantics change without its name changing —
/// cached findings from older semantics must not survive.
pub const RULESET_VERSION: u32 = 2;

/// Cache file name inside the cache directory.
const CACHE_FILE: &str = "cache.tsv";

/// The full analysis identity: version plus every suppressible name, so
/// adding, removing, or renaming a rule invalidates the cache.
pub fn ruleset_id() -> String {
    format!(
        "{RULESET_VERSION} {}",
        crate::rules::suppressible_names().join(",")
    )
}

/// FNV-1a 64-bit: the content hash for cache keys. Not cryptographic —
/// a collision costs a stale lint report, not a correctness bug in the
/// shipped code — and dependency-free, which the linter is by design.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Key for the global (cross-file) entry: every input's `(path, hash)`
/// in scan order, `DESIGN.md`, and the ruleset id.
pub fn workspace_fingerprint(ruleset: &str, design: Option<&str>, files: &[(&str, u64)]) -> u64 {
    let mut acc = String::new();
    acc.push_str(ruleset);
    acc.push('\0');
    if let Some(d) = design {
        acc.push_str(d);
    }
    acc.push('\0');
    for (path, hash) in files {
        acc.push_str(path);
        acc.push('\0');
        acc.push_str(&format!("{hash:016x}\0"));
    }
    fnv1a64(acc.as_bytes())
}

/// Cached per-file result: local-rule + malformed-suppression findings
/// that survived suppression, and how many were suppressed.
#[derive(Debug, Clone, Default)]
pub struct FileEntry {
    /// Content hash of the file the entry was computed from.
    pub hash: u64,
    /// Post-suppression findings whose `path` is this file.
    pub findings: Vec<Finding>,
    /// Local findings silenced by valid `lint:allow` directives.
    pub suppressed: u32,
    /// Indices (into the file's valid directives, in source order) of the
    /// `lint:allow` directives that silenced a local finding, ascending.
    pub used: Vec<u32>,
}

/// Cached cross-file result for one workspace fingerprint.
#[derive(Debug, Clone, Default)]
pub struct GlobalEntry {
    /// The [`workspace_fingerprint`] the entry was computed from.
    pub fingerprint: u64,
    /// Post-suppression findings of every global rule.
    pub findings: Vec<Finding>,
    /// Global findings silenced by valid `lint:allow` directives.
    pub suppressed: u32,
}

/// Everything one cache file holds.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Per-file entries by workspace-relative path.
    pub files: BTreeMap<String, FileEntry>,
    /// The cross-file entry, when one has been written.
    pub global: Option<GlobalEntry>,
}

/// Load the cache under `dir`. Any mismatch — missing file, wrong
/// ruleset id, corrupt line, unknown rule name — returns an empty cache:
/// a cold run, never a wrong one.
pub fn load(dir: &Path, ruleset: &str) -> Cache {
    let Ok(text) = fs::read_to_string(dir.join(CACHE_FILE)) else {
        return Cache::default();
    };
    parse(&text, ruleset).unwrap_or_default()
}

fn parse(text: &str, ruleset: &str) -> Option<Cache> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("lint-cache {ruleset}") {
        return None;
    }
    // Findings carry `&'static str` rule names: map cached names back to
    // the live registry (plus the engine's own synthetic rules).
    let mut names: BTreeMap<&str, &'static str> = BTreeMap::new();
    for rule in crate::rules::RULES {
        names.insert(rule.name(), rule.name());
    }
    names.insert("suppression", "suppression");

    let mut cache = Cache::default();
    let mut current: Option<(String, FileEntry)> = None;
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["file", path, hash, suppressed, used] => {
                if let Some((p, e)) = current.take() {
                    cache.files.insert(p, e);
                }
                let used = match *used {
                    "-" => Vec::new(),
                    used => used
                        .split(',')
                        .map(|i| i.parse().ok())
                        .collect::<Option<_>>()?,
                };
                current = Some((
                    (*path).to_string(),
                    FileEntry {
                        hash: u64::from_str_radix(hash, 16).ok()?,
                        findings: Vec::new(),
                        suppressed: suppressed.parse().ok()?,
                        used,
                    },
                ));
            }
            ["f", rule, line_no, col, message] => {
                let (path, entry) = current.as_mut()?;
                entry.findings.push(Finding {
                    rule: names.get(rule)?,
                    path: path.clone(),
                    line: line_no.parse().ok()?,
                    col: col.parse().ok()?,
                    message: unescape(message)?,
                });
            }
            ["global", fingerprint, suppressed] => {
                if let Some((p, e)) = current.take() {
                    cache.files.insert(p, e);
                }
                cache.global = Some(GlobalEntry {
                    fingerprint: u64::from_str_radix(fingerprint, 16).ok()?,
                    findings: Vec::new(),
                    suppressed: suppressed.parse().ok()?,
                });
            }
            ["g", rule, path, line_no, col, message] => {
                let global = cache.global.as_mut()?;
                global.findings.push(Finding {
                    rule: names.get(rule)?,
                    path: unescape(path)?,
                    line: line_no.parse().ok()?,
                    col: col.parse().ok()?,
                    message: unescape(message)?,
                });
            }
            _ => return None,
        }
    }
    if let Some((p, e)) = current.take() {
        cache.files.insert(p, e);
    }
    Some(cache)
}

/// Write the cache under `dir`, creating it as needed. Written to a
/// temporary name then renamed, so a crash mid-write leaves either the
/// old cache or none — [`load`] treats both correctly.
pub fn store(dir: &Path, ruleset: &str, cache: &Cache) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut out = format!("lint-cache {ruleset}\n");
    for (path, entry) in &cache.files {
        let used: Vec<String> = entry.used.iter().map(u32::to_string).collect();
        let used = if used.is_empty() {
            "-".to_string()
        } else {
            used.join(",")
        };
        out.push_str(&format!(
            "file\t{path}\t{:016x}\t{}\t{used}\n",
            entry.hash, entry.suppressed
        ));
        for f in &entry.findings {
            out.push_str(&format!(
                "f\t{}\t{}\t{}\t{}\n",
                f.rule,
                f.line,
                f.col,
                escape(&f.message)
            ));
        }
    }
    if let Some(global) = &cache.global {
        out.push_str(&format!(
            "global\t{:016x}\t{}\n",
            global.fingerprint, global.suppressed
        ));
        for f in &global.findings {
            out.push_str(&format!(
                "g\t{}\t{}\t{}\t{}\t{}\n",
                f.rule,
                escape(&f.path),
                f.line,
                f.col,
                escape(&f.message)
            ));
        }
    }
    let tmp = dir.join(format!("{CACHE_FILE}.tmp"));
    fs::write(&tmp, out)?;
    fs::rename(&tmp, dir.join(CACHE_FILE))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cache {
        let mut cache = Cache::default();
        cache.files.insert(
            "src/a.rs".to_string(),
            FileEntry {
                hash: 0xdead_beef,
                findings: vec![Finding {
                    rule: crate::rules::RULES[0].name(),
                    path: "src/a.rs".to_string(),
                    line: 3,
                    col: 7,
                    message: "tab\there, newline\nthere, slash\\done".to_string(),
                }],
                suppressed: 2,
                used: vec![0, 3],
            },
        );
        cache.global = Some(GlobalEntry {
            fingerprint: 42,
            findings: vec![Finding {
                rule: crate::rules::RULES[8].name(),
                path: "crates/x/src/lib.rs".to_string(),
                line: 9,
                col: 0,
                message: "hot".to_string(),
            }],
            suppressed: 1,
        });
        cache
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join("lint-cache-roundtrip-test");
        let _ = fs::remove_dir_all(&dir);
        let ruleset = ruleset_id();
        let cache = sample();
        store(&dir, &ruleset, &cache).unwrap();
        let loaded = load(&dir, &ruleset);
        assert_eq!(loaded.files.len(), 1);
        let entry = &loaded.files["src/a.rs"];
        assert_eq!(entry.hash, 0xdead_beef);
        assert_eq!(entry.suppressed, 2);
        assert_eq!(entry.used, [0, 3]);
        assert_eq!(entry.findings, cache.files["src/a.rs"].findings);
        let global = loaded.global.unwrap();
        assert_eq!(global.fingerprint, 42);
        assert_eq!(global.findings, cache.global.unwrap().findings);
    }

    #[test]
    fn ruleset_mismatch_is_a_cold_cache() {
        let dir = std::env::temp_dir().join("lint-cache-version-test");
        let _ = fs::remove_dir_all(&dir);
        store(&dir, "0 old-rules", &sample()).unwrap();
        let loaded = load(&dir, &ruleset_id());
        assert!(loaded.files.is_empty());
        assert!(loaded.global.is_none());
    }

    #[test]
    fn corrupt_cache_is_a_cold_cache() {
        let dir = std::env::temp_dir().join("lint-cache-corrupt-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ruleset = ruleset_id();
        fs::write(
            dir.join(CACHE_FILE),
            format!("lint-cache {ruleset}\nfile\tsrc/a.rs\tnothex\t0\t-\n"),
        )
        .unwrap();
        assert!(load(&dir, &ruleset).files.is_empty());
        // An unknown rule name (retired rule) also degrades to cold.
        fs::write(
            dir.join(CACHE_FILE),
            format!("lint-cache {ruleset}\nfile\tsrc/a.rs\t00000000000000ff\t0\t-\nf\tno-such-rule\t1\t1\tm\n"),
        )
        .unwrap();
        assert!(load(&dir, &ruleset).files.is_empty());
    }

    #[test]
    fn fingerprint_changes_with_any_input() {
        let base = workspace_fingerprint("id", None, &[("a.rs", 1), ("b.rs", 2)]);
        assert_ne!(
            base,
            workspace_fingerprint("id", None, &[("a.rs", 1), ("b.rs", 3)]),
            "content change must move the fingerprint"
        );
        assert_ne!(
            base,
            workspace_fingerprint("id", None, &[("a.rs", 1)]),
            "file removal must move the fingerprint"
        );
        assert_ne!(
            base,
            workspace_fingerprint("id", Some("design"), &[("a.rs", 1), ("b.rs", 2)]),
            "DESIGN.md change must move the fingerprint"
        );
        assert_ne!(
            base,
            workspace_fingerprint("id2", None, &[("a.rs", 1), ("b.rs", 2)]),
            "ruleset change must move the fingerprint"
        );
    }
}
