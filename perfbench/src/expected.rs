//! Output digests pinned per workload and scale.
//!
//! `expected.txt` holds one line per key: the key, then the hex digests
//! (eight region digests for a sweep, one report digest for a study).
//! A run whose outputs have no pinned digest, or a different one, counts
//! those outputs as failed operations.

/// The pinned digests compiled into the benchmark.
pub const PINNED: &str = include_str!("../expected.txt");

/// Parsed digest table.
#[derive(Debug, Default)]
pub struct Expected {
    entries: Vec<(String, Vec<u64>)>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let key = fields.next().unwrap_or_default().to_string();
            let digests = fields
                .map(|f| u64::from_str_radix(f, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("line {}: {e}", n + 1))?;
            entries.push((key, digests));
        }
        Ok(Expected { entries })
    }

    pub fn get(&self, key: &str) -> Option<&[u64]> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, d)| d.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_keys_and_hex_digests() {
        let e = Expected::parse("# c\nsweep/tiny 0a ff\n\nstudy/tiny 1\n").unwrap();
        assert_eq!(e.get("sweep/tiny"), Some(&[10u64, 255][..]));
        assert_eq!(e.get("study/tiny"), Some(&[1u64][..]));
        assert_eq!(e.get("study/full"), None);
        assert!(Expected::parse("k zz").is_err());
    }

    #[test]
    fn pinned_table_parses() {
        assert!(Expected::parse(PINNED).is_ok());
    }
}
