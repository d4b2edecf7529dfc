//! Seeded request streams: Zipf-distributed hot keys over the sealed
//! domain universe, split deterministically across reader lanes.
//!
//! The hashing idiom mirrors `httpsim::fault`: an FNV-1a prefix hash
//! over the seed and labelled parts, finalized with splitmix64, mapped
//! to the unit interval. Request `i` of reader `k` is a pure function of
//! `(seed, k, i)` and the domain universe — two runs over the same
//! sealed store produce the same queries in the same per-reader order,
//! which is what lets `check.sh` pin a golden response digest.

use analysis::query::Query;
use httpsim::content_hash;

/// splitmix64 finalizer: decorrelates the FNV prefix hash below.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable hash of a decision lane: seed plus labelled parts.
fn lane_hash(seed: u64, parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for part in parts {
        for b in part.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// Map a hash to the unit interval, uniformly.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Query-class mix of the synthetic stream: mostly point lookups, some
/// region scans, a few price aggregations, a trickle of epoch diffs —
/// the shape of an analyst dashboard's read traffic.
const WALL_STATUS_SHARE: f64 = 0.60;
const PREVALENCE_SHARE: f64 = 0.20;
const PRICES_SHARE: f64 = 0.15;

/// A deterministic Zipf-over-domains request stream.
pub struct RequestStream {
    seed: u64,
    /// Domain universe ranked hot → cold (rank is itself seeded, so a
    /// different seed heats different keys).
    domains: Vec<String>,
    /// Cumulative Zipf weights over `domains`, normalized to 1.0.
    cdf: Vec<f64>,
    regions: u8,
    /// Whether the service has (or will have) a second epoch: without
    /// one, the diff share of the mix is folded into `prices`.
    with_diff: bool,
}

impl RequestStream {
    /// Build a stream over `domains` (deduplicated and ranked in here)
    /// with Zipf exponent `zipf` — 1.1 reproduces the classic hot-key
    /// skew, 0.0 is uniform.
    pub fn new(
        seed: u64,
        mut domains: Vec<String>,
        zipf: f64,
        regions: u8,
        with_diff: bool,
    ) -> RequestStream {
        domains.sort_unstable();
        domains.dedup();
        // Seeded hot-key ranking: sort by a per-domain lane hash so the
        // hottest key changes with the seed, not the alphabet.
        let mut ranked: Vec<(u64, String)> = domains
            .into_iter()
            .map(|d| (mix(seed ^ content_hash(d.as_bytes())), d))
            .collect();
        ranked.sort();
        let domains: Vec<String> = ranked.into_iter().map(|(_, d)| d).collect();
        let mut cdf = Vec::with_capacity(domains.len());
        let mut total = 0.0f64;
        for rank in 0..domains.len() {
            total += 1.0 / ((rank + 1) as f64).powf(zipf);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total.max(f64::MIN_POSITIVE);
        }
        RequestStream {
            seed,
            domains,
            cdf,
            regions: regions.max(1),
            with_diff,
        }
    }

    /// How many distinct domains the stream draws from.
    pub fn universe(&self) -> usize {
        self.domains.len()
    }

    /// Request `i` of reader lane `reader` — a pure function of the
    /// stream's seed and the two indices.
    // lint:allow(r9) — serve-side workload generator, reached only through callgraph over-approximation on shared method names; not on the visit path
    pub fn request(&self, reader: usize, i: usize) -> Query {
        let reader_label = format!("r{reader}");
        let i_label = format!("i{i}");
        let parts = [reader_label.as_str(), i_label.as_str()];
        let class = unit(lane_hash(self.seed, &["class", parts[0], parts[1]]));
        let region = self.pick_region(&parts);
        if class < WALL_STATUS_SHARE {
            Query::WallStatus {
                region,
                domain: self.pick_domain(&parts),
            }
        } else if class < WALL_STATUS_SHARE + PREVALENCE_SHARE {
            Query::Prevalence { region }
        } else if class < WALL_STATUS_SHARE + PREVALENCE_SHARE + PRICES_SHARE || !self.with_diff {
            let all = unit(lane_hash(self.seed, &["prices-all", parts[0], parts[1]])) < 0.5;
            Query::Prices {
                region: if all { None } else { Some(region) },
            }
        } else {
            Query::EpochDiff
        }
    }

    /// The whole stream for one reader lane.
    pub fn lane(&self, reader: usize, requests: usize) -> Vec<Query> {
        (0..requests).map(|i| self.request(reader, i)).collect()
    }

    fn pick_region(&self, parts: &[&str; 2]) -> u8 {
        let u = unit(lane_hash(self.seed, &["region", parts[0], parts[1]]));
        ((u * self.regions as f64) as u8).min(self.regions - 1)
    }

    // lint:allow(r9) — serve-side workload generator, reached only through callgraph over-approximation on shared method names; not on the visit path
    fn pick_domain(&self, parts: &[&str; 2]) -> String {
        if self.domains.is_empty() {
            return "unknown.example".to_string();
        }
        let u = unit(lane_hash(self.seed, &["domain", parts[0], parts[1]]));
        let idx = self
            .cdf
            .partition_point(|&w| w < u)
            .min(self.domains.len() - 1);
        self.domains[idx].clone()
    }
}

/// Extend a running FNV-1a digest with one response line. Start from 0;
/// feed every response text in reader-major order.
pub fn chain_digest(digest: u64, text: &str) -> u64 {
    let mut h = if digest == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        digest
    };
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(b'\n');
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// Render a digest the way ledgers and smokes print it.
pub fn format_digest(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domains(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("site-{i}.example")).collect()
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_lane() {
        let a = RequestStream::new(7, domains(50), 1.1, 4, true);
        let b = RequestStream::new(7, domains(50), 1.1, 4, true);
        assert_eq!(a.lane(0, 64), b.lane(0, 64));
        assert_ne!(a.lane(0, 64), a.lane(1, 64), "lanes diverge");
        let c = RequestStream::new(8, domains(50), 1.1, 4, true);
        assert_ne!(a.lane(0, 64), c.lane(0, 64), "seeds diverge");
    }

    #[test]
    fn zipf_skews_toward_hot_keys() {
        let stream = RequestStream::new(42, domains(100), 1.1, 4, false);
        let mut hits = std::collections::BTreeMap::new();
        for i in 0..2000 {
            if let Query::WallStatus { domain, .. } = stream.request(0, i) {
                *hits.entry(domain).or_insert(0usize) += 1;
            }
        }
        let total: usize = hits.values().sum();
        let mut counts: Vec<usize> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = counts.iter().take(5).sum();
        assert!(
            top5 * 5 > total,
            "top 5 of 100 domains should draw >20% of hits, got {top5}/{total}"
        );
    }

    #[test]
    fn class_mix_covers_every_class_and_respects_with_diff() {
        let with = RequestStream::new(3, domains(10), 1.1, 4, true);
        let without = RequestStream::new(3, domains(10), 1.1, 4, false);
        let classes: std::collections::BTreeSet<&str> =
            (0..400).map(|i| with.request(0, i).class()).collect();
        assert!(classes.contains("wall-status"));
        assert!(classes.contains("prevalence"));
        assert!(classes.contains("prices"));
        assert!(classes.contains("diff"));
        assert!(
            (0..400).all(|i| without.request(0, i).class() != "diff"),
            "single-epoch streams never ask for a diff"
        );
    }

    #[test]
    fn empty_universe_still_yields_queries() {
        let stream = RequestStream::new(1, Vec::new(), 1.1, 2, false);
        assert_eq!(stream.universe(), 0);
        for i in 0..50 {
            let q = stream.request(0, i);
            if let Query::WallStatus { domain, .. } = q {
                assert_eq!(domain, "unknown.example");
            }
        }
    }

    #[test]
    fn digest_chain_is_order_sensitive_and_stable() {
        let d1 = chain_digest(chain_digest(0, "a"), "b");
        let d2 = chain_digest(chain_digest(0, "b"), "a");
        assert_ne!(d1, d2);
        assert_eq!(d1, chain_digest(chain_digest(0, "a"), "b"));
        assert_eq!(format_digest(0x1f), "000000000000001f");
    }
}
