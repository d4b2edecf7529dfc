//! Query evaluators over a sealed (or live) crawl store.
//!
//! These are the pure answer functions behind the `serve` subsystem:
//! each takes any [`StoreRead`] — a live [`store::Store`] or a sealed
//! [`store::StoreSnapshot`] — decodes records with the [`crate::persist`]
//! codec, and renders a single deterministic answer line. Determinism is
//! the contract: the same query against the same sealed view must yield
//! byte-identical text no matter which thread, process, or epoch of the
//! service evaluates it, because the serve bench and the `check.sh`
//! smoke pin response digests.
//!
//! Four query classes mirror the questions the paper's analyses pose:
//! per-domain wall status, per-region accept-or-pay prevalence, price
//! distributions/percentiles, and the epoch-over-epoch diff (which
//! reuses [`longitudinal::diff_stores`]).

use crate::experiments::longitudinal;
use crate::persist::decode_record;
use crate::stats::quantile;
use httpsim::Region;
use store::StoreRead;

/// One parsed read query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// What did the crawl record for one `(region, domain)` cell?
    WallStatus {
        /// Region shard index.
        region: u8,
        /// Domain of the cell.
        domain: String,
    },
    /// Accept-or-pay prevalence across one region.
    Prevalence {
        /// Region shard index.
        region: u8,
    },
    /// Advertised-price distribution, one region or all.
    Prices {
        /// Region shard index, or `None` for all regions.
        region: Option<u8>,
    },
    /// Epoch-over-epoch churn between the two configured stores.
    EpochDiff,
}

impl Query {
    /// The query's class label, as used in latency ledgers and scripts.
    pub fn class(&self) -> &'static str {
        match self {
            Query::WallStatus { .. } => "wall-status",
            Query::Prevalence { .. } => "prevalence",
            Query::Prices { .. } => "prices",
            Query::EpochDiff => "diff",
        }
    }

    /// Render the canonical one-line script form of this query —
    /// [`Query::parse`] round-trips it.
    pub fn render(&self) -> String {
        match self {
            Query::WallStatus { region, domain } => format!("wall-status {region} {domain}"),
            Query::Prevalence { region } => format!("prevalence {region}"),
            Query::Prices { region: Some(r) } => format!("prices {r}"),
            Query::Prices { region: None } => "prices all".to_string(),
            Query::EpochDiff => "diff".to_string(),
        }
    }

    /// Parse one script line. Blank lines and `#` comments yield
    /// `Ok(None)`. Regions are numeric shard indices or region labels
    /// (lowercased, spaces as dashes, e.g. `united-states`).
    pub fn parse(line: &str) -> Result<Option<Query>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or_default();
        let query = match verb {
            "wall-status" => {
                let region = parse_region_field(parts.next(), line)?;
                let domain = parts
                    .next()
                    .ok_or_else(|| format!("wall-status needs a domain: {line:?}"))?;
                Query::WallStatus {
                    region,
                    domain: domain.to_string(),
                }
            }
            "prevalence" => Query::Prevalence {
                region: parse_region_field(parts.next(), line)?,
            },
            "prices" => match parts.next() {
                None | Some("all") => Query::Prices { region: None },
                Some(raw) => Query::Prices {
                    region: Some(parse_region_field(Some(raw), line)?),
                },
            },
            "diff" => Query::EpochDiff,
            other => return Err(format!("unknown query verb {other:?} in line {line:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in query line {line:?}"));
        }
        Ok(Some(query))
    }
}

/// Parse a whole request script: one query per line, blank lines and
/// `#` comments skipped.
pub fn parse_script(text: &str) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for line in text.lines() {
        if let Some(q) = Query::parse(line)? {
            queries.push(q);
        }
    }
    Ok(queries)
}

fn parse_region_field(raw: Option<&str>, line: &str) -> Result<u8, String> {
    let raw = raw.ok_or_else(|| format!("missing region in query line {line:?}"))?;
    if let Ok(idx) = raw.parse::<u8>() {
        return Ok(idx);
    }
    Region::ALL
        .iter()
        .position(|r| r.label().to_lowercase().replace(' ', "-") == raw.to_lowercase())
        .map(|i| i as u8)
        .ok_or_else(|| format!("unknown region {raw:?} in query line {line:?}"))
}

/// Human label of a region shard index: the vantage-point label for
/// indices the study defines, `region-N` past them.
pub fn region_label(region: u8) -> String {
    Region::ALL
        .get(region as usize)
        .map(|r| r.label().replace(' ', "-").to_lowercase())
        .unwrap_or_else(|| format!("region-{region}"))
}

/// One evaluated answer: the deterministic response line plus how many
/// cells the evaluation visited (the serve clock's cost driver).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The single-line response text.
    pub text: String,
    /// Cells visited while evaluating.
    pub cells_scanned: usize,
}

/// Evaluate one query. `before` is the older epoch for [`Query::EpochDiff`];
/// every other class answers from `primary` alone.
pub fn evaluate<P, B>(query: &Query, primary: &P, before: Option<&B>) -> Answer
where
    P: StoreRead + ?Sized,
    B: StoreRead + ?Sized,
{
    match query {
        Query::WallStatus { region, domain } => wall_status(primary, *region, domain),
        Query::Prevalence { region } => prevalence(primary, *region),
        Query::Prices { region } => price_quantiles(primary, *region),
        Query::EpochDiff => match before {
            Some(b) => epoch_diff(b, primary),
            None => Answer {
                text: "diff error=second-epoch-unavailable".to_string(),
                cells_scanned: 0,
            },
        },
    }
}

/// What the crawl recorded for one `(region, domain)` cell.
pub fn wall_status<S: StoreRead + ?Sized>(store: &S, region: u8, domain: &str) -> Answer {
    let label = region_label(region);
    let head = format!("wall-status region={label} domain={domain}");
    let Some(payload) = store.payload(region, domain) else {
        return Answer {
            text: format!("{head} outcome=absent"),
            cells_scanned: 0,
        };
    };
    let text = match decode_record(&payload) {
        Err(_) => format!("{head} outcome=undecodable"),
        Ok(rec) => {
            let outcome = if rec.cookiewall {
                "wall"
            } else if rec.banner {
                "banner"
            } else if rec.reachable {
                "clean"
            } else {
                "failed"
            };
            format!(
                "{head} outcome={outcome} price={} provider={} language={}",
                fmt_price(rec.monthly_eur),
                rec.provider.as_deref().unwrap_or("na"),
                rec.language.unwrap_or("na"),
            )
        }
    };
    Answer {
        text,
        cells_scanned: 1,
    }
}

/// Accept-or-pay prevalence across one region's stored cells.
pub fn prevalence<S: StoreRead + ?Sized>(store: &S, region: u8) -> Answer {
    let mut cells = 0usize;
    let mut walls = 0usize;
    let mut banners = 0usize;
    store.for_each_region_entry(region, &mut |_, payload| {
        cells += 1;
        if let Ok(rec) = decode_record(payload) {
            if rec.cookiewall {
                walls += 1;
            } else if rec.banner {
                banners += 1;
            }
        }
    });
    let pct = if cells == 0 {
        0.0
    } else {
        walls as f64 * 100.0 / cells as f64
    };
    Answer {
        text: format!(
            "prevalence region={} cells={cells} walls={walls} banners={banners} pct={pct:.2}",
            region_label(region)
        ),
        cells_scanned: cells,
    }
}

/// Advertised-price distribution over one region (or all): count,
/// min/max, quartile-free p50/p90/p99 percentiles, and the mean.
pub fn price_quantiles<S: StoreRead + ?Sized>(store: &S, region: Option<u8>) -> Answer {
    let regions: Vec<u8> = match region {
        Some(r) => vec![r],
        None => (0..store.regions() as u8).collect(),
    };
    let mut prices: Vec<f64> = Vec::new();
    let mut cells = 0usize;
    for r in regions {
        store.for_each_region_entry(r, &mut |_, payload| {
            cells += 1;
            if let Ok(rec) = decode_record(payload) {
                if rec.cookiewall {
                    if let Some(eur) = rec.monthly_eur {
                        prices.push(eur);
                    }
                }
            }
        });
    }
    let label = match region {
        Some(r) => region_label(r),
        None => "all".to_string(),
    };
    let text = if prices.is_empty() {
        format!("prices region={label} n=0")
    } else {
        // Sort for a deterministic min/max under float ties; `quantile`
        // sorts its own copy the same way.
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        format!(
            "prices region={label} n={} min={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2} mean={:.2}",
            prices.len(),
            prices[0],
            quantile(&prices, 0.50),
            quantile(&prices, 0.90),
            quantile(&prices, 0.99),
            prices[prices.len() - 1],
            prices.iter().sum::<f64>() / prices.len() as f64,
        )
    };
    Answer {
        text,
        cells_scanned: cells,
    }
}

/// Epoch-over-epoch churn, one line. Reuses the longitudinal diff
/// engine; an undecodable record degrades to a deterministic error line
/// rather than tearing down the service.
pub fn epoch_diff<B, A>(before: &B, after: &A) -> Answer
where
    B: StoreRead + ?Sized,
    A: StoreRead + ?Sized,
{
    match longitudinal::diff_stores(before, after) {
        Ok(churn) => {
            let scanned = churn.appeared.len() + churn.disappeared.len() + churn.persisted;
            Answer {
                text: format!(
                    "diff before={} after={} appeared={} disappeared={} persisted={} repriced={}",
                    churn.before_label.replace(' ', "_"),
                    churn.after_label.replace(' ', "_"),
                    churn.appeared.len(),
                    churn.disappeared.len(),
                    churn.persisted,
                    churn.repriced.len(),
                ),
                cells_scanned: scanned,
            }
        }
        Err(e) => Answer {
            text: format!("diff error={}", e.replace(' ', "_")),
            cells_scanned: 0,
        },
    }
}

fn fmt_price(price: Option<f64>) -> String {
    match price {
        Some(eur) => format!("{eur:.2}"),
        None => "na".to_string(),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests use scratch dirs")]
mod tests {
    use super::*;
    use crate::crawl::CrawlRecord;
    use crate::persist::encode_record;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use store::Store;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cookiewall-query-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(domain: &str, wall: bool, eur: Option<f64>) -> CrawlRecord {
        CrawlRecord {
            domain: domain.to_string(),
            reachable: true,
            banner: wall,
            cookiewall: wall,
            embedding: None,
            monthly_eur: eur,
            provider: wall.then(|| "consent.example".into()),
            language: Some("de"),
            attempts: 1,
            failure: None,
        }
    }

    fn seeded_store(dir: &std::path::Path) -> Store {
        let store = Store::create(dir, 2, &[]).unwrap();
        for (region, domain, wall, eur) in [
            (0u8, "wall.example", true, Some(4.99)),
            (0u8, "free.example", false, None),
            (1u8, "wall.example", true, Some(5.99)),
            (1u8, "other.example", true, None),
        ] {
            let payload = encode_record(&record(domain, wall, eur));
            store.put(region, domain, &payload).unwrap();
        }
        store.checkpoint().unwrap();
        store
    }

    #[test]
    fn script_lines_round_trip_through_parse_and_render() {
        let script = "wall-status 0 wall.example\nprevalence 1\nprices all\nprices 0\ndiff\n";
        let queries = parse_script(script).unwrap();
        assert_eq!(queries.len(), 5);
        let rendered: Vec<String> = queries.iter().map(|q| q.render()).collect();
        for (line, back) in script.lines().zip(&rendered) {
            assert_eq!(line, back);
        }
        assert!(parse_script("# comment\n\nprices\n").unwrap().len() == 1);
        assert!(parse_script("frobnicate 1").is_err());
        assert!(parse_script("wall-status 0").is_err());
        assert!(parse_script("prices 0 extra").is_err());
    }

    #[test]
    fn region_labels_parse_in_scripts() {
        let q = Query::parse("prevalence germany").unwrap().unwrap();
        assert_eq!(q, Query::Prevalence { region: 3 });
        let q = Query::parse("prices us-east").unwrap().unwrap();
        assert_eq!(q, Query::Prices { region: Some(0) });
        assert!(Query::parse("prevalence atlantis").is_err());
    }

    #[test]
    fn wall_status_renders_each_outcome() {
        let dir = tempdir("status");
        let store = seeded_store(&dir);
        let hit = wall_status(&store, 0, "wall.example");
        assert_eq!(
            hit.text,
            "wall-status region=us-east domain=wall.example outcome=wall \
             price=4.99 provider=consent.example language=de"
        );
        assert_eq!(hit.cells_scanned, 1);
        let clean = wall_status(&store, 0, "free.example");
        assert!(clean.text.contains("outcome=clean"), "{}", clean.text);
        let absent = wall_status(&store, 0, "missing.example");
        assert!(absent.text.ends_with("outcome=absent"));
        assert_eq!(absent.cells_scanned, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prevalence_and_prices_aggregate_deterministically() {
        let dir = tempdir("agg");
        let store = seeded_store(&dir);
        let p = prevalence(&store, 0);
        assert_eq!(
            p.text,
            "prevalence region=us-east cells=2 walls=1 banners=0 pct=50.00"
        );
        let prices = price_quantiles(&store, None);
        assert!(prices.text.starts_with("prices region=all n=2 min=4.99"));
        assert_eq!(prices.cells_scanned, 4);
        let empty = price_quantiles(&store, Some(1).filter(|_| false));
        assert!(empty.text.starts_with("prices region=all"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_answers_diff_only_with_a_before_store() {
        let dir_a = tempdir("diff-a");
        let dir_b = tempdir("diff-b");
        let a = seeded_store(&dir_a);
        let b = seeded_store(&dir_b);
        let unavailable = evaluate(&Query::EpochDiff, &a, None::<&Store>);
        assert_eq!(unavailable.text, "diff error=second-epoch-unavailable");
        let diffed = evaluate(&Query::EpochDiff, &b, Some(&a));
        assert!(diffed.text.contains("persisted=2"), "{}", diffed.text);
        // Snapshot answers must be byte-identical to live-store answers.
        let snap = store::StoreSnapshot::open(&dir_a).unwrap();
        for q in [
            Query::WallStatus {
                region: 0,
                domain: "wall.example".into(),
            },
            Query::Prevalence { region: 1 },
            Query::Prices { region: None },
        ] {
            assert_eq!(
                evaluate(&q, &a, None::<&Store>).text,
                evaluate(&q, &snap, None::<&Store>).text
            );
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
