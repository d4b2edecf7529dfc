//! Longitudinal epoch diff: compare two persistent crawl stores taken at
//! different population epochs and report the churn — walls that appeared
//! or disappeared, price changes on persisting walls, and per-region
//! tracking-cookie drift.
//!
//! The engine works entirely from the stores: decoded [`CrawlRecord`](crate::crawl::CrawlRecord)s
//! give the wall sets and prices, and the `epoch-summary` note written by
//! [`crate::runner::run_all_persistent`] supplies the measured per-region
//! tracking means. No live network is needed, so two snapshots crawled
//! months apart (or at different `--epoch` values) diff instantly.

use crate::persist::decode_record;
use crate::render::{render_bars, TextTable};
use crate::runner::EPOCH_SUMMARY_NOTE;
use httpsim::Region;
use serde::Serialize;
use std::collections::BTreeMap;
use store::StoreRead;

/// Price movement of one wall that exists in both snapshots.
#[derive(Debug, Clone, Serialize)]
pub struct PriceDelta {
    /// The wall's domain.
    pub domain: String,
    /// Mean advertised EUR/month in the older snapshot.
    pub before_eur: f64,
    /// Mean advertised EUR/month in the newer snapshot.
    pub after_eur: f64,
}

/// One region's tracking-cookie drift, from the stores' epoch summaries.
#[derive(Debug, Clone, Serialize)]
pub struct RegionDrift {
    /// Vantage point label.
    pub region: String,
    /// Detected walls in the older snapshot.
    pub walls_before: usize,
    /// Detected walls in the newer snapshot.
    pub walls_after: usize,
    /// Mean tracking cookies under Accept, older snapshot (absent when the
    /// region had no walls or the summary note is missing).
    pub tracking_before: Option<f64>,
    /// Mean tracking cookies under Accept, newer snapshot.
    pub tracking_after: Option<f64>,
}

/// The churn between two persistent snapshots.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnReport {
    /// `(epoch, scale)` labels of the two stores, from their metadata.
    pub before_label: String,
    /// Label of the newer store.
    pub after_label: String,
    /// Domains detected as walls only in the newer snapshot (sorted).
    pub appeared: Vec<String>,
    /// Domains detected as walls only in the older snapshot (sorted).
    pub disappeared: Vec<String>,
    /// Walls present in both snapshots.
    pub persisted: usize,
    /// Persisting walls whose advertised price moved (sorted by domain).
    pub repriced: Vec<PriceDelta>,
    /// Per-region wall counts and tracking means.
    pub regions: Vec<RegionDrift>,
}

/// Diff two stores — live [`store::Store`]s or sealed
/// [`store::StoreSnapshot`]s, in any combination. Wall membership is the
/// union over regions of decoded cookiewall records; prices average the
/// per-region observations of each wall (geo-gated walls are priced only
/// where they are visible).
pub fn diff_stores<B, A>(before: &B, after: &A) -> Result<ChurnReport, String>
where
    B: StoreRead + ?Sized,
    A: StoreRead + ?Sized,
{
    let walls_before = wall_map(before)?;
    let walls_after = wall_map(after)?;

    let appeared: Vec<String> = walls_after
        .keys()
        .filter(|d| !walls_before.contains_key(*d))
        .cloned()
        .collect();
    let disappeared: Vec<String> = walls_before
        .keys()
        .filter(|d| !walls_after.contains_key(*d))
        .cloned()
        .collect();

    let mut persisted = 0usize;
    let mut repriced = Vec::new();
    for (domain, before_prices) in &walls_before {
        let Some(after_prices) = walls_after.get(domain) else {
            continue;
        };
        persisted += 1;
        if let (Some(b), Some(a)) = (mean(before_prices), mean(after_prices)) {
            if (a - b).abs() > 0.005 {
                repriced.push(PriceDelta {
                    domain: domain.clone(),
                    before_eur: b,
                    after_eur: a,
                });
            }
        }
    }

    let summary_before = parse_summary(before);
    let summary_after = parse_summary(after);
    let regions = Region::ALL
        .iter()
        .map(|region| {
            let label = region.label();
            // Summary notes slug multi-word labels (spaces to dashes).
            let slug = label.replace(' ', "-");
            let b = summary_before.get(&slug);
            let a = summary_after.get(&slug);
            RegionDrift {
                region: label.to_string(),
                walls_before: region_wall_count(before, *region),
                walls_after: region_wall_count(after, *region),
                tracking_before: b.and_then(|s| s.tracking),
                tracking_after: a.and_then(|s| s.tracking),
            }
        })
        .collect();

    Ok(ChurnReport {
        before_label: store_label(before),
        after_label: store_label(after),
        appeared,
        disappeared,
        persisted,
        repriced,
        regions,
    })
}

/// Wall domain → advertised prices observed across regions (one entry per
/// region that saw the wall and extracted a price). Streams each region's
/// entries instead of cloning them into a `Vec` — a large store is never
/// double-buffered.
fn wall_map<S: StoreRead + ?Sized>(store: &S) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut error: Option<String> = None;
    for r in 0..store.regions() {
        store.for_each_region_entry(r as u8, &mut |domain, payload| {
            if error.is_some() {
                return;
            }
            match decode_record(payload) {
                Ok(record) => {
                    if record.cookiewall {
                        let prices = walls.entry(domain.to_string()).or_default();
                        if let Some(eur) = record.monthly_eur {
                            prices.push(eur);
                        }
                    }
                }
                Err(e) => {
                    error = Some(format!(
                        "undecodable record for {domain} in region {r}: {e}"
                    ));
                }
            }
        });
        if let Some(e) = error.take() {
            return Err(e);
        }
    }
    Ok(walls)
}

fn region_wall_count<S: StoreRead + ?Sized>(store: &S, region: Region) -> usize {
    let r = Region::ALL.iter().position(|x| *x == region).unwrap_or(0);
    let mut count = 0usize;
    store.for_each_region_entry(r as u8, &mut |_, payload| {
        if decode_record(payload)
            .map(|rec| rec.cookiewall)
            .unwrap_or(false)
        {
            count += 1;
        }
    });
    count
}

struct SummaryLine {
    tracking: Option<f64>,
}

/// Parse the `epoch-summary` note back into per-region entries. Absent or
/// partially unparseable notes degrade to "tracking unknown".
fn parse_summary<S: StoreRead + ?Sized>(store: &S) -> BTreeMap<String, SummaryLine> {
    let mut out = BTreeMap::new();
    let Ok(Some(text)) = store.read_note(EPOCH_SUMMARY_NOTE) else {
        return out;
    };
    for line in text.lines() {
        let mut region = None;
        let mut tracking = None;
        for field in line.split_whitespace() {
            if let Some(value) = field.strip_prefix("region=") {
                region = Some(value.to_string());
            } else if let Some(value) = field.strip_prefix("mean_tracking=") {
                tracking = value.parse::<f64>().ok();
            }
        }
        if let Some(region) = region {
            out.insert(region, SummaryLine { tracking });
        }
    }
    out
}

fn store_label<S: StoreRead + ?Sized>(store: &S) -> String {
    let epoch = store.meta_value("epoch").unwrap_or("?");
    let scale = store.meta_value("scale").unwrap_or("?");
    format!("epoch {epoch} ({scale})")
}

fn fmt_opt(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.2}"),
        None => "na".to_string(),
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

impl ChurnReport {
    /// Render the churn report as text tables and bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Longitudinal churn: {} -> {}\n\n",
            self.before_label, self.after_label
        ));

        let mut overview = TextTable::new(["change", "count"]);
        overview
            .row([
                "walls appeared".to_string(),
                self.appeared.len().to_string(),
            ])
            .row([
                "walls disappeared".to_string(),
                self.disappeared.len().to_string(),
            ])
            .row(["walls persisted".to_string(), self.persisted.to_string()])
            .row([
                "walls repriced".to_string(),
                self.repriced.len().to_string(),
            ]);
        out.push_str(&overview.render());
        out.push('\n');

        if !self.repriced.is_empty() {
            let mut table = TextTable::new(["domain", "before eur/mo", "after eur/mo", "delta"]);
            for delta in &self.repriced {
                table.row([
                    delta.domain.clone(),
                    format!("{:.2}", delta.before_eur),
                    format!("{:.2}", delta.after_eur),
                    format!("{:+.2}", delta.after_eur - delta.before_eur),
                ]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }

        let mut regions = TextTable::new([
            "region",
            "walls before",
            "walls after",
            "tracking before",
            "tracking after",
        ]);
        for drift in &self.regions {
            regions.row([
                drift.region.clone(),
                drift.walls_before.to_string(),
                drift.walls_after.to_string(),
                fmt_opt(drift.tracking_before),
                fmt_opt(drift.tracking_after),
            ]);
        }
        out.push_str(&regions.render());
        out.push('\n');

        let deltas: Vec<(String, f64)> = self
            .regions
            .iter()
            .filter_map(|d| {
                let (b, a) = (d.tracking_before?, d.tracking_after?);
                Some((d.region.clone(), a - b))
            })
            .collect();
        if !deltas.is_empty() {
            out.push_str("Tracking-cookie drift under Accept (after - before):\n");
            out.push_str(&render_bars(&deltas, 40));
        }
        out
    }

    /// Machine-readable JSON of the churn report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("churn report serializes")
    }
}
