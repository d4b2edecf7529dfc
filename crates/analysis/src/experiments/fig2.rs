//! Figure 2: distribution of monthly subscription prices — ECDF over all
//! detected walls plus a per-TLD price-bucket heatmap.

use crate::context::Study;
use crate::crawl::VantageCrawl;
use crate::render::{render_ecdf, render_heatmap};
use crate::stats::{ecdf_at, histogram, median};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Price-bucket edges in EUR/month (last bucket is overflow ≥ 9).
pub const PRICE_EDGES: [f64; 10] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];

/// The Figure 2 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// (domain, EUR/month) for every verified wall with an extracted price.
    pub prices: Vec<(String, f64)>,
    /// Fraction of walls at ≤ 3 EUR.
    pub at_most_3: f64,
    /// Fraction at ≤ 4 EUR (the paper's "around 90%").
    pub at_most_4: f64,
    /// Fraction at ≥ 9 EUR (the expensive tail).
    pub at_least_9: f64,
    /// Median monthly price.
    pub median: f64,
    /// Per-TLD bucket counts: TLD → counts per [`PRICE_EDGES`] bucket.
    pub heatmap: BTreeMap<String, Vec<usize>>,
}

/// Compute Figure 2 from the EU crawls (the German VP sees every wall).
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> Fig2 {
    let mut best: HashMap<String, f64> = HashMap::new();
    for crawl in crawls {
        for r in crawl.detected_walls() {
            if !study.verify_wall(&r.domain) {
                continue;
            }
            if let Some(p) = r.monthly_eur {
                best.entry(r.domain.clone()).or_insert(p);
            }
        }
    }
    let mut prices: Vec<(String, f64)> = best.into_iter().collect();
    prices.sort_by(|a, b| a.0.cmp(&b.0));
    let values: Vec<f64> = prices.iter().map(|(_, p)| *p).collect();

    let mut heatmap: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut by_tld: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (domain, price) in &prices {
        let tld = domain.rsplit('.').next().unwrap_or("?").to_string();
        by_tld.entry(tld).or_default().push(*price);
    }
    for (tld, vals) in by_tld {
        heatmap.insert(tld, histogram(&vals, &PRICE_EDGES));
    }

    Fig2 {
        at_most_3: ecdf_at(&values, 3.05),
        at_most_4: ecdf_at(&values, 4.05),
        at_least_9: 1.0 - ecdf_at(&values, 8.95),
        median: median(&values),
        prices,
        heatmap,
    }
}

impl Fig2 {
    /// Render the ECDF and heatmap.
    pub fn render(&self) -> String {
        let values: Vec<f64> = self.prices.iter().map(|(_, p)| *p).collect();
        let probes = [1.0, 2.0, 2.99, 3.0, 4.0, 5.0, 7.0, 9.0, 15.0];
        let ecdf = render_ecdf(&values, &probes, 40);
        let row_labels: Vec<String> = self.heatmap.keys().cloned().collect();
        let col_labels: Vec<String> = (0..PRICE_EDGES.len())
            .map(|i| {
                if i + 1 < PRICE_EDGES.len() {
                    format!("{}–{}€", PRICE_EDGES[i] as u32, PRICE_EDGES[i + 1] as u32)
                } else {
                    "≥9€".to_string()
                }
            })
            .collect();
        let cells: Vec<Vec<usize>> = row_labels.iter().map(|t| self.heatmap[t].clone()).collect();
        format!(
            "Figure 2: Monthly subscription price distribution (n={})\n\
             ECDF (all TLDs):\n{}\n\
             ≤3€: {:.1}%   ≤4€: {:.1}%   ≥9€: {:.1}%   median: {:.2}€\n\n\
             Per-TLD price heatmap:\n{}",
            self.prices.len(),
            ecdf,
            self.at_most_3 * 100.0,
            self.at_most_4 * 100.0,
            self.at_least_9 * 100.0,
            self.median,
            render_heatmap(&row_labels, &col_labels, &cells),
        )
    }
}
