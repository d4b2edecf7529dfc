//! Figure 1: category distribution of cookiewall websites (FortiGuard
//! lookup over the verified detections).

use crate::context::Study;
use crate::crawl::VantageCrawl;
use crate::render::render_bars;
use categorize::Category;
use serde::Serialize;
use std::collections::HashSet;

/// One category's share.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryShare {
    /// Category label.
    pub category: String,
    /// Number of cookiewall sites.
    pub count: usize,
    /// Fraction of all cookiewall sites.
    pub share: f64,
}

/// The Figure 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    /// Shares, largest first.
    pub shares: Vec<CategoryShare>,
    /// Total categorized wall sites.
    pub total: usize,
}

/// Compute Figure 1 from verified detections across all crawls.
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> Fig1 {
    let mut walls: HashSet<&str> = HashSet::new();
    for crawl in crawls {
        for r in crawl.detected_walls() {
            if study.verify_wall(&r.domain) {
                walls.insert(r.domain.as_str());
            }
        }
    }
    let mut counts: Vec<(Category, usize)> = Category::ALL.iter().map(|&c| (c, 0)).collect();
    for domain in &walls {
        let cat = study.population.category_db().lookup_or_default(domain);
        if let Some(slot) = counts.iter_mut().find(|(c, _)| *c == cat) {
            slot.1 += 1;
        }
    }
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let total = walls.len();
    Fig1 {
        shares: counts
            .into_iter()
            .map(|(c, n)| CategoryShare {
                category: c.label().to_string(),
                count: n,
                share: if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                },
            })
            .collect(),
        total,
    }
}

impl Fig1 {
    /// Render as a horizontal bar chart.
    pub fn render(&self) -> String {
        let items: Vec<(String, f64)> = self
            .shares
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| {
                (
                    format!("{} ({:.1}%)", s.category, s.share * 100.0),
                    s.count as f64,
                )
            })
            .collect();
        format!(
            "Figure 1: Categories of websites showing cookiewalls (n={})\n{}",
            self.total,
            render_bars(&items, 40)
        )
    }
}
