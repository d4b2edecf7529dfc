//! Figure 3: relationship between website category and subscription price.
//! The paper finds "no obvious relationship"; we quantify that with
//! per-category means and the correlation ratio (eta²).

use crate::context::Study;
use crate::experiments::fig2::Fig2;
use crate::render::TextTable;
use crate::stats::{eta_squared, mean};
use categorize::Category;
use serde::Serialize;

/// One category's price statistics.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryPrices {
    /// Category label.
    pub category: String,
    /// Sites in the category.
    pub count: usize,
    /// Mean monthly EUR price (the red cross in the paper's figure).
    pub mean_price: f64,
    /// All prices in the category.
    pub prices: Vec<f64>,
}

/// The Figure 3 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    /// Per-category statistics.
    pub categories: Vec<CategoryPrices>,
    /// Grand mean price.
    pub grand_mean: f64,
    /// Correlation ratio between category and price (0 = none).
    pub eta_squared: Option<f64>,
}

/// Compute Figure 3 from the Figure 2 price table plus the category
/// database.
pub fn compute(study: &Study, fig2: &Fig2) -> Fig3 {
    let mut groups: Vec<CategoryPrices> = Category::ALL
        .iter()
        .map(|c| CategoryPrices {
            category: c.label().to_string(),
            count: 0,
            mean_price: 0.0,
            prices: Vec::new(),
        })
        .collect();
    for (domain, price) in &fig2.prices {
        let cat = study.population.category_db().lookup_or_default(domain);
        let idx = Category::ALL.iter().position(|c| *c == cat).unwrap();
        groups[idx].prices.push(*price);
    }
    for g in &mut groups {
        g.count = g.prices.len();
        g.mean_price = mean(&g.prices);
    }
    let all: Vec<f64> = fig2.prices.iter().map(|(_, p)| *p).collect();
    let group_vecs: Vec<Vec<f64>> = groups.iter().map(|g| g.prices.clone()).collect();
    Fig3 {
        grand_mean: mean(&all),
        eta_squared: eta_squared(&group_vecs),
        categories: groups,
    }
}

impl Fig3 {
    /// Render as a table of per-category means.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Category", "n", "mean €/month", "min", "max"]);
        for g in self.categories.iter().filter(|g| g.count > 0) {
            let min = g.prices.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = g.prices.iter().cloned().fold(0.0f64, f64::max);
            t.row([
                g.category.clone(),
                g.count.to_string(),
                format!("{:.2}", g.mean_price),
                format!("{min:.2}"),
                format!("{max:.2}"),
            ]);
        }
        format!(
            "Figure 3: Category vs. subscription price\n{}\nGrand mean: {:.2}€   \
             eta² (category↔price): {}\n",
            t.render(),
            self.grand_mean,
            self.eta_squared
                .map(|e| format!("{e:.3}"))
                .unwrap_or_else(|| "n/a".to_string()),
        )
    }
}
