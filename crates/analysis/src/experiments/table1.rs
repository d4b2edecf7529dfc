//! Table 1: detected cookiewalls per vantage point, broken down by the
//! VP country's toplist, ccTLD, and main language.

use crate::context::Study;
use crate::crawl::VantageCrawl;
use crate::render::TextTable;
use httpsim::Region;
use serde::Serialize;
use webgen::Country;

/// One Table 1 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Vantage point label.
    pub vp: String,
    /// Verified cookiewalls detected from this VP.
    pub cookiewalls: usize,
    /// …that are on the VP country's toplist.
    pub toplist: usize,
    /// …whose TLD is the VP country's ccTLD.
    pub cctld: usize,
    /// …whose detected language is the VP country's main language.
    pub language: usize,
}

/// The full Table 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Per-VP rows, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Unique verified cookiewall sites across all VPs.
    pub unique_walls: usize,
    /// Crawl targets.
    pub total_targets: usize,
    /// Overall cookiewall rate (unique walls / targets).
    pub overall_rate: f64,
    /// Cookiewall rate among country-wise top-1k sites (paper: 1.7%
    /// vs. 0.6% overall — popularity correlates with walls).
    pub top1k_rate: f64,
    /// Cookiewall rate within Germany's top-1k bucket (paper: 8.5%).
    pub de_top1k_rate: f64,
    /// Cookiewall rate within Germany's full top-10k list (paper: 2.9%
    /// of reachable sites).
    pub de_toplist_rate: f64,
}

/// Compute Table 1 from per-region crawls. `study` provides the toplist
/// metadata and the manual-verification oracle.
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> Table1 {
    let mut unique: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut rows = Vec::new();
    for crawl in crawls {
        let country = Country::for_region(crawl.region);
        let mut n = 0;
        let mut toplist = 0;
        let mut cctld = 0;
        let mut language = 0;
        for record in crawl.detected_walls() {
            // Manual verification: drop false positives.
            if !study.verify_wall(&record.domain) {
                continue;
            }
            n += 1;
            unique.insert(record.domain.as_str());
            let site = study.population.site(&record.domain);
            if site.is_some_and(|s| s.on_toplist(country)) {
                toplist += 1;
            }
            let tld = record.domain.rsplit('.').next().unwrap_or("");
            if tld == crawl.region.cc_tld() {
                cctld += 1;
            }
            if record.language == Some(crawl.region.main_language()) {
                language += 1;
            }
        }
        rows.push(Table1Row {
            vp: crawl.region.label().to_string(),
            cookiewalls: n,
            toplist,
            cctld,
            language,
        });
    }
    let total_targets = crawls.first().map(|c| c.records.len()).unwrap_or(0);

    // Popularity analysis (§4.1): wall rate in the top-1k buckets vs the
    // full lists, and Germany specifically.
    let mut top1k_sites: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for country in Country::ALL {
        for d in &study.population.toplist(country).top1k {
            top1k_sites.insert(d.as_str());
        }
    }
    let top1k_walls = top1k_sites.iter().filter(|d| unique.contains(*d)).count();
    let de_list = study.population.toplist(Country::De);
    let de_top1k_walls = de_list
        .top1k
        .iter()
        .filter(|d| unique.contains(d.as_str()))
        .count();
    let de_walls = de_list.all().filter(|d| unique.contains(*d)).count();

    Table1 {
        unique_walls: unique.len(),
        total_targets,
        overall_rate: if total_targets == 0 {
            0.0
        } else {
            unique.len() as f64 / total_targets as f64
        },
        top1k_rate: if top1k_sites.is_empty() {
            0.0
        } else {
            top1k_walls as f64 / top1k_sites.len() as f64
        },
        de_top1k_rate: if de_list.top1k.is_empty() {
            0.0
        } else {
            de_top1k_walls as f64 / de_list.top1k.len() as f64
        },
        de_toplist_rate: if de_list.is_empty() {
            0.0
        } else {
            de_walls as f64 / de_list.len() as f64
        },
        rows,
    }
}

impl Table1 {
    /// Render the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["VP", "Cookiewalls", "Toplist", "ccTLD", "Language"]);
        for row in &self.rows {
            t.row([
                row.vp.clone(),
                row.cookiewalls.to_string(),
                row.toplist.to_string(),
                row.cctld.to_string(),
                row.language.to_string(),
            ]);
        }
        format!(
            "Table 1: Detected cookiewalls per vantage point\n{}\nUnique cookiewall sites: {} \
             of {} targets ({:.2}%)\n\
             Popularity: top-1k rate {:.1}% vs overall {:.1}%; Germany top-1k {:.1}%, \
             Germany top-10k {:.1}%\n",
            t.render(),
            self.unique_walls,
            self.total_targets,
            self.overall_rate * 100.0,
            self.top1k_rate * 100.0,
            self.overall_rate * 100.0,
            self.de_top1k_rate * 100.0,
            self.de_toplist_rate * 100.0,
        )
    }

    /// Row for one region label.
    pub fn row(&self, region: Region) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.vp == region.label())
    }
}
