//! §4.4: Subscription Management Platforms — claimed partner counts,
//! in-toplist intersections, and crawl-side provider attribution.

use crate::context::Study;
use crate::crawl::VantageCrawl;
use crate::render::TextTable;
use serde::Serialize;
use webgen::Smp;

/// One SMP's figures.
#[derive(Debug, Clone, Serialize)]
pub struct SmpStats {
    /// Platform name.
    pub name: String,
    /// Partners the platform claims (its public partner list).
    pub claimed_partners: usize,
    /// Claimed partners that appear in the merged crawl target list.
    pub in_toplist: usize,
    /// Crawled walls whose serving infrastructure was attributed to this
    /// platform by the detector.
    pub attributed_by_crawl: usize,
    /// Monthly price (both platforms charge 2.99 €).
    pub monthly_eur: f64,
}

/// The §4.4 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct SmpReport {
    /// Per-platform statistics.
    pub platforms: Vec<SmpStats>,
}

/// Compute SMP statistics.
pub fn compute(study: &Study, crawls: &[VantageCrawl]) -> SmpReport {
    let targets: std::collections::HashSet<String> = study.targets().into_iter().collect();
    let mut platforms = Vec::new();
    for smp in [Smp::Contentpass, Smp::Freechoice] {
        let claimed = study.population.smp_partners(smp);
        let in_toplist = claimed.iter().filter(|d| targets.contains(*d)).count();
        let mut attributed = std::collections::HashSet::new();
        for crawl in crawls {
            for r in crawl.detected_walls() {
                if let Some(provider) = &r.provider {
                    if httpsim::same_site(provider, smp.cdn_host()) {
                        attributed.insert(r.domain.clone());
                    }
                }
            }
        }
        platforms.push(SmpStats {
            name: smp.name().to_string(),
            claimed_partners: claimed.len(),
            in_toplist,
            attributed_by_crawl: attributed.len(),
            monthly_eur: 2.99,
        });
    }
    SmpReport { platforms }
}

impl SmpReport {
    /// Render the SMP table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "SMP",
            "Claimed partners",
            "In toplist",
            "Attributed by crawl",
            "Price €/mo",
        ]);
        for p in &self.platforms {
            t.row([
                p.name.clone(),
                p.claimed_partners.to_string(),
                p.in_toplist.to_string(),
                p.attributed_by_crawl.to_string(),
                format!("{:.2}", p.monthly_eur),
            ]);
        }
        format!("Subscription Management Platforms (§4.4)\n{}", t.render())
    }
}

/// Extra §3 statistic: embedding split of the verified walls (76 shadow /
/// 132 iframe / 72 main DOM at paper scale).
#[derive(Debug, Clone, Serialize)]
pub struct EmbeddingSplit {
    /// Walls found behind shadow roots.
    pub shadow: usize,
    /// Walls found in iframes.
    pub iframe: usize,
    /// Walls in the main DOM.
    pub main_dom: usize,
}

/// Compute the embedding split from the German crawl (which sees every
/// wall).
pub fn embedding_split(study: &Study, crawls: &[VantageCrawl]) -> EmbeddingSplit {
    use bannerclick::ObservedEmbedding;
    let mut split = EmbeddingSplit {
        shadow: 0,
        iframe: 0,
        main_dom: 0,
    };
    let de = crawls.iter().find(|c| c.region == httpsim::Region::Germany);
    let Some(de) = de else { return split };
    for r in de.detected_walls() {
        if !study.verify_wall(&r.domain) {
            continue;
        }
        match r.embedding {
            Some(ObservedEmbedding::ShadowDom) => split.shadow += 1,
            Some(ObservedEmbedding::Iframe) => split.iframe += 1,
            Some(ObservedEmbedding::MainDom) => split.main_dom += 1,
            None => {}
        }
    }
    split
}

impl EmbeddingSplit {
    /// Render the §3 embedding sentence.
    pub fn render(&self) -> String {
        format!(
            "Embedding of detected cookiewalls (§3): {} shadow DOM, {} iframe, {} main DOM\n",
            self.shadow, self.iframe, self.main_dom
        )
    }
}
