//! Population builder: from a config to the complete synthetic web.
//!
//! Reconstructs the paper's measurement universe: seven country CrUX-style
//! toplists (the two US vantage points share one list) whose union at paper
//! scale is exactly **45,222 unique domains**, containing the calibrated
//! cookiewall roster, the five decoy paywalls, the off-list SMP partner
//! sites, and a realistic filler population of regular-banner and
//! banner-less sites.

use crate::names::{domain_name, rng_for, stable_hash};
use crate::roster::{scaled_roster, DecoyAssignment, WallAssignment, WallGroup};
use crate::spec::{
    BannerKind, BannerSpec, CookieCounts, CookieProfile, CookiewallSpec, Country, Currency,
    Embedding, Period, PriceSpec, RankBucket, Serving, SiteSpec, Smp, ToplistEntry, Visibility,
};
use categorize::{Category, CategoryDb};
use langid::Language;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Scale and composition parameters of the synthetic web.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Entries per country toplist (paper: 10,000).
    pub list_size: usize,
    /// Entries in the top-1k bucket of each list (paper: 1,000).
    pub top1k_size: usize,
    /// Sites appearing on *every* country list (paper: 3,963).
    pub global_sites: usize,
    /// Sites appearing on exactly two country lists (paper: 1,000).
    pub dual_sites: usize,
    /// Roster subsampling divisor (1 = the full 280-wall paper roster).
    pub roster_divisor: usize,
    /// Fraction of filler sites showing a regular cookie banner.
    pub banner_fraction: f64,
    /// Off-list SMP partners: contentpass claims 219 partners of which 76
    /// are in-list ⇒ 143 extra; freechoice 167 ⇒ 105 extra. Scaled by the
    /// same divisor.
    pub smp_divisor: usize,
    /// Per-mille of filler sites that are dead (listed but unreachable).
    /// The paper filters its lists down to the 45,222 domains "reachable in
    /// all VPs"; the paper-scale config therefore uses 0, but real crawls
    /// must survive connection failures — this knob exercises that path.
    pub unreachable_per_mille: u16,
    /// Longitudinal epoch of the population. Epoch 0 is the paper's
    /// snapshot, bit-for-bit; any later epoch applies a deterministic
    /// drift pass (wall adoption/removal, price changes, tracker churn —
    /// every decision a pure hash of `epoch × domain`) to the same domain
    /// universe, so two epochs of one config are directly diffable.
    pub epoch: u64,
}

impl PopulationConfig {
    /// Full paper scale: 7 lists × 10k, union 45,222 domains, 280 walls.
    pub fn paper() -> Self {
        PopulationConfig {
            list_size: 10_000,
            top1k_size: 1_000,
            global_sites: 3_963,
            dual_sites: 1_000,
            roster_divisor: 1,
            banner_fraction: 0.38,
            smp_divisor: 1,
            unreachable_per_mille: 0,
            epoch: 0,
        }
    }

    /// Reduced scale for integration tests and examples: ~1/25 the size,
    /// same structure (28 walls, 1 decoy).
    pub fn small() -> Self {
        PopulationConfig {
            list_size: 400,
            top1k_size: 40,
            global_sites: 120,
            dual_sites: 60,
            roster_divisor: 10,
            banner_fraction: 0.38,
            smp_divisor: 10,
            unreachable_per_mille: 0,
            epoch: 0,
        }
    }

    /// Minimal scale for unit tests: builds in milliseconds.
    pub fn tiny() -> Self {
        PopulationConfig {
            list_size: 80,
            top1k_size: 8,
            global_sites: 20,
            dual_sites: 10,
            roster_divisor: 20,
            banner_fraction: 0.38,
            smp_divisor: 20,
            unreachable_per_mille: 0,
            epoch: 0,
        }
    }

    /// The same config at a later (or earlier) epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
}

/// One country's toplist, bucketed the way CrUX exposes popularity.
#[derive(Debug, Clone, Default)]
pub struct Toplist {
    /// The top-1k bucket.
    pub top1k: Vec<String>,
    /// The rest of the top-10k.
    pub rest: Vec<String>,
}

impl Toplist {
    /// All domains on this list.
    pub fn all(&self) -> impl Iterator<Item = &str> {
        self.top1k
            .iter()
            .chain(self.rest.iter())
            .map(|s| s.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.top1k.len() + self.rest.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The complete synthetic web: every site's ground truth plus the toplists.
pub struct Population {
    config: PopulationConfig,
    sites: Vec<SiteSpec>,
    index: HashMap<String, usize>,
    toplists: HashMap<Country, Toplist>,
    category_db: CategoryDb,
    smp_partners: HashMap<Smp, Vec<String>>,
    dead_domains: std::collections::HashSet<String>,
}

impl Population {
    /// Generate the population for `config`. Deterministic: equal configs
    /// produce identical populations.
    pub fn generate(config: PopulationConfig) -> Self {
        Builder::new(config).build()
    }

    /// The config this population was generated from.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// All site specs.
    pub fn sites(&self) -> &[SiteSpec] {
        &self.sites
    }

    /// Ground truth for `host` (exact domain or a subdomain of one).
    pub fn site(&self, host: &str) -> Option<&SiteSpec> {
        let lowered;
        let mut candidate = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = host.to_ascii_lowercase();
            lowered.as_str()
        } else {
            host
        };
        loop {
            if let Some(&i) = self.index.get(candidate) {
                return Some(&self.sites[i]);
            }
            match candidate.find('.') {
                Some(i) => candidate = &candidate[i + 1..],
                None => return None,
            }
        }
    }

    /// One country's toplist.
    pub fn toplist(&self, country: Country) -> &Toplist {
        &self.toplists[&country]
    }

    /// The union of all toplists — the crawl target list (sorted,
    /// deduplicated). At paper scale this has exactly 45,222 entries.
    pub fn merged_targets(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .toplists
            .values()
            .flat_map(|t| t.all().map(str::to_string))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Ground truth: domains of all genuine cookiewall sites that are on
    /// some toplist.
    pub fn ground_truth_walls(&self) -> Vec<&SiteSpec> {
        self.sites
            .iter()
            .filter(|s| s.banner.is_cookiewall() && !s.toplists.is_empty())
            .collect()
    }

    /// All partner domains of `smp` — in-list walls plus off-list partners
    /// (the paper's contentpass claims 219 total with 76 in-list).
    pub fn smp_partners(&self, smp: Smp) -> &[String] {
        &self.smp_partners[&smp]
    }

    /// The FortiGuard-role category database, pre-populated with every
    /// site's ground-truth category.
    pub fn category_db(&self) -> &CategoryDb {
        &self.category_db
    }

    /// Domains that are listed but dead: the server installer skips them,
    /// so visits fail with a connection error.
    pub fn is_dead(&self, domain: &str) -> bool {
        self.dead_domains.contains(domain)
    }
}

/// Internal builder state.
struct Builder {
    config: PopulationConfig,
    sites: Vec<SiteSpec>,
    index: HashMap<String, usize>,
    toplists: HashMap<Country, Toplist>,
    category_db: CategoryDb,
    smp_partners: HashMap<Smp, Vec<String>>,
    /// Per-(language, tld) counters for unique name generation.
    name_counters: HashMap<(Language, &'static str), usize>,
}

impl Builder {
    fn new(config: PopulationConfig) -> Self {
        Builder {
            config,
            sites: Vec::new(),
            index: HashMap::new(),
            toplists: Country::ALL
                .iter()
                .map(|&c| (c, Toplist::default()))
                .collect(),
            category_db: CategoryDb::new(),
            smp_partners: [
                (Smp::Contentpass, Vec::new()),
                (Smp::Freechoice, Vec::new()),
            ]
            .into_iter()
            .collect(),
            name_counters: HashMap::new(),
        }
    }

    fn fresh_domain(&mut self, language: Language, tld: &'static str) -> String {
        let counter = self.name_counters.entry((language, tld)).or_insert(0);
        loop {
            let name = domain_name(language, tld, *counter);
            *counter += 1;
            if !self.index.contains_key(&name) {
                return name;
            }
        }
    }

    fn add_site(&mut self, spec: SiteSpec) -> usize {
        let idx = self.sites.len();
        self.category_db.register(&spec.domain, spec.category);
        let prev = self.index.insert(spec.domain.clone(), idx);
        assert!(prev.is_none(), "duplicate domain {}", spec.domain);
        self.sites.push(spec);
        idx
    }

    fn build(mut self) -> Population {
        let (walls, decoys) = scaled_roster(self.config.roster_divisor);
        self.add_walls(&walls);
        self.add_decoys(&decoys);
        self.add_offlist_smp_partners();
        self.add_residents();
        self.fill_lists();
        self.apply_epoch_drift();
        // Dead sites: a deterministic slice of the banner-less filler
        // population (walls, decoys and banner sites stay reachable so the
        // calibrated counts are unaffected).
        let per_mille = self.config.unreachable_per_mille as u64;
        let dead_domains = self
            .sites
            .iter()
            .filter(|s| {
                matches!(s.banner, BannerKind::None)
                    && crate::names::stable_hash(&format!("dead/{}", s.domain)) % 1000 < per_mille
            })
            .map(|s| s.domain.clone())
            .collect();
        Population {
            config: self.config,
            sites: self.sites,
            index: self.index,
            toplists: self.toplists,
            category_db: self.category_db,
            smp_partners: self.smp_partners,
            dead_domains,
        }
    }

    fn add_walls(&mut self, walls: &[WallAssignment]) {
        for w in walls {
            let domain = if w.group == WallGroup::BrSpecial {
                // The footnote-2 case: the Brazilian list carries the
                // Portuguese subdomain of a German-operated site.
                let base = self.fresh_domain(Language::German, "org");
                format!("pt.{base}")
            } else {
                self.fresh_domain(w.language, w.tld)
            };
            let country = w.group.country();
            let mut rng = rng_for(&domain, 7);
            let profile = wall_profile(&mut rng, w.class.smp);
            let spec = SiteSpec {
                domain: domain.clone(),
                language: w.language,
                category: w.category,
                toplists: vec![ToplistEntry {
                    country,
                    bucket: w.bucket,
                }],
                banner: BannerKind::Cookiewall(CookiewallSpec {
                    embedding: w.class.embedding,
                    serving: w.class.serving,
                    visibility: w.visibility,
                    price: w.price,
                    smp: w.class.smp,
                    detects_adblock: w.detects_adblock,
                    breaks_scroll_when_blocked: w.breaks_scroll,
                }),
                cookies: profile,
                bot_sensitive: rng.random_bool(0.02),
            };
            self.push_to_list(country, w.bucket, &domain);
            self.add_site(spec);
            if let Some(smp) = w.class.smp {
                self.smp_partners.get_mut(&smp).unwrap().push(domain);
            }
        }
    }

    fn add_decoys(&mut self, decoys: &[DecoyAssignment]) {
        for d in decoys {
            let domain = self.fresh_domain(d.language, d.tld);
            let mut rng = rng_for(&domain, 7);
            let spec = SiteSpec {
                domain: domain.clone(),
                language: d.language,
                category: Category::NewsAndMedia,
                toplists: vec![ToplistEntry {
                    country: d.country,
                    bucket: RankBucket::Top10k,
                }],
                banner: BannerKind::DecoyPaywall,
                cookies: decoy_profile(&mut rng),
                bot_sensitive: false,
            };
            self.push_to_list(d.country, RankBucket::Top10k, &domain);
            self.add_site(spec);
        }
    }

    fn add_offlist_smp_partners(&mut self) {
        // 219 − 76 = 143 contentpass, 167 − 62 = 105 freechoice extras.
        let plans = [(Smp::Contentpass, 143), (Smp::Freechoice, 105)];
        for (smp, paper_count) in plans {
            let count = paper_count / self.config.smp_divisor;
            for i in 0..count {
                let domain = self.fresh_domain(Language::German, "de");
                let mut rng = rng_for(&domain, 7);
                let profile = wall_profile(&mut rng, Some(smp));
                let embedding = if i % 8 == 0 {
                    Embedding::ShadowOpen
                } else {
                    Embedding::Iframe
                };
                let spec = SiteSpec {
                    domain: domain.clone(),
                    language: Language::German,
                    category: filler_category(&mut rng),
                    toplists: vec![],
                    banner: BannerKind::Cookiewall(CookiewallSpec {
                        embedding,
                        serving: Serving::SmpCdn,
                        visibility: crate::spec::Visibility::Global,
                        price: crate::spec::PriceSpec {
                            amount_cents: 299,
                            currency: crate::spec::Currency::Eur,
                            period: crate::spec::Period::Month,
                        },
                        smp: Some(smp),
                        detects_adblock: false,
                        breaks_scroll_when_blocked: false,
                    }),
                    cookies: profile,
                    bot_sensitive: false,
                };
                self.add_site(spec);
                self.smp_partners.get_mut(&smp).unwrap().push(domain);
            }
        }
    }

    /// Global and dual-list resident sites.
    fn add_residents(&mut self) {
        let global = self.config.global_sites;
        let dual = self.config.dual_sites;
        // Globals: on every list; international sites, mostly English.
        for i in 0..global {
            let lang = if i % 9 == 0 {
                Language::German
            } else {
                Language::English
            };
            let tld = ["com", "net", "org", "io"][i % 4];
            let domain = self.fresh_domain(lang, tld);
            let mut toplists = Vec::with_capacity(Country::ALL.len());
            for c in Country::ALL {
                toplists.push(ToplistEntry {
                    country: c,
                    bucket: self.resident_bucket(&domain, c),
                });
            }
            let spec = self.filler_spec(domain.clone(), lang, toplists);
            for t in spec.toplists.clone() {
                self.push_to_list(t.country, t.bucket, &domain);
            }
            self.add_site(spec);
        }
        // Duals: each on a round-robin pair of country lists.
        let pairs: Vec<(Country, Country)> = {
            let cs = Country::ALL;
            let mut v = Vec::new();
            for i in 0..cs.len() {
                for j in i + 1..cs.len() {
                    v.push((cs[i], cs[j]));
                }
            }
            v
        };
        for i in 0..dual {
            let (a, b) = pairs[i % pairs.len()];
            let lang = country_language(a);
            let tld = country_tld(a, i);
            let domain = self.fresh_domain(lang, tld);
            let toplists = vec![
                ToplistEntry {
                    country: a,
                    bucket: self.resident_bucket(&domain, a),
                },
                ToplistEntry {
                    country: b,
                    bucket: self.resident_bucket(&domain, b),
                },
            ];
            let spec = self.filler_spec(domain.clone(), lang, toplists);
            for t in spec.toplists.clone() {
                self.push_to_list(t.country, t.bucket, &domain);
            }
            self.add_site(spec);
        }
    }

    /// Bucket of a resident site on a given country list: ~15% land in the
    /// top-1k bucket, capped by remaining capacity.
    fn resident_bucket(&self, domain: &str, country: Country) -> RankBucket {
        let h = stable_hash(&format!("bucket/{domain}/{}", country.code()));
        let wants_top = h % 100 < 15;
        let list = &self.toplists[&country];
        if wants_top && list.top1k.len() < self.config.top1k_size {
            RankBucket::Top1k
        } else {
            RankBucket::Top10k
        }
    }

    fn push_to_list(&mut self, country: Country, bucket: RankBucket, domain: &str) {
        let list = self.toplists.get_mut(&country).unwrap();
        match bucket {
            RankBucket::Top1k => list.top1k.push(domain.to_string()),
            RankBucket::Top10k => list.rest.push(domain.to_string()),
        }
    }

    /// Fill every list's buckets to their exact capacities with local
    /// filler sites.
    fn fill_lists(&mut self) {
        for country in Country::ALL {
            loop {
                let list = &self.toplists[&country];
                let need_top = self.config.top1k_size.saturating_sub(list.top1k.len());
                let need_rest = (self.config.list_size - self.config.top1k_size)
                    .saturating_sub(list.rest.len());
                if need_top == 0 && need_rest == 0 {
                    break;
                }
                let bucket = if need_top > 0 {
                    RankBucket::Top1k
                } else {
                    RankBucket::Top10k
                };
                let lang = country_language(country);
                let tld = country_tld(country, list.len());
                let domain = self.fresh_domain(lang, tld);
                let spec =
                    self.filler_spec(domain.clone(), lang, vec![ToplistEntry { country, bucket }]);
                self.push_to_list(country, bucket, &domain);
                self.add_site(spec);
            }
            let list = &self.toplists[&country];
            assert_eq!(list.top1k.len(), self.config.top1k_size);
            assert_eq!(list.len(), self.config.list_size);
        }
    }

    /// Longitudinal drift: advance the epoch-0 snapshot to `config.epoch`.
    ///
    /// The domain universe and the toplists never change — only what the
    /// sites *serve* drifts, so two epochs of one config crawl the same
    /// target list and their stores diff cell by cell. Every decision is a
    /// pure hash of `(epoch, domain)`; epoch 0 is the identity (the drift
    /// pass does not run at all), keeping the paper-scale calibration and
    /// the golden snapshots bit-for-bit stable.
    ///
    /// Drift channels, mirroring what longitudinal banner studies observe:
    ///
    /// * independent cookiewalls are abolished back to a regular banner
    ///   (~13% per epoch) — SMP-operated walls are exempt so the partner
    ///   rosters stay coherent;
    /// * regular-banner sites harden into first-party accept-or-pay walls
    ///   (~0.8%) or drop their banner entirely (~3%);
    /// * banner-less sites adopt a banner (~2.5%);
    /// * surviving walls reprice (~25% move by ±30%, rounded to 10 cents);
    /// * consent-gated sites churn their post-accept tracker count (±7).
    fn apply_epoch_drift(&mut self) {
        let epoch = self.config.epoch;
        if epoch == 0 {
            return;
        }
        for site in &mut self.sites {
            drift_site(site, epoch);
        }
    }

    /// A filler (non-wall) site: regular banner with probability
    /// `banner_fraction`, banner-less otherwise.
    fn filler_spec(
        &self,
        domain: String,
        language: Language,
        toplists: Vec<ToplistEntry>,
    ) -> SiteSpec {
        let mut rng = rng_for(&domain, 7);
        let has_banner = rng.random_bool(self.config.banner_fraction);
        let banner = if has_banner {
            let embedding = match rng.random_range(0..10) {
                0..7 => Embedding::MainDom,
                7 | 8 => Embedding::Iframe,
                _ => {
                    if rng.random_bool(0.5) {
                        Embedding::ShadowOpen
                    } else {
                        Embedding::ShadowClosed
                    }
                }
            };
            BannerKind::Banner(BannerSpec {
                embedding,
                serving: if rng.random_bool(0.5) {
                    Serving::CmpScript
                } else {
                    Serving::FirstParty
                },
                has_reject: rng.random_bool(0.9),
                has_settings: rng.random_bool(0.4),
                eu_only: rng.random_bool(0.3),
            })
        } else {
            BannerKind::None
        };
        let cookies = match &banner {
            BannerKind::Banner(_) => banner_profile(&mut rng),
            _ => plain_profile(&mut rng),
        };
        SiteSpec {
            domain,
            language,
            category: filler_category(&mut rng),
            toplists,
            banner,
            cookies,
            bot_sensitive: rng.random_bool(0.02),
        }
    }
}

/// Apply every drift channel to one site (see
/// [`Builder::apply_epoch_drift`] for the model).
fn drift_site(site: &mut SiteSpec, epoch: u64) {
    match &site.banner {
        BannerKind::Cookiewall(cw) => {
            let abolished = cw.smp.is_none()
                && stable_hash(&format!("drift/unwall/{epoch}/{}", site.domain)) % 1000 < 130;
            if abolished {
                let embedding = cw.embedding;
                let serving = match cw.serving {
                    Serving::FirstParty => Serving::FirstParty,
                    Serving::SmpCdn | Serving::CmpScript => Serving::CmpScript,
                };
                site.banner = BannerKind::Banner(BannerSpec {
                    embedding,
                    serving,
                    has_reject: true,
                    has_settings: false,
                    eu_only: false,
                });
            }
        }
        BannerKind::Banner(_) => {
            let h = stable_hash(&format!("drift/banner/{epoch}/{}", site.domain));
            if h % 1000 < 8 {
                // The banner hardened into a first-party accept-or-pay wall.
                let price_wheel: [u32; 8] = [199, 249, 299, 349, 399, 449, 499, 599];
                let mut rng = rng_for(&format!("driftwall/{epoch}/{}", site.domain), 7);
                site.banner = BannerKind::Cookiewall(CookiewallSpec {
                    embedding: Embedding::MainDom,
                    serving: Serving::FirstParty,
                    visibility: Visibility::Global,
                    price: PriceSpec {
                        amount_cents: price_wheel[((h >> 10) % 8) as usize],
                        currency: Currency::Eur,
                        period: Period::Month,
                    },
                    smp: None,
                    detects_adblock: false,
                    breaks_scroll_when_blocked: false,
                });
                site.cookies = wall_profile(&mut rng, None);
            } else if h % 1000 >= 970 {
                // The banner was dropped entirely.
                let mut rng = rng_for(&format!("driftplain/{epoch}/{}", site.domain), 7);
                site.banner = BannerKind::None;
                site.cookies = plain_profile(&mut rng);
            }
        }
        BannerKind::None => {
            let h = stable_hash(&format!("drift/adopt/{epoch}/{}", site.domain));
            if h % 1000 < 25 {
                let mut rng = rng_for(&format!("driftbanner/{epoch}/{}", site.domain), 7);
                site.banner = BannerKind::Banner(BannerSpec {
                    embedding: Embedding::MainDom,
                    serving: if h & 0x100 == 0 {
                        Serving::FirstParty
                    } else {
                        Serving::CmpScript
                    },
                    has_reject: h & 0x200 != 0,
                    has_settings: false,
                    eu_only: false,
                });
                site.cookies = banner_profile(&mut rng);
            }
        }
        BannerKind::DecoyPaywall => {}
    }
    // Repricing on surviving (and freshly adopted) walls.
    if let BannerKind::Cookiewall(cw) = &mut site.banner {
        let h = stable_hash(&format!("drift/price/{epoch}/{}", site.domain));
        if h % 100 < 25 {
            let factor = 0.70 + ((h >> 8) % 61) as f64 / 100.0; // 0.70..=1.30
            let cents = (cw.price.amount_cents as f64 * factor).round() as u32;
            cw.price.amount_cents = (cents.max(99)).div_ceil(10) * 10;
        }
    }
    // Tracker churn behind any consent gate.
    if matches!(
        site.banner,
        BannerKind::Banner(_) | BannerKind::Cookiewall(_)
    ) {
        let h = stable_hash(&format!("drift/trackers/{epoch}/{}", site.domain));
        if h % 100 < 30 {
            let delta = ((h >> 8) % 15) as i64 - 7;
            let churned = site.cookies.accepted.tracking as i64 + delta;
            site.cookies.accepted.tracking = churned.clamp(0, 220) as u32;
        }
    }
}

/// Main language of a country's local sites.
fn country_language(c: Country) -> Language {
    match c {
        Country::De => Language::German,
        Country::Se => Language::Swedish,
        Country::Us | Country::Za | Country::In | Country::Au => Language::English,
        Country::Br => Language::Portuguese,
    }
}

/// TLD distribution of a country's local sites (index-cycled).
fn country_tld(c: Country, i: usize) -> &'static str {
    let wheel: &[&'static str] = match c {
        Country::De => &[
            "de", "de", "de", "de", "de", "de", "de", "com", "net", "org",
        ],
        Country::Se => &[
            "se", "se", "se", "se", "se", "se", "com", "net", "nu", "org",
        ],
        Country::Us => &[
            "com", "com", "com", "com", "com", "net", "org", "io", "us", "info",
        ],
        Country::Br => &[
            "com.br", "com.br", "com.br", "br", "br", "com", "org.br", "net", "org", "com",
        ],
        Country::Za => &[
            "co.za", "co.za", "co.za", "za", "com", "org.za", "net", "com", "org", "co.za",
        ],
        Country::In => &[
            "in", "in", "co.in", "co.in", "com", "com", "org", "net", "in", "com",
        ],
        Country::Au => &[
            "com.au", "com.au", "com.au", "com.au", "au", "com", "net.au", "org.au", "com", "net",
        ],
    };
    wheel[i % wheel.len()]
}

/// Category distribution for filler sites (broader than the wall
/// population: walls over-index on news, the general web does not).
fn filler_category(rng: &mut ChaCha8Rng) -> Category {
    let wheel = [
        (10, Category::NewsAndMedia),
        (14, Category::Business),
        (12, Category::InformationTechnology),
        (14, Category::Shopping),
        (9, Category::Entertainment),
        (7, Category::Sports),
        (6, Category::Travel),
        (5, Category::Education),
        (6, Category::Health),
        (6, Category::Finance),
        (4, Category::Games),
        (7, Category::GeneralInterest),
    ];
    let total: u32 = wheel.iter().map(|(w, _)| *w).sum();
    let mut pick = rng.random_range(0..total);
    for (w, c) in wheel {
        if pick < w {
            return c;
        }
        pick -= w;
    }
    Category::GeneralInterest
}

// ----------------------------------------------------------- distributions

/// Standard normal via Box–Muller.
fn std_normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn normal(rng: &mut ChaCha8Rng, mean: f64, sd: f64) -> f64 {
    mean + sd * std_normal(rng)
}

/// Log-normal parameterized by its median.
fn lognorm(rng: &mut ChaCha8Rng, median: f64, sigma: f64) -> f64 {
    median * (sigma * std_normal(rng)).exp()
}

fn count(x: f64, lo: u32, hi: u32) -> u32 {
    (x.round().max(lo as f64).min(hi as f64)) as u32
}

/// Cookie profile of a cookiewall site. Calibrated so the *population*
/// medians land on the paper's Figure 4/5 values: overall wall tracking
/// median ≈ 43 with contentpass ≈ 16, freechoice ≈ 38, independents ≈ 70;
/// first-party ≈ 19 (13 for contentpass); benign third-party ≈ 7.4.
fn wall_profile(rng: &mut ChaCha8Rng, smp: Option<Smp>) -> CookieProfile {
    let (fp, tracking, benign) = match smp {
        None => (
            normal(rng, 20.5, 2.0),
            lognorm(rng, 70.0, 0.5),
            lognorm(rng, 7.4, 0.4),
        ),
        Some(Smp::Contentpass) => {
            let mut t = lognorm(rng, 16.0, 0.35);
            // A few contentpass partners are extreme outliers (>100
            // tracking cookies, Figure 5's whisker).
            if rng.random_bool(0.03) {
                t *= 7.0;
            }
            (normal(rng, 13.0, 2.5), t, lognorm(rng, 7.2, 0.35))
        }
        Some(Smp::Freechoice) => (
            normal(rng, 13.0, 2.5),
            lognorm(rng, 38.0, 0.3),
            lognorm(rng, 7.2, 0.35),
        ),
    };
    let accepted = CookieCounts {
        first_party: count(fp, 5, 60),
        benign_third_party: count(benign, 1, 40),
        tracking: count(tracking, 4, 220),
    };
    let subscribed = if smp.is_some() {
        // The measured subscriber medians include +1 first-party cookie
        // (the entitlement cookie the SMP script sets) and +1 third-party
        // cookie (the SMP session) on top of these bases.
        CookieCounts {
            first_party: count(normal(rng, 5.0, 1.0), 2, 12),
            benign_third_party: count(lognorm(rng, 3.4, 0.3), 1, 12),
            tracking: 0,
        }
    } else {
        CookieCounts {
            first_party: 3,
            benign_third_party: 0,
            tracking: 0,
        }
    };
    CookieProfile {
        pre_consent: CookieCounts {
            first_party: 3,
            benign_third_party: 0,
            tracking: 0,
        },
        accepted,
        subscribed,
    }
}

/// Cookie profile of a regular-banner site (Figure 4's comparison set):
/// first-party ≈ 15, benign third-party ≈ 5.8, tracking median ≈ 1 with a
/// long-enough tail that wall sites send ~42× the tracking cookies on
/// average.
fn banner_profile(rng: &mut ChaCha8Rng) -> CookieProfile {
    let accepted = CookieCounts {
        first_party: count(normal(rng, 15.0, 3.0), 3, 40),
        benign_third_party: count(lognorm(rng, 5.8, 0.8), 0, 40),
        tracking: count(lognorm(rng, 0.9, 0.8), 0, 30),
    };
    CookieProfile {
        pre_consent: CookieCounts {
            first_party: 2,
            benign_third_party: 0,
            tracking: 0,
        },
        accepted,
        subscribed: CookieCounts {
            first_party: 2,
            benign_third_party: 0,
            tracking: 0,
        },
    }
}

/// Cookie profile of a site without any consent UI.
fn plain_profile(rng: &mut ChaCha8Rng) -> CookieProfile {
    let steady = CookieCounts {
        first_party: count(normal(rng, 8.0, 2.0), 1, 25),
        benign_third_party: count(lognorm(rng, 2.0, 0.6), 0, 15),
        tracking: count(lognorm(rng, 0.5, 0.7), 0, 10),
    };
    CookieProfile {
        pre_consent: steady,
        accepted: steady,
        subscribed: steady,
    }
}

/// Decoy paywall sites: ordinary cookie behaviour, no consent gate.
fn decoy_profile(rng: &mut ChaCha8Rng) -> CookieProfile {
    plain_profile(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_population_structure() {
        let p = Population::generate(PopulationConfig::tiny());
        for c in Country::ALL {
            let list = p.toplist(c);
            assert_eq!(list.top1k.len(), 8);
            assert_eq!(list.len(), 80);
        }
        assert!(!p.ground_truth_walls().is_empty());
        assert_eq!(
            p.sites()
                .iter()
                .filter(|s| matches!(s.banner, BannerKind::DecoyPaywall))
                .count(),
            1
        );
        // Every toplist domain resolves to a spec.
        for d in p.merged_targets() {
            assert!(p.site(&d).is_some(), "{d} has no spec");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = Population::generate(PopulationConfig::tiny());
        let b = Population::generate(PopulationConfig::tiny());
        assert_eq!(a.sites().len(), b.sites().len());
        for (x, y) in a.sites().iter().zip(b.sites()) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.banner, y.banner);
            assert_eq!(x.cookies, y.cookies);
        }
        assert_eq!(a.merged_targets(), b.merged_targets());
    }

    #[test]
    fn small_population_walls_and_smps() {
        let p = Population::generate(PopulationConfig::small());
        let walls = p.ground_truth_walls();
        assert_eq!(walls.len(), 30, "scaled roster size");
        // SMP partner lists include off-list extras.
        let cp = p.smp_partners(Smp::Contentpass);
        let in_list = cp
            .iter()
            .filter(|d| p.site(d).unwrap().on_toplist(Country::De))
            .count();
        assert!(cp.len() > in_list, "off-list partners exist");
        // Category DB knows every site.
        for s in p.sites() {
            assert_eq!(p.category_db().lookup(&s.domain), Some(s.category));
        }
    }

    #[test]
    fn subdomain_lookup_and_special_site() {
        let p = Population::generate(PopulationConfig::small());
        let special = p
            .sites()
            .iter()
            .find(|s| s.domain.starts_with("pt."))
            .expect("BrSpecial site survives 1/10 subsampling (it is index 279... )");
        assert!(special.banner.is_cookiewall());
        // Lookup via a deeper subdomain works.
        let via_sub = p.site(&format!("www.{}", special.domain));
        assert_eq!(
            via_sub.map(|s| s.domain.as_str()),
            Some(special.domain.as_str())
        );
    }

    #[test]
    fn cookie_profile_bands() {
        // Sample many profiles and check the calibrated medians.
        let mut wall_tracking = Vec::new();
        let mut cp_tracking = Vec::new();
        let mut banner_tracking = Vec::new();
        for i in 0..4000 {
            let mut rng = rng_for(&format!("profiletest{i}"), 0);
            wall_tracking.push(wall_profile(&mut rng, None).accepted.tracking as f64);
            cp_tracking.push(
                wall_profile(&mut rng, Some(Smp::Contentpass))
                    .accepted
                    .tracking as f64,
            );
            banner_tracking.push(banner_profile(&mut rng).accepted.tracking as f64);
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let wall_med = med(&mut wall_tracking);
        assert!(
            (55.0..=85.0).contains(&wall_med),
            "independent wall median {wall_med}"
        );
        let cp_med = med(&mut cp_tracking);
        assert!(
            (13.0..=19.0).contains(&cp_med),
            "contentpass median {cp_med}"
        );
        let banner_med = med(&mut banner_tracking);
        assert!(
            (0.0..=2.0).contains(&banner_med),
            "banner median {banner_med}"
        );
        // Mean ratio in the ~42× ballpark.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ratio = mean(&wall_tracking) / mean(&banner_tracking).max(0.01);
        assert!(
            (25.0..=90.0).contains(&ratio),
            "wall/banner tracking mean ratio {ratio}"
        );
        // Heavy tail: some contentpass outliers above 100.
        assert!(cp_tracking.iter().any(|&t| t > 100.0), "no >100 outliers");
    }

    #[test]
    fn epoch_drift_is_deterministic_same_universe_nonzero() {
        use std::collections::BTreeSet;
        let e0 = Population::generate(PopulationConfig::small());
        let e1a = Population::generate(PopulationConfig::small().with_epoch(1));
        let e1b = Population::generate(PopulationConfig::small().with_epoch(1));

        // Determinism: epoch 1 regenerates bit-for-bit.
        assert_eq!(e1a.sites().len(), e1b.sites().len());
        for (x, y) in e1a.sites().iter().zip(e1b.sites()) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.banner, y.banner);
            assert_eq!(x.cookies, y.cookies);
        }

        // Same universe: domains and toplists never drift.
        assert_eq!(e0.merged_targets(), e1a.merged_targets());
        for c in Country::ALL {
            assert_eq!(e0.toplist(c).top1k, e1a.toplist(c).top1k);
            assert_eq!(e0.toplist(c).rest, e1a.toplist(c).rest);
        }

        // SMP partner rosters are exempt from wall removal.
        assert_eq!(
            e0.smp_partners(Smp::Contentpass),
            e1a.smp_partners(Smp::Contentpass)
        );
        assert_eq!(
            e0.smp_partners(Smp::Freechoice),
            e1a.smp_partners(Smp::Freechoice)
        );

        // Nonzero drift on every channel the diff engine reports.
        let walls = |p: &Population| -> BTreeSet<String> {
            p.ground_truth_walls()
                .iter()
                .map(|s| s.domain.clone())
                .collect()
        };
        let (w0, w1) = (walls(&e0), walls(&e1a));
        let appeared = w1.difference(&w0).count();
        let disappeared = w0.difference(&w1).count();
        assert!(appeared > 0, "no wall adopted at epoch 1");
        assert!(disappeared > 0, "no wall abolished at epoch 1");
        let price = |p: &Population, d: &str| match &p.site(d).unwrap().banner {
            BannerKind::Cookiewall(cw) => Some(cw.price.monthly_eur()),
            _ => None,
        };
        let repriced = w0
            .intersection(&w1)
            .filter(|d| price(&e0, d) != price(&e1a, d))
            .count();
        assert!(repriced > 0, "no persisted wall repriced at epoch 1");
        let churned = e0
            .sites()
            .iter()
            .zip(e1a.sites())
            .filter(|(a, b)| a.cookies.accepted.tracking != b.cookies.accepted.tracking)
            .count();
        assert!(churned > 0, "no tracker churn at epoch 1");
    }

    #[test]
    fn paper_scale_epoch_drift_is_nonzero() {
        use std::collections::BTreeSet;
        let e0 = Population::generate(PopulationConfig::paper());
        let e1 = Population::generate(PopulationConfig::paper().with_epoch(1));
        assert_eq!(e0.merged_targets(), e1.merged_targets());
        let walls = |p: &Population| -> BTreeSet<String> {
            p.ground_truth_walls()
                .iter()
                .map(|s| s.domain.clone())
                .collect()
        };
        let (w0, w1) = (walls(&e0), walls(&e1));
        assert!(w1.difference(&w0).count() > 0, "no wall adopted");
        assert!(w0.difference(&w1).count() > 0, "no wall abolished");
        let price = |p: &Population, d: &str| match &p.site(d).unwrap().banner {
            BannerKind::Cookiewall(cw) => Some(cw.price.monthly_eur()),
            _ => None,
        };
        let repriced = w0
            .intersection(&w1)
            .filter(|d| price(&e0, d) != price(&e1, d))
            .count();
        assert!(repriced > 0, "no persisted wall repriced");
        let churned = e0
            .sites()
            .iter()
            .zip(e1.sites())
            .filter(|(a, b)| a.cookies.accepted.tracking != b.cookies.accepted.tracking)
            .count();
        assert!(churned > 0, "no tracker churn");
    }

    #[test]
    fn paper_scale_union_is_45222() {
        // The expensive flagship invariant — generation only, no crawling.
        let p = Population::generate(PopulationConfig::paper());
        assert_eq!(p.merged_targets().len(), 45_222);
        assert_eq!(p.ground_truth_walls().len(), 280);
        assert_eq!(
            p.sites()
                .iter()
                .filter(|s| matches!(s.banner, BannerKind::DecoyPaywall))
                .count(),
            5
        );
        assert_eq!(p.smp_partners(Smp::Contentpass).len(), 219);
        assert_eq!(p.smp_partners(Smp::Freechoice).len(), 167);
        for c in Country::ALL {
            assert_eq!(p.toplist(c).len(), 10_000);
            assert_eq!(p.toplist(c).top1k.len(), 1_000);
        }
    }
}
