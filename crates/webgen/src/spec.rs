//! Ground-truth site specifications.
//!
//! Every domain in the synthetic web is described by a [`SiteSpec`] — the
//! oracle record of what the site *really* is. The measurement pipeline
//! never reads these directly; it only sees rendered HTML and HTTP
//! responses. The analysis crate compares its detections against this
//! ground truth to compute the precision/recall numbers of §3.

use httpsim::Region;

/// ISO-ish country key for toplists (one per vantage-point country; the two
/// US vantage points share one list, as CrUX lists are per country).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Country {
    /// Germany.
    De,
    /// Sweden.
    Se,
    /// United States.
    Us,
    /// Brazil.
    Br,
    /// South Africa.
    Za,
    /// India.
    In,
    /// Australia.
    Au,
}

impl Country {
    /// All toplist countries.
    pub const ALL: [Country; 7] = [
        Country::De,
        Country::Se,
        Country::Us,
        Country::Br,
        Country::Za,
        Country::In,
        Country::Au,
    ];

    /// The toplist country a vantage point uses.
    pub fn for_region(region: Region) -> Country {
        match region {
            Region::Germany => Country::De,
            Region::Sweden => Country::Se,
            Region::UsEast | Region::UsWest => Country::Us,
            Region::Brazil => Country::Br,
            Region::SouthAfrica => Country::Za,
            Region::India => Country::In,
            Region::Australia => Country::Au,
        }
    }

    /// Two-letter lowercase code.
    pub fn code(self) -> &'static str {
        match self {
            Country::De => "de",
            Country::Se => "se",
            Country::Us => "us",
            Country::Br => "br",
            Country::Za => "za",
            Country::In => "in",
            Country::Au => "au",
        }
    }
}

/// CrUX-style popularity bucket. Google CrUX does not expose exact ranks,
/// only buckets (footnote 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RankBucket {
    /// Among the country's 1,000 most popular sites.
    Top1k,
    /// Among the top 10,000 (but not the top 1,000).
    Top10k,
}

/// Membership of a site in one country's toplist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToplistEntry {
    /// Which country's CrUX list.
    pub country: Country,
    /// Popularity bucket within that list.
    pub bucket: RankBucket,
}

/// Where the banner/wall markup structurally lives — the three embedding
/// channels §3 reports (76 shadow DOM / 132 iframe / 72 main DOM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Embedding {
    /// Markup inline in the page's main DOM.
    MainDom,
    /// Markup inside an `<iframe>` whose document is served separately.
    Iframe,
    /// Markup behind an open shadow root.
    ShadowOpen,
    /// Markup behind a closed shadow root.
    ShadowClosed,
}

impl Embedding {
    /// Is this one of the shadow-DOM variants?
    pub fn is_shadow(self) -> bool {
        matches!(self, Embedding::ShadowOpen | Embedding::ShadowClosed)
    }
}

/// Who serves the wall/banner markup — determines adblock bypassability
/// (§4.5: third-party-served walls are blockable via filter lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Serving {
    /// Markup inline in the first-party HTML; filter lists cannot remove it.
    FirstParty,
    /// Served from a Subscription Management Platform CDN.
    SmpCdn,
    /// Injected by a third-party CMP script.
    CmpScript,
}

/// Consent Management Platforms serving regular banners (and some walls) —
/// the CMP ecosystem the paper's footnote 7 filter rules target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cmp {
    /// opencmp-style CMP (the footnote's `*cdn.opencmp.net/*` rule).
    OpenCmp,
    /// consentmanager-style CMP (provides contentpass integration, §4.4).
    ConsentManager,
    /// usercentrics-style CMP.
    Usercentrics,
}

impl Cmp {
    /// All CMP providers.
    pub const ALL: [Cmp; 3] = [Cmp::OpenCmp, Cmp::ConsentManager, Cmp::Usercentrics];

    /// Provider name.
    pub fn name(self) -> &'static str {
        match self {
            Cmp::OpenCmp => "opencmp",
            Cmp::ConsentManager => "consentmanager",
            Cmp::Usercentrics => "usercentrics",
        }
    }

    /// Delivery host serving this CMP's banner/wall assets.
    pub fn host(self) -> &'static str {
        match self {
            Cmp::OpenCmp => blocklist::data::hosts::OPENCMP_CDN,
            Cmp::ConsentManager => blocklist::data::hosts::CONSENTMANAGER,
            Cmp::Usercentrics => blocklist::data::hosts::USERCENTRICS,
        }
    }

    /// Deterministic provider choice for a site: the stable hash of
    /// `cmp/{domain}`, streamed.
    pub fn for_domain(domain: &str) -> Cmp {
        let h = crate::names::StableHasher::new()
            .write(b"cmp/")
            .write(domain.as_bytes())
            .finish();
        Cmp::ALL[(h % 3) as usize]
    }
}

/// The two Subscription Management Platforms of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Smp {
    /// The contentpass-style platform (219 partner sites claimed).
    Contentpass,
    /// The freechoice-style platform (167 partner sites claimed).
    Freechoice,
}

impl Smp {
    /// Platform display name.
    pub fn name(self) -> &'static str {
        match self {
            Smp::Contentpass => "contentpass",
            Smp::Freechoice => "freechoice",
        }
    }

    /// CDN host serving this platform's wall assets.
    pub fn cdn_host(self) -> &'static str {
        match self {
            Smp::Contentpass => blocklist::data::hosts::CONTENTPASS_CDN,
            Smp::Freechoice => blocklist::data::hosts::FREECHOICE_CDN,
        }
    }

    /// Account/login host (subscription state lives here).
    pub fn account_host(self) -> &'static str {
        match self {
            Smp::Contentpass => blocklist::data::hosts::CONTENTPASS_ACCOUNT,
            Smp::Freechoice => blocklist::data::hosts::FREECHOICE_ACCOUNT,
        }
    }

    /// The session cookie name the account host sets after login.
    pub fn session_cookie(self) -> &'static str {
        match self {
            Smp::Contentpass => "cp_session",
            Smp::Freechoice => "fc_session",
        }
    }
}

/// Geographic visibility of a cookiewall: who gets shown the wall.
/// Produces the EU vs. non-EU detection deltas of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// Shown to every visitor (modulo per-region flakiness).
    Global,
    /// Shown only to EU visitors (GDPR targeting).
    EuOnly,
    /// Shown only to visitors from Germany (observed for a handful of
    /// sites, e.g. the climate-data footnote case is DE/SE-only).
    DeOnly,
}

/// Billing period a price is quoted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Period {
    /// Per month.
    Month,
    /// Per year (the price extractor must normalize to monthly).
    Year,
}

/// Currencies appearing in wall offers (the paper's corpus covers the top
/// 10 global currencies plus VP-country currencies; these are the ones the
/// synthetic population actually uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Currency {
    /// Euro.
    Eur,
    /// US dollar.
    Usd,
    /// Swiss franc.
    Chf,
    /// Australian dollar.
    Aud,
    /// British pound.
    Gbp,
}

impl Currency {
    /// Conversion rate to EUR used by both the generator and the price
    /// normalizer (fixed snapshot; the paper likewise converts at a fixed
    /// rate: 4 EUR ≈ 4.33 USD ⇒ 1 USD ≈ 0.9238 EUR).
    pub fn eur_rate(self) -> f64 {
        match self {
            Currency::Eur => 1.0,
            Currency::Usd => 0.9238,
            Currency::Chf => 1.02,
            Currency::Aud => 0.61,
            Currency::Gbp => 1.16,
        }
    }

    /// Symbol used in price rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            Currency::Eur => "€",
            Currency::Usd => "$",
            Currency::Chf => "CHF",
            Currency::Aud => "A$",
            Currency::Gbp => "£",
        }
    }
}

/// A subscription offer as shown on the wall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSpec {
    /// Amount in minor units (cents) of `currency` per `period`.
    pub amount_cents: u32,
    /// Currency the wall quotes.
    pub currency: Currency,
    /// Billing period quoted.
    pub period: Period,
}

impl PriceSpec {
    /// Monthly price in EUR — the normalization §4.2 applies before
    /// comparing sites.
    pub fn monthly_eur(&self) -> f64 {
        let amount = self.amount_cents as f64 / 100.0 * self.currency.eur_rate();
        match self.period {
            Period::Month => amount,
            Period::Year => amount / 12.0,
        }
    }
}

/// Per-mode cookie quantities for a site (expected values; each visit adds
/// deterministic per-repetition noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CookieCounts {
    /// First-party cookies after this mode's steady state.
    pub first_party: u32,
    /// Third-party cookies from *non-listed* domains (CDNs, widgets).
    pub benign_third_party: u32,
    /// Third-party cookies from justdomains-listed tracker domains.
    pub tracking: u32,
}

/// The site's full cookie behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CookieProfile {
    /// Before any consent interaction (banner still showing).
    pub pre_consent: CookieCounts,
    /// After clicking accept.
    pub accepted: CookieCounts,
    /// When visited with a valid SMP subscription (walls only; equals
    /// `pre_consent` for sites without an SMP).
    pub subscribed: CookieCounts,
}

/// What kind of consent UI a site shows.
#[derive(Debug, Clone, PartialEq)]
pub enum BannerKind {
    /// No banner at all.
    None,
    /// A regular cookie banner.
    Banner(BannerSpec),
    /// An accept-or-pay cookiewall.
    Cookiewall(CookiewallSpec),
    /// A paywall crafted to fool the word classifier — ground truth for the
    /// 5 false positives behind the 98.2% precision figure.
    DecoyPaywall,
}

impl BannerKind {
    /// Ground truth: is this site really a cookiewall?
    pub fn is_cookiewall(&self) -> bool {
        matches!(self, BannerKind::Cookiewall(_))
    }
}

/// A regular cookie banner.
#[derive(Debug, Clone, PartialEq)]
pub struct BannerSpec {
    /// Structural embedding.
    pub embedding: Embedding,
    /// Who serves the markup.
    pub serving: Serving,
    /// Whether a reject button is offered next to accept.
    pub has_reject: bool,
    /// Whether a settings/"manage my cookies" control is offered.
    pub has_settings: bool,
    /// Banner shown only to EU visitors?
    pub eu_only: bool,
}

/// An accept-or-pay cookiewall.
#[derive(Debug, Clone, PartialEq)]
pub struct CookiewallSpec {
    /// Structural embedding (§3's shadow/iframe/main split).
    pub embedding: Embedding,
    /// Who serves the markup (§4.5's blockability split).
    pub serving: Serving,
    /// Geographic targeting (Table 1's EU vs non-EU deltas).
    pub visibility: Visibility,
    /// The subscription offer.
    pub price: PriceSpec,
    /// SMP operating this wall, if any (§4.4).
    pub smp: Option<Smp>,
    /// Site fights back when its wall assets are blocked
    /// (the hausbau-forum case, §4.5 footnote 8).
    pub detects_adblock: bool,
    /// Page scroll stays locked when the wall is blocked
    /// (the promipool case, §4.5 footnote 8).
    pub breaks_scroll_when_blocked: bool,
}

/// The complete ground-truth record of one site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Registrable domain (also the site id).
    pub domain: String,
    /// Content language.
    pub language: langid::Language,
    /// FortiGuard-style category.
    pub category: categorize::Category,
    /// Which country toplists include the site, and in which bucket.
    pub toplists: Vec<ToplistEntry>,
    /// Consent UI.
    pub banner: BannerKind,
    /// Cookie behaviour.
    pub cookies: CookieProfile,
    /// Hides consent UI from clients whose user agent looks like a bot
    /// (models the §3 limitation).
    pub bot_sensitive: bool,
}

impl SiteSpec {
    /// Is the site on `country`'s toplist (any bucket)?
    pub fn on_toplist(&self, country: Country) -> bool {
        self.toplists.iter().any(|t| t.country == country)
    }

    /// Ground truth: does this site show its cookiewall to a visitor from
    /// `region`? (Per-region flakiness is applied on top by the server.)
    pub fn wall_targets_region(&self, region: Region) -> bool {
        match &self.banner {
            BannerKind::Cookiewall(cw) => match cw.visibility {
                Visibility::Global => true,
                Visibility::EuOnly => region.is_eu(),
                Visibility::DeOnly => region == Region::Germany,
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_normalization() {
        let monthly = PriceSpec {
            amount_cents: 299,
            currency: Currency::Eur,
            period: Period::Month,
        };
        assert!((monthly.monthly_eur() - 2.99).abs() < 1e-9);

        let yearly = PriceSpec {
            amount_cents: 3588,
            currency: Currency::Eur,
            period: Period::Year,
        };
        assert!((yearly.monthly_eur() - 2.99).abs() < 1e-9);

        let usd = PriceSpec {
            amount_cents: 433,
            currency: Currency::Usd,
            period: Period::Month,
        };
        // 4.33 USD ≈ 4.00 EUR, the paper's own example conversion.
        assert!((usd.monthly_eur() - 4.0).abs() < 0.01);
    }

    #[test]
    fn visibility_targeting() {
        let mk = |v| SiteSpec {
            domain: "x.de".into(),
            language: langid::Language::German,
            category: categorize::Category::NewsAndMedia,
            toplists: vec![],
            banner: BannerKind::Cookiewall(CookiewallSpec {
                embedding: Embedding::MainDom,
                serving: Serving::FirstParty,
                visibility: v,
                price: PriceSpec {
                    amount_cents: 299,
                    currency: Currency::Eur,
                    period: Period::Month,
                },
                smp: None,
                detects_adblock: false,
                breaks_scroll_when_blocked: false,
            }),
            cookies: CookieProfile {
                pre_consent: CookieCounts {
                    first_party: 3,
                    benign_third_party: 0,
                    tracking: 0,
                },
                accepted: CookieCounts {
                    first_party: 19,
                    benign_third_party: 7,
                    tracking: 43,
                },
                subscribed: CookieCounts {
                    first_party: 6,
                    benign_third_party: 4,
                    tracking: 0,
                },
            },
            bot_sensitive: false,
        };
        let global = mk(Visibility::Global);
        assert!(global.wall_targets_region(Region::India));
        let eu = mk(Visibility::EuOnly);
        assert!(eu.wall_targets_region(Region::Sweden));
        assert!(!eu.wall_targets_region(Region::UsEast));
        let de = mk(Visibility::DeOnly);
        assert!(de.wall_targets_region(Region::Germany));
        assert!(!de.wall_targets_region(Region::Sweden));
    }

    #[test]
    fn toplist_queries() {
        let s = SiteSpec {
            domain: "beispiel.de".into(),
            language: langid::Language::German,
            category: categorize::Category::Business,
            toplists: vec![
                ToplistEntry {
                    country: Country::De,
                    bucket: RankBucket::Top1k,
                },
                ToplistEntry {
                    country: Country::Se,
                    bucket: RankBucket::Top10k,
                },
            ],
            banner: BannerKind::None,
            cookies: CookieProfile {
                pre_consent: CookieCounts {
                    first_party: 2,
                    benign_third_party: 0,
                    tracking: 0,
                },
                accepted: CookieCounts {
                    first_party: 15,
                    benign_third_party: 6,
                    tracking: 1,
                },
                subscribed: CookieCounts {
                    first_party: 2,
                    benign_third_party: 0,
                    tracking: 0,
                },
            },
            bot_sensitive: false,
        };
        assert!(s.on_toplist(Country::De));
        let bucket = |c: Country| s.toplists.iter().find(|t| t.country == c).map(|t| t.bucket);
        assert_eq!(bucket(Country::De), Some(RankBucket::Top1k));
        assert_eq!(bucket(Country::Se), Some(RankBucket::Top10k));
        assert!(!s.on_toplist(Country::Au));
        assert!(!s.banner.is_cookiewall());
    }

    #[test]
    fn smp_metadata() {
        assert_eq!(Smp::Contentpass.name(), "contentpass");
        assert_eq!(Smp::Contentpass.cdn_host(), "cdn.contentpass.net");
        assert_eq!(Smp::Freechoice.account_host(), "account.freechoice.club");
        assert_ne!(
            Smp::Contentpass.session_cookie(),
            Smp::Freechoice.session_cookie()
        );
    }

    #[test]
    fn country_for_region_covers_all() {
        for r in Region::ALL {
            let _ = Country::for_region(r);
        }
        assert_eq!(Country::for_region(Region::UsEast), Country::Us);
        assert_eq!(Country::for_region(Region::UsWest), Country::Us);
    }
}
