//! # bannerclick — cookie-banner detection, interaction, and cookiewall
//! classification
//!
//! The Rust port of the paper's core contribution: the extended BannerClick
//! tool (§3). Given a loaded page it
//!
//! 1. finds cookie banners via a multilingual consent-word corpus and
//!    overlay heuristics ([`detect_banners`]),
//! 2. pierces **iframes** and **shadow DOMs** — the latter with the paper's
//!    clone-into-body-and-map-back workaround, for open and closed roots,
//! 3. classifies banners as **cookiewalls** when their text contains
//!    subscription vocabulary or currency/price combinations
//!    ([`classify_wall`]),
//! 4. extracts and normalizes the subscription offer to EUR/month
//!    ([`subscription_price`]) — automating the §4.2 pricing analysis,
//! 5. locates and clicks accept/reject controls ([`click_accept`],
//!    [`click_reject`]), also behind shadow roots.
//!
//! The one-stop entry point is [`BannerClick::analyze`]; the cookie
//! measurement accepts with [`BannerClick::detect`] and [`click_accept`].
//! [`BannerClick::analyze_summarized`] also keeps a [`DetectionSummary`],
//! from which the ablation's detector settings and corpus halves read
//! their [`Verdict`] without detecting again.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use bannerclick::BannerClick;
//! use browser::Browser;
//! use httpsim::{Network, Region};
//! use webgen::{Population, PopulationConfig};
//!
//! let population = Arc::new(Population::generate(PopulationConfig::tiny()));
//! let net = Network::new();
//! webgen::server::install(Arc::clone(&population), &net);
//!
//! let tool = BannerClick::new();
//! let mut browser = Browser::new(net, Region::Germany);
//! let wall = &population.ground_truth_walls()[0].domain;
//! let analysis = tool.analyze(&mut browser, wall);
//! assert!(analysis.cookiewall_detected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod classify;
mod corpus;
mod detect;
mod interact;
mod pricing;
mod summary;

pub use analyzer::{observed_provider, BannerClick, PageFlags, SiteAnalysis};
pub use classify::{classify_wall, CorpusMode, WallClassification};
pub use corpus::{
    contains_any, eur_rate, ACCEPT_EXACT_LABELS, ACCEPT_WORDS, CONSENT_WORDS, CURRENCY_TOKENS,
    MONTH_WORDS, REJECT_WORDS, SETTINGS_WORDS, SUBSCRIBE_ACTION_WORDS, SUBSCRIPTION_WORDS,
    YEAR_WORDS,
};
pub use detect::{detect_banners, BannerFinding, DetectorOptions, ObservedEmbedding};
pub use interact::{
    accept_button, click_accept, click_reject, find_buttons, find_buttons_xpath, reject_button,
    ButtonFinding, ButtonRole,
};
pub use pricing::{extract_prices, subscription_price, PriceQuote};
pub use summary::{DetectionSummary, Verdict};
