//! # webgen — the calibrated synthetic web population
//!
//! The paper crawls 45,222 real websites from eight vantage points. This
//! crate is the substitute for that live universe: a deterministic
//! generator producing, from a single [`PopulationConfig`], the complete
//! measurement substrate —
//!
//! * seven CrUX-style country toplists whose union at paper scale is
//!   exactly 45,222 unique domains ([`Population::merged_targets`]),
//! * the calibrated roster of 280 cookiewall sites matching every marginal
//!   the paper publishes (toplists, TLDs, languages, embeddings, serving
//!   infrastructure, SMP membership, geographic targeting, prices),
//! * five decoy paywalls that trap the word classifier (the 98.2%
//!   precision figure),
//! * the off-list partner sites of the two Subscription Management
//!   Platforms (contentpass-style: 219 total; freechoice-style: 167),
//! * a filler population of regular-banner and banner-less sites with
//!   realistic cookie behaviour,
//! * and the [`server`] module that mounts all of it onto an
//!   [`httpsim::Network`] as geo-aware, consent-aware origin servers.
//!
//! The ground truth ([`SiteSpec`]) is the oracle the analysis crate
//! validates detections against; the measurement pipeline itself only ever
//! sees HTTP responses and rendered HTML.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod content;
mod names;
mod population;
mod roster;
pub mod server;
mod spec;
mod trackers;

pub use content::{
    accept_label, adblock_message, banner_text, body_sentences, decoy_paywall_text, format_price,
    period_phrase, reject_label, settings_label, subscribe_label, wall_text, DecoyText, PriceText,
    WallText,
};
pub use names::{domain_name, rng_for, stable_hash, stable_shuffle};
pub use population::{Population, PopulationConfig, Toplist};
pub use roster::{
    paper_roster, scaled_roster, DecoyAssignment, WallAssignment, WallClass, WallGroup,
};
pub use spec::{
    BannerKind, BannerSpec, Cmp, CookieCounts, CookieProfile, CookiewallSpec, Country, Currency,
    Embedding, Period, PriceSpec, RankBucket, Serving, SiteSpec, Smp, ToplistEntry, Visibility,
};
pub use trackers::{plan_benign, plan_trackers, TrackerPlan, BENIGN_THIRD_PARTIES};
