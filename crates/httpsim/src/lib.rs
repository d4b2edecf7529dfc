//! # httpsim — the simulated HTTP layer of the cookiewall study
//!
//! The paper's measurements run OpenWPM/Firefox against the live Internet.
//! This crate is the substitute substrate: a deterministic, in-process web
//! with the pieces cookie measurement actually touches:
//!
//! * [`Url`] parsing and reference resolution,
//! * public-suffix / registrable-domain logic ([`registrable_domain`],
//!   [`same_site`]) — the basis for first- vs. third-party attribution,
//! * RFC 6265-subset [`Cookie`] parsing and a [`CookieJar`] with
//!   domain/path/secure matching and the party/tracking
//!   [`CookieBreakdown`] reported in Figures 4 and 5,
//! * the eight vantage-point [`Region`]s and their privacy regimes,
//! * a [`Network`] of [`Server`] trait objects answering borrowed
//!   [`Request`]s — the slot where `webgen` plugs in the synthetic web
//!   population,
//! * a deterministic fault-injection layer ([`FaultPlan`],
//!   [`FaultyServer`]) modelling the hostile real Web: connection resets,
//!   transient 5xx, stalled and truncated transfers, dead origins.
//!
//! ## Example
//!
//! ```
//! use httpsim::{CookieJar, Network, Region, Request, Response, Url};
//! use std::sync::Arc;
//!
//! let net = Network::new();
//! net.register("news.example.de", Arc::new(|req: &Request<'_>| {
//!     if req.region.is_eu() {
//!         Response::html("<div id=banner>Cookies?</div>").with_cookie("sid=1")
//!     } else {
//!         Response::html("<h1>News</h1>").with_cookie("sid=1")
//!     }
//! }));
//!
//! let url = Url::parse("https://news.example.de/").unwrap();
//! let resp = net.dispatch(&Request::navigation(&url, Region::Germany));
//! assert!(resp.body_text().contains("banner"));
//!
//! let mut jar = CookieJar::new();
//! jar.store_response_cookies(resp.set_cookies(), &url);
//! assert_eq!(jar.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cookie;
mod fault;
mod geo;
mod http;
mod jar;
mod net;
mod psl;
mod url;

/// The shared, immutable buffer [`Response::body`] is made of.
pub use bytes::Bytes;
pub use cookie::{Cookie, SameSite};
pub use fault::{FaultConfig, FaultCounts, FaultKind, FaultPlan, FaultyServer};
pub use geo::Region;
pub use http::{Method, Request, Response, TransportFault, DEFAULT_USER_AGENT};
pub use jar::{CookieBreakdown, CookieJar};
pub use net::{
    content_hash, content_hash_extend, document_hash, Network, NetworkStats, Server, MAX_REDIRECTS,
};
pub use psl::{domain_match, public_suffix, registrable_domain, same_site};
pub use url::{Url, UrlParseError};
