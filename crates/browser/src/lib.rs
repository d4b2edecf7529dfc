//! # browser — a headless browser simulator
//!
//! The stand-in for OpenWPM-instrumented Firefox driven by Selenium: it
//! navigates the simulated network, loads subresources, applies an optional
//! content-blocker extension, executes the declarative script effects the
//! synthetic sites ship (CMP/SMP fragment injection, SMP entitlement
//! probes, adblock detection), maintains a cookie jar per profile, and
//! dispatches trusted clicks on consent elements.
//!
//! Exactly the browser surface BannerClick needs — including the parts the
//! paper had to fight for: iframes become additional [`Frame`]s, and shadow
//! roots stay opaque to selectors so the §3 piercing workaround in the
//! `bannerclick` crate has something real to pierce.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use browser::Browser;
//! use httpsim::{Network, Region, Url};
//! use webgen::{Population, PopulationConfig};
//!
//! let population = Arc::new(Population::generate(PopulationConfig::tiny()));
//! let net = Network::new();
//! webgen::server::install(Arc::clone(&population), &net);
//!
//! let mut browser = Browser::new(net, Region::Germany);
//! let wall_domain = &population.ground_truth_walls()[0].domain;
//! let page = browser.visit(&Url::parse(wall_domain).unwrap()).unwrap();
//! assert_eq!(page.status, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod browser;
mod page;
mod storage;

pub use crate::browser::{
    Browser, ClickOutcome, FetchError, FetchedDocument, VisitError, DEFAULT_TIMEOUT_BUDGET_MS,
};
pub use page::{ElementRef, Frame, Page};
pub use storage::LocalStorage;
