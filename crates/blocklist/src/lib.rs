//! # blocklist — filter lists, content blocking, and tracker classification
//!
//! Two of the paper's external dependencies live here:
//!
//! * **uBlock Origin + EasyList/Annoyances** (§4.5): [`FilterEngine`]
//!   compiles EasyList-syntax rules and answers, per request, whether a
//!   content blocker would cancel it. [`FilterEngine::ublock_default`]
//!   mirrors the extension's out-of-the-box lists;
//!   [`FilterEngine::ublock_with_annoyances`] mirrors the paper's
//!   measurement configuration (Annoyances enabled, footnote 6).
//! * **justdomains** (§4.3): [`TrackerDb`] is the domains-only tracker list
//!   used to classify cookies as *tracking cookies*.
//!
//! The embedded lists ([`data`]) are the canonical tracker/CMP/SMP
//! population of the synthetic web — `webgen` builds sites out of the same
//! host constants, so generator and lists stay consistent by construction.
//!
//! ## Example
//!
//! ```
//! use blocklist::{BlockDecision, FilterEngine, TrackerDb};
//! use httpsim::Url;
//!
//! let engine = FilterEngine::ublock_with_annoyances();
//! let wall_js = Url::parse("https://cdn.contentpass.net/wall.js").unwrap();
//! assert_ne!(engine.decide(&wall_js, Some("zeitung.de")), BlockDecision::Allowed);
//!
//! let trackers = TrackerDb::justdomains();
//! assert!(trackers.is_tracking_domain("ads.criteo.com"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
mod engine;
mod filter;

pub use engine::{BlockDecision, FilterEngine, TrackerDb};
pub use filter::{parse_line, FilterLine, NetworkFilter, Pattern};
