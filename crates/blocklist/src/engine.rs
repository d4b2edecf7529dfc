//! The content-blocker engine: compiled filter lists + request decisions.
//!
//! This is the uBlock Origin stand-in the browser simulator consults before
//! every subresource fetch. Exceptions (`@@`) override blocking rules, as in
//! real engines.

use crate::data;
use crate::filter::{parse_line, FilterLine, NetworkFilter};
use httpsim::Url;
use std::borrow::Cow;
use std::collections::HashSet;

/// Outcome of consulting the engine for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockDecision {
    /// Request may proceed.
    Allowed,
    /// Request must be cancelled.
    Blocked,
}

/// A compiled set of filter lists.
#[derive(Debug, Clone, Default)]
pub struct FilterEngine {
    blocking: Vec<NetworkFilter>,
    exceptions: Vec<NetworkFilter>,
}

impl FilterEngine {
    /// Empty engine (blocks nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with the default uBlock-style configuration: EasyList-style
    /// ad/tracker blocking only — Annoyances **disabled**, as it ships by
    /// default (the paper had to enable it explicitly, footnote 6).
    pub fn ublock_default() -> Self {
        let mut e = Self::new();
        e.add_list(&data::easylist_lite());
        e
    }

    /// Engine with the paper's measurement configuration: EasyList-style
    /// rules **plus** the Annoyances list that blocks cookiewalls.
    pub fn ublock_with_annoyances() -> Self {
        let mut e = Self::ublock_default();
        e.add_list(data::ANNOYANCES_LIST);
        e
    }

    /// Parse and add every network rule in `list_text`; returns how many.
    /// Cosmetic (element-hiding) rules are skipped: the simulated browser
    /// hides no elements, it only cancels requests.
    pub fn add_list(&mut self, list_text: &str) -> usize {
        let mut added = 0;
        for line in list_text.lines() {
            match parse_line(line) {
                FilterLine::Network(f) => {
                    if f.exception {
                        self.exceptions.push(f);
                    } else {
                        self.blocking.push(f);
                    }
                    added += 1;
                }
                FilterLine::Cosmetic | FilterLine::Ignored => {}
            }
        }
        added
    }

    /// Decide whether a request to `url`, initiated by a page on
    /// `initiator_host` (`None` for top-level navigations), should be
    /// blocked.
    pub fn decide(&self, url: &Url, initiator_host: Option<&str>) -> BlockDecision {
        // Exceptions win outright.
        if self
            .exceptions
            .iter()
            .any(|f| f.matches(url, initiator_host))
        {
            return BlockDecision::Allowed;
        }
        if self.blocking.iter().any(|f| f.matches(url, initiator_host)) {
            return BlockDecision::Blocked;
        }
        BlockDecision::Allowed
    }
}

/// The justdomains tracker-domain oracle (§4.3's tracking-cookie
/// classifier): a cookie is a tracking cookie iff its domain's registrable
/// domain is on the list.
#[derive(Debug, Clone)]
pub struct TrackerDb {
    domains: HashSet<&'static str>,
}

impl TrackerDb {
    /// Build from the embedded justdomains data.
    pub fn justdomains() -> Self {
        TrackerDb {
            domains: data::JUSTDOMAINS.iter().copied().collect(),
        }
    }

    /// Number of listed domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if the list is empty (never for the embedded data).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Is `host` (or its registrable domain) a listed tracker? A host
    /// that is already lowercase, as every URL host and cookie domain is,
    /// is looked up without a copy.
    pub fn is_tracking_domain(&self, host: &str) -> bool {
        let host: Cow<'_, str> = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(host.to_ascii_lowercase())
        } else {
            Cow::Borrowed(host)
        };
        if self.domains.contains(&*host) {
            return true;
        }
        httpsim::registrable_domain(&host).is_some_and(|rd| self.domains.contains(rd))
    }
}

impl Default for TrackerDb {
    fn default() -> Self {
        Self::justdomains()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::hosts;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn default_engine_blocks_trackers_not_walls() {
        let e = FilterEngine::ublock_default();
        assert_ne!(
            e.decide(&u("https://stats.doubleclick.net/pixel"), Some("news.de")),
            BlockDecision::Allowed
        );
        // Annoyances disabled by default: SMP CDN is allowed.
        assert_eq!(
            e.decide(
                &u(&format!("https://{}/wall.js", hosts::CONTENTPASS_CDN)),
                Some("news.de")
            ),
            BlockDecision::Allowed
        );
    }

    #[test]
    fn annoyances_blocks_smp_cdns() {
        let e = FilterEngine::ublock_with_annoyances();
        for host in [
            hosts::CONTENTPASS_CDN,
            hosts::FREECHOICE_CDN,
            hosts::OPENCMP_CDN,
        ] {
            let d = e.decide(&u(&format!("https://{host}/wall.js")), Some("zeitung.de"));
            assert_ne!(d, BlockDecision::Allowed, "{host} should be blocked");
        }
    }

    #[test]
    fn exceptions_protect_account_pages() {
        let e = FilterEngine::ublock_with_annoyances();
        // Top-level visit to the SMP account host must not be blocked even
        // though ||contentpass.net^ would otherwise cover it.
        assert_eq!(
            e.decide(
                &u(&format!("https://{}/login", hosts::CONTENTPASS_ACCOUNT)),
                None
            ),
            BlockDecision::Allowed
        );
        assert_eq!(
            e.decide(
                &u(&format!("https://{}/login", hosts::CONTENTPASS_ACCOUNT)),
                Some("zeitung.de")
            ),
            BlockDecision::Allowed
        );
    }

    #[test]
    fn first_party_tracker_requests_allowed_by_3p_rules() {
        let e = FilterEngine::ublock_default();
        // $third-party rules let a tracker load resources from itself.
        assert_eq!(
            e.decide(
                &u("https://doubleclick.net/self.js"),
                Some("ads.doubleclick.net")
            ),
            BlockDecision::Allowed
        );
    }

    #[test]
    fn pattern_rules_fire() {
        let e = FilterEngine::ublock_default();
        assert_ne!(
            e.decide(
                &u("https://cdn.random.de/ad-delivery/slot1.js"),
                Some("x.de")
            ),
            BlockDecision::Allowed
        );
        assert_ne!(
            e.decide(&u("https://img.random.de/pixel.gif?uid=1"), Some("x.de")),
            BlockDecision::Allowed
        );
    }

    #[test]
    fn tracker_db_classification() {
        let db = TrackerDb::justdomains();
        assert!(db.len() >= 50);
        assert!(db.is_tracking_domain("doubleclick.net"));
        assert!(db.is_tracking_domain("stats.g.doubleclick.net"));
        assert!(
            db.is_tracking_domain("Stats.G.DoubleClick.NET"),
            "case-insensitive"
        );
        assert!(!db.is_tracking_domain("doubleclick.net.example.org"));
        assert!(!db.is_tracking_domain("www.spiegel.de"));
        assert!(
            !db.is_tracking_domain("cdn.contentpass.net"),
            "SMP is not a listed tracker"
        );
    }

    #[test]
    fn lists_add_their_network_rules_and_an_empty_engine_blocks_nothing() {
        let mut e = FilterEngine::new();
        assert_eq!(
            e.add_list(&data::easylist_lite()),
            data::JUSTDOMAINS.len() + 3
        );
        assert_eq!(e.add_list("##.cmp-box\n! comment\n||ads.example^"), 1);
        let empty = FilterEngine::new();
        assert_eq!(
            empty.decide(&u("https://doubleclick.net/x"), Some("a.de")),
            BlockDecision::Allowed
        );
    }
}
