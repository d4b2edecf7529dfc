//! Property-based tests for the filter-list engine.

use blocklist::{parse_line, BlockDecision, FilterEngine, FilterLine, TrackerDb};
use httpsim::Url;
use proptest::prelude::*;

fn hostname() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9]{0,8}(\\.[a-z][a-z0-9]{0,8}){1,3}").unwrap()
}

proptest! {
    /// Arbitrary bytes never panic the rule parser.
    #[test]
    fn parse_line_no_panic(line in "\\PC{0,120}") {
        let _ = parse_line(&line);
    }

    /// A generated domain-anchor rule blocks the domain and its subdomains,
    /// and nothing else.
    #[test]
    fn domain_anchor_soundness(domain in hostname(), other in hostname()) {
        let rule = format!("||{domain}^");
        let FilterLine::Network(f) = parse_line(&rule) else {
            return Err(TestCaseError::fail("rule must parse"));
        };
        let self_url = Url::parse(&format!("https://{domain}/x")).unwrap();
        let self_hit = f.matches(&self_url, None);
        prop_assert!(self_hit);
        let sub_url = Url::parse(&format!("https://a.{domain}/x")).unwrap();
        let sub_hit = f.matches(&sub_url, None);
        prop_assert!(sub_hit);
        // Unrelated hosts match only if they genuinely end with ".domain".
        let other_url = Url::parse(&format!("https://{other}/x")).unwrap();
        let expected = other == domain || other.ends_with(&format!(".{domain}"));
        prop_assert_eq!(f.matches(&other_url, None), expected);
    }

    /// An engine never blocks a URL that an exception rule covers.
    #[test]
    fn exceptions_always_win(domain in hostname()) {
        let mut engine = FilterEngine::new();
        engine.add_list(&format!("||{domain}^\n@@||{domain}^"));
        let url = Url::parse(&format!("https://{domain}/asset.js")).unwrap();
        prop_assert_eq!(engine.decide(&url, Some("page.de")), BlockDecision::Allowed);
    }

    /// Fragment (wildcard) rules: a rule built from substrings of a URL
    /// always matches that URL.
    #[test]
    fn fragment_rule_matches_source(host in hostname(), path in "[a-z]{1,8}") {
        let url = Url::parse(&format!("https://{host}/{path}.js")).unwrap();
        let rule = format!("*{host}*{path}*");
        let FilterLine::Network(f) = parse_line(&rule) else {
            return Err(TestCaseError::fail("rule must parse"));
        };
        prop_assert!(f.matches(&url, None));
    }

    /// The tracker DB classifies every listed domain and all its
    /// subdomains, and never classifies unlisted registrable domains.
    #[test]
    fn tracker_db_subdomain_closure(sub in "[a-z]{1,6}", idx in 0usize..50) {
        let db = TrackerDb::justdomains();
        let listed = blocklist::data::JUSTDOMAINS[idx % blocklist::data::JUSTDOMAINS.len()];
        prop_assert!(db.is_tracking_domain(listed));
        let sub_hit = db.is_tracking_domain(&format!("{sub}.{listed}"));
        prop_assert!(sub_hit);
        let miss = db.is_tracking_domain(&format!("{sub}-not-a-tracker.example"));
        prop_assert!(!miss);
    }
}

#[test]
fn engine_is_deterministic() {
    let a = FilterEngine::ublock_with_annoyances();
    let b = FilterEngine::ublock_with_annoyances();
    let urls = [
        "https://cdn.contentpass.net/wall.js",
        "https://doubleclick.net/t.js",
        "https://example.de/app.js",
    ];
    for u in urls {
        let url = Url::parse(u).unwrap();
        assert_eq!(
            a.decide(&url, Some("x.de")),
            b.decide(&url, Some("x.de")),
            "{u}"
        );
    }
}
