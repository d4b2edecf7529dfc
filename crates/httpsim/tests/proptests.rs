//! Property-based tests for httpsim invariants.

use httpsim::{domain_match, registrable_domain, same_site, Cookie, CookieJar, Region, Url};
use proptest::prelude::*;

fn hostname() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9]{0,8}(\\.[a-z][a-z0-9]{0,8}){1,3}").unwrap()
}

proptest! {
    /// URL parsing never panics on arbitrary input.
    #[test]
    fn url_parse_no_panic(s in "\\PC{0,120}") {
        let _ = Url::parse(&s);
    }

    /// Display → parse is the identity for valid URLs.
    #[test]
    fn url_display_roundtrip(host in hostname(), path in "(/[a-z0-9]{1,6}){0,4}/?", q in proptest::option::of("[a-z]=[0-9]{1,3}")) {
        let mut s = format!("https://{host}{path}");
        if path.is_empty() { s.push('/'); }
        if let Some(q) = &q { s.push('?'); s.push_str(q); }
        let u = Url::parse(&s).expect("constructed URL must parse");
        let again = Url::parse(&u.to_string()).expect("display must reparse");
        prop_assert_eq!(u, again);
    }

    /// join() against a base always yields a URL on some host, and an
    /// absolute reference wins entirely.
    #[test]
    fn join_absolute_wins(host in hostname(), reference in hostname()) {
        let base = Url::parse(&format!("https://{host}/a/b")).unwrap();
        let joined = base.join(&format!("https://{reference}/x")).unwrap();
        prop_assert_eq!(joined.host(), reference.as_str());
    }

    /// same_site is reflexive and symmetric.
    #[test]
    fn same_site_reflexive_symmetric(a in hostname(), b in hostname()) {
        prop_assert!(same_site(&a, &a));
        prop_assert_eq!(same_site(&a, &b), same_site(&b, &a));
    }

    /// domain_match(host, host) always holds, and a match implies the
    /// domain is a dot-boundary suffix.
    #[test]
    fn domain_match_invariants(host in hostname(), domain in hostname()) {
        prop_assert!(domain_match(&host, &host));
        if domain_match(&host, &domain) {
            let dotted = format!(".{}", domain);
            let ok = host == domain || host.ends_with(&dotted);
            prop_assert!(ok);
        }
    }

    /// registrable_domain is idempotent: applying it to its own output is
    /// the identity.
    #[test]
    fn registrable_domain_idempotent(host in hostname()) {
        if let Some(rd) = registrable_domain(&host) {
            prop_assert_eq!(registrable_domain(rd), Some(rd));
            // It is always a suffix of the host on a label boundary.
            let dotted = format!(".{}", rd);
            let ok = host == rd || host.ends_with(&dotted);
            prop_assert!(ok);
        }
    }

    /// Set-Cookie parsing never panics, and any accepted cookie matches its
    /// own origin URL (scheme permitting).
    #[test]
    fn set_cookie_never_panics_and_self_matches(header in "\\PC{0,150}", host in hostname()) {
        let origin = Url::parse(&format!("https://{host}/")).unwrap();
        if let Some(c) = Cookie::parse_set_cookie(&header, &origin) {
            if !c.is_immediately_expired() && c.path() == "/" {
                prop_assert!(c.matches_url(&origin), "cookie {:?} must match its origin", c);
            }
        }
    }

    /// Jar: storing N valid distinct-name cookies yields N entries, and
    /// every one is returned for the origin.
    #[test]
    fn jar_store_counts(host in hostname(), n in 1usize..20) {
        let origin = Url::parse(&format!("https://{host}/")).unwrap();
        let mut jar = CookieJar::new();
        let headers: Vec<String> = (0..n).map(|i| format!("name{i}=v{i}")).collect();
        let accepted = jar.store_response_cookies(headers.iter().map(|s| s.as_str()), &origin);
        prop_assert_eq!(accepted, n);
        prop_assert_eq!(jar.cookies_for(&origin).count(), n);
        // Breakdown totals match the jar size.
        let b = jar.breakdown(origin.host(), |_| false);
        prop_assert_eq!(b.total() as usize, n);
        prop_assert_eq!(b.tracking, 0.0);
    }

    /// Jar replacement: storing the same (name, domain, path) twice keeps
    /// one cookie with the latest value.
    #[test]
    fn jar_replacement(host in hostname(), v1 in "[a-z0-9]{1,8}", v2 in "[a-z0-9]{1,8}") {
        let origin = Url::parse(&format!("https://{host}/")).unwrap();
        let mut jar = CookieJar::new();
        jar.store_response_cookies([format!("k={v1}").as_str()], &origin);
        jar.store_response_cookies([format!("k={v2}").as_str()], &origin);
        prop_assert_eq!(jar.len(), 1);
        prop_assert_eq!(jar.cookies_for(&origin).next().unwrap().value().to_string(), v2);
    }
}

#[test]
fn regions_cover_regimes() {
    use httpsim::PrivacyRegime;
    let regimes: Vec<PrivacyRegime> = Region::ALL.iter().map(|r| r.regime()).collect();
    assert!(regimes.contains(&PrivacyRegime::Gdpr));
    assert!(regimes.contains(&PrivacyRegime::Ccpa));
    assert!(regimes.contains(&PrivacyRegime::Lgpd));
    assert!(regimes.contains(&PrivacyRegime::None));
}
