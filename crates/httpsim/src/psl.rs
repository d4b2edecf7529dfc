//! Public-suffix handling and registrable-domain (eTLD+1) computation.
//!
//! First-party vs. third-party cookie attribution (§4.3 of the paper) hinges
//! on comparing *registrable domains*: `ads.tracker.example.de` and
//! `www.example.de` are the same party iff their eTLD+1 matches. We embed the
//! slice of the Mozilla Public Suffix List relevant to this study: every
//! TLD is a public suffix (the `*` default rule), and the second-level
//! registries (`co.uk`, `com.au`, `com.br`, `co.za`, `co.in`, …) under the
//! country TLDs of the vantage points are listed.

/// Second-level registries (`co.uk`, `com.au`, …), by the TLD they sit
/// under. No listed suffix has more than two labels, and these nine TLDs
/// are the only ones with a listed second level, so a host's public
/// suffix is decided by its last two labels alone.
const SECOND_LEVEL: &[(&str, &[&str])] = &[
    ("uk", &["co", "org", "ac", "gov", "me"]),
    ("au", &["com", "net", "org", "edu", "gov"]),
    ("br", &["com", "net", "org", "gov"]),
    ("za", &["co", "org", "web", "net"]),
    ("in", &["co", "net", "org", "gen", "firm"]),
    ("nz", &["co", "net", "org"]),
    ("mx", &["com", "org"]),
    ("jp", &["co", "ne", "or"]),
    ("cn", &["com", "net", "org"]),
];

/// Is `label.tld` a listed second-level registry?
fn is_second_level(label: &str, tld: &str) -> bool {
    SECOND_LEVEL
        .iter()
        .find(|(t, _)| *t == tld)
        .is_some_and(|(_, labels)| labels.contains(&label))
}

/// The public suffix of `host`: the longest suffix of its labels that is a
/// public suffix. That is its last two labels when they are a listed
/// second-level registry, and its last label otherwise (every TLD is a
/// suffix, per the PSL's `*` default rule), so the lookup takes constant
/// time.
pub fn public_suffix(host: &str) -> &str {
    let host = trim_trailing_dots(host);
    let Some(dot) = last_dot(host) else {
        return host;
    };
    let tld = &host[dot + 1..];
    let head = &host[..dot];
    let start = last_dot(head).map_or(0, |i| i + 1);
    if is_second_level(&head[start..], tld) {
        &host[start..]
    } else {
        tld
    }
}

/// The registrable domain (eTLD+1) of `host`: the public suffix plus one
/// label. Returns `None` if `host` *is* a public suffix (no registrable
/// part), e.g. `de` or `co.uk`.
pub fn registrable_domain(host: &str) -> Option<&str> {
    let host = trim_trailing_dots(host);
    let suffix = public_suffix(host);
    if suffix.len() == host.len() {
        return None;
    }
    // Byte position where the suffix starts (host ends with ".{suffix}").
    let prefix = &host[..host.len() - suffix.len() - 1];
    let label_start = last_dot(prefix).map(|i| i + 1).unwrap_or(0);
    Some(&host[label_start..])
}

/// `host.trim_end_matches('.')`, by a byte loop: hosts are short, and
/// this runs for every request.
fn trim_trailing_dots(host: &str) -> &str {
    let mut end = host.len();
    while end > 0 && host.as_bytes()[end - 1] == b'.' {
        end -= 1;
    }
    &host[..end]
}

/// `s.rfind('.')`, by a byte loop (see [`trim_trailing_dots`]).
fn last_dot(s: &str) -> Option<usize> {
    s.bytes().rposition(|b| b == b'.')
}

/// Do two hosts belong to the same site (same registrable domain)?
///
/// This is the paper's first-party test: a cookie is first-party iff its
/// domain is same-site with the visited page.
pub fn same_site(a: &str, b: &str) -> bool {
    match (registrable_domain(a), registrable_domain(b)) {
        (Some(ra), Some(rb)) => ra.eq_ignore_ascii_case(rb),
        // If either side is a bare suffix, fall back to exact host equality.
        _ => a.eq_ignore_ascii_case(b),
    }
}

/// RFC 6265 §5.1.3 domain-matching: does request-host `host` domain-match
/// the cookie `domain` attribute? True when identical, or when `host` ends
/// with `.domain`.
pub fn domain_match(host: &str, domain: &str) -> bool {
    let domain = domain.trim_start_matches('.');
    match host.len().checked_sub(domain.len()) {
        Some(0) => host.eq_ignore_ascii_case(domain),
        Some(dot) => {
            host.as_bytes()[dot - 1] == b'.'
                && host.as_bytes()[dot..].eq_ignore_ascii_case(domain.as_bytes())
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_lookup() {
        assert_eq!(public_suffix("www.spiegel.de"), "de");
        assert_eq!(public_suffix("foo.co.uk"), "co.uk");
        assert_eq!(public_suffix("a.b.com.au"), "com.au");
        assert_eq!(public_suffix("example.com"), "com");
        assert_eq!(public_suffix("weird.unknowntld"), "unknowntld");
    }

    #[test]
    fn registrable() {
        assert_eq!(registrable_domain("www.spiegel.de"), Some("spiegel.de"));
        assert_eq!(registrable_domain("spiegel.de"), Some("spiegel.de"));
        assert_eq!(registrable_domain("news.bbc.co.uk"), Some("bbc.co.uk"));
        assert_eq!(registrable_domain("a.b.c.example.com"), Some("example.com"));
        assert_eq!(registrable_domain("de"), None);
        assert_eq!(registrable_domain("co.uk"), None);
        assert_eq!(registrable_domain("single"), None);
    }

    #[test]
    fn same_site_test() {
        assert!(same_site("www.zeit.de", "zeit.de"));
        assert!(same_site("ads.zeit.de", "shop.zeit.de"));
        assert!(!same_site("zeit.de", "spiegel.de"));
        assert!(!same_site("azeit.de", "zeit.de"), "no substring confusion");
        assert!(!same_site("tracker.example.com", "site.de"));
        assert!(same_site("de", "de"), "bare suffix: exact equality");
        assert!(!same_site("de", "at"));
    }

    #[test]
    fn domain_matching() {
        assert!(domain_match("www.example.de", "example.de"));
        assert!(domain_match("example.de", "example.de"));
        assert!(domain_match("a.b.example.de", ".example.de"));
        assert!(!domain_match("badexample.de", "example.de"));
        assert!(!domain_match("example.de", "www.example.de"));
        assert!(
            domain_match("X.EXAMPLE.DE", "example.de"),
            "case-insensitive"
        );
    }

    #[test]
    fn trailing_dots() {
        assert_eq!(registrable_domain("www.zeit.de."), Some("zeit.de"));
        assert_eq!(public_suffix("zeit.de."), "de");
    }
}
