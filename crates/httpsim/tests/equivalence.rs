//! Oracles for the cookie layer's fast paths.
//!
//! `oracle` below holds the original implementations, kept verbatim: the
//! linear scan over the public-suffix list, the `Set-Cookie` parser that
//! lowercased a copy of every `Domain` value, and the `retain`-based
//! cookie jar that re-derives registrable domains for every party and
//! matching decision. The constant-time suffix lookup, the current parser
//! and the keyed jar with its site prefilter must agree with them
//! exactly: on every suffix and registrable domain, on every accept/reject
//! decision and parsed field, and on the jar's contents and order, its
//! `Cookie` headers and its party/tracking breakdowns after any sequence
//! of operations.
//!
//! The default case count keeps debug `cargo test` quick; the full gate
//! runs `PROPTEST_CASES=20000` in release mode.

use httpsim::{
    public_suffix, registrable_domain, same_site, Cookie, CookieBreakdown, CookieJar, Url,
};
use proptest::prelude::*;

/// The original code, as it was before the fast paths replaced it.
mod oracle {
    pub(crate) mod psl {
        /// Plain public suffixes (single- and multi-label).
        pub(crate) const SUFFIXES: &[&str] = &[
            // Generic TLDs.
            "com", "net", "org", "info", "biz", "io", "dev", "app", "club", "online", "site",
            "shop", "news", "blog", "cloud", "xyz",
            "eu", // Vantage-point and neighbouring ccTLDs.
            "de", "at", "ch", "se", "fr", "it", "nl", "es", "pt", "be", "dk", "fi", "no", "pl",
            "uk", "us", "br", "za", "in", "au", "nz", "ca", "mx", "jp", "cn",
            // Second-level registries.
            "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "com.au", "net.au", "org.au", "edu.au",
            "gov.au", "com.br", "net.br", "org.br", "gov.br", "co.za", "org.za", "web.za",
            "net.za", "co.in", "net.in", "org.in", "gen.in", "firm.in", "co.nz", "net.nz",
            "org.nz", "com.mx", "org.mx", "co.jp", "ne.jp", "or.jp", "com.cn", "net.cn", "org.cn",
        ];

        /// Is `candidate` (lowercased, no trailing dot) exactly a public suffix?
        pub(crate) fn is_public_suffix(candidate: &str) -> bool {
            SUFFIXES.contains(&candidate)
        }

        /// The public suffix of `host`: the longest suffix of its labels that is a
        /// known public suffix. Unknown TLDs fall back to the last label, per PSL
        /// convention (`*` default rule).
        pub(crate) fn public_suffix(host: &str) -> &str {
            let host = host.trim_end_matches('.');
            // Try progressively shorter suffixes, longest (most labels) first.
            let mut cand = host;
            loop {
                if is_public_suffix(cand) {
                    return cand;
                }
                match cand.find('.') {
                    Some(i) => cand = &cand[i + 1..],
                    None => break,
                }
            }
            // Default rule: the last label.
            match host.rfind('.') {
                Some(i) => &host[i + 1..],
                None => host,
            }
        }

        /// The registrable domain (eTLD+1) of `host`: the public suffix plus one
        /// label. Returns `None` if `host` *is* a public suffix (no registrable
        /// part), e.g. `de` or `co.uk`.
        pub(crate) fn registrable_domain(host: &str) -> Option<&str> {
            let host = host.trim_end_matches('.');
            let suffix = public_suffix(host);
            if suffix.len() == host.len() {
                return None;
            }
            // Byte position where the suffix starts (host ends with ".{suffix}").
            let prefix = &host[..host.len() - suffix.len() - 1];
            let label_start = prefix.rfind('.').map(|i| i + 1).unwrap_or(0);
            Some(&host[label_start..])
        }

        /// Do two hosts belong to the same site (same registrable domain)?
        pub(crate) fn same_site(a: &str, b: &str) -> bool {
            match (registrable_domain(a), registrable_domain(b)) {
                (Some(ra), Some(rb)) => ra.eq_ignore_ascii_case(rb),
                // If either side is a bare suffix, fall back to exact host equality.
                _ => a.eq_ignore_ascii_case(b),
            }
        }

        /// RFC 6265 §5.1.3 domain-matching: does request-host `host` domain-match
        /// the cookie `domain` attribute? True when identical, or when `host` ends
        /// with `.domain`.
        pub(crate) fn domain_match(host: &str, domain: &str) -> bool {
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
    }

    pub(crate) mod cookie {
        use super::psl::same_site;
        use httpsim::Url;

        /// `SameSite` attribute values.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub(crate) enum SameSite {
            None,
            #[default]
            Lax,
            Strict,
        }

        impl SameSite {
            fn parse(v: &str) -> Option<Self> {
                let v = v.trim();
                [
                    ("none", SameSite::None),
                    ("lax", SameSite::Lax),
                    ("strict", SameSite::Strict),
                ]
                .into_iter()
                .find_map(|(name, ss)| v.eq_ignore_ascii_case(name).then_some(ss))
            }
        }

        /// A stored cookie.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub(crate) struct Cookie {
            text: String,
            name_end: u32,
            value_end: u32,
            domain_end: u32,
            pub(crate) host_only: bool,
            pub(crate) max_age: Option<i64>,
            pub(crate) secure: bool,
            pub(crate) http_only: bool,
            pub(crate) same_site: SameSite,
        }

        impl Cookie {
            pub(crate) fn parse_set_cookie(header: &str, origin: &Url) -> Option<Cookie> {
                let mut parts = header.split(';');
                let nv = parts.next()?;
                let (name, value) = nv.split_once('=')?;
                let name = name.trim();
                if name.is_empty() {
                    return None;
                }
                let value = value.trim().trim_matches('"');
                let mut domain = None;
                let mut path = "/";
                let mut max_age = None;
                let mut secure = false;
                let mut http_only = false;
                let mut same_site = SameSite::default();
                for attr in parts {
                    let (k, v) = match attr.split_once('=') {
                        Some((k, v)) => (k.trim(), v.trim()),
                        None => (attr.trim(), ""),
                    };
                    let is = |name: &str| k.eq_ignore_ascii_case(name);
                    if is("domain") {
                        let d = v.trim_start_matches('.');
                        if d.is_empty() {
                            continue;
                        }
                        // Reject cookies for domains the origin doesn't live in.
                        if !super::psl::domain_match(origin.host(), d) {
                            return None;
                        }
                        // Reject cookies scoped to a bare public suffix.
                        if d.bytes().any(|b| b.is_ascii_uppercase()) {
                            super::psl::registrable_domain(&d.to_ascii_lowercase())?;
                        } else {
                            super::psl::registrable_domain(d)?;
                        }
                        domain = Some(d);
                    } else if is("path") {
                        if v.starts_with('/') {
                            path = v;
                        }
                    } else if is("max-age") {
                        if let Ok(secs) = v.parse::<i64>() {
                            max_age = Some(secs);
                        }
                    } else if is("expires") {
                        // Simplified: any Expires makes the cookie persistent
                        // with a long lifetime; an epoch-ish date expires it.
                        if v.contains("1970") || v.contains("1969") {
                            max_age = Some(0);
                        } else if max_age.is_none() {
                            max_age = Some(86400 * 365);
                        }
                    } else if is("secure") {
                        secure = true;
                    } else if is("httponly") {
                        http_only = true;
                    } else if is("samesite") {
                        if let Some(ss) = SameSite::parse(v) {
                            same_site = ss;
                        }
                    }
                }
                let host_only = domain.is_none();
                let domain = domain.unwrap_or(origin.host());
                let mut text =
                    String::with_capacity(name.len() + value.len() + domain.len() + path.len());
                text.push_str(name);
                let name_end = text.len() as u32;
                text.push_str(value);
                let value_end = text.len() as u32;
                text.extend(domain.chars().map(|c| c.to_ascii_lowercase()));
                let domain_end = text.len() as u32;
                text.push_str(path);
                Some(Cookie {
                    text,
                    name_end,
                    value_end,
                    domain_end,
                    host_only,
                    max_age,
                    secure,
                    http_only,
                    same_site,
                })
            }

            pub(crate) fn name(&self) -> &str {
                &self.text[..self.name_end as usize]
            }

            pub(crate) fn value(&self) -> &str {
                &self.text[self.name_end as usize..self.value_end as usize]
            }

            pub(crate) fn domain(&self) -> &str {
                &self.text[self.value_end as usize..self.domain_end as usize]
            }

            pub(crate) fn path(&self) -> &str {
                &self.text[self.domain_end as usize..]
            }

            pub(crate) fn is_immediately_expired(&self) -> bool {
                matches!(self.max_age, Some(a) if a <= 0)
            }

            pub(crate) fn path_matches(&self, request_path: &str) -> bool {
                let path = self.path();
                if path == request_path {
                    return true;
                }
                request_path.starts_with(path)
                    && (path.ends_with('/')
                        || request_path.as_bytes().get(path.len()) == Some(&b'/'))
            }

            pub(crate) fn matches_url(&self, url: &Url) -> bool {
                if self.secure && !url.is_secure() {
                    return false;
                }
                let host_ok = if self.host_only {
                    url.host().eq_ignore_ascii_case(self.domain())
                } else {
                    super::psl::domain_match(url.host(), self.domain())
                };
                host_ok && self.path_matches(url.path())
            }

            pub(crate) fn is_first_party_for(&self, page_host: &str) -> bool {
                same_site(self.domain(), page_host)
            }
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(crate) enum CookieParty {
            FirstParty,
            ThirdParty,
        }

        pub(crate) fn classify_party(cookie: &Cookie, page_host: &str) -> CookieParty {
            if cookie.is_first_party_for(page_host) {
                CookieParty::FirstParty
            } else {
                CookieParty::ThirdParty
            }
        }
    }

    pub(crate) mod jar {
        use super::cookie::{classify_party, Cookie, CookieParty};
        use httpsim::{CookieBreakdown, Url};

        /// A cookie store for one browser profile.
        #[derive(Debug, Clone, Default)]
        pub(crate) struct CookieJar {
            cookies: Vec<Cookie>,
        }

        impl CookieJar {
            pub(crate) fn store(&mut self, cookie: Cookie) {
                self.cookies.retain(|c| {
                    !(c.name() == cookie.name()
                        && c.domain() == cookie.domain()
                        && c.path() == cookie.path())
                });
                if !cookie.is_immediately_expired() {
                    self.cookies.push(cookie);
                }
            }

            pub(crate) fn store_response_cookies<'a>(
                &mut self,
                headers: impl IntoIterator<Item = &'a str>,
                origin: &Url,
            ) -> usize {
                let mut accepted = 0;
                for h in headers {
                    if let Some(c) = Cookie::parse_set_cookie(h, origin) {
                        let deleted = c.is_immediately_expired();
                        self.store(c);
                        if !deleted {
                            accepted += 1;
                        }
                    }
                }
                accepted
            }

            pub(crate) fn cookies_for<'a>(
                &'a self,
                url: &'a Url,
            ) -> impl Iterator<Item = &'a Cookie> + 'a {
                self.cookies.iter().filter(move |c| c.matches_url(url))
            }

            pub(crate) fn write_cookie_header(&self, url: &Url, out: &mut String) {
                out.clear();
                for c in self.cookies_for(url) {
                    if !out.is_empty() {
                        out.push_str("; ");
                    }
                    out.push_str(c.name());
                    out.push('=');
                    out.push_str(c.value());
                }
            }

            pub(crate) fn iter(&self) -> impl Iterator<Item = &Cookie> {
                self.cookies.iter()
            }

            pub(crate) fn clear_site(&mut self, site_host: &str) {
                self.cookies
                    .retain(|c| !super::psl::same_site(c.domain(), site_host));
            }

            pub(crate) fn clear(&mut self) {
                self.cookies.clear();
            }

            pub(crate) fn expire_session_cookies(&mut self) {
                self.cookies.retain(|c| c.max_age.is_some());
            }

            pub(crate) fn breakdown(
                &self,
                page_host: &str,
                mut is_tracker: impl FnMut(&str) -> bool,
            ) -> CookieBreakdown {
                let mut b = CookieBreakdown::default();
                for c in &self.cookies {
                    match classify_party(c, page_host) {
                        CookieParty::FirstParty => b.first_party += 1.0,
                        CookieParty::ThirdParty => b.third_party += 1.0,
                    }
                    if is_tracker(c.domain()) {
                        b.tracking += 1.0;
                    }
                }
                b
            }
        }
    }
}

/// A small deterministic generator driven by one proptest-drawn seed, so
/// each case can build structured inputs (hosts, headers, op sequences)
/// and the failing seed is printed when a case breaks.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Labels that are not suffixes, suffix pieces that are, and odd shapes.
const LABELS: &[&str] = &[
    "www",
    "news",
    "a",
    "x1",
    "adnet",
    "site",
    "co",
    "com",
    "org",
    "uk",
    "de",
    "au",
    "jp",
    "ne",
    "firm",
    "gen",
    "me",
    "edu",
    "web",
    "unknowntld",
    "xn--bcher-kva",
    "UK",
    "Co",
    "DE",
    "COM",
];

/// A host-like string: random labels, sometimes ending in a listed
/// suffix, sometimes with trailing dots, sometimes a single label or a
/// bare suffix.
fn host_like(g: &mut Gen) -> String {
    let suffixes = oracle::psl::SUFFIXES;
    let mut host = String::new();
    let labels = g.below(4);
    for _ in 0..labels {
        host.push_str(g.pick(LABELS));
        host.push('.');
    }
    if g.chance(70) {
        host.push_str(g.pick(suffixes));
    } else {
        host.push_str(g.pick(LABELS));
    }
    if g.chance(10) {
        host = host.to_ascii_uppercase();
    }
    for _ in 0..g.below(3).saturating_sub(1) {
        host.push('.');
    }
    if g.chance(5) {
        host.insert(0, '.');
    }
    host
}

fn assert_psl_identical(host: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        public_suffix(host),
        oracle::psl::public_suffix(host),
        "public_suffix({:?})",
        host
    );
    prop_assert_eq!(
        registrable_domain(host),
        oracle::psl::registrable_domain(host),
        "registrable_domain({:?})",
        host
    );
    Ok(())
}

/// Origins for parsing and for the jar: ordinary sites, registries,
/// bare suffixes and single labels.
const ORIGIN_HOSTS: &[&str] = &[
    "www.news.de",
    "news.de",
    "cdn.adnet.com",
    "x.adnet.com",
    "adnet.com",
    "shop.site.co.uk",
    "site.co.uk",
    "a.b.com.au",
    "co.uk",
    "de",
    "localhost",
    "static.cdnhost.net",
];

/// Attribute names, in the cases and spellings servers send.
const ATTR_NAMES: &[&str] = &[
    "Domain", "domain", "DOMAIN", "Path", "path", "Max-Age", "max-age", "Expires", "Secure",
    "secure", "HttpOnly", "HTTPONLY", "SameSite", "samesite", "Priority", "", "Domain ",
];

/// Whitespace a header may carry around its parts, ASCII and Unicode.
const SPACES: &[&str] = &[
    "", "", " ", "  ", "\t", "\u{a0}", "\u{3000}", "\u{b}", " \u{a0} ",
];

/// Values for an attribute named `name`.
fn attr_value(g: &mut Gen, name: &str) -> String {
    let lower = name.trim().to_ascii_lowercase();
    let pool: &[&str] = match lower.as_str() {
        "domain" => &[
            "news.de",
            ".news.de",
            "..News.DE",
            "NEWS.de",
            "www.news.de",
            "adnet.com",
            ".AdNet.Com",
            "site.co.uk",
            "co.uk",
            "CO.UK",
            "de",
            "com.au",
            "b.com.au",
            "localhost",
            "evil.de",
            "news.de.",
            ".",
            "",
            "nëws.de",
        ],
        "path" => &["/", "/p", "/p/q", "/p/", "p", "/ü", "/a=b"],
        "max-age" => &[
            "0",
            "-1",
            "3600",
            "+5",
            " 12",
            "x",
            "99999999999999999999",
            "",
        ],
        "expires" => &[
            "Thu, 01 Jan 1970 00:00:00 GMT",
            "Wed, 31 Dec 1969 23:59:59 GMT",
            "Fri, 31 Dec 2038 23:59:59 GMT",
            "",
        ],
        "samesite" => &["None", "lax", "STRICT", "bogus", "", "Lax\u{a0}"],
        _ => &["", "1", "x=y", "\"q\""],
    };
    g.pick(pool).to_string()
}

/// A fuzzed `Set-Cookie` line: a name-value pair and a few attributes,
/// with whitespace, quotes, stray `=` and `;`, non-ASCII text and
/// repeated attributes mixed in.
fn set_cookie_line(g: &mut Gen) -> String {
    let names = ["a", "b", "sid", "", " ", "ü", "n=m", "\"q\"", "Name"];
    let values = [
        "1",
        "",
        "\"v\"",
        "\"\"x\"\"",
        "a=b",
        "ä€",
        " v ",
        "\u{3000}v\u{a0}",
    ];
    let mut line = String::new();
    line.push_str(g.pick(SPACES));
    line.push_str(g.pick(&names));
    if !g.chance(5) {
        line.push_str(g.pick(SPACES));
        line.push('=');
        line.push_str(g.pick(SPACES));
        line.push_str(g.pick(&values));
    }
    for _ in 0..g.below(6) {
        line.push_str(g.pick(SPACES));
        line.push(';');
        line.push_str(g.pick(SPACES));
        let name = g.pick(ATTR_NAMES);
        line.push_str(name);
        if !g.chance(20) {
            line.push_str(g.pick(SPACES));
            line.push('=');
            line.push_str(g.pick(SPACES));
            line.push_str(&attr_value(g, name));
        }
        line.push_str(g.pick(SPACES));
    }
    if g.chance(5) {
        line.push(';');
    }
    line
}

/// Every observable field of a cookie, for comparison across the two
/// implementations.
type Fields = (
    String,
    String,
    String,
    String,
    bool,
    Option<i64>,
    bool,
    bool,
    String,
);

fn fields(c: &Cookie) -> Fields {
    (
        c.name().to_string(),
        c.value().to_string(),
        c.domain().to_string(),
        c.path().to_string(),
        c.host_only,
        c.max_age,
        c.secure,
        c.http_only,
        format!("{:?}", c.same_site),
    )
}

fn oracle_fields(c: &oracle::cookie::Cookie) -> Fields {
    (
        c.name().to_string(),
        c.value().to_string(),
        c.domain().to_string(),
        c.path().to_string(),
        c.host_only,
        c.max_age,
        c.secure,
        c.http_only,
        format!("{:?}", c.same_site),
    )
}

fn origin(g: &mut Gen) -> Url {
    let scheme = if g.chance(80) { "https" } else { "http" };
    let path = g.pick(&["/", "/p", "/p/q", "/other"]);
    Url::parse(&format!("{scheme}://{}{path}", g.pick(ORIGIN_HOSTS))).unwrap()
}

fn assert_parse_identical(line: &str, origin: &Url) -> Result<(), TestCaseError> {
    let new = Cookie::parse_set_cookie(line, origin);
    let old = oracle::cookie::Cookie::parse_set_cookie(line, origin);
    prop_assert_eq!(
        new.as_ref().map(fields),
        old.as_ref().map(oracle_fields),
        "parse_set_cookie({:?}) from {}",
        line,
        origin
    );
    if let Some(c) = &new {
        prop_assert_eq!(c.site(), oracle::psl::registrable_domain(c.domain()));
    }
    Ok(())
}

/// Tracker oracle for the breakdowns: a pure function of the domain.
fn is_tracker(domain: &str) -> bool {
    oracle::psl::registrable_domain(domain).is_some_and(|r| r == "adnet.com" || r == "site.co.uk")
        || domain == "localhost"
}

fn assert_jars_identical(
    g: &mut Gen,
    new: &CookieJar,
    old: &oracle::jar::CookieJar,
) -> Result<(), TestCaseError> {
    let new_cookies: Vec<Fields> = new.iter().map(fields).collect();
    let old_cookies: Vec<Fields> = old.iter().map(oracle_fields).collect();
    prop_assert_eq!(new_cookies, old_cookies, "jar contents and order");
    let (mut new_header, mut old_header) = (String::from("stale"), String::new());
    for _ in 0..4 {
        let url = origin(g);
        new.write_cookie_header(&url, &mut new_header);
        old.write_cookie_header(&url, &mut old_header);
        prop_assert_eq!(&new_header, &old_header, "Cookie header for {}", url);
    }
    for _ in 0..3 {
        let page = g.pick(ORIGIN_HOSTS);
        let page = if g.chance(10) {
            page.to_ascii_uppercase()
        } else {
            page.to_string()
        };
        let b: CookieBreakdown = new.breakdown(&page, is_tracker);
        prop_assert_eq!(
            b,
            old.breakdown(&page, is_tracker),
            "breakdown for {}",
            page
        );
    }
    Ok(())
}

/// Set-Cookie lines the jar sequences store: a few names, domains and
/// paths, so replacements and deletions collide often.
fn jar_line(g: &mut Gen, origin: &Url) -> String {
    let name = g.pick(&["a", "b", "sid", "consent"]);
    let mut line = format!("{name}={}", g.below(100));
    if g.chance(50) {
        // A parent of the origin (or the origin itself) as Domain.
        let host = origin.host();
        let mut parents: Vec<&str> = vec![host];
        let mut rest = host;
        while let Some(i) = rest.find('.') {
            rest = &rest[i + 1..];
            parents.push(rest);
        }
        line.push_str(&format!("; Domain={}", g.pick(&parents)));
    }
    if g.chance(30) {
        line.push_str(&format!("; Path={}", g.pick(&["/", "/p", "/p/q"])));
    }
    if g.chance(20) {
        line.push_str("; Max-Age=0");
    } else if g.chance(40) {
        line.push_str("; Max-Age=3600");
    }
    if g.chance(15) {
        line.push_str("; Secure");
    }
    line
}

proptest! {
    /// The constant-time suffix lookup agrees with the linear scan.
    #[test]
    fn public_suffix_matches_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..16 {
            let host = host_like(&mut g);
            assert_psl_identical(&host)?;
            let other = host_like(&mut g);
            prop_assert_eq!(
                same_site(&host, &other),
                oracle::psl::same_site(&host, &other),
                "same_site({:?}, {:?})",
                host,
                other
            );
        }
    }

    /// The parser accepts, rejects and fills every field exactly as the
    /// original did.
    #[test]
    fn set_cookie_parser_matches_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..8 {
            let line = set_cookie_line(&mut g);
            let origin = origin(&mut g);
            assert_parse_identical(&line, &origin)?;
        }
    }

    /// Arbitrary printable text, with separators sprinkled in.
    #[test]
    fn set_cookie_parser_matches_oracle_on_noise(
        text in "[a-zA-Z0-9 ;=.\"/]{0,40}(\\PC{0,12}[;=]){0,4}",
        seed in any::<u64>(),
    ) {
        let mut g = Gen(seed);
        assert_parse_identical(&text, &origin(&mut g))?;
    }

    /// The keyed jar with its site prefilter holds, sends and counts the
    /// same cookies as the retain-based jar, after any sequence of stores
    /// (replacements and `Max-Age=0` deletions included), site clears,
    /// restarts and full clears.
    #[test]
    fn jar_matches_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut new = CookieJar::new();
        let mut old = oracle::jar::CookieJar::default();
        for _ in 0..g.below(40) + 1 {
            match g.below(100) {
                0..=79 => {
                    let origin = origin(&mut g);
                    let lines: Vec<String> = (0..g.below(4) + 1).map(|_| jar_line(&mut g, &origin)).collect();
                    let lines = lines.iter().map(String::as_str);
                    prop_assert_eq!(
                        new.store_response_cookies(lines.clone(), &origin),
                        old.store_response_cookies(lines, &origin)
                    );
                }
                80..=89 => {
                    let host = g.pick(ORIGIN_HOSTS);
                    new.clear_site(host);
                    old.clear_site(host);
                }
                90..=96 => {
                    new.expire_session_cookies();
                    old.expire_session_cookies();
                }
                _ => {
                    new.clear();
                    old.clear();
                }
            }
            assert_jars_identical(&mut g, &new, &old)?;
        }
    }
}

/// Every listed suffix, under labels, bare, with trailing dots and
/// uppercased.
#[test]
fn every_listed_suffix_matches_oracle() {
    for suffix in oracle::psl::SUFFIXES {
        for host in [
            suffix.to_string(),
            format!("{suffix}."),
            format!("{suffix}.."),
            format!(".{suffix}"),
            format!("site.{suffix}"),
            format!("site.{suffix}."),
            format!("www.site.{suffix}"),
            format!("a.b.c.{suffix}"),
            format!("co.{suffix}"),
            format!("com.{suffix}"),
            format!("x.co.{suffix}"),
            suffix.to_ascii_uppercase(),
            format!("site.{}", suffix.to_ascii_uppercase()),
        ] {
            assert_psl_identical(&host).unwrap();
        }
    }
    for host in ["", ".", "..", "a", "a.", "a..de", "..de", "x.y", "co.uk.de"] {
        assert_psl_identical(host).unwrap();
    }
}
