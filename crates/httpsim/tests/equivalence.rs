//! Oracles for the URL and cookie layer's fast paths.
//!
//! `oracle` below holds the original implementations, kept verbatim: the
//! split-based `Url` parser and `join`, the linear scan over the
//! public-suffix list, the `Set-Cookie` parser that lowercased a copy of
//! every `Domain` value, and the `retain`-based cookie jar that re-derives
//! registrable domains for every party and matching decision. The
//! one-pass URL parser, the constant-time suffix lookup, the one-pass
//! `Set-Cookie` parser with its per-response origin facts and the keyed
//! jar with its key set and site prefilter must agree with them exactly:
//! on every URL accessor and parse error, on every suffix and registrable
//! domain, on every accept/reject decision and parsed field, and on the
//! jar's contents and order, its `Cookie` headers and its party/tracking
//! breakdowns after any sequence of operations and responses.
//!
//! The one deliberate difference is `Url::join` of a relative reference
//! that carries a `://` later on (`/r?u=https://a.de/`): the original took
//! it for an absolute URL and failed on its "scheme"; now only a reference
//! that starts with `scheme://` is absolute. The URL oracle asserts that
//! difference explicitly instead of skipping it.
//!
//! The default case count keeps debug `cargo test` quick; the full gate
//! runs `PROPTEST_CASES=20000` in release mode.

use httpsim::{
    public_suffix, registrable_domain, same_site, Cookie, CookieBreakdown, CookieJar, Url,
};
use proptest::prelude::*;

/// The original code, as it was before the fast paths replaced it.
mod oracle {
    // `Url` as it was before the one-pass parser: split-based parsing
    // and a `join` that took any reference containing `://` for an
    // absolute URL.
    pub(crate) mod url {
        //! URL parsing and reference resolution.
        //!
        //! A purpose-built subset of the WHATWG URL standard covering what a web
        //! crawl manipulates: scheme, host, optional port, path, query. Userinfo and
        //! fragments are parsed but dropped (fragments never reach the server).

        use std::fmt::{self, Write as _};

        /// Parse failure for a URL string.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub(crate) struct UrlParseError {
            /// What went wrong.
            pub(crate) message: String,
        }

        impl fmt::Display for UrlParseError {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "invalid URL: {}", self.message)
            }
        }

        impl std::error::Error for UrlParseError {}

        fn err(message: impl Into<String>) -> UrlParseError {
            UrlParseError {
                message: message.into(),
            }
        }

        /// An error naming the offending part, lowercased.
        fn err_naming(what: &str, part: &str) -> UrlParseError {
            err(format!("{what} {:?}", part.to_ascii_lowercase()))
        }

        /// An absolute `http`/`https` URL.
        ///
        /// The URL is kept as its one serialized string, `scheme://host[:port]`
        /// then the path and an optional `?query`, plus the offsets where the
        /// parts begin: the borrowed-source layout `webdom` uses for documents. A
        /// parse, a join and a clone each make exactly one allocation, and the
        /// accessors borrow from the one string.
        #[derive(Clone, PartialEq, Eq, Hash)]
        pub(crate) struct Url {
            /// The URL exactly as [`fmt::Display`] writes it.
            serialization: String,
            /// End of the host (start of `:port`, or of the path).
            host_end: u32,
            /// Start of the path: its leading `/`.
            path_start: u32,
            /// Start of `?query`, or the serialization's length when there is no
            /// query.
            query_start: u32,
            /// Explicit port.
            port: Option<u16>,
        }

        impl Url {
            /// Parse an absolute URL. A bare hostname like `example.de` is accepted
            /// and treated as `https://example.de/`, matching how crawl target lists
            /// are written.
            pub(crate) fn parse(input: &str) -> Result<Self, UrlParseError> {
                let input = input.trim();
                if input.is_empty() {
                    return Err(err("empty input"));
                }
                match input.split_once("://") {
                    Some((scheme, rest)) => {
                        if scheme.eq_ignore_ascii_case("https") {
                            Url::from_authority(true, rest)
                        } else if scheme.eq_ignore_ascii_case("http") {
                            Url::from_authority(false, rest)
                        } else {
                            Err(err_naming("unsupported scheme", scheme))
                        }
                    }
                    None if input.starts_with("//") => Err(err("malformed scheme separator")),
                    None => Url::from_authority(true, input),
                }
            }

            /// Parse everything after `scheme://`: authority, path, query. The
            /// fragment is dropped.
            fn from_authority(secure: bool, rest: &str) -> Result<Self, UrlParseError> {
                let rest = rest.split('#').next().unwrap_or("");
                let (authority_path, query) = match rest.split_once('?') {
                    Some((ap, q)) => (ap, Some(q)),
                    None => (rest, None),
                };
                let (authority, path) = match authority_path.find('/') {
                    Some(i) => (&authority_path[..i], &authority_path[i..]),
                    None => (authority_path, "/"),
                };
                // Drop userinfo if present.
                let authority = authority.rsplit('@').next().unwrap_or(authority);
                let (host, port) = match authority.rsplit_once(':') {
                    Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => {
                        let port: u32 = p.parse().map_err(|_| err("bad port"))?;
                        if port == 0 || port > 65535 {
                            return Err(err("port out of range"));
                        }
                        (h, Some(port as u16))
                    }
                    _ => (authority, None),
                };
                let host = host.trim_end_matches('.');
                if host.is_empty() {
                    return Err(err("empty host"));
                }
                if !host
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.')
                {
                    return Err(err_naming("invalid host", host));
                }
                if host.split('.').any(|label| label.is_empty()) {
                    return Err(err_naming("empty label in host", host));
                }

                let scheme = if secure { "https://" } else { "http://" };
                // `:65535` is the longest port; a normalized path is never longer
                // than its input plus a leading `/`.
                let capacity = scheme.len()
                    + host.len()
                    + 6
                    + 1
                    + path.len()
                    + query.map_or(0, |q| 1 + q.len());
                let mut serialization = String::with_capacity(capacity);
                serialization.push_str(scheme);
                serialization.extend(host.chars().map(|c| c.to_ascii_lowercase()));
                let host_end = serialization.len();
                if let Some(port) = port {
                    // Writing into a String cannot fail.
                    let _ = write!(serialization, ":{port}");
                }
                let path_start = serialization.len();
                push_normalized_path(&mut serialization, &[path]);
                Ok(Url::assemble(
                    serialization,
                    host_end,
                    path_start,
                    port,
                    query,
                ))
            }

            /// Finish a URL whose serialization ends with its path: append the
            /// query and record the offsets.
            fn assemble(
                mut serialization: String,
                host_end: usize,
                path_start: usize,
                port: Option<u16>,
                query: Option<&str>,
            ) -> Url {
                let query_start = serialization.len();
                if let Some(query) = query {
                    serialization.push('?');
                    serialization.push_str(query);
                }
                Url {
                    serialization,
                    host_end: host_end as u32,
                    path_start: path_start as u32,
                    query_start: query_start as u32,
                    port,
                }
            }

            /// The whole URL, as [`fmt::Display`] writes it.
            pub(crate) fn as_str(&self) -> &str {
                &self.serialization
            }

            /// Scheme, `http` or `https`.
            pub(crate) fn scheme(&self) -> &str {
                if self.is_secure() {
                    "https"
                } else {
                    "http"
                }
            }

            /// Lowercased hostname.
            pub(crate) fn host(&self) -> &str {
                &self.serialization[self.scheme().len() + 3..self.host_end as usize]
            }

            /// Path, always starting with `/`, dot-segments resolved.
            pub(crate) fn path(&self) -> &str {
                &self.serialization[self.path_start as usize..self.query_start as usize]
            }

            /// Raw query string without the `?`, if any.
            pub(crate) fn query(&self) -> Option<&str> {
                self.serialization.get(self.query_start as usize + 1..)
            }

            /// True for `https`.
            pub(crate) fn is_secure(&self) -> bool {
                self.serialization.as_bytes()[4] == b's'
            }

            /// Resolve `reference` against this URL: absolute URLs pass through,
            /// `//host/x` is protocol-relative, `/x` is host-relative, `?q` keeps
            /// the path, an empty or fragment-only reference is this URL itself,
            /// and anything else is path-relative.
            pub(crate) fn join(&self, reference: &str) -> Result<Url, UrlParseError> {
                let reference = reference.trim();
                if reference.contains("://") {
                    return Url::parse(reference);
                }
                if let Some(rest) = reference.strip_prefix("//") {
                    return Url::from_authority(self.is_secure(), rest);
                }
                // The fragment never reaches the server.
                let reference = reference.split('#').next().unwrap_or("");
                if reference.is_empty() {
                    return Ok(self.clone());
                }
                let (ref_path, query) = match reference.split_once('?') {
                    Some((p, q)) => (p, Some(q)),
                    None => (reference, None),
                };
                let base_path = self.path();
                let origin = &self.serialization[..self.path_start as usize];
                let capacity = origin.len()
                    + base_path.len()
                    + 1
                    + ref_path.len()
                    + query.map_or(0, |q| 1 + q.len());
                let mut serialization = String::with_capacity(capacity);
                serialization.push_str(origin);
                if ref_path.starts_with('/') {
                    push_normalized_path(&mut serialization, &[ref_path]);
                } else if ref_path.is_empty() {
                    serialization.push_str(base_path);
                } else {
                    // Path-relative: replace the last segment. A path always
                    // starts with `/`.
                    let dir = &base_path[..=base_path.rfind('/').unwrap_or(0)];
                    push_normalized_path(&mut serialization, &[dir, ref_path]);
                }
                Ok(Url::assemble(
                    serialization,
                    self.host_end as usize,
                    self.path_start as usize,
                    self.port,
                    query,
                ))
            }
        }

        impl fmt::Display for Url {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.serialization)
            }
        }

        impl fmt::Debug for Url {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_tuple("Url").field(&self.serialization).finish()
            }
        }

        impl std::str::FromStr for Url {
            type Err = UrlParseError;
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Url::parse(s)
            }
        }

        /// Append the path made of `pieces` (concatenated; every piece but the
        /// first starts right after a `/`) to `out`, with `.` and `..` segments
        /// resolved and `//` runs collapsed. The result starts with `/` and keeps
        /// a trailing `/` when the input ends in a directory.
        fn push_normalized_path(out: &mut String, pieces: &[&str]) {
            let start = out.len();
            out.push('/');
            for segment in pieces.iter().flat_map(|piece| piece.split('/')) {
                match segment {
                    "" | "." => {}
                    ".." => {
                        let last = out[start..].rfind('/').unwrap_or(0);
                        out.truncate(start + last.max(1));
                    }
                    segment => {
                        if out.len() > start + 1 {
                            out.push('/');
                        }
                        out.push_str(segment);
                    }
                }
            }
            let last = pieces
                .last()
                .and_then(|piece| piece.rsplit('/').next())
                .unwrap_or("");
            if matches!(last, "" | "." | "..") && out.len() > start + 1 {
                out.push('/');
            }
        }
    }

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
    // `awww.` and `ax.` on a parent domain spell the same key text as
    // `a` on the `www.` or `x.` host.
    let name = g.pick(&["a", "b", "sid", "consent", "awww.", "ax."]);
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
    /// (replacements and `Max-Age=0` deletions included), site clears and
    /// full clears.
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
                80..=94 => {
                    let host = g.pick(ORIGIN_HOSTS);
                    new.clear_site(host);
                    old.clear_site(host);
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

/// A scheme as a URL or reference may spell it: the two supported ones
/// in any case, others, and strings that are not schemes at all.
const SCHEMES: &[&str] = &[
    "https", "https", "http", "HTTPS", "Http", "hTtPs", "ftp", "ws", "a+b.c-d", "", "1http",
    "ht tp", "/x", "ü",
];

/// Host labels: ordinary, uppercase, invalid and empty.
const URL_LABELS: &[&str] = &[
    "www", "site", "de", "co", "uk", "a-b", "X1", "SHOP", "", "ex ample", "ü", "a_b", "%41",
];

/// Path segments, dot segments and `://`-bearing ones among them.
const SEGMENTS: &[&str] = &[
    "a", "b.html", ".", "..", "", "c:d", "x://y", "%2e", "...", "ü", "a b", "@", ":80",
];

/// Query strings, `://` inside them included.
const QUERIES: &[&str] = &[
    "a=1",
    "",
    "u=https://a.de/",
    "next=http://x.de/?y=1",
    "q=/../x",
    "?",
    "a=1&b=2",
];

/// A host: labels joined by dots, with empty labels and trailing dots.
fn url_host(g: &mut Gen) -> String {
    let mut host = String::new();
    for i in 0..g.below(4) + 1 {
        if i > 0 {
            host.push('.');
        }
        host.push_str(g.pick(URL_LABELS));
    }
    for _ in 0..g.below(4).saturating_sub(2) {
        host.push('.');
    }
    host
}

/// An authority: optional userinfo, a host and an optional port, 0,
/// 65535 and 65536 among them.
fn authority(g: &mut Gen) -> String {
    let mut out = String::new();
    if g.chance(10) {
        out.push_str(g.pick(&["user:pw@", "u@", "@", "a@b@", "x:1@"]));
    }
    out.push_str(&url_host(g));
    if g.chance(25) {
        out.push(':');
        out.push_str(g.pick(&[
            "0",
            "1",
            "80",
            "8080",
            "65535",
            "65536",
            "",
            "080",
            "99999999999",
            "4294967296",
            "x",
            "\u{663}",
        ]));
    }
    out
}

/// A path of segments, `//` runs included.
fn url_path(g: &mut Gen, absolute: bool) -> String {
    let mut path = String::new();
    for i in 0..g.below(5) {
        if absolute || i > 0 {
            path.push('/');
        }
        if g.chance(10) {
            path.push('/');
        }
        path.push_str(g.pick(SEGMENTS));
    }
    if g.chance(20) {
        path.push('/');
    }
    path
}

/// An optional `?query` and an optional `#fragment`.
fn query_and_fragment(g: &mut Gen) -> String {
    let mut out = String::new();
    if g.chance(40) {
        out.push('?');
        out.push_str(g.pick(QUERIES));
    }
    if g.chance(15) {
        out.push('#');
        out.push_str(g.pick(&["frag", "", "x://y", "a?b"]));
    }
    out
}

/// A string for `Url::parse`: usually `scheme://authority/path?query`,
/// sometimes a bare host, a `//` prefix or noise, with whitespace around.
fn url_like(g: &mut Gen) -> String {
    let mut url = String::from(g.pick(SPACES));
    match g.below(10) {
        0 => {}
        1 => url.push_str("//"),
        _ => {
            url.push_str(g.pick(SCHEMES));
            url.push_str(g.pick(&["://", "://", "://", ":/", ":"]));
        }
    }
    url.push_str(&authority(g));
    url.push_str(&url_path(g, true));
    url.push_str(&query_and_fragment(g));
    url.push_str(g.pick(SPACES));
    url
}

/// A reference for `Url::join`: absolute, protocol-relative,
/// host-relative, path-relative, query- or fragment-only, or empty.
fn reference(g: &mut Gen) -> String {
    let mut r = String::from(g.pick(SPACES));
    match g.below(6) {
        0 => return url_like(g),
        1 => {
            r.push_str("//");
            r.push_str(&authority(g));
            r.push_str(&url_path(g, true));
        }
        2 => r.push_str(&url_path(g, true)),
        3 => r.push_str(&url_path(g, false)),
        _ => {}
    }
    r.push_str(&query_and_fragment(g));
    r.push_str(g.pick(SPACES));
    r
}

/// Every accessor of a parsed URL, or the error message.
type UrlFields = Result<(String, String, String, String, Option<String>, bool), String>;

fn url_fields(u: Result<Url, httpsim::UrlParseError>) -> UrlFields {
    u.map(|u| {
        (
            u.as_str().to_string(),
            u.scheme().to_string(),
            u.host().to_string(),
            u.path().to_string(),
            u.query().map(str::to_string),
            u.is_secure(),
        )
    })
    .map_err(|e| e.message)
}

fn oracle_url_fields(u: Result<oracle::url::Url, oracle::url::UrlParseError>) -> UrlFields {
    u.map(|u| {
        (
            u.as_str().to_string(),
            u.scheme().to_string(),
            u.host().to_string(),
            u.path().to_string(),
            u.query().map(str::to_string),
            u.is_secure(),
        )
    })
    .map_err(|e| e.message)
}

/// Does the (trimmed) reference start with `scheme://`, the scheme an
/// ASCII letter followed by letters, digits, `+`, `-` or `.`?
fn starts_with_scheme(reference: &str) -> bool {
    let Some((scheme, _)) = reference.split_once("://") else {
        return false;
    };
    let mut chars = scheme.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
}

fn assert_url_parse_identical(input: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        url_fields(Url::parse(input)),
        oracle_url_fields(oracle::url::Url::parse(input)),
        "Url::parse({:?})",
        input
    );
    Ok(())
}

/// Placeholder for the `:` of a `://` that the original `join` would have
/// misread: no generated input holds it, and resolution treats it like
/// any other byte.
const COLON: char = '\u{1}';

fn assert_join_identical(base: &str, reference: &str) -> Result<(), TestCaseError> {
    let (Ok(new_base), Ok(old_base)) = (Url::parse(base), oracle::url::Url::parse(base)) else {
        return Ok(());
    };
    let new = url_fields(new_base.join(reference));
    let trimmed = reference.trim();
    if trimmed.contains("://") && !starts_with_scheme(trimmed) {
        // The one deliberate difference: the original failed on the
        // relative reference's "scheme"; now it resolves like the same
        // reference without the `://` would.
        let old = oracle_url_fields(old_base.join(reference));
        prop_assert!(
            old.as_ref()
                .is_err_and(|e| e.starts_with("unsupported scheme")),
            "the original join({:?}) took a relative reference for absolute: {:?}",
            reference,
            old
        );
        let masked = reference.replace("://", &format!("{COLON}//"));
        let expected = oracle_url_fields(old_base.join(&masked));
        match (&new, &expected) {
            (Ok(new), Ok(expected)) => {
                let expected_str = expected.0.replace(COLON, ":");
                prop_assert_eq!(&new.0, &expected_str, "join({:?}) onto {}", reference, base);
            }
            (new, expected) => prop_assert_eq!(
                new.is_err(),
                expected.is_err(),
                "join({:?}) onto {}: {:?} vs {:?}",
                reference,
                base,
                new,
                expected
            ),
        }
    } else {
        prop_assert_eq!(
            new,
            oracle_url_fields(old_base.join(reference)),
            "join({:?}) onto {}",
            reference,
            base
        );
    }
    Ok(())
}

proptest! {
    /// The one-pass parser fills every accessor, and fails with the same
    /// message, exactly as the split-based one.
    #[test]
    fn url_parse_matches_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..16 {
            assert_url_parse_identical(&url_like(&mut g))?;
        }
    }

    /// Arbitrary text with URL punctuation sprinkled in.
    #[test]
    fn url_parse_matches_oracle_on_noise(
        text in "[a-zA-Z0-9 :/?#@.%-]{0,30}(\\PC{0,6}[:/?#@.]){0,4}",
    ) {
        assert_url_parse_identical(&text)?;
    }

    /// `join` resolves every kind of reference exactly as the original,
    /// but for relative references with a later `://`, which resolve as
    /// relative references now.
    #[test]
    fn url_join_matches_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..8 {
            let base = url_like(&mut g);
            for _ in 0..4 {
                assert_join_identical(&base, &reference(&mut g))?;
            }
        }
    }

    /// A response's lines are stored against one set of origin facts and
    /// the key set, and lines with the same attribute text share one
    /// attribute parse: batches that set, replace, delete and re-set the
    /// same keys within one response, and again in later responses from
    /// the same origin, and lines that share fuzzed attributes, leave the
    /// same jar as the original.
    #[test]
    fn jar_matches_oracle_on_response_batches(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut new = CookieJar::new();
        let mut old = oracle::jar::CookieJar::default();
        let origin = origin(&mut g);
        for _ in 0..g.below(12) + 1 {
            let origin = if g.chance(70) { origin.clone() } else { self::origin(&mut g) };
            let mut lines = Vec::new();
            for _ in 0..g.below(6) + 1 {
                let line = jar_line(&mut g, &origin);
                // The cookie's name and its attributes, which with the
                // origin make its key.
                let (pair, tail) = line.split_once(';').unwrap_or((&line, ""));
                let name = pair.split('=').next().unwrap_or("");
                match g.below(5) {
                    // Set, replace, then delete, within one response.
                    0 => {
                        lines.push(line.clone());
                        lines.push(format!("{name}=x;{tail}"));
                        lines.push(format!("{name}=;{tail}; Max-Age=0"));
                    }
                    // Delete, then set again.
                    1 => {
                        lines.push(format!("{name}=;{tail}; Max-Age=0"));
                        lines.push(line.clone());
                    }
                    // Two cookies with the same fuzzed attributes.
                    2 => {
                        let fuzzed = set_cookie_line(&mut g);
                        let tail = fuzzed.split_once(';').map_or("", |(_, tail)| tail);
                        lines.push(format!("{name}=1;{tail}"));
                        lines.push(format!("other=2;{tail}"));
                    }
                    _ => lines.push(line.clone()),
                }
            }
            let lines = lines.iter().map(String::as_str);
            prop_assert_eq!(
                new.store_response_cookies(lines.clone(), &origin),
                old.store_response_cookies(lines, &origin)
            );
            if g.chance(10) {
                let host = g.pick(ORIGIN_HOSTS);
                new.clear_site(host);
                old.clear_site(host);
            }
            assert_jars_identical(&mut g, &new, &old)?;
        }
    }
}

/// The `join` cases the original got wrong, pinned.
#[test]
fn join_of_relative_references_with_a_later_scheme_separator() {
    let base = Url::parse("https://site.de/a/b/page.html?x=1").unwrap();
    let old_base = oracle::url::Url::parse("https://site.de/a/b/page.html?x=1").unwrap();
    for (reference, resolved) in [
        ("/r?u=https://a.de/", "https://site.de/r?u=https://a.de/"),
        (
            "go?next=http://x.de",
            "https://site.de/a/b/go?next=http://x.de",
        ),
        ("//cdn.de/x?u=http://y", "https://cdn.de/x?u=http://y"),
    ] {
        assert_eq!(base.join(reference).unwrap().as_str(), resolved);
        assert!(old_base.join(reference).is_err());
        assert_join_identical(base.as_str(), reference).unwrap();
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
