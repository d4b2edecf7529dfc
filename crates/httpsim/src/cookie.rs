//! Cookies: the RFC 6265 subset the measurement pipeline depends on.
//!
//! Covers `Set-Cookie` parsing with the attributes that influence storage
//! and matching (`Domain`, `Path`, `Max-Age`, `Expires` [simplified],
//! `Secure`, `HttpOnly`, `SameSite`), host-only semantics, and the party
//! classification used throughout §4.3/§4.4 of the paper.

use crate::psl::registrable_domain;
use crate::url::{trim, Url};
use std::fmt;

/// `SameSite` attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SameSite {
    /// Sent on all requests (requires `Secure` in real browsers; we do not
    /// enforce that coupling).
    None,
    /// Sent on same-site requests and top-level navigations.
    #[default]
    Lax,
    /// Sent only on same-site requests.
    Strict,
}

impl SameSite {
    fn parse(v: &str) -> Option<Self> {
        let v = trim(v);
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
///
/// Name, domain, path and value sit back to back in one string, with the
/// offsets where each ends: storing a cookie is one allocation, and the
/// `(name, domain, path)` key is the string's first part. The key's hash,
/// where the domain's registrable site starts and the site's hash are
/// computed once, at parse time, so the jar compares keys and sites
/// without rehashing or re-deriving either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// `name`, `domain`, `path` and `value`, concatenated.
    text: String,
    name_end: u32,
    domain_end: u32,
    path_end: u32,
    /// Start of the domain's registrable domain within `text`; equal to
    /// `domain_end` (an empty site) when the domain is itself a public
    /// suffix or a single label, which has none. A stored domain is a URL
    /// host or a tail of one, so it never ends in a dot and its site is a
    /// suffix of it.
    site_start: u32,
    /// Hash of the site (of `""` when there is none), so the jar can skip
    /// a cookie of another site without touching its text.
    site_hash: u64,
    /// Hash of the `(name, domain, path)` uniqueness key.
    key: u64,
    /// True when no `Domain` attribute was given: the cookie only matches
    /// the exact host that set it.
    pub host_only: bool,
    /// Lifetime in seconds from creation, `None` for session cookies.
    /// (The simulator has no wall clock; expiry is relative to the visit
    /// sequence number.)
    pub max_age: Option<i64>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: SameSite,
}

/// Hash of a registrable domain, `""` standing for none: equal sites
/// hash equal, so a differing hash rules a cookie out.
pub(crate) fn site_hash(site: &str) -> u64 {
    crate::net::document_hash(site.as_bytes())
}

/// Hash of a cookie's uniqueness key: its name, domain and path, which
/// begin the cookie's text, with the name's and the domain's lengths so
/// the boundaries count too.
fn key_hash(key: &str, name_len: usize, domain_len: usize) -> u64 {
    crate::net::document_hash(key.as_bytes()) ^ name_len as u64 ^ (domain_len as u64) << 32
}

/// What every `Set-Cookie` line of one response shares: the host it came
/// from, that host's registrable domain and the site's hash. A response's
/// lines are parsed against one `Origin`, so the public-suffix lookup and
/// the site hash run once per response, not once per line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Origin<'a> {
    host: &'a str,
    site: Option<&'a str>,
    site_hash: u64,
}

impl<'a> Origin<'a> {
    /// The origin facts of a response received from `url`.
    pub(crate) fn new(url: &'a Url) -> Self {
        let host = url.host();
        let site = registrable_domain(host);
        Origin {
            host,
            site,
            site_hash: site_hash(site.unwrap_or("")),
        }
    }
}

/// The `;`-separated parts of a `Set-Cookie` line, each split at its
/// first `=`: one pass over the bytes finds both. (Searching for the `;`
/// and then the `=` with `str::find` was slower on these short parts.)
struct Parts<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for Parts<'a> {
    /// The part before its first `=`, and what follows the `=`, if any.
    type Item = (&'a str, Option<&'a str>);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.rest?;
        let mut eq = None;
        let mut end = s.len();
        for (i, &b) in s.as_bytes().iter().enumerate() {
            match b {
                b';' => {
                    end = i;
                    break;
                }
                b'=' if eq.is_none() => eq = Some(i),
                _ => {}
            }
        }
        self.rest = s.get(end + 1..);
        Some(match eq {
            Some(eq) => (&s[..eq], Some(&s[eq + 1..end])),
            None => (&s[..end], None),
        })
    }
}

/// Split a `Set-Cookie` line into its trimmed name, its trimmed and
/// unquoted value, and the attribute text after the first `;` (empty when
/// there is none). `None` when the pair has no `=` or the name is empty.
pub(crate) fn split_line(line: &str) -> Option<(&str, &str, &str)> {
    let mut parts = Parts { rest: Some(line) };
    let (name, value) = parts.next()?;
    let name = trim(name);
    let value = value?;
    if name.is_empty() {
        return None;
    }
    Some((
        name,
        trim(value).trim_matches('"'),
        parts.rest.unwrap_or(""),
    ))
}

/// The attributes of a `Set-Cookie` line, parsed against its origin.
/// They depend on nothing else, so lines of one response with the same
/// attribute text share one parse.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attributes<'a> {
    /// Length of the tail of the origin's host a `Domain` attribute
    /// scoped the cookie to; `None` for a host-only cookie.
    domain_len: Option<usize>,
    path: &'a str,
    max_age: Option<i64>,
    secure: bool,
    http_only: bool,
    same_site: SameSite,
}

impl<'a> Attributes<'a> {
    /// Parse `text`, the part of a line after its first `;`. `None` when
    /// a `Domain` attribute rejects the cookie.
    ///
    /// Attributes are dispatched on their name's length; see
    /// [`Cookie::parse_set_cookie`] for the rules. Every cookie's site is
    /// the origin's: a
    /// host-only cookie's domain is the origin's host, and a `Domain`
    /// value that domain-matches the host is a tail of it at a label
    /// boundary. Every public suffix has one or two labels and is decided
    /// by the last two, so such a tail has the host's registrable domain
    /// when it is at least as long as that domain, and none (a bare
    /// suffix, rejected) when it is shorter or the host has none.
    pub(crate) fn parse(text: &'a str, origin: &Origin<'_>) -> Option<Self> {
        let mut attributes = Attributes {
            domain_len: None,
            path: "/",
            max_age: None,
            secure: false,
            http_only: false,
            same_site: SameSite::default(),
        };
        for (k, v) in (Parts { rest: Some(text) }) {
            let k = trim(k);
            let v = v.map_or("", trim);
            let is = |name: &str| k.eq_ignore_ascii_case(name);
            match k.len() {
                6 if is("domain") => {
                    let d = v.trim_start_matches('.');
                    if d.is_empty() {
                        continue;
                    }
                    // Reject cookies for domains the origin doesn't live in,
                    // and cookies scoped to a bare public suffix. A URL host
                    // is lowercase ASCII, so the tail of the host that `d`
                    // domain-matched is `d` lowercased.
                    if !crate::psl::domain_match(origin.host, d) {
                        return None;
                    }
                    match origin.site {
                        Some(site) if d.len() >= site.len() => {
                            attributes.domain_len = Some(d.len())
                        }
                        _ => return None,
                    }
                }
                4 if is("path") && v.starts_with('/') => attributes.path = v,
                7 if is("max-age") => {
                    if let Ok(secs) = v.parse::<i64>() {
                        attributes.max_age = Some(secs);
                    }
                }
                7 if is("expires") => {
                    // Simplified: any Expires makes the cookie persistent
                    // with a long lifetime; an epoch-ish date expires it.
                    if v.contains("1970") || v.contains("1969") {
                        attributes.max_age = Some(0);
                    } else if attributes.max_age.is_none() {
                        attributes.max_age = Some(86400 * 365);
                    }
                }
                6 if is("secure") => attributes.secure = true,
                8 if is("httponly") => attributes.http_only = true,
                8 if is("samesite") => {
                    if let Some(ss) = SameSite::parse(v) {
                        attributes.same_site = ss;
                    }
                }
                _ => {}
            }
        }
        Some(attributes)
    }
}

impl Cookie {
    /// Parse one `Set-Cookie` header value received from `origin`.
    ///
    /// Returns `None` for unparseable or rejected cookies (empty name,
    /// domain not matching the origin — the "domain attribute must
    /// domain-match the request host" rule that stops cross-site planting).
    /// Attribute names match case-insensitively without allocating; when an
    /// attribute repeats, the last one wins. The stored domain is the
    /// origin's host or the tail of it that the `Domain` value matched, so
    /// it is already lowercase and nothing is copied to check it.
    pub fn parse_set_cookie(header: &str, origin: &Url) -> Option<Cookie> {
        let origin = Origin::new(origin);
        let (name, value, attributes) = split_line(header)?;
        let attributes = Attributes::parse(attributes, &origin)?;
        Some(Cookie::new(name, value, &attributes, &origin))
    }

    /// The cookie `name=value` with `attributes`, received from `origin`.
    pub(crate) fn new(
        name: &str,
        value: &str,
        attributes: &Attributes<'_>,
        origin: &Origin<'_>,
    ) -> Cookie {
        let host_only = attributes.domain_len.is_none();
        let domain = match attributes.domain_len {
            Some(len) => &origin.host[origin.host.len() - len..],
            None => origin.host,
        };
        let path = attributes.path;
        let site = origin.site.unwrap_or("");
        let mut text = String::with_capacity(name.len() + value.len() + domain.len() + path.len());
        text.push_str(name);
        let name_end = text.len();
        text.push_str(domain);
        let domain_end = text.len();
        text.push_str(path);
        let path_end = text.len();
        text.push_str(value);
        Cookie {
            key: key_hash(&text[..path_end], name_end, domain_end - name_end),
            text,
            name_end: name_end as u32,
            domain_end: domain_end as u32,
            path_end: path_end as u32,
            site_start: (domain_end - site.len()) as u32,
            site_hash: origin.site_hash,
            host_only,
            max_age: attributes.max_age,
            secure: attributes.secure,
            http_only: attributes.http_only,
            same_site: attributes.same_site,
        }
    }

    /// Cookie name (case-sensitive).
    pub fn name(&self) -> &str {
        &self.text[..self.name_end as usize]
    }

    /// Cookie value.
    pub fn value(&self) -> &str {
        &self.text[self.path_end as usize..]
    }

    /// Domain the cookie is scoped to (lowercase, no leading dot). For
    /// host-only cookies this is the exact request host.
    pub fn domain(&self) -> &str {
        &self.text[self.name_end as usize..self.domain_end as usize]
    }

    /// Path scope, defaulting to `/`.
    pub fn path(&self) -> &str {
        &self.text[self.domain_end as usize..self.path_end as usize]
    }

    /// The registrable domain (eTLD+1) of [`Cookie::domain`], computed at
    /// parse time; `None` when the domain is itself a public suffix or a
    /// single label (only a host-only cookie can be).
    pub fn site(&self) -> Option<&str> {
        let site = self.site_or_empty();
        (!site.is_empty()).then_some(site)
    }

    /// [`Cookie::site`], with `""` for none.
    fn site_or_empty(&self) -> &str {
        &self.text[self.site_start as usize..self.domain_end as usize]
    }

    /// Could this cookie match a URL whose host has the site hashing to
    /// `hash` (see [`site_hash`])? False rules the cookie out; true still
    /// leaves [`Cookie::matches_url`] to decide.
    pub(crate) fn may_match_site(&self, hash: u64) -> bool {
        self.site_hash == hash
    }

    /// Hash of the `(name, domain, path)` key: cookies that share the key
    /// hash equal.
    pub(crate) fn key_hash(&self) -> u64 {
        self.key
    }

    /// Do the two cookies share the `(name, domain, path)` key? The
    /// stored hashes settle almost every comparison. Two equal key texts
    /// whose hashes are equal split equally too: the hash mixes the name's
    /// length into its low half and the domain's into its high half.
    pub(crate) fn same_key(&self, other: &Cookie) -> bool {
        self.key == other.key
            && self.text[..self.path_end as usize] == other.text[..other.path_end as usize]
    }

    /// `same_site(self.domain(), host)`, given `host_site`, the
    /// registrable domain of `host`: the stored site stands in for the
    /// cookie's side.
    pub(crate) fn is_same_site(&self, host: &str, host_site: Option<&str>) -> bool {
        match (self.site(), host_site) {
            (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
            // If either side is a bare suffix, fall back to exact host
            // equality.
            _ => self.domain().eq_ignore_ascii_case(host),
        }
    }

    /// True if this cookie is already expired at creation (`Max-Age<=0`).
    pub fn is_immediately_expired(&self) -> bool {
        matches!(self.max_age, Some(a) if a <= 0)
    }

    /// RFC 6265 path-match.
    pub fn path_matches(&self, request_path: &str) -> bool {
        let path = self.path();
        if path == request_path {
            return true;
        }
        request_path.starts_with(path)
            && (path.ends_with('/') || request_path.as_bytes().get(path.len()) == Some(&b'/'))
    }

    /// Should this cookie be sent on a request to `url`?
    pub fn matches_url(&self, url: &Url) -> bool {
        if self.secure && !url.is_secure() {
            return false;
        }
        let host_ok = if self.host_only {
            url.host().eq_ignore_ascii_case(self.domain())
        } else {
            crate::psl::domain_match(url.host(), self.domain())
        };
        host_ok && self.path_matches(url.path())
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={}; Domain={}",
            self.name(),
            self.value(),
            self.domain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parses_basic_cookie() {
        let o = origin("https://www.zeit.de/index");
        let c = Cookie::parse_set_cookie("sid=abc123", &o).unwrap();
        assert_eq!(c.name(), "sid");
        assert_eq!(c.value(), "abc123");
        assert_eq!(c.domain(), "www.zeit.de");
        assert!(c.host_only);
        assert_eq!(c.path(), "/");
        assert!(!c.secure);
        assert_eq!(c.same_site, SameSite::Lax);
    }

    #[test]
    fn parses_attributes() {
        let o = origin("https://shop.example.de/a/b");
        let c = Cookie::parse_set_cookie(
            "pref=\"x\"; Domain=.example.de; Path=/a; Max-Age=3600; Secure; HttpOnly; SameSite=None",
            &o,
        )
        .unwrap();
        assert_eq!(c.value(), "x", "quotes stripped");
        assert_eq!(c.domain(), "example.de");
        assert!(!c.host_only);
        assert_eq!(c.path(), "/a");
        assert_eq!(c.max_age, Some(3600));
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, SameSite::None);
    }

    #[test]
    fn attribute_names_match_case_insensitively() {
        let o = origin("https://www.example.de/x/y");
        let c = Cookie::parse_set_cookie(
            "id=7; PATH=/x; MAX-AGE=5; HttpOnly; SameSite=Lax; Domain=.Example.de",
            &o,
        )
        .unwrap();
        let fields = |c: &Cookie| {
            (
                c.name().to_string(),
                c.value().to_string(),
                c.domain().to_string(),
                c.path().to_string(),
                c.host_only,
                c.max_age,
                c.secure,
                c.http_only,
                c.same_site,
            )
        };
        let expected = (
            "id".to_string(),
            "7".to_string(),
            "example.de".to_string(),
            "/x".to_string(),
            false,
            Some(5),
            false,
            true,
            SameSite::Lax,
        );
        assert_eq!(fields(&c), expected);
        let upper = Cookie::parse_set_cookie(
            "id=7; path=/x; max-age=5; HTTPONLY; SAMESITE=lax; DOMAIN=example.de",
            &o,
        )
        .unwrap();
        assert_eq!(fields(&upper), expected);
        assert_eq!(upper, c);
        let root = Cookie::parse_set_cookie("n=1; Path=/; SECURE; samesite=STRICT", &o).unwrap();
        assert_eq!(root.path(), "/");
        assert!(root.secure);
        assert_eq!(root.same_site, SameSite::Strict);
    }

    #[test]
    fn rejects_foreign_domain() {
        let o = origin("https://site.de/");
        assert!(Cookie::parse_set_cookie("x=1; Domain=other.de", &o).is_none());
        assert!(Cookie::parse_set_cookie("x=1; Domain=te.de", &o).is_none());
        // Public-suffix-wide cookies rejected.
        assert!(Cookie::parse_set_cookie("x=1; Domain=de", &o).is_none());
    }

    #[test]
    fn parent_domain_allowed() {
        let o = origin("https://sub.site.de/");
        let c = Cookie::parse_set_cookie("x=1; Domain=site.de", &o).unwrap();
        assert_eq!(c.domain(), "site.de");
    }

    #[test]
    fn rejects_nameless() {
        let o = origin("https://a.de/");
        assert!(Cookie::parse_set_cookie("=v", &o).is_none());
        assert!(Cookie::parse_set_cookie("novalue", &o).is_none());
    }

    #[test]
    fn empty_value_ok() {
        let o = origin("https://a.de/");
        let c = Cookie::parse_set_cookie("flag=", &o).unwrap();
        assert_eq!(c.value(), "");
    }

    #[test]
    fn path_matching() {
        let o = origin("https://a.de/x/y");
        let c = Cookie::parse_set_cookie("n=1; Path=/x", &o).unwrap();
        assert!(c.path_matches("/x"));
        assert!(c.path_matches("/x/y"));
        assert!(!c.path_matches("/xy"));
        assert!(!c.path_matches("/"));
        let root = Cookie::parse_set_cookie("n=1", &o).unwrap();
        assert!(root.path_matches("/anything"));
    }

    #[test]
    fn url_matching_secure_and_host_only() {
        let o = origin("https://www.a.de/");
        let host_only = Cookie::parse_set_cookie("h=1", &o).unwrap();
        assert!(host_only.matches_url(&origin("https://www.a.de/p")));
        assert!(!host_only.matches_url(&origin("https://sub.www.a.de/")));
        assert!(!host_only.matches_url(&origin("https://a.de/")));

        let domain_wide = Cookie::parse_set_cookie("d=1; Domain=a.de", &o).unwrap();
        assert!(domain_wide.matches_url(&origin("https://other.a.de/")));

        let secure = Cookie::parse_set_cookie("s=1; Secure", &o).unwrap();
        assert!(!secure.matches_url(&origin("http://www.a.de/")));
    }

    #[test]
    fn expiry_parsing() {
        let o = origin("https://a.de/");
        let session = Cookie::parse_set_cookie("s=1", &o).unwrap();
        assert_eq!(session.max_age, None);
        let expired =
            Cookie::parse_set_cookie("g=x; Expires=Thu, 01 Jan 1970 00:00:00 GMT", &o).unwrap();
        assert!(expired.is_immediately_expired());
        let neg = Cookie::parse_set_cookie("n=1; Max-Age=-5", &o).unwrap();
        assert!(neg.is_immediately_expired());
        let persistent =
            Cookie::parse_set_cookie("p=1; Expires=Fri, 31 Dec 2038 23:59:59 GMT", &o).unwrap();
        assert!(persistent.max_age.unwrap() > 0);
    }

    #[test]
    fn party_classification() {
        let o = origin("https://cdn.tracker.com/pixel");
        let c = Cookie::parse_set_cookie("uid=7; Domain=tracker.com", &o).unwrap();
        let first_party = |host: &str| c.is_same_site(host, registrable_domain(host));
        assert!(!first_party("www.zeit.de"));
        assert!(first_party("api.tracker.com"));
        assert!(first_party("API.Tracker.COM"));
    }
}
