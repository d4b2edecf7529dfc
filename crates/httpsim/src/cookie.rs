//! Cookies: the RFC 6265 subset the measurement pipeline depends on.
//!
//! Covers `Set-Cookie` parsing with the attributes that influence storage
//! and matching (`Domain`, `Path`, `Max-Age`, `Expires` [simplified],
//! `Secure`, `HttpOnly`, `SameSite`), host-only semantics, and the party
//! classification used throughout §4.3/§4.4 of the paper.

use crate::psl::same_site;
use crate::url::Url;
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
///
/// Name, value, domain and path sit back to back in one string, with the
/// offsets where each ends: storing a cookie is one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// `name`, `value`, `domain` and `path`, concatenated.
    text: String,
    name_end: u32,
    value_end: u32,
    domain_end: u32,
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

impl Cookie {
    /// Parse one `Set-Cookie` header value received from `origin`.
    ///
    /// Returns `None` for unparseable or rejected cookies (empty name,
    /// domain not matching the origin — the "domain attribute must
    /// domain-match the request host" rule that stops cross-site planting).
    /// Attribute names match case-insensitively without allocating; when an
    /// attribute repeats, the last one wins.
    pub fn parse_set_cookie(header: &str, origin: &Url) -> Option<Cookie> {
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
                if !crate::psl::domain_match(origin.host(), d) {
                    return None;
                }
                // Reject cookies scoped to a bare public suffix.
                if d.bytes().any(|b| b.is_ascii_uppercase()) {
                    crate::psl::registrable_domain(&d.to_ascii_lowercase())?;
                } else {
                    crate::psl::registrable_domain(d)?;
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
        let mut text = String::with_capacity(name.len() + value.len() + domain.len() + path.len());
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

    /// Cookie name (case-sensitive).
    pub fn name(&self) -> &str {
        &self.text[..self.name_end as usize]
    }

    /// Cookie value.
    pub fn value(&self) -> &str {
        &self.text[self.name_end as usize..self.value_end as usize]
    }

    /// Domain the cookie is scoped to (lowercase, no leading dot). For
    /// host-only cookies this is the exact request host.
    pub fn domain(&self) -> &str {
        &self.text[self.value_end as usize..self.domain_end as usize]
    }

    /// Path scope, defaulting to `/`.
    pub fn path(&self) -> &str {
        &self.text[self.domain_end as usize..]
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

    /// Is this cookie first-party with respect to a page at `page_host`?
    /// (Same registrable domain.)
    pub fn is_first_party_for(&self, page_host: &str) -> bool {
        same_site(self.domain(), page_host)
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

/// Party classification of a cookie relative to the visited page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CookieParty {
    /// Same registrable domain as the page.
    FirstParty,
    /// Different registrable domain.
    ThirdParty,
}

/// Classify `cookie` relative to a page hosted at `page_host`.
pub fn classify_party(cookie: &Cookie, page_host: &str) -> CookieParty {
    if cookie.is_first_party_for(page_host) {
        CookieParty::FirstParty
    } else {
        CookieParty::ThirdParty
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
        assert_eq!(classify_party(&c, "www.zeit.de"), CookieParty::ThirdParty);
        assert_eq!(
            classify_party(&c, "api.tracker.com"),
            CookieParty::FirstParty
        );
    }
}
