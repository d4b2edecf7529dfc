//! Cookie jar: per-profile cookie storage with RFC 6265 matching.
//!
//! OpenWPM records every cookie a visit stores; the jar is our equivalent
//! ledger. It enforces the uniqueness key (name, domain, path), expiry, and
//! produces the party/tracking breakdowns the paper's figures are built
//! from.

use crate::cookie::{site_hash, split_line, Attributes, Cookie, Origin};
use crate::net::Prehashed;
use crate::psl::registrable_domain;
use crate::url::Url;
use std::collections::HashSet;

/// A cookie store for one browser profile.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    cookies: Vec<Cookie>,
    /// A superset of the stored cookies' key hashes: a key that is not in
    /// it is not in the jar, so storing a new key skips the scan for the
    /// cookie it would replace. Stale keys only cost a scan that finds
    /// nothing; the set is rebuilt whenever cookies leave in bulk.
    keys: HashSet<u64, Prehashed>,
}

/// Cookie counts broken down the way Figures 4 and 5 report them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CookieBreakdown {
    /// Cookies whose domain is same-site with the page.
    pub first_party: f64,
    /// Cookies from other sites.
    pub third_party: f64,
    /// Cookies whose domain appears on the tracker blocklist
    /// (justdomains-style classification, §4.3).
    pub tracking: f64,
}

impl CookieBreakdown {
    /// Total number of cookies (first + third party).
    pub fn total(&self) -> f64 {
        self.first_party + self.third_party
    }
}

impl CookieJar {
    /// Empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// True if no cookies are stored.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Store a cookie, replacing any existing cookie with the same
    /// (name, domain, path) key. An immediately-expired cookie deletes the
    /// stored one (the standard deletion idiom). The jar holds at most one
    /// cookie per key. A key the key set has never seen is new; otherwise
    /// the one to replace is found by comparing stored key hashes, removed,
    /// and the new cookie appended, which keeps the others in storage
    /// order.
    pub fn store(&mut self, cookie: Cookie) {
        if !self.keys.insert(cookie.key_hash()) {
            if let Some(i) = self.cookies.iter().position(|c| c.same_key(&cookie)) {
                self.cookies.remove(i);
            }
        }
        if !cookie.is_immediately_expired() {
            self.cookies.push(cookie);
        }
    }

    /// Parse and store every `Set-Cookie` header in `headers` received from
    /// `origin`. Returns how many were accepted. The origin's registrable
    /// domain and site hash are computed once for all the lines, and a
    /// line whose attribute text equals the previous line's reuses its
    /// parse (a server tends to set its cookies with the same attributes).
    pub fn store_response_cookies<'a>(
        &mut self,
        headers: impl IntoIterator<Item = &'a str>,
        origin: &Url,
    ) -> usize {
        let mut headers = headers.into_iter().peekable();
        // Most subresources set no cookie: they skip the origin facts.
        if headers.peek().is_none() {
            return 0;
        }
        let origin = Origin::new(origin);
        let mut last: Option<(&str, Option<Attributes<'_>>)> = None;
        let mut accepted = 0;
        for h in headers {
            let Some((name, value, text)) = split_line(h) else {
                continue;
            };
            let attributes = match last {
                Some((last_text, attributes)) if last_text == text => attributes,
                _ => {
                    let attributes = Attributes::parse(text, &origin);
                    last = Some((text, attributes));
                    attributes
                }
            };
            if let Some(attributes) = attributes {
                let c = Cookie::new(name, value, &attributes, &origin);
                let deleted = c.is_immediately_expired();
                self.store(c);
                if !deleted {
                    accepted += 1;
                }
            }
        }
        accepted
    }

    /// Cookies that would be sent on a request to `url`, in storage order.
    ///
    /// A cookie of another site is skipped on one compare of stored site
    /// hashes, before [`Cookie::matches_url`] runs. That is sound: a cookie matches only
    /// a host that equals or domain-matches its domain `d`, and `d` is a
    /// URL host or a tail of one that is not a bare public suffix. Every
    /// public suffix here has one or two labels and there are no wildcard
    /// or exception rules, so a host ending in `.d` has the same last two
    /// labels, the same public suffix and hence the same registrable
    /// domain as `d` (and a host-only `d` without one is matched only by
    /// itself).
    pub fn cookies_for<'a>(&'a self, url: &'a Url) -> impl Iterator<Item = &'a Cookie> + 'a {
        // A fresh profile's empty jar skips the host's site lookup.
        let site = if self.cookies.is_empty() {
            0
        } else {
            site_hash(registrable_domain(url.host()).unwrap_or(""))
        };
        self.cookies
            .iter()
            .filter(move |c| c.may_match_site(site) && c.matches_url(url))
    }

    /// Render the `Cookie:` header value for a request to `url` into
    /// `out`, replacing its contents: `name=value` pairs in storage order,
    /// joined by `; `. `out` is left empty when no cookie matches. A
    /// caller that keeps `out` across requests renders without allocating.
    pub fn write_cookie_header(&self, url: &Url, out: &mut String) {
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

    /// Iterate all stored cookies.
    pub fn iter(&self) -> impl Iterator<Item = &Cookie> {
        self.cookies.iter()
    }

    /// Remove every cookie whose domain is same-site with `site_host` —
    /// the "delete your cookies for this website" step a user must perform
    /// to revoke a cookiewall acceptance (§5 of the paper).
    pub fn clear_site(&mut self, site_host: &str) {
        let site = registrable_domain(site_host);
        self.cookies.retain(|c| !c.is_same_site(site_host, site));
        self.rebuild_keys();
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.cookies.clear();
        self.keys.clear();
    }

    /// Make the key set exactly the stored cookies' keys again.
    fn rebuild_keys(&mut self) {
        self.keys.clear();
        self.keys.extend(self.cookies.iter().map(Cookie::key_hash));
    }

    /// Break stored cookies down into first-party / third-party / tracking
    /// relative to a page at `page_host`, using `is_tracker` as the
    /// blocklist oracle (domain → listed?). Party comes from each cookie's
    /// stored site. The oracle is asked once per run of consecutive
    /// cookies with the same domain — a tracker's cookies arrive together
    /// — so it must answer the same for the same domain.
    pub fn breakdown(
        &self,
        page_host: &str,
        mut is_tracker: impl FnMut(&str) -> bool,
    ) -> CookieBreakdown {
        let page_site = registrable_domain(page_host);
        let mut b = CookieBreakdown::default();
        let mut run: Option<(&str, bool)> = None;
        for c in &self.cookies {
            if c.is_same_site(page_host, page_site) {
                b.first_party += 1.0;
            } else {
                b.third_party += 1.0;
            }
            let tracking = match run {
                Some((domain, tracking)) if domain == c.domain() => tracking,
                _ => {
                    let tracking = is_tracker(c.domain());
                    run = Some((c.domain(), tracking));
                    tracking
                }
            };
            if tracking {
                b.tracking += 1.0;
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn store_and_retrieve() {
        let mut jar = CookieJar::new();
        let o = u("https://www.site.de/");
        jar.store_response_cookies(["a=1", "b=2; Domain=site.de"], &o);
        assert_eq!(jar.len(), 2);
        assert_eq!(jar.cookies_for(&u("https://www.site.de/page")).count(), 2);
        // Host-only cookie not sent to sibling subdomain; domain cookie is.
        let shop = u("https://shop.site.de/");
        let sibling: Vec<&Cookie> = jar.cookies_for(&shop).collect();
        assert_eq!(sibling.len(), 1);
        assert_eq!(sibling[0].name(), "b");
    }

    #[test]
    fn replacement_by_key() {
        let mut jar = CookieJar::new();
        let o = u("https://a.de/");
        jar.store_response_cookies(["x=old"], &o);
        jar.store_response_cookies(["x=new"], &o);
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.cookies_for(&o).next().unwrap().value(), "new");
        // Same name, different path = different cookie.
        jar.store_response_cookies(["x=scoped; Path=/p"], &o);
        assert_eq!(jar.len(), 2);
    }

    #[test]
    fn keys_that_spell_the_same_text_stay_distinct() {
        // `ax.` on `y.de` and `a` on `x.y.de` both spell `ax.y.de/`.
        let mut jar = CookieJar::new();
        let o = u("https://x.y.de/");
        jar.store_response_cookies(["ax.=1; Domain=y.de", "a=2"], &o);
        assert_eq!(jar.len(), 2);
    }

    #[test]
    fn deletion_via_expiry() {
        let mut jar = CookieJar::new();
        let o = u("https://a.de/");
        jar.store_response_cookies(["x=1"], &o);
        assert_eq!(jar.len(), 1);
        jar.store_response_cookies(["x=; Max-Age=0"], &o);
        assert_eq!(jar.len(), 0);
    }

    #[test]
    fn cookie_header_format() {
        let mut jar = CookieJar::new();
        let o = u("https://a.de/");
        jar.store_response_cookies(["a=1", "b=2"], &o);
        let mut header = String::from("stale");
        jar.write_cookie_header(&o, &mut header);
        assert_eq!(header, "a=1; b=2");
        jar.write_cookie_header(&u("https://other.de/"), &mut header);
        assert_eq!(header, "");
    }

    #[test]
    fn breakdown_parties_and_tracking() {
        let mut jar = CookieJar::new();
        jar.store_response_cookies(["fp=1"], &u("https://www.news.de/"));
        jar.store_response_cookies(["ad=2; Domain=adnet.com"], &u("https://cdn.adnet.com/p"));
        jar.store_response_cookies(["cdn=3"], &u("https://static.cdnhost.net/x"));
        let trackers: HashSet<&str> = ["adnet.com"].into_iter().collect();
        let b = jar.breakdown("www.news.de", |d| {
            registrable_domain(d).is_some_and(|r| trackers.contains(r))
        });
        assert_eq!(b.first_party, 1.0);
        assert_eq!(b.third_party, 2.0);
        assert_eq!(b.tracking, 1.0);
        assert_eq!(b.total(), 3.0);
    }

    #[test]
    fn clear_site_only_removes_that_site() {
        let mut jar = CookieJar::new();
        jar.store_response_cookies(["a=1"], &u("https://www.wall.de/"));
        jar.store_response_cookies(["b=2; Domain=wall.de"], &u("https://wall.de/"));
        jar.store_response_cookies(["c=3"], &u("https://other.de/"));
        jar.clear_site("wall.de");
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.iter().next().unwrap().name(), "c");
    }

    #[test]
    fn rejected_cookies_not_counted() {
        let mut jar = CookieJar::new();
        let n = jar.store_response_cookies(
            ["ok=1", "bad; Domain=elsewhere.com", "=alsobad"],
            &u("https://a.de/"),
        );
        assert_eq!(n, 1);
        assert_eq!(jar.len(), 1);
    }
}
