//! HTTP request/response model for the simulated network.
//!
//! Requests carry the context a geo-targeting, consent-aware web server
//! actually reacts to: the URL, the visitor's region, the `Cookie` header,
//! a user agent, and the top-level page that initiated the fetch (for
//! third-party attribution on the server side).

use crate::geo::Region;
use crate::url::Url;
use bytes::Bytes;

/// Request method; the crawl only ever issues GET and POST (login form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Idempotent fetch.
    Get,
    /// Form submission (SMP login).
    Post,
}

/// An outbound HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Target URL.
    pub url: Url,
    /// Visitor's region (the vantage point making the request).
    pub region: Region,
    /// `Cookie:` header value, if the jar produced one.
    pub cookie_header: Option<String>,
    /// User agent string. Sites with bot detection inspect this.
    pub user_agent: String,
    /// Host of the top-level page that triggered this fetch (None for the
    /// top-level navigation itself).
    pub initiator_host: Option<String>,
    /// Form/body parameters for POST requests.
    pub body_params: Vec<(String, String)>,
}

impl Request {
    /// A top-level GET navigation from `region` to `url`.
    // lint:allow(r9) — request/response structs own their URL and body by design; request construction is listed under ROADMAP "Zero-copy DOM payloads"
    pub fn navigation(url: Url, region: Region) -> Self {
        Request {
            method: Method::Get,
            url,
            region,
            cookie_header: None,
            user_agent: DEFAULT_USER_AGENT.to_string(),
            initiator_host: None,
            body_params: Vec::new(),
        }
    }

    /// A subresource GET triggered by a page on `initiator_host`.
    // lint:allow(r9) — request/response structs own their URL and body by design; request construction is listed under ROADMAP "Zero-copy DOM payloads"
    pub fn subresource(url: Url, region: Region, initiator_host: &str) -> Self {
        Request {
            initiator_host: Some(initiator_host.to_string()),
            ..Request::navigation(url, region)
        }
    }

    /// Value of a cookie named `name` in the `Cookie` header, if present.
    pub fn cookie(&self, name: &str) -> Option<&str> {
        let header = self.cookie_header.as_deref()?;
        header.split(';').find_map(|pair| {
            let (k, v) = pair.trim().split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// True if any cookie named `name` is present.
    pub fn has_cookie(&self, name: &str) -> bool {
        self.cookie(name).is_some()
    }
}

/// The user agent OpenWPM's instrumented Firefox presents (abridged).
pub const DEFAULT_USER_AGENT: &str =
    "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0";

/// A transport-level failure observed while receiving a response — the
/// kind of breakage a status code cannot express. Injected by the fault
/// layer ([`crate::FaultPlan`]); a reliable network never sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// The connection was reset before a response arrived.
    ConnectionReset,
    /// The body stopped mid-transfer (content-length mismatch).
    TruncatedBody,
}

/// An inbound HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 301, 404, …).
    pub status: u16,
    /// `Set-Cookie` header values, one per cookie.
    pub set_cookies: Vec<String>,
    /// `Location` header for redirects.
    pub location: Option<String>,
    /// Content type (`text/html`, `application/javascript`, …).
    pub content_type: String,
    /// Response body.
    pub body: Bytes,
    /// Simulated transfer time in *virtual* milliseconds. Ordinary servers
    /// answer instantaneously (0); the fault layer uses large values to
    /// model stalled responses against a caller's timeout budget.
    pub latency_ms: u64,
    /// Transport-level failure, if the transfer broke below HTTP.
    pub transport: Option<TransportFault>,
}

impl Response {
    // lint:allow(r9) — request/response structs own their URL and body by design; request construction is listed under ROADMAP "Zero-copy DOM payloads"
    fn base(status: u16, content_type: &str, body: Bytes) -> Self {
        Response {
            status,
            set_cookies: Vec::new(),
            location: None,
            content_type: content_type.to_string(),
            body,
            latency_ms: 0,
            transport: None,
        }
    }

    /// A 200 HTML page.
    pub fn html(body: impl Into<Bytes>) -> Self {
        Self::base(200, "text/html; charset=utf-8", body.into())
    }

    /// A 200 JavaScript resource.
    pub fn script(body: impl Into<Bytes>) -> Self {
        Self::base(200, "application/javascript", body.into())
    }

    /// An empty 204 (tracking pixels, beacons).
    pub fn no_content() -> Self {
        Self::base(204, "text/plain", Bytes::new())
    }

    /// A 404.
    pub fn not_found() -> Self {
        Self::base(
            404,
            "text/html",
            Bytes::from_static(b"<html><body><h1>404</h1></body></html>"),
        )
    }

    /// The status-0 pseudo-response for a connection-level failure (no
    /// server reachable, or the fault layer reset the connection).
    pub fn connection_error() -> Self {
        Self::base(0, "", Bytes::new())
    }

    /// A 302 redirect to `location`.
    pub fn redirect(location: impl Into<String>) -> Self {
        let mut resp = Self::base(302, "text/html", Bytes::new());
        resp.location = Some(location.into());
        resp
    }

    /// Builder-style: add a `Set-Cookie` header.
    pub fn with_cookie(mut self, set_cookie: impl Into<String>) -> Self {
        self.set_cookies.push(set_cookie.into());
        self
    }

    /// True for 3xx with a Location header.
    pub fn is_redirect(&self) -> bool {
        (300..400).contains(&self.status) && self.location.is_some()
    }

    /// Body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_cookie_lookup() {
        let mut r = Request::navigation(Url::parse("https://a.de/").unwrap(), Region::Germany);
        assert_eq!(r.cookie("x"), None);
        r.cookie_header = Some("a=1; consent=accepted; b=2".to_string());
        assert_eq!(r.cookie("consent"), Some("accepted"));
        assert_eq!(r.cookie("a"), Some("1"));
        assert!(!r.has_cookie("missing"));
    }

    #[test]
    fn subresource_carries_initiator() {
        let r = Request::subresource(
            Url::parse("https://tracker.com/p.js").unwrap(),
            Region::UsEast,
            "news.de",
        );
        assert_eq!(r.initiator_host.as_deref(), Some("news.de"));
        assert_eq!(r.method, Method::Get);
    }

    #[test]
    fn response_builders() {
        let r = Response::html("<p>x</p>")
            .with_cookie("sid=1")
            .with_cookie("t=2");
        assert_eq!(r.status, 200);
        assert_eq!(r.set_cookies.len(), 2);
        assert_eq!(r.body_text(), "<p>x</p>");
        assert!(Response::redirect("/next").is_redirect());
        assert!(!Response::not_found().is_redirect());
        assert_eq!(Response::no_content().status, 204);
    }
}
