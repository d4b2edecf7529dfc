//! HTTP request/response model for the simulated network.
//!
//! Requests carry the context a geo-targeting, consent-aware web server
//! actually reacts to: the URL, the visitor's region, the `Cookie` header,
//! a user agent, and the top-level page that initiated the fetch (for
//! third-party attribution on the server side).

use crate::geo::Region;
use crate::url::Url;
use bytes::Bytes;
use std::fmt::{self, Write as _};

/// Request method; the crawl only ever issues GET and POST (login form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Idempotent fetch.
    Get,
    /// Form submission (SMP login).
    Post,
}

/// An outbound HTTP request. Every field borrows from the caller, so
/// building one allocates nothing: the browser keeps its user agent and a
/// reused `Cookie` header buffer, and the URL stays where it is.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Method.
    pub method: Method,
    /// Target URL.
    pub url: &'a Url,
    /// Visitor's region (the vantage point making the request).
    pub region: Region,
    /// `Cookie:` header value, if the jar produced one.
    pub cookie_header: Option<&'a str>,
    /// User agent string. Sites with bot detection inspect this.
    pub user_agent: &'a str,
    /// Host of the top-level page that triggered this fetch (None for the
    /// top-level navigation itself).
    pub initiator_host: Option<&'a str>,
    /// Form/body parameters for POST requests.
    pub body_params: &'a [(&'a str, &'a str)],
}

impl<'a> Request<'a> {
    /// A top-level GET navigation from `region` to `url`, with the default
    /// user agent and no cookies.
    pub fn navigation(url: &'a Url, region: Region) -> Self {
        Request {
            method: Method::Get,
            url,
            region,
            cookie_header: None,
            user_agent: DEFAULT_USER_AGENT,
            initiator_host: None,
            body_params: &[],
        }
    }

    /// Value of a cookie named `name` in the `Cookie` header, if present.
    pub fn cookie(&self, name: &str) -> Option<&'a str> {
        let header = self.cookie_header?;
        header.split(';').find_map(|pair| {
            let (k, v) = pair.trim().split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// True if any cookie named `name` is present.
    pub fn has_cookie(&self, name: &str) -> bool {
        self.cookie(name).is_some()
    }

    /// Value of the query parameter `name` (`k=v&k=v`, no percent
    /// decoding), if present.
    pub fn query_param(&self, name: &str) -> Option<&'a str> {
        self.url.query()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
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
    /// `Set-Cookie` header values, each ended by `\n`, in one buffer. A
    /// header value cannot hold a line break, so the terminators are the
    /// only spans the lines need.
    set_cookies: String,
    /// How many lines `set_cookies` holds.
    set_cookie_count: u32,
    /// `Location` header for redirects.
    pub location: Option<String>,
    /// Content type (`text/html`, `application/javascript`, …).
    pub content_type: &'static str,
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
    fn base(status: u16, content_type: &'static str, body: Bytes) -> Self {
        Response {
            status,
            set_cookies: String::new(),
            set_cookie_count: 0,
            location: None,
            content_type,
            body,
            latency_ms: 0,
            transport: None,
        }
    }

    /// A 200 HTML page. A `&'static str` body is borrowed, not copied.
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
    pub fn with_cookie(mut self, set_cookie: impl fmt::Display) -> Self {
        self.add_cookie(set_cookie);
        self
    }

    /// Builder-style: add a `Set-Cookie` header written by `write` (see
    /// [`Response::add_cookie_line`]).
    pub fn with_cookie_line(mut self, write: impl FnOnce(&mut String)) -> Self {
        self.add_cookie_line(write);
        self
    }

    /// Add a `Set-Cookie` header, rendered straight into the response's
    /// one cookie buffer (pass `format_args!` to skip an intermediate
    /// String). A line break in the value would split it in two, so a
    /// server must not write one.
    pub fn add_cookie(&mut self, set_cookie: impl fmt::Display) {
        // Writing into a String cannot fail.
        self.add_cookie_line(|line| {
            let _ = write!(line, "{set_cookie}");
        });
    }

    /// Add a `Set-Cookie` header that `write` appends to the response's
    /// one cookie buffer, piece by piece, without going through
    /// [`fmt`]. `write` must only append, and no line break.
    pub fn add_cookie_line(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.set_cookies);
        self.set_cookies.push('\n');
        self.set_cookie_count += 1;
    }

    /// Make room for `bytes` more bytes of `Set-Cookie` lines, so a server
    /// that knows roughly what it will set grows the buffer once.
    pub fn reserve_cookies(&mut self, bytes: usize) {
        self.set_cookies.reserve(bytes);
    }

    /// The `Set-Cookie` header values, in the order they were added.
    pub fn set_cookies(&self) -> std::str::SplitTerminator<'_, char> {
        self.set_cookies.split_terminator('\n')
    }

    /// How many `Set-Cookie` headers the response carries.
    pub fn set_cookie_count(&self) -> usize {
        self.set_cookie_count as usize
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
        let url = Url::parse("https://a.de/").unwrap();
        let mut r = Request::navigation(&url, Region::Germany);
        assert_eq!(r.cookie("x"), None);
        r.cookie_header = Some("a=1; consent=accepted; b=2");
        assert_eq!(r.cookie("consent"), Some("accepted"));
        assert_eq!(r.cookie("a"), Some("1"));
        assert!(!r.has_cookie("missing"));
    }

    #[test]
    fn request_query_lookup() {
        let url = Url::parse("https://t.com/t.js?n=4&site=a.de&flag&o=").unwrap();
        let r = Request::navigation(&url, Region::Germany);
        assert_eq!(r.query_param("site"), Some("a.de"));
        assert_eq!(r.query_param("n"), Some("4"));
        assert_eq!(r.query_param("o"), Some(""));
        assert_eq!(r.query_param("flag"), None);
        let bare = Url::parse("https://t.com/").unwrap();
        assert_eq!(
            Request::navigation(&bare, Region::Germany).query_param("site"),
            None
        );
    }

    #[test]
    fn response_builders() {
        let r = Response::html("<p>x</p>")
            .with_cookie("sid=1")
            .with_cookie(format_args!("t={}", 2));
        assert_eq!(r.status, 200);
        assert_eq!(r.set_cookie_count(), 2);
        assert_eq!(r.set_cookies().collect::<Vec<_>>(), ["sid=1", "t=2"]);
        assert_eq!(r.body_text(), "<p>x</p>");
        assert!(Response::redirect("/next").is_redirect());
        assert!(!Response::not_found().is_redirect());
        assert_eq!(Response::no_content().status, 204);
        assert_eq!(Response::no_content().set_cookie_count(), 0);
    }

    #[test]
    fn empty_cookie_lines_keep_their_place() {
        let r = Response::no_content()
            .with_cookie("")
            .with_cookie("a=1\r")
            .with_cookie("");
        assert_eq!(r.set_cookie_count(), 3);
        assert_eq!(r.set_cookies().collect::<Vec<_>>(), ["", "a=1\r", ""]);
    }

    #[test]
    fn cookie_lines_written_in_pieces() {
        let mut r = Response::no_content().with_cookie("a=1");
        r.add_cookie_line(|line| {
            line.push_str("b=");
            line.push('2');
        });
        assert_eq!(r.set_cookie_count(), 2);
        assert_eq!(r.set_cookies().collect::<Vec<_>>(), ["a=1", "b=2"]);
    }
}
