//! URL parsing and reference resolution.
//!
//! A purpose-built subset of the WHATWG URL standard covering what a web
//! crawl manipulates: scheme, host, optional port, path, query. Userinfo and
//! fragments are parsed but dropped (fragments never reach the server).

use std::fmt::{self, Write as _};

/// Parse failure for a URL string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlParseError {
    /// What went wrong.
    pub message: String,
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
// lint:allow(r9) — builds an error message: only input that fails to parse reaches it
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
pub struct Url {
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
    pub fn parse(input: &str) -> Result<Self, UrlParseError> {
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
        let capacity =
            scheme.len() + host.len() + 6 + 1 + path.len() + query.map_or(0, |q| 1 + q.len());
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
    pub fn as_str(&self) -> &str {
        &self.serialization
    }

    /// Scheme, `http` or `https`.
    pub fn scheme(&self) -> &str {
        if self.is_secure() {
            "https"
        } else {
            "http"
        }
    }

    /// Lowercased hostname.
    pub fn host(&self) -> &str {
        &self.serialization[self.scheme().len() + 3..self.host_end as usize]
    }

    /// Explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Effective port (explicit, or scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or(if self.is_secure() { 443 } else { 80 })
    }

    /// Path, always starting with `/`, dot-segments resolved.
    pub fn path(&self) -> &str {
        &self.serialization[self.path_start as usize..self.query_start as usize]
    }

    /// Raw query string without the `?`, if any.
    pub fn query(&self) -> Option<&str> {
        self.serialization.get(self.query_start as usize + 1..)
    }

    /// True for `https`.
    pub fn is_secure(&self) -> bool {
        self.serialization.as_bytes()[4] == b's'
    }

    /// Resolve `reference` against this URL: absolute URLs pass through,
    /// `//host/x` is protocol-relative, `/x` is host-relative, `?q` keeps
    /// the path, an empty or fragment-only reference is this URL itself,
    /// and anything else is path-relative.
    // lint:allow(r9) — the clone is the resolved URL of an empty or fragment-only reference: one allocation, like every other join
    pub fn join(&self, reference: &str) -> Result<Url, UrlParseError> {
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
        let capacity =
            origin.len() + base_path.len() + 1 + ref_path.len() + query.map_or(0, |q| 1 + q.len());
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

    /// The origin URL (scheme + host + port, path `/`).
    pub fn origin(&self) -> Url {
        let origin = &self.serialization[..self.path_start as usize];
        let mut serialization = String::with_capacity(origin.len() + 1);
        serialization.push_str(origin);
        serialization.push('/');
        Url::assemble(
            serialization,
            self.host_end as usize,
            self.path_start as usize,
            self.port,
            None,
        )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://www.spiegel.de:8443/politik/index.html?a=1#frag").unwrap();
        assert_eq!(u.scheme(), "https");
        assert_eq!(u.host(), "www.spiegel.de");
        assert_eq!(u.port(), Some(8443));
        assert_eq!(u.path(), "/politik/index.html");
        assert_eq!(u.query(), Some("a=1"));
        assert_eq!(
            u.to_string(),
            "https://www.spiegel.de:8443/politik/index.html?a=1"
        );
    }

    #[test]
    fn bare_hostname_defaults_to_https() {
        let u = Url::parse("heise.de").unwrap();
        assert_eq!(u.to_string(), "https://heise.de/");
        assert!(u.is_secure());
        assert_eq!(u.effective_port(), 443);
    }

    #[test]
    fn http_scheme_and_default_port() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.effective_port(), 80);
        assert!(!u.is_secure());
    }

    #[test]
    fn case_normalization() {
        let u = Url::parse("HTTPS://WWW.Example.DE/Path").unwrap();
        assert_eq!(u.host(), "www.example.de");
        assert_eq!(u.path(), "/Path", "path case preserved");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Url::parse("").is_err());
        assert!(Url::parse("ftp://x.de").is_err());
        assert!(Url::parse("https://").is_err());
        assert!(Url::parse("https://ex ample.com").is_err());
        assert!(Url::parse("https://a..b.com").is_err());
        assert!(Url::parse("https://h:0/").is_err());
        assert!(Url::parse("https://h:99999/").is_err());
    }

    #[test]
    fn join_variants() {
        let base = Url::parse("https://site.de/a/b/page.html?x=1").unwrap();
        assert_eq!(
            base.join("https://other.com/z").unwrap().to_string(),
            "https://other.com/z"
        );
        assert_eq!(
            base.join("//cdn.example/lib.js").unwrap().to_string(),
            "https://cdn.example/lib.js"
        );
        assert_eq!(
            base.join("/root.css").unwrap().to_string(),
            "https://site.de/root.css"
        );
        assert_eq!(
            base.join("sibling.js").unwrap().to_string(),
            "https://site.de/a/b/sibling.js"
        );
        assert_eq!(
            base.join("../up.js").unwrap().to_string(),
            "https://site.de/a/up.js"
        );
        assert_eq!(base.join("").unwrap().to_string(), base.to_string());
        // A fragment-only reference is the base itself, query included
        // (WHATWG), exactly like the empty reference.
        assert_eq!(base.join("#top").unwrap(), base);
        assert_eq!(
            base.join("other.html#top").unwrap().to_string(),
            "https://site.de/a/b/other.html"
        );
        assert_eq!(base.join("./").unwrap().to_string(), "https://site.de/a/b/");
        assert_eq!(base.join("../..").unwrap().to_string(), "https://site.de/");
        assert_eq!(
            base.join("?only=query").unwrap().to_string(),
            "https://site.de/a/b/page.html?only=query"
        );
    }

    #[test]
    fn path_normalization() {
        assert_eq!(Url::parse("https://h//a//b/").unwrap().path(), "/a/b/");
        assert_eq!(Url::parse("https://h/a/./b").unwrap().path(), "/a/b");
        assert_eq!(Url::parse("https://h/a/../../b").unwrap().path(), "/b");
        assert_eq!(Url::parse("https://h/..").unwrap().path(), "/");
    }

    #[test]
    fn accessors_borrow_from_one_serialization() {
        let u = Url::parse("HTTP://Shop.Example.de:8080/a/../b/?q=1&r=2#frag").unwrap();
        assert_eq!(u.as_str(), "http://shop.example.de:8080/b/?q=1&r=2");
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.host(), "shop.example.de");
        assert_eq!(u.port(), Some(8080));
        assert_eq!(u.path(), "/b/");
        assert_eq!(u.query(), Some("q=1&r=2"));
        let empty_query = Url::parse("https://a.de/x?").unwrap();
        assert_eq!(empty_query.query(), Some(""));
        assert_eq!(empty_query.path(), "/x");
        let joined = u.join("c?z").unwrap();
        assert_eq!(joined.host(), "shop.example.de");
        assert_eq!(joined.port(), Some(8080));
        assert_eq!(joined.path(), "/b/c");
        assert_eq!(joined.query(), Some("z"));
        assert_eq!(
            format!("{u:?}"),
            "Url(\"http://shop.example.de:8080/b/?q=1&r=2\")"
        );
    }

    #[test]
    fn origin() {
        let u = Url::parse("https://a.b.c:1234/x/y?q=1").unwrap();
        assert_eq!(u.origin().to_string(), "https://a.b.c:1234/");
    }

    #[test]
    fn userinfo_dropped_fragment_dropped() {
        let u = Url::parse("https://user:pw@host.de/p#frag").unwrap();
        assert_eq!(u.host(), "host.de");
        assert_eq!(u.path(), "/p");
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "https://example.de/",
            "http://a.example.com/x?y=z",
            "https://h:8080/deep/path/",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }
}
