//! URL parsing and reference resolution.
//!
//! A purpose-built subset of the WHATWG URL standard covering what a web
//! crawl manipulates: scheme, host, optional port, path, query. Userinfo and
//! fragments are parsed but dropped (fragments never reach the server).

use std::fmt;

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

/// An absolute `http`/`https` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: String,
    host: String,
    port: Option<u16>,
    path: String,
    query: Option<String>,
}

impl Url {
    /// Parse an absolute URL. A bare hostname like `example.de` is accepted
    /// and treated as `https://example.de/`, matching how crawl target lists
    /// are written.
    // lint:allow(r9) — Url owns its components; zero-copy URL parsing belongs to ROADMAP "Zero-copy DOM payloads"
    pub fn parse(input: &str) -> Result<Self, UrlParseError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(err("empty input"));
        }
        let (scheme, rest) = match input.split_once("://") {
            Some((s, r)) => {
                let s = s.to_ascii_lowercase();
                if s != "http" && s != "https" {
                    return Err(err(format!("unsupported scheme {s:?}")));
                }
                (s, r)
            }
            None => {
                if input.contains("://") || input.starts_with("//") {
                    return Err(err("malformed scheme separator"));
                }
                ("https".to_string(), input)
            }
        };
        // Strip fragment first, then split query.
        let rest = rest.split('#').next().unwrap_or("");
        let (authority_path, query) = match rest.split_once('?') {
            Some((ap, q)) => (ap, Some(q.to_string())),
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
        let host = host.trim_end_matches('.').to_ascii_lowercase();
        if host.is_empty() {
            return Err(err("empty host"));
        }
        if !host
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.')
        {
            return Err(err(format!("invalid host {host:?}")));
        }
        if host.split('.').any(|label| label.is_empty()) {
            return Err(err(format!("empty label in host {host:?}")));
        }
        Ok(Url {
            scheme,
            host,
            port,
            path: normalize_path(path),
            query,
        })
    }

    /// Scheme, `http` or `https`.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Lowercased hostname.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Effective port (explicit, or scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port
            .unwrap_or(if self.scheme == "https" { 443 } else { 80 })
    }

    /// Path, always starting with `/`, dot-segments resolved.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Raw query string without the `?`, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// True for `https`.
    pub fn is_secure(&self) -> bool {
        self.scheme == "https"
    }

    /// Resolve `reference` against this URL: absolute URLs pass through,
    /// `//host/x` is protocol-relative, `/x` is host-relative, anything else
    /// is path-relative.
    // lint:allow(r9) — Url owns its components; zero-copy URL parsing belongs to ROADMAP "Zero-copy DOM payloads"
    pub fn join(&self, reference: &str) -> Result<Url, UrlParseError> {
        let reference = reference.trim();
        if reference.is_empty() {
            return Ok(self.clone());
        }
        if reference.contains("://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        let (ref_path, query) = match reference.split_once('?') {
            Some((p, q)) => (p, Some(q.split('#').next().unwrap_or("").to_string())),
            None => (reference.split('#').next().unwrap_or(""), None),
        };
        let path = if let Some(p) = ref_path.strip_prefix('/') {
            format!("/{p}")
        } else if ref_path.is_empty() {
            self.path.clone()
        } else {
            // Path-relative: replace the last segment.
            match self.path.rfind('/') {
                Some(i) => format!("{}{}", &self.path[..=i], ref_path),
                None => format!("/{ref_path}"),
            }
        };
        Ok(Url {
            scheme: self.scheme.clone(),
            host: self.host.clone(),
            port: self.port,
            path: normalize_path(&path),
            query,
        })
    }

    /// The origin URL (scheme + host + port, path `/`).
    pub fn origin(&self) -> Url {
        Url {
            scheme: self.scheme.clone(),
            host: self.host.clone(),
            port: self.port,
            path: "/".to_string(),
            query: None,
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        write!(f, "{}", self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Url {
    type Err = UrlParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// Resolve `.` and `..` segments and collapse `//` runs.
// lint:allow(r9) — Url owns its components; zero-copy URL parsing belongs to ROADMAP "Zero-copy DOM payloads"
fn normalize_path(path: &str) -> String {
    let mut segments: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segments.pop();
            }
            s => segments.push(s),
        }
    }
    let trailing_slash = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    let mut out = String::from("/");
    out.push_str(&segments.join("/"));
    if trailing_slash && out.len() > 1 {
        out.push('/');
    }
    out
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
