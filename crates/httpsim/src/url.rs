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
        Url::parse_trimmed(trim(input))
    }

    /// [`Url::parse`] of input that is already trimmed. The scheme is
    /// everything before the first `://`; the common `https://` and
    /// `http://` prefixes are recognised without searching for it.
    fn parse_trimmed(input: &str) -> Result<Self, UrlParseError> {
        if input.is_empty() {
            return Err(err("empty input"));
        }
        let bytes = input.as_bytes();
        if bytes.len() >= 8 && bytes[..8].eq_ignore_ascii_case(b"https://") {
            return Url::from_authority(true, &input[8..]);
        }
        if bytes.len() >= 7 && bytes[..7].eq_ignore_ascii_case(b"http://") {
            return Url::from_authority(false, &input[7..]);
        }
        // Any other `://` names a scheme that is neither.
        match input.find("://") {
            Some(i) => Err(err_naming("unsupported scheme", &input[..i])),
            None if input.starts_with("//") => Err(err("malformed scheme separator")),
            None => Url::from_authority(true, input),
        }
    }

    /// Parse everything after `scheme://`: authority, path, query. The
    /// fragment is dropped. One pass over the authority finds the last
    /// `@` and `:`, one over the host validates it, and the host is
    /// lowercased in place once copied.
    fn from_authority(secure: bool, rest: &str) -> Result<Self, UrlParseError> {
        let rest = match rest.find('#') {
            Some(i) => &rest[..i],
            None => rest,
        };
        let (authority_path, query) = match rest.find('?') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        let bytes = authority_path.as_bytes();
        // The authority ends at the first `/`; userinfo ends at its last
        // `@`, and a port starts after its last `:`.
        let mut authority_end = bytes.len();
        let mut at = None;
        let mut colon = None;
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'/' => {
                    authority_end = i;
                    break;
                }
                b'@' => at = Some(i),
                b':' => colon = Some(i),
                _ => {}
            }
        }
        let path = if authority_end < bytes.len() {
            &authority_path[authority_end..]
        } else {
            "/"
        };
        let host_start = at.map_or(0, |i| i + 1);
        let mut host_end = authority_end;
        let mut port = None;
        if let Some(colon) = colon.filter(|&c| c >= host_start) {
            let p = &authority_path[colon + 1..authority_end];
            if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) {
                let p: u32 = p.parse().map_err(|_| err("bad port"))?;
                if p == 0 || p > 65535 {
                    return Err(err("port out of range"));
                }
                port = Some(p as u16);
                host_end = colon;
            }
        }
        let host = authority_path[host_start..host_end].trim_end_matches('.');
        if host.is_empty() {
            return Err(err("empty host"));
        }

        let scheme = if secure { "https://" } else { "http://" };
        // `:65535` is the longest port; a normalized path is never longer
        // than its input plus a leading `/`.
        let capacity =
            scheme.len() + host.len() + 6 + 1 + path.len() + query.map_or(0, |q| 1 + q.len());
        let mut serialization = String::with_capacity(capacity);
        serialization.push_str(scheme);
        let mut valid = true;
        let mut empty_label = false;
        // A leading dot starts with an empty label.
        let mut previous = b'.';
        for b in host.bytes() {
            valid &= b.is_ascii_alphanumeric() || b == b'-' || b == b'.';
            empty_label |= b == b'.' && previous == b'.';
            previous = b;
        }
        if !valid {
            return Err(err_naming("invalid host", host));
        }
        if empty_label {
            return Err(err_naming("empty label in host", host));
        }
        serialization.push_str(host);
        let host_end = serialization.len();
        serialization[scheme.len()..].make_ascii_lowercase();
        if let Some(port) = port {
            // Writing into a String cannot fail.
            let _ = write!(serialization, ":{port}");
        }
        let path_start = serialization.len();
        push_normalized_path(&mut serialization, path);
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
    /// and anything else is path-relative. A reference is absolute only
    /// when it starts with `scheme://`, so a relative one may carry a
    /// `://` in its query (`/r?u=https://a.de/`).
    // lint:allow(r9) — the clone is the resolved URL of an empty or fragment-only reference: one allocation, like every other join
    pub fn join(&self, reference: &str) -> Result<Url, UrlParseError> {
        let reference = trim(reference);
        if has_scheme(reference) {
            return Url::parse_trimmed(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::from_authority(self.is_secure(), rest);
        }
        // The fragment never reaches the server.
        let reference = match reference.find('#') {
            Some(i) => &reference[..i],
            None => reference,
        };
        if reference.is_empty() {
            return Ok(self.clone());
        }
        let (ref_path, query) = match reference.find('?') {
            Some(i) => (&reference[..i], Some(&reference[i + 1..])),
            None => (reference, None),
        };
        let base_path = self.path();
        let origin = &self.serialization[..self.path_start as usize];
        let capacity =
            origin.len() + base_path.len() + 1 + ref_path.len() + query.map_or(0, |q| 1 + q.len());
        let mut serialization = String::with_capacity(capacity);
        serialization.push_str(origin);
        if ref_path.starts_with('/') {
            push_normalized_path(&mut serialization, ref_path);
        } else if ref_path.is_empty() {
            serialization.push_str(base_path);
        } else {
            // Path-relative: replace the last segment. A path always
            // starts with `/`, and the directory of a normalized path is
            // normalized, so only the reference's segments can need work.
            let dir = &base_path[..=base_path.rfind('/').unwrap_or(0)];
            if is_plain(ref_path) {
                serialization.push_str(dir);
                serialization.push_str(ref_path);
            } else {
                push_resolved_segments(&mut serialization, &[dir, ref_path]);
            }
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

/// `s` without leading and trailing whitespace, exactly as [`str::trim`]
/// returns it. ASCII whitespace is stripped byte by byte; only a
/// non-ASCII byte at either end falls back to `str::trim`, which also
/// knows Unicode whitespace.
pub(crate) fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    let mut start = 0;
    while start < bytes.len() && is_ascii_space(bytes[start]) {
        start += 1;
    }
    let mut end = bytes.len();
    while end > start && is_ascii_space(bytes[end - 1]) {
        end -= 1;
    }
    let s = &s[start..end];
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(&first), Some(&last)) if first >= 0x80 || last >= 0x80 => s.trim(),
        _ => s,
    }
}

/// The ASCII characters [`char::is_whitespace`] accepts: tab, line feed,
/// vertical tab, form feed, carriage return and space.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Does `reference` start with `scheme://`, where the scheme is an ASCII
/// letter followed by letters, digits, `+`, `-` or `.`?
fn has_scheme(reference: &str) -> bool {
    let bytes = reference.as_bytes();
    if !bytes.first().is_some_and(u8::is_ascii_alphabetic) {
        return false;
    }
    let scheme_len = bytes
        .iter()
        .position(|&b| !(b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.')))
        .unwrap_or(bytes.len());
    bytes[scheme_len..].starts_with(b"://")
}

/// Is a path (after its leading `/`) already normalized: no `.` or `..`
/// segment, and no empty one but the last? Such a path resolves to
/// itself.
fn is_plain(segments: &str) -> bool {
    let mut rest = segments;
    while let Some(slash) = rest.find('/') {
        if matches!(&rest[..slash], "" | "." | "..") {
            return false;
        }
        rest = &rest[slash + 1..];
    }
    !matches!(rest, "." | "..")
}

/// Append `path`, which starts with `/`, to `out` with `.` and `..`
/// segments resolved and `//` runs collapsed. A path that is already
/// normalized is copied as it is.
fn push_normalized_path(out: &mut String, path: &str) {
    if is_plain(&path[1..]) {
        out.push_str(path);
    } else {
        push_resolved_segments(out, &[path]);
    }
}

/// Append the path made of `pieces` (concatenated; every piece but the
/// first starts right after a `/`) to `out`, with `.` and `..` segments
/// resolved and `//` runs collapsed. The result starts with `/` and keeps
/// a trailing `/` when the input ends in a directory.
fn push_resolved_segments(out: &mut String, pieces: &[&str]) {
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
        // A `://` in a relative reference's query does not make it
        // absolute.
        assert_eq!(
            base.join("/r?u=https://a.de/").unwrap().to_string(),
            "https://site.de/r?u=https://a.de/"
        );
        assert_eq!(
            base.join("go?next=http://x.de").unwrap().to_string(),
            "https://site.de/a/b/go?next=http://x.de"
        );
        assert!(base.join("ftp://x.de/").is_err());
        assert_eq!(
            base.join("HTTP://X.de").unwrap().to_string(),
            "http://x.de/"
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
