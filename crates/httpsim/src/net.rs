//! The simulated network: a host → server registry with request dispatch
//! and traffic metrics. Redirects are followed by the client (the browser
//! stores each hop's cookies), which reports every hop it follows here.
//!
//! This is the stand-in for the live Internet the paper crawls. Servers are
//! trait objects so `webgen` can plug an entire synthetic web population in,
//! and tests can plug in single closures.

use crate::http::{Request, Response};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated origin server.
///
/// `handle` must be pure with respect to the request (any randomness must be
/// derived deterministically from request fields) so measurements are
/// reproducible; interior state for counters is fine.
pub trait Server: Send + Sync {
    /// Produce the response for `req`.
    fn handle(&self, req: &Request<'_>) -> Response;
}

impl<F> Server for F
where
    F: Fn(&Request<'_>) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request<'_>) -> Response {
        self(req)
    }
}

/// Counters the network keeps per run; cheap to read, updated atomically.
#[derive(Debug, Default)]
pub struct NetworkStats {
    /// Requests dispatched (including redirect hops).
    pub requests: AtomicU64,
    /// Requests that hit no registered host.
    pub unresolved: AtomicU64,
    /// Redirect hops a client followed ([`Network::record_redirect`]).
    pub redirects: AtomicU64,
}

impl NetworkStats {
    /// Unresolved-host count so far.
    pub fn unresolved(&self) -> u64 {
        self.unresolved.load(Ordering::Relaxed)
    }
}

/// Maximum redirect hops before giving up, mirroring browser limits.
pub const MAX_REDIRECTS: usize = 10;

/// Host → server registry.
///
/// Lookup resolves exact hosts first, then walks up parent domains so one
/// server can own a whole registrable domain including its subdomains
/// (`pt.climate-data.org` → server registered for `climate-data.org`).
#[derive(Clone, Default)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

#[derive(Default)]
struct NetworkInner {
    servers: Mutex<HashMap<String, Arc<dyn Server>, Prehashed>>,
    stats: NetworkStats,
}

/// The `BuildHasher` of the crate's hash tables: a host is hashed with
/// [`document_hash`], and a `u64` key that is already such a hash (a
/// cookie's key) passes through.
pub(crate) type Prehashed = BuildHasherDefault<PrehashedHasher>;

/// See [`Prehashed`]. Every write folds into the state, so a key fed in
/// several writes (a `str` is its bytes, then a `0xff` terminator) still
/// hashes as a whole.
#[derive(Debug, Default)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(document_hash(bytes));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(29) ^ n;
    }
}

impl Network {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `server` for `host` (and implicitly its subdomains, unless
    /// a more specific registration exists). Replaces a previous
    /// registration for the same host.
    pub fn register(&self, host: &str, server: Arc<dyn Server>) {
        self.inner
            .servers
            .lock()
            .insert(host.to_ascii_lowercase(), server);
    }

    fn lookup(&self, host: &str) -> Option<Arc<dyn Server>> {
        let lowered;
        let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = host.to_ascii_lowercase();
            lowered.as_str()
        } else {
            host
        };
        let servers = self.inner.servers.lock();
        // Exact, then parent domains.
        let mut candidate = host;
        loop {
            if let Some(s) = servers.get(candidate) {
                return Some(Arc::clone(s));
            }
            match candidate.find('.') {
                Some(i) => candidate = &candidate[i + 1..],
                None => return None,
            }
        }
    }

    /// Dispatch one request without following redirects.
    ///
    /// Unresolved hosts produce a 404-like failure response with status 0
    /// (connection error), which is how the crawler distinguishes "blocked
    /// or dead" from "served an error page".
    pub fn dispatch(&self, req: &Request<'_>) -> Response {
        self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        match self.lookup(req.url.host()) {
            Some(server) => server.handle(req),
            None => {
                self.inner.stats.unresolved.fetch_add(1, Ordering::Relaxed);
                Response::connection_error()
            }
        }
    }

    /// Count one redirect hop a client followed.
    pub fn record_redirect(&self) {
        self.inner.stats.redirects.fetch_add(1, Ordering::Relaxed);
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }
}

/// Stable 64-bit FNV-1a hash of response content.
///
/// Used as the region-invariant half of shared-fetch cache keys: two
/// vantage points that received byte-identical documents hash equal, so
/// downstream parse/analysis work can be shared between them.
pub fn content_hash(bytes: &[u8]) -> u64 {
    content_hash_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Carry a [`content_hash`] over more bytes: the hash of `a` extended
/// by `b` is the hash of `a` followed by `b`, so a checksum can be
/// computed piece by piece over bytes that are never held at once
/// (`content_hash(&[])` is the starting state).
#[inline]
pub fn content_hash_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// In-memory 64-bit hash of a document, eight bytes per step.
///
/// Keys the crawl's shared-fetch cache and per-cell page memo, where
/// [`content_hash`]'s byte-at-a-time loop would cost more than the lookup
/// it serves. It is never persisted: on-disk checksums stay
/// [`content_hash`]. The length seeds the state and the tail word is
/// zero-padded, and every step is a bijection of the state for a fixed
/// input word, so two inputs of equal length that differ in a single word
/// never collide.
pub fn document_hash(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: &[u8]| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        let x = (h ^ u64::from_le_bytes(w)).wrapping_mul(M);
        x ^ (x >> 29)
    };
    let mut h = (bytes.len() as u64 ^ 0xcbf2_9ce4_8422_2325).wrapping_mul(M);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = step(h, word);
    }
    if !words.remainder().is_empty() {
        h = step(h, words.remainder());
    }
    // Murmur3's 64-bit finalizer, so every input bit reaches every output
    // bit (the cache stripes on the low bits).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;
    use crate::url::Url;

    fn serve(
        net: &Network,
        host: &str,
        f: impl Fn(&Request<'_>) -> Response + Send + Sync + 'static,
    ) {
        net.register(host, Arc::new(f));
    }

    fn get(net: &Network, url: &str) -> Response {
        let url = Url::parse(url).unwrap();
        net.dispatch(&Request::navigation(&url, Region::Germany))
    }

    #[test]
    fn register_and_dispatch() {
        let net = Network::new();
        serve(&net, "site.de", |_| Response::html("<p>hi</p>"));
        let r = get(&net, "https://site.de/");
        assert_eq!(r.status, 200);
        assert_eq!(r.body_text(), "<p>hi</p>");
    }

    #[test]
    fn subdomain_falls_back_to_parent() {
        let net = Network::new();
        serve(&net, "climate-data.org", |r| {
            Response::html(format!("host={}", r.url.host()))
        });
        let r = get(&net, "https://pt.climate-data.org/x");
        assert_eq!(r.body_text(), "host=pt.climate-data.org");
        // More specific registration wins.
        serve(&net, "pt.climate-data.org", |_| Response::html("specific"));
        let r = get(&net, "https://pt.climate-data.org/x");
        assert_eq!(r.body_text(), "specific");
    }

    #[test]
    fn unresolved_host_status_zero() {
        let net = Network::new();
        let r = get(&net, "https://nothing.example/");
        assert_eq!(r.status, 0);
        assert_eq!(net.stats().unresolved(), 1);
    }

    #[test]
    fn clones_share_servers_and_stats() {
        // The crawl scheduler hands one Network to many workers; a clone
        // must be a handle onto the same registry and counters, not a copy.
        let net = Network::new();
        let clone = net.clone();
        serve(&net, "shared.de", |_| Response::html("ok"));
        get(&clone, "https://shared.de/");
        assert_eq!(net.stats().requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn document_hash_vectors_cover_every_tail_length() {
        let input = b"<!doctype html><p>";
        let got: Vec<u64> = (0..=17).map(|n| document_hash(&input[..n])).collect();
        let want = [
            0x292f_3a10_75f4_cce4,
            0x6e4c_9d1d_662a_7505,
            0xc774_3f08_f8fd_2708,
            0x5c0d_41ce_0ae3_d3f0,
            0x384d_c3a6_762d_0bd8,
            0xb888_6339_3efc_02f2,
            0x0316_7df2_c854_bb2c,
            0xb778_9658_16b4_99aa,
            0x9200_0bfd_468d_80dd,
            0xac71_8ff5_6418_dcf0,
            0xb80b_4bf2_af48_78b9,
            0x19e3_a15d_9f6b_0d5d,
            0x3201_154a_e51d_4659,
            0x66b7_e37b_6d4f_a1a2,
            0x2282_5909_eeb5_e958,
            0xd260_258d_2553_c2ec,
            0x6f03_813f_0a00_b561,
            0x7acd_6d8d_9022_fdbf,
        ];
        assert_eq!(got, want);
        // Zero padding never aliases a shorter input onto a longer one.
        assert_ne!(document_hash(b"ab"), document_hash(b"ab\0"));
        assert_ne!(document_hash(b""), document_hash(b"\0"));
    }

    /// A fresh-profile main page as `webgen` renders it for a German
    /// visitor: an SMP-served iframe wall.
    const RENDERED_PAGE: &str = concat!(
        "<html><head><title>nordkurier.de</title></head><body><header>",
        "<h1>nordkurier.de</h1><nav><a href=\"/privacy\">Privacy</a></nav>",
        "</header><main><p>Nach dem Sturm räumten viele Freiwillige die umgestürzten Bäume von den Wegen im Stadtpark.</p>",
        "<p>Der neue Fahrplan bringt mehr Verbindungen am Wochenende, allerdings steigen auch die Preise leicht.</p>",
        "<p>Forschende der Hochschule stellten ein Verfahren vor, das Wärme aus Abwasser zurückgewinnt.</p>",
        "<p>Die Ausstellung im Museum zeigt Fotografien aus hundert Jahren Stadtgeschichte und läuft bis Oktober.</p>",
        "</main><script src=\"/static/app.js\"></script><iframe id=\"cw-frame\" title=\"consent-or-pay\" src=\"https://cdn.contentpass.net/wall?site=nordkurier.de\" style=\"position:fixed;top:0;z-index:100000;width:100%;height:100%\">",
        "</iframe><footer>© nordkurier.de</footer></body></html>",
    );

    #[test]
    fn document_hash_sees_every_single_byte_flip_of_a_page() {
        let page = RENDERED_PAGE.as_bytes();
        let original = document_hash(page);
        let mut flipped = page.to_vec();
        for i in 0..page.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[i] ^= mask;
                assert_ne!(document_hash(&flipped), original, "byte {i} ^ {mask:#04x}");
                flipped[i] ^= mask;
            }
        }
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"<html>"), content_hash(b"<html>"));
        assert_ne!(content_hash(b"<html>"), content_hash(b"<htmk>"));
        assert_eq!(
            content_hash_extend(content_hash(b"<ht"), b"ml>"),
            content_hash(b"<html>")
        );
    }
}
