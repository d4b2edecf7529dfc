//! Deterministic fault injection: the hostile-Web model.
//!
//! The paper's crawl contends with unreachable hosts, timeouts, bot walls,
//! and transient server errors; BannerClick re-visits failed sites before
//! counting them out. The simulated network is perfectly reliable, so this
//! module supplies the chaos: a [`FaultPlan`] decides — as a *pure
//! function* of `(seed, region, domain, attempt)` — whether a navigation
//! is answered by the origin or by an injected failure.
//!
//! ## Fault classes
//!
//! * **Transient** faults are drawn per `(region, domain)` cell: the
//!   cell's first one or two navigation attempts fail (connection reset,
//!   5xx, a stalled response that blows the caller's virtual-time budget,
//!   a truncated body, or a flapping mix of those), after which the cell
//!   is healthy forever. A crawler that retries past the window observes
//!   *exactly* the responses a fault-free run would.
//! * **Permanent** faults are drawn per domain: every attempt from every
//!   region fails the same way — the "dead origin" a circuit breaker
//!   exists for.
//!
//! ## The byte-identity invariant
//!
//! An injected fault never invokes the wrapped origin server. Origin-side
//! state (per-site visit counters that seed cookie noise) therefore
//! advances only on attempts that really succeed, so a transient-faulted
//! crawl with retries converges to the byte-identical fault-free report.

use crate::geo::Region;
use crate::http::{Request, Response, TransportFault};
use crate::net::Server;
use crate::psl::registrable_domain;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the fault layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed every fault decision derives from; two runs with the same seed
    /// (and rates) inject byte-identical faults.
    pub seed: u64,
    /// Probability that a `(region, domain)` cell starts with a transient
    /// fault window (recovers after one or two attempts).
    pub transient_rate: f64,
    /// Probability that a domain is permanently faulted — every attempt
    /// from every region fails until the end of the run.
    pub permanent_rate: f64,
    /// Virtual latency of a stalled response, in milliseconds. Must exceed
    /// the browser's timeout budget to surface as a timeout.
    pub stall_ms: u64,
}

impl FaultConfig {
    /// A config with the given seed and everything else at defaults
    /// (rates zero — injects nothing until a rate is raised).
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            permanent_rate: 0.0,
            stall_ms: 45_000,
        }
    }

    /// True when no fault can ever fire (all rates zero) — callers treat
    /// this exactly like "no fault layer installed".
    pub fn is_noop(&self) -> bool {
        self.transient_rate <= 0.0 && self.permanent_rate <= 0.0
    }
}

/// The failure an individual faulted attempt observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// TCP-level connection reset: no response bytes at all.
    ConnectionReset,
    /// The origin answered with this 5xx status.
    ServerError(u16),
    /// The response stalls past any reasonable deadline (virtual latency
    /// [`FaultConfig::stall_ms`]).
    Stall,
    /// The body stops mid-transfer (content-length mismatch).
    TruncatedBody,
}

/// Running totals of injected faults, for the chaos summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Connection resets injected.
    pub resets: u64,
    /// 5xx responses injected.
    pub server_errors: u64,
    /// Stalled responses injected.
    pub stalls: u64,
    /// Truncated bodies injected.
    pub truncated: u64,
}

impl FaultCounts {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.resets + self.server_errors + self.stalls + self.truncated
    }
}

/// splitmix64 finalizer: decorrelates the FNV prefix hash below.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable hash of a decision lane: seed plus labelled parts.
fn lane_hash(seed: u64, parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for part in parts {
        for b in part.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// Map a hash to the unit interval, uniformly.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// How one `(region, domain)` cell misbehaves, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellFault {
    /// Every attempt fails with `kind`.
    Permanent(FaultKind),
    /// Attempts `0..window` fail; `flapping` cells alternate reset/5xx
    /// across the window instead of repeating one kind.
    Transient {
        window: u32,
        kind: FaultKind,
        flapping: bool,
    },
}

/// A seeded fault schedule over the whole (region × domain) matrix.
///
/// Decisions are pure functions of `(seed, region, domain, attempt)`; the
/// only state is the per-cell attempt counter (each navigation to a cell
/// advances it) and the injection totals for the chaos summary.
pub struct FaultPlan {
    config: FaultConfig,
    attempts: Mutex<HashMap<(Region, String), u32>>,
    resets: AtomicU64,
    server_errors: AtomicU64,
    stalls: AtomicU64,
    truncated: AtomicU64,
}

impl FaultPlan {
    /// A plan executing `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            attempts: Mutex::new(HashMap::new()),
            resets: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
        }
    }

    /// The configuration this plan executes.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection totals so far.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            resets: self.resets.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
        }
    }

    /// Key a host down to the unit fault decisions apply to.
    fn fault_domain(host: &str) -> &str {
        registrable_domain(host).unwrap_or(host)
    }

    /// Claim the next attempt ordinal for a cell (stateful: each
    /// navigation to the cell advances its counter by one).
    // lint:allow(r9) — fault label allocated only on the faulted attempt
    pub fn next_attempt(&self, region: Region, host: &str) -> u32 {
        let key = (region, Self::fault_domain(host).to_string());
        let mut attempts = self.attempts.lock();
        let slot = attempts.entry(key).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        attempt
    }

    /// How a cell misbehaves, as a pure function of the seed.
    fn cell_fault(&self, region: Region, domain: &str) -> Option<CellFault> {
        let perm = lane_hash(self.config.seed, &["perm", domain]);
        if unit(perm) < self.config.permanent_rate {
            let kind = match perm % 3 {
                0 => FaultKind::ConnectionReset,
                1 => FaultKind::ServerError(503),
                _ => FaultKind::Stall,
            };
            return Some(CellFault::Permanent(kind));
        }
        let cell = lane_hash(self.config.seed, &["cell", region.label(), domain]);
        if unit(cell) < self.config.transient_rate {
            let window = 1 + ((cell >> 8) % 2) as u32;
            let (kind, flapping) = match (cell >> 16) % 5 {
                0 => (FaultKind::ConnectionReset, false),
                1 => (
                    FaultKind::ServerError(500 + [0, 2, 3][(cell >> 24) as usize % 3]),
                    false,
                ),
                2 => (FaultKind::Stall, false),
                3 => (FaultKind::TruncatedBody, false),
                _ => (FaultKind::ConnectionReset, true),
            };
            return Some(CellFault::Transient {
                window,
                kind,
                flapping,
            });
        }
        None
    }

    /// The fault (if any) attempt `attempt` of `(region, host)` observes.
    /// Pure: same inputs, same answer, on every plan with this seed.
    pub fn fault_for(&self, region: Region, host: &str, attempt: u32) -> Option<FaultKind> {
        let domain = Self::fault_domain(host);
        match self.cell_fault(region, domain)? {
            CellFault::Permanent(kind) => Some(kind),
            CellFault::Transient {
                window,
                kind,
                flapping,
            } => {
                if attempt >= window {
                    return None;
                }
                if flapping {
                    // A flapping host fails differently on consecutive
                    // attempts: reset, then an overloaded 502.
                    Some(if attempt.is_multiple_of(2) {
                        FaultKind::ConnectionReset
                    } else {
                        FaultKind::ServerError(502)
                    })
                } else {
                    Some(kind)
                }
            }
        }
    }

    /// Build the response a faulted attempt observes, counting it. The
    /// origin server is *not* consulted: origin-side state must advance
    /// exactly as in a fault-free run (see the module invariant).
    pub fn synthesize(&self, kind: FaultKind) -> Response {
        match kind {
            FaultKind::ConnectionReset => {
                self.resets.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::connection_error();
                resp.transport = Some(TransportFault::ConnectionReset);
                resp
            }
            FaultKind::ServerError(status) => {
                self.server_errors.fetch_add(1, Ordering::Relaxed);
                let mut resp =
                    Response::html("<html><body><h1>Service unavailable</h1></body></html>");
                resp.status = status;
                resp
            }
            FaultKind::Stall => {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::html("<html><head><title>…");
                resp.latency_ms = self.config.stall_ms;
                resp
            }
            FaultKind::TruncatedBody => {
                self.truncated.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::html("<html><head><title>partial transf");
                resp.transport = Some(TransportFault::TruncatedBody);
                resp
            }
        }
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("config", &self.config)
            .field("injected", &self.injected())
            .finish()
    }
}

/// A [`Server`] decorator that consults a [`FaultPlan`] before letting a
/// top-level navigation through to the wrapped origin. Subresource
/// requests always pass through: the fault model targets the navigation
/// (connection establishment and main-document transfer), which is where
/// the crawl's retry policy sits.
pub struct FaultyServer {
    inner: Arc<dyn Server>,
    plan: Arc<FaultPlan>,
}

impl FaultyServer {
    /// Wrap `inner` with the fault schedule of `plan`.
    pub fn new(inner: Arc<dyn Server>, plan: Arc<FaultPlan>) -> Self {
        FaultyServer { inner, plan }
    }
}

impl Server for FaultyServer {
    fn handle(&self, req: &Request<'_>) -> Response {
        if req.initiator_host.is_none() {
            let host = req.url.host();
            let attempt = self.plan.next_attempt(req.region, host);
            if let Some(kind) = self.plan.fault_for(req.region, host, attempt) {
                return self.plan.synthesize(kind);
            }
        }
        self.inner.handle(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::Url;

    fn chaos(seed: u64, transient: f64, permanent: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            transient_rate: transient,
            permanent_rate: permanent,
            stall_ms: 45_000,
        })
    }

    #[test]
    fn noop_config_never_faults() {
        let plan = chaos(7, 0.0, 0.0);
        for region in Region::ALL {
            for attempt in 0..4 {
                assert_eq!(plan.fault_for(region, "site.de", attempt), None);
            }
        }
        assert!(plan.config().is_noop());
    }

    #[test]
    fn decisions_are_deterministic_across_plans() {
        let a = chaos(1234, 0.5, 0.1);
        let b = chaos(1234, 0.5, 0.1);
        for region in [Region::Germany, Region::India] {
            for i in 0..40 {
                let host = format!("site-{i}.example.de");
                for attempt in 0..4 {
                    assert_eq!(
                        a.fault_for(region, &host, attempt),
                        b.fault_for(region, &host, attempt),
                        "{host} attempt {attempt}"
                    );
                }
            }
        }
    }

    /// Attempts a transient fault lasts: the faulted prefix of attempts.
    fn transient_window(plan: &FaultPlan, region: Region, host: &str) -> u32 {
        (0..8)
            .take_while(|&attempt| plan.fault_for(region, host, attempt).is_some())
            .count() as u32
    }

    #[test]
    fn transient_windows_close() {
        let plan = chaos(99, 1.0, 0.0);
        for region in Region::ALL {
            for i in 0..30 {
                let host = format!("s{i}.de");
                let window = transient_window(&plan, region, &host);
                assert!((1..=2).contains(&window), "{host}: window {window}");
                for attempt in 0..window {
                    assert!(plan.fault_for(region, &host, attempt).is_some());
                }
                for attempt in window..window + 4 {
                    assert_eq!(plan.fault_for(region, &host, attempt), None);
                }
            }
        }
    }

    #[test]
    fn permanent_faults_hold_for_every_region_and_attempt() {
        let plan = chaos(5, 0.0, 1.0);
        let first = plan.fault_for(Region::Germany, "always-down.com", 0);
        assert!(first.is_some());
        for region in Region::ALL {
            for attempt in 0..6 {
                assert_eq!(plan.fault_for(region, "always-down.com", attempt), first);
            }
        }
    }

    #[test]
    fn attempt_counter_is_per_cell() {
        let plan = chaos(1, 0.0, 0.0);
        assert_eq!(plan.next_attempt(Region::Germany, "a.de"), 0);
        assert_eq!(plan.next_attempt(Region::Germany, "a.de"), 1);
        assert_eq!(plan.next_attempt(Region::Sweden, "a.de"), 0);
        assert_eq!(plan.next_attempt(Region::Germany, "b.de"), 0);
        // Subdomains share their registrable domain's counter.
        assert_eq!(plan.next_attempt(Region::Germany, "www.a.de"), 2);
    }

    #[test]
    fn synthesized_responses_carry_fault_markers() {
        let plan = chaos(3, 0.0, 0.0);
        let reset = plan.synthesize(FaultKind::ConnectionReset);
        assert_eq!(reset.status, 0);
        assert_eq!(reset.transport, Some(TransportFault::ConnectionReset));
        let err = plan.synthesize(FaultKind::ServerError(503));
        assert_eq!(err.status, 503);
        assert_eq!(err.transport, None);
        let stall = plan.synthesize(FaultKind::Stall);
        assert_eq!(stall.latency_ms, 45_000);
        let cut = plan.synthesize(FaultKind::TruncatedBody);
        assert_eq!(cut.transport, Some(TransportFault::TruncatedBody));
        let counts = plan.injected();
        assert_eq!(counts.total(), 4);
        assert_eq!(
            (
                counts.resets,
                counts.server_errors,
                counts.stalls,
                counts.truncated
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn faulty_server_never_consults_origin_during_fault() {
        use std::sync::atomic::AtomicU64;
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        let origin: Arc<dyn Server> = Arc::new(move |_req: &Request<'_>| {
            hits2.fetch_add(1, Ordering::Relaxed);
            Response::html("<p>origin</p>")
        });
        let plan = Arc::new(chaos(42, 1.0, 0.0));
        let server = FaultyServer::new(origin, Arc::clone(&plan));
        let url = Url::parse("https://faulted.example/").unwrap();
        let region = Region::Germany;
        let window = transient_window(&plan, region, url.host());
        assert!(window >= 1);
        for _ in 0..window {
            let resp = server.handle(&Request::navigation(&url, region));
            let faulted = resp.status == 0
                || resp.status >= 500
                || resp.latency_ms > 0
                || resp.transport.is_some();
            assert!(faulted, "inside the window every attempt fails");
            assert_eq!(
                hits.load(Ordering::Relaxed),
                0,
                "origin must not see faulted attempts"
            );
        }
        let resp = server.handle(&Request::navigation(&url, region));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "<p>origin</p>");
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        // Subresources bypass the fault layer entirely.
        let sub = server.handle(&Request {
            initiator_host: Some("faulted.example"),
            ..Request::navigation(&url, region)
        });
        assert_eq!(sub.status, 200);
    }
}
