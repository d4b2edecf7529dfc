//! The browser engine: navigation, subresource loading, script-effect
//! emulation, clicks, and SMP sessions.
//!
//! ## The script-effect convention
//!
//! Real pages wire consent behaviour in JavaScript; this simulator executes
//! the same effects from declarative attributes (the synthetic sites emit
//! them, standing in for their JS bundles):
//!
//! * `<script src=… data-cw-inject="ID">` — the response body is an HTML
//!   fragment; it is parsed into the element with id `ID` (CMP/SMP script
//!   injection). A fragment may itself contain a declarative shadow root.
//! * `<script src=… data-smp-check data-smp-set="NAME=VALUE">` — an SMP
//!   entitlement probe. If the response body is `entitled`, the browser
//!   sets the first-party cookie `NAME=VALUE` on the top-level site and
//!   reloads once — the §4.4 subscriber flow.
//! * `data-cw-action="accept|reject"` with `data-cw-cookie="NAME=VALUE"`
//!   on a clickable element — clicking stores the consent cookie for the
//!   top-level site and reloads.
//! * `data-cw-action="subscribe"` — clicking navigates to the element's
//!   `href`.
//! * `<div data-detect-adblock data-message="…">` — if any request was
//!   blocked during the load, the site's detector fires and the browser
//!   injects a blocking interstitial.

use crate::page::{BlockedRequest, ElementRef, Frame, Page};
use crate::storage::LocalStorage;
use blocklist::{BlockDecision, FilterEngine};
use httpsim::{CookieJar, Method, Network, Region, Request, Response, TransportFault, Url};
use std::sync::OnceLock;
use webdom::{parse, parse_fragment_into, Document, NodeId, SelectorList};

/// Maximum iframe nesting depth processed.
const MAX_FRAME_DEPTH: usize = 3;
/// Maximum script-injection rounds per frame (injection can add scripts).
const MAX_INJECT_ROUNDS: usize = 3;

/// Virtual-time budget a navigation may spend before the browser gives up
/// and reports a timeout — the OpenWPM page-load timeout stand-in.
pub const DEFAULT_TIMEOUT_BUDGET_MS: u64 = 30_000;

/// Typed navigation failure: what exactly went wrong fetching the top
/// document. The crawl's retry policy branches on
/// [`FetchError::is_transient`], and the failure taxonomy in the study
/// report is derived from these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// No server answered for the host (dead origin / lapsed domain).
    Unreachable(String),
    /// The connection was reset before a response arrived.
    ConnectionReset(String),
    /// The transfer stalled past the browser's virtual-time budget.
    Timeout {
        /// Host the navigation targeted.
        host: String,
        /// The budget that was exceeded, in virtual milliseconds.
        budget_ms: u64,
    },
    /// The response body stopped mid-transfer.
    Truncated(String),
    /// The server answered with a non-success status for the top document.
    HttpError(u16),
}

/// Pre-fault-layer name of [`FetchError`], kept for existing callers.
pub type VisitError = FetchError;

impl FetchError {
    /// Is retrying plausibly useful? Connection-level failures, timeouts,
    /// truncation, and 5xx answers are worth another attempt (the crawler
    /// cannot distinguish a dead origin from a transient outage up front);
    /// a definitive 4xx is not.
    pub fn is_transient(&self) -> bool {
        match self {
            FetchError::HttpError(status) => *status >= 500,
            _ => true,
        }
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Unreachable(host) => write!(f, "host unreachable: {host}"),
            FetchError::ConnectionReset(host) => write!(f, "connection reset: {host}"),
            FetchError::Timeout { host, budget_ms } => {
                write!(f, "timeout after {budget_ms} ms (virtual): {host}")
            }
            FetchError::Truncated(host) => write!(f, "response truncated: {host}"),
            FetchError::HttpError(status) => write!(f, "HTTP error {status}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// A fetched top-level document: the result of phase one of a visit,
/// before any subresource loading, script execution, or parsing happened.
///
/// Splitting the navigation fetch from the load lets a crawl scheduler
/// decide — after seeing the document bytes — whether the expensive load
/// phase is needed at all (shared-fetch caching across vantage points),
/// while the origin server still observes the navigation request exactly
/// as it would during a full visit.
///
/// The document's own `Set-Cookie` headers ride along unparsed in the
/// response: only a load reads the jar, so [`Browser::load_fetched`]
/// stores them, and a caller that stops after the fetch never pays for
/// them.
#[derive(Debug, Clone)]
pub struct FetchedDocument {
    url: Url,
    /// Where the document came from, when a redirect moved it off `url`.
    redirected: Option<Url>,
    /// The document's response: status, body and `Set-Cookie` lines.
    response: Response,
    /// The lossy decoding of the body, made on first read of a body that
    /// is not valid UTF-8.
    lossy: OnceLock<String>,
}

impl FetchedDocument {
    /// The URL the navigation started from.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// The URL the document was served from (after redirects).
    pub fn final_url(&self) -> &Url {
        self.redirected.as_ref().unwrap_or(&self.url)
    }

    /// The response status.
    pub fn status(&self) -> u16 {
        self.response.status
    }

    /// The raw document text. Each call checks the bytes as UTF-8 (one
    /// pass, paid only by callers that want text, such as a load); a body
    /// that is not valid UTF-8 reads as its lossy decoding.
    pub fn body(&self) -> &str {
        let body = &self.response.body;
        match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => self
                .lossy
                .get_or_init(|| String::from_utf8_lossy(body).into_owned()),
        }
    }

    /// The raw document bytes as received, without the UTF-8 check.
    pub fn body_bytes(&self) -> &[u8] {
        &self.response.body
    }
}

/// What a click did.
#[derive(Debug)]
pub enum ClickOutcome {
    /// Consent accepted; the page reloaded.
    Accepted(Page),
    /// Consent rejected; the page reloaded.
    Rejected(Page),
    /// Navigated to the subscription checkout.
    SubscribeNavigation(Page),
    /// The element had no consent action wired to it.
    NotInteractive,
}

/// A headless browser profile: cookie jar, region, optional content
/// blocker — the OpenWPM/Selenium stand-in.
pub struct Browser {
    net: Network,
    region: Region,
    jar: CookieJar,
    storage: LocalStorage,
    blocker: Option<FilterEngine>,
    user_agent: String,
    /// The `Cookie:` header of the request being sent, rendered by the
    /// jar into this one buffer for every request.
    cookie_header: String,
    /// Virtual-time budget per navigation before reporting a timeout.
    timeout_budget_ms: u64,
    /// Per-load request log, moved into the [`Page`] when the load ends.
    request_log: Vec<crate::page::LoggedRequest>,
    /// The main frame's scan buffers, kept across loads.
    scan: FrameScan,
}

impl Browser {
    /// A fresh profile at `region` on `net`.
    // lint:allow(r9) — per-profile construction: the user agent is copied once per profile, not per request
    pub fn new(net: Network, region: Region) -> Self {
        Browser {
            net,
            region,
            jar: CookieJar::new(),
            storage: LocalStorage::new(),
            blocker: None,
            user_agent: httpsim::DEFAULT_USER_AGENT.to_string(),
            cookie_header: String::new(),
            timeout_budget_ms: DEFAULT_TIMEOUT_BUDGET_MS,
            request_log: Vec::new(),
            scan: FrameScan::default(),
        }
    }

    /// Enable a content-blocker extension (uBlock Origin stand-in).
    pub fn with_blocker(mut self, engine: FilterEngine) -> Self {
        self.blocker = Some(engine);
        self
    }

    /// Override the user agent (e.g. to study bot detection).
    pub fn with_user_agent(mut self, ua: impl Into<String>) -> Self {
        self.user_agent = ua.into();
        self
    }

    /// Override the navigation timeout budget (virtual milliseconds).
    pub fn with_timeout_budget(mut self, budget_ms: u64) -> Self {
        self.timeout_budget_ms = budget_ms;
        self
    }

    /// The navigation timeout budget, in virtual milliseconds.
    pub fn timeout_budget_ms(&self) -> u64 {
        self.timeout_budget_ms
    }

    /// The vantage-point region this profile browses from.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The profile's cookie jar.
    pub fn jar(&self) -> &CookieJar {
        &self.jar
    }

    /// The profile's per-origin localStorage.
    pub fn storage(&self) -> &LocalStorage {
        &self.storage
    }

    /// Forget all cookies (fresh-profile semantics between measurements).
    /// localStorage is kept — clearing cookies alone does *not* revoke a
    /// cookiewall acceptance (§5); use [`Browser::clear_all_data`] for a
    /// truly fresh profile.
    pub fn clear_cookies(&mut self) {
        self.jar.clear();
    }

    /// Forget all cookies *and* localStorage.
    pub fn clear_all_data(&mut self) {
        self.jar.clear();
        self.storage.clear();
    }

    /// Simulate a browser restart: session cookies vanish, persistent
    /// cookies and localStorage survive. A cookiewall acceptance therefore
    /// outlives restarts — part of why §5 finds revocation non-obvious.
    pub fn restart(&mut self) {
        self.jar.expire_session_cookies();
    }

    /// Delete only the *cookies* of one site. Per §5 this is **not**
    /// sufficient to revoke a cookiewall acceptance: the wall script
    /// restores the consent cookie from localStorage on the next visit.
    pub fn clear_site_cookies(&mut self, site_host: &str) {
        self.jar.clear_site(site_host);
    }

    /// Delete one site's cookies *and* localStorage — the full §5
    /// revocation procedure. After this, the wall shows again (or the
    /// subscriber entitlement can finally take effect).
    pub fn clear_site_data(&mut self, site_host: &str) {
        let site = httpsim::registrable_domain(site_host)
            .unwrap_or(site_host)
            .to_string();
        self.jar.clear_site(&site);
        self.storage.clear_origin(&site);
    }

    // -------------------------------------------------------- navigation

    /// Navigate to `url` and fully load the page (subresources, script
    /// effects, iframes, entitlement checks).
    pub fn visit(&mut self, url: &Url) -> Result<Page, VisitError> {
        self.visit_inner(url, true)
    }

    /// Convenience: navigate to `https://{domain}/`.
    // lint:allow(r9) — the to_string runs only on the unparsable-domain error path
    pub fn visit_domain(&mut self, domain: &str) -> Result<Page, VisitError> {
        let url = Url::parse(domain).map_err(|_| VisitError::Unreachable(domain.to_string()))?;
        self.visit(&url)
    }

    /// Phase one of a visit: consent-state restore plus the top-level
    /// document fetch, with nothing parsed or loaded yet. The origin sees
    /// this request exactly as it would under [`Browser::visit`].
    ///
    /// Every redirect hop's cookies are stored as they arrive (the next
    /// hop's `Cookie` header needs them). The document's own cookies are
    /// stored by [`Browser::load_fetched`], or here before an error is
    /// returned, so a visit leaves the jar as it always did.
    ///
    /// Callers that decide the document is worth loading continue with
    /// [`Browser::load_fetched`]; callers that already know the outcome for
    /// these bytes (a shared-fetch cache) simply stop here.
    // lint:allow(r9) — the fetched document owns its start URL: one clone of the caller's
    pub fn fetch_document(&mut self, url: &Url) -> Result<FetchedDocument, VisitError> {
        self.fetch_url(url.clone())
    }

    /// Convenience: phase-one fetch of `https://{domain}/`.
    pub fn fetch_domain_document(&mut self, domain: &str) -> Result<FetchedDocument, VisitError> {
        let url = Url::parse(domain).map_err(|_| VisitError::Unreachable(domain.to_string()))?;
        self.fetch_url(url)
    }

    /// [`Browser::fetch_document`] of a URL the document will own.
    // lint:allow(r9) — the host String is built only on error paths (lazy closure)
    fn fetch_url(&mut self, url: Url) -> Result<FetchedDocument, VisitError> {
        self.restore_consent_from_storage(&url);
        self.request_log.clear();
        let (response, redirected, latency_ms) = self.fetch_chain(&url, None);
        let final_url = redirected.as_ref().unwrap_or(&url);
        // The host string is only needed to describe a failure; building
        // it lazily keeps the per-visit success path allocation-free.
        let host = || url.host().to_string();
        let status = response.status;
        let failure = match response.transport {
            Some(TransportFault::ConnectionReset) => Some(FetchError::ConnectionReset(host())),
            Some(TransportFault::TruncatedBody) => Some(FetchError::Truncated(host())),
            None if latency_ms > self.timeout_budget_ms => Some(FetchError::Timeout {
                host: host(),
                budget_ms: self.timeout_budget_ms,
            }),
            None if status == 0 => Some(FetchError::Unreachable(host())),
            None if status >= 400 => Some(FetchError::HttpError(status)),
            None => None,
        };
        if let Some(err) = failure {
            self.store_cookies(&response, final_url);
            return Err(err);
        }
        Ok(FetchedDocument {
            url,
            redirected,
            response,
            lossy: OnceLock::new(),
        })
    }

    /// Phase two of a visit: store the document's cookies, then parse it
    /// and complete the load (subresources, script effects, iframes,
    /// entitlement checks).
    ///
    /// `visit` is exactly `fetch_document` followed by `load_fetched`.
    pub fn load_fetched(&mut self, fetched: &FetchedDocument) -> Result<Page, VisitError> {
        self.load_fetched_inner(fetched, true)
    }

    fn visit_inner(
        &mut self,
        url: &Url,
        allow_entitlement_reload: bool,
    ) -> Result<Page, VisitError> {
        let fetched = self.fetch_document(url)?;
        self.load_fetched_inner(&fetched, allow_entitlement_reload)
    }

    // lint:allow(r9) — the Page owns its URLs: one clone each of the start URL, the final URL and the main frame's URL
    fn load_fetched_inner(
        &mut self,
        fetched: &FetchedDocument,
        allow_entitlement_reload: bool,
    ) -> Result<Page, VisitError> {
        let final_url = fetched.final_url();
        self.store_cookies(&fetched.response, final_url);
        let doc = parse(fetched.body());
        let mut page = Page {
            url: fetched.url.clone(),
            final_url: final_url.clone(),
            status: fetched.status(),
            frames: vec![Frame {
                doc,
                url: final_url.clone(),
                parent: None,
            }],
            blocked: Vec::new(),
            requests: Vec::new(),
            scroll_locked: false,
            adblock_interstitial: false,
            reloaded_for_subscription: false,
        };

        // Every subresource of the load is initiated by the top-level
        // page, whose host the fetched document keeps while the page is
        // being mutated.
        let top_host = final_url.host();
        let mut effects = LoadEffects::default();
        self.process_frame(&mut page, 0, 0, top_host, &mut effects);

        // Subscriber flow: a successful entitlement probe sets a
        // first-party cookie and reloads once.
        if let Some((name, value)) = effects.entitled_cookie {
            if allow_entitlement_reload {
                let site = httpsim::registrable_domain(top_host).unwrap_or(top_host);
                self.set_site_cookie(site, &name, &value);
                let mut reloaded = self.visit_inner(&fetched.url, false)?;
                reloaded.reloaded_for_subscription = true;
                return Ok(reloaded);
            }
        }

        finish_page(&mut page, &effects.detectors);
        page.requests = std::mem::take(&mut self.request_log);
        Ok(page)
    }

    /// Fetch with manual redirect following, storing every hop's cookies
    /// and the final response's. Returns the final response and the URL it
    /// came from when a redirect moved it off `url`.
    fn fetch_following(&mut self, url: &Url, initiator: Option<&str>) -> (Response, Option<Url>) {
        let (resp, redirected, _) = self.fetch_chain(url, initiator);
        self.store_cookies(&resp, redirected.as_ref().unwrap_or(url));
        (resp, redirected)
    }

    /// [`Browser::fetch_following`] without storing the returned response's
    /// own cookies: every earlier hop's are stored, the caller stores the
    /// last ones (from the returned URL) when it needs them. Each hop is
    /// logged, and each redirect followed is counted on the network. The
    /// third value is the virtual transfer time accumulated across all
    /// hops, which a navigation checks against the timeout budget.
    // lint:allow(r9) — the request log owns each hop's URL: a redirect hop's moves in, the first and last are cloned because the caller owns the first and receives the last
    fn fetch_chain(&mut self, url: &Url, initiator: Option<&str>) -> (Response, Option<Url>, u64) {
        let mut redirected: Option<Url> = None;
        let mut elapsed_ms: u64 = 0;
        for _ in 0..httpsim::MAX_REDIRECTS {
            let current = redirected.as_ref().unwrap_or(url);
            let resp = self.send(current, initiator, None);
            elapsed_ms = elapsed_ms.saturating_add(resp.latency_ms);
            let next = match &resp.location {
                Some(location) if resp.is_redirect() => current.join(location).ok(),
                _ => None,
            };
            let Some(next) = next else {
                self.log(current.clone(), &resp, initiator);
                return (resp, redirected, elapsed_ms);
            };
            self.store_cookies(&resp, current);
            self.net.record_redirect();
            let hop = match redirected.replace(next) {
                Some(hop) => hop,
                None => url.clone(),
            };
            self.log(hop, &resp, initiator);
        }
        (Response::not_found(), redirected, elapsed_ms)
    }

    /// Append one request to the load's log.
    fn log(&mut self, url: Url, resp: &Response, initiator: Option<&str>) {
        self.request_log.push(crate::page::LoggedRequest {
            url,
            status: resp.status,
            subresource: initiator.is_some(),
            cookies_set: resp.set_cookie_count(),
        });
    }

    /// Parse and store `resp`'s `Set-Cookie` lines, received from `origin`,
    /// in the jar. Returns how many were accepted.
    fn store_cookies(&mut self, resp: &Response, origin: &Url) -> usize {
        self.jar.store_response_cookies(resp.set_cookies(), origin)
    }

    /// One request, carrying the profile's user agent and cookies: a GET,
    /// or a POST of `form`. Nothing is allocated for it; the jar renders
    /// the `Cookie` header into the profile's reused buffer.
    fn send(
        &mut self,
        url: &Url,
        initiator: Option<&str>,
        form: Option<&[(&str, &str)]>,
    ) -> Response {
        self.jar.write_cookie_header(url, &mut self.cookie_header);
        let req = Request {
            method: if form.is_some() {
                Method::Post
            } else {
                Method::Get
            },
            url,
            region: self.region,
            cookie_header: (!self.cookie_header.is_empty()).then_some(self.cookie_header.as_str()),
            user_agent: &self.user_agent,
            initiator_host: initiator,
            body_params: form.unwrap_or_default(),
        };
        self.net.dispatch(&req)
    }

    /// Consult the blocker for a subresource; record and skip if blocked.
    // lint:allow(r9) — runs only with a content blocker installed, and copies only a blocked URL
    fn blocked_by_extension(&self, page: &mut Page, url: &Url, initiator: &str) -> bool {
        if let Some(blocker) = &self.blocker {
            if let BlockDecision::Blocked(rule) = blocker.decide(url, Some(initiator)) {
                page.blocked.push(BlockedRequest {
                    url: url.to_string(),
                    rule,
                });
                return true;
            }
        }
        false
    }

    /// Load a frame's subresources: scripts (with injection and entitlement
    /// effects), then iframes (recursively).
    ///
    /// Each script round walks the frame once ([`FrameScan`]). Injection
    /// only ever appends nodes, so a script is fresh exactly when it was
    /// created after the previous walk, and a round whose scripts leave
    /// the node count unchanged left the document unchanged: its walk
    /// already lists what another would, with no fresh script, and ends
    /// the rounds. The last walk also lists the passive subresources and
    /// iframes of the final document.
    fn process_frame(
        &mut self,
        page: &mut Page,
        frame_idx: usize,
        depth: usize,
        top_host: &str,
        effects: &mut LoadEffects,
    ) {
        let mut scan = std::mem::take(&mut self.scan);
        let mut scanned = 0;
        for round in 0..=MAX_INJECT_ROUNDS {
            let doc = &page.frames[frame_idx].doc;
            let len = doc.len();
            scan.scan(doc);
            if round == MAX_INJECT_ROUNDS {
                break;
            }
            for &node in scan.scripts.iter().filter(|n| n.index() >= scanned) {
                self.process_script(page, frame_idx, node, top_host, effects);
            }
            scanned = len;
            if page.frames[frame_idx].doc.len() == len {
                break;
            }
        }
        if let Some(node) = scan.adblock {
            effects.detectors.push((frame_idx, node));
        }

        // Other passive subresources (images, stylesheets) — fetched for
        // cookie side effects, no DOM impact.
        for &node in &scan.passive {
            let frame = &page.frames[frame_idx];
            let src = frame
                .doc
                .attr(node, "src")
                .or_else(|| frame.doc.attr(node, "href"));
            let Some(Ok(url)) = src.map(|src| frame.url.join(src)) else {
                continue;
            };
            if url == frame.url {
                continue;
            }
            if self.blocked_by_extension(page, &url, top_host) {
                continue;
            }
            self.fetch_following(&url, Some(top_host));
        }

        // Iframes.
        if depth < MAX_FRAME_DEPTH {
            for &node in &scan.iframes {
                let frame = &page.frames[frame_idx];
                let src = frame.doc.attr(node, "src");
                let Some(Ok(url)) = src.map(|src| frame.url.join(src)) else {
                    continue;
                };
                if self.blocked_by_extension(page, &url, top_host) {
                    continue;
                }
                let (resp, redirected) = self.fetch_following(&url, Some(top_host));
                if resp.status != 200 {
                    continue;
                }
                let doc = parse(&String::from_utf8_lossy(&resp.body));
                page.frames.push(Frame {
                    doc,
                    url: redirected.unwrap_or(url),
                    parent: Some((frame_idx, node)),
                });
                let new_idx = page.frames.len() - 1;
                self.process_frame(page, new_idx, depth + 1, top_host, effects);
            }
        }
        self.scan = scan;
    }

    fn process_script(
        &mut self,
        page: &mut Page,
        frame_idx: usize,
        node: NodeId,
        top_host: &str,
        effects: &mut LoadEffects,
    ) {
        let frame = &page.frames[frame_idx];
        let src = frame.doc.attr(node, "src");
        let Some(Ok(url)) = src.map(|src| frame.url.join(src)) else {
            return;
        };
        if self.blocked_by_extension(page, &url, top_host) {
            return;
        }
        let (resp, _) = self.fetch_following(&url, Some(top_host));
        if resp.status != 200 {
            return;
        }
        // The fetch leaves the document as it was, so its attributes are
        // read only now.
        let doc = &mut page.frames[frame_idx].doc;
        let body = String::from_utf8_lossy(&resp.body);
        let target = doc
            .attr(node, "data-cw-inject")
            .and_then(|id| doc.get_element_by_id(id));
        if let Some(target) = target {
            parse_fragment_into(doc, target, &body);
        }
        if doc.attr(node, "data-smp-check").is_some() && body.trim() == "entitled" {
            effects.entitled_cookie = Some(entitlement_cookie(doc.attr(node, "data-smp-set")));
        }
    }

    // ------------------------------------------------------- interaction

    /// Click an element. Consent actions set their cookie and reload; the
    /// subscribe action navigates to its target.
    // lint:allow(r9) — a click runs once per consent interaction, after the load, and copies the attributes it acts on out of the page it reloads
    pub fn click(&mut self, page: &Page, target: ElementRef) -> Result<ClickOutcome, VisitError> {
        let frame = &page.frames[target.frame];
        let doc = &frame.doc;
        // The action attribute may sit on the clicked node or an ancestor
        // (clicks bubble).
        let mut cursor = Some(target.node);
        let mut action = None;
        while let Some(n) = cursor {
            if let Some(a) = doc.attr(n, "data-cw-action") {
                action = Some((n, a.to_string()));
                break;
            }
            cursor = doc.node(n).parent;
        }
        let Some((action_node, action)) = action else {
            return Ok(ClickOutcome::NotInteractive);
        };
        let site = httpsim::registrable_domain(page.host())
            .unwrap_or(page.host())
            .to_string();
        match action.as_str() {
            "accept" | "reject" => {
                let default = format!(
                    "cw_consent={}",
                    if action == "accept" {
                        "accepted"
                    } else {
                        "rejected"
                    }
                );
                let cookie_spec = doc
                    .attr(action_node, "data-cw-cookie")
                    .unwrap_or(default.as_str())
                    .to_string();
                if let Some((name, value)) = cookie_spec.split_once('=') {
                    self.set_site_cookie(&site, name, value);
                    // The consent script also persists its state to
                    // localStorage (the §5 revocation pitfall).
                    self.storage.set(&site, name, value);
                }
                let reloaded = self.visit(&page.url)?;
                Ok(if action == "accept" {
                    ClickOutcome::Accepted(reloaded)
                } else {
                    ClickOutcome::Rejected(reloaded)
                })
            }
            "subscribe" => {
                let href = doc
                    .attr(action_node, "href")
                    .unwrap_or("/subscribe")
                    .to_string();
                let url = frame
                    .url
                    .join(&href)
                    .map_err(|_| VisitError::Unreachable(href))?;
                let landed = self.visit(&url)?;
                Ok(ClickOutcome::SubscribeNavigation(landed))
            }
            _ => Ok(ClickOutcome::NotInteractive),
        }
    }

    /// Emulate the consent script's load-time restore: if the site's
    /// localStorage holds consent state but the matching cookie is gone
    /// (e.g. the user deleted cookies), the script re-sets the cookie —
    /// the §5 pitfall that makes cookie-only revocation ineffective.
    // lint:allow(r9) — the restored name/value pairs are copied out of storage before the jar is written, and only when storage holds consent state
    fn restore_consent_from_storage(&mut self, url: &Url) {
        if self.storage.origin_count() == 0 {
            return;
        }
        let site = httpsim::registrable_domain(url.host()).unwrap_or(url.host());
        let restore: Vec<(String, String)> = {
            let mut v = Vec::new();
            for key in ["cw_consent", "cw_sub"] {
                if let Some(value) = self.storage.get(site, key) {
                    let missing = !self.jar.cookies_for(url).any(|c| c.name() == key);
                    if missing {
                        v.push((key.to_string(), value.to_string()));
                    }
                }
            }
            v
        };
        for (name, value) in restore {
            self.set_site_cookie(site, &name, &value);
        }
    }

    /// Store a first-party cookie on `site` (registrable domain), as a
    /// page's own JavaScript would via `document.cookie`.
    // lint:allow(r9) — runs on consent clicks, entitlement reloads and consent restores, never on a plain visit
    pub fn set_site_cookie(&mut self, site: &str, name: &str, value: &str) {
        let Ok(origin) = Url::parse(&format!("https://{site}/")) else {
            // An unparsable site name cannot hold a cookie; drop it rather
            // than aborting the crawl mid-visit.
            return;
        };
        let header = format!("{name}={value}; Domain={site}; Path=/; Max-Age=31536000");
        self.jar.store_response_cookies([header.as_str()], &origin);
    }

    // ------------------------------------------------------------- SMPs

    /// Log in at an SMP account host. Returns true if the platform issued a
    /// session cookie — also when it replaces the one a previous login
    /// stored.
    // lint:allow(r9) — a login runs once per profile, before any visit
    pub fn login_smp(&mut self, account_host: &str, user: &str, password: &str) -> bool {
        let Ok(url) = Url::parse(&format!("https://{account_host}/login")) else {
            return false;
        };
        let resp = self.send(&url, None, Some(&[("user", user), ("pass", password)]));
        self.store_cookies(&resp, &url) > 0
    }
}

/// What a load's frames did beyond their own documents.
#[derive(Default)]
struct LoadEffects {
    /// A successful SMP entitlement probe's cookie (name, value).
    entitled_cookie: Option<(String, String)>,
    /// Each frame's first adblock detector, in frame order.
    detectors: Vec<(usize, NodeId)>,
}

/// The cookie a successful entitlement probe sets: `data-smp-set`'s
/// `NAME=VALUE`, or `cw_sub=1`.
// lint:allow(r9) — runs only for a subscriber's entitled probe, once per load at most
fn entitlement_cookie(spec: Option<&str>) -> (String, String) {
    spec.and_then(|s| s.split_once('='))
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .unwrap_or(("cw_sub".to_string(), "1".to_string()))
}

/// Post-load observations: scroll lock and adblock interstitial.
// lint:allow(r9) — the interstitial is built only when a detector saw a blocked request
fn finish_page(page: &mut Page, detectors: &[(usize, NodeId)]) {
    let main = &page.frames[0].doc;
    if let Some(body) = main.body() {
        page.scroll_locked = main
            .style(body)
            .get("overflow")
            .is_some_and(|v| v.eq_ignore_ascii_case("hidden"));
    }
    if !detectors.is_empty() && page.anything_blocked() {
        let message = detectors
            .iter()
            .find_map(|&(frame, node)| page.frames[frame].doc.attr(node, "data-message"))
            .unwrap_or("Please disable your ad blocker")
            .to_string();
        let main = &mut page.frames[0].doc;
        if let Some(body) = main.body() {
            let overlay = main.create_element("div");
            main.set_attr(overlay, "id", "adblock-interstitial");
            main.set_attr(overlay, "class", "adblock-wall");
            main.set_attr(overlay, "style", "position:fixed;top:0;z-index:999999");
            let p = main.create_element("p");
            let text = main.create_text(&message);
            main.append_child(p, text);
            main.append_child(overlay, p);
            main.append_child(body, overlay);
        }
        page.adblock_interstitial = true;
    }
}

/// The fixed selectors a load evaluates, parsed once per process.
struct LoadSelectors {
    scripts: SelectorList,
    passive: SelectorList,
    iframes: SelectorList,
    adblock: SelectorList,
}

fn load_selectors() -> &'static LoadSelectors {
    static SELECTORS: OnceLock<LoadSelectors> = OnceLock::new();
    SELECTORS.get_or_init(|| {
        // The literals parse (`tests::load_selectors_parse`); were one not
        // to, it would match nothing rather than abort the crawl.
        let parse = |s| {
            SelectorList::parse(s).unwrap_or(SelectorList {
                selectors: Vec::new(),
            })
        };
        LoadSelectors {
            scripts: parse("script[src]"),
            passive: parse("img[src], link[href]"),
            iframes: parse("iframe[src]"),
            adblock: parse("[data-detect-adblock]"),
        }
    })
}

/// One walk over a frame's light DOM *and* every shadow tree — scripts in
/// shadow trees execute like any others — listing the elements a load
/// acts on, each list in document order, light DOM first, then each
/// shadow tree in host order.
#[derive(Default)]
struct FrameScan {
    /// `script[src]`.
    scripts: Vec<NodeId>,
    /// `img[src], link[href]`.
    passive: Vec<NodeId>,
    /// `iframe[src]`.
    iframes: Vec<NodeId>,
    /// The first `[data-detect-adblock]`.
    adblock: Option<NodeId>,
}

impl FrameScan {
    fn scan(&mut self, doc: &Document) {
        let selectors = load_selectors();
        self.scripts.clear();
        self.passive.clear();
        self.iframes.clear();
        self.adblock = None;
        for scope in doc.scopes() {
            for el in doc.descendant_elements(scope) {
                if selectors.scripts.matches(doc, el) {
                    self.scripts.push(el);
                }
                if selectors.passive.matches(doc, el) {
                    self.passive.push(el);
                }
                if selectors.iframes.matches(doc, el) {
                    self.iframes.push(el);
                }
                if self.adblock.is_none() && selectors.adblock.matches(doc, el) {
                    self.adblock = Some(el);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_selectors_parse() {
        let s = load_selectors();
        for list in [&s.scripts, &s.passive, &s.iframes, &s.adblock] {
            assert!(!list.selectors.is_empty());
        }
        assert_eq!(s.passive.selectors.len(), 2);
    }
}
