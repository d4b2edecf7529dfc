//! Origin servers of the synthetic web.
//!
//! [`install`] mounts a generated [`Population`] onto an
//! [`httpsim::Network`]: one geo- and consent-aware server per site, the
//! tracker and benign third-party hosts, the two SMP platforms (CDN +
//! account hosts), and the CMP delivery host. Everything a page does —
//! which banner it embeds and how, which trackers it loads after consent,
//! how many cookies each party sets, how it reacts to bots and blocked
//! bait scripts — is decided here, purely as a function of the request and
//! the site's ground-truth spec.

use crate::content;
use crate::names::{push_decimal, rng_for_hash, StableHasher};
use crate::population::Population;
use crate::spec::{BannerKind, Cmp, Embedding, Serving, SiteSpec, Smp};
use crate::trackers::{plan_benign, plan_trackers};
use httpsim::{Method, Network, Region, Request, Response};
use rand::Rng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the consent cookie sites set after banner interaction.
pub const CONSENT_COOKIE: &str = "cw_consent";
/// Name of the first-party cookie marking a verified SMP subscription.
pub const SUBSCRIPTION_COOKIE: &str = "cw_sub";

/// Install the whole population onto `net`. Returns the shared handle that
/// also serves the infrastructure hosts.
pub fn install(population: Arc<Population>, net: &Network) {
    install_with_faults(population, net, None);
}

/// Like [`install`], but with an optional fault-injection plan wrapped
/// around every *site* origin ([`httpsim::FaultyServer`]). Infrastructure
/// hosts (trackers, SMP/CMP CDNs) stay fault-free: the study's unit of
/// failure is the site visit, and a faulted navigation never reaches
/// subresources anyway. A `None` plan is exactly [`install`].
pub fn install_with_faults(
    population: Arc<Population>,
    net: &Network,
    fault_plan: Option<Arc<httpsim::FaultPlan>>,
) {
    let shared = Arc::new(WebServers {
        population: Arc::clone(&population),
        visits: (0..population.sites().len())
            .map(|_| AtomicU64::new(0))
            .collect(),
    });

    for (idx, site) in population.sites().iter().enumerate() {
        // Dead sites stay unregistered: visiting them fails with a
        // connection error, like a lapsed domain in a real toplist.
        if population.is_dead(&site.domain) {
            continue;
        }
        let server: Arc<dyn httpsim::Server> = Arc::new(SiteHandler {
            shared: Arc::clone(&shared),
            site_index: idx,
        });
        let server = match &fault_plan {
            Some(plan) => Arc::new(httpsim::FaultyServer::new(server, Arc::clone(plan))) as _,
            None => server,
        };
        net.register(&site.domain, server);
    }
    for tracker in crate::trackers::tracker_pool() {
        net.register(tracker, Arc::new(TrackerHandler));
    }
    for benign in crate::trackers::BENIGN_THIRD_PARTIES {
        net.register(benign, Arc::new(BenignHandler));
    }
    for smp in [Smp::Contentpass, Smp::Freechoice] {
        net.register(
            smp.cdn_host(),
            Arc::new(SmpCdnHandler {
                shared: Arc::clone(&shared),
                smp,
            }),
        );
        net.register(smp.account_host(), Arc::new(SmpAccountHandler { smp }));
    }
    for cmp in Cmp::ALL {
        net.register(
            cmp.host(),
            Arc::new(CmpCdnHandler {
                shared: Arc::clone(&shared),
            }),
        );
    }
}

/// State shared by every handler: the population plus per-site visit
/// counters (the only mutable state; it drives per-repetition noise).
struct WebServers {
    population: Arc<Population>,
    visits: Vec<AtomicU64>,
}

/// Consent state a request reveals about the visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsentState {
    Fresh,
    Accepted,
    Rejected,
    Subscribed,
}

fn consent_state(req: &Request<'_>) -> ConsentState {
    if req.cookie(SUBSCRIPTION_COOKIE) == Some("1") {
        ConsentState::Subscribed
    } else {
        match req.cookie(CONSENT_COOKIE) {
            Some("accepted") => ConsentState::Accepted,
            Some("rejected") => ConsentState::Rejected,
            _ => ConsentState::Fresh,
        }
    }
}

/// Does the UA look like an automation tool? Sites with bot detection hide
/// their consent UI from such clients (§3's measurement limitation).
fn looks_like_bot(user_agent: &str) -> bool {
    let ua = user_agent.as_bytes();
    [
        "bot",
        "crawler",
        "spider",
        "headless",
        "python-requests",
        "curl",
    ]
    .iter()
    .any(|m| {
        ua.windows(m.len())
            .any(|w| w.eq_ignore_ascii_case(m.as_bytes()))
    })
}

/// Noise lanes: one independent stream per cookie quantity.
const FIRST_PARTY_LANE: u64 = 1;
const BENIGN_LANE: u64 = 2;
const TRACKING_LANE: u64 = 3;

/// The noise seed of one visit: the stable hash of `noise/{domain}/{visit}`,
/// streamed rather than built.
fn noise_seed(domain: &str, visit: u64) -> u64 {
    StableHasher::new()
        .write(b"noise/")
        .write(domain.as_bytes())
        .write(b"/")
        .write_decimal(visit)
        .finish()
}

/// Per-repetition multiplicative noise on cookie counts (advertising
/// variability; the reason the paper averages five repetitions). Each lane
/// is a pure function of `(domain, visit, lane)`, so a page draws only the
/// lanes whose counts it reads.
fn noisy(base: u32, seed: u64, lane: u64) -> u32 {
    if base == 0 {
        return 0;
    }
    let mut rng = rng_for_hash(seed, lane);
    let factor: f64 = rng.random_range(0.85..1.15);
    ((base as f64) * factor).round().max(0.0) as u32
}

/// Should this site's wall/banner be shown to a visitor from `region` right
/// now? Applies ground-truth targeting plus the small per-(site, region)
/// flakiness that makes non-EU detection counts vary between 190 and 199
/// across vantage points (Table 1).
fn ui_visible(site: &SiteSpec, region: Region) -> bool {
    match &site.banner {
        BannerKind::None => false,
        BannerKind::DecoyPaywall => true,
        BannerKind::Banner(b) => !b.eu_only || region.is_eu(),
        BannerKind::Cookiewall(_) => {
            if !site.wall_targets_region(region) {
                return false;
            }
            if region.is_eu() {
                return true;
            }
            // Sites on the visitor's own country list are always stable
            // (the five Australian walls must show from Australia).
            if site.on_toplist(crate::spec::Country::for_region(region)) {
                return true;
            }
            // ~3% per-(site, region) dropout: geo-CDN quirks, keyed on
            // the stable hash of `flaky/{domain}/{region}`.
            let flaky = StableHasher::new()
                .write(b"flaky/")
                .write(site.domain.as_bytes())
                .write(b"/")
                .write(region.label().as_bytes())
                .finish();
            flaky % 1000 >= 30
        }
    }
}

// ------------------------------------------------------------------ sites

struct SiteHandler {
    shared: Arc<WebServers>,
    site_index: usize,
}

impl httpsim::Server for SiteHandler {
    fn handle(&self, req: &Request<'_>) -> Response {
        let site = &self.shared.population.sites()[self.site_index];
        match req.url.path() {
            "/static/app.js" => Response::script("/* site application bundle */"),
            path if path.starts_with("/ads/") => Response::script("/* ad slot loader */"),
            "/privacy" | "/datenschutz" => {
                Response::html("<html><body><h1>Privacy</h1></body></html>")
            }
            "/abo" | "/subscribe" => Response::html(
                "<html><body><h1>Subscription checkout</h1><form>…</form></body></html>",
            ),
            _ => {
                let visit = self.shared.visits[self.site_index].fetch_add(1, Ordering::Relaxed);
                render_main_page(site, req, visit)
            }
        }
    }
}

/// Render a site's main page for one request: the body is one String,
/// and every Set-Cookie line is written into the response's one cookie
/// buffer.
fn render_main_page(site: &SiteSpec, req: &Request<'_>, visit: u64) -> Response {
    let state = consent_state(req);
    let lang = site.language;
    let domain = &site.domain;
    let bot = site.bot_sensitive && looks_like_bot(req.user_agent);
    let show_ui = !bot && state == ConsentState::Fresh && ui_visible(site, req.region);

    // Which cookie quantities apply in this state.
    let base = match state {
        ConsentState::Accepted => site.cookies.accepted,
        ConsentState::Subscribed => site.cookies.subscribed,
        ConsentState::Fresh | ConsentState::Rejected => site.cookies.pre_consent,
    };
    let noise = noise_seed(domain, visit);

    let mut body = String::with_capacity(4096);
    body.push_str("<html><head><title>");
    body.push_str(domain);
    body.push_str("</title></head>");

    // Scroll lock: inline when the wall markup itself is inline (first
    // party), or when the site is the scroll-breaker special case whose
    // inline style outlives a blocked wall. Remote-served walls normally
    // manage the lock from their own (blockable) script, so nothing is
    // emitted for them here.
    let wall_inline_lock = match &site.banner {
        BannerKind::Cookiewall(cw) if show_ui => {
            cw.serving == Serving::FirstParty || cw.breaks_scroll_when_blocked
        }
        _ => false,
    };
    if wall_inline_lock {
        body.push_str("<body style=\"overflow:hidden\">");
    } else {
        body.push_str("<body>");
    }

    body.push_str("<header><h1>");
    body.push_str(domain);
    body.push_str("</h1><nav><a href=\"/privacy\">Privacy</a></nav></header><main>");
    let sentences = content::body_sentences(lang);
    let offset = crate::names::stable_hash(domain) as usize;
    for i in 0..4 {
        body.push_str("<p>");
        body.push_str(sentences[(offset + i) % sentences.len()]);
        body.push_str("</p>");
    }
    body.push_str("</main>");

    // Essential first-party script, always present.
    body.push_str("<script src=\"/static/app.js\"></script>");

    // Adblock bait + detector shell (special-case site).
    if let BannerKind::Cookiewall(cw) = &site.banner {
        if cw.detects_adblock {
            body.push_str(
                "<script src=\"/ads/ad-delivery/bait.js\"></script>\
                 <div data-detect-adblock data-message=\"",
            );
            body.push_str(content::adblock_message(lang));
            body.push_str("\"></div>");
        }
    }

    // Consent UI.
    if show_ui {
        render_consent_ui(&mut body, site);
    }

    // Post-consent third parties.
    if state == ConsentState::Accepted {
        let tracking = noisy(base.tracking, noise, TRACKING_LANE);
        for plan in plan_trackers(domain, visit, tracking) {
            body.extend(["<script src=\"https://", plan.host, "/t.js?n="]);
            push_decimal(&mut body, plan.cookies.into());
            body.push_str("&o=");
            push_decimal(&mut body, plan.name_offset.into());
            body.extend(["&site=", domain]);
            if let Some(sync) = plan.sync_with {
                body.extend(["&sync=", sync]);
            }
            body.push_str("\"></script>");
        }
    }
    if matches!(state, ConsentState::Accepted | ConsentState::Subscribed) {
        let benign = noisy(base.benign_third_party, noise, BENIGN_LANE);
        for (i, host) in plan_benign(domain, visit, benign).into_iter().enumerate() {
            body.extend([
                "<script src=\"https://",
                host,
                "/c.js?site=",
                domain,
                "&slot=",
            ]);
            push_decimal(&mut body, i as u64);
            body.push_str("\"></script>");
        }
    }

    body.push_str("<footer>© ");
    body.push_str(domain);
    body.push_str("</footer></body></html>");

    // First-party cookies.
    let first_party = noisy(base.first_party, noise, FIRST_PARTY_LANE);
    let mut resp = Response::html(body);
    resp.reserve_cookies(first_party.max(1) as usize * COOKIE_LINE_BYTES);
    resp.add_cookie_line(|line| {
        line.push_str("sid=");
        push_decimal(line, visit);
        line.push_str("; Path=/");
    });
    for i in 1..first_party {
        resp.add_cookie_line(|line| {
            line.push_str("fp");
            push_decimal(line, i.into());
            line.push_str("=v");
            push_decimal(line, visit);
            line.push_str("; Path=/; Max-Age=31536000");
        });
    }
    resp
}

/// Room reserved per first-party Set-Cookie line: `fp{i}=v{visit}` plus
/// its attributes and the line end fit for any plausible visit count.
const COOKIE_LINE_BYTES: usize = 48;

/// Emit the consent UI (banner, wall, or decoy paywall) for a fresh visit.
fn render_consent_ui(body: &mut String, site: &SiteSpec) {
    let lang = site.language;
    let domain = &site.domain;
    match &site.banner {
        BannerKind::None => {}
        BannerKind::DecoyPaywall => {
            // Inline hard paywall whose copy trips the word classifier.
            body.push_str(
                "<div id=\"premium-gate\" class=\"paywall-overlay\" \
                 style=\"position:fixed;top:0;z-index:99999\"><p>",
            );
            // Decoy price is stored in the roster; the population keeps
            // decoys simple, so derive a stable price from the domain.
            let price = crate::spec::PriceSpec {
                amount_cents: 499 + (crate::names::stable_hash(domain) % 5) as u32 * 100,
                currency: crate::spec::Currency::Eur,
                period: crate::spec::Period::Month,
            };
            let _ = write!(
                body,
                "{}",
                content::decoy_paywall_text(lang, domain, &price)
            );
            body.push_str("</p><a href=\"/subscribe\" class=\"paywall-cta\">");
            body.push_str(content::subscribe_label(lang));
            body.push_str("</a></div>");
        }
        BannerKind::Banner(b) => match (b.embedding, b.serving) {
            (Embedding::Iframe, _) => {
                let _ = write!(
                    body,
                    "<iframe id=\"cmp-frame\" title=\"consent\" \
                     src=\"https://{}/banner?site={}\" \
                     style=\"position:fixed;bottom:0;z-index:9999;width:100%;height:220px\">\
                     </iframe>",
                    Cmp::for_domain(domain).host(),
                    domain
                );
            }
            (emb, Serving::CmpScript) => {
                let _ = write!(
                    body,
                    "<div id=\"cmp-mount\" data-cmp-shell></div>\
                     <script src=\"https://{}/banner.js?site={}&shadow={}\" \
                     data-cw-inject=\"cmp-mount\"></script>",
                    Cmp::for_domain(domain).host(),
                    domain,
                    shadow_param(emb)
                );
            }
            (emb, _) => embed(body, emb, "cmp-host", |body| {
                banner_fragment(body, site, b.has_reject, b.has_settings)
            }),
        },
        BannerKind::Cookiewall(cw) => match (cw.embedding, cw.serving) {
            (Embedding::Iframe, Serving::SmpCdn) => {
                let cdn = cw.smp.expect("SmpCdn serving implies an SMP").cdn_host();
                let _ = write!(
                    body,
                    "<iframe id=\"cw-frame\" title=\"consent-or-pay\" \
                     src=\"https://{cdn}/wall?site={domain}\" \
                     style=\"position:fixed;top:0;z-index:100000;width:100%;height:100%\">\
                     </iframe>"
                );
            }
            (Embedding::Iframe, _) => {
                let _ = write!(
                    body,
                    "<iframe id=\"cw-frame\" title=\"consent-or-pay\" \
                     src=\"https://{}/wall?site={}\" \
                     style=\"position:fixed;top:0;z-index:100000;width:100%;height:100%\">\
                     </iframe>",
                    Cmp::for_domain(domain).host(),
                    domain
                );
            }
            (emb, Serving::SmpCdn) => {
                let cdn = cw.smp.expect("SmpCdn serving implies an SMP").cdn_host();
                let _ = write!(
                    body,
                    "<div id=\"cw-mount\" data-cmp-shell></div>\
                     <script src=\"https://{cdn}/wall.js?site={domain}&shadow={}\" \
                     data-cw-inject=\"cw-mount\"></script>",
                    shadow_param(emb)
                );
            }
            (emb, Serving::CmpScript) => {
                let _ = write!(
                    body,
                    "<div id=\"cw-mount\" data-cmp-shell></div>\
                     <script src=\"https://{}/wall.js?site={}&shadow={}\" \
                     data-cw-inject=\"cw-mount\"></script>",
                    Cmp::for_domain(domain).host(),
                    domain,
                    shadow_param(emb)
                );
            }
            (emb, Serving::FirstParty) => {
                embed(body, emb, "cw-host", |body| wall_fragment(body, site, cw))
            }
        },
    }
}

fn shadow_param(emb: Embedding) -> &'static str {
    match emb {
        Embedding::ShadowOpen => "open",
        Embedding::ShadowClosed => "closed",
        _ => "none",
    }
}

/// The embedding a CDN script request's `shadow` parameter asks for:
/// `open` or `closed` shadow roots, anything else plain markup.
fn shadow_embedding(param: Option<&str>) -> Embedding {
    match param {
        Some("open") => Embedding::ShadowOpen,
        Some("closed") => Embedding::ShadowClosed,
        _ => Embedding::MainDom,
    }
}

/// Write a fragment according to its embedding: plain (main DOM) or
/// behind a declarative shadow root on a host element `host_id`.
fn embed(body: &mut String, emb: Embedding, host_id: &str, fragment: impl FnOnce(&mut String)) {
    let mode = match emb {
        Embedding::ShadowOpen => Some("open"),
        Embedding::ShadowClosed => Some("closed"),
        _ => None,
    };
    if let Some(mode) = mode {
        let _ = write!(
            body,
            "<div id=\"{host_id}\"><template shadowrootmode=\"{mode}\">"
        );
    }
    fragment(body);
    if mode.is_some() {
        body.push_str("</template></div>");
    }
}

/// Write the markup of a regular cookie banner.
fn banner_fragment(body: &mut String, site: &SiteSpec, has_reject: bool, has_settings: bool) {
    let lang = site.language;
    let _ = write!(
        body,
        "<div id=\"cmp-banner\" class=\"cmp-container cookie-consent\" \
         style=\"position:fixed;bottom:0;z-index:9999\"><p>{}</p>\
         <button class=\"cmp-accept\" data-cw-action=\"accept\">{}</button>",
        content::banner_text(lang),
        content::accept_label(lang),
    );
    if has_reject {
        let _ = write!(
            body,
            "<button class=\"cmp-reject\" data-cw-action=\"reject\">{}</button>",
            content::reject_label(lang)
        );
    }
    if has_settings {
        let _ = write!(
            body,
            "<a class=\"cmp-settings\" data-cw-action=\"settings\" href=\"/privacy\">{}</a>",
            content::settings_label(lang)
        );
    }
    body.push_str("<a href=\"/privacy\">·</a></div>");
}

/// Write the markup of a cookiewall (no reject — accept or pay).
fn wall_fragment(body: &mut String, site: &SiteSpec, cw: &crate::spec::CookiewallSpec) {
    let lang = site.language;
    let text = content::wall_text(lang, &site.domain, &cw.price, cw.smp.map(Smp::name));
    // `text` writes itself into `body`: no intermediate String.
    let _ = write!(
        body,
        "<div id=\"cw-wall\" class=\"consent-wall purabo\" \
         style=\"position:fixed;top:0;z-index:100000\"><h2>{}</h2><p>{}</p>\
         <button class=\"cw-accept\" data-cw-action=\"accept\">{}</button>\
         <a class=\"cw-subscribe\" data-cw-action=\"subscribe\" href=\"",
        site.domain,
        text,
        content::accept_label(lang),
    );
    match cw.smp {
        Some(smp) => {
            let _ = write!(
                body,
                "https://{}/subscribe?site={}",
                smp.account_host(),
                site.domain
            );
        }
        None => body.push_str("/abo"),
    }
    let _ = write!(body, "\">{}</a>", content::subscribe_label(lang));
    if let Some(smp) = cw.smp {
        // Entitlement probe: runs against the SMP account host where the
        // login session cookie lives. The browser reacts to the response.
        let _ = write!(
            body,
            "<script src=\"https://{}/check.js?site={}\" data-smp-check=\"{}\"></script>",
            smp.account_host(),
            site.domain,
            smp.name()
        );
    }
    body.push_str("</div>");
}

// --------------------------------------------------------------- trackers

struct TrackerHandler;

impl httpsim::Server for TrackerHandler {
    // lint:allow(r9) — the Location of a cookie-sync bounce is built only when the tracker syncs
    fn handle(&self, req: &Request<'_>) -> Response {
        let [site, n, o, sync] = query_params(req, ["site", "n", "o", "sync"]);
        let site = site.unwrap_or_default();
        if req.url.path() == "/s.gif" {
            // Cookie-sync endpoint: one distinctly named cookie.
            return Response::no_content().with_cookie_line(|line| {
                line.extend([
                    "sync_",
                    site,
                    "=1; Path=/; Max-Age=31536000; SameSite=None; Secure",
                ])
            });
        }
        let n: u32 = n.and_then(|v| v.parse().ok()).unwrap_or(1);
        let o: u32 = o.and_then(|v| v.parse().ok()).unwrap_or(0);
        let mut resp = match sync {
            // Classic cookie syncing: bounce to the partner, which sets one
            // cookie under its own domain. The sync cookie name is distinct
            // from the partner's regular `uid_…` cookies so the jar's
            // (name, domain, path) replacement cannot silently merge them.
            Some(sync) => Response::redirect(format!("https://{sync}/s.gif?site={site}")),
            None => Response::script("/* tracking tag */"),
        };
        resp.reserve_cookies(n as usize * (site.len() + TRACKER_LINE_BYTES));
        // Each cookie's uid is the stable hash of `{host}/{site}/{k}`,
        // streamed on from the hash of the shared `{host}/{site}/`.
        let prefix = StableHasher::new()
            .write(req.url.host().as_bytes())
            .write(b"/")
            .write(site.as_bytes())
            .write(b"/");
        for i in 0..n {
            let k = o + i;
            let uid = prefix.write_decimal(u64::from(k)).finish();
            resp.add_cookie_line(|line| {
                line.extend(["uid_", site, "_"]);
                push_decimal(line, k.into());
                line.push_str("=u");
                push_decimal(line, uid);
                line.push_str("; Path=/; Max-Age=31536000; SameSite=None; Secure");
            });
        }
        resp
    }
}

/// The values of the query parameters `names`, found in one pass over
/// the query: each is what [`Request::query_param`] returns for it (the
/// first `name=value` pair wins).
fn query_params<'a, const N: usize>(req: &Request<'a>, names: [&str; N]) -> [Option<&'a str>; N] {
    let mut found = [None; N];
    for pair in req.url.query().unwrap_or_default().split('&') {
        if let Some((k, v)) = pair.split_once('=') {
            if let Some(i) = names.iter().position(|name| *name == k) {
                found[i].get_or_insert(v);
            }
        }
    }
    found
}

/// Room reserved per tracker Set-Cookie line beyond the site name: the
/// cookie index, the 20-digit uid, the attributes and the line end.
const TRACKER_LINE_BYTES: usize = 96;

struct BenignHandler;

impl httpsim::Server for BenignHandler {
    fn handle(&self, req: &Request<'_>) -> Response {
        let [site, slot] = query_params(req, ["site", "slot"]);
        let (site, slot) = (site.unwrap_or_default(), slot.unwrap_or_default());
        Response::script("/* cdn asset */").with_cookie_line(|line| {
            line.extend(["pref_", site, "_", slot, "=1; Path=/; Max-Age=604800"])
        })
    }
}

// ------------------------------------------------------------------- SMPs

struct SmpCdnHandler {
    shared: Arc<WebServers>,
    smp: Smp,
}

impl httpsim::Server for SmpCdnHandler {
    fn handle(&self, req: &Request<'_>) -> Response {
        let Some(site_domain) = req.query_param("site") else {
            return Response::not_found();
        };
        let Some(site) = self.shared.population.site(site_domain) else {
            return Response::not_found();
        };
        let BannerKind::Cookiewall(cw) = &site.banner else {
            return Response::not_found();
        };
        let mut body = String::with_capacity(FRAGMENT_BYTES);
        match req.url.path() {
            "/wall" => {
                // Full document for iframe embedding.
                let _ = write!(
                    body,
                    "<html><head><title>{} consent</title></head><body>",
                    self.smp.name()
                );
                wall_fragment(&mut body, site, cw);
                body.push_str("</body></html>");
                Response::html(body)
            }
            "/wall.js" => {
                // Injectable fragment; shadow wrapping decided by query.
                let emb = shadow_embedding(req.query_param("shadow"));
                embed(&mut body, emb, "cw-inner", |body| {
                    wall_fragment(body, site, cw)
                });
                Response::script(body)
            }
            _ => Response::not_found(),
        }
    }
}

/// Initial capacity of a rendered banner or wall document.
const FRAGMENT_BYTES: usize = 2048;

struct SmpAccountHandler {
    smp: Smp,
}

impl httpsim::Server for SmpAccountHandler {
    // lint:allow(r9) — the checkout page is rendered only for a subscribe navigation
    fn handle(&self, req: &Request<'_>) -> Response {
        match req.url.path() {
            "/login" if req.method == Method::Post => {
                let ok = req
                    .body_params
                    .iter()
                    .any(|(k, v)| *k == "user" && !v.is_empty());
                if ok {
                    Response::html("<html><body>Welcome back</body></html>").with_cookie(
                        format_args!(
                            "{}=tok-{}; Path=/; Secure; HttpOnly; SameSite=None; Max-Age=2592000",
                            self.smp.session_cookie(),
                            crate::names::stable_hash(self.smp.name())
                        ),
                    )
                } else {
                    Response::html("<html><body>Login failed</body></html>")
                }
            }
            "/check.js" => {
                // Entitlement probe: valid session cookie ⇒ entitled.
                let entitled = req
                    .cookie(self.smp.session_cookie())
                    .is_some_and(|v| v.starts_with("tok-"));
                Response::script(if entitled { "entitled" } else { "anon" })
            }
            "/subscribe" => Response::html(format!(
                "<html><body><h1>{} — 2,99 € pro Monat</h1><form>…</form></body></html>",
                self.smp.name()
            )),
            _ => Response::not_found(),
        }
    }
}

// -------------------------------------------------------------------- CMP

struct CmpCdnHandler {
    shared: Arc<WebServers>,
}

impl httpsim::Server for CmpCdnHandler {
    fn handle(&self, req: &Request<'_>) -> Response {
        let Some(site_domain) = req.query_param("site") else {
            return Response::not_found();
        };
        let Some(site) = self.shared.population.site(site_domain) else {
            return Response::not_found();
        };
        let emb = shadow_embedding(req.query_param("shadow"));
        let mut body = String::with_capacity(FRAGMENT_BYTES);
        match (req.url.path(), &site.banner) {
            ("/banner", BannerKind::Banner(b)) => {
                body.push_str("<html><body>");
                banner_fragment(&mut body, site, b.has_reject, b.has_settings);
                body.push_str("</body></html>");
                Response::html(body)
            }
            ("/banner.js", BannerKind::Banner(b)) => {
                embed(&mut body, emb, "cmp-inner", |body| {
                    banner_fragment(body, site, b.has_reject, b.has_settings)
                });
                Response::script(body)
            }
            ("/wall", BannerKind::Cookiewall(cw)) => {
                body.push_str("<html><body>");
                wall_fragment(&mut body, site, cw);
                body.push_str("</body></html>");
                Response::html(body)
            }
            ("/wall.js", BannerKind::Cookiewall(cw)) => {
                embed(&mut body, emb, "cw-inner", |body| {
                    wall_fragment(body, site, cw)
                });
                Response::script(body)
            }
            _ => Response::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};
    use httpsim::Url;

    fn setup() -> (Arc<Population>, Network) {
        let pop = Arc::new(Population::generate(PopulationConfig::tiny()));
        let net = Network::new();
        install(Arc::clone(&pop), &net);
        (pop, net)
    }

    fn get(net: &Network, url: &str, region: Region) -> Response {
        let url = Url::parse(url).unwrap();
        net.dispatch(&Request::navigation(&url, region))
    }

    #[test]
    fn every_site_serves_a_page() {
        let (pop, net) = setup();
        for domain in pop.merged_targets() {
            let resp = get(&net, &format!("https://{domain}/"), Region::Germany);
            assert_eq!(resp.status, 200, "{domain}");
            assert!(
                resp.body_text().contains(&domain),
                "{domain} page mentions itself"
            );
            assert!(
                resp.set_cookies().next().is_some(),
                "{domain} sets a session cookie"
            );
        }
    }

    #[test]
    fn wall_site_shows_wall_to_eu_not_when_accepted() {
        let (pop, net) = setup();
        let wall = pop.ground_truth_walls()[0].domain.clone();
        let url = format!("https://{wall}/");
        let fresh = get(&net, &url, Region::Germany);
        let body = fresh.body_text();
        assert!(
            body.contains("cw-wall") || body.contains("cw-frame") || body.contains("cw-mount"),
            "wall UI present for fresh EU visit: {body}"
        );
        // With the consent cookie, trackers load and no wall shows.
        let url = Url::parse(&url).unwrap();
        let header = format!("{CONSENT_COOKIE}=accepted");
        let req = Request {
            cookie_header: Some(&header),
            ..Request::navigation(&url, Region::Germany)
        };
        let accepted = net.dispatch(&req);
        let body = accepted.body_text();
        assert!(!body.contains("cw-wall") && !body.contains("cw-frame"));
        assert!(body.contains("/t.js?"), "tracker tags present after accept");
    }

    #[test]
    fn eu_only_wall_hidden_from_us() {
        let (pop, net) = setup();
        let eu_only = pop
            .ground_truth_walls()
            .into_iter()
            .find(|s| matches!(&s.banner, BannerKind::Cookiewall(c) if c.visibility == crate::spec::Visibility::EuOnly));
        if let Some(site) = eu_only {
            let url = format!("https://{}/", site.domain);
            let us = get(&net, &url, Region::UsEast).body_text();
            assert!(
                !us.contains("cw-wall") && !us.contains("cw-frame") && !us.contains("cw-mount")
            );
            let de = get(&net, &url, Region::Germany).body_text();
            assert!(de.contains("cw-wall") || de.contains("cw-frame") || de.contains("cw-mount"));
        }
    }

    #[test]
    fn tracker_host_sets_requested_cookies() {
        let (_pop, net) = setup();
        let resp = get(
            &net,
            "https://doubleclick.net/t.js?n=4&site=zeitung.de",
            Region::Germany,
        );
        assert_eq!(resp.set_cookies().count(), 4);
        let first = resp.set_cookies().next().unwrap();
        // The uid is the stable hash of `{host}/{site}/{k}`.
        let uid = crate::names::stable_hash("doubleclick.net/zeitung.de/0");
        assert_eq!(
            first,
            format!("uid_zeitung.de_0=u{uid}; Path=/; Max-Age=31536000; SameSite=None; Secure")
        );
    }

    #[test]
    fn tracker_sync_redirects() {
        let (_pop, net) = setup();
        let resp = get(
            &net,
            "https://doubleclick.net/t.js?n=3&site=x.de&sync=criteo.com",
            Region::Germany,
        );
        assert!(resp.is_redirect());
        assert!(resp.location.as_deref().unwrap().contains("criteo.com"));
        assert_eq!(resp.set_cookies().count(), 3);
    }

    #[test]
    fn smp_login_and_entitlement() {
        let (_pop, net) = setup();
        let account = Smp::Contentpass.account_host();
        // Anonymous check.
        let anon = get(
            &net,
            &format!("https://{account}/check.js?site=x.de"),
            Region::Germany,
        );
        assert_eq!(anon.body_text(), "anon");
        // Login.
        let login_url = Url::parse(&format!("https://{account}/login")).unwrap();
        let login = Request {
            method: Method::Post,
            body_params: &[("user", "alice"), ("pass", "pw")],
            ..Request::navigation(&login_url, Region::Germany)
        };
        let resp = net.dispatch(&login);
        assert!(resp.set_cookies().any(|c| c.starts_with("cp_session=tok-")));
        // Entitled check with the session cookie.
        let check_url = Url::parse(&format!("https://{account}/check.js?site=x.de")).unwrap();
        let check = Request {
            cookie_header: Some("cp_session=tok-1"),
            ..Request::navigation(&check_url, Region::Germany)
        };
        assert_eq!(net.dispatch(&check).body_text(), "entitled");
    }

    #[test]
    fn smp_cdn_serves_wall_for_partner() {
        let (pop, net) = setup();
        let partner = pop.smp_partners(Smp::Contentpass).first().cloned();
        if let Some(partner) = partner {
            let cdn = Smp::Contentpass.cdn_host();
            let resp = get(
                &net,
                &format!("https://{cdn}/wall?site={partner}"),
                Region::Germany,
            );
            assert_eq!(resp.status, 200);
            let body = resp.body_text();
            assert!(body.contains("cw-wall"));
            assert!(body.contains("2,99"));
            assert!(body.contains("check.js"), "entitlement probe embedded");
        }
    }

    #[test]
    fn bot_sensitive_site_hides_ui_from_bots() {
        let (pop, net) = setup();
        // Find any bot-sensitive site with some consent UI.
        let candidate = pop
            .sites()
            .iter()
            .find(|s| s.bot_sensitive && !matches!(s.banner, BannerKind::None));
        if let Some(site) = candidate {
            let url = Url::parse(&format!("https://{}/", site.domain)).unwrap();
            let req = Request {
                user_agent: "SuperCrawler bot/1.0",
                ..Request::navigation(&url, Region::Germany)
            };
            let body = net.dispatch(&req).body_text();
            assert!(
                !body.contains("cmp-banner")
                    && !body.contains("cw-wall")
                    && !body.contains("cw-mount")
                    && !body.contains("cmp-mount")
                    && !body.contains("cmp-frame")
                    && !body.contains("cw-frame"),
                "bot visit must hide consent UI on {}",
                site.domain
            );
        }
    }

    /// The streamed noise seed draws exactly the stream the built key
    /// `noise/{domain}/{visit}` did, lane by lane.
    #[test]
    fn streamed_noise_seed_matches_built_key() {
        use rand::RngCore;
        for domain in ["spiegel.de", "a.b", "müller-blatt.de", "日本語.jp", ""] {
            for visit in 0..1000 {
                let seed = noise_seed(domain, visit);
                for lane in [FIRST_PARTY_LANE, BENIGN_LANE, TRACKING_LANE] {
                    let mut streamed = rng_for_hash(seed, lane);
                    let mut built = crate::names::rng_for(&format!("noise/{domain}/{visit}"), lane);
                    for _ in 0..2 {
                        assert_eq!(
                            streamed.next_u64(),
                            built.next_u64(),
                            "{domain} visit {visit} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn noise_varies_between_visits_but_is_bounded() {
        let (pop, net) = setup();
        let wall = pop
            .ground_truth_walls()
            .into_iter()
            .find(|s| s.cookies.accepted.first_party >= 10)
            .expect("a wall with enough fp cookies");
        let url = Url::parse(&format!("https://{}/", wall.domain)).unwrap();
        let header = format!("{CONSENT_COOKIE}=accepted");
        let mut counts = Vec::new();
        for _ in 0..5 {
            let req = Request {
                cookie_header: Some(&header),
                ..Request::navigation(&url, Region::Germany)
            };
            counts.push(net.dispatch(&req).set_cookies().count() as f64);
        }
        let base = wall.cookies.accepted.first_party as f64;
        for c in &counts {
            assert!(
                (c - base).abs() / base < 0.25,
                "noise bounded: {c} vs {base}"
            );
        }
        assert!(
            counts.iter().any(|c| (c - counts[0]).abs() > 0.5),
            "repetitions differ: {counts:?}"
        );
    }

    /// The shared-fetch cache keys on `(domain, body hash)` and assumes a
    /// fresh-profile (cookie-less) main document never changes across
    /// visits: per-visit noise must stay in the Set-Cookie headers, never
    /// the markup. This pins that invariant down.
    #[test]
    fn fresh_main_page_body_is_visit_invariant() {
        let (pop, net) = setup();
        for domain in pop.merged_targets().into_iter().take(40) {
            let url = format!("https://{domain}/");
            let first = get(&net, &url, Region::Germany).body_text();
            for _ in 0..3 {
                let again = get(&net, &url, Region::Germany).body_text();
                assert_eq!(first, again, "{domain} fresh body must not vary per visit");
            }
        }
    }

    /// Page generation must be idempotent under concurrent requests from
    /// different vantage points: each region always sees its own stable
    /// document, regardless of interleaving with the other regions.
    #[test]
    fn page_generation_idempotent_under_concurrent_regions() {
        let (pop, net) = setup();
        let domains: Vec<String> = pop.merged_targets().into_iter().take(12).collect();
        // Reference bodies, fetched serially region by region.
        let mut reference = Vec::new();
        for region in Region::ALL {
            for domain in &domains {
                reference.push(get(&net, &format!("https://{domain}/"), region).body_text());
            }
        }
        // The same matrix fetched with every region hammering concurrently.
        let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = Region::ALL
                .iter()
                .map(|&region| {
                    let net = net.clone();
                    let domains = &domains;
                    scope.spawn(move || {
                        domains
                            .iter()
                            .map(|d| get(&net, &format!("https://{d}/"), region).body_text())
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region fetcher"))
                .collect()
        });
        let flat: Vec<String> = concurrent.into_iter().flatten().collect();
        assert_eq!(reference, flat, "concurrent generation must match serial");
    }
}
