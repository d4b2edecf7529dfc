//! Integration tests: the browser against the synthetic web.

use browser::{Browser, ClickOutcome};
use httpsim::{Network, Region, Request, Response, Url};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use webgen::{
    server::{install, CONSENT_COOKIE, SUBSCRIPTION_COOKIE},
    BannerKind, Cmp, Population, PopulationConfig, Serving, Smp, Visibility,
};

/// Register a closure origin for `host`.
fn serve(net: &Network, host: &str, f: impl Fn(&Request<'_>) -> Response + Send + Sync + 'static) {
    net.register(host, Arc::new(f));
}

fn world() -> (Arc<Population>, Network) {
    let pop = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    install(Arc::clone(&pop), &net);
    (pop, net)
}

/// One request a recording network forwarded, with its response.
#[derive(Debug)]
struct Seen {
    url: String,
    status: u16,
    /// The page's own load issued it: it names the top-level page as its
    /// initiator. The navigation and its redirect hops name none.
    subresource: bool,
    /// `Set-Cookie` headers the response carried.
    cookies_set: usize,
}

type Log = Arc<Mutex<Vec<Seen>>>;

/// A network that forwards every request for `hosts` to `inner` and
/// records it. It registers one origin per top-level domain of `hosts`,
/// which the parent-domain lookup reaches from every host under it.
fn recording<'a>(inner: Network, hosts: impl IntoIterator<Item = &'a str>) -> (Network, Log) {
    let net = Network::new();
    let log = Log::default();
    let mut tlds: Vec<&str> = hosts
        .into_iter()
        .filter_map(|h| h.rsplit('.').next())
        .collect();
    tlds.sort_unstable();
    tlds.dedup();
    for tld in tlds {
        let (inner, log) = (inner.clone(), Arc::clone(&log));
        serve(&net, tld, move |req| {
            let resp = inner.dispatch(req);
            log.lock().unwrap().push(Seen {
                url: req.url.to_string(),
                status: resp.status,
                subresource: req.initiator_host.is_some(),
                cookies_set: resp.set_cookies().count(),
            });
            resp
        });
    }
    (net, log)
}

/// [`world`] behind a [`recording`] network that covers every host the
/// population serves: its sites, the tracker and benign third parties,
/// and the SMP and CMP hosts.
fn recorded_world() -> (Arc<Population>, Network, Log) {
    let (pop, inner) = world();
    let smps = [Smp::Contentpass, Smp::Freechoice];
    let hosts = (pop.sites().iter().map(|s| s.domain.as_str()))
        .chain(blocklist::data::JUSTDOMAINS.iter().copied())
        .chain(webgen::BENIGN_THIRD_PARTIES.iter().copied())
        .chain(Cmp::ALL.iter().map(|c| c.host()))
        .chain(smps.iter().flat_map(|s| [s.cdn_host(), s.account_host()]))
        .collect::<Vec<_>>();
    let (net, log) = recording(inner, hosts);
    (pop, net, log)
}

fn wall_with(pop: &Population, pred: impl Fn(&webgen::CookiewallSpec) -> bool) -> Option<String> {
    pop.ground_truth_walls()
        .into_iter()
        .find(|s| matches!(&s.banner, BannerKind::Cookiewall(c) if pred(c)))
        .map(|s| s.domain.clone())
}

#[test]
fn visit_regular_site_collects_cookies() {
    let (pop, net) = world();
    let site = pop
        .sites()
        .iter()
        .find(|s| matches!(s.banner, BannerKind::None) && !s.toplists.is_empty())
        .unwrap();
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse(&site.domain).unwrap()).unwrap();
    assert_eq!(page.status, 200);
    assert_eq!(page.frames.len(), 1);
    assert!(!b.jar().is_empty(), "first-party cookies stored");
    assert!(page.main_text().len() > 100, "article text rendered");
}

#[test]
fn accept_click_on_main_dom_wall_loads_trackers() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.embedding == webgen::Embedding::MainDom
            && c.serving == Serving::FirstParty
            && c.visibility != Visibility::DeOnly
    })
    .expect("a first-party main-DOM wall in the small population");
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();

    // The wall is in the main DOM: find its accept button directly.
    let hits = page.select_all_frames("#cw-wall button");
    assert!(!hits.is_empty(), "wall accept button visible in main DOM");
    let before_tracking = count_tracking(&b);
    match b.click(&page, hits[0]).unwrap() {
        ClickOutcome::Accepted(reloaded) => {
            // Consent cookie stored, wall gone, trackers fired.
            assert!(b
                .jar()
                .iter()
                .any(|c| c.name() == CONSENT_COOKIE && c.value() == "accepted"));
            assert!(reloaded.select_all_frames("#cw-wall").is_empty());
            assert!(
                count_tracking(&b) > before_tracking,
                "tracking cookies appeared"
            );
        }
        other => panic!("expected Accepted, got {other:?}"),
    }
}

#[test]
fn iframe_wall_becomes_subframe() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.embedding == webgen::Embedding::Iframe && c.visibility != Visibility::DeOnly
    })
    .expect("an iframe wall");
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();
    assert!(page.frames.len() >= 2, "iframe loaded as subframe");
    let hits = page.select_all_frames("#cw-wall");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].frame > 0, "wall lives in the subframe");
    // Clicking accept inside the subframe works and reloads the top page.
    let buttons = page.select_all_frames("#cw-wall button");
    match b.click(&page, buttons[0]).unwrap() {
        ClickOutcome::Accepted(reloaded) => {
            assert_eq!(reloaded.frames.len(), 1, "no wall iframe after consent");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn shadow_wall_invisible_to_selectors() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.embedding.is_shadow()
            && c.serving == Serving::FirstParty
            && c.visibility != Visibility::DeOnly
    });
    let Some(domain) = domain else {
        // Small population may lack this class; the webgen unit tests cover
        // markup generation either way.
        return;
    };
    let (_, net2) = (0, net);
    let mut b = Browser::new(net2, Region::Germany);
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();
    // This is the §3 pain point: ordinary selector lookup cannot see the
    // wall.
    assert!(page.select_all_frames("#cw-wall").is_empty());
    // But the host with a shadow root exists in the main document.
    assert!(!page.main().doc.shadow_hosts().is_empty());
}

#[test]
fn script_injected_wall_appears_after_load() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.serving != Serving::FirstParty
            && c.embedding != webgen::Embedding::Iframe
            && c.visibility != Visibility::DeOnly
    })
    .expect("a script-injected wall");
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();
    // The mount div was filled by the injected fragment (possibly behind a
    // shadow root).
    let mount = page.main().doc.get_element_by_id("cw-mount").unwrap();
    let has_light_children = page.main().doc.children(mount).count() > 0;
    let has_shadow = !page.main().doc.shadow_hosts().is_empty();
    assert!(has_light_children || has_shadow, "injection happened");
}

/// Injection runs in rounds: a fragment may carry another injecting
/// script, an image and an iframe. Each round runs the scripts the last
/// one added, and the final document's passive subresources and iframes
/// load; the round whose scripts inject nothing ends the rounds.
#[test]
fn injected_fragments_load_their_own_scripts_and_subresources() {
    let origins = Network::new();
    serve(&origins, "site.de", |req| match req.url.path() {
        "/" => httpsim::Response::html(
            r#"<html><body><div id="a"></div><script src="/one.js" data-cw-inject="a"></script><script src="/plain.js"></script></body></html>"#,
        ),
        "/one.js" => httpsim::Response::script(
            r#"<div id="b"></div><script src="/two.js" data-cw-inject="b"></script><img src="/pixel.gif"><iframe src="https://cmp.example/frame"></iframe>"#,
        ),
        "/two.js" => httpsim::Response::script(r#"<p id="third">third round</p>"#),
        _ => httpsim::Response::script(""),
    });
    serve(&origins, "cmp.example", |_| {
        httpsim::Response::html("<p>framed</p>")
    });
    let (net, log) = recording(origins, ["site.de", "cmp.example"]);
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse("site.de").unwrap()).unwrap();
    assert!(page.main().doc.get_element_by_id("third").is_some());
    assert_eq!(page.frames.len(), 2, "the injected iframe loaded");
    let paths: Vec<String> = (log.lock().unwrap().iter())
        .map(|r| Url::parse(&r.url).unwrap().path().to_string())
        .collect();
    assert_eq!(
        paths,
        [
            "/",
            "/one.js",
            "/plain.js",
            "/two.js",
            "/pixel.gif",
            "/frame"
        ]
    );
}

#[test]
fn blocker_suppresses_smp_wall() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.serving == Serving::SmpCdn
            && c.visibility != Visibility::DeOnly
            && !c.detects_adblock
            && !c.breaks_scroll_when_blocked
    })
    .expect("an SMP wall");
    let mut b = Browser::new(net, Region::Germany)
        .with_blocker(blocklist::FilterEngine::ublock_with_annoyances());
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();
    assert!(page.anything_blocked(), "wall asset request blocked");
    assert!(
        page.select_all_frames("#cw-wall").is_empty(),
        "no wall rendered"
    );
    assert!(!page.scroll_locked, "page usable");
    assert!(!page.adblock_interstitial);
}

#[test]
fn first_party_wall_survives_blocker() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.serving == Serving::FirstParty
            && c.embedding == webgen::Embedding::MainDom
            && c.visibility != Visibility::DeOnly
    })
    .expect("a first-party wall");
    let mut b = Browser::new(net, Region::Germany)
        .with_blocker(blocklist::FilterEngine::ublock_with_annoyances());
    let page = b.visit(&Url::parse(&domain).unwrap()).unwrap();
    assert!(
        !page.select_all_frames("#cw-wall").is_empty(),
        "first-party wall still shows with uBlock"
    );
}

#[test]
fn subscriber_flow_hides_wall_and_tracking() {
    let (pop, net) = world();
    let partner = pop.smp_partners(Smp::Contentpass)[0].clone();
    let mut b = Browser::new(net, Region::Germany);

    // Anonymous visit: wall present (iframe or injected).
    let anon = b.visit(&Url::parse(&partner).unwrap()).unwrap();
    assert!(
        !anon.select_all_frames("#cw-wall").is_empty()
            || !anon.main().doc.shadow_hosts().is_empty(),
        "wall shows to anonymous visitor"
    );
    assert!(!anon.reloaded_for_subscription);

    // Log in, then revisit: entitlement check fires, page reloads, no wall.
    b.clear_cookies();
    assert!(b.login_smp(Smp::Contentpass.account_host(), "alice", "pw"));
    let sub = b.visit(&Url::parse(&partner).unwrap()).unwrap();
    assert!(sub.reloaded_for_subscription, "entitlement reload happened");
    assert!(
        sub.select_all_frames("#cw-wall").is_empty(),
        "no wall for subscriber"
    );
    assert!(
        b.jar().iter().any(|c| c.name() == SUBSCRIPTION_COOKIE),
        "subscription cookie set"
    );
    assert_eq!(count_tracking(&b), 0, "no tracking cookies for subscribers");
}

#[test]
fn accept_then_clear_site_shows_wall_again() {
    let (pop, net) = world();
    let domain = wall_with(&pop, |c| {
        c.embedding == webgen::Embedding::MainDom
            && c.serving == Serving::FirstParty
            && c.visibility != Visibility::DeOnly
    })
    .unwrap();
    let mut b = Browser::new(net, Region::Germany);
    let url = Url::parse(&domain).unwrap();
    let page = b.visit(&url).unwrap();
    let btn = page.select_all_frames("#cw-wall button")[0];
    let ClickOutcome::Accepted(after) = b.click(&page, btn).unwrap() else {
        panic!("accept failed")
    };
    assert!(after.select_all_frames("#cw-wall").is_empty());
    // Revisit: still no wall (consent persisted).
    let again = b.visit(&url).unwrap();
    assert!(again.select_all_frames("#cw-wall").is_empty());
    // §5's pitfall: deleting only the cookies is NOT enough — the wall
    // script restores the consent cookie from localStorage.
    b.clear_site_cookies(&domain);
    let still_consented = b.visit(&url).unwrap();
    assert!(
        still_consented.select_all_frames("#cw-wall").is_empty(),
        "consent restored from localStorage; wall stays hidden"
    );
    // The full procedure — cookies *and* local storage — brings it back.
    b.clear_site_data(&domain);
    let fresh = b.visit(&url).unwrap();
    assert!(!fresh.select_all_frames("#cw-wall").is_empty());
}

#[test]
fn decoy_paywall_shows_overlay() {
    let (pop, net) = world();
    let decoy = pop
        .sites()
        .iter()
        .find(|s| matches!(s.banner, BannerKind::DecoyPaywall))
        .unwrap()
        .domain
        .clone();
    let mut b = Browser::new(net, Region::UsEast);
    let page = b.visit(&Url::parse(&decoy).unwrap()).unwrap();
    assert!(!page.select_all_frames("#premium-gate").is_empty());
    assert!(page.select_all_frames("#cw-wall").is_empty());
}

#[test]
fn unreachable_host_errors() {
    let (_pop, net) = world();
    let mut b = Browser::new(net, Region::Germany);
    let err = b.visit(&Url::parse("https://does-not-exist.example/").unwrap());
    assert!(matches!(err, Err(browser::VisitError::Unreachable(_))));
}

fn count_tracking(b: &Browser) -> usize {
    let db = blocklist::TrackerDb::justdomains();
    b.jar()
        .iter()
        .filter(|c| db.is_tracking_domain(c.domain()))
        .count()
}

#[test]
fn accepted_reload_fetches_third_parties() {
    let (pop, net, log) = recorded_world();
    let domain = wall_with(&pop, |c| {
        c.embedding == webgen::Embedding::MainDom
            && c.serving == Serving::FirstParty
            && c.visibility != Visibility::DeOnly
    })
    .unwrap();
    let mut b = Browser::new(net.clone(), Region::Germany);
    let url = Url::parse(&domain).unwrap();
    let page = b.visit(&url).unwrap();
    let btn = page.select_all_frames("#cw-wall button")[0];
    let before = log.lock().unwrap().len();
    let ClickOutcome::Accepted(after) = b.click(&page, btn).unwrap() else {
        panic!("accept failed")
    };
    // The post-consent load hits trackers: the recorded requests show them.
    let log = log.lock().unwrap();
    let requests = &log[before..];
    assert!(!requests.is_empty());
    assert!(!requests[0].subresource, "first request is the navigation");
    assert!(requests[1..].iter().all(|r| r.subresource));
    let third_party = requests
        .iter()
        .filter(|r| !httpsim::same_site(Url::parse(&r.url).unwrap().host(), after.host()))
        .count();
    assert!(third_party > 5, "trackers were fetched: {third_party}");
    // The jar agrees: the trackers' cookies count as third-party.
    let cookies = b.jar().breakdown(after.host(), |_| false);
    assert!(
        cookies.third_party > 5.0,
        "third-party cookies: {cookies:?}"
    );
    let with_cookies = requests.iter().filter(|r| r.cookies_set > 0).count();
    assert!(with_cookies > 3, "responses set cookies: {with_cookies}");
    assert_eq!(
        net.stats().unresolved(),
        0,
        "the recording covers every host"
    );
}

#[test]
fn fetch_errors_are_typed() {
    use browser::FetchError;
    use httpsim::{Response, TransportFault};

    let net = Network::new();
    serve(&net, "reset.example", |_| {
        let mut r = Response::connection_error();
        r.transport = Some(TransportFault::ConnectionReset);
        r
    });
    serve(&net, "truncated.example", |_| {
        let mut r = Response::html("<html>half of the docum");
        r.transport = Some(TransportFault::TruncatedBody);
        r
    });
    serve(&net, "slow.example", |_| {
        let mut r = Response::html("<html>eventually</html>");
        r.latency_ms = 45_000;
        r
    });
    serve(&net, "flaky.example", |_| {
        let mut r = Response::html("");
        r.status = 503;
        r
    });
    serve(&net, "gone.example", |_| {
        let mut r = Response::html("");
        r.status = 410;
        r
    });

    let mut b = Browser::new(net, Region::Germany);
    let fetch = |b: &mut Browser, host: &str| b.fetch_domain_document(host).unwrap_err();

    let err = fetch(&mut b, "reset.example");
    assert_eq!(
        err,
        FetchError::ConnectionReset("reset.example".to_string())
    );
    assert!(err.is_transient());

    let err = fetch(&mut b, "truncated.example");
    assert_eq!(err, FetchError::Truncated("truncated.example".to_string()));
    assert!(err.is_transient());

    let err = fetch(&mut b, "slow.example");
    assert_eq!(
        err,
        FetchError::Timeout {
            host: "slow.example".to_string(),
            budget_ms: 30_000
        }
    );
    assert!(err.is_transient());

    let err = fetch(&mut b, "unregistered.example");
    assert_eq!(
        err,
        FetchError::Unreachable("unregistered.example".to_string())
    );
    assert!(err.is_transient());

    assert!(
        fetch(&mut b, "flaky.example").is_transient(),
        "5xx is transient"
    );
    assert!(
        !fetch(&mut b, "gone.example").is_transient(),
        "4xx is permanent"
    );
}

#[test]
fn timeout_budget_spans_redirect_hops() {
    use browser::{FetchError, DEFAULT_TIMEOUT_BUDGET_MS};
    use httpsim::Response;

    let net = Network::new();
    // Each hop takes just over half the budget: one hop is fine, two
    // redirect hops together exceed it.
    let hop_ms = DEFAULT_TIMEOUT_BUDGET_MS / 2 + 1;
    serve(&net, "hop.example", move |r| {
        let mut resp = if r.url.path() == "/" {
            Response::redirect("https://hop.example/land")
        } else {
            Response::html("<html>landed</html>")
        };
        resp.latency_ms = hop_ms;
        resp
    });
    serve(&net, "one.example", move |_| {
        let mut resp = Response::html("<html>direct</html>");
        resp.latency_ms = hop_ms;
        resp
    });

    let mut b = Browser::new(net, Region::Germany);
    assert!(b.fetch_domain_document("one.example").is_ok());
    let err = b.fetch_domain_document("hop.example").unwrap_err();
    assert_eq!(
        err,
        FetchError::Timeout {
            host: "hop.example".to_string(),
            budget_ms: DEFAULT_TIMEOUT_BUDGET_MS
        },
        "latency accumulates across redirect hops"
    );
}

/// Everything a navigation leaves behind, as text: the page (frames,
/// requests, observations) and the jar, cookie by cookie in storage order.
fn outcome(b: &Browser, page: &browser::Page) -> (String, Vec<httpsim::Cookie>) {
    (format!("{page:?}"), b.jar().iter().cloned().collect())
}

/// `visit` is `fetch_document` then `load_fetched`: the document's own
/// cookies, deferred by the fetch, are stored by the load before anything
/// else, so the jar and the page come out identical. Each pair runs on
/// its own freshly installed world, since origins count visits.
#[test]
fn two_phase_visit_matches_visit() {
    let sites = {
        let (pop, _) = world();
        let wall = wall_with(&pop, |c| {
            c.embedding == webgen::Embedding::MainDom
                && c.serving == Serving::FirstParty
                && c.visibility != Visibility::DeOnly
        })
        .expect("a first-party main-DOM wall");
        let partner = pop.smp_partners(Smp::Contentpass)[0].clone();
        [(wall, false), (partner, true)]
    };
    for (domain, subscribed) in sites {
        let run = |two_phase: bool| {
            let (_pop, net) = world();
            let mut b = Browser::new(net, Region::Germany);
            if subscribed {
                assert!(b.login_smp(Smp::Contentpass.account_host(), "alice", "pw"));
            }
            let url = Url::parse(&domain).unwrap();
            let page = if two_phase {
                let fetched = b.fetch_document(&url).unwrap();
                b.load_fetched(&fetched).unwrap()
            } else {
                b.visit(&url).unwrap()
            };
            assert_eq!(page.reloaded_for_subscription, subscribed, "{domain}");
            outcome(&b, &page)
        };
        assert_eq!(run(false), run(true), "{domain}");
    }

    // A redirecting site, whose hop and document both set cookies.
    let net = Network::new();
    serve(&net, "hop.example", |r| {
        if r.url.path() == "/" {
            httpsim::Response::redirect("https://hop.example/land").with_cookie("hop=1; Path=/")
        } else {
            httpsim::Response::html("<html><body><p>landed</p></body></html>")
                .with_cookie("doc=2; Path=/land")
                .with_cookie("sid=3")
        }
    });
    let url = Url::parse("hop.example").unwrap();
    let mut one = Browser::new(net.clone(), Region::Germany);
    let visited = one.visit(&url).unwrap();
    let mut two = Browser::new(net, Region::Germany);
    let fetched = two.fetch_document(&url).unwrap();
    let loaded = two.load_fetched(&fetched).unwrap();
    assert_eq!(outcome(&one, &visited), outcome(&two, &loaded));
    assert_eq!(two.jar().len(), 3);
}

/// A fetch that fails still stores the failing response's cookies, as
/// it did when every response's cookies were stored on arrival.
#[test]
fn failed_fetches_keep_their_cookies() {
    use httpsim::Response;

    let net = Network::new();
    let failing = |status: u16, latency_ms: u64| {
        move |_: &httpsim::Request| {
            let mut r = Response::html("<html>error</html>").with_cookie(format!("s{status}=1"));
            r.status = status;
            r.latency_ms = latency_ms;
            r
        }
    };
    serve(&net, "gone.example", failing(404, 0));
    serve(&net, "down.example", failing(503, 0));
    serve(&net, "slow.example", failing(200, 45_000));

    let mut b = Browser::new(net, Region::Germany);
    for (host, cookie) in [
        ("gone.example", "s404"),
        ("down.example", "s503"),
        ("slow.example", "s200"),
    ] {
        b.clear_cookies();
        assert!(b.fetch_domain_document(host).is_err(), "{host}");
        let names: Vec<&str> = b.jar().iter().map(|c| c.name()).collect();
        assert_eq!(names, [cookie], "{host}");
    }
}

/// A redirect hop's cookie is in the jar before the next hop is
/// requested, so that hop carries it; the document's own cookie waits
/// for the load.
#[test]
fn redirect_hop_cookie_reaches_the_next_hop() {
    use httpsim::Response;

    let net = Network::new();
    serve(&net, "hop.example", |r| {
        if r.url.path() == "/" {
            Response::redirect("/land").with_cookie("hop=1")
        } else {
            let sent = r.cookie_header.unwrap_or_default();
            Response::html(format!("<p>sent: {sent}</p>")).with_cookie("doc=2")
        }
    });
    let mut b = Browser::new(net, Region::Germany);
    let fetched = b.fetch_domain_document("hop.example").unwrap();
    assert_eq!(fetched.body(), "<p>sent: hop=1</p>");
    let names =
        |b: &Browser| -> Vec<String> { b.jar().iter().map(|c| c.name().to_string()).collect() };
    assert_eq!(names(&b), ["hop"]);
    b.load_fetched(&fetched).unwrap();
    assert_eq!(names(&b), ["hop", "doc"]);
}

/// A body that is not valid UTF-8 keeps its bytes for hashing and reads
/// as its lossy decoding, which is also what the load parses.
#[test]
fn invalid_utf8_body_reads_lossily() {
    use httpsim::{Bytes, Response};

    let net = Network::new();
    serve(&net, "latin1.example", |_| {
        Response::html(Bytes::from_static(b"<p>M\xfcnchen</p>"))
    });
    let mut b = Browser::new(net, Region::Germany);
    let fetched = b.fetch_domain_document("latin1.example").unwrap();
    assert_eq!(fetched.body_bytes(), b"<p>M\xfcnchen</p>");
    assert_eq!(fetched.body(), "<p>M\u{fffd}nchen</p>");
    assert_eq!(fetched.body(), "<p>M\u{fffd}nchen</p>");
    let page = b.load_fetched(&fetched).unwrap();
    assert!(page.main_text().contains("M\u{fffd}nchen"));
}

/// Logging in again replaces the stored session cookie rather than adding
/// one; that is still a successful login.
#[test]
fn repeated_smp_login_succeeds() {
    let (_pop, net) = world();
    let mut b = Browser::new(net, Region::Germany);
    let host = Smp::Contentpass.account_host();
    assert!(b.login_smp(host, "alice", "pw"));
    let stored = b.jar().len();
    assert!(b.login_smp(host, "alice", "pw"), "second login");
    assert_eq!(b.jar().len(), stored, "the session cookie was replaced");
    assert!(!b.login_smp(host, "", "pw"), "an empty user is refused");
}

/// The browser follows redirects itself: a relative `Location` resolves
/// against the hop that sent it, each hop's cookies are stored under that
/// hop's host before the next request, every hop is requested in turn,
/// and the network counts each redirect followed.
#[test]
fn browser_follows_and_counts_redirects() {
    use httpsim::Response;

    let origins = Network::new();
    serve(&origins, "a.example", |_| {
        Response::redirect("https://b.example/land").with_cookie("a=1")
    });
    serve(&origins, "b.example", |r| {
        if r.url.path() == "/land" {
            Response::redirect("home").with_cookie("b=1")
        } else {
            let sent = r.cookie_header.unwrap_or_default();
            Response::html(format!("<p>{} {sent}</p>", r.url.path())).with_cookie("doc=1")
        }
    });
    let (net, log) = recording(origins, ["a.example", "b.example"]);
    let mut b = Browser::new(net.clone(), Region::Germany);
    let fetched = b.fetch_domain_document("a.example").unwrap();
    assert_eq!(fetched.final_url().as_str(), "https://b.example/home");
    assert_eq!(fetched.body(), "<p>/home b=1</p>");
    assert_eq!(net.stats().requests.load(Ordering::Relaxed), 3);
    assert_eq!(net.stats().redirects.load(Ordering::Relaxed), 2);
    let stored = |b: &Browser| -> Vec<(String, String)> {
        b.jar()
            .iter()
            .map(|c| (c.name().to_string(), c.domain().to_string()))
            .collect()
    };
    let hop = |name: &str, domain: &str| (name.to_string(), domain.to_string());
    assert_eq!(stored(&b), [hop("a", "a.example"), hop("b", "b.example")]);

    let page = b.load_fetched(&fetched).unwrap();
    assert_eq!(stored(&b)[2], hop("doc", "b.example"));
    assert_eq!(page.status, 200);
    let log = log.lock().unwrap();
    let logged: Vec<(&str, u16)> = log.iter().map(|r| (r.url.as_str(), r.status)).collect();
    assert_eq!(
        logged,
        [
            ("https://a.example/", 302),
            ("https://b.example/land", 302),
            ("https://b.example/home", 200),
        ]
    );
}

/// A redirect loop stops after `MAX_REDIRECTS` hops, each one counted.
#[test]
fn redirect_loop_stops_at_the_cap() {
    use browser::FetchError;
    use httpsim::{Response, MAX_REDIRECTS};

    let net = Network::new();
    serve(&net, "loop.example", |_| {
        Response::redirect("https://loop.example/again")
    });
    let mut b = Browser::new(net.clone(), Region::Germany);
    let err = b.fetch_domain_document("loop.example").unwrap_err();
    assert_eq!(err, FetchError::HttpError(404));
    assert_eq!(
        net.stats().requests.load(Ordering::Relaxed),
        MAX_REDIRECTS as u64
    );
    assert_eq!(
        net.stats().redirects.load(Ordering::Relaxed),
        MAX_REDIRECTS as u64
    );
}

/// A tracker's cookie-sync bounce on an accepted page is a redirect the
/// browser follows, so the network counts it: one per recorded 302.
#[test]
fn tracker_sync_bounces_are_counted() {
    let (pop, net, log) = recorded_world();
    let mut b = Browser::new(net.clone(), Region::Germany);
    for site in pop.ground_truth_walls().into_iter().take(20) {
        b.clear_cookies();
        let registrable = httpsim::registrable_domain(&site.domain).unwrap_or(&site.domain);
        b.set_site_cookie(registrable, CONSENT_COOKIE, "accepted");
        let _ = b.visit(&Url::parse(&site.domain).unwrap());
    }
    let bounces = (log.lock().unwrap().iter())
        .filter(|r| r.status == 302)
        .count() as u64;
    assert!(bounces > 0, "accepted walls load syncing trackers");
    assert_eq!(net.stats().redirects.load(Ordering::Relaxed), bounces);
}
