//! Integration tests: the browser against the synthetic web.

use browser::{Browser, ClickOutcome};
use httpsim::{Network, Region, Url};
use std::sync::Arc;
use webgen::{
    server::{install, CONSENT_COOKIE, SUBSCRIPTION_COOKIE},
    BannerKind, Population, PopulationConfig, Serving, Smp, Visibility,
};

fn world() -> (Arc<Population>, Network) {
    let pop = Arc::new(Population::generate(PopulationConfig::small()));
    let net = Network::new();
    install(Arc::clone(&pop), &net);
    (pop, net)
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
    let net = Network::new();
    net.register_fn("site.de", |req| match req.url.path() {
        "/" => httpsim::Response::html(
            r#"<html><body><div id="a"></div><script src="/one.js" data-cw-inject="a"></script><script src="/plain.js"></script></body></html>"#,
        ),
        "/one.js" => httpsim::Response::script(
            r#"<div id="b"></div><script src="/two.js" data-cw-inject="b"></script><img src="/pixel.gif"><iframe src="https://cmp.example/frame"></iframe>"#,
        ),
        "/two.js" => httpsim::Response::script(r#"<p id="third">third round</p>"#),
        _ => httpsim::Response::script(""),
    });
    net.register_fn("cmp.example", |_| httpsim::Response::html("<p>framed</p>"));
    let mut b = Browser::new(net, Region::Germany);
    let page = b.visit(&Url::parse("site.de").unwrap()).unwrap();
    assert!(page.main().doc.get_element_by_id("third").is_some());
    assert_eq!(page.frames.len(), 2, "the injected iframe loaded");
    let paths: Vec<&str> = page.requests.iter().map(|r| r.url.path()).collect();
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
    let decoy = pop.decoys()[0].domain.clone();
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
fn consent_survives_browser_restart() {
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
    let ClickOutcome::Accepted(_) = b.click(&page, btn).unwrap() else {
        panic!("accept failed")
    };
    let cookies_before = b.jar().len();
    // Restart: the session id is gone, the year-long consent cookie stays.
    b.restart();
    assert!(b.jar().len() < cookies_before, "session cookies dropped");
    assert!(
        b.jar().iter().any(|c| c.name() == CONSENT_COOKIE),
        "consent persists"
    );
    let after = b.visit(&url).unwrap();
    assert!(
        after.select_all_frames("#cw-wall").is_empty(),
        "no wall after restart — acceptance outlives the session"
    );
}

#[test]
fn request_log_records_third_parties() {
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
    // The post-consent load hits trackers: the request log shows them.
    assert!(!after.requests.is_empty());
    assert!(
        !after.requests[0].subresource,
        "first entry is the navigation"
    );
    assert!(after.requests[1..].iter().all(|r| r.subresource));
    let third_party = after
        .requests
        .iter()
        .filter(|r| !httpsim::same_site(r.url.host(), after.host()))
        .count();
    assert!(third_party > 5, "trackers were fetched: {third_party}");
    // The jar agrees: the trackers' cookies count as third-party.
    let cookies = b.jar().breakdown(after.host(), |_| false);
    assert!(
        cookies.third_party > 5.0,
        "third-party cookies: {cookies:?}"
    );
    let with_cookies = after.requests.iter().filter(|r| r.cookies_set > 0).count();
    assert!(with_cookies > 3, "responses set cookies: {with_cookies}");
}

#[test]
fn fetch_errors_are_typed() {
    use browser::FetchError;
    use httpsim::{Response, TransportFault};

    let net = Network::new();
    net.register_fn("reset.example", |_| {
        let mut r = Response::connection_error();
        r.transport = Some(TransportFault::ConnectionReset);
        r
    });
    net.register_fn("truncated.example", |_| {
        let mut r = Response::html("<html>half of the docum");
        r.transport = Some(TransportFault::TruncatedBody);
        r
    });
    net.register_fn("slow.example", |_| {
        let mut r = Response::html("<html>eventually</html>");
        r.latency_ms = 45_000;
        r
    });
    net.register_fn("flaky.example", |_| {
        let mut r = Response::html("");
        r.status = 503;
        r
    });
    net.register_fn("gone.example", |_| {
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
fn timeout_budget_is_configurable_and_spans_redirect_hops() {
    use browser::FetchError;
    use httpsim::Response;

    let net = Network::new();
    // Two hops of 300 virtual ms each: fine under the default budget,
    // fatal once the budget is tightened below their sum.
    net.register_fn("hop.example", |r| {
        let mut resp = if r.url.path() == "/" {
            Response::redirect("https://hop.example/land")
        } else {
            Response::html("<html>landed</html>")
        };
        resp.latency_ms = 300;
        resp
    });

    let mut b = Browser::new(net.clone(), Region::Germany);
    assert!(b.fetch_domain_document("hop.example").is_ok());

    let mut b = Browser::new(net, Region::Germany).with_timeout_budget(500);
    assert_eq!(b.timeout_budget_ms(), 500);
    let err = b.fetch_domain_document("hop.example").unwrap_err();
    assert_eq!(
        err,
        FetchError::Timeout {
            host: "hop.example".to_string(),
            budget_ms: 500
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
    net.register_fn("hop.example", |r| {
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
    net.register_fn("gone.example", failing(404, 0));
    net.register_fn("down.example", failing(503, 0));
    net.register_fn("slow.example", failing(200, 45_000));

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
    net.register_fn("hop.example", |r| {
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
    net.register_fn("latin1.example", |_| {
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
/// hop's host before the next request, every hop is logged, and the
/// network counts each redirect followed.
#[test]
fn browser_follows_and_counts_redirects() {
    use httpsim::Response;

    let net = Network::new();
    net.register_fn("a.example", |_| {
        Response::redirect("https://b.example/land").with_cookie("a=1")
    });
    net.register_fn("b.example", |r| {
        if r.url.path() == "/land" {
            Response::redirect("home").with_cookie("b=1")
        } else {
            let sent = r.cookie_header.unwrap_or_default();
            Response::html(format!("<p>{} {sent}</p>", r.url.path())).with_cookie("doc=1")
        }
    });
    let mut b = Browser::new(net.clone(), Region::Germany);
    let fetched = b.fetch_domain_document("a.example").unwrap();
    assert_eq!(fetched.url().as_str(), "https://a.example/");
    assert_eq!(fetched.final_url().as_str(), "https://b.example/home");
    assert_eq!(fetched.body(), "<p>/home b=1</p>");
    assert_eq!(net.stats().requests(), 3);
    assert_eq!(net.stats().redirects(), 2);
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
    let logged: Vec<(&str, u16)> = page
        .requests
        .iter()
        .map(|r| (r.url.as_str(), r.status))
        .collect();
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
    net.register_fn("loop.example", |_| {
        Response::redirect("https://loop.example/again")
    });
    let mut b = Browser::new(net.clone(), Region::Germany);
    let err = b.fetch_domain_document("loop.example").unwrap_err();
    assert_eq!(err, FetchError::HttpError(404));
    assert_eq!(net.stats().requests(), MAX_REDIRECTS as u64);
    assert_eq!(net.stats().redirects(), MAX_REDIRECTS as u64);
}

/// A tracker's cookie-sync bounce on an accepted page is a redirect the
/// browser follows, so the network counts it: one per logged 302.
#[test]
fn tracker_sync_bounces_are_counted() {
    let (pop, net) = world();
    let mut b = Browser::new(net.clone(), Region::Germany);
    let mut bounces = 0;
    for site in pop.ground_truth_walls().into_iter().take(20) {
        b.clear_cookies();
        let registrable = httpsim::registrable_domain(&site.domain).unwrap_or(&site.domain);
        b.set_site_cookie(registrable, CONSENT_COOKIE, "accepted");
        let Ok(page) = b.visit(&Url::parse(&site.domain).unwrap()) else {
            continue;
        };
        bounces += page.requests.iter().filter(|r| r.status == 302).count() as u64;
    }
    assert!(bounces > 0, "accepted walls load syncing trackers");
    assert_eq!(net.stats().redirects(), bounces);
}
