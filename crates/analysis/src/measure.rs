//! Cookie measurements: the §4.3/§4.4 methodology — visit a site, interact
//! with its consent UI, record the resulting first-party / third-party /
//! tracking cookie counts, repeated five times and averaged.

use bannerclick::{click_accept, BannerClick};
use blocklist::TrackerDb;
use browser::Browser;
use httpsim::{CookieBreakdown, Network, Region};
use serde::Serialize;

/// Repetitions per site, as in the paper ("we repeat each measurement five
/// times per website and calculate the average number of cookies").
pub const REPETITIONS: usize = 5;

/// Visit attempts per repetition before the repetition is abandoned. A
/// failed navigation never reaches the origin (dead hosts are unresolved;
/// injected faults are synthesized in front of the server), so retrying a
/// repetition to success leaves the measured site in exactly the state a
/// fault-free run would produce — transient fault windows span at most two
/// attempts, so four attempts always outlast them.
const VISIT_ATTEMPTS: usize = 4;

/// How the measurement interacts with the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionMode {
    /// Detect the banner/wall and click accept.
    Accept,
    /// Log into the given SMP first, then visit (subscriber experience).
    Subscribed {
        /// Account host to authenticate against.
        account_host: &'static str,
    },
}

/// Averaged cookie counts for one site.
#[derive(Debug, Clone, Serialize)]
pub struct SiteCookieMeasurement {
    /// The measured domain.
    pub domain: String,
    /// Average first-party cookies over the repetitions.
    pub first_party: f64,
    /// Average third-party cookies.
    pub third_party: f64,
    /// Average tracking cookies (justdomains classification).
    pub tracking: f64,
    /// Repetitions that produced a usable measurement.
    pub successful_reps: usize,
}

/// Measure one site: `REPETITIONS` independent fresh-profile visits with
/// the requested interaction, averaged.
// lint:allow(r9) — one owned domain String per site measurement, not per request
pub fn measure_site(
    net: &Network,
    region: Region,
    domain: &str,
    mode: InteractionMode,
    tool: &BannerClick,
    trackers: &TrackerDb,
) -> SiteCookieMeasurement {
    let mut sums = CookieBreakdown::default();
    let mut ok = 0usize;
    for _rep in 0..REPETITIONS {
        let Some(browser) = visit_with_retries(net, region, domain, mode, tool) else {
            continue;
        };
        let breakdown = page_breakdown(&browser, domain, trackers);
        sums.first_party += breakdown.first_party;
        sums.third_party += breakdown.third_party;
        sums.tracking += breakdown.tracking;
        ok += 1;
    }
    let d = ok.max(1) as f64;
    SiteCookieMeasurement {
        domain: domain.to_string(),
        first_party: sums.first_party / d,
        third_party: sums.third_party / d,
        tracking: sums.tracking / d,
        successful_reps: ok,
    }
}

/// One repetition's visit, retried with a fresh profile on outright
/// navigation failure (connection faults, timeouts). Returns the browser
/// that completed the interaction, or `None` when the site never answered
/// within [`VISIT_ATTEMPTS`] — or, in subscriber mode, when the SMP login
/// itself was refused (account hosts are infrastructure and never faulted,
/// so a login failure is permanent and not worth retrying).
// lint:allow(r9) — Network is an Arc handle, so clone() is a refcount bump, not a buffer copy
fn visit_with_retries(
    net: &Network,
    region: Region,
    domain: &str,
    mode: InteractionMode,
    tool: &BannerClick,
) -> Option<Browser> {
    for _attempt in 0..VISIT_ATTEMPTS {
        let mut browser = Browser::new(net.clone(), region);
        match mode {
            InteractionMode::Accept => {
                // Even without a banner the visit itself counts (the site
                // may set cookies unconditionally), so only reachability
                // decides success. Only the banner is needed, so the visit
                // is detected, not classified or priced.
                let Ok(page) = browser.visit_domain(domain) else {
                    continue;
                };
                let Some(banner) = tool.detect(&page) else {
                    return Some(browser);
                };
                match click_accept(&mut browser, &page, &banner) {
                    Ok(_accepted) => return Some(browser),
                    // The click stores the consent cookie before it
                    // reloads, so a failed reload still leaves the
                    // accepted jar: like a missing accept button, it does
                    // not fail the repetition.
                    Err(_reload_failed) => return Some(browser),
                }
            }
            InteractionMode::Subscribed { account_host } => {
                if !browser.login_smp(account_host, "measurement", "secret") {
                    return None;
                }
                if browser.visit_domain(domain).is_ok() {
                    return Some(browser);
                }
            }
        }
    }
    None
}

fn page_breakdown(browser: &Browser, domain: &str, trackers: &TrackerDb) -> CookieBreakdown {
    browser.jar().breakdown(domain, |cookie_domain| {
        trackers.is_tracking_domain(cookie_domain)
    })
}

/// Measure many sites in parallel.
pub fn measure_sites(
    net: &Network,
    region: Region,
    domains: &[String],
    mode: InteractionMode,
    tool: &BannerClick,
    workers: usize,
) -> Vec<SiteCookieMeasurement> {
    let trackers = TrackerDb::justdomains();
    let (cells, _) = crate::crawl::par_matrix(
        workers,
        1,
        domains.len(),
        |_| (),
        |_, _, i| {
            Some(measure_site(
                net,
                region,
                &domains[i],
                mode,
                tool,
                &trackers,
            ))
        },
    );
    cells
        .and_then(|lanes| lanes.into_iter().next())
        .expect("a measurement task never aborts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webgen::{BannerKind, Population, PopulationConfig, Smp};

    fn world() -> (Arc<Population>, Network) {
        let pop = Arc::new(Population::generate(PopulationConfig::small()));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        (pop, net)
    }

    #[test]
    fn accept_measurement_matches_ground_truth_band() {
        let (pop, net) = world();
        let tool = BannerClick::new();
        let trackers = TrackerDb::justdomains();
        let wall = pop
            .ground_truth_walls()
            .into_iter()
            .find(|s| {
                matches!(&s.banner, BannerKind::Cookiewall(c) if c.smp.is_none()
                && c.visibility != webgen::Visibility::DeOnly)
            })
            .expect("independent wall");
        let m = measure_site(
            &net,
            Region::Germany,
            &wall.domain,
            InteractionMode::Accept,
            &tool,
            &trackers,
        );
        assert_eq!(m.successful_reps, REPETITIONS);
        let truth = wall.cookies.accepted;
        // Averages land near the ground-truth base (noise is ±15%).
        assert!(
            (m.tracking - truth.tracking as f64).abs() / truth.tracking.max(1) as f64 <= 0.25,
            "tracking {} vs truth {}",
            m.tracking,
            truth.tracking
        );
        assert!(m.first_party >= 3.0);
        assert!(m.third_party >= m.tracking, "tracking ⊆ third-party");
    }

    #[test]
    fn subscription_eliminates_tracking() {
        let (pop, net) = world();
        let tool = BannerClick::new();
        let partner = pop.smp_partners(Smp::Contentpass)[0].clone();
        let accept = measure_sites(
            &net,
            Region::Germany,
            std::slice::from_ref(&partner),
            InteractionMode::Accept,
            &tool,
            1,
        );
        let sub = measure_sites(
            &net,
            Region::Germany,
            &[partner],
            InteractionMode::Subscribed {
                account_host: Smp::Contentpass.account_host(),
            },
            &tool,
            1,
        );
        assert!(accept[0].tracking > 0.0, "accepting loads trackers");
        assert_eq!(sub[0].tracking, 0.0, "subscribers see no tracking cookies");
        assert!(sub[0].first_party < accept[0].first_party);
        assert!(sub[0].third_party < accept[0].third_party);
    }

    #[test]
    fn parallel_measurement_covers_all_sites() {
        let (pop, net) = world();
        let tool = BannerClick::new();
        let domains: Vec<String> = pop
            .regular_banner_sites()
            .into_iter()
            .take(8)
            .map(|s| s.domain.clone())
            .collect();
        let results = measure_sites(
            &net,
            Region::Germany,
            &domains,
            InteractionMode::Accept,
            &tool,
            4,
        );
        assert_eq!(results.len(), domains.len());
        for r in &results {
            assert!(r.successful_reps > 0, "{}", r.domain);
        }
    }
}
