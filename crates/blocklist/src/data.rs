//! Embedded filter-list and blocklist data.
//!
//! Three datasets mirror the three external lists the paper relies on:
//!
//! * [`JUSTDOMAINS`] — the justdomains-style tracker *domain* list used to
//!   classify cookies as tracking cookies (§4.3). In the real study this is
//!   the EasyList/EasyPrivacy domains-only distillation; here it is the
//!   canonical tracker population of the synthetic web. `webgen` draws its
//!   tracker ecosystem from exactly this list (plus unlisted long-tail
//!   domains), which reproduces the property that *most but not all*
//!   third-party cookies are classified as tracking.
//! * [`easylist_lite`] — request-blocking rules for the ad/tracker hosts.
//! * [`ANNOYANCES_LIST`] — the (by default disabled) uBlock "Annoyances"
//!   rules that block cookie banners and cookiewalls served from known
//!   CMP/SMP domains (§4.5, footnote 7 quotes this rule style).

/// Well-known infrastructure hosts of the synthetic web. These constants are
/// shared with `webgen` so the generator and the filter lists cannot drift
/// apart.
pub mod hosts {
    /// CDN host serving the contentpass-style SMP cookiewall assets.
    pub const CONTENTPASS_CDN: &str = "cdn.contentpass.net";
    /// contentpass-style SMP account/login host.
    pub const CONTENTPASS_ACCOUNT: &str = "pay.contentpass.net";
    /// CDN host serving the freechoice-style SMP cookiewall assets.
    pub const FREECHOICE_CDN: &str = "cdn.freechoice.club";
    /// freechoice-style SMP account host.
    pub const FREECHOICE_ACCOUNT: &str = "account.freechoice.club";
    /// Generic CMP delivery host (banner markup for many regular banners).
    pub const OPENCMP_CDN: &str = "cdn.opencmp.net";
    /// Second CMP provider host.
    pub const CONSENTMANAGER: &str = "delivery.consentmanager.net";
    /// Third CMP provider host.
    pub const USERCENTRICS: &str = "app.usercentrics.eu";
}

/// Tracker domains (registrable domains). Cookie domains matching one of
/// these are counted as tracking cookies.
pub const JUSTDOMAINS: &[&str] = &[
    // Ad exchanges and demand platforms.
    "doubleclick.net",
    "adnxs.com",
    "criteo.com",
    "rubiconproject.com",
    "pubmatic.com",
    "openx.net",
    "adsrvr.org",
    "casalemedia.com",
    "smartadserver.com",
    "adform.net",
    "yieldlab.net",
    "adition.com",
    "theadex.com",
    "stroeerdigitalgroup.de",
    "adup-tech.com",
    "mediamath.com",
    "bidswitch.net",
    "contextweb.com",
    "spotxchange.com",
    "teads.tv",
    // Trackers and audience measurement.
    "scorecardresearch.com",
    "quantserve.com",
    "chartbeat.com",
    "hotjar-metrics.io",
    "taboola.com",
    "outbrain.com",
    "krxd.net",
    "bluekai.com",
    "demdex.net",
    "agkn.com",
    "exelator.com",
    "eyeota.net",
    "mathtag.com",
    "tapad.com",
    "rlcdn.com",
    "turn-profile.com",
    "adelphic.net",
    "zemanta.com",
    "ioam.de",
    "meetrics.net",
    // Retargeting and social pixels.
    "adroll.com",
    "facebook-pixel.net",
    "pixel-sync.org",
    "beacon-tracking.net",
    "id5-sync.com",
    "usertrace.io",
    "datacollector.ws",
    "audiencegraph.net",
    "retargetly.biz",
    "clickid-match.com",
];

/// Request-blocking rules for the ad/tracker ecosystem (EasyList role).
/// Generated from [`JUSTDOMAINS`] plus a handful of pattern rules, exposed
/// as list text so it exercises the parser like a downloaded list would.
pub fn easylist_lite() -> String {
    let mut out = String::from(
        "! Title: EasyList Lite (synthetic)\n\
         ! Request blocking for the tracker population of the simulated web\n",
    );
    for d in JUSTDOMAINS {
        out.push_str("||");
        out.push_str(d);
        out.push_str("^$third-party\n");
    }
    out.push_str("*ad-delivery*\n*pixel.gif*\n*beacon?id=*\n");
    out
}

/// The "Annoyances" rules blocking cookie banners and cookiewalls served
/// from CMP/SMP infrastructure — the list the paper enables in uBlock
/// Origin to bypass 70% of cookiewalls (§4.5).
pub const ANNOYANCES_LIST: &str = "\
! Title: Annoyances — cookie notices & pay-or-okay walls (synthetic)
! Network rules for cookiewall/CMP delivery hosts (cf. paper footnote 7)
*cdn.contentpass.net/*
||contentpass.net^$third-party
*cdn.freechoice.club/*
||freechoice.club^$third-party
*cdn.opencmp.net/*
||consentmanager.net^$third-party
||usercentrics.eu^$third-party
! Element hiding for leftover first-party shells
##div[data-cmp-shell]
##.cmp-placeholder
! Never break SMP account/login pages themselves
@@||pay.contentpass.net^
@@||account.freechoice.club^
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{parse_line, FilterLine};

    #[test]
    fn justdomains_are_registrable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in JUSTDOMAINS {
            assert!(
                httpsim::registrable_domain(d) == Some(*d),
                "{d} must be a bare registrable domain"
            );
            assert!(seen.insert(*d), "{d} duplicated");
        }
        assert!(JUSTDOMAINS.len() >= 50);
    }

    #[test]
    fn easylist_parses_cleanly() {
        let text = easylist_lite();
        let mut network = 0;
        for line in text.lines() {
            match parse_line(line) {
                FilterLine::Network(_) => network += 1,
                FilterLine::Ignored => {}
                FilterLine::Cosmetic => panic!("unexpected cosmetic rule {line:?}"),
            }
        }
        assert_eq!(network, JUSTDOMAINS.len() + 3);
    }

    #[test]
    fn annoyances_parses_with_exceptions_and_cosmetics() {
        let mut network = 0;
        let mut cosmetic = 0;
        let mut exceptions = 0;
        for line in ANNOYANCES_LIST.lines() {
            match parse_line(line) {
                FilterLine::Network(f) => {
                    network += 1;
                    if f.exception {
                        exceptions += 1;
                    }
                }
                FilterLine::Cosmetic => cosmetic += 1,
                FilterLine::Ignored => {}
            }
        }
        assert_eq!(network, 9);
        assert_eq!(exceptions, 2);
        assert_eq!(cosmetic, 2);
    }

    #[test]
    fn host_constants_live_under_listed_domains() {
        // The CDN hosts must be covered by the Annoyances rules.
        for host in [
            hosts::CONTENTPASS_CDN,
            hosts::FREECHOICE_CDN,
            hosts::OPENCMP_CDN,
        ] {
            let covered = ANNOYANCES_LIST.lines().any(|l| {
                l.contains(host) || {
                    matches!(parse_line(l), FilterLine::Network(f)
                    if !f.exception && f.matches(
                        &httpsim::Url::parse(&format!("https://{host}/x.js")).unwrap(),
                        Some("somepage.de")))
                }
            });
            assert!(covered, "{host} not covered by Annoyances");
        }
    }
}
