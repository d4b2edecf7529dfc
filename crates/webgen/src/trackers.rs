//! Tracker and third-party ecosystems of the synthetic web.
//!
//! Two pools exist, mirroring reality's split that makes the justdomains
//! classification meaningful (§4.3):
//!
//! * the **listed tracker pool** — exactly the justdomains entries from the
//!   `blocklist` crate; cookies from these hosts count as tracking cookies;
//! * the **benign third-party pool** — CDNs, font and widget hosts that set
//!   cookies but are *not* on the tracker list; their cookies are
//!   third-party yet non-tracking.

use crate::names::{rng_for_hash, StableHasher};
use rand::Rng;

/// Hosts that set third-party cookies but are not on the justdomains list.
pub const BENIGN_THIRD_PARTIES: &[&str] = &[
    "cdn.webstatichub.net",
    "assets.sitecloud.io",
    "fonts.typeserve.org",
    "static.pagespeedy.com",
    "media.imagefarm.net",
    "embed.videowidgets.io",
    "api.weatherbox.net",
    "comments.discusso.org",
    "maps.geotiles.io",
    "search.sitefinder.net",
    "newsletter.mailblast.io",
    "cdn.scriptmirror.org",
    "player.audiocast.net",
    "badges.sharebuttons.io",
    "quiz.pollmaker.org",
];

/// The listed tracker pool (re-exported from the blocklist data so the
/// generator and the classifier can never disagree).
pub(crate) fn tracker_pool() -> &'static [&'static str] {
    blocklist::data::JUSTDOMAINS
}

/// One tracker script a page embeds for a given visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerPlan {
    /// Host serving the tracker script.
    pub host: &'static str,
    /// Cookies this tracker sets on this visit.
    pub cookies: u32,
    /// Cookie-name offset: lets one host be embedded twice in very heavy
    /// plans without its second batch replacing the first (jar keys are
    /// (name, domain, path)).
    pub name_offset: u32,
    /// Cookie-sync partner: after setting its cookies the tracker redirects
    /// to this host, which sets `1` more cookie (classic cookie syncing).
    pub sync_with: Option<&'static str>,
}

/// Plan which trackers a page visit embeds so that the total number of
/// tracker-set cookies is exactly `total_cookies`, spread over a plausible
/// number of distinct trackers. Deterministic in `(site, visit)`.
pub fn plan_trackers(site: &str, visit: u64, total_cookies: u32) -> Vec<TrackerPlan> {
    if total_cookies == 0 {
        return Vec::new();
    }
    let pool = tracker_pool();
    let mut rng = rng_for_hash(keyed_hash(b"trackers/", site), visit);
    // Each tracker sets 2–5 cookies; pick enough trackers to cover.
    let mut plans: Vec<TrackerPlan> = Vec::with_capacity(total_cookies.div_ceil(2) as usize);
    let mut remaining = total_cookies;
    // Stable per-site tracker subset: rotate the pool by a site-derived
    // offset so different sites use different (but overlapping) trackers.
    let offset = rng.random_range(0..pool.len());
    let mut per_host_offset: std::collections::HashMap<&str, u32> =
        std::collections::HashMap::new();
    let mut idx = 0;
    while remaining > 0 {
        let host = pool[(offset + idx) % pool.len()];
        idx += 1;
        let per = rng.random_range(2..=5).min(remaining);
        // ~20% of trackers cookie-sync with the next pool entry. The sync
        // partner sets one of the budgeted cookies.
        let sync = remaining > per && rng.random_bool(0.2);
        let sync_with = sync.then(|| pool[(offset + idx) % pool.len()]);
        remaining -= per;
        if sync_with.is_some() {
            remaining = remaining.saturating_sub(1);
        }
        // Extremely heavy plans wrap around the pool; the per-host name
        // offset keeps every cookie distinct under jar replacement.
        let slot = per_host_offset.entry(host).or_insert(0);
        let name_offset = *slot;
        *slot += per;
        plans.push(TrackerPlan {
            host,
            cookies: per,
            name_offset,
            sync_with,
        });
    }
    plans
}

/// Plan the benign third parties for a visit: each sets exactly one cookie.
pub fn plan_benign(site: &str, visit: u64, total_cookies: u32) -> Vec<&'static str> {
    let mut rng = rng_for_hash(keyed_hash(b"benign/", site), visit);
    let offset = rng.random_range(0..BENIGN_THIRD_PARTIES.len());
    (0..total_cookies as usize)
        .map(|i| BENIGN_THIRD_PARTIES[(offset + i) % BENIGN_THIRD_PARTIES.len()])
        .collect()
}

/// The stable hash of `{prefix}{site}`, streamed rather than built.
fn keyed_hash(prefix: &[u8], site: &str) -> u64 {
    StableHasher::new()
        .write(prefix)
        .write(site.as_bytes())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cookies `plans` set, sync-partner cookies included.
    fn cookie_total(plans: &[TrackerPlan]) -> u32 {
        plans
            .iter()
            .map(|p| p.cookies + u32::from(p.sync_with.is_some()))
            .sum()
    }

    #[test]
    fn pools_disjoint() {
        let trackers: std::collections::HashSet<_> = tracker_pool().iter().collect();
        for b in BENIGN_THIRD_PARTIES {
            let rd = httpsim::registrable_domain(b).unwrap();
            assert!(!trackers.contains(&rd), "{b} must not be a listed tracker");
        }
    }

    #[test]
    fn plan_hits_exact_total() {
        for total in [1u32, 3, 10, 43, 70, 120] {
            let plans = plan_trackers("zeitung.de", 0, total);
            assert_eq!(cookie_total(&plans), total, "total {total}");
        }
        assert!(plan_trackers("zeitung.de", 0, 0).is_empty());
    }

    #[test]
    fn plan_deterministic_per_visit() {
        let a = plan_trackers("site.de", 1, 43);
        let b = plan_trackers("site.de", 1, 43);
        assert_eq!(a, b);
        let c = plan_trackers("site.de", 2, 43);
        assert_ne!(a, c, "different visit ⇒ different plan");
    }

    #[test]
    fn different_sites_use_different_trackers() {
        let a: Vec<_> = plan_trackers("alpha.de", 0, 20)
            .iter()
            .map(|p| p.host)
            .collect();
        let b: Vec<_> = plan_trackers("beta.de", 0, 20)
            .iter()
            .map(|p| p.host)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn benign_plan_sizes() {
        assert_eq!(plan_benign("x.de", 0, 7).len(), 7);
        assert!(plan_benign("x.de", 0, 0).is_empty());
        // All hosts come from the benign pool.
        for h in plan_benign("x.de", 3, 30) {
            assert!(BENIGN_THIRD_PARTIES.contains(&h));
        }
    }

    #[test]
    fn heavy_plans_have_many_trackers() {
        let plans = plan_trackers("heavy.de", 0, 100);
        assert!(
            plans.len() >= 15,
            "100 cookies need many trackers: {}",
            plans.len()
        );
        let syncs = plans.iter().filter(|p| p.sync_with.is_some()).count();
        assert!(syncs >= 1, "cookie syncing should occur in large plans");
    }
}
