//! Property test: the shared-fetch cache is a pure optimization.
//!
//! For an arbitrary small population, a cached sweep and an uncached sweep
//! must agree on every headline observation — banner presence, cookiewall
//! verdict, and extracted price — per (region, domain) cell. This is the
//! soundness property the cache design rests on: the main document is
//! always fetched, so a hit may only skip work whose outcome is a pure
//! function of that document.

use analysis::{crawl_all_regions_with, CrawlOptions, FailureTaxonomy};
use bannerclick::BannerClick;
use httpsim::{FaultConfig, FaultPlan, Network};
use proptest::prelude::*;
use std::sync::Arc;
use webgen::{Population, PopulationConfig};

/// A compact population for the fault-injection properties (the equality
/// property crawls the whole 8-region matrix twice per case).
fn fault_config(list_size: usize, unreachable: u16) -> PopulationConfig {
    PopulationConfig {
        list_size,
        top1k_size: 10,
        global_sites: 8,
        dual_sites: 4,
        roster_divisor: 20,
        banner_fraction: 0.5,
        smp_divisor: 20,
        unreachable_per_mille: unreachable,
        epoch: 0,
    }
}

/// Install the population's servers, optionally behind a fault plan.
fn fault_world(
    pop: &Arc<Population>,
    fault: Option<FaultConfig>,
) -> (Network, Option<Arc<FaultPlan>>) {
    let net = Network::new();
    let plan = fault
        .filter(|f| !f.is_noop())
        .map(|f| Arc::new(FaultPlan::new(f)));
    webgen::server::install_with_faults(Arc::clone(pop), &net, plan.as_ref().map(Arc::clone));
    (net, plan)
}

proptest! {
    fn cache_on_and_off_crawls_agree(
        // Ranges track the tiny() preset's proportions: the generator
        // seeds each country's top-1k bucket with its share of the wall
        // roster unconditionally, so top1k_size must stay comfortably
        // above the per-country roster share (280 / roster_divisor walls).
        list_size in 60usize..120,
        top1k in 8usize..14,
        global in 5usize..15,
        dual in 0usize..8,
        roster_divisor in 15usize..40,
        banner_pct in 10u32..70,
        unreachable in 0u16..120,
    ) {
        let config = PopulationConfig {
            list_size,
            top1k_size: top1k,
            global_sites: global,
            dual_sites: dual,
            roster_divisor,
            banner_fraction: banner_pct as f64 / 100.0,
            smp_divisor: roster_divisor,
            unreachable_per_mille: unreachable,
            epoch: 0,
        };
        let pop = Arc::new(Population::generate(config));
        let net = Network::new();
        webgen::server::install(Arc::clone(&pop), &net);
        let targets = pop.merged_targets();
        let tool = BannerClick::new();

        let (cached, metrics) = crawl_all_regions_with(
            &net, &targets, &tool, &CrawlOptions { workers: 4, cache: true, ..CrawlOptions::default() });
        let (plain, _) = crawl_all_regions_with(
            &net, &targets, &tool, &CrawlOptions { workers: 4, cache: false, ..CrawlOptions::default() });

        prop_assert_eq!(cached.len(), plain.len());
        // Unreachable fetches never consult the cache, so hits + misses
        // accounts for exactly the reachable (region, domain) cells.
        let unreachable_cells: usize = cached
            .iter()
            .flat_map(|c| &c.records)
            .filter(|r| !r.reachable)
            .count();
        prop_assert_eq!(
            metrics.cache_hits + metrics.cache_misses + unreachable_cells,
            metrics.tasks_completed
        );
        for (c, p) in cached.iter().zip(&plain) {
            prop_assert_eq!(c.region, p.region);
            prop_assert_eq!(c.records.len(), p.records.len());
            for (a, b) in c.records.iter().zip(&p.records) {
                prop_assert_eq!(&a.domain, &b.domain);
                prop_assert_eq!(a.reachable, b.reachable, "reachable: {}", a.domain);
                prop_assert_eq!(a.banner, b.banner, "banner: {}", a.domain);
                prop_assert_eq!(a.cookiewall, b.cookiewall, "cookiewall: {}", a.domain);
                prop_assert_eq!(a.monthly_eur, b.monthly_eur, "price: {}", a.domain);
            }
        }
    }

    // Fault-injection soundness: transient faults plus the default retry
    // budget are invisible in the crawl output. An injected fault never
    // reaches the origin server, so retried visits consume exactly the
    // same per-site state a fault-free run would — every record (down to
    // its serialized bytes) and the failure taxonomy must match.
    fn transient_faults_with_retries_match_fault_free(
        seed in 1u64..100_000,
        rate_pct in 10u32..60,
        list_size in 40usize..80,
        unreachable in 0u16..100,
    ) {
        let pop = Arc::new(Population::generate(fault_config(list_size, unreachable)));
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let opts = CrawlOptions { workers: 4, ..CrawlOptions::default() };

        let (clean_net, _) = fault_world(&pop, None);
        let (clean, _) = crawl_all_regions_with(&clean_net, &targets, &tool, &opts);

        let fault = FaultConfig {
            transient_rate: rate_pct as f64 / 100.0,
            ..FaultConfig::new(seed)
        };
        let (chaos_net, plan) = fault_world(&pop, Some(fault));
        let (chaos, metrics) = crawl_all_regions_with(&chaos_net, &targets, &tool, &opts);
        let plan = plan.expect("nonzero transient rate installs a plan");

        prop_assert_eq!(clean.len(), chaos.len());
        for (c, f) in clean.iter().zip(&chaos) {
            prop_assert_eq!(c.region, f.region);
            prop_assert_eq!(c.records.len(), f.records.len());
            for (a, b) in c.records.iter().zip(&f.records) {
                prop_assert_eq!(
                    serde_json::to_string_pretty(a).expect("record"),
                    serde_json::to_string_pretty(b).expect("record"),
                    "record bytes diverged: {}", a.domain
                );
                prop_assert_eq!(a.failure, b.failure, "failure kind: {}", a.domain);
            }
        }
        // The taxonomies agree on every failure bucket; only the rescue
        // counter (retried_ok) may grow under chaos.
        let clean_tax = FailureTaxonomy::from_crawls(&clean);
        let chaos_tax = FailureTaxonomy::from_crawls(&chaos);
        prop_assert_eq!(clean_tax.total_failures, chaos_tax.total_failures);
        prop_assert_eq!(clean_tax.gave_up, chaos_tax.gave_up);
        // And when faults actually fired, retries must have absorbed them.
        if plan.injected().total() > 0 {
            prop_assert!(
                metrics.retries > 0,
                "faults were injected but nothing retried"
            );
        }
    }

    // Permanent faults are terminal and appear in the taxonomy exactly
    // once per vantage point: a domain fails iff it is dead in the ground
    // truth or permanently faulted by the plan, in every region, and the
    // per-region failure totals count each such domain once.
    fn permanent_faults_enter_taxonomy_exactly_once(
        seed in 1u64..100_000,
        perm_pct in 5u32..35,
        list_size in 40usize..80,
        unreachable in 0u16..100,
    ) {
        let pop = Arc::new(Population::generate(fault_config(list_size, unreachable)));
        let targets = pop.merged_targets();
        let tool = BannerClick::new();
        let fault = FaultConfig {
            permanent_rate: perm_pct as f64 / 100.0,
            ..FaultConfig::new(seed)
        };
        let (net, plan) = fault_world(&pop, Some(fault));
        let plan = plan.expect("nonzero permanent rate installs a plan");
        let opts = CrawlOptions { workers: 4, ..CrawlOptions::default() };
        let (chaos, _) = crawl_all_regions_with(&net, &targets, &tool, &opts);

        let expected_failed: usize = targets
            .iter()
            .filter(|d| pop.is_dead(d) || plan.fault_for(httpsim::Region::ALL[0], d, u32::MAX).is_some())
            .count();
        for crawl in &chaos {
            let mut seen = std::collections::HashSet::new();
            for record in &crawl.records {
                prop_assert!(seen.insert(record.domain.clone()), "duplicate: {}", record.domain);
                let expected = pop.is_dead(&record.domain)
                    || plan.fault_for(httpsim::Region::ALL[0], &record.domain, u32::MAX).is_some();
                prop_assert_eq!(
                    record.failure.is_some(),
                    expected,
                    "{} in {:?}: failure {:?}", record.domain, crawl.region, record.failure
                );
            }
        }
        let tax = FailureTaxonomy::from_crawls(&chaos);
        prop_assert_eq!(tax.total_failures, expected_failed * chaos.len());
        for region in &tax.per_region {
            prop_assert_eq!(region.total(), expected_failed, "{}", &region.region);
        }
    }
}
