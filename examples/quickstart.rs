//! Quickstart: build a reduced-scale synthetic web, run the complete
//! measurement study (every table and figure), and print the report.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::disallowed_methods, reason = "wall time is printed, not kept")]

fn main() {
    let t0 = std::time::Instant::now();

    // 1. Assemble the world: a 1/25-scale population (seven country
    //    toplists, ~30 cookiewalls, decoy paywalls, SMPs, trackers) mounted
    //    on a simulated network, plus the BannerClick detection pipeline.
    let study = analysis::Study::small();
    eprintln!(
        "world ready: {} sites, {} crawl targets, {} ground-truth walls ({:?})",
        study.population.sites().len(),
        study.targets().len(),
        study.population.ground_truth_walls().len(),
        t0.elapsed()
    );

    // 2. Run the paper's full evaluation: the eight-vantage-point crawl
    //    (Table 1), detection accuracy (§3), Figures 1–6, the adblock
    //    bypass experiment (§4.5), and the SMP report (§4.4).
    let report = analysis::run_all(&study);

    // 3. Print every table and figure.
    println!("{}", report.render());
    eprintln!("done in {:?}", t0.elapsed());
}
