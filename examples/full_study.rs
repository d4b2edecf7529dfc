//! Full paper-scale reproduction: 45,222 targets × 8 vantage points,
//! every table and figure. Writes the text report and JSON results.
//!
//! Run with: `cargo run --release --example full_study`

fn main() {
    let t0 = std::time::Instant::now();
    eprintln!("generating the synthetic web (45,222 targets, 280 walls)…");
    let study = analysis::Study::paper();
    eprintln!("  population ready in {:?}", t0.elapsed());

    let t1 = std::time::Instant::now();
    eprintln!("crawling from 8 vantage points and running every experiment…");
    let report = analysis::run_all(&study);
    eprintln!("  crawls done in {} ms", report.crawl_metrics.wall_ms);
    eprintln!("  crawls and experiments done in {:?}", t1.elapsed());

    println!("{}", report.render());
    if let Err(e) = std::fs::write("full_study_results.json", report.to_json()) {
        eprintln!("could not write JSON results: {e}");
    } else {
        eprintln!("machine-readable results: full_study_results.json");
    }
    eprintln!("total wall time: {:?}", t0.elapsed());
}
