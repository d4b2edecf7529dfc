//! Component microbenches: the substrate operations that bound crawl
//! throughput — HTML parsing, selection, text extraction, cookie handling,
//! price extraction, language identification, and population generation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webdom::parse;
use webgen::{Population, PopulationConfig};

/// A representative cookiewall page (first-party shadow embedding).
fn sample_page() -> String {
    let study = bench::small_study();
    let wall = study
        .population
        .ground_truth_walls()
        .into_iter()
        .find(|s| {
            matches!(&s.banner, webgen::BannerKind::Cookiewall(c)
            if c.embedding.is_shadow() && c.serving == webgen::Serving::FirstParty)
        })
        .or_else(|| study.population.ground_truth_walls().into_iter().next())
        .unwrap()
        .domain
        .clone();
    let req = httpsim::Request::navigation(
        httpsim::Url::parse(&wall).unwrap(),
        httpsim::Region::Germany,
    );
    study.net.dispatch(&req).body_text()
}

fn bench_webdom(c: &mut Criterion) {
    let html = sample_page();
    c.bench_function("micro/webdom_parse_page", |b| {
        b.iter(|| black_box(parse(&html).len()))
    });
    let doc = parse(&html);
    c.bench_function("micro/webdom_select", |b| {
        b.iter(|| {
            black_box(
                doc.select(doc.root(), "div.consent-wall button, a[href]")
                    .unwrap()
                    .len(),
            )
        })
    });
    c.bench_function("micro/webdom_visible_text", |b| {
        b.iter(|| black_box(doc.visible_text(doc.root()).len()))
    });
    c.bench_function("micro/webdom_xpath", |b| {
        let xp = webdom::XPath::parse("//div[contains(@class,'consent')]//button").unwrap();
        b.iter(|| black_box(xp.select(&doc, doc.root()).len()))
    });
    c.bench_function("micro/webdom_serialize", |b| {
        b.iter(|| black_box(doc.to_html().len()))
    });
    c.bench_function("micro/webdom_clone_subtree", |b| {
        let body = doc.body().unwrap();
        b.iter_batched(
            || doc.clone(),
            |mut d| {
                let clone = d.clone_subtree(body);
                black_box(clone)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_httpsim(c: &mut Criterion) {
    c.bench_function("micro/url_parse", |b| {
        b.iter(|| {
            black_box(
                httpsim::Url::parse("https://www.beispiel-zeitung.de/politik/artikel?id=42")
                    .unwrap(),
            )
        })
    });
    c.bench_function("micro/registrable_domain", |b| {
        b.iter(|| black_box(httpsim::registrable_domain("ads.tracker.example.co.uk")))
    });
    let origin = httpsim::Url::parse("https://www.zeitung.de/").unwrap();
    c.bench_function("micro/set_cookie_parse", |b| {
        b.iter(|| {
            black_box(httpsim::Cookie::parse_set_cookie(
                "uid=abc123; Domain=zeitung.de; Path=/; Max-Age=31536000; Secure; SameSite=None",
                &origin,
            ))
        })
    });
    c.bench_function("micro/jar_store_and_match_50", |b| {
        b.iter(|| {
            let mut jar = httpsim::CookieJar::new();
            for i in 0..50 {
                jar.store_response_cookies([format!("c{i}=v{i}").as_str()], &origin);
            }
            black_box(jar.cookies_for(&origin).len())
        })
    });
}

fn bench_classifiers(c: &mut Criterion) {
    let wall_text = webgen::wall_text(
        langid::Language::German,
        "beispiel.de",
        &webgen::PriceSpec {
            amount_cents: 3588,
            currency: webgen::Currency::Eur,
            period: webgen::Period::Year,
        },
        Some("contentpass"),
    );
    c.bench_function("micro/price_extraction", |b| {
        b.iter(|| black_box(bannerclick::subscription_price(&wall_text)))
    });
    let prose = webgen::body_sentences(langid::Language::German).join(" ");
    c.bench_function("micro/langid_detect", |b| {
        b.iter(|| black_box(langid::detect(&prose)))
    });
    // What the crawl actually detects on: a page's visible text, a space,
    // then the wall copy with its price (as `record_from_page` builds it).
    let doc = parse(&sample_page());
    let wall_copy = webgen::wall_text(
        langid::Language::German,
        "beispiel.de",
        &webgen::PriceSpec {
            amount_cents: 299,
            currency: webgen::Currency::Eur,
            period: webgen::Period::Month,
        },
        Some("contentpass"),
    );
    let page_text = format!("{} {wall_copy}", doc.visible_text(doc.root()));
    c.bench_function("micro/langid_detect_page", |b| {
        b.iter(|| black_box(langid::detect(&page_text)))
    });
    c.bench_function("micro/classify_wall", |b| {
        b.iter(|| {
            black_box(bannerclick::classify_wall(&wall_text, Default::default()).is_cookiewall)
        })
    });
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/generation");
    g.sample_size(10);
    g.bench_function("population_tiny", |b| {
        b.iter(|| black_box(Population::generate(PopulationConfig::tiny()).sites().len()))
    });
    g.bench_function("population_small", |b| {
        b.iter(|| {
            black_box(
                Population::generate(PopulationConfig::small())
                    .sites()
                    .len(),
            )
        })
    });
    g.bench_function("roster_paper", |b| {
        b.iter(|| black_box(webgen::paper_roster().0.len()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_webdom,
    bench_httpsim,
    bench_classifiers,
    bench_generation
);
criterion_main!(benches);
