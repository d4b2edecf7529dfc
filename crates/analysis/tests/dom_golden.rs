//! DOM golden: what the browser loads and the detector finds, document by
//! document, against a checked-in fixture.
//!
//! The report golden (`golden.rs`) pins the study's aggregates; this one
//! pins the layer under them. For every distinct document of the tiny
//! population — every region, under the default user agent and the naive
//! bot's — it writes one line holding each loaded frame's serialization
//! digest, the main frame's visible text, the observed provider, and the
//! first finding under each of the ablation's three distinct detector
//! settings (frame, embedding, text, and the root as a child-index path).
//! A parser, loader or detector change that moves any of these shows up
//! here even when the report's counts do not move.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p analysis --test dom_golden`.

#![allow(clippy::disallowed_methods, reason = "UPDATE_GOLDEN regenerates it")]

use analysis::experiments::botdetect::NAIVE_BOT_UA;
use analysis::Study;
use bannerclick::{observed_provider, BannerClick, BannerFinding, DetectorOptions};
use browser::{Browser, Page};
use httpsim::{content_hash, document_hash, Region};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use webdom::{Document, NodeId};
use webgen::PopulationConfig;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/dom_golden_tiny.txt"
);

/// The ablation's distinct detector settings (its two corpus-only rows
/// detect under the full setting).
fn detectors() -> [(&'static str, DetectorOptions); 3] {
    let full = DetectorOptions::default();
    [
        ("full", full.clone()),
        (
            "no-shadow",
            DetectorOptions {
                pierce_shadow: false,
                ..full.clone()
            },
        ),
        (
            "no-iframe",
            DetectorOptions {
                descend_iframes: false,
                ..full
            },
        ),
    ]
}

/// `node`'s address as child indices from the document root down. A step
/// into a shadow tree is written `s` after the host's own path.
fn path(doc: &Document, node: NodeId) -> String {
    let mut steps = Vec::new();
    let mut cursor = node;
    loop {
        match doc.node(cursor).parent {
            Some(parent) => {
                let index = doc.children(parent).position(|c| c == cursor).unwrap();
                steps.push(index.to_string());
                cursor = parent;
            }
            None if cursor == doc.root() => break,
            None => {
                let host = *doc
                    .shadow_hosts()
                    .iter()
                    .find(|&&h| doc.shadow_root(h).map(|s| s.root) == Some(cursor))
                    .expect("a parentless node other than the root is a shadow root");
                steps.push("s".to_string());
                cursor = host;
            }
        }
    }
    steps.reverse();
    steps.join("/")
}

fn finding_line(page: &Page, finding: Option<&BannerFinding>) -> String {
    match finding {
        None => "none".to_string(),
        Some(b) => format!(
            "frame={} {:?} root={} text={:?}",
            b.root.frame,
            b.embedding,
            path(&page.frames[b.root.frame].doc, b.root.node),
            b.text
        ),
    }
}

fn page_line(tool: &BannerClick, page: &Page) -> String {
    let mut line = String::new();
    for (i, frame) in page.frames.iter().enumerate() {
        let html = frame.doc.to_html();
        write!(line, " frame{i}={:016x}", content_hash(html.as_bytes())).unwrap();
    }
    write!(
        line,
        " provider={:?} main_text={:?}",
        observed_provider(page),
        page.main_text()
    )
    .unwrap();
    for (label, options) in detectors() {
        let detector = BannerClick {
            detector: options,
            corpus: tool.corpus,
        };
        let finding = detector.detect(page);
        write!(line, " {label}=[{}]", finding_line(page, finding.as_ref())).unwrap();
    }
    line
}

fn render() -> String {
    let study = Study::new(PopulationConfig::tiny());
    let targets = study.targets();
    let mut lines: BTreeMap<(String, u64), String> = BTreeMap::new();
    for region in Region::ALL {
        for ua in [None, Some(NAIVE_BOT_UA)] {
            let mut browser = Browser::new(study.net.clone(), region);
            if let Some(ua) = ua {
                browser = browser.with_user_agent(ua);
            }
            for domain in &targets {
                browser.clear_cookies();
                let Ok(fetched) = browser.fetch_domain_document(domain) else {
                    continue;
                };
                let key = (domain.clone(), document_hash(fetched.body_bytes()));
                if lines.contains_key(&key) {
                    continue;
                }
                let line = match browser.load_fetched(&fetched) {
                    Ok(page) => page_line(&study.tool, &page),
                    Err(err) => format!(" load-error={err}"),
                };
                lines.insert(key, line);
            }
        }
    }
    let mut out = String::new();
    for ((domain, hash), line) in lines {
        writeln!(out, "{domain} {hash:016x}{line}").unwrap();
    }
    out
}

#[test]
fn tiny_population_doms_match_golden() {
    let rendered = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        eprintln!("fixture regenerated: {FIXTURE}");
        return;
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect(
        "DOM golden fixture missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p analysis --test dom_golden",
    );
    for (i, (want, got)) in fixture.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "DOM golden line {} drifted", i + 1);
    }
    assert_eq!(
        fixture.lines().count(),
        rendered.lines().count(),
        "DOM golden document count drifted"
    );
}
