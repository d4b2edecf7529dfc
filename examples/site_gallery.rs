//! Site gallery: print the actual HTML the synthetic web serves for each
//! consent-UI class — the markup the detection pipeline has to handle.
//!
//! Run with: `cargo run --release --example site_gallery`

use httpsim::{Network, Region, Request, Url};
use std::sync::Arc;
use webgen::{BannerKind, Embedding, Population, PopulationConfig, Serving};

fn main() {
    let population = Arc::new(Population::generate(PopulationConfig::tiny()));
    let net = Network::new();
    webgen::server::install(Arc::clone(&population), &net);

    let mut shown: Vec<(&str, String)> = Vec::new();
    let pick = |pred: &dyn Fn(&webgen::SiteSpec) -> bool| -> Option<String> {
        population
            .sites()
            .iter()
            .find(|s| pred(s))
            .map(|s| s.domain.clone())
    };

    if let Some(d) = pick(
        &|s| matches!(&s.banner, BannerKind::Banner(b) if b.embedding == Embedding::MainDom && b.serving == Serving::FirstParty),
    ) {
        shown.push(("regular cookie banner (inline, first-party)", d));
    }
    if let Some(d) = pick(
        &|s| matches!(&s.banner, BannerKind::Cookiewall(c) if c.embedding == Embedding::MainDom && c.serving == Serving::FirstParty),
    ) {
        shown.push(("cookiewall (inline in the main DOM)", d));
    }
    if let Some(d) = pick(
        &|s| matches!(&s.banner, BannerKind::Cookiewall(c) if c.embedding == Embedding::Iframe),
    ) {
        shown.push(("cookiewall (SMP iframe)", d));
    }
    if let Some(d) =
        pick(&|s| matches!(&s.banner, BannerKind::Cookiewall(c) if c.embedding.is_shadow()))
    {
        shown.push(("cookiewall (shadow DOM)", d));
    }
    if let Some(d) = pick(&|s| matches!(s.banner, BannerKind::DecoyPaywall)) {
        shown.push(("decoy hard paywall (the false-positive trap)", d));
    }

    for (label, domain) in shown {
        let url = Url::parse(&domain).unwrap();
        let resp = net.dispatch(&Request::navigation(&url, Region::Germany));
        println!("══════════════════════════════════════════════════════════");
        println!("  {label}");
        println!("  https://{domain}/   ({} bytes)", resp.body.len());
        println!("══════════════════════════════════════════════════════════");
        println!("{}\n", pretty(&resp.body_text()));
    }
}

/// Crude pretty-printer: newline before each opening tag, indented by depth.
fn pretty(html: &str) -> String {
    let mut out = String::new();
    let mut depth: usize = 0;
    let mut chars = html.chars().peekable();
    let mut buf = String::new();
    while let Some(c) = chars.next() {
        if c == '<' {
            if !buf.trim().is_empty() {
                out.push_str(&"  ".repeat(depth));
                out.push_str(buf.trim());
                out.push('\n');
            }
            buf.clear();
            let closing = chars.peek() == Some(&'/');
            let mut tag = String::from('<');
            for t in chars.by_ref() {
                tag.push(t);
                if t == '>' {
                    break;
                }
            }
            if closing {
                depth = depth.saturating_sub(1);
            }
            out.push_str(&"  ".repeat(depth));
            out.push_str(&tag);
            out.push('\n');
            let name: String = tag
                .trim_start_matches('<')
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !closing
                && !tag.ends_with("/>")
                && !webdom::is_void_element(&name.to_ascii_lowercase())
            {
                depth += 1;
            }
        } else {
            buf.push(c);
        }
    }
    out
}
