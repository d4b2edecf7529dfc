//! Adblock filter parsing and matching.
//!
//! Implements the EasyList syntax subset that matters for cookiewall
//! blocking (§4.5 of the paper — uBlock Origin with the Annoyances lists):
//!
//! * `||domain.example^` — domain anchor (the domain and its subdomains);
//! * `*fragment*` / plain fragments — substring match on the full URL
//!   (`*cdn.opencmp.net/*` style, as quoted in the paper's footnote 7);
//! * `|https://exact.example/path` — left-anchored match;
//! * `@@` prefix — exception rule (overrides blocking rules);
//! * `!` prefix — comment;
//! * `example.de##.selector` / `##.selector` — cosmetic (element-hiding)
//!   rules, global or scoped to a site;
//! * trailing `$options` are parsed and ignored except for
//!   `$third-party`, which restricts the rule to cross-site loads.

use httpsim::{same_site, Url};

/// A parsed network filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkFilter {
    /// Match kind.
    pub pattern: Pattern,
    /// True for `@@` exception rules.
    pub exception: bool,
    /// `$third-party`: match only when the request is cross-site w.r.t.
    /// the initiating page.
    pub third_party_only: bool,
}

/// The matching strategy of a network filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `||domain^`: the request host is `domain` or a subdomain.
    DomainAnchor(String),
    /// `|prefix`: the URL string starts with `prefix`.
    LeftAnchor(String),
    /// Wildcard fragments: every fragment must appear in order in the URL.
    Fragments(Vec<String>),
}

/// One line of a filter list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterLine {
    /// A network (request-blocking) rule.
    Network(NetworkFilter),
    /// A cosmetic (element-hiding) rule, `[domains]##selector`. The
    /// simulated browser hides no elements, so its parts are not kept.
    Cosmetic,
    /// Comment or empty line.
    Ignored,
}

/// Parse one filter-list line.
pub fn parse_line(line: &str) -> FilterLine {
    let line = line.trim();
    if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
        return FilterLine::Ignored;
    }
    // Cosmetic rules: [domains]##selector
    if let Some((_, selector)) = line.split_once("##") {
        return if selector.is_empty() {
            FilterLine::Ignored
        } else {
            FilterLine::Cosmetic
        };
    }
    // Network rules.
    let (exception, rest) = match line.strip_prefix("@@") {
        Some(r) => (true, r),
        None => (false, line),
    };
    // Split off $options.
    let (body, options) = match rest.rsplit_once('$') {
        // Careful: '$' may legitimately appear in a URL fragment; only treat
        // it as an options separator if what follows looks like options.
        Some((b, opts))
            if opts.split(',').all(|o| {
                o.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '=' || c == '~')
            }) && !opts.is_empty() =>
        {
            (b, Some(opts))
        }
        _ => (rest, None),
    };
    let third_party_only = options
        .map(|o| o.split(',').any(|o| o == "third-party" || o == "3p"))
        .unwrap_or(false);
    if body.is_empty() {
        return FilterLine::Ignored;
    }
    let pattern = if let Some(domain_part) = body.strip_prefix("||") {
        let domain = domain_part
            .trim_end_matches('^')
            .trim_end_matches('/')
            .to_ascii_lowercase();
        if domain.is_empty() {
            return FilterLine::Ignored;
        }
        Pattern::DomainAnchor(domain)
    } else if let Some(prefix) = body.strip_prefix('|') {
        if prefix.is_empty() {
            return FilterLine::Ignored;
        }
        Pattern::LeftAnchor(prefix.to_string())
    } else {
        let fragments: Vec<String> = body
            .split('*')
            .filter(|f| !f.is_empty())
            .map(|f| f.trim_end_matches('^').to_string())
            .filter(|f| !f.is_empty())
            .collect();
        if fragments.is_empty() {
            return FilterLine::Ignored;
        }
        Pattern::Fragments(fragments)
    };
    FilterLine::Network(NetworkFilter {
        pattern,
        exception,
        third_party_only,
    })
}

impl NetworkFilter {
    /// Does this filter match a request to `url` initiated by a page on
    /// `initiator_host` (`None` for top-level navigations)? Patterns read
    /// the URL's serialization in place.
    pub fn matches(&self, url: &Url, initiator_host: Option<&str>) -> bool {
        let rendered = url.as_str();
        if self.third_party_only {
            match initiator_host {
                // Top-level loads are never third-party.
                None => return false,
                Some(init) => {
                    if same_site(url.host(), init) {
                        return false;
                    }
                }
            }
        }
        match &self.pattern {
            Pattern::DomainAnchor(domain) => httpsim::domain_match(url.host(), domain),
            Pattern::LeftAnchor(prefix) => rendered.starts_with(prefix.as_str()),
            Pattern::Fragments(fragments) => {
                let mut pos = 0;
                for f in fragments {
                    match rendered[pos..].find(f.as_str()) {
                        Some(i) => pos += i + f.len(),
                        None => return false,
                    }
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(line: &str) -> NetworkFilter {
        match parse_line(line) {
            FilterLine::Network(f) => f,
            other => panic!("expected network filter for {line:?}, got {other:?}"),
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn comments_and_blank_ignored() {
        assert_eq!(parse_line(""), FilterLine::Ignored);
        assert_eq!(parse_line("! comment"), FilterLine::Ignored);
        assert_eq!(parse_line("[Adblock Plus 2.0]"), FilterLine::Ignored);
    }

    #[test]
    fn domain_anchor() {
        let f = net("||consentmanager.net^");
        assert!(f.matches(&url("https://consentmanager.net/x.js"), None));
        assert!(f.matches(&url("https://cdn.consentmanager.net/delivery/cmp.js"), None));
        assert!(!f.matches(&url("https://notconsentmanager.net/"), None));
        assert!(!f.matches(&url("https://consentmanager.net.evil.com/"), None));
    }

    #[test]
    fn wildcard_fragments() {
        // The exact style quoted in the paper's footnote.
        let f = net("*cdn.opencmp.net/*");
        assert!(f.matches(&url("https://cdn.opencmp.net/banner.js"), None));
        assert!(!f.matches(&url("https://opencmp.net/banner.js"), None));
        let multi = net("*ads*track*");
        assert!(multi.matches(&url("https://ads.example/track.gif"), None));
        assert!(
            !multi.matches(&url("https://track.example/ads.gif"), None),
            "fragments must appear in order"
        );
    }

    #[test]
    fn left_anchor() {
        let f = net("|https://exact.example/path");
        assert!(f.matches(&url("https://exact.example/path/deep"), None));
        assert!(!f.matches(
            &url("https://other.example/https://exact.example/path"),
            None
        ));
    }

    #[test]
    fn exception_rules() {
        let f = net("@@||goodsite.de^");
        assert!(f.exception);
        assert!(f.matches(&url("https://goodsite.de/app.js"), None));
    }

    #[test]
    fn third_party_option() {
        let f = net("||widgets.example^$third-party");
        assert!(f.third_party_only);
        // Cross-site: match.
        assert!(f.matches(&url("https://widgets.example/w.js"), Some("news.de")));
        // Same-site: no match.
        assert!(!f.matches(
            &url("https://widgets.example/w.js"),
            Some("cdn.widgets.example")
        ));
        // Top-level navigation: no match.
        assert!(!f.matches(&url("https://widgets.example/"), None));
    }

    #[test]
    fn options_ignored_but_parsed() {
        let f = net("||adhost.com^$script,image");
        assert!(!f.third_party_only);
        assert!(f.matches(&url("https://adhost.com/a.js"), None));
    }

    #[test]
    fn cosmetic_rules() {
        assert_eq!(parse_line("##.cookiewall-overlay"), FilterLine::Cosmetic);
        assert_eq!(
            parse_line("zeitung.de,magazin.de##.cmp-box"),
            FilterLine::Cosmetic
        );
        assert_eq!(parse_line("zeitung.de##"), FilterLine::Ignored);
    }

    #[test]
    fn degenerate_rules_ignored() {
        assert_eq!(parse_line("||"), FilterLine::Ignored);
        assert_eq!(parse_line("|"), FilterLine::Ignored);
        assert_eq!(parse_line("***"), FilterLine::Ignored);
        assert_eq!(parse_line("##"), FilterLine::Ignored);
        assert_eq!(parse_line("@@"), FilterLine::Ignored);
    }
}
