//! Word corpora for banner detection and cookiewall classification.
//!
//! Three vocabularies drive the pipeline, mirroring §3 of the paper:
//!
//! 1. **Consent words** — multilingual cookie/consent vocabulary used to
//!    find banner candidate elements (the BannerClick stage).
//! 2. **Subscription words** — the paper's cookiewall corpus: *abo,
//!    abonnent, abbonamento, abonne, abonné, ad-free, subscribe*, extended
//!    with the equivalents for the other languages the crawl encounters.
//! 3. **Currency words and symbols** — the top global currencies plus the
//!    vantage-point currencies (EUR, USD, CHF, AUD, GBP, Rs, BRL, CNY,
//!    ZAR), checked in price-pattern combinations by the `pricing` module.

use std::sync::OnceLock;

/// Multilingual consent vocabulary (lowercase substrings). A banner
/// candidate is any element whose text contains at least one of these.
pub const CONSENT_WORDS: &[&str] = &[
    // English.
    "cookie",
    "consent",
    "privacy",
    "tracking",
    "personalised",
    "personalized",
    "ad-free",
    "advertising",
    // German.
    "zustimm",
    "einwillig",
    "datenschutz",
    "werbung",
    "werbefrei",
    "personalisier",
    // Italian.
    "pubblicità",
    "tracciamento",
    "consenso",
    "privacy",
    // Swedish.
    "kakor",
    "samtycke",
    "spårning",
    "reklamfri",
    "annonser",
    // French.
    "publicité",
    "suivi",
    "consentement",
    // Portuguese.
    "publicidade",
    "rastreamento",
    "consentimento",
    "anúncios",
    // Spanish.
    "publicidad",
    "seguimiento",
    "consentimiento",
    "anuncios",
    // Dutch.
    "toestemming",
    "advertenties",
    "reclamevrij",
    "privacyverklaring",
];

/// Subscription vocabulary — the cookiewall-specific word list.
pub const SUBSCRIPTION_WORDS: &[&str] = &[
    // The paper's corpus, verbatim.
    "abo",
    "abonnent",
    "abbonamento",
    "abonne",
    "abonné",
    "ad-free",
    "subscribe",
    // Equivalents for the remaining crawl languages.
    "abonnement",
    "abonnemang",
    "prenumeration",
    "assinatura",
    "subscrever",
    "suscripción",
    "suscribirse",
    "abonnieren",
    "abonneren",
    "pur-abo",
    "purabo",
    "sottoscrivi",
    "subscription",
    "werbefrei",
    "reklamfri",
    "reclamevrij",
];

/// Words that label an accept action on a button.
pub const ACCEPT_WORDS: &[&str] = &[
    "accept",
    "akzeptieren",
    "zustimmen",
    "einverstanden",
    "agree",
    "accetta",
    "acconsento",
    "godkänn",
    "accepter",
    "aceitar",
    "aceptar",
    "accepteren",
    "alle akzeptieren",
    "allow",
    "erlauben",
    "verstanden",
];

/// Labels that are an accept action only when they are the *whole* label
/// ("OK" would otherwise substring-match "cookies").
pub const ACCEPT_EXACT_LABELS: &[&str] = &["ok", "ok!", "okay", "got it", "alles klar"];

/// Words that label a reject action on a button.
pub const REJECT_WORDS: &[&str] = &[
    "reject",
    "ablehnen",
    "decline",
    "rifiuta",
    "neka",
    "refuser",
    "rejeitar",
    "rechazar",
    "weigeren",
    "deny",
    "verweigern",
    "nur notwendige",
    "only necessary",
];

/// Words that label a subscribe action (link to the pay option).
pub const SUBSCRIBE_ACTION_WORDS: &[&str] = &[
    "subscribe",
    "abonnieren",
    "abo abschließen",
    "abschließen",
    "sottoscrivi",
    "teckna",
    "s'abonner",
    "subscrever",
    "suscribirse",
    "abonneren",
    "jetzt abo",
];

/// Words that label a settings/preferences control.
pub const SETTINGS_WORDS: &[&str] = &[
    "settings",
    "einstellungen",
    "manage",
    "verwalten",
    "preferences",
    "präferenzen",
    "gestisci",
    "preferenze",
    "hantera",
    "inställningar",
    "gérer",
    "préférences",
    "gerir",
    "preferências",
    "gestionar",
    "preferencias",
    "beheren",
    "voorkeuren",
    "options",
    "optionen",
    "anpassen",
    "customise",
    "customize",
];

/// Currency tokens: `(token, iso_code, is_symbol)`. Symbols may touch the
/// number (`$3.99`, `3,99€`); words need not (`CHF 2.50`, `3 euro`).
/// Order matters: longer tokens first so `A$` wins over `$` and `R$` over
/// `R`.
pub const CURRENCY_TOKENS: &[(&str, &str, bool)] = &[
    ("chf", "CHF", false),
    ("a$", "AUD", true),
    ("au$", "AUD", true),
    ("r$", "BRL", true),
    ("€", "EUR", true),
    ("eur", "EUR", false),
    ("euro", "EUR", false),
    ("$", "USD", true),
    ("usd", "USD", false),
    ("£", "GBP", true),
    ("gbp", "GBP", false),
    ("¥", "CNY", true),
    ("cny", "CNY", false),
    ("rs", "INR", false),
    ("zar", "ZAR", false),
    ("kr", "SEK", false),
];

/// Fixed conversion snapshot to EUR (the paper converts at a fixed rate,
/// e.g. 4 EUR ≈ 4.33 USD).
pub fn eur_rate(iso: &str) -> Option<f64> {
    Some(match iso {
        "EUR" => 1.0,
        "USD" => 0.9238,
        "CHF" => 1.02,
        "AUD" => 0.61,
        "GBP" => 1.16,
        "BRL" => 0.19,
        "CNY" => 0.13,
        "INR" => 0.011,
        "ZAR" => 0.049,
        "SEK" => 0.088,
        _ => return None,
    })
}

/// Month-period phrases (any language); year phrases. Used to normalize a
/// quoted price to per-month.
pub const MONTH_WORDS: &[&str] = &[
    "monat",
    "month",
    "mese",
    "månad",
    "mois",
    "mês",
    "mes",
    "maand",
    "monthly",
    "monatlich",
];

/// Year-period phrases.
pub const YEAR_WORDS: &[&str] = &[
    "jahr",
    "year",
    "anno",
    "år",
    "an ",
    "ano",
    "año",
    "jaar",
    "yearly",
    "jährlich",
    "annuale",
    "all'anno",
];

/// Case-insensitive containment check against a word list.
pub fn contains_any(text_lowercase: &str, words: &[&str]) -> bool {
    words.iter().any(|w| text_lowercase.contains(w))
}

/// A word list compiled for [`contains_any`] in one pass over the text:
/// a bitmap of the words' leading byte pairs picks the positions worth
/// comparing, instead of one full scan per word.
pub(crate) struct WordSet {
    /// The words of two bytes or more, keyed by their leading byte pair
    /// and sorted by it.
    by_pair: Vec<(u16, &'static [u8])>,
    /// Bit `p` is set when some word starts with byte pair `p`.
    pairs: Box<[u64; 1024]>,
    /// Words shorter than a pair, searched one at a time.
    short: Vec<&'static str>,
}

impl WordSet {
    pub(crate) fn new(words: &[&'static str]) -> Self {
        let mut set = WordSet {
            by_pair: Vec::new(),
            pairs: Box::new([0; 1024]),
            short: Vec::new(),
        };
        for &word in words {
            match word.as_bytes() {
                [a, b, ..] => {
                    let pair = u16::from_be_bytes([*a, *b]);
                    set.pairs[usize::from(pair >> 6)] |= 1 << (pair & 63);
                    set.by_pair.push((pair, word.as_bytes()));
                }
                _ => set.short.push(word),
            }
        }
        set.by_pair.sort_unstable();
        set
    }

    /// `contains_any(text_lowercase, words)`.
    pub(crate) fn found_in(&self, text_lowercase: &str) -> bool {
        let text = text_lowercase.as_bytes();
        contains_any(text_lowercase, &self.short)
            || text.windows(2).enumerate().any(|(at, w)| {
                let pair = u16::from_be_bytes([w[0], w[1]]);
                self.pairs[usize::from(pair >> 6)] & (1 << (pair & 63)) != 0 && {
                    let from = self.by_pair.partition_point(|&(p, _)| p < pair);
                    self.by_pair[from..]
                        .iter()
                        .take_while(|&&(p, _)| p == pair)
                        .any(|(_, word)| text[at..].starts_with(word))
                }
            })
    }
}

/// [`CONSENT_WORDS`], compiled once.
pub(crate) fn consent_words() -> &'static WordSet {
    static SET: OnceLock<WordSet> = OnceLock::new();
    SET.get_or_init(|| WordSet::new(CONSENT_WORDS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_set_agrees_with_contains_any() {
        let words = ["cookie", "spårning", "é", "ab", "a"];
        let set = WordSet::new(&words);
        for text in [
            "",
            "a",
            "b",
            "ab",
            "xab",
            "cookies",
            "cooki",
            "xxcookie",
            "spårning!",
            "spår",
            "café",
            "bb",
            "ba",
        ] {
            assert_eq!(set.found_in(text), contains_any(text, &words), "{text:?}");
        }
        let consent = consent_words();
        for text in [
            "wir verwenden cookies",
            "artikel über brücken",
            "la publicité",
            "suiv",
        ] {
            assert_eq!(
                consent.found_in(text),
                contains_any(text, CONSENT_WORDS),
                "{text:?}"
            );
        }
    }

    #[test]
    fn consent_words_cover_all_generator_languages() {
        for lang in langid::Language::ALL {
            let banner = webgen::banner_text(lang).to_lowercase();
            assert!(
                contains_any(&banner, CONSENT_WORDS),
                "banner text for {lang:?} must contain a consent word: {banner}"
            );
        }
    }

    #[test]
    fn subscription_words_cover_wall_texts() {
        use webgen::{Currency, Period, PriceSpec};
        let price = PriceSpec {
            amount_cents: 299,
            currency: Currency::Eur,
            period: Period::Month,
        };
        for lang in langid::Language::ALL {
            let wall = webgen::wall_text(lang, "example.de", &price, None)
                .to_string()
                .to_lowercase();
            assert!(
                contains_any(&wall, SUBSCRIPTION_WORDS),
                "wall text for {lang:?} must contain a subscription word: {wall}"
            );
            // Wall texts must also read as consent UI.
            assert!(contains_any(&wall, CONSENT_WORDS), "{lang:?}: {wall}");
        }
    }

    #[test]
    fn regular_banner_has_no_subscription_words() {
        for lang in langid::Language::ALL {
            let banner = webgen::banner_text(lang).to_lowercase();
            assert!(
                !contains_any(&banner, SUBSCRIPTION_WORDS),
                "regular banner for {lang:?} must not look like a wall: {banner}"
            );
        }
    }

    #[test]
    fn button_labels_match_action_words() {
        for lang in langid::Language::ALL {
            let accept = webgen::accept_label(lang).to_lowercase();
            assert!(
                contains_any(&accept, ACCEPT_WORDS),
                "{lang:?} accept: {accept}"
            );
            let reject = webgen::reject_label(lang).to_lowercase();
            assert!(
                contains_any(&reject, REJECT_WORDS),
                "{lang:?} reject: {reject}"
            );
            let sub = webgen::subscribe_label(lang).to_lowercase();
            assert!(
                contains_any(&sub, SUBSCRIPTION_WORDS)
                    || contains_any(&sub, SUBSCRIBE_ACTION_WORDS),
                "{lang:?} subscribe: {sub}"
            );
        }
    }

    #[test]
    fn currency_rates_exist_for_all_tokens() {
        for (_, iso, _) in CURRENCY_TOKENS {
            assert!(eur_rate(iso).is_some(), "{iso} needs a rate");
        }
        assert!(eur_rate("XXX").is_none());
        // The paper's own conversion example: 4 EUR ≈ 4.33 USD.
        assert!((4.33 * eur_rate("USD").unwrap() - 4.0).abs() < 0.01);
    }
}
