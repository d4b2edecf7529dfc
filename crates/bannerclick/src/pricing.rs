//! Price extraction and normalization.
//!
//! §3 classifies a banner as a cookiewall when its text contains a
//! *payment-related combination* of a currency token and an amount — e.g.
//! `$3.99`, `3.99$`, `3.99 $`, `3,99 €`, `CHF 2.50`. §4.2 then normalizes
//! every offer to **EUR per month** (the paper did this step manually; here
//! it is automated and exercised by the Figure 2/3/6 reproductions).

use crate::corpus::{eur_rate, CURRENCY_TOKENS, MONTH_WORDS, YEAR_WORDS};

/// A price found in banner text.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceQuote {
    /// Amount as written, in the quoted currency.
    pub amount: f64,
    /// ISO code of the quoted currency.
    pub currency: &'static str,
    /// Whether the quote is per year (else per month).
    pub per_year: bool,
    /// Amount converted to EUR per month.
    pub monthly_eur: f64,
}

/// Find every currency/amount combination in `text`.
///
/// Handles symbol-before (`$3.99`), symbol-after (`3,99 €`, `3.99$`), and
/// word currencies (`CHF 2.50`, `2 euro`), with `.` or `,` decimal
/// separators. The billing period is taken from a month/year word within a
/// short window after the amount, defaulting to monthly.
pub fn extract_prices(text: &str) -> Vec<PriceQuote> {
    let lower = text.to_lowercase();
    let chars: Vec<char> = lower.chars().collect();
    let mut quotes = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let (amount, end) = read_amount(&chars, i);
            // Look for a currency token adjacent on either side. When both
            // sides carry one ("KR 1,00 €"), a symbol beats a word — the
            // symbol is unambiguous, a word may be ordinary prose.
            let before = currency_before(&chars, i);
            let after = currency_after(&chars, end);
            let currency = match (before, after) {
                (Some((_, false)), Some((iso, true))) => Some(iso),
                (Some((iso, _)), _) => Some(iso),
                (None, Some((iso, _))) => Some(iso),
                (None, None) => None,
            };
            if let Some(iso) = currency {
                let per_year = period_is_yearly(&chars, end);
                if let Some(rate) = eur_rate(iso) {
                    let eur = amount * rate;
                    quotes.push(PriceQuote {
                        amount,
                        currency: iso,
                        per_year,
                        monthly_eur: if per_year { eur / 12.0 } else { eur },
                    });
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    quotes
}

/// The subscription price of a wall: the *lowest monthly-normalized* quote
/// (walls often show a crossed-out regular price next to the offer).
pub fn subscription_price(text: &str) -> Option<PriceQuote> {
    extract_prices(text)
        .into_iter()
        .filter(|q| q.monthly_eur > 0.05 && q.monthly_eur < 200.0)
        .min_by(|a, b| a.monthly_eur.partial_cmp(&b.monthly_eur).unwrap())
}

/// Parse `12`, `2,99`, `35.88` starting at `start`; returns (value, end).
fn read_amount(chars: &[char], start: usize) -> (f64, usize) {
    let mut i = start;
    let mut int_part = 0u64;
    while i < chars.len() && chars[i].is_ascii_digit() {
        int_part = int_part * 10 + (chars[i] as u64 - '0' as u64);
        i += 1;
    }
    // Decimal part: separator followed by 1–2 digits.
    if i + 1 < chars.len() && (chars[i] == '.' || chars[i] == ',') && chars[i + 1].is_ascii_digit()
    {
        let sep = i;
        let mut frac = 0u64;
        let mut digits = 0;
        let mut j = sep + 1;
        while j < chars.len() && chars[j].is_ascii_digit() && digits < 2 {
            frac = frac * 10 + (chars[j] as u64 - '0' as u64);
            digits += 1;
            j += 1;
        }
        if digits > 0 {
            let value = int_part as f64 + frac as f64 / 10f64.powi(digits);
            return (value, j);
        }
    }
    (int_part as f64, i)
}

/// Currency token ending directly before `pos` (optionally one space).
/// Returns `(iso, is_symbol)`.
fn currency_before(chars: &[char], pos: usize) -> Option<(&'static str, bool)> {
    let mut end = pos;
    if end > 0 && chars[end - 1] == ' ' {
        end -= 1;
    }
    token_ending_at(chars, end)
}

/// Currency token starting directly after `pos` (optionally one space).
/// Returns `(iso, is_symbol)`.
fn currency_after(chars: &[char], pos: usize) -> Option<(&'static str, bool)> {
    let mut start = pos;
    if start < chars.len() && chars[start] == ' ' {
        start += 1;
    }
    token_starting_at(chars, start)
}

fn token_ending_at(chars: &[char], end: usize) -> Option<(&'static str, bool)> {
    for (tok, iso, is_symbol) in CURRENCY_TOKENS {
        let tok_chars: Vec<char> = tok.chars().collect();
        if end < tok_chars.len() {
            continue;
        }
        let start = end - tok_chars.len();
        if chars[start..end] == tok_chars[..] {
            // Word currencies must sit on a word boundary.
            if !is_symbol && start > 0 && chars[start - 1].is_alphanumeric() {
                continue;
            }
            return Some((iso, *is_symbol));
        }
    }
    None
}

fn token_starting_at(chars: &[char], start: usize) -> Option<(&'static str, bool)> {
    for (tok, iso, is_symbol) in CURRENCY_TOKENS {
        let tok_chars: Vec<char> = tok.chars().collect();
        if start + tok_chars.len() > chars.len() {
            continue;
        }
        if chars[start..start + tok_chars.len()] == tok_chars[..] {
            let after = start + tok_chars.len();
            if !is_symbol && after < chars.len() && chars[after].is_alphanumeric() {
                continue;
            }
            return Some((iso, *is_symbol));
        }
    }
    None
}

/// Does a year word appear within the window after the amount, before any
/// month word?
fn period_is_yearly(chars: &[char], from: usize) -> bool {
    // Trailing pad so boundary-sensitive words ("an ") match at end of text.
    let mut window: String = chars[from..chars.len().min(from + 40)].iter().collect();
    window.push(' ');
    let month_pos = MONTH_WORDS.iter().filter_map(|w| window.find(w)).min();
    let year_pos = YEAR_WORDS.iter().filter_map(|w| window.find(w)).min();
    match (month_pos, year_pos) {
        (Some(m), Some(y)) => y < m,
        (None, Some(_)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(text: &str) -> PriceQuote {
        let q = extract_prices(text);
        assert_eq!(q.len(), 1, "expected one quote in {text:?}: {q:?}");
        q.into_iter().next().unwrap()
    }

    #[test]
    fn paper_example_combinations() {
        // The four combination shapes §3 lists: $3.99, 3.99$, 3.99 $, 3,99 €.
        assert_eq!(one("only $3.99 today").amount, 3.99);
        assert_eq!(one("only 3.99$ today").amount, 3.99);
        assert_eq!(one("only 3.99 $ today").amount, 3.99);
        let eu = one("nur 3,99 € im Monat");
        assert_eq!(eu.amount, 3.99);
        assert_eq!(eu.currency, "EUR");
    }

    #[test]
    fn currency_words() {
        let chf = one("für CHF 2,50 pro Monat");
        assert_eq!(chf.currency, "CHF");
        assert!((chf.monthly_eur - 2.55).abs() < 0.01);
        let eur_word = one("ab 2 Euro monatlich");
        assert_eq!(eur_word.currency, "EUR");
        assert_eq!(eur_word.amount, 2.0);
        let aud = one("just A$4.99 per month");
        assert_eq!(aud.currency, "AUD");
    }

    #[test]
    fn yearly_normalization() {
        let y = one("für 35,88 € pro Jahr kündbar");
        assert!(y.per_year);
        assert!((y.monthly_eur - 2.99).abs() < 0.001);
        let m = one("für 2,99 € pro Monat");
        assert!(!m.per_year);
        // "im Jahr 2024" after a monthly phrase must not flip the period.
        let tricky = one("2,99 € pro Monat — das beste Angebot im Jahr");
        assert!(!tricky.per_year);
    }

    #[test]
    fn multiple_quotes_lowest_wins() {
        let text = "Statt 9,99 € jetzt nur 2,99 € pro Monat im Pur-Abo";
        let quotes = extract_prices(text);
        assert_eq!(quotes.len(), 2);
        let best = subscription_price(text).unwrap();
        assert!((best.monthly_eur - 2.99).abs() < 0.001);
    }

    #[test]
    fn plain_numbers_are_not_prices() {
        assert!(extract_prices("founded in 1998, 42 employees").is_empty());
        assert!(extract_prices("Artikel 13 Absatz 2").is_empty());
        assert!(subscription_price("no numbers at all").is_none());
    }

    #[test]
    fn word_boundary_guard() {
        // "rs" inside a word must not be read as rupees.
        assert!(extract_prices("cursors 5 offers").is_empty());
        // But a real rupee quote parses.
        let rs = one("Rs 99 per month plan");
        assert_eq!(rs.currency, "INR");
    }

    #[test]
    fn generator_formats_roundtrip() {
        // Every price format webgen emits must be extractable with the
        // exact monthly-EUR value the ground truth defines.
        use webgen::{format_price, period_phrase, Currency, Period, PriceSpec};
        let cases = [
            PriceSpec {
                amount_cents: 299,
                currency: Currency::Eur,
                period: Period::Month,
            },
            PriceSpec {
                amount_cents: 149,
                currency: Currency::Eur,
                period: Period::Month,
            },
            PriceSpec {
                amount_cents: 3588,
                currency: Currency::Eur,
                period: Period::Year,
            },
            PriceSpec {
                amount_cents: 349,
                currency: Currency::Usd,
                period: Period::Month,
            },
            PriceSpec {
                amount_cents: 250,
                currency: Currency::Chf,
                period: Period::Month,
            },
            PriceSpec {
                amount_cents: 499,
                currency: Currency::Aud,
                period: Period::Month,
            },
            PriceSpec {
                amount_cents: 299,
                currency: Currency::Gbp,
                period: Period::Month,
            },
        ];
        for lang in langid::Language::ALL {
            for spec in &cases {
                let text = format!(
                    "Weiter mit Abo: {} {}",
                    format_price(lang, spec),
                    period_phrase(lang, spec.period)
                );
                let got = subscription_price(&text)
                    .unwrap_or_else(|| panic!("no price in {text:?} ({lang:?})"));
                let want = spec.monthly_eur();
                assert!(
                    (got.monthly_eur - want).abs() < 0.02,
                    "{lang:?} {text:?}: got {} want {want}",
                    got.monthly_eur
                );
            }
        }
    }
}
