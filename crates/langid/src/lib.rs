//! # langid — character n-gram language identification
//!
//! The paper uses Google's CLD3 to label the language of each cookiewall
//! website (§4.1, Table 1's "Language" column). CLD3 is a neural model over
//! character n-grams; this crate implements the same input representation
//! with a multinomial naive-Bayes classifier over character trigrams —
//! the classical, well-understood member of that family — trained on
//! embedded corpora for the eight languages the study encounters.
//!
//! ## Model layout
//!
//! The model is one packed table, built lazily on first use. Each trigram
//! of normalised text is keyed by a `u64` holding its three 21-bit scalar
//! values, so keys are exact. The value is the trigram's row of
//! add-one-smoothed log-probabilities, one per language in
//! [`Language::ALL`] order. A language that never saw the trigram has its
//! unseen log-probability in that slot, and a trigram no language saw
//! scores the shared unseen row. Keys are hashed with a single folded
//! 128-bit multiply.
//!
//! [`detect`] makes one streaming pass over the text. The pass counts
//! alphabetic characters, normalises each character (digits to `#`,
//! whitespace runs to one space, lowercase), keeps a three-character
//! window and adds one row per trigram into eight running scores. It
//! allocates nothing and does one table lookup per trigram. ASCII
//! characters skip the Unicode property tables; the `equivalence`
//! oracle's alphabet covers both sides of that boundary.
//!
//! **Bit-identity invariant.** Any change to the model or its layout must
//! keep [`detect`]'s output bit for bit, `margin` included. Each
//! language's score is the in-order sum of its per-trigram
//! log-probabilities, with exactly one add per trigram. Ties between
//! languages keep [`Language::ALL`] order through a stable sort. The
//! `equivalence` test checks both against the original
//! one-table-per-language implementation.
//!
//! ## Example
//!
//! ```
//! use langid::{detect, Language};
//!
//! let text = "Mit unserem Abo lesen Sie alle Artikel ohne Werbung.";
//! assert_eq!(detect(text).unwrap().language, Language::German);
//!
//! let text = "Read all our articles without any advertising.";
//! assert_eq!(detect(text).unwrap().language, Language::English);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
#[cfg(test)]
mod samples;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Languages the detector distinguishes — the ones appearing in the study's
/// website population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Language {
    /// German (`de`).
    German,
    /// English (`en`).
    English,
    /// Italian (`it`).
    Italian,
    /// Swedish (`sv`).
    Swedish,
    /// French (`fr`).
    French,
    /// Portuguese (`pt`).
    Portuguese,
    /// Spanish (`es`).
    Spanish,
    /// Dutch (`nl`).
    Dutch,
}

impl Language {
    /// All supported languages.
    pub const ALL: [Language; 8] = [
        Language::German,
        Language::English,
        Language::Italian,
        Language::Swedish,
        Language::French,
        Language::Portuguese,
        Language::Spanish,
        Language::Dutch,
    ];

    /// ISO 639-1 code.
    pub fn code(self) -> &'static str {
        match self {
            Language::German => "de",
            Language::English => "en",
            Language::Italian => "it",
            Language::Swedish => "sv",
            Language::French => "fr",
            Language::Portuguese => "pt",
            Language::Spanish => "es",
            Language::Dutch => "nl",
        }
    }

    /// Parse an ISO 639-1 code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Language> {
        Language::ALL
            .into_iter()
            .find(|l| l.code().eq_ignore_ascii_case(code))
    }

    fn corpus(self) -> &'static str {
        match self {
            Language::German => corpus::DE,
            Language::English => corpus::EN,
            Language::Italian => corpus::IT,
            Language::Swedish => corpus::SV,
            Language::French => corpus::FR,
            Language::Portuguese => corpus::PT,
            Language::Spanish => corpus::ES,
            Language::Dutch => corpus::NL,
        }
    }
}

/// A detection result: best language plus a reliability signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The most probable language.
    pub language: Language,
    /// Mean per-trigram log-probability margin over the runner-up.
    /// Larger is more confident; values under ~0.02 are near-ties.
    // lint:allow(test-only-api) — quality harness: the accuracy test asserts a clear margin on every sample, and tests/equivalence.rs pins it bit for bit
    pub margin: f64,
    /// Number of trigrams scored (short inputs are unreliable).
    // lint:allow(test-only-api) — quality harness: the accuracy test asserts enough evidence on every sample, and tests/equivalence.rs pins it
    pub trigrams: usize,
}

/// Minimum alphabetic characters before detection is attempted.
pub const MIN_INPUT_CHARS: usize = 8;

const LANGS: usize = Language::ALL.len();

/// Three 21-bit scalar values: the packed trigram key's width.
const KEY_MASK: u64 = (1 << 63) - 1;

/// Hasher for packed trigram keys: one multiply by an odd constant, with
/// the 128-bit product's halves folded so the low bits (which pick the
/// bucket) depend on every key bit.
///
/// It offers no protection against crafted collisions, and needs none:
/// only the embedded corpora insert keys, so page text can look rows up
/// but never lengthen a probe sequence.
#[derive(Default)]
struct TrigramHasher(u64);

impl Hasher for TrigramHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

type TrigramMap<V> = HashMap<u64, V, BuildHasherDefault<TrigramHasher>>;

/// The packed model: per-trigram log-probability rows, columns in
/// `Language::ALL` order.
struct Table {
    rows: TrigramMap<[f64; LANGS]>,
    /// Each language's smoothing log-probability for a trigram it never saw.
    unseen: [f64; LANGS],
}

/// Stream the packed trigrams of `text`'s normalised form to `f`, in
/// order, and return the number of alphabetic characters in the raw text.
///
/// Normalisation lowercases, collapses digits to `#` (prices should not
/// sway the decision) and maps whitespace runs to a single space boundary.
fn for_each_trigram(text: &str, mut f: impl FnMut(u64)) -> usize {
    let mut alphabetic = 0;
    let mut window = 0u64;
    let mut normalised = 0usize;
    let mut push = |c: char| {
        window = ((window << 21) | u64::from(c)) & KEY_MASK;
        normalised += 1;
        if normalised >= 3 {
            f(window);
        }
    };
    let mut last_space = true;
    for c in text.chars() {
        // ASCII needs none of the Unicode tables: its only numerics are
        // the digits, its whitespace is `\t`..=`\r` plus the space, and
        // it lowercases to one ASCII character.
        let normal = if c.is_ascii() {
            alphabetic += usize::from(c.is_ascii_alphabetic());
            match c {
                ' ' | '\t'..='\r' => None,
                '0'..='9' => Some('#'),
                _ => Some(c),
            }
        } else {
            alphabetic += usize::from(c.is_alphabetic());
            let c = if c.is_numeric() { '#' } else { c };
            (!c.is_whitespace()).then_some(c)
        };
        match normal {
            None => {
                if !last_space {
                    push(' ');
                    last_space = true;
                }
            }
            Some(c) => {
                if c.is_ascii() {
                    push(c.to_ascii_lowercase());
                } else {
                    c.to_lowercase().for_each(&mut push);
                }
                last_space = false;
            }
        }
    }
    alphabetic
}

fn build_table() -> Table {
    let mut counts: TrigramMap<[u32; LANGS]> = TrigramMap::default();
    let mut grams = [0u32; LANGS];
    for (i, lang) in Language::ALL.into_iter().enumerate() {
        for_each_trigram(lang.corpus(), |key| {
            counts.entry(key).or_default()[i] += 1;
            grams[i] += 1;
        });
    }
    // Add-one (Laplace) smoothing over each language's observed vocabulary.
    let total: [f64; LANGS] = std::array::from_fn(|i| {
        let vocab = counts.values().filter(|row| row[i] > 0).count();
        f64::from(grams[i]) + vocab as f64 + 1.0
    });
    let unseen = total.map(|t| (1.0 / t).ln());
    let rows = counts
        .into_iter()
        .map(|(key, row)| {
            let logp = std::array::from_fn(|i| match row[i] {
                0 => unseen[i],
                c => ((f64::from(c) + 1.0) / total[i]).ln(),
            });
            (key, logp)
        })
        .collect();
    Table { rows, unseen }
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

/// Detect the language of `text`.
///
/// Returns `None` for inputs that are too short or contain no letters —
/// the cases where any answer would be noise.
pub fn detect(text: &str) -> Option<Detection> {
    let table = table();
    // Starting from +0.0 matches `Iterator::sum` bit for bit, since every
    // log-probability is negative.
    let mut scores = [0.0f64; LANGS];
    let mut trigrams = 0usize;
    let alphabetic = for_each_trigram(text, |key| {
        let row = table.rows.get(&key).unwrap_or(&table.unseen);
        for (score, logp) in scores.iter_mut().zip(row) {
            *score += logp;
        }
        trigrams += 1;
    });
    // Past this check there are at least MIN_INPUT_CHARS normalised
    // characters, hence at least one trigram.
    if alphabetic < MIN_INPUT_CHARS {
        return None;
    }
    let mut ranked: [(Language, f64); LANGS] =
        std::array::from_fn(|i| (Language::ALL[i], scores[i]));
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let (best, best_score) = ranked[0];
    let runner_up = ranked[1].1;
    Some(Detection {
        language: best,
        margin: (best_score - runner_up) / trigrams as f64,
        trigrams,
    })
}

#[cfg(test)]
mod tests {
    use super::samples::SAMPLES;
    use super::*;

    #[test]
    fn classifies_out_of_sample_consent_text() {
        for (expected, text) in SAMPLES {
            let d = detect(text).expect("long enough");
            assert_eq!(
                d.language, *expected,
                "misclassified {:?} as {:?} (margin {})",
                expected, d.language, d.margin
            );
            assert!(
                d.trigrams >= 8 && d.margin > 0.02,
                "{expected:?} should have evidence and a clear margin"
            );
        }
    }

    #[test]
    fn classifies_news_prose() {
        let de = "Der Ausschuss berät am Donnerstag über den Haushalt der Stadt und die geplanten Investitionen in Schulen.";
        assert_eq!(detect(de).unwrap().language, Language::German);
        let en = "The committee will meet on Thursday to discuss the city budget and planned investment in schools.";
        assert_eq!(detect(en).unwrap().language, Language::English);
        let sv = "Utskottet sammanträder på torsdag för att diskutera stadens budget och planerade investeringar i skolor.";
        assert_eq!(detect(sv).unwrap().language, Language::Swedish);
        let en = "We would like to welcome all readers to our coverage of the election.";
        assert_eq!(detect(en).unwrap().language.code(), "en");
    }

    #[test]
    fn rejects_short_or_empty() {
        assert!(detect("").is_none());
        assert!(detect("ok").is_none());
        assert!(detect("3,99 € 4,99 € 12 100 7").is_none(), "digits only");
        assert!(detect("......").is_none());
    }

    #[test]
    fn digits_do_not_dominate() {
        let d = detect(
            "Nur 2,99 € im Monat statt 9,99 € — jetzt Abo abschließen und weiterlesen 2024 2025.",
        )
        .unwrap();
        assert_eq!(d.language, Language::German);
    }

    #[test]
    fn code_roundtrip() {
        for lang in Language::ALL {
            assert_eq!(Language::from_code(lang.code()), Some(lang));
        }
        assert_eq!(Language::from_code("xx"), None);
        assert_eq!(Language::from_code("DE"), Some(Language::German));
        assert_eq!(Language::from_code("dE"), Some(Language::German));
        assert_eq!(Language::from_code(""), None);
        assert_eq!(Language::from_code("d"), None);
        assert_eq!(Language::from_code("dé"), None);
        assert_eq!(Language::from_code("ＤＥ"), None);
    }

    #[test]
    fn packed_keys_are_exact() {
        // Three maximal scalar values fill all 63 key bits without
        // spilling into a neighbour's field.
        let mut keys = Vec::new();
        for_each_trigram("\u{10ffff}a\u{10ffff}b", |k| keys.push(k));
        let max = u64::from(char::MAX);
        assert_eq!(
            keys,
            [
                (max << 42) | (u64::from('a') << 21) | max,
                (u64::from('a') << 42) | (max << 21) | u64::from('b'),
            ]
        );
    }

    #[test]
    fn mixed_language_picks_dominant() {
        let text = "Cookie settings. Wir verwenden Cookies, um Inhalte zu personalisieren und die Zugriffe auf unsere Website zu analysieren. Außerdem geben wir Informationen weiter.";
        assert_eq!(detect(text).unwrap().language, Language::German);
    }
}
