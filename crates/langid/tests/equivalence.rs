//! Bit-identity oracle for `langid::detect`.
//!
//! `oracle` below is the original implementation, kept verbatim: one
//! SipHash table per language, a `Vec<char>` of normalised text and a
//! `Vec<[char; 3]>` of trigrams. The packed single-table detector must
//! agree with it exactly on language, trigram count and the bits of
//! `margin`, and on which inputs get no answer at all.
//!
//! The default case count keeps debug `cargo test` quick; the full gate
//! runs `PROPTEST_CASES=20000` in release mode.

use langid::{detect, Detection, Language};
use proptest::prelude::*;

#[path = "../src/corpus.rs"]
mod corpus;
#[path = "../src/samples.rs"]
mod samples;

/// The training corpus of each language, as the library embeds it.
trait Corpus {
    fn corpus(self) -> &'static str;
}

impl Corpus for Language {
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

/// The original detector: per-language tables, two intermediate vectors.
mod oracle {
    use super::Corpus;
    use langid::{Detection, Language, MIN_INPUT_CHARS};
    use std::collections::HashMap;
    use std::sync::OnceLock;

    struct Model {
        /// Per-language trigram log-probabilities plus the unseen-trigram
        /// (smoothing) log-probability.
        tables: Vec<(Language, HashMap<[char; 3], f64>, f64)>,
    }

    fn trigrams(text: &str) -> Vec<[char; 3]> {
        // Normalize: lowercase, collapse digits (prices should not sway the
        // decision), map whitespace runs to a single space boundary.
        let mut chars: Vec<char> = Vec::with_capacity(text.len());
        let mut last_space = true;
        for c in text.chars() {
            let c = if c.is_numeric() { '#' } else { c };
            if c.is_whitespace() {
                if !last_space {
                    chars.push(' ');
                    last_space = true;
                }
            } else {
                for lc in c.to_lowercase() {
                    chars.push(lc);
                }
                last_space = false;
            }
        }
        if chars.len() < 3 {
            return Vec::new();
        }
        chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
    }

    fn build_model() -> Model {
        let mut tables = Vec::new();
        for lang in Language::ALL {
            let grams = trigrams(lang.corpus());
            let mut counts: HashMap<[char; 3], f64> = HashMap::new();
            for g in &grams {
                *counts.entry(*g).or_insert(0.0) += 1.0;
            }
            // Add-one (Laplace) smoothing over the observed vocabulary.
            let vocab = counts.len() as f64;
            let total = grams.len() as f64 + vocab + 1.0;
            let table: HashMap<[char; 3], f64> = counts
                .into_iter()
                .map(|(g, c)| (g, ((c + 1.0) / total).ln()))
                .collect();
            let unseen = (1.0 / total).ln();
            tables.push((lang, table, unseen));
        }
        Model { tables }
    }

    fn model() -> &'static Model {
        static MODEL: OnceLock<Model> = OnceLock::new();
        MODEL.get_or_init(build_model)
    }

    /// Detect the language of `text`.
    ///
    /// Returns `None` for inputs that are too short or contain no letters —
    /// the cases where any answer would be noise.
    pub(super) fn detect(text: &str) -> Option<Detection> {
        if text.chars().filter(|c| c.is_alphabetic()).count() < MIN_INPUT_CHARS {
            return None;
        }
        let grams = trigrams(text);
        if grams.is_empty() {
            return None;
        }
        let m = model();
        let mut scores: Vec<(Language, f64)> = m
            .tables
            .iter()
            .map(|(lang, table, unseen)| {
                let score: f64 = grams
                    .iter()
                    .map(|g| table.get(g).copied().unwrap_or(*unseen))
                    .sum();
                (*lang, score)
            })
            .collect();
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (best, best_score) = scores[0];
        let runner_up = scores[1].1;
        Some(Detection {
            language: best,
            margin: (best_score - runner_up) / grams.len() as f64,
            trigrams: grams.len(),
        })
    }
}

/// The comparable parts of a detection; `margin` by its bits.
fn outcome(d: Option<Detection>) -> Option<(Language, usize, u64)> {
    d.map(|d| (d.language, d.trigrams, d.margin.to_bits()))
}

fn assert_identical(text: &str) {
    assert_eq!(
        outcome(detect(text)),
        outcome(oracle::detect(text)),
        "packed detector diverges from the oracle on {text:?}"
    );
}

/// Characters the property draws from: ASCII, digits, whitespace,
/// punctuation, the euro sign, Germanic and Romance diacritics, characters
/// whose lowercase is several characters (`İ`) or differs by position
/// (`Σ`/`σ`/`ς`), the capital sharp s, a titlecase digraph, CJK, and the
/// edges of the detector's ASCII fast path: every ASCII whitespace and
/// the control characters next to it, Unicode spaces (next line,
/// no-break, thin, ideographic) and non-ASCII numerics.
const ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789\
                        \t\n .,;:!?'\"-()/%&€\
                        äöüßÄÖÜåÅæÆøØéèêëàâçîïôûùÉÈÀÇñÑãõÃÕíóúÍÓÚ\
                        İẞǅǄǆΣσςΑα中文連語日本\
                        \x0b\x0c\r\x1c\x1d\x1e\x1f\x7f\u{85}\u{a0}\u{2009}\u{3000}²½٣";

fn corpora() -> Vec<&'static str> {
    Language::ALL.into_iter().map(Corpus::corpus).collect()
}

/// One piece of a generated input: a single alphabet character, a run of
/// tabs and newlines, or a short slice of a training corpus (so that many
/// trigrams hit the table, not only its unseen row).
fn piece() -> impl Strategy<Value = String> {
    let chars = prop::sample::select(ALPHABET.chars().map(String::from).collect());
    let whitespace = "[\t\n ]{1,6}";
    let slice = (0..Language::ALL.len(), 0usize..4096, 1usize..24).prop_map(|(lang, at, len)| {
        let text: Vec<char> = corpora()[lang].chars().collect();
        let at = at % text.len();
        text[at..(at + len).min(text.len())]
            .iter()
            .collect::<String>()
    });
    Union::new_weighted(vec![
        (6, chars.boxed()),
        (1, whitespace.boxed()),
        (3, slice.boxed()),
    ])
}

proptest! {
    /// Mixed-alphabet text, with corpus slices mixed in, scores the same.
    fn packed_detector_matches_oracle(pieces in prop::collection::vec(piece(), 0..48)) {
        let text = pieces.concat();
        prop_assert_eq!(outcome(detect(&text)), outcome(oracle::detect(&text)), "input {:?}", text);
    }
}

#[test]
fn training_corpora_and_samples_match_oracle() {
    for text in corpora() {
        assert_identical(text);
    }
    for (_, text) in samples::SAMPLES {
        assert_identical(text);
    }
}

#[test]
fn input_length_edges_match_oracle() {
    // Either side of MIN_INPUT_CHARS alphabetic characters, with and
    // without non-alphabetic padding, and the 0-4 normalised-character
    // range where the first trigram appears.
    let edges = [
        "",
        "a",
        "ab",
        "abc",
        "abcd",
        " a ",
        "\t\na b\n",
        "a b",
        "12",
        "1 2 3",
        "€€€",
        "İ",
        "İa",
        "İSTANBUL İZMİR",
        "abcdefg",
        "abcdefgh",
        "abcdefghi",
        "Abcdefg 2,99 €",
        "Abcdefgh 2,99 €",
        "a1b2c3d4e5f6g7",
        "a1b2c3d4e5f6g7h8",
        "  ab  cd  ef  g  ",
        "  ab  cd  ef  gh  ",
        "ẞẞẞẞẞẞẞ",
        "ẞẞẞẞẞẞẞẞ",
        "ǅǅǅǅ ΣΣΣΣ",
        "中文連語日本中文",
        "中文連語日本中",
    ];
    for text in edges {
        assert_identical(text);
    }
}
