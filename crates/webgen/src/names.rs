//! Deterministic domain-name generation and stable hashing.
//!
//! Every piece of randomness in the synthetic web is derived from a stable
//! 64-bit FNV-1a hash of a string key, fed into ChaCha8. The same
//! population config therefore always produces byte-identical sites, across
//! runs and across platforms — the property that makes every experiment in
//! the study exactly reproducible.

use langid::Language;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stable FNV-1a 64-bit hash (not DoS-resistant, not needed here; stability
/// across Rust versions is what matters — `DefaultHasher` does not
/// guarantee that).
pub fn stable_hash(key: &str) -> u64 {
    StableHasher::new().write(key.as_bytes()).finish()
}

/// [`stable_hash`] fed in pieces: the hash of the pieces' concatenation,
/// so a composite key (`noise/{domain}/{visit}`) is hashed without ever
/// being built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StableHasher(u64);

impl StableHasher {
    pub(crate) fn new() -> Self {
        StableHasher(0xcbf29ce484222325)
    }

    /// Continue after a key whose [`stable_hash`] is `hash`.
    pub(crate) fn resume(hash: u64) -> Self {
        StableHasher(hash)
    }

    pub(crate) fn write(mut self, bytes: &[u8]) -> Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Append `n` in decimal, exactly as `format!("{n}")` renders it.
    pub(crate) fn write_decimal(self, n: u64) -> Self {
        self.write(decimal(n, &mut [0; 20]))
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The digits of `n` in decimal, exactly as `format!("{n}")` renders
/// them, written into the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[start..]
}

/// Append `n` to `out` in decimal, exactly as `write!(out, "{n}")` would,
/// without going through `fmt`.
pub(crate) fn push_decimal(out: &mut String, n: u64) {
    // Decimal digits are ASCII, so they are always UTF-8.
    out.push_str(std::str::from_utf8(decimal(n, &mut [0; 20])).unwrap_or_default());
}

/// A ChaCha8 RNG seeded from a string key (plus a numeric lane so one key
/// can drive several independent streams).
pub fn rng_for(key: &str, lane: u64) -> ChaCha8Rng {
    rng_for_hash(stable_hash(key), lane)
}

/// [`rng_for`] given the key's [`stable_hash`] instead of the key.
pub(crate) fn rng_for_hash(key_hash: u64, lane: u64) -> ChaCha8Rng {
    ChaCha8Rng::from_seed(seed_for(key_hash, lane))
}

/// The seed of `rng_for(key, lane)`: the key's hash, the hash of
/// `{key}/{lane}` (streamed on from the key's hash), the key's hash
/// rotated, and the lane.
fn seed_for(key_hash: u64, lane: u64) -> [u8; 32] {
    let mut seed = [0u8; 32];
    let h2 = StableHasher::resume(key_hash)
        .write(b"/")
        .write_decimal(lane)
        .finish();
    seed[..8].copy_from_slice(&key_hash.to_le_bytes());
    seed[8..16].copy_from_slice(&h2.to_le_bytes());
    seed[16..24].copy_from_slice(&key_hash.rotate_left(32).to_le_bytes());
    seed[24..32].copy_from_slice(&lane.to_le_bytes());
    seed
}

const DE_FIRST: &[&str] = &[
    "abend", "morgen", "stadt", "land", "nord", "sued", "west", "ost", "neue", "alte", "gross",
    "klein", "berg", "tal", "fluss", "wald", "markt", "haupt", "heim", "echt", "frisch", "blau",
    "gruen", "rot", "gold", "silber", "stern", "sonnen", "mond", "wetter", "tages", "wochen",
];
const DE_SECOND: &[&str] = &[
    "kurier",
    "anzeiger",
    "bote",
    "blatt",
    "post",
    "rundschau",
    "welt",
    "zeit",
    "spiegel",
    "magazin",
    "portal",
    "forum",
    "treff",
    "haus",
    "laden",
    "werk",
    "hof",
    "feld",
    "quelle",
    "wissen",
    "technik",
    "sport",
    "reise",
    "garten",
    "kueche",
    "gesund",
    "geld",
    "boerse",
    "spiele",
    "kino",
    "musik",
    "netz",
];
const EN_FIRST: &[&str] = &[
    "daily", "evening", "morning", "city", "metro", "north", "south", "west", "east", "new", "old",
    "grand", "first", "prime", "true", "fresh", "blue", "green", "red", "gold", "silver", "star",
    "sun", "moon", "global", "local", "urban", "rural", "open", "clear", "bright", "swift",
];
const EN_SECOND: &[&str] = &[
    "herald",
    "tribune",
    "courier",
    "gazette",
    "journal",
    "times",
    "post",
    "review",
    "digest",
    "monitor",
    "observer",
    "portal",
    "hub",
    "forum",
    "wire",
    "report",
    "insider",
    "weekly",
    "outlook",
    "beacon",
    "ledger",
    "chronicle",
    "dispatch",
    "bulletin",
    "record",
    "express",
    "standard",
    "sentinel",
    "register",
    "examiner",
    "inquirer",
    "planet",
];
const IT_FIRST: &[&str] = &[
    "nuovo", "vecchio", "grande", "piccolo", "alto", "basso", "nord", "sud", "vero", "primo",
    "bel", "buon", "mio", "gran", "mezzo", "doppio",
];
const IT_SECOND: &[&str] = &[
    "giornale",
    "corriere",
    "gazzetta",
    "messaggero",
    "notizie",
    "portale",
    "mercato",
    "tempo",
    "mondo",
    "paese",
    "sole",
    "stella",
    "faro",
    "ponte",
    "piazza",
    "voce",
];
const SV_FIRST: &[&str] = &[
    "dagens", "nya", "gamla", "stora", "norra", "soedra", "vaestra", "oestra", "fria", "svenska",
    "lokala", "baesta", "snabba", "klara", "ljusa", "moerka",
];
const SV_SECOND: &[&str] = &[
    "nyheter",
    "posten",
    "bladet",
    "kuriren",
    "tidningen",
    "portalen",
    "torget",
    "kaellan",
    "vaerlden",
    "tiden",
    "handeln",
    "marknaden",
    "sporten",
    "resan",
    "huset",
    "skogen",
];

fn pools(lang: Language) -> (&'static [&'static str], &'static [&'static str]) {
    match lang {
        Language::German | Language::Dutch => (DE_FIRST, DE_SECOND),
        Language::English => (EN_FIRST, EN_SECOND),
        Language::Italian | Language::Spanish | Language::Portuguese | Language::French => {
            (IT_FIRST, IT_SECOND)
        }
        Language::Swedish => (SV_FIRST, SV_SECOND),
    }
}

/// Generate the `index`-th domain name for a language and TLD.
///
/// Uniqueness: the (first, second) pools give `32×32 = 1024` base names per
/// language family; beyond that an index-derived numeric suffix is added, so
/// arbitrarily many unique names exist per (language, tld) and the name is a
/// pure function of its inputs.
pub fn domain_name(lang: Language, tld: &str, index: usize) -> String {
    let (first, second) = pools(lang);
    let base = first.len() * second.len();
    let f = first[index % first.len()];
    let s = second[(index / first.len()) % second.len()];
    if index < base {
        format!("{f}{s}.{tld}")
    } else {
        // Suffix with the overflow counter; hyphenated to stay readable.
        format!("{f}{s}-{}.{tld}", index / base)
    }
}

/// Shuffle a slice deterministically with a keyed RNG (Fisher–Yates).
pub fn stable_shuffle<T>(items: &mut [T], key: &str) {
    let mut rng = rng_for(key, 0);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable() {
        // Pinned values: if these change, every generated population
        // changes, silently invalidating recorded experiment outputs.
        assert_eq!(stable_hash(""), 0xcbf29ce484222325);
        assert_eq!(stable_hash("spiegel.de"), stable_hash("spiegel.de"));
        assert_ne!(stable_hash("a"), stable_hash("b"));
    }

    #[test]
    fn rng_streams_independent() {
        let mut a = rng_for("key", 0);
        let mut b = rng_for("key", 1);
        let mut a2 = rng_for("key", 0);
        let x: u64 = a.random();
        assert_eq!(x, a2.random::<u64>(), "same key+lane ⇒ same stream");
        assert_ne!(x, b.random::<u64>(), "different lane ⇒ different stream");
    }

    /// The seed `rng_for` used before it streamed the lane suffix: two
    /// hashes over built strings.
    fn seed_from_strings(key: &str, lane: u64) -> [u8; 32] {
        let mut seed = [0u8; 32];
        let h1 = stable_hash(key);
        let h2 = stable_hash(&format!("{key}/{lane}"));
        seed[..8].copy_from_slice(&h1.to_le_bytes());
        seed[8..16].copy_from_slice(&h2.to_le_bytes());
        seed[16..24].copy_from_slice(&h1.rotate_left(32).to_le_bytes());
        seed[24..32].copy_from_slice(&lane.to_le_bytes());
        seed
    }

    #[test]
    fn streamed_seed_matches_built_strings() {
        for key in [
            "",
            "key",
            "noise/spiegel.de/0",
            "flaky/müller-blatt.de/ägypten",
        ] {
            for lane in [0, 1, 3, 9, 10, 99, 1000, 12345, u64::MAX] {
                assert_eq!(
                    seed_for(stable_hash(key), lane),
                    seed_from_strings(key, lane),
                    "{key:?} lane {lane}"
                );
            }
        }
        for n in [0, 7, 10, 101, 999_999, u64::MAX] {
            assert_eq!(
                StableHasher::new().write(b"v").write_decimal(n).finish(),
                stable_hash(&format!("v{n}")),
            );
        }
    }

    #[test]
    fn domain_names_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000 {
            let d = domain_name(Language::German, "de", i);
            assert!(seen.insert(d.clone()), "duplicate at {i}: {d}");
            assert!(d.ends_with(".de"));
            assert!(httpsim::Url::parse(&d).is_ok(), "unparseable domain {d}");
            assert_eq!(httpsim::registrable_domain(&d), Some(d.as_str()));
        }
    }

    #[test]
    fn names_language_flavoured() {
        let de = domain_name(Language::German, "de", 0);
        let en = domain_name(Language::English, "com", 0);
        let sv = domain_name(Language::Swedish, "net", 2);
        assert_ne!(de, en);
        assert!(sv.ends_with(".net"));
    }

    #[test]
    fn shuffle_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        stable_shuffle(&mut a, "k");
        stable_shuffle(&mut b, "k");
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        stable_shuffle(&mut c, "other");
        assert_ne!(a, c);
    }
}
