//! Binary codec between [`CrawlRecord`] and the opaque payload bytes kept
//! in the persistent [`store`].
//!
//! The vendored serde stand-in only serializes, so the store payloads use a
//! small hand-rolled format instead of JSON. Unlike the report-facing JSON
//! (which `#[serde(skip)]`s diagnostics), the store must round-trip *every*
//! field — `embedding`, `attempts` and `failure` feed the failure taxonomy
//! and ablation tables of a resumed run, so losing them would make a
//! resumed report diverge from an uninterrupted one.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! version:     u8   (1)
//! domain:      u16 length + UTF-8 bytes
//! flags:       u8   bit0 reachable, bit1 banner, bit2 cookiewall
//! embedding:   u8   0 none, 1 main-dom, 2 iframe, 3 shadow-dom
//! monthly_eur: u8 tag + f64 bits when tag == 1
//! provider:    u8 tag + (u16 length + UTF-8 bytes) when tag == 1
//! language:    u8 tag + (u8 length + ISO 639-1 code) when tag == 1
//! attempts:    u32  (a `u16` in the record, widened on write)
//! failure:     u8   0 none, 1..=7 one of [`FailureKind`]
//! ```

use crate::crawl::{CrawlRecord, FailureKind};
use bannerclick::ObservedEmbedding;
use httpsim::content_hash;
use langid::Language;
use std::sync::Arc;

/// Codec version written into every payload; bumped on layout changes so
/// `open`-ed stores from an incompatible build fail loudly instead of
/// decoding garbage.
pub const CODEC_VERSION: u8 = 1;

/// Stable hash of a target list, stored in the store metadata so a resume
/// against a store produced from a *different* population (other scale,
/// seed or epoch) is rejected instead of silently mixing universes.
pub fn targets_hash(targets: &[String]) -> u64 {
    let mut joined = String::new();
    for t in targets {
        joined.push_str(t);
        joined.push('\n');
    }
    content_hash(joined.as_bytes())
}

/// Serialize a [`CrawlRecord`] into store payload bytes.
pub fn encode_record(record: &CrawlRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(CODEC_VERSION);
    put_str16(&mut out, &record.domain);
    let flags =
        (record.reachable as u8) | ((record.banner as u8) << 1) | ((record.cookiewall as u8) << 2);
    out.push(flags);
    out.push(match record.embedding {
        None => 0,
        Some(ObservedEmbedding::MainDom) => 1,
        Some(ObservedEmbedding::Iframe) => 2,
        Some(ObservedEmbedding::ShadowDom) => 3,
    });
    match record.monthly_eur {
        None => out.push(0),
        Some(eur) => {
            out.push(1);
            out.extend_from_slice(&eur.to_bits().to_le_bytes());
        }
    }
    match &record.provider {
        None => out.push(0),
        Some(host) => {
            out.push(1);
            put_str16(&mut out, host);
        }
    }
    match record.language {
        None => out.push(0),
        Some(code) => {
            out.push(1);
            out.push(code.len() as u8);
            out.extend_from_slice(code.as_bytes());
        }
    }
    out.extend_from_slice(&u32::from(record.attempts).to_le_bytes());
    out.push(match record.failure {
        None => 0,
        Some(FailureKind::Unreachable) => 1,
        Some(FailureKind::ConnectionReset) => 2,
        Some(FailureKind::Timeout) => 3,
        Some(FailureKind::ServerError) => 4,
        Some(FailureKind::ClientError) => 5,
        Some(FailureKind::Truncated) => 6,
        Some(FailureKind::Panic) => 7,
    });
    out
}

/// Deserialize store payload bytes back into a [`CrawlRecord`].
///
/// Errors describe the first malformed field; callers treat a decode error
/// as "cell not restored" (the store's journal integrity already rejects
/// torn or bit-flipped payloads, so this mostly guards version skew).
pub fn decode_record(bytes: &[u8]) -> Result<CrawlRecord, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    let version = cur.u8()?;
    if version != CODEC_VERSION {
        return Err(format!(
            "unsupported record codec version {version} (expected {CODEC_VERSION})"
        ));
    }
    let domain = cur.str16()?.to_string();
    let flags = cur.u8()?;
    if flags & !0b111 != 0 {
        return Err(format!("unknown flag bits 0x{flags:02x}"));
    }
    let embedding = match cur.u8()? {
        0 => None,
        1 => Some(ObservedEmbedding::MainDom),
        2 => Some(ObservedEmbedding::Iframe),
        3 => Some(ObservedEmbedding::ShadowDom),
        n => return Err(format!("unknown embedding tag {n}")),
    };
    let monthly_eur = match cur.u8()? {
        0 => None,
        1 => Some(f64::from_bits(u64::from_le_bytes(cur.array()?))),
        n => return Err(format!("unknown monthly_eur tag {n}")),
    };
    let provider = match cur.u8()? {
        0 => None,
        1 => Some(Arc::from(cur.str16()?)),
        n => return Err(format!("unknown provider tag {n}")),
    };
    let language = match cur.u8()? {
        0 => None,
        1 => {
            let len = cur.u8()? as usize;
            let code = cur.str_exact(len)?;
            let lang = Language::from_code(code)
                .ok_or_else(|| format!("unknown language code {code:?}"))?;
            Some(lang.code())
        }
        n => return Err(format!("unknown language tag {n}")),
    };
    let attempts = u32::from_le_bytes(cur.array()?);
    let attempts =
        u16::try_from(attempts).map_err(|_| format!("attempts {attempts} out of range"))?;
    let failure = match cur.u8()? {
        0 => None,
        1 => Some(FailureKind::Unreachable),
        2 => Some(FailureKind::ConnectionReset),
        3 => Some(FailureKind::Timeout),
        4 => Some(FailureKind::ServerError),
        5 => Some(FailureKind::ClientError),
        6 => Some(FailureKind::Truncated),
        7 => Some(FailureKind::Panic),
        n => return Err(format!("unknown failure tag {n}")),
    };
    if cur.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after record",
            bytes.len() - cur.pos
        ));
    }
    Ok(CrawlRecord {
        domain,
        reachable: flags & 0b001 != 0,
        banner: flags & 0b010 != 0,
        cookiewall: flags & 0b100 != 0,
        embedding,
        monthly_eur,
        provider,
        language,
        attempts,
        failure,
    })
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| "truncated record".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let end = self.pos + N;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated record".to_string())?;
        self.pos = end;
        Ok(slice.try_into().expect("slice length checked"))
    }

    fn str_exact(&mut self, len: usize) -> Result<&'a str, String> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| "string length overflow".to_string())?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated record".to_string())?;
        self.pos = end;
        std::str::from_utf8(slice).map_err(|_| "non-UTF-8 string".to_string())
    }

    fn str16(&mut self) -> Result<&'a str, String> {
        let len = u16::from_le_bytes(self.array()?) as usize;
        self.str_exact(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CrawlRecord {
        CrawlRecord {
            domain: "news.example".to_string(),
            reachable: true,
            banner: true,
            cookiewall: true,
            embedding: Some(ObservedEmbedding::Iframe),
            monthly_eur: Some(3.49),
            provider: Some(Arc::from("cmp.consentgrid.example")),
            language: Some(Language::German.code()),
            attempts: 2,
            failure: None,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let rec = sample();
        let decoded = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(decoded, rec);
    }

    /// The codec's bytes for a record with a provider, a price and a
    /// retried attempt count, written out by hand from the layout above.
    #[test]
    fn encoding_is_pinned() {
        let mut want = vec![1, 12, 0];
        want.extend_from_slice(b"news.example");
        want.extend_from_slice(&[7, 2, 1, 0xec, 0x51, 0xb8, 0x1e, 0x85, 0xeb, 0x0b, 0x40]);
        want.extend_from_slice(&[1, 23, 0]);
        want.extend_from_slice(b"cmp.consentgrid.example");
        want.extend_from_slice(&[1, 2, b'd', b'e', 2, 0, 0, 0, 0]);
        assert_eq!(encode_record(&sample()), want);
    }

    #[test]
    fn attempts_beyond_u16_are_rejected() {
        let mut bytes = encode_record(&sample());
        let at = bytes.len() - 5;
        bytes[at..at + 4].copy_from_slice(&65_536u32.to_le_bytes());
        let err = decode_record(&bytes).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
    }

    #[test]
    fn roundtrip_covers_all_enum_variants() {
        let embeddings = [
            None,
            Some(ObservedEmbedding::MainDom),
            Some(ObservedEmbedding::Iframe),
            Some(ObservedEmbedding::ShadowDom),
        ];
        let failures = [
            None,
            Some(FailureKind::Unreachable),
            Some(FailureKind::ConnectionReset),
            Some(FailureKind::Timeout),
            Some(FailureKind::ServerError),
            Some(FailureKind::ClientError),
            Some(FailureKind::Truncated),
            Some(FailureKind::Panic),
        ];
        for (i, (embedding, failure)) in embeddings
            .iter()
            .flat_map(|e| failures.iter().map(move |f| (*e, *f)))
            .enumerate()
        {
            let rec = CrawlRecord {
                domain: format!("site-{i}.example"),
                reachable: failure.is_none(),
                banner: embedding.is_some(),
                cookiewall: false,
                embedding,
                monthly_eur: if i % 2 == 0 {
                    Some(i as f64 / 7.0)
                } else {
                    None
                },
                provider: None,
                language: None,
                attempts: i as u16,
                failure,
            };
            let decoded = decode_record(&encode_record(&rec)).unwrap();
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let good = encode_record(&sample());
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&good[..good.len() - 1]).is_err(), "truncated");
        let mut versioned = good.clone();
        versioned[0] = 99;
        assert!(decode_record(&versioned).is_err(), "future codec version");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).is_err(), "trailing bytes");
        let mut noise = good;
        let last = noise.len() - 1;
        noise[last] = 200;
        assert!(decode_record(&noise).is_err(), "unknown failure tag");
    }

    #[test]
    fn unknown_language_code_is_rejected() {
        let mut rec = sample();
        rec.language = None;
        let mut bytes = encode_record(&rec);
        // Splice a bogus language in place of the none tag: the language
        // field sits right before the 4-byte attempts + 1-byte failure tail.
        let tail = bytes.split_off(bytes.len() - 5);
        assert_eq!(bytes.pop(), Some(0), "language none tag");
        bytes.push(1);
        bytes.push(2);
        bytes.extend_from_slice(b"zz");
        bytes.extend_from_slice(&tail);
        let err = decode_record(&bytes).unwrap_err();
        assert!(err.contains("language"), "{err}");
    }

    #[test]
    fn targets_hash_is_order_and_content_sensitive() {
        let a = vec!["a.example".to_string(), "b.example".to_string()];
        let b = vec!["b.example".to_string(), "a.example".to_string()];
        assert_eq!(targets_hash(&a), targets_hash(&a.clone()));
        assert_ne!(targets_hash(&a), targets_hash(&b));
        assert_ne!(targets_hash(&a), targets_hash(&a[..1]));
    }
}
