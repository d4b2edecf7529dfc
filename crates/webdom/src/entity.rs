//! HTML character reference (entity) decoding and encoding.
//!
//! Supports the named entities that actually occur in cookie-banner markup —
//! including the currency entities (`&euro;`, `&pound;`, …) the cookiewall
//! classifier must see decoded — plus decimal and hexadecimal numeric
//! references.

/// Named entities we decode. Kept small and auditable on purpose; unknown
/// entities pass through verbatim like browsers do for unterminated or
/// unrecognized references.
const NAMED: &[(&str, char)] = &[
    ("amp", '&'),
    ("lt", '<'),
    ("gt", '>'),
    ("quot", '"'),
    ("apos", '\''),
    ("nbsp", '\u{a0}'),
    ("euro", '€'),
    ("pound", '£'),
    ("yen", '¥'),
    ("cent", '¢'),
    ("dollar", '$'),
    ("curren", '¤'),
    ("copy", '©'),
    ("reg", '®'),
    ("trade", '™'),
    ("hellip", '…'),
    ("mdash", '—'),
    ("ndash", '–'),
    ("rsquo", '’'),
    ("lsquo", '‘'),
    ("rdquo", '”'),
    ("ldquo", '“'),
    ("auml", 'ä'),
    ("ouml", 'ö'),
    ("uuml", 'ü'),
    ("Auml", 'Ä'),
    ("Ouml", 'Ö'),
    ("Uuml", 'Ü'),
    ("szlig", 'ß'),
    ("eacute", 'é'),
    ("egrave", 'è'),
    ("agrave", 'à'),
    ("ccedil", 'ç'),
    ("aring", 'å'),
    ("Aring", 'Å'),
    ("aelig", 'æ'),
    ("oslash", 'ø'),
    ("ntilde", 'ñ'),
];

fn named_entity(name: &str) -> Option<char> {
    NAMED.iter().find(|(n, _)| *n == name).map(|&(_, c)| c)
}

/// Decode HTML character references in `input`.
///
/// Handles `&name;`, `&#1234;`, and `&#x1F4A9;` forms. Malformed references
/// (missing semicolon, unknown name, out-of-range codepoint) are left as-is.
pub fn decode_entities(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    decode_entities_into(input, &mut out);
    out
}

/// [`decode_entities`], appending to `out`.
pub(crate) fn decode_entities_into(input: &str, out: &mut String) {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Copy the run up to the next reference as one slice.
        let Some(rel) = bytes[i..].iter().position(|&b| b == b'&') else {
            out.push_str(&input[i..]);
            return;
        };
        out.push_str(&input[i..i + rel]);
        i += rel;
        // Find the terminating semicolon within a reasonable window.
        let window_end = (i + 32).min(bytes.len());
        let semi = bytes[i + 1..window_end].iter().position(|&b| b == b';');
        match semi.and_then(|rel| Some((rel, decode_reference(&input[i + 1..i + 1 + rel])?))) {
            Some((rel, c)) => {
                out.push(c);
                i += rel + 2; // skip '&' + name + ';'
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
}

fn decode_reference(name: &str) -> Option<char> {
    if let Some(rest) = name.strip_prefix('#') {
        let cp = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            rest.parse::<u32>().ok()?
        };
        char::from_u32(cp)
    } else {
        named_entity(name)
    }
}

/// Encode the five characters that must be escaped in HTML text and
/// attribute values, appending to `out`.
pub(crate) fn encode_entities_into(input: &str, out: &mut String) {
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode_entities(input: &str) -> String {
        let mut out = String::new();
        encode_entities_into(input, &mut out);
        out
    }

    proptest! {
        /// Entity encoding always decodes back to the original.
        #[test]
        fn entity_roundtrip(s in "\\PC{0,200}") {
            prop_assert_eq!(decode_entities(&encode_entities(&s)), s);
        }
    }

    #[test]
    fn decodes_named() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("&euro;3.99"), "€3.99");
        assert_eq!(decode_entities("3,99&nbsp;&euro;"), "3,99\u{a0}€");
        assert_eq!(decode_entities("&pound;2 &yen;5"), "£2 ¥5");
        assert_eq!(decode_entities("f&uuml;r"), "für");
    }

    #[test]
    fn decodes_numeric() {
        assert_eq!(decode_entities("&#8364;"), "€");
        assert_eq!(decode_entities("&#x20AC;"), "€");
        assert_eq!(decode_entities("&#X20ac;"), "€");
        assert_eq!(decode_entities("&#65;&#66;"), "AB");
    }

    #[test]
    fn leaves_malformed_alone() {
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode_entities("&#x110000;"), "&#x110000;"); // > char max
        assert_eq!(decode_entities("100% &"), "100% &");
        assert_eq!(decode_entities("&amp"), "&amp"); // no semicolon
    }

    #[test]
    fn encode_roundtrip() {
        let s = "<a href=\"x\">3,99 € & more</a>";
        assert_eq!(decode_entities(&encode_entities(s)), s);
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode_entities("prix: 3€ ça va"), "prix: 3€ ça va");
        assert_eq!(decode_entities("日本語 &amp; テスト"), "日本語 & テスト");
    }
}
