//! A tolerant mini-parser over the token stream for the item shapes the
//! rules care about: `#[derive(Serialize)]` structs/enums (their fields,
//! serde attributes, and field-type identifiers), `pub` structs (their
//! fields' visibility), and named `fn` bodies.
//!
//! It is deliberately not a Rust parser — it brace-matches and pattern
//! matches just enough structure, and silently skips anything it does not
//! understand (the compiler owns rejecting malformed code; the linter
//! must only never misattribute).

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// A struct or enum that derives `Serialize`.
#[derive(Debug)]
pub struct SerializeItem {
    /// Type name.
    pub name: String,
    /// Line the `struct` / `enum` keyword is on.
    pub line: u32,
    /// Token-index range of the item body (inside the braces/parens),
    /// empty for unit structs.
    pub body: (usize, usize),
    /// Named fields (struct fields; enum variant payloads contribute
    /// anonymous fields with an empty name).
    pub fields: Vec<Field>,
}

/// One field of a [`SerializeItem`].
#[derive(Debug)]
pub struct Field {
    /// Field name (empty for tuple/variant payload positions).
    pub name: String,
    /// Line the field name (or its type, when unnamed) is on.
    pub line: u32,
    /// The field carries `#[serde(skip…)]` — `skip`, `skip_serializing`,
    /// or `skip_serializing_if`.
    pub serde_skip: bool,
    /// Identifier tokens appearing in the field's type.
    pub type_idents: Vec<String>,
    /// Declared plain `pub` (not `pub(crate)` or narrower).
    pub is_pub: bool,
}

/// A plain-`pub` struct with named fields.
#[derive(Debug)]
pub struct PubStruct {
    /// Type name.
    pub name: String,
    /// Token index of the `pub` that opens the item.
    pub at: usize,
    /// The named fields.
    pub fields: Vec<Field>,
}

/// Collect every plain-`pub` struct with a brace body in `file`.
pub fn pub_structs(file: &SourceFile) -> Vec<PubStruct> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for (at, w) in tokens.windows(3).enumerate() {
        if !(w[0].is_ident("pub") && w[1].is_ident("struct") && w[2].kind == TokenKind::Ident) {
            continue;
        }
        let (open, close) = item_body(tokens, at + 3);
        if tokens.get(open).is_some_and(|t| t.is_punct('{')) {
            out.push(PubStruct {
                name: w[2].text.clone(),
                at,
                fields: parse_fields(tokens, open + 1, close),
            });
        }
    }
    out
}

/// The body of the struct or enum whose generics start at `from`: the
/// first top-level `{` or `(` and its matching delimiter, or `(k, k)` at
/// the `;` (or end of input) that ends a unit struct.
fn item_body(tokens: &[Token], from: usize) -> (usize, usize) {
    let mut angle = 0i32;
    let mut k = from;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_punct(';') {
            break;
        } else if angle <= 0 && (t.is_punct('{') || t.is_punct('(')) {
            return (k, match_delim(tokens, k));
        }
        k += 1;
    }
    (k, k)
}

/// Collect every `#[derive(…Serialize…)]` struct/enum in `file`.
pub fn serialize_items(file: &SourceFile) -> Vec<SerializeItem> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let Some((content, end)) = attr_span(tokens, i) else {
            break;
        };
        let attr = &tokens[content..end];
        let derives_serialize = attr.first().is_some_and(|t| t.is_ident("derive"))
            && attr.iter().any(|t| t.is_ident("Serialize"));
        i = end + 1;
        if !derives_serialize {
            continue;
        }
        // Skip further attributes (e.g. #[serde(...)] on the type itself).
        while i < tokens.len()
            && tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            match attr_span(tokens, i) {
                Some((_, end)) => i = end + 1,
                None => return out,
            }
        }
        // Expect (pub)? (struct|enum) Name … body.
        let mut j = i;
        while j < tokens.len() && !is_item_keyword(&tokens[j]) {
            j += 1;
            // Derives apply to the very next item; give up after a few
            // tokens so a stray derive cannot swallow the file.
            if j - i > 4 {
                break;
            }
        }
        let Some(kw) = tokens.get(j).filter(|t| is_item_keyword(t)) else {
            continue;
        };
        let is_struct = kw.is_ident("struct");
        let Some(name_tok) = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let (open, body_end) = item_body(tokens, j + 2);
        let body_start = if open < body_end { open + 1 } else { open };
        let fields = if is_struct {
            parse_fields(tokens, body_start, body_end)
        } else {
            parse_enum_fields(tokens, body_start, body_end)
        };
        out.push(SerializeItem {
            name: name_tok.text.clone(),
            line: kw.line,
            body: (body_start, body_end),
            fields,
        });
        i = body_end.max(i) + 1;
    }
    out
}

/// Parse named fields of a brace body: `[attrs] [pub(..)] name: Type,`.
fn parse_fields(tokens: &[Token], start: usize, end: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = start;
    while i < end {
        // Attributes before the field.
        let mut serde_skip = false;
        while i < end
            && tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let Some((content, attr_end)) = attr_span(tokens, i) else {
                return fields;
            };
            let attr = &tokens[content..attr_end.min(end)];
            if attr.first().is_some_and(|t| t.is_ident("serde"))
                && attr
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text.starts_with("skip"))
            {
                serde_skip = true;
            }
            i = attr_end + 1;
        }
        // Visibility.
        let mut is_pub = false;
        if i < end && tokens[i].is_ident("pub") {
            i += 1;
            is_pub = true;
            if i < end && tokens[i].is_punct('(') {
                i = match_delim(tokens, i) + 1;
                is_pub = false;
            }
        }
        // name : Type ,
        let Some(name_tok) = tokens.get(i).filter(|t| t.kind == TokenKind::Ident) else {
            break;
        };
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            break;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut type_idents = Vec::new();
        while j < end {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
                depth -= 1;
            } else if depth <= 0 && t.is_punct(',') {
                break;
            } else if t.kind == TokenKind::Ident {
                type_idents.push(t.text.clone());
            }
            j += 1;
        }
        fields.push(Field {
            name,
            line,
            serde_skip,
            type_idents,
            is_pub,
        });
        i = j + 1;
    }
    fields
}

/// Enum bodies: every identifier inside a variant's payload counts as a
/// type identifier (reachability follows them); serde-skip on variants is
/// out of scope.
fn parse_enum_fields(tokens: &[Token], start: usize, end: usize) -> Vec<Field> {
    let mut i = start;
    let mut fields = Vec::new();
    while i < end {
        // Variant name, optionally followed by a payload.
        while i < end
            && tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            match attr_span(tokens, i) {
                Some((_, attr_end)) => i = attr_end + 1,
                None => return fields,
            }
        }
        let Some(variant) = tokens.get(i).filter(|t| t.kind == TokenKind::Ident) else {
            break;
        };
        let line = variant.line;
        i += 1;
        let mut type_idents = Vec::new();
        if i < end && (tokens[i].is_punct('(') || tokens[i].is_punct('{')) {
            let close = match_delim(tokens, i);
            for t in &tokens[i + 1..close.min(end)] {
                if t.kind == TokenKind::Ident {
                    type_idents.push(t.text.clone());
                }
            }
            i = close + 1;
        }
        // Skip discriminant `= expr` and the trailing comma.
        while i < end && !tokens[i].is_punct(',') {
            i += 1;
        }
        i += 1;
        fields.push(Field {
            name: String::new(),
            line,
            serde_skip: false,
            type_idents,
            is_pub: false,
        });
    }
    fields
}

/// Token-index range (exclusive of braces) of the body of `fn name`, or
/// `None` when the file has no such function.
pub fn fn_body(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let tokens = &file.tokens;
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("fn") && tokens[i + 1].is_ident(name) {
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                if tokens[j].is_punct(';') {
                    return None; // a trait signature, not a body
                }
                j += 1;
            }
            if j < tokens.len() {
                let close = match_delim(tokens, j);
                return Some((j + 1, close));
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Do any of the tokens in `range` equal identifier `ident`?
pub fn range_has_ident(file: &SourceFile, range: (usize, usize), ident: &str) -> bool {
    file.tokens[range.0..range.1.min(file.tokens.len())]
        .iter()
        .any(|t| t.is_ident(ident))
}

fn is_item_keyword(t: &Token) -> bool {
    t.is_ident("struct") || t.is_ident("enum")
}

/// Given `tokens[open]` == `#` and `[`, the attribute content range and
/// closing-`]` index.
fn attr_span(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < tokens.len() {
        if tokens[k].is_punct('[') {
            depth += 1;
        } else if tokens[k].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 2, k));
            }
        }
        k += 1;
    }
    None
}

/// Index of the delimiter matching the one at `open` (`{`/`(`/`[`).
fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (inc, dec) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(inc) {
            depth += 1;
        } else if t.is_punct(dec) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("test.rs".to_string(), src, &[])
    }

    #[test]
    fn serialize_struct_fields_and_skip_attrs_are_parsed() {
        let src = "#[derive(Debug, Clone, Serialize)]\n\
                   pub struct Report {\n\
                       pub rows: Vec<Row>,\n\
                       #[serde(skip)]\n\
                       pub diag: Option<Diag>,\n\
                       #[serde(skip_serializing_if = \"Option::is_none\")]\n\
                       pub extra: Option<Extra>,\n\
                   }\n\
                   struct NotSerialized { m: HashMap<u8, u8> }";
        let f = parse(src);
        let items = serialize_items(&f);
        assert_eq!(items.len(), 1);
        let item = &items[0];
        assert_eq!(item.name, "Report");
        assert_eq!(item.fields.len(), 3);
        assert!(!item.fields[0].serde_skip);
        assert!(item.fields[1].serde_skip);
        assert!(item.fields[2].serde_skip);
        assert!(item.fields[0].type_idents.contains(&"Row".to_string()));
        assert!(item.fields[1].type_idents.contains(&"Diag".to_string()));
    }

    #[test]
    fn serialize_enum_variant_payloads_contribute_type_idents() {
        let src = "#[derive(Serialize)]\nenum Kind { A, B(Inner), C { x: Deep } }";
        let f = parse(src);
        let items = serialize_items(&f);
        assert_eq!(items.len(), 1);
        let idents: Vec<&String> = items[0]
            .fields
            .iter()
            .flat_map(|v| v.type_idents.iter())
            .collect();
        assert!(idents.iter().any(|s| *s == "Inner"));
        assert!(idents.iter().any(|s| *s == "Deep"));
    }

    #[test]
    fn fn_body_extraction_brace_matches() {
        let src = "fn other() { a(); }\nfn target(x: u8) -> u8 { if x > 0 { inner(); } 3 }";
        let f = parse(src);
        let body = fn_body(&f, "target").unwrap();
        assert!(range_has_ident(&f, body, "inner"));
        assert!(!range_has_ident(&f, body, "a"));
        assert!(fn_body(&f, "missing").is_none());
    }
}
