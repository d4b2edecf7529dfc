//! HTML tokenizer.
//!
//! Scans raw HTML for start tags with attributes, end tags, text, comments
//! and doctypes, and hands each to a [`Sink`] as it is found, as byte
//! ranges of the input: nothing is copied and no token list is built. The
//! grammar is the practically-relevant subset of the WHATWG tokenizer:
//! quoted and unquoted attribute values, self-closing tags, raw-text
//! elements (`script`, `style`, `textarea`, `title`), comments, and entity
//! references in text and attribute values (left encoded for the sink to
//! decode). Error recovery follows the browser convention of never
//! failing — malformed input degrades to text.

use crate::entity::decode_entities_into;

/// Elements whose content is raw text: entity references stay encoded and
/// markup is not recognized until the matching end tag. The serializer
/// writes their text verbatim, so a parse → `to_html` round is a fixpoint.
pub(crate) const RAW_TEXT_TAGS: [&str; 4] = ["script", "style", "textarea", "title"];

/// Input bytes `start..end`, as `(start, end)`.
pub(crate) type Range = (usize, usize);

/// One attribute of a start tag, as input ranges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawAttr {
    /// The name as written (not lowercased).
    pub name: Range,
    /// The value, entity references still encoded; `None` for a boolean
    /// attribute.
    pub value: Option<Range>,
}

/// A run of text between markup.
#[derive(Debug)]
pub(crate) enum Text<'a> {
    /// Input bytes whose entity references are still encoded. Adjacent
    /// runs (text around a lone `<`) arrive as one.
    Encoded(Range),
    /// The content of a raw-text element, verbatim (entities are not
    /// active there).
    Verbatim(Range),
    /// Runs that markup producing no token (`<!x>`, `</>`) separated,
    /// decoded and joined.
    Joined(&'a str),
}

/// Receiver of the tokenizer's output, in input order.
pub(crate) trait Sink {
    /// `<name attrs…>`, with a trailing `/` when `self_closing`.
    fn start_tag(&mut self, name: Range, attrs: &[RawAttr], self_closing: bool);
    /// `</name>`; `name` is never empty.
    fn end_tag(&mut self, name: Range);
    /// Text. Two texts never arrive back to back.
    fn text(&mut self, text: Text<'_>);
    /// `<!--body-->`.
    fn comment(&mut self, body: Range);
    /// `<!body>` where the body starts with `DOCTYPE`.
    fn doctype(&mut self, _body: Range) {}
}

/// Tokenize `input` into `sink`.
pub(crate) fn tokenize_into(input: &str, sink: &mut impl Sink) {
    let mut tokenizer = Tokenizer {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        pending: Pending::None,
        joined: String::new(),
        attrs: Vec::new(),
    };
    tokenizer.run(sink);
}

/// Text seen but not yet handed to the sink, so that runs merge.
enum Pending {
    None,
    Run(Range),
    /// The runs so far, decoded into `Tokenizer::joined`.
    Joined,
}

struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    pending: Pending,
    joined: String,
    /// The current start tag's attributes, reused across tags.
    attrs: Vec<RawAttr>,
}

impl Tokenizer<'_> {
    fn run(&mut self, sink: &mut impl Sink) {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.consume_markup(sink);
            } else {
                self.consume_text();
            }
        }
        self.flush_text(sink);
    }

    fn peek(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn starts_with_ci(&self, s: &str) -> bool {
        self.bytes[self.pos..]
            .get(..s.len())
            .is_some_and(|p| p.eq_ignore_ascii_case(s.as_bytes()))
    }

    fn consume_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        self.push_run((start, self.pos));
    }

    /// Add a text run to the pending text, merging it with what is there
    /// so `a < b` style recovery doesn't fragment runs.
    fn push_run(&mut self, run: Range) {
        match self.pending {
            Pending::None => self.pending = Pending::Run(run),
            Pending::Run((start, end)) if end == run.0 => {
                self.pending = Pending::Run((start, run.1));
            }
            Pending::Run((start, end)) => {
                self.joined.clear();
                decode_entities_into(&self.input[start..end], &mut self.joined);
                decode_entities_into(&self.input[run.0..run.1], &mut self.joined);
                self.pending = Pending::Joined;
            }
            Pending::Joined => decode_entities_into(&self.input[run.0..run.1], &mut self.joined),
        }
    }

    fn flush_text(&mut self, sink: &mut impl Sink) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::None => {}
            Pending::Run(run) => sink.text(Text::Encoded(run)),
            Pending::Joined => sink.text(Text::Joined(&self.joined)),
        }
    }

    fn consume_markup(&mut self, sink: &mut impl Sink) {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        match self.peek(1) {
            Some(b'!') => {
                if self.starts_with_ci("<!--") {
                    self.consume_comment(sink);
                } else if self.starts_with_ci("<!doctype") {
                    self.consume_doctype(sink);
                } else {
                    // Bogus markup declaration: skip to '>'.
                    self.skip_until(b'>');
                }
            }
            Some(b'/') => self.consume_end_tag(sink),
            Some(c) if c.is_ascii_alphabetic() => self.consume_start_tag(sink),
            _ => {
                // Lone '<' is text, per spec recovery.
                self.pos += 1;
                self.push_run((self.pos - 1, self.pos));
            }
        }
    }

    fn skip_until(&mut self, byte: u8) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != byte {
            self.pos += 1;
        }
        if self.pos < self.bytes.len() {
            self.pos += 1; // consume the delimiter
        }
    }

    fn consume_comment(&mut self, sink: &mut impl Sink) {
        self.pos += 4; // "<!--"
        let start = self.pos;
        let end = self.input[self.pos..]
            .find("-->")
            .map(|i| self.pos + i)
            .unwrap_or(self.bytes.len());
        self.flush_text(sink);
        sink.comment((start, end));
        self.pos = (end + 3).min(self.bytes.len());
    }

    fn consume_doctype(&mut self, sink: &mut impl Sink) {
        self.pos += 2; // "<!"
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'>' {
            self.pos += 1;
        }
        self.flush_text(sink);
        sink.doctype((start, self.pos));
        if self.pos < self.bytes.len() {
            self.pos += 1;
        }
    }

    fn consume_end_tag(&mut self, sink: &mut impl Sink) {
        self.pos += 2; // "</"
        let name = self.consume_tag_name();
        // Skip anything up to '>' (attributes on end tags are ignored).
        self.skip_until(b'>');
        if name.0 != name.1 {
            self.flush_text(sink);
            sink.end_tag(name);
        }
    }

    fn consume_tag_name(&mut self) -> Range {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':')
        {
            self.pos += 1;
        }
        (start, self.pos)
    }

    fn skip_whitespace(&mut self) {
        while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn consume_start_tag(&mut self, sink: &mut impl Sink) {
        self.pos += 1; // '<'
        let name = self.consume_tag_name();
        self.attrs.clear();
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.peek(0) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek(0) == Some(b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                    // stray '/': ignore
                }
                Some(_) => {
                    if let Some(attr) = self.consume_attribute() {
                        self.attrs.push(attr);
                    }
                }
            }
        }
        self.flush_text(sink);
        sink.start_tag(name, &self.attrs, self_closing);
        let name = &self.input[name.0..name.1];
        let raw_text = RAW_TEXT_TAGS
            .into_iter()
            .find(|t| name.eq_ignore_ascii_case(t));
        if let Some(tag) = raw_text.filter(|_| !self_closing) {
            self.consume_raw_text(tag, sink);
        }
    }

    fn consume_attribute(&mut self) -> Option<RawAttr> {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| !b.is_ascii_whitespace() && b != b'=' && b != b'>' && b != b'/')
        {
            self.pos += 1;
        }
        if self.pos == start {
            // Unexpected byte (e.g. stray quote); skip it to make progress.
            self.pos += 1;
            return None;
        }
        let name = (start, self.pos);
        self.skip_whitespace();
        if self.peek(0) != Some(b'=') {
            return Some(RawAttr { name, value: None }); // boolean attribute
        }
        self.pos += 1; // '='
        self.skip_whitespace();
        let value = match self.peek(0) {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let vstart = self.pos;
                while self.peek(0).is_some_and(|b| b != q) {
                    self.pos += 1;
                }
                let v = (vstart, self.pos);
                if self.peek(0).is_some() {
                    self.pos += 1; // closing quote
                }
                v
            }
            _ => {
                let vstart = self.pos;
                while self
                    .peek(0)
                    .is_some_and(|b| !b.is_ascii_whitespace() && b != b'>')
                {
                    self.pos += 1;
                }
                (vstart, self.pos)
            }
        };
        Some(RawAttr {
            name,
            value: Some(value),
        })
    }

    /// Consume raw text up to the `</tag` that closes it (a script's or
    /// style's text is not markup). Raw text is emitted undecoded
    /// (entities are not active in scripts).
    fn consume_raw_text(&mut self, tag: &str, sink: &mut impl Sink) {
        let start = self.pos;
        let end = self.find_closer(tag).unwrap_or(self.bytes.len());
        if end > start {
            sink.text(Text::Verbatim((start, end)));
        }
        self.pos = end;
        if self.pos < self.bytes.len() {
            // Consume "</tag ... >".
            let name = (self.pos + 2, self.pos + 2 + tag.len());
            self.pos = name.1;
            self.skip_until(b'>');
            sink.end_tag(name);
        }
    }

    /// Offset of the first `</tag` from the current position whose name
    /// ends there — whitespace, `/`, `>` or the end of the input follows,
    /// as in WHATWG's "appropriate end tag" — matched ASCII
    /// case-insensitively. `</scripts>` inside a script does not close it.
    fn find_closer(&self, tag: &str) -> Option<usize> {
        let mut at = self.pos;
        while let Some(rel) = self.bytes[at..].iter().position(|&b| b == b'<') {
            let lt = at + rel;
            let name_end = lt + 2 + tag.len();
            let names_tag = self.bytes.get(lt + 1) == Some(&b'/')
                && self
                    .bytes
                    .get(lt + 2..name_end)
                    .is_some_and(|name| name.eq_ignore_ascii_case(tag.as_bytes()));
            let delimited = self
                .bytes
                .get(name_end)
                .is_none_or(|&b| b.is_ascii_whitespace() || b == b'/' || b == b'>');
            if names_tag && delimited {
                return Some(lt);
            }
            at = lt + 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::decode_entities;

    /// A token with owned payloads: names lowercased, text and attribute
    /// values decoded, as the tree builder reads them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Token {
        StartTag {
            name: String,
            attrs: Vec<(String, String)>,
            self_closing: bool,
        },
        EndTag {
            name: String,
        },
        Text(String),
        Comment(String),
        Doctype(String),
    }

    struct Collect<'a> {
        input: &'a str,
        tokens: Vec<Token>,
    }

    impl Collect<'_> {
        fn at(&self, (start, end): Range) -> &str {
            &self.input[start..end]
        }
    }

    impl Sink for Collect<'_> {
        fn start_tag(&mut self, name: Range, attrs: &[RawAttr], self_closing: bool) {
            let attrs = attrs
                .iter()
                .map(|a| {
                    let value = a
                        .value
                        .map_or(String::new(), |v| decode_entities(self.at(v)));
                    (self.at(a.name).to_ascii_lowercase(), value)
                })
                .collect();
            let name = self.at(name).to_ascii_lowercase();
            self.tokens.push(Token::StartTag {
                name,
                attrs,
                self_closing,
            });
        }

        fn end_tag(&mut self, name: Range) {
            let name = self.at(name).to_ascii_lowercase();
            self.tokens.push(Token::EndTag { name });
        }

        fn text(&mut self, text: Text<'_>) {
            assert!(
                !matches!(self.tokens.last(), Some(Token::Text(_))),
                "texts arrive merged"
            );
            let text = match text {
                Text::Encoded(run) => decode_entities(self.at(run)),
                Text::Verbatim(run) => self.at(run).to_string(),
                Text::Joined(text) => text.to_string(),
            };
            self.tokens.push(Token::Text(text));
        }

        fn comment(&mut self, body: Range) {
            let body = self.at(body).to_string();
            self.tokens.push(Token::Comment(body));
        }

        fn doctype(&mut self, body: Range) {
            let body = self.at(body).to_string();
            self.tokens.push(Token::Doctype(body));
        }
    }

    fn tokenize(input: &str) -> Vec<Token> {
        let mut sink = Collect {
            input,
            tokens: Vec::new(),
        };
        tokenize_into(input, &mut sink);
        sink.tokens
    }

    fn start(name: &str, attrs: &[(&str, &str)]) -> Token {
        Token::StartTag {
            name: name.into(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_tags_and_text() {
        let toks = tokenize("<div>hello</div>");
        assert_eq!(
            toks,
            vec![
                start("div", &[]),
                Token::Text("hello".into()),
                Token::EndTag { name: "div".into() },
            ]
        );
    }

    #[test]
    fn attributes_all_quoting_styles() {
        let toks = tokenize(r#"<a href="x" id='y' data-n=3 hidden>"#);
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(name, "a");
                assert_eq!(
                    attrs,
                    &vec![
                        ("href".to_string(), "x".to_string()),
                        ("id".to_string(), "y".to_string()),
                        ("data-n".to_string(), "3".to_string()),
                        ("hidden".to_string(), String::new()),
                    ]
                );
            }
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn self_closing_and_case() {
        let toks = tokenize("<BR/><IMG SRC=x>");
        assert_eq!(
            toks[0],
            Token::StartTag {
                name: "br".into(),
                attrs: vec![],
                self_closing: true
            }
        );
        match &toks[1] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(name, "img");
                assert_eq!(attrs[0].0, "src");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = tokenize(r#"<span title="3,99&nbsp;&euro;">nur 2,99 &euro;/Monat</span>"#);
        match &toks[0] {
            Token::StartTag { attrs, .. } => {
                assert_eq!(attrs[0].1, "3,99\u{a0}€");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(toks[1], Token::Text("nur 2,99 €/Monat".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- x --><p>t</p>");
        assert_eq!(toks[0], Token::Doctype("DOCTYPE html".into()));
        assert_eq!(toks[1], Token::Comment(" x ".into()));
    }

    #[test]
    fn script_raw_text_not_tokenized() {
        let toks = tokenize("<script>if (a < b) { x = \"<div>\"; }</script><p>after</p>");
        assert_eq!(toks[0], start("script", &[]));
        assert_eq!(toks[1], Token::Text("if (a < b) { x = \"<div>\"; }".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(toks[3], start("p", &[]));
    }

    #[test]
    fn style_raw_text() {
        let toks = tokenize("<style>a > b { color: red }</style>");
        assert_eq!(toks[1], Token::Text("a > b { color: red }".into()));
    }

    #[test]
    fn malformed_recovers_as_text() {
        let toks = tokenize("a < b and c <3 d");
        assert_eq!(toks, vec![Token::Text("a < b and c <3 d".into())]);
    }

    #[test]
    fn unterminated_comment_and_tag() {
        let toks = tokenize("<!-- never closed");
        assert_eq!(toks, vec![Token::Comment(" never closed".into())]);
        let toks = tokenize("<div attr");
        assert!(matches!(toks[0], Token::StartTag { .. }));
    }

    #[test]
    fn unterminated_script() {
        let toks = tokenize("<script>var x = 1;");
        assert_eq!(toks[1], Token::Text("var x = 1;".into()));
        assert_eq!(toks.len(), 2, "no phantom end tag");
    }

    #[test]
    fn end_tag_with_junk_attrs() {
        let toks = tokenize("<div>x</div id=5>");
        assert_eq!(toks[2], Token::EndTag { name: "div".into() });
    }

    #[test]
    fn adjacent_text_merged() {
        let toks = tokenize("x < y");
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn text_merges_across_markup_that_makes_no_token() {
        let toks = tokenize("a &amp;<!bogus> b</> &lt;c<!-- x -->d");
        assert_eq!(
            toks,
            vec![
                Token::Text("a & b <c".into()),
                Token::Comment(" x ".into()),
                Token::Text("d".into()),
            ]
        );
    }

    #[test]
    fn raw_text_closer_needs_a_delimited_name() {
        let toks = tokenize("<script>var s='</scripts>'; x()</script><p>");
        assert_eq!(toks[1], Token::Text("var s='</scripts>'; x()".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(toks[3], start("p", &[]));
        assert_eq!(toks.len(), 4);

        let toks = tokenize("<title>a</titlex>b</title>");
        assert_eq!(toks[1], Token::Text("a</titlex>b".into()));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn raw_text_closer_is_case_insensitive_and_may_carry_space() {
        let toks = tokenize("<style>a{}</STYLE >x");
        assert_eq!(toks[1], Token::Text("a{}".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "style".into()
            }
        );
        assert_eq!(toks[3], Token::Text("x".into()));
        // A closer at the very end of the input needs no delimiter.
        let toks = tokenize("<textarea>t</textarea");
        assert_eq!(toks[1], Token::Text("t".into()));
        assert_eq!(toks.len(), 3);
    }
}
