//! XPath engine (subset).
//!
//! Selenium-era banner tooling predominantly locates elements by XPath, and
//! the paper calls out explicitly that XPath cannot see into shadow DOMs
//! (§3: "it is not possible to look up elements inside shadow DOMs using
//! XPath or CSS selectors"). This module implements the XPath 1.0 subset
//! those locators use:
//!
//! ```text
//! path      = ("/" step | "//" step)+
//! step      = ("*" | name) predicate*
//! predicate = "[" integer "]"                          position (1-based)
//!           | "[@attr]"                                attribute exists
//!           | "[@attr='v']"                            attribute equals
//!           | "[contains(@attr,'v')]"                  attribute substring
//!           | "[text()='v']"                           own text equals
//!           | "[contains(text(),'v')]"                 own text substring
//! ```
//!
//! Like the selector engine, evaluation never crosses shadow-root or
//! iframe boundaries — the opacity the §3 workaround exists to pierce.

use crate::tree::{Document, NodeId};
use std::fmt;

/// XPath parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XPath: {}", self.message)
    }
}

impl std::error::Error for XPathError {}

fn err(message: impl Into<String>) -> XPathError {
    XPathError {
        message: message.into(),
    }
}

/// Relationship of a step to the previous context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// `/step` — direct children.
    Child,
    /// `//step` — all descendants.
    Descendant,
}

/// A node test within a step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeTest {
    Any,
    Tag(String),
}

/// A step predicate.
#[derive(Debug, Clone, PartialEq)]
enum Predicate {
    Position(usize),
    AttrExists(String),
    AttrEquals(String, String),
    AttrContains(String, String),
    TextEquals(String),
    TextContains(String),
}

#[derive(Debug, Clone)]
struct Step {
    axis: Axis,
    test: NodeTest,
    predicates: Vec<Predicate>,
}

/// A compiled XPath expression.
#[derive(Debug, Clone)]
pub struct XPath {
    steps: Vec<Step>,
}

impl XPath {
    /// Compile an XPath string.
    // lint:allow(r9) — a compiled XPath owns its names, values and error strings: a query AST, not document payload
    pub fn parse(input: &str) -> Result<XPath, XPathError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(err("empty expression"));
        }
        if !input.starts_with('/') {
            return Err(err(
                "only absolute paths (starting with / or //) are supported",
            ));
        }
        let mut steps = Vec::new();
        let bytes = input.as_bytes();
        let mut pos = 0;
        while pos < bytes.len() {
            let axis = if input[pos..].starts_with("//") {
                pos += 2;
                Axis::Descendant
            } else if input[pos..].starts_with('/') {
                pos += 1;
                Axis::Child
            } else {
                return Err(err(format!("expected '/' at byte {pos}")));
            };
            let (step, next) = parse_step(input, pos, axis)?;
            steps.push(step);
            pos = next;
        }
        if steps.is_empty() {
            return Err(err("no steps"));
        }
        Ok(XPath { steps })
    }

    /// Evaluate against `doc`, returning matches in document order.
    pub fn select(&self, doc: &Document, scope: NodeId) -> Vec<NodeId> {
        let mut context = vec![scope];
        for step in &self.steps {
            let mut next: Vec<NodeId> = Vec::new();
            for &ctx in &context {
                // Candidates per context node, in document order.
                let candidates: Vec<NodeId> = match step.axis {
                    Axis::Child => doc
                        .children(ctx)
                        .filter(|&n| step.matches_test(doc, n))
                        .collect(),
                    Axis::Descendant => doc
                        .descendants(ctx)
                        .skip(1)
                        .filter(|&n| step.matches_test(doc, n))
                        .collect(),
                };
                // Predicates (position is relative to this candidate list).
                'cand: for (i, &n) in candidates.iter().enumerate() {
                    for p in &step.predicates {
                        if !eval_predicate(doc, n, i + 1, p) {
                            continue 'cand;
                        }
                    }
                    next.push(n);
                }
            }
            next.dedup();
            context = next;
            if context.is_empty() {
                break;
            }
        }
        context
    }
}

impl Step {
    fn matches_test(&self, doc: &Document, node: NodeId) -> bool {
        match (&self.test, doc.tag(node)) {
            (NodeTest::Any, Some(_)) => true,
            (NodeTest::Tag(t), Some(tag)) => tag == t,
            _ => false,
        }
    }
}

fn eval_predicate(doc: &Document, node: NodeId, position: usize, p: &Predicate) -> bool {
    match p {
        Predicate::Position(want) => position == *want,
        Predicate::AttrExists(name) => doc.attr(node, name).is_some(),
        Predicate::AttrEquals(name, v) => doc.attr(node, name) == Some(v.as_str()),
        Predicate::AttrContains(name, v) => {
            doc.attr(node, name).is_some_and(|a| a.contains(v.as_str()))
        }
        Predicate::TextEquals(v) => own_text(doc, node).trim() == v,
        Predicate::TextContains(v) => own_text(doc, node).contains(v.as_str()),
    }
}

/// Concatenated direct text children (XPath's `text()` on this element).
fn own_text(doc: &Document, node: NodeId) -> String {
    doc.children(node).filter_map(|c| doc.text(c)).collect()
}

// lint:allow(r9) — a compiled XPath owns its names, values and error strings: a query AST, not document payload
fn parse_step(input: &str, mut pos: usize, axis: Axis) -> Result<(Step, usize), XPathError> {
    let bytes = input.as_bytes();
    // Node test.
    let test = if bytes.get(pos) == Some(&b'*') {
        pos += 1;
        NodeTest::Any
    } else {
        let start = pos;
        while pos < bytes.len()
            && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-' || bytes[pos] == b'_')
        {
            pos += 1;
        }
        if pos == start {
            return Err(err(format!("expected node test at byte {start}")));
        }
        NodeTest::Tag(input[start..pos].to_ascii_lowercase())
    };
    // Predicates.
    let mut predicates = Vec::new();
    while bytes.get(pos) == Some(&b'[') {
        let close = input[pos..]
            .find(']')
            .map(|i| pos + i)
            .ok_or_else(|| err("unterminated predicate"))?;
        let body = input[pos + 1..close].trim();
        predicates.push(parse_predicate(body)?);
        pos = close + 1;
    }
    Ok((
        Step {
            axis,
            test,
            predicates,
        },
        pos,
    ))
}

// lint:allow(r9) — a compiled XPath owns its names, values and error strings: a query AST, not document payload
fn parse_predicate(body: &str) -> Result<Predicate, XPathError> {
    if body.is_empty() {
        return Err(err("empty predicate"));
    }
    // [3]
    if body.chars().all(|c| c.is_ascii_digit()) {
        let n: usize = body.parse().map_err(|_| err("bad position"))?;
        if n == 0 {
            return Err(err("positions are 1-based"));
        }
        return Ok(Predicate::Position(n));
    }
    // [contains(X,'v')]
    if let Some(rest) = body.strip_prefix("contains(") {
        let rest = rest.strip_suffix(')').ok_or_else(|| err("expected ')'"))?;
        let (target, value) = rest.split_once(',').ok_or_else(|| err("expected ','"))?;
        let value = parse_quoted(value.trim())?;
        let target = target.trim();
        if target == "text()" {
            return Ok(Predicate::TextContains(value));
        }
        if let Some(attr) = target.strip_prefix('@') {
            return Ok(Predicate::AttrContains(attr.to_ascii_lowercase(), value));
        }
        return Err(err(format!("unsupported contains() target {target:?}")));
    }
    // [text()='v']
    if let Some(rest) = body.strip_prefix("text()") {
        let rest = rest.trim_start();
        let value = rest
            .strip_prefix('=')
            .ok_or_else(|| err("expected '=' after text()"))?;
        return Ok(Predicate::TextEquals(parse_quoted(value.trim())?));
    }
    // [@attr] or [@attr='v']
    if let Some(rest) = body.strip_prefix('@') {
        return match rest.split_once('=') {
            None => Ok(Predicate::AttrExists(rest.trim().to_ascii_lowercase())),
            Some((name, value)) => Ok(Predicate::AttrEquals(
                name.trim().to_ascii_lowercase(),
                parse_quoted(value.trim())?,
            )),
        };
    }
    Err(err(format!("unsupported predicate {body:?}")))
}

// lint:allow(r9) — a compiled XPath owns its names, values and error strings: a query AST, not document payload
fn parse_quoted(s: &str) -> Result<String, XPathError> {
    let inner = s
        .strip_prefix('\'')
        .and_then(|r| r.strip_suffix('\''))
        .or_else(|| s.strip_prefix('"').and_then(|r| r.strip_suffix('"')))
        .ok_or_else(|| err(format!("expected quoted string, got {s:?}")))?;
    Ok(inner.to_string())
}

impl Document {
    /// Evaluate an XPath expression from the document root.
    ///
    /// # Errors
    /// Returns [`XPathError`] if the expression is malformed.
    pub fn xpath(&self, expression: &str) -> Result<Vec<NodeId>, XPathError> {
        Ok(XPath::parse(expression)?.select(self, self.root()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Document {
        parse(
            r#"<html><body>
                 <div id="cmp" class="overlay consent">
                   <p>We use cookies.</p>
                   <button data-role="accept">Accept all</button>
                   <button data-role="reject">Reject</button>
                 </div>
                 <main>
                   <article><p>first</p></article>
                   <article><p>second</p></article>
                 </main>
               </body></html>"#,
        )
    }

    #[test]
    fn descendant_and_child_axes() {
        let d = doc();
        assert_eq!(d.xpath("//button").unwrap().len(), 2);
        assert_eq!(d.xpath("//div/button").unwrap().len(), 2);
        assert_eq!(d.xpath("/html/body/div").unwrap().len(), 1);
        assert_eq!(d.xpath("/html/div").unwrap().len(), 0, "child axis strict");
        assert_eq!(d.xpath("//main//p").unwrap().len(), 2);
        assert_eq!(
            d.xpath("//*").unwrap().len(),
            d.descendant_elements(d.root()).count()
        );
    }

    #[test]
    fn attribute_predicates() {
        let d = doc();
        assert_eq!(d.xpath("//div[@id='cmp']").unwrap().len(), 1);
        assert_eq!(d.xpath("//button[@data-role]").unwrap().len(), 2);
        assert_eq!(d.xpath("//button[@data-role='accept']").unwrap().len(), 1);
        assert_eq!(
            d.xpath("//div[contains(@class,'consent')]").unwrap().len(),
            1
        );
        assert_eq!(d.xpath("//div[contains(@class,'nope')]").unwrap().len(), 0);
    }

    #[test]
    fn text_predicates() {
        let d = doc();
        let accept = d.xpath("//button[text()='Accept all']").unwrap();
        assert_eq!(accept.len(), 1);
        assert_eq!(d.attr(accept[0], "data-role"), Some("accept"));
        assert_eq!(
            d.xpath("//button[contains(text(),'eject')]").unwrap().len(),
            1
        );
        assert_eq!(d.xpath("//p[contains(text(),'cookies')]").unwrap().len(), 1);
    }

    #[test]
    fn positional_predicates() {
        let d = doc();
        let second = d.xpath("//main/article[2]/p").unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(d.visible_text(second[0]), "second");
        assert_eq!(d.xpath("//article[3]").unwrap().len(), 0);
        // Position combined with other predicates.
        assert_eq!(d.xpath("//button[@data-role][1]").unwrap().len(), 1);
    }

    #[test]
    fn does_not_pierce_shadow_roots() {
        let d = parse(
            r#"<div id="host"><template shadowrootmode="open">
                 <button>Hidden accept</button>
               </template></div>"#,
        );
        // The paper's §3 observation, verbatim: XPath cannot find it.
        assert_eq!(d.xpath("//button").unwrap().len(), 0);
        // The shadow root handle still can (via the workaround path).
        let host = d.get_element_by_id("host").unwrap();
        let sr = d.shadow_root(host).unwrap();
        let compiled = XPath::parse("//button").unwrap();
        // Evaluating *inside* the shadow scope finds it — but only child
        // axis from the shadow root works for direct children:
        let hits = compiled.select(&d, sr.root);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(XPath::parse("").is_err());
        assert!(
            XPath::parse("button").is_err(),
            "relative paths unsupported"
        );
        assert!(XPath::parse("//").is_err());
        assert!(XPath::parse("//div[").is_err());
        assert!(XPath::parse("//div[0]").is_err(), "1-based positions");
        assert!(XPath::parse("//div[@a='unterminated]").is_err());
        assert!(XPath::parse("//div[starts-with(@a,'x')]").is_err());
        let e = XPath::parse("//div[?]").unwrap_err();
        assert!(e.to_string().contains("invalid XPath"));
    }

    #[test]
    fn double_quotes_accepted() {
        let d = doc();
        assert_eq!(d.xpath(r#"//div[@id="cmp"]"#).unwrap().len(), 1);
    }
}
