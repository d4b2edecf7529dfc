//! Inline style parsing.
//!
//! Banner detection relies on a handful of layout signals (`position:fixed`,
//! high `z-index`, `display:none`) that real BannerClick reads through
//! `getComputedStyle`. Our synthetic pages carry these as inline `style`
//! attributes, so a small declaration parser is all that's needed.

/// An inline style declaration list, read in place: each query scans the
/// `style` attribute's text, so a style costs nothing to make.
/// Properties compare ASCII case-insensitively, values come back trimmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Style<'a> {
    decls: &'a str,
}

/// CSS `position` values that take an element out of normal flow and pin it
/// to the viewport — the strongest banner-overlay signal.
pub const OVERLAY_POSITIONS: &[&str] = &["fixed", "sticky"];

impl<'a> Style<'a> {
    /// A style attribute value like
    /// `"position: fixed; z-index: 9999; display:none"`.
    ///
    /// Malformed declarations (missing colon, empty property or value) are
    /// skipped; later duplicates win, as in CSS.
    pub fn parse(input: &'a str) -> Self {
        Style { decls: input }
    }

    /// Value of `property` (lowercase), if declared.
    pub fn get(&self, property: &str) -> Option<&'a str> {
        // The last declaration wins, so search from the end.
        self.decls.split(';').rev().find_map(|decl| {
            let (prop, value) = decl.split_once(':')?;
            let (prop, value) = (prop.trim(), value.trim());
            let named = !prop.is_empty()
                && prop.len() == property.len()
                && prop
                    .bytes()
                    .zip(property.bytes())
                    .all(|(p, q)| p.to_ascii_lowercase() == q);
            (named && !value.is_empty()).then_some(value)
        })
    }

    /// `z-index` as an integer, if declared and numeric.
    pub fn z_index(&self) -> Option<i64> {
        self.get("z-index").and_then(|v| v.trim().parse().ok())
    }

    /// True if the element is pinned to the viewport (fixed/sticky).
    pub fn is_overlay_positioned(&self) -> bool {
        self.get("position")
            .is_some_and(|p| OVERLAY_POSITIONS.iter().any(|o| p.eq_ignore_ascii_case(o)))
    }

    /// True if the element is hidden (`display:none` or
    /// `visibility:hidden`).
    pub fn is_hidden(&self) -> bool {
        self.get("display")
            .is_some_and(|d| d.eq_ignore_ascii_case("none"))
            || self
                .get("visibility")
                .is_some_and(|v| v.eq_ignore_ascii_case("hidden"))
    }
}

impl crate::tree::Document {
    /// Inline style of element `id` (empty if no `style` attribute).
    pub fn style(&self, id: crate::tree::NodeId) -> Style<'_> {
        Style::parse(self.attr(id, "style").unwrap_or(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parses_declarations() {
        let s = Style::parse("position: fixed; z-index: 9999; color:red");
        assert_eq!(s.get("position"), Some("fixed"));
        assert_eq!(s.z_index(), Some(9999));
        assert_eq!(s.get("color"), Some("red"));
        assert_eq!(s.get("margin"), None);
    }

    #[test]
    fn tolerates_malformed() {
        let s = Style::parse("nonsense; position:fixed;;; : ; x:");
        assert!(s.is_overlay_positioned());
        assert_eq!(s.get("nonsense"), None);
        assert_eq!(s.get("x"), None);
        assert_eq!(s.get(""), None);
    }

    #[test]
    fn later_duplicates_win() {
        let s = Style::parse("display:block; display:none");
        assert!(s.is_hidden());
        // An empty later value does not override.
        assert_eq!(
            Style::parse("Display:none; display:").get("display"),
            Some("none")
        );
    }

    #[test]
    fn overlay_and_hidden_predicates() {
        assert!(Style::parse("position:FIXED").is_overlay_positioned());
        assert!(Style::parse("position:sticky").is_overlay_positioned());
        assert!(!Style::parse("position:absolute").is_overlay_positioned());
        assert!(Style::parse("visibility:hidden").is_hidden());
        assert!(!Style::parse("visibility:visible").is_hidden());
        assert_eq!(Style::parse(""), Style::default());
    }

    #[test]
    fn document_style_accessor() {
        let d = parse(r#"<div id="b" style="position:fixed;z-index:100000"></div><p id="p">x</p>"#);
        let b = d.get_element_by_id("b").unwrap();
        assert!(d.style(b).is_overlay_positioned());
        assert_eq!(d.style(b).z_index(), Some(100000));
        let p = d.get_element_by_id("p").unwrap();
        assert_eq!(d.style(p), Style::default());
    }

    #[test]
    fn negative_and_bad_zindex() {
        assert_eq!(Style::parse("z-index:-1").z_index(), Some(-1));
        assert_eq!(Style::parse("z-index:auto").z_index(), None);
    }
}
