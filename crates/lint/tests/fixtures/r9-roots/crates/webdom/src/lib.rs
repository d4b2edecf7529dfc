//! R9 root fixture: the free `webdom::parse` is a per-visit root, and
//! `Thing::parse`, an associated function of the same name that no root
//! reaches, is not. Fires `hot-path-allocation` exactly once, on
//! `parse`.

pub fn parse(html: &str) -> usize {
    html.to_string().len()
}

pub struct Thing;

impl Thing {
    pub fn parse(spec: &str) -> String {
        spec.to_owned()
    }
}
