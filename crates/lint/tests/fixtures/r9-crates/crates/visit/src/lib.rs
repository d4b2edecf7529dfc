//! Two-crate fixture: `visit` depends on `dom` but not on `cli`, so the
//! unhinted `doc.render()` on the per-visit hot path reaches `dom`'s
//! `render` only. Fires `hot-path-allocation` exactly once, on
//! `Dom::render`; the same-named, allocating `Cli::render` stays silent
//! because no code in `visit` can call it.

pub fn measure_site(input: &str) -> usize {
    let doc = dom::load(input);
    doc.render()
}
