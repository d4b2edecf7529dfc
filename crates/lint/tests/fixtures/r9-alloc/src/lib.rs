//! R9 fixture: one function on the per-visit hot path allocates — fires
//! `hot-path-allocation` exactly once, on `render_title` (reached from
//! the `measure_site` root through the call graph).

pub fn measure_site(input: &str) -> usize {
    render_title(input).len()
}

fn render_title(input: &str) -> String {
    let title = [input, "!"].concat();
    title.to_string()
}
