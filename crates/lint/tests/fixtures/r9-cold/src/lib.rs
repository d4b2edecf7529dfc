//! R9 cold-path fixture: `measure_site` reaches four allocating helpers,
//! three of them only on its error paths — inside a `map_err` closure,
//! inside an `Err(..)`, and in a branch that ends in `return Err(..)`.
//! Fires `hot-path-allocation` exactly once, on the hot `render`.

pub fn measure_site(input: &str) -> Result<usize, String> {
    let n: usize = input.parse().map_err(|_| unparsable(input))?;
    if n > 9 {
        return Err(too_large(input));
    }
    if n == 0 {
        let why = empty(input);
        return Err(why);
    }
    Ok(render(n).len())
}

fn render(n: usize) -> String {
    format!("{n} visits")
}

fn unparsable(input: &str) -> String {
    format!("not a number: {input}")
}

fn too_large(input: &str) -> String {
    input.to_string()
}

fn empty(input: &str) -> String {
    input.to_owned()
}
