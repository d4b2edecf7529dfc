//! A same-crate module `a` reaches as `b::io`: nothing here blocks.

pub fn flush(n: usize) -> usize {
    n + 1
}
