//! Test-module fixture: `samples.rs` is included by `#[cfg(test)] mod
//! samples;`, so all of it is test code, and its discarded write is
//! allowed. Its production sibling `save.rs` discards a write too. Fires
//! `swallowed-io-errors` exactly once, in `save.rs`.

mod save;
#[cfg(test)]
mod samples;

pub use save::save;
