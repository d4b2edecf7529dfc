//! Test-module fixture: `samples.rs` is included by `#[cfg(test)] mod
//! samples;`, so all of it is test code, and its clock read is allowed.
//! Its production sibling `clock.rs` reads the clock too. Fires
//! `determinism` exactly once, in `clock.rs`.

mod clock;
#[cfg(test)]
mod samples;

pub use clock::stamp;
