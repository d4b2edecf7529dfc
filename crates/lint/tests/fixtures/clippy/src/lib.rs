//! One of each call the retired lint rules R1 `determinism` and R4
//! `panic-hygiene` flagged, now clippy's: the workspace `clippy.toml`
//! disallows the methods, and the `deny` below is the one `browser`,
//! `store` and `analysis::crawl` carry.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::env;
use std::time::Instant as Clock;
use std::time::SystemTime;

/// `Clock::now` is the renamed import that R1's token match missed.
pub fn ambient() -> (Clock, SystemTime, Option<String>) {
    (Clock::now(), SystemTime::now(), env::var("STUDY_SEED").ok())
}

pub fn unwrapped(raw: &str) -> (u16, u16) {
    (raw.parse().unwrap(), raw.parse().expect("a port"))
}

pub fn panics(kind: u8) {
    match kind {
        0 => panic!("no degraded path"),
        1 => todo!(),
        _ => unimplemented!(),
    }
}

#[cfg(test)]
mod tests {
    /// `allow-unwrap-in-tests` keeps this silent.
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!("7".parse::<u16>().unwrap(), 7);
    }
}
