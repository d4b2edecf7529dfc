//! R8 fixture: RNG seed state mixed with an ambient wall-clock value
//! that flows through a helper and two `let` bindings — fires
//! `seed-taint` exactly once at the `seed_from_u64` sink.

use std::time::SystemTime;

fn jitter() -> u64 {
    SystemTime::now().elapsed_nanos()
}

pub fn rng(seed: u64) -> ChaCha8Rng {
    let lane = jitter();
    let mixed = seed ^ lane;
    ChaCha8Rng::seed_from_u64(mixed)
}
