//! Unused-suppression fixture: a well-formed `lint:allow` on a line no
//! rule flags silences nothing, so it is stale — fires the engine's
//! `suppression` finding exactly once.

// lint:allow(seed-taint) — the clock-mixed seed this excused is long gone
pub fn nothing() {}
