//! Suppression fixture: a `lint:allow` with no reason is itself an error
//! — fires the engine's `suppression` finding exactly once. The directive
//! sits on a clean line so no other rule fires.

// lint:allow(seed-taint)
pub fn nothing() {}
