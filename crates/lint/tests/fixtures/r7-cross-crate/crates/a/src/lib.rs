//! R7 fixture (cross-crate variant): a guard held across `b::blocking()`,
//! a free function at the root of the `b` crate this crate depends on,
//! which reaches `write_all` — fires `blocking-under-lock` exactly once,
//! at the crate-path call. `b::io::flush()` names `b`'s `io` module and
//! does not block, so the guard held across it stays silent.

pub struct Log {
    lines: Mutex<Vec<u8>>,
}

impl Log {
    pub fn flush(&self, out: &mut File) {
        let guard = self.lines.lock();
        b::io::flush(guard.len());
        b::blocking(out, guard.len());
        drop(guard);
    }
}
