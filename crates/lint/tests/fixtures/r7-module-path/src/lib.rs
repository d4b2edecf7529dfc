//! R7 fixture (module-path variant): a guard held across `m::blocking()`,
//! a free function of this crate's `m` module that reaches `write_all` —
//! fires `blocking-under-lock` exactly once, at the module-path call.

mod m;

pub struct Log {
    lines: Mutex<Vec<u8>>,
}

impl Log {
    pub fn flush(&self, out: &mut File) {
        let guard = self.lines.lock();
        m::blocking(out, guard.len());
        drop(guard);
    }
}
