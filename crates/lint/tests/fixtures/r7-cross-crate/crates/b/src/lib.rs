//! The blocking helper crate `a` calls through its crate path.

pub mod io;

pub fn blocking(out: &mut File, n: usize) {
    // The result is consumed so only R7 fires on this tree (R11 has its
    // own fixture).
    if out.write_all(&[n as u8]).is_err() {
        io::flush(n);
    }
}
