//! A counting global allocator for the traced run.
//!
//! It is installed for the whole benchmark binary but counts nothing
//! until [`enable`] is called, which only the traced run does; a timed
//! run pays one relaxed atomic load per allocation. Counts are kept per
//! thread, so a span reads the calling thread's counters when it opens
//! and closes, and everything allocated in between (by that thread) is
//! attributed to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Delegates to [`System`], counting calls and requested bytes.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` because an allocation can happen while the thread's
        // locals are being torn down.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting (process-wide, for the rest of the run).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// The calling thread's `(allocation calls, bytes requested)` so far.
pub fn thread_counts() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}
