//! A [`StorageBackend`] that counts the calls and bytes passing through
//! to the real filesystem. The store is handed one through
//! `Store::create_with` and `StoreSnapshot::open_with`, so its IO is
//! measured without changing the store.
//!
//! `FsBackend::sync_file` is a no-op, so what this measures is writes
//! into the page cache, not to a device.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use store::{FsBackend, StorageBackend};

/// Counters of a [`CountingBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoCounts {
    pub read_bytes: u64,
    pub append_calls: u64,
    /// Bytes written by `write_file` and `append_file` together.
    pub written_bytes: u64,
}

impl IoCounts {
    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            read_bytes: self.read_bytes - earlier.read_bytes,
            append_calls: self.append_calls - earlier.append_calls,
            written_bytes: self.written_bytes - earlier.written_bytes,
        }
    }
}

/// [`FsBackend`] with counters.
#[derive(Default)]
pub struct CountingBackend {
    inner: FsBackend,
    read_bytes: AtomicU64,
    append_calls: AtomicU64,
    written_bytes: AtomicU64,
}

impl CountingBackend {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            append_calls: self.append_calls.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
        }
    }
}

impl StorageBackend for CountingBackend {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read_file(path)?;
        self.read_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.written_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_calls.fetch_add(1, Ordering::Relaxed);
        self.written_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append_file(path, bytes)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate_file(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
}
