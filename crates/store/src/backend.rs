//! Storage backends: every byte the store reads or writes goes through
//! the [`StorageBackend`] trait, so the disk itself can be swapped out.
//!
//! * [`FsBackend`] — the real filesystem, exactly the IO the store always
//!   did. Its `sync_file` is a no-op: the simulator's disk model treats a
//!   completed `write_all` as durable, matching the pre-backend behavior
//!   (and keeping the hot path free of real fsync stalls).
//! * [`MemBackend`] — an in-memory filesystem that models the page-cache /
//!   platter split: writes land in a cached image, `sync_file` copies it
//!   to the durable image, and [`MemBackend::crash`] throws away whatever
//!   was never synced. This is what makes *lying fsyncs* observable.
//! * [`FaultyBackend`] — wraps any backend and injects disk faults as a
//!   pure hash of `(fault-seed, path, operation-index)`, in the style of
//!   `httpsim::fault`: torn writes, short reads, ENOSPC, lying fsyncs,
//!   single-byte bit rot, and an optional byte-level crash point. Same
//!   seed, same fault trace — pinned by test.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The disk as the store sees it. Implementations must be thread-safe:
/// the store's single appender serializes writes, but reads and metadata
/// operations may come from any thread.
pub trait StorageBackend: Send + Sync {
    /// Read a whole file. `NotFound` when it does not exist.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create or replace a whole file.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append to a file, creating it when missing.
    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Truncate (or zero-extend) a file to `len` bytes.
    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Make a file's bytes durable across a crash.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Ensure a directory (and its parents) exists.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Does a file exist at `path`?
    fn file_exists(&self, path: &Path) -> bool;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn sync_file(&self, _path: &Path) -> io::Result<()> {
        // Durability is modeled at the write_all boundary (see module
        // docs); a real fsync here would only slow the benches down.
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// One in-memory file: the cached image every operation sees, plus the
/// durable image a crash reverts to. `durable` is `None` until the first
/// sync — a file that was created but never synced vanishes on crash.
struct MemFile {
    cached: Vec<u8>,
    durable: Option<Vec<u8>>,
}

/// An in-memory filesystem with an explicit durability boundary.
#[derive(Default)]
pub struct MemBackend {
    files: Mutex<BTreeMap<PathBuf, MemFile>>,
}

impl MemBackend {
    /// Simulate a power loss: every file reverts to its last-synced
    /// image; files never synced disappear entirely.
    // lint:allow(test-only-api) — crash harness: store/tests/faults.rs and analysis/tests/diskfault.rs cut the power here
    pub fn crash(&self) {
        let mut files = self.files.lock();
        files.retain(|_, f| f.durable.is_some());
        for f in files.values_mut() {
            if let Some(durable) = &f.durable {
                f.cached = durable.clone();
            }
        }
    }

    /// Bytes of `path` as a crash would reveal them (`None` = the file
    /// would not survive). Test helper for lying-fsync assertions.
    // lint:allow(test-only-api) — crash harness: store/tests/faults.rs asserts lying-fsync and sync semantics on it
    pub fn durable_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.files.lock().get(path).and_then(|f| f.durable.clone())
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no such mem file: {}", path.display()),
        )
    }
}

impl StorageBackend for MemBackend {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .get(path)
            .map(|f| f.cached.clone())
            .ok_or_else(|| Self::not_found(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock();
        let file = files.entry(path.to_path_buf()).or_insert(MemFile {
            cached: Vec::new(),
            durable: None,
        });
        file.cached = bytes.to_vec();
        Ok(())
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock();
        let file = files.entry(path.to_path_buf()).or_insert(MemFile {
            cached: Vec::new(),
            durable: None,
        });
        file.cached.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = self.files.lock();
        let file = files.get_mut(path).ok_or_else(|| Self::not_found(path))?;
        file.cached.resize(len as usize, 0);
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut files = self.files.lock();
        let file = files.get_mut(path).ok_or_else(|| Self::not_found(path))?;
        file.durable = Some(file.cached.clone());
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(()) // directories are implicit in the path-keyed map
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.files.lock().contains_key(path)
    }
}

/// Configuration for deterministic disk-fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultConfig {
    /// Seed for the fault schedule: same seed, same faults, same trace.
    pub seed: u64,
    /// Per-operation fault probability in `[0, 1]`.
    pub rate: f64,
}

impl DiskFaultConfig {
    /// A config that injects nothing (useful with only a crash point).
    pub fn noop() -> DiskFaultConfig {
        DiskFaultConfig { seed: 0, rate: 0.0 }
    }
}

/// splitmix64 finalizer — the same mixing `httpsim::fault` uses, so a
/// structured (seed, path, op) lane still produces well-spread bits.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// FNV-1a over labeled parts plus the operation index, then mixed: every
/// fault decision is a pure function of `(seed, path, op-kind, op-index)`.
fn lane(seed: u64, kind: &str, path: &Path, op: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for part in [kind.as_bytes(), path.as_os_str().as_encoded_bytes()] {
        for &b in part {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x100000001b3);
    }
    for &b in &op.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    mix(h)
}

/// Map a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn injected(message: String) -> io::Error {
    io::Error::other(message)
}

/// A backend wrapper that injects deterministic disk faults and an
/// optional byte-level crash point. See the module docs for the fault
/// menu; [`FaultyBackend::trace`] returns the exact injection log.
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    config: DiskFaultConfig,
    /// Monotone operation index: one per backend call, feeds the lane
    /// hash so every decision is replayable.
    ops: AtomicU64,
    /// Cumulative bytes of *mutating* operations, the clock the crash
    /// point is measured on (appends/writes count their length, truncate
    /// and sync count 1) — so a crash can land mid-append, torn.
    mutated: AtomicU64,
    /// Crash once the mutation clock reaches this byte index.
    crash_at: Option<u64>,
    crashed: AtomicBool,
    trace: Mutex<Vec<String>>,
}

impl FaultyBackend {
    /// Wrap `inner` with fault injection.
    pub fn new(inner: Arc<dyn StorageBackend>, config: DiskFaultConfig) -> FaultyBackend {
        FaultyBackend::with_crash_point(inner, config, None)
    }

    /// Wrap `inner` with fault injection plus a crash point: once the
    /// cumulative mutated-byte clock reaches `crash_at`, the disk "dies" —
    /// the op in flight is torn at the crash byte (its sectors that made
    /// it are synced, like a platter keeping what it already wrote) and
    /// every later operation fails.
    pub fn with_crash_point(
        inner: Arc<dyn StorageBackend>,
        config: DiskFaultConfig,
        crash_at: Option<u64>,
    ) -> FaultyBackend {
        FaultyBackend {
            inner,
            config,
            ops: AtomicU64::new(0),
            mutated: AtomicU64::new(0),
            crash_at,
            crashed: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The injection log so far: one line per fault, in operation order.
    /// A pure function of the seed and the operation sequence.
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    /// Total bytes on the mutation clock — run a schedule once with no
    /// crash point to learn how many crash points it exposes.
    // lint:allow(test-only-api) — crash harness: the every-byte crash sweeps in store/tests/faults.rs and analysis/tests/diskfault.rs size their loops on it
    pub fn mutated_bytes(&self) -> u64 {
        self.mutated.load(Ordering::Relaxed)
    }

    fn record(&self, event: String) {
        self.trace.lock().push(event);
    }

    fn dead(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(injected("disk crashed (simulated)".to_string()));
        }
        Ok(())
    }

    /// Advance the mutation clock by `cost`; when the crash point falls
    /// inside this window, return how many bytes of the operation still
    /// complete before the disk dies.
    fn advance(&self, cost: u64) -> Result<(), u64> {
        let start = self.mutated.fetch_add(cost, Ordering::AcqRel);
        if let Some(at) = self.crash_at {
            if start < at && at <= start + cost {
                // The crash hits while byte `at` is in flight: the bytes
                // strictly before it completed, that byte and the rest
                // did not.
                self.crashed.store(true, Ordering::Release);
                return Err(at - start - 1);
            }
            if start >= at {
                self.crashed.store(true, Ordering::Release);
                return Err(0);
            }
        }
        Ok(())
    }

    /// Roll the fault die for one operation. Returns the lane hash to
    /// derive fault parameters from when a fault fires.
    fn decide(&self, kind: &str, path: &Path) -> Option<u64> {
        let op = self.ops.fetch_add(1, Ordering::AcqRel);
        if self.config.rate <= 0.0 {
            return None;
        }
        let h = lane(self.config.seed, kind, path, op);
        (unit(h) < self.config.rate).then(|| mix(h ^ 0x9e3779b97f4a7c15))
    }
}

impl StorageBackend for FaultyBackend {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.dead()?;
        let fault = self.decide("read", path);
        let bytes = self.inner.read_file(path)?;
        match fault {
            Some(h) if !bytes.is_empty() => {
                // Short read: silently return a prefix — the nastiest
                // variant, because nothing errors. Downstream hash checks
                // must catch what this drops.
                let keep = (h % bytes.len() as u64) as usize;
                self.record(format!(
                    "short-read path={} kept={keep}/{}",
                    path.display(),
                    bytes.len()
                ));
                Ok(bytes[..keep].to_vec())
            }
            _ => Ok(bytes),
        }
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.dead()?;
        let cost = (bytes.len() as u64).max(1);
        if let Err(done) = self.advance(cost) {
            let keep = (done as usize).min(bytes.len());
            // lint:allow(r11) — fault injection: the torn prefix lands best-effort, the crash is the point
            let _ = self.inner.write_file(path, &bytes[..keep]);
            // lint:allow(r11) — fault injection: syncing the torn prefix is best-effort by design
            let _ = self.inner.sync_file(path);
            self.record(format!(
                "crash path={} during=write wrote={keep}/{}",
                path.display(),
                bytes.len()
            ));
            return Err(injected("disk crashed mid-write (simulated)".to_string()));
        }
        if self.decide("write", path).is_some() {
            // Whole-file writes fail atomically (ENOSPC before any byte
            // lands) — torn variants live on the append path.
            self.record(format!("enospc path={} op=write", path.display()));
            return Err(injected("injected ENOSPC (write_file)".to_string()));
        }
        self.inner.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.dead()?;
        let cost = (bytes.len() as u64).max(1);
        if let Err(done) = self.advance(cost) {
            // The crash lands mid-append: the sectors already handed to
            // the platter survive (synced), the rest never happened.
            let keep = (done as usize).min(bytes.len());
            // lint:allow(r11) — fault injection: the surviving sectors land best-effort, the crash is the point
            let _ = self.inner.append_file(path, &bytes[..keep]);
            // lint:allow(r11) — fault injection: syncing the surviving sectors is best-effort by design
            let _ = self.inner.sync_file(path);
            self.record(format!(
                "crash path={} during=append wrote={keep}/{}",
                path.display(),
                bytes.len()
            ));
            return Err(injected("disk crashed mid-append (simulated)".to_string()));
        }
        match self.decide("append", path) {
            None => self.inner.append_file(path, bytes),
            Some(h) => match h % 3 {
                0 if !bytes.is_empty() => {
                    // Torn write: a prefix lands, then the error surfaces.
                    let keep = ((mix(h) % bytes.len() as u64) as usize).min(bytes.len() - 1);
                    self.record(format!(
                        "torn-write path={} wrote={keep}/{}",
                        path.display(),
                        bytes.len()
                    ));
                    self.inner.append_file(path, &bytes[..keep])?;
                    Err(injected("injected torn write".to_string()))
                }
                1 if !bytes.is_empty() => {
                    // Single-byte bit rot: the append "succeeds" but one
                    // bit is flipped on the way down. Silent.
                    let idx = (mix(h ^ 1) % bytes.len() as u64) as usize;
                    let bit = (mix(h ^ 2) % 8) as u8;
                    let mut rotted = bytes.to_vec();
                    rotted[idx] ^= 1 << bit;
                    self.record(format!(
                        "bit-rot path={} byte={idx} bit={bit}",
                        path.display()
                    ));
                    self.inner.append_file(path, &rotted)
                }
                _ => {
                    self.record(format!("enospc path={} op=append", path.display()));
                    Err(injected("injected ENOSPC (append_file)".to_string()))
                }
            },
        }
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        self.dead()?;
        if let Err(_done) = self.advance(1) {
            self.record(format!("crash path={} during=truncate", path.display()));
            return Err(injected(
                "disk crashed mid-truncate (simulated)".to_string(),
            ));
        }
        if self.decide("truncate", path).is_some() {
            self.record(format!("truncate-fail path={}", path.display()));
            return Err(injected("injected truncate failure".to_string()));
        }
        self.inner.truncate_file(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.dead()?;
        if let Err(_done) = self.advance(1) {
            self.record(format!("crash path={} during=sync", path.display()));
            return Err(injected("disk crashed mid-sync (simulated)".to_string()));
        }
        if self.decide("sync", path).is_some() {
            // The lying fsync: report success, sync nothing. Only a later
            // crash can reveal the difference.
            self.record(format!("lying-fsync path={}", path.display()));
            return Ok(());
        }
        self.inner.sync_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.dead()?;
        self.inner.create_dir_all(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
}
