//! Fault injection: labeled crash points and a disk fault shim.
//!
//! Three orthogonal mechanisms validate the durability layer:
//!
//! * **Crash points** — `crash_point!("wal.pre_sync")` marks a spot where a
//!   process death would be maximally inconvenient. The marker compiles to
//!   nothing unless the using crate enables its `crash_points` feature; an
//!   armed build aborts the process (no destructors — indistinguishable
//!   from SIGKILL) when the environment selects that label:
//!   `SORDF_CRASH_POINT=<label>` picks the point and the optional
//!   `SORDF_CRASH_HITS=<n>` aborts on the n-th hit instead of the first.
//!
//! * **I/O failure points** — `io_fault!("wal.sync", path)` marks a write or
//!   fsync that can be told to fail: [`arm_io_fault`] arms one failure for
//!   the files under one directory, so a test can watch a write be rejected
//!   when the disk is full or an fsync fails. Compiled in by the same
//!   feature.
//!
//! * **[`DiskFault`]** — a shim the [`DiskManager`](crate::DiskManager)
//!   consults on every page transfer while installed, able to fail reads
//!   transiently, tear a write mid-page, or truncate single transfers to
//!   exercise the short-write retry loops. Always compiled (it is plain
//!   runtime state), costs one relaxed atomic load when disarmed.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::disk::PageId;

/// Abort the process if the environment arms the named crash point. Called
/// through [`crash_point!`](crate::crash_point) — which compiles the call
/// out entirely unless the using crate's `crash_points` feature is on —
/// never directly.
pub fn maybe_crash(name: &str) {
    static HITS: AtomicU64 = AtomicU64::new(0);
    if std::env::var("SORDF_CRASH_POINT").as_deref() != Ok(name) {
        return;
    }
    let target: u64 = std::env::var("SORDF_CRASH_HITS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // ordering: Relaxed — a per-process hit counter for one armed label;
    // only fetch_add's atomicity matters.
    if HITS.fetch_add(1, Ordering::Relaxed) + 1 >= target {
        eprintln!("sordf: crash point {name:?} armed — aborting");
        std::process::abort();
    }
}

/// Mark a labeled crash point. Expands to a [`maybe_crash`] call only when
/// the **using** crate enables its `crash_points` feature (each crate
/// forwards the feature down to `sordf-columnar`); otherwise it compiles
/// to nothing, keeping production write paths branch-free.
#[macro_export]
macro_rules! crash_point {
    ($name:literal) => {
        #[cfg(feature = "crash_points")]
        $crate::fault::maybe_crash($name);
    };
}

/// One armed I/O failure: the `nth` hit of `label` on a file under `under`.
struct IoFault {
    under: PathBuf,
    label: String,
    raw_os_error: i32,
    nth: u32,
}

/// The armed failures. Each names the directory it applies to, so tests
/// running in parallel — every one in a directory of its own — cannot trip
/// each other's faults, while a fault still reaches whichever thread does
/// the I/O (the rebuild streams its snapshot on a helper thread).
static IO_FAULTS: Mutex<Vec<IoFault>> = Mutex::new(Vec::new());

/// Arm one I/O failure: the `nth` (1-based) time an `io_fault!(label, path)`
/// marker is passed with a `path` under the directory `under`, the marked
/// operation fails with `raw_os_error` (`ENOSPC` is 28, `EIO` 5) instead of
/// running — once; the fault then disarms itself. Effective only in builds
/// with the `crash_points` feature, which compiles the markers in.
pub fn arm_io_fault(under: &Path, label: &str, raw_os_error: i32, nth: u32) {
    IO_FAULTS.lock().push(IoFault {
        under: under.to_path_buf(),
        label: label.to_string(),
        raw_os_error,
        nth: nth.max(1),
    });
}

/// Fail if a fault armed for `name` covers `path` and this is the hit it
/// chose. Called through [`io_fault!`](crate::io_fault), never directly.
pub fn maybe_fail(name: &str, path: &Path) -> io::Result<()> {
    let mut faults = IO_FAULTS.lock();
    let Some(i) = faults
        .iter()
        .position(|f| f.label == name && path.starts_with(&f.under))
    else {
        return Ok(());
    };
    faults[i].nth -= 1;
    if faults[i].nth > 0 {
        return Ok(());
    }
    Err(io::Error::from_raw_os_error(faults.remove(i).raw_os_error))
}

/// Mark a labeled I/O failure point just before a write or fsync of the
/// file at `path` on a durable path: expands to `maybe_fail(label, path)?`
/// when the **using** crate enables its `crash_points` feature, to nothing
/// otherwise. Where a crash point asks "what if the process died here",
/// this asks "what if the disk said no" — `ENOSPC` on an append, `EIO` from
/// an fsync.
#[macro_export]
macro_rules! io_fault {
    ($name:literal, $path:expr) => {
        #[cfg(feature = "crash_points")]
        $crate::fault::maybe_fail($name, $path)?;
        #[cfg(not(feature = "crash_points"))]
        let _ = $path;
    };
}

/// What an injected write fault does to the current transfer.
#[derive(Debug, Clone, Copy)]
pub enum WriteFault {
    /// Fail without transferring anything (e.g. a transient `EIO`).
    Error(io::ErrorKind),
    /// Persist only the first `bytes` of the remaining buffer, then fail —
    /// the on-disk image is torn, as after a mid-write crash.
    Torn { bytes: usize, kind: io::ErrorKind },
    /// Let the transfer succeed but move at most `n` bytes, forcing the
    /// caller's short-write loop to go around again.
    Short(usize),
}

/// A disk fault shim: consulted by [`DiskManager`](crate::DiskManager) on
/// every page transfer while installed via `set_fault`.
pub trait DiskFault: Send + Sync {
    /// Fault to inject for a page read, or `None` to let it through.
    fn read_fault(&self, _id: PageId) -> Option<io::ErrorKind> {
        None
    }
    /// Fault to inject for a page write, or `None` to let it through.
    fn write_fault(&self, _id: PageId) -> Option<WriteFault> {
        None
    }
}

/// A budgeted [`DiskFault`]: injects its configured fault for the first
/// `budget` transfers (any page), then lets everything through. Covers the
/// common test shapes — N failing reads, persistently short writes, one
/// torn write — without each test hand-rolling a shim.
pub struct CountingFault {
    budget: AtomicU64,
    on_read: Option<io::ErrorKind>,
    on_write: Option<WriteFault>,
}

impl CountingFault {
    fn with_budget(
        budget: u64,
        on_read: Option<io::ErrorKind>,
        on_write: Option<WriteFault>,
    ) -> CountingFault {
        CountingFault {
            budget: AtomicU64::new(budget),
            on_read,
            on_write,
        }
    }

    /// Fail the next `n` page reads with `kind`.
    pub fn fail_reads(n: u64, kind: io::ErrorKind) -> CountingFault {
        CountingFault::with_budget(n, Some(kind), None)
    }

    /// Fail the next `n` page writes with `kind` (nothing transferred).
    pub fn fail_writes(n: u64, kind: io::ErrorKind) -> CountingFault {
        CountingFault::with_budget(n, None, Some(WriteFault::Error(kind)))
    }

    /// Cap every write transfer at `n` bytes (unlimited budget): each
    /// syscall succeeds short, exercising the retry loop.
    pub fn short_writes(n: usize) -> CountingFault {
        CountingFault::with_budget(u64::MAX, None, Some(WriteFault::Short(n)))
    }

    /// Tear the next `n` writes: persist `bytes`, then fail with `kind`.
    pub fn torn_writes(n: u64, bytes: usize, kind: io::ErrorKind) -> CountingFault {
        CountingFault::with_budget(n, None, Some(WriteFault::Torn { bytes, kind }))
    }

    fn take(&self) -> bool {
        // ordering: Relaxed — a test-only budget counter; only the
        // fetch_update's atomicity matters.
        self.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }
}

impl DiskFault for CountingFault {
    fn read_fault(&self, _id: PageId) -> Option<io::ErrorKind> {
        match self.on_read {
            Some(kind) if self.take() => Some(kind),
            _ => None,
        }
    }

    fn write_fault(&self, _id: PageId) -> Option<WriteFault> {
        match self.on_write {
            Some(f) if self.take() => Some(f),
            _ => None,
        }
    }
}
