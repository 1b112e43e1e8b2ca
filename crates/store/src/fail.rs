//! Deterministic crash injection for the durability test suite.
//!
//! Every *write-side* filesystem operation in this crate (file creates,
//! appends, syncs, renames, truncations, deletions) funnels through the
//! guarded helpers below. In normal operation the guard is a single
//! relaxed atomic load — effectively free. When a test arms the
//! failpoint with [`arm`], the Nth subsequent operation (and every
//! operation after it) fails with an injected `io::Error`, simulating a
//! process that died at exactly that write boundary: everything before
//! the boundary is on disk, nothing after it ever happens. In *torn*
//! mode the fatal write additionally lands a half-written prefix first,
//! modelling a torn page at the crash point.
//!
//! The state is process-global, so crash tests must serialize themselves
//! (see `tests/crash.rs`, which takes a shared mutex; CI additionally
//! runs the suite with `--test-threads=1`).

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Whether the failpoint is armed: from [`arm`] until [`disarm`].
static ARMED: AtomicBool = AtomicBool::new(false);
/// The guarded operations still allowed to succeed before injection
/// begins; zero or below once it has.
static COUNTDOWN: AtomicI64 = AtomicI64::new(-1);
/// Guarded operations observed since the last [`arm`]/[`disarm`].
static OPS: AtomicU64 = AtomicU64::new(0);
/// Whether the fatal write should land a torn (half-length) prefix.
static TORN: AtomicBool = AtomicBool::new(false);

/// Arms the failpoint: the next `allow` guarded operations succeed, and
/// every operation after them fails. `torn` makes the first failing
/// *data write* leave half its bytes behind, like a torn page.
pub fn arm(allow: u64, torn: bool) {
    OPS.store(0, Ordering::SeqCst);
    TORN.store(torn, Ordering::SeqCst);
    COUNTDOWN.store(allow as i64, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the failpoint and resets the operation counter.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    COUNTDOWN.store(-1, Ordering::SeqCst);
    TORN.store(false, Ordering::SeqCst);
    OPS.store(0, Ordering::SeqCst);
}

/// Guarded operations observed since the last [`arm`]/[`disarm`]. A
/// crash matrix runs its workload once disarmed to learn the boundary
/// count, then replays it armed at every boundary in `0..ops()`.
pub fn ops() -> u64 {
    OPS.load(Ordering::SeqCst)
}

fn injected() -> io::Error {
    io::Error::other("injected crash (store failpoint)")
}

/// Counts one write boundary; `Err` when the armed crash point has been
/// reached. `true` in `Ok(_)`/the error distinguishes the *first* failing
/// op (where a torn prefix may land) from the already-dead tail.
fn hit() -> Result<(), bool> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    OPS.fetch_add(1, Ordering::SeqCst);
    let left = COUNTDOWN.fetch_sub(1, Ordering::SeqCst);
    if left > 0 {
        Ok(())
    } else {
        // left == 0 is the crash op itself; anything below is the dead
        // process issuing I/O that can never happen.
        Err(left == 0)
    }
}

fn check() -> io::Result<()> {
    hit().map_err(|_| injected())
}

/// Guarded `File::create`.
pub(crate) fn create(path: &Path) -> io::Result<File> {
    check()?;
    File::create(path)
}

/// Guarded `write_all`: on the crash op in torn mode, half the buffer
/// lands before the failure — a torn record for replay to detect.
pub(crate) fn write_all(w: &mut impl Write, buf: &[u8]) -> io::Result<()> {
    match hit() {
        Ok(()) => w.write_all(buf),
        Err(first) => {
            if first && TORN.load(Ordering::SeqCst) && buf.len() > 1 {
                let _ = w.write_all(&buf[..buf.len() / 2]);
                let _ = w.flush();
            }
            Err(injected())
        }
    }
}

/// Guarded `File::sync_data`.
pub(crate) fn sync_data(f: &File) -> io::Result<()> {
    check()?;
    f.sync_data()
}

/// Guarded `File::sync_all`.
pub(crate) fn sync_all(f: &File) -> io::Result<()> {
    check()?;
    f.sync_all()
}

/// Guarded `fs::rename`.
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    check()?;
    std::fs::rename(from, to)
}

/// Guarded `File::set_len` (torn-tail truncation during recovery).
pub(crate) fn set_len(f: &File, len: u64) -> io::Result<()> {
    check()?;
    f.set_len(len)
}

/// Guarded `fs::remove_file`. Removal of dead files is best-effort in
/// the callers, but it still counts as a boundary so a crash can land
/// between a manifest swap and the garbage collection that follows it.
pub(crate) fn remove_file(path: &Path) -> io::Result<()> {
    check()?;
    std::fs::remove_file(path)
}

/// Guarded directory fsync (unix); a no-op elsewhere, where directory
/// entries cannot be synced separately.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    check()?;
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}
