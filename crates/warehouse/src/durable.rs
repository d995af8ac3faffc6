//! Crash-safe file replacement shared by every store write path.
//!
//! The stores promise that "a crash never leaves a torn sample behind", and
//! a temp-file-plus-rename alone does not deliver that: without an `fsync`
//! of the file *before* the rename, a power loss can surface the renamed
//! file with empty or partial contents, and without an `fsync` of the
//! parent directory *after* the rename, the rename itself can be lost.
//! [`atomic_write`] performs the full discipline:
//!
//! 1. write the payload to a uniquely named temp file
//!    (`<name>.<pid>.<counter>.tmp`, so concurrent saves to one key can
//!    never tear each other's temp file),
//! 2. `fsync` the temp file,
//! 3. `rename` it over the final path,
//! 4. `fsync` the parent directory.
//!
//! A crash at any point leaves either the previous file or the new one —
//! plus, at worst, an orphaned `.tmp` file that [`sweep_orphan_tmp`]
//! removes at store-open time. Files that are nevertheless corrupt (torn
//! by pre-fix writers, bit rot, truncation) are moved aside by
//! [`quarantine_file`] with a per-file reason instead of aborting loads.
//!
//! Under `cfg(test)` (or the `failpoints` feature) the [`fault`] module can
//! kill [`atomic_write`] at every step, so the crash matrix is testable
//! without actual power loss. Fault sweeps and recovery run at *open* time
//! only; sweeping a directory with in-flight writers could remove a live
//! temp file.
//!
//! Every sync is timed into `swh_store_fsync_ns` and counted into
//! `swh_store_fsync_total`; recovery and quarantine publish
//! `swh_store_recovered_tmp_total` and `swh_store_quarantined_total`, and
//! additionally record `store_recovery` / `store_quarantine` events in the
//! trace journal.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use swh_obs::journal::EventKind;
use swh_obs::trace::Op;

/// The steps of [`atomic_write`] at which an injected fault can kill the
/// write. Listed in execution order; `AfterDirSync` fires after the write
/// is fully durable (the control point of the crash matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The temp file exists but holds no payload yet.
    AfterTempCreate,
    /// Half of the payload has been written (a torn temp file).
    AfterPartialPayload,
    /// The whole payload is written but not yet synced.
    AfterPayload,
    /// Payload synced; the rename has not happened.
    BeforeRename,
    /// Renamed over the final path; the directory entry is not yet synced.
    AfterRename,
    /// Everything completed (crash immediately after the write).
    AfterDirSync,
}

/// Injectable failpoints: arm a [`CrashPoint`] on the current thread and
/// the next [`atomic_write`] that reaches it fails *at* that step, without
/// cleaning up — exactly what a crash would leave behind.
#[cfg(any(test, feature = "failpoints"))]
pub mod fault {
    use super::CrashPoint;
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<Option<CrashPoint>> = const { Cell::new(None) };
    }

    /// Arm a crash point for the current thread (one shot: it disarms when
    /// it fires).
    pub fn arm(point: CrashPoint) {
        ARMED.with(|a| a.set(Some(point)));
    }

    /// Disarm any armed crash point.
    pub fn disarm() {
        ARMED.with(|a| a.set(None));
    }

    /// True (consuming the armed point) when `point` is armed.
    pub(crate) fn fire(point: CrashPoint) -> bool {
        ARMED.with(|a| {
            if a.get() == Some(point) {
                a.set(None);
                true
            } else {
                false
            }
        })
    }
}

/// Fail with an injected-crash error when `point` is armed (no-op outside
/// test/failpoint builds).
fn crash_check(point: CrashPoint) -> io::Result<()> {
    #[cfg(any(test, feature = "failpoints"))]
    if fault::fire(point) {
        return Err(io::Error::other(format!("injected crash at {point:?}")));
    }
    #[cfg(not(any(test, feature = "failpoints")))]
    let _ = point;
    Ok(())
}

/// Cached handles to the durability metrics (resolved once per process,
/// mirroring the catalog's cached-handle pattern).
#[derive(Debug)]
struct DurableMetrics {
    fsync_ns: swh_obs::Histogram,
    fsync_total: swh_obs::Counter,
    recovered_tmp: swh_obs::Counter,
    quarantined: swh_obs::Counter,
}

fn metrics() -> &'static DurableMetrics {
    static METRICS: OnceLock<DurableMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = swh_obs::global();
        DurableMetrics {
            fsync_ns: g.histogram(
                "swh_store_fsync_ns",
                "Wall-clock nanoseconds per store fsync (file and directory)",
            ),
            fsync_total: g.counter(
                "swh_store_fsync_total",
                "Store fsync calls issued (file and directory)",
            ),
            recovered_tmp: g.counter(
                "swh_store_recovered_tmp_total",
                "Orphaned temp files removed by store-open recovery sweeps",
            ),
            quarantined: g.counter(
                "swh_store_quarantined_total",
                "Corrupt store files moved into quarantine/",
            ),
        }
    })
}

/// Process-wide counter making concurrent temp names unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Durably replace `final_path` with `bytes`: unique temp file, write,
/// `fsync(file)`, rename, `fsync(parent dir)`. The parent directory must
/// already exist. On success the new content is crash-durable; on failure
/// the previous content (if any) is still intact under `final_path`.
pub fn atomic_write(final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = final_path.parent().filter(|p| !p.as_os_str().is_empty());
    let Some(parent) = parent else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "atomic_write target has no parent directory",
        ));
    };
    let Some(name) = final_path.file_name().and_then(|n| n.to_str()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "atomic_write target has no utf-8 file name",
        ));
    };
    let tmp = parent.join(format!(
        "{name}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = fs::File::create(&tmp)?;
    crash_check(CrashPoint::AfterTempCreate)?;
    // Written in two halves purely so AfterPartialPayload models a torn
    // payload; a single write_all is not atomic either.
    let half = bytes.len() / 2;
    f.write_all(&bytes[..half])?;
    crash_check(CrashPoint::AfterPartialPayload)?;
    f.write_all(&bytes[half..])?;
    crash_check(CrashPoint::AfterPayload)?;
    timed_sync(&f)?;
    drop(f);
    crash_check(CrashPoint::BeforeRename)?;
    fs::rename(&tmp, final_path)?;
    crash_check(CrashPoint::AfterRename)?;
    sync_dir(parent)?;
    crash_check(CrashPoint::AfterDirSync)?;
    Ok(())
}

fn timed_sync(f: &fs::File) -> io::Result<()> {
    let m = metrics();
    let scope = swh_obs::profile::scope_rooted("warehouse/store/fsync").histogram(&m.fsync_ns);
    let r = f.sync_all();
    scope.end();
    m.fsync_total.inc();
    r
}

/// `fsync` a directory so a rename inside it survives a crash. On
/// platforms where directories cannot be opened/synced (non-Unix), the
/// sync is skipped — rename ordering is the best those filesystems offer.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir) {
        Ok(d) => timed_sync(&d),
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

/// Recursively remove orphaned `*.tmp` files under `root` (crash leftovers
/// from interrupted [`atomic_write`]s). Returns how many were removed; a
/// missing `root` counts as zero. Call only at store-open time, never with
/// writers in flight.
pub fn sweep_orphan_tmp(root: &Path) -> io::Result<u64> {
    let removed = sweep_tree(root)?;
    if removed > 0 {
        metrics().recovered_tmp.add(removed);
        note_recovery(removed);
    }
    Ok(removed)
}

/// Record a recovery sweep (with how many files it removed) in the journal.
fn note_recovery(removed: u64) {
    swh_obs::journal::record_span_event(Op::Recovery, EventKind::StoreRecovery, removed, 0);
}

fn sweep_tree(dir: &Path) -> io::Result<u64> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0u64;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            removed += sweep_tree(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "tmp") {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Remove orphaned temp files `<prefix>*.tmp` directly inside `dir` (for
/// single-file stores like the dataset registry, whose directory may also
/// hold other stores' live files). Returns how many were removed.
pub fn sweep_tmp_with_prefix(dir: &Path, prefix: &str) -> io::Result<u64> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0u64;
    for entry in entries {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(prefix) && name.ends_with(".tmp") {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    if removed > 0 {
        metrics().recovered_tmp.add(removed);
        note_recovery(removed);
    }
    Ok(removed)
}

/// Move a corrupt file out of the store into `<root>/quarantine/`,
/// mirroring its path relative to `root`, and drop a `<file>.reason`
/// sidecar next to it explaining why. Returns the quarantined path.
pub fn quarantine_file(root: &Path, path: &Path, reason: &str) -> io::Result<PathBuf> {
    let rel: &Path = match path.strip_prefix(root) {
        Ok(rel) => rel,
        // Not under root (shouldn't happen): fall back to the bare name.
        Err(_) => Path::new(path.file_name().unwrap_or(path.as_os_str())),
    };
    let dest = root.join("quarantine").join(rel);
    if let Some(dir) = dest.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::rename(path, &dest)?;
    let mut reason_path = dest.clone().into_os_string();
    reason_path.push(".reason");
    fs::write(PathBuf::from(reason_path), reason)?;
    metrics().quarantined.inc();
    swh_obs::journal::record(EventKind::StoreQuarantine, 0, 0, 1, 0);
    Ok(dest)
}

/// Count `*.tmp` files under `root` (recursive) — test/fsck helper for
/// asserting that recovery left nothing behind.
pub fn count_orphan_tmp(root: &Path) -> io::Result<u64> {
    let entries = match fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut found = 0u64;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            found += count_orphan_tmp(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "tmp") {
            found += 1;
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swh-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = tmp_dir("replace");
        let target = dir.join("file.bin");
        atomic_write(&target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        atomic_write(&target, b"second").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second");
        assert_eq!(count_orphan_tmp(&dir).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_before_rename_keeps_previous_content() {
        let dir = tmp_dir("pre-rename");
        let target = dir.join("file.bin");
        atomic_write(&target, b"old").unwrap();
        for point in [
            CrashPoint::AfterTempCreate,
            CrashPoint::AfterPartialPayload,
            CrashPoint::AfterPayload,
            CrashPoint::BeforeRename,
        ] {
            fault::arm(point);
            let err = atomic_write(&target, b"new").unwrap_err();
            assert!(err.to_string().contains("injected crash"), "{point:?}");
            assert_eq!(fs::read(&target).unwrap(), b"old", "{point:?}");
            // The crash leaves an orphan; recovery removes it.
            assert_eq!(count_orphan_tmp(&dir).unwrap(), 1, "{point:?}");
            assert_eq!(sweep_orphan_tmp(&dir).unwrap(), 1, "{point:?}");
            assert_eq!(count_orphan_tmp(&dir).unwrap(), 0, "{point:?}");
        }
        fault::disarm();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_rename_keeps_new_content() {
        let dir = tmp_dir("post-rename");
        let target = dir.join("file.bin");
        atomic_write(&target, b"old").unwrap();
        for point in [CrashPoint::AfterRename, CrashPoint::AfterDirSync] {
            atomic_write(&target, b"old").unwrap();
            fault::arm(point);
            assert!(atomic_write(&target, b"new").is_err(), "{point:?}");
            assert_eq!(fs::read(&target).unwrap(), b"new", "{point:?}");
            assert_eq!(count_orphan_tmp(&dir).unwrap(), 0, "{point:?}");
        }
        fault::disarm();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_moves_file_and_writes_reason() {
        let dir = tmp_dir("quarantine");
        let ds = dir.join("ds1");
        fs::create_dir_all(&ds).unwrap();
        let bad = ds.join("p0_0.swhs");
        fs::write(&bad, b"garbage").unwrap();
        let dest = quarantine_file(&dir, &bad, "checksum mismatch").unwrap();
        assert!(!bad.exists());
        assert_eq!(dest, dir.join("quarantine").join("ds1").join("p0_0.swhs"));
        assert_eq!(fs::read(&dest).unwrap(), b"garbage");
        let reason = dir.join("quarantine").join("ds1").join("p0_0.swhs.reason");
        assert_eq!(fs::read_to_string(reason).unwrap(), "checksum mismatch");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_sweep_leaves_other_files_alone() {
        let dir = tmp_dir("prefix");
        fs::write(dir.join("names.tsv.123.0.tmp"), b"x").unwrap();
        fs::write(dir.join("other.tmp"), b"x").unwrap();
        fs::write(dir.join("names.tsv"), b"x").unwrap();
        assert_eq!(sweep_tmp_with_prefix(&dir, "names.tsv.").unwrap(), 1);
        assert!(dir.join("other.tmp").exists());
        assert!(dir.join("names.tsv").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unique_temp_names_for_concurrent_writers() {
        // Many threads replacing one target concurrently: every write
        // succeeds and the survivor is one of the payloads, never torn.
        let dir = tmp_dir("concurrent");
        let target = dir.join("file.bin");
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4096]).collect();
        std::thread::scope(|scope| {
            for p in &payloads {
                let target = target.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        atomic_write(&target, p).unwrap();
                    }
                });
            }
        });
        let survivor = fs::read(&target).unwrap();
        assert!(payloads.contains(&survivor), "torn file survived");
        assert_eq!(count_orphan_tmp(&dir).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }
}
