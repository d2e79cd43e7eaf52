//! Persistence of the simulation-results database.
//!
//! The database build is the expensive step of the pipeline, so experiments
//! can cache it on disk as JSON and reload it instead of re-characterizing
//! the suite (the paper reuses its Sniper results database across all RMA
//! experiments in the same way).

use crate::record::SimDb;
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Saves any serializable value to `path` as JSON, creating parent
/// directories as needed.
///
/// Shared by the database cache and by downstream result tables (e.g. the
/// sweep results of `experiments::sweep`), so everything the pipeline
/// persists goes through one code path. The write is atomic (see
/// [`write_atomic`]): a reader — including a later `load`/`resume` — never
/// observes a half-written file, even if the process is killed mid-save.
pub fn save_json<T: Serialize>(value: &T, path: &Path) -> Result<(), QosrmError> {
    let json = serde_json::to_string(value).map_err(|e| QosrmError::Io(e.to_string()))?;
    write_atomic(path, json.as_bytes())
}

/// [`save_json`] with the durability guarantees of [`write_atomic_durable`]:
/// the serialized bytes *and* the directory entry are fsynced before the
/// call returns. Used for crash-recovery state (streaming-run manifests and
/// shard logs) that must survive a power-cut or SIGKILL the instant the
/// writer reports completion.
pub fn save_json_durable<T: Serialize>(value: &T, path: &Path) -> Result<(), QosrmError> {
    let json = serde_json::to_string(value).map_err(|e| QosrmError::Io(e.to_string()))?;
    write_atomic_durable(path, json.as_bytes())
}

/// Distinguishes concurrent temp files of one process (the pid alone is not
/// enough when several threads save under the same directory).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces the file at `path` with `bytes`, creating parent
/// directories as needed.
///
/// The bytes are written to a unique sibling temp file which is then renamed
/// over `path` — on POSIX a rename within one directory is atomic, so a
/// crash at any point leaves either the old content, the new content, or a
/// stray `.tmp` file, never a truncated `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), QosrmError> {
    write_atomic_impl(path, bytes, false)
}

/// [`write_atomic`] plus crash durability: the temp file is fsynced before
/// the rename, and the parent directory is fsynced after it.
///
/// Plain [`write_atomic`] guarantees a reader never sees a torn file, but
/// not that the file survives a crash: the rename can be journaled before
/// the data blocks reach the disk (a zero-length or stale file after a
/// power cut), and the rename itself lives in the directory, so without a
/// directory fsync a crash immediately after "write complete" can roll the
/// whole file back. A daemon that reports a shard as durable must close
/// both windows, in order: data → fsync(file) → rename → fsync(dir).
pub fn write_atomic_durable(path: &Path, bytes: &[u8]) -> Result<(), QosrmError> {
    write_atomic_impl(path, bytes, true)
}

fn write_atomic_impl(path: &Path, bytes: &[u8], durable: bool) -> Result<(), QosrmError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| QosrmError::Io(format!("cannot write to {}: no file name", path.display())))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        if durable {
            // The data must be on stable storage *before* the rename is,
            // or a crash can journal the rename ahead of the contents.
            file.sync_all()?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        // Don't strand the temp file (e.g. a partial write on ENOSPC).
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        QosrmError::Io(format!(
            "failed to move {} into place at {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    if durable {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fsync_dir(parent)?;
            }
        }
    }
    Ok(())
}

/// Fsyncs a directory, committing its entries (renames, creations) to
/// stable storage. On Linux a directory opened read-only accepts fsync.
fn fsync_dir(dir: &Path) -> Result<(), QosrmError> {
    let handle = fs::File::open(dir)
        .map_err(|e| QosrmError::Io(format!("cannot open directory {}: {e}", dir.display())))?;
    handle
        .sync_all()
        .map_err(|e| QosrmError::Io(format!("cannot fsync directory {}: {e}", dir.display())))
}

/// Loads any deserializable value from the JSON file at `path`.
pub fn load_json<T: Deserialize>(path: &Path) -> Result<T, QosrmError> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| QosrmError::Io(e.to_string()))
}

/// Saves a database to `path` as JSON.
pub fn save(db: &SimDb, path: &Path) -> Result<(), QosrmError> {
    save_json(db, path)
}

/// Loads a database from `path`.
pub fn load(path: &Path) -> Result<SimDb, QosrmError> {
    let db: SimDb = load_json(path)?;
    db.validate()?;
    Ok(db)
}

/// Loads a cached database if `path` holds a valid one, otherwise builds it
/// with `build` (exactly once) and saves the result.
///
/// The cache only saves work, so a failed save (read-only directory, full
/// disk, a cache path under a regular file) never costs the build: the
/// database comes back together with the save outcome, for the caller to
/// report as a warning.
pub fn load_or_build(
    path: &Path,
    build: impl FnOnce() -> SimDb,
) -> (SimDb, Result<(), QosrmError>) {
    if path.exists() {
        if let Ok(db) = load(path) {
            return (db, Ok(()));
        }
        // A corrupt or stale cache falls through to a rebuild.
    }
    let db = build();
    let saved = save(&db, path);
    (db, saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_database, BuildOptions};
    use qosrm_types::PlatformConfig;
    use workload::benchmark;

    fn tiny_db() -> SimDb {
        let platform = PlatformConfig::paper2(4);
        let options = BuildOptions::quick_for_tests(&platform);
        build_database(&platform, &[benchmark("gamess_like").unwrap()], &options)
    }

    #[test]
    fn save_load_roundtrip() {
        let db = tiny_db();
        let dir = std::env::temp_dir().join("qosrm_simdb_test");
        let path = dir.join("roundtrip.json");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(db, loaded);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let path = Path::new("/definitely/not/a/real/path/db.json");
        assert!(load(path).is_err());
    }

    #[test]
    fn load_or_build_builds_once_then_caches() {
        let dir = std::env::temp_dir().join("qosrm_simdb_test");
        let path = dir.join("cache.json");
        fs::remove_file(&path).ok();
        let mut builds = 0;
        let (db1, saved) = load_or_build(&path, || {
            builds += 1;
            tiny_db()
        });
        saved.unwrap();
        assert_eq!(builds, 1);
        let (db2, saved) = load_or_build(&path, || {
            builds += 1;
            tiny_db()
        });
        saved.unwrap();
        assert_eq!(builds, 1, "second call must hit the cache");
        assert_eq!(db1, db2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_cache_save_still_builds_exactly_once() {
        let dir =
            std::env::temp_dir().join(format!("qosrm_simdb_unwritable_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // The cache directory is a regular file, so the save cannot succeed.
        let not_a_dir = dir.join("cache");
        fs::write(&not_a_dir, "a file, not a directory").unwrap();
        let mut builds = 0;
        let (db, saved) = load_or_build(&not_a_dir.join("simdb.json"), || {
            builds += 1;
            tiny_db()
        });
        assert_eq!(builds, 1);
        assert!(saved.is_err(), "saving under a regular file must fail");
        assert_eq!(db, tiny_db());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("qosrm_simdb_atomic_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.json");
        save_json(&vec![1u64, 2, 3], &path).unwrap();
        // Overwriting an existing file goes through the same temp+rename.
        save_json(&vec![4u64], &path).unwrap();
        let loaded: Vec<u64> = load_json(&path).unwrap();
        assert_eq!(loaded, vec![4]);
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_write_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("qosrm_simdb_durable_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.json");
        write_atomic_durable(&path, b"[1,2]").unwrap();
        // Overwriting goes through the same temp + fsync + rename + dirsync.
        save_json_durable(&vec![7u64], &path).unwrap();
        let loaded: Vec<u64> = load_json(&path).unwrap();
        assert_eq!(loaded, vec![7]);
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A database saved while every phase still stored its leading misses
    /// twice (an `atd_leading_misses` copy after its ATD miss curve) loads
    /// and validates: deserialization ignores the unknown key.
    #[test]
    fn databases_with_the_duplicate_leading_miss_key_still_load() {
        let db = tiny_db();
        let record = db.benchmark("gamess_like").unwrap();
        let json = serde_json::to_string(&db).unwrap();
        let mut parts = json.split("\"atd_misses_per_way\":");
        let mut old = parts.next().unwrap().to_string();
        let mut phases = record.phases.iter();
        for part in parts {
            let end = part.find(']').unwrap() + 1;
            let copy = serde_json::to_string(&phases.next().unwrap().leading_misses).unwrap();
            old += &format!(
                "\"atd_misses_per_way\":{},\"atd_leading_misses\":{copy}{}",
                &part[..end],
                &part[end..]
            );
        }
        assert!(phases.next().is_none(), "one ATD curve per phase");
        assert_eq!(
            old.matches("atd_leading_misses").count(),
            record.phases.len()
        );

        let dir = std::env::temp_dir().join(format!("qosrm_simdb_old_key_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        fs::write(&path, old).unwrap();
        assert_eq!(load(&path).unwrap(), db);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_is_rebuilt() {
        let dir = std::env::temp_dir().join("qosrm_simdb_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        fs::write(&path, "this is not json").unwrap();
        let (db, saved) = load_or_build(&path, tiny_db);
        saved.unwrap();
        assert_eq!(db.len(), 1);
        fs::remove_file(&path).ok();
    }
}
