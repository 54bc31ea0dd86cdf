//! Point-in-time recovery: rebuild the database as of a chosen LSN from
//! a WAL-archived source directory.
//!
//! A primary with [`StorageEngine::enable_wal_archive`] on keeps every
//! rotated log frame in `wal-archive/` segments, so its full history —
//! from the archive seed (catalog snapshot plus full page images) to
//! the live log — stays replayable. [`restore_to_lsn`] copies the
//! prefix of that history below a target LSN into a fresh directory as
//! a synthesized log; opening the destination then runs ordinary crash
//! recovery, which folds the prefix into pages exactly as if the
//! machine had crashed at that LSN. A cut landing inside a transaction
//! therefore gets crash semantics: the incomplete transaction is undone.

use crate::error::{ReplError, Result};
use mdm_storage::{StorageEngine, Wal, WalRecord};
use std::path::Path;

/// Synthesizes, in `dest`, a database whose state is the `src` history
/// restored up to (excluding) `lsn`. Returns the restore point: the
/// next LSN the destination would append, i.e. one past the last record
/// restored. Pass `u64::MAX` to restore everything archived.
///
/// `dest` must be empty (or absent); `src` must either retain its full
/// history in the live log or have archive mode enabled early enough
/// that a catalog-snapshot seed precedes the cut.
pub fn restore_to_lsn(src: &Path, dest: &Path, lsn: u64) -> Result<u64> {
    if src == dest {
        return Err(ReplError::Protocol(
            "restore source and destination are the same directory".into(),
        ));
    }
    std::fs::create_dir_all(dest)?;
    if std::fs::read_dir(dest)?.next().is_some() {
        return Err(ReplError::Protocol(format!(
            "restore destination {} is not empty",
            dest.display()
        )));
    }
    let mut base = None;
    let mut records = Vec::new();
    let mut last = 0u64;
    for item in Wal::read_dir_from(src, 0)? {
        let (l, rec) = item?;
        if l >= lsn {
            break;
        }
        if base.is_none() {
            base = Some(l);
        }
        last = l;
        records.push(rec);
    }
    let Some(base) = base else {
        return Err(ReplError::Protocol(format!(
            "no replayable history below lsn {lsn} in {}",
            src.display()
        )));
    };
    // A history that does not start at LSN 0 leans on an archive seed:
    // records folded away before archiving exist only in the seed's
    // catalog snapshot and page images. Without one the prefix cannot
    // rebuild the pages it assumes.
    if base > 0
        && !records
            .iter()
            .any(|r| matches!(r, WalRecord::CatalogSnapshot { .. }))
    {
        return Err(ReplError::Protocol(format!(
            "history starts at lsn {base} with no catalog-snapshot seed below the cut; \
             enable archive mode on the source before the state you want back"
        )));
    }
    Wal::write_log(dest, base, &records)?;
    Ok(last + 1)
}

/// Restores as [`restore_to_lsn`] and opens the result, running the
/// recovery fold. Convenience for callers that want the engine back.
pub fn restore_and_open(src: &Path, dest: &Path, lsn: u64) -> Result<(StorageEngine, u64)> {
    let point = restore_to_lsn(src, dest, lsn)?;
    let engine = StorageEngine::open(dest)?;
    Ok((engine, point))
}
