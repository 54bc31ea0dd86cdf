//! The write-ahead log.
//!
//! Every mutation is logged before commit; the log is the source of truth
//! for crash recovery. Records are framed as
//! `[len: u32][checksum: u32][payload: len bytes]`; a truncated or
//! checksum-failing frame ends replay (torn-write tolerance). A frame
//! whose checksum matches but whose payload does not decode is
//! corruption, not a torn tail, and every reader refuses it.
//!
//! Durability contract: the log file is `fsync`ed on [`Wal::sync`], which
//! the engine calls at every commit and before flushing data pages. Dirty
//! data pages evicted between commits are written without an extra sync;
//! recovery replays from the last checkpoint, so process crashes are always
//! recovered exactly and OS crashes are recovered up to the last log sync.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{FileVfs, StorageBackend, Vfs};
use crate::error::{Result, StorageError};
use crate::page::{PageId, Rid};

/// Transaction identifier: monotonically increasing, never reused for the
/// life of a data directory.
pub type TxnId = u64;

/// Table identifier as recorded in the catalog.
pub type TableId = u32;

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin { txn: TxnId },
    /// Transaction commit; everything logged for `txn` is now durable.
    Commit { txn: TxnId },
    /// Transaction abort; its effects were rolled back in place.
    Abort { txn: TxnId },
    /// A record insert.
    Insert {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        body: Vec<u8>,
    },
    /// A record update, with before- and after-images.
    Update {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    /// A record delete, with the before-image.
    Delete {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        old: Vec<u8>,
    },
    /// Structural: a heap file grew by linking `new_page` after `from_page`.
    /// Redo-only; never undone (an extra empty page is harmless).
    LinkPage {
        table: TableId,
        from_page: PageId,
        new_page: PageId,
    },
    /// Structural: full serialized catalog after a DDL change. Latest wins.
    CatalogSnapshot { bytes: Vec<u8> },
    /// Structural: a full image of a page, logged (and synced) before the
    /// page is rewritten in place. A torn in-place write can interleave
    /// two generations of a page whose older rows predate the log's last
    /// checkpoint; replaying the image restores the page wholesale, the
    /// way Postgres full-page writes and the InnoDB doublewrite buffer
    /// do. Redo-only; never undone.
    PageImage { page: PageId, bytes: Vec<u8> },
    /// Structural: everything before this record has been folded into the
    /// data pages and the log is about to rotate. A no-op for local
    /// recovery (the wildcard redo arm skips it); replicas use it as the
    /// signal that the stream up to here is checkpoint-consistent and can
    /// be folded into their own pages and their local log rotated.
    Checkpoint,
}

impl WalRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Commit { txn }
            | WalRecord::Abort { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. } => Some(*txn),
            WalRecord::LinkPage { .. }
            | WalRecord::CatalogSnapshot { .. }
            | WalRecord::PageImage { .. }
            | WalRecord::Checkpoint => None,
        }
    }

    /// Serializes the record payload (no frame header) into `out`.
    /// Public so replication can ship the exact on-disk encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        fn put_rid(out: &mut Vec<u8>, rid: Rid) {
            out.extend_from_slice(&rid.page.to_le_bytes());
            out.extend_from_slice(&rid.slot.to_le_bytes());
        }
        match self {
            WalRecord::Begin { txn } => {
                out.push(1);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Commit { txn } => {
                out.push(2);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Abort { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Insert {
                txn,
                table,
                rid,
                body,
            } => {
                out.push(4);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                put_rid(out, *rid);
                put_bytes(out, body);
            }
            WalRecord::Update {
                txn,
                table,
                rid,
                old,
                new,
            } => {
                out.push(5);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                put_rid(out, *rid);
                put_bytes(out, old);
                put_bytes(out, new);
            }
            WalRecord::Delete {
                txn,
                table,
                rid,
                old,
            } => {
                out.push(6);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                put_rid(out, *rid);
                put_bytes(out, old);
            }
            WalRecord::LinkPage {
                table,
                from_page,
                new_page,
            } => {
                out.push(7);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&from_page.to_le_bytes());
                out.extend_from_slice(&new_page.to_le_bytes());
            }
            WalRecord::CatalogSnapshot { bytes } => {
                out.push(8);
                put_bytes(out, bytes);
            }
            WalRecord::PageImage { page, bytes } => {
                out.push(9);
                out.extend_from_slice(&page.to_le_bytes());
                put_bytes(out, bytes);
            }
            // Tags 10 and 11 (index-entry records) are retired: never
            // reuse them, so a log still holding one is refused.
            WalRecord::Checkpoint => {
                out.push(12);
            }
        }
    }

    /// Decodes one record payload. Public counterpart of
    /// [`WalRecord::encode`] for replication consumers.
    pub fn decode(buf: &[u8]) -> Option<WalRecord> {
        struct Cursor<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> Cursor<'a> {
            fn u8(&mut self) -> Option<u8> {
                let v = *self.buf.get(self.pos)?;
                self.pos += 1;
                Some(v)
            }
            fn u16(&mut self) -> Option<u16> {
                let b = self.buf.get(self.pos..self.pos + 2)?;
                self.pos += 2;
                Some(u16::from_le_bytes(b.try_into().ok()?))
            }
            fn u32(&mut self) -> Option<u32> {
                let b = self.buf.get(self.pos..self.pos + 4)?;
                self.pos += 4;
                Some(u32::from_le_bytes(b.try_into().ok()?))
            }
            fn u64(&mut self) -> Option<u64> {
                let b = self.buf.get(self.pos..self.pos + 8)?;
                self.pos += 8;
                Some(u64::from_le_bytes(b.try_into().ok()?))
            }
            fn bytes(&mut self) -> Option<Vec<u8>> {
                let len = self.u32()? as usize;
                let b = self.buf.get(self.pos..self.pos + len)?;
                self.pos += len;
                Some(b.to_vec())
            }
            fn rid(&mut self) -> Option<Rid> {
                Some(Rid::new(self.u64()?, self.u16()?))
            }
        }
        let mut c = Cursor { buf, pos: 0 };
        let rec = match c.u8()? {
            1 => WalRecord::Begin { txn: c.u64()? },
            2 => WalRecord::Commit { txn: c.u64()? },
            3 => WalRecord::Abort { txn: c.u64()? },
            4 => WalRecord::Insert {
                txn: c.u64()?,
                table: c.u32()?,
                rid: c.rid()?,
                body: c.bytes()?,
            },
            5 => WalRecord::Update {
                txn: c.u64()?,
                table: c.u32()?,
                rid: c.rid()?,
                old: c.bytes()?,
                new: c.bytes()?,
            },
            6 => WalRecord::Delete {
                txn: c.u64()?,
                table: c.u32()?,
                rid: c.rid()?,
                old: c.bytes()?,
            },
            7 => WalRecord::LinkPage {
                table: c.u32()?,
                from_page: c.u64()?,
                new_page: c.u64()?,
            },
            8 => WalRecord::CatalogSnapshot { bytes: c.bytes()? },
            9 => WalRecord::PageImage {
                page: c.u64()?,
                bytes: c.bytes()?,
            },
            12 => WalRecord::Checkpoint,
            _ => return None,
        };
        (c.pos == buf.len()).then_some(rec)
    }
}

/// FNV-1a, used as the frame checksum.
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Parses every valid frame in `buf`, whose first frame has sequence
/// number `base_lsn`. Returns the decoded records, the byte offset at
/// which each frame starts, and the offset where valid data ends (the
/// first torn or checksum-failing frame, or end of buffer). A frame
/// whose checksum matches but whose payload does not decode is no torn
/// tail — the bytes are what was written — so it is
/// [`StorageError::Corrupt`], naming the frame's sequence number:
/// stopping there would silently drop every committed record after it.
fn parse_frames(buf: &[u8], base_lsn: u64) -> Result<(Vec<WalRecord>, Vec<usize>, usize)> {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos: usize = 0;
    while pos + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= buf.len() => e,
            _ => break, // torn tail
        };
        let payload = &buf[start..end];
        if checksum(payload) != sum {
            break;
        }
        let rec = WalRecord::decode(payload).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "log frame at lsn {} verifies but does not decode",
                base_lsn + records.len() as u64
            ))
        })?;
        records.push(rec);
        offsets.push(pos);
        pos = end;
    }
    Ok((records, offsets, pos))
}

/// Reads a little-endian u64 sidecar file, defaulting to 0 when absent
/// or malformed. Sidecars hold log-sequence watermarks; they are written
/// with [`write_u64_sidecar`]'s write-fsync-rename dance so a reader
/// never observes a half-written value.
fn read_u64_sidecar(path: &Path) -> u64 {
    std::fs::read(path)
        .ok()
        .and_then(|b| {
            b.get(..8)
                .map(|x| u64::from_le_bytes(x.try_into().unwrap()))
        })
        .unwrap_or(0)
}

fn write_u64_sidecar(path: &Path, v: u64) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, v.to_le_bytes())?;
    File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Name of an archive segment whose first record has sequence `start`.
fn segment_name(start: u64) -> String {
    format!("seg-{start:016x}.log")
}

/// Iterator over `(lsn, record)` pairs from archive segments and the
/// live log, produced by [`Wal::read_from`]. Files are parsed lazily,
/// one at a time; records below the cursor (duplicates from a crash
/// between archiving and truncation) are skipped, so the yielded LSNs
/// are strictly increasing. A file holding a frame that verifies but
/// does not decode yields one [`StorageError::Corrupt`] and ends the
/// iteration.
pub struct WalRangeIter {
    files: std::vec::IntoIter<(u64, PathBuf)>,
    current: std::vec::IntoIter<(u64, WalRecord)>,
    cursor: u64,
}

impl Iterator for WalRangeIter {
    type Item = Result<(u64, WalRecord)>;

    fn next(&mut self) -> Option<Result<(u64, WalRecord)>> {
        loop {
            if let Some((lsn, rec)) = self.current.next() {
                if lsn >= self.cursor {
                    self.cursor = lsn + 1;
                    return Some(Ok((lsn, rec)));
                }
                continue;
            }
            let (start, path) = self.files.next()?;
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue, // absent live log or vanished segment
            };
            let records = match parse_frames(&bytes, start) {
                Ok((records, _, _)) => records,
                Err(e) => {
                    self.files = Vec::new().into_iter();
                    return Some(Err(e));
                }
            };
            self.current = records
                .into_iter()
                .enumerate()
                .map(|(i, r)| (start + i as u64, r))
                .collect::<Vec<_>>()
                .into_iter();
        }
    }
}

/// Append-only log writer over `wal.log`.
///
/// Frames are buffered in memory and written to the backend at the
/// current append offset on flush. A failed flush leaves the buffer (and
/// the append offset) untouched, so a retry rewrites the whole buffer at
/// the same position — positioned writes make the retry overwrite any
/// partial data the failed attempt left behind.
pub struct Wal {
    backend: Arc<dyn StorageBackend>,
    /// Encoded frames not yet handed to the OS.
    buf: Vec<u8>,
    /// Append offset: length of the file as of the last successful flush.
    file_len: u64,
    path: PathBuf,
    dir: PathBuf,
    appended: u64,
    /// LSN (global record index for this database) of the first record
    /// in the live log. Persisted in the `wal.base` sidecar so record
    /// numbering survives log rotation.
    base_lsn: u64,
    /// LSN the next appended record will receive.
    next_lsn: u64,
    /// Archive directory (`<dir>/wal-archive`), when archive mode is on.
    /// Rotation then copies outgoing frames into immutable segments
    /// instead of discarding them, keeping the full history replayable.
    archive: Option<PathBuf>,
}

impl Wal {
    /// Opens (creating if absent) the log in `dir`, positioned for append.
    pub fn open(dir: &Path) -> Result<Wal> {
        Self::open_with(dir, &FileVfs)
    }

    /// As [`Wal::open`], sourcing the backend from `vfs`.
    ///
    /// LSN bookkeeping: the `wal.base` sidecar names the LSN of the live
    /// log's first record, and `wal-archive/archive.end` (when archiving)
    /// names the first LSN not yet archived. When the live log holds
    /// records the sidecar base is authoritative — renumbering existing
    /// records would corrupt the stream — and an `archive.end` ahead of
    /// it just means a crash landed between archiving and truncation
    /// (readers dedup the overlap). When the log is empty the base is
    /// free to advance to `max(base, archive.end)`, which repairs the
    /// crash window between truncation and the sidecar update.
    pub fn open_with(dir: &Path, vfs: &dyn Vfs) -> Result<Wal> {
        let path = dir.join("wal.log");
        let backend = vfs.open(&path)?;
        let file_len = backend.len()?;
        let archive_dir = dir.join("wal-archive");
        let archive = archive_dir.is_dir().then_some(archive_dir);
        let base_sidecar = dir.join("wal.base");
        let sidecar_base = read_u64_sidecar(&base_sidecar);
        let archive_end = archive
            .as_ref()
            .map(|a| read_u64_sidecar(&a.join("archive.end")))
            .unwrap_or(0);
        let live_records = match std::fs::read(&path) {
            Ok(bytes) => parse_frames(&bytes, sidecar_base)?.0.len() as u64,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        let base_lsn = if live_records > 0 {
            sidecar_base
        } else {
            sidecar_base.max(archive_end)
        };
        if live_records == 0 && base_lsn != sidecar_base {
            write_u64_sidecar(&base_sidecar, base_lsn)?;
        }
        let next_lsn = base_lsn + live_records;
        Ok(Wal {
            backend,
            buf: Vec::new(),
            file_len,
            path,
            dir: dir.to_path_buf(),
            appended: 0,
            base_lsn,
            next_lsn,
            archive,
        })
    }

    /// Appends one record (buffered; call [`Wal::sync`] to make durable).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mut payload = Vec::with_capacity(64);
        rec.encode(&mut payload);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&checksum(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.appended += 1;
        self.next_lsn += 1;
        Ok(())
    }

    /// Writes buffered frames to the OS at the append offset.
    fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.backend.write_at(&self.buf, self.file_len)?;
        self.file_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes buffered frames and syncs to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.backend.sync()?;
        Ok(())
    }

    /// Truncates the log to empty (after a checkpoint has flushed all data
    /// pages and the catalog). In archive mode the outgoing frames are
    /// first copied into an immutable segment file, so rotation never
    /// discards history.
    ///
    /// Crash-ordering: segment (write, fsync, rename), then
    /// `archive.end`, then the backend truncate, then `wal.base`. Every
    /// window between those steps is repaired at the next open by the
    /// reconciliation in [`Wal::open_with`] plus reader-side LSN dedup.
    pub fn truncate(&mut self) -> Result<()> {
        self.flush()?;
        if let Some(arch) = self.archive.clone() {
            let end_path = arch.join("archive.end");
            let from = read_u64_sidecar(&end_path).max(self.base_lsn);
            if self.next_lsn > from {
                let bytes = std::fs::read(&self.path)?;
                let (records, offsets, valid_end) = parse_frames(&bytes, self.base_lsn)?;
                let skip = (from - self.base_lsn) as usize;
                if skip < records.len() {
                    let start = offsets[skip];
                    let tmp = arch.join(format!("{}.tmp", segment_name(from)));
                    let seg = arch.join(segment_name(from));
                    std::fs::write(&tmp, &bytes[start..valid_end])?;
                    File::open(&tmp)?.sync_all()?;
                    std::fs::rename(&tmp, &seg)?;
                }
                write_u64_sidecar(&end_path, self.next_lsn)?;
            }
        }
        self.backend.truncate(0)?;
        self.file_len = 0;
        self.backend.sync()?;
        self.base_lsn = self.next_lsn;
        write_u64_sidecar(&self.dir.join("wal.base"), self.base_lsn)?;
        Ok(())
    }

    /// Number of records appended since open (diagnostics).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the first record in the live log.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Whether rotation archives outgoing frames into segment files.
    pub fn archive_enabled(&self) -> bool {
        self.archive.is_some()
    }

    /// Turns on archive mode: from now on [`Wal::truncate`] copies
    /// outgoing frames into `<dir>/wal-archive/seg-<lsn>.log` segments.
    /// Returns `true` if the mode was newly enabled (callers that need a
    /// complete history seed a full snapshot into the log right after).
    /// Archive mode is sticky: the directory's existence re-enables it
    /// at every subsequent open.
    pub fn enable_archive(&mut self) -> Result<bool> {
        if self.archive.is_some() {
            return Ok(false);
        }
        let arch = self.dir.join("wal-archive");
        std::fs::create_dir_all(&arch)?;
        // Nothing has been archived yet; anything already rotated away
        // is only represented by the data pages, which is why callers
        // snapshot them into the log when this returns true.
        write_u64_sidecar(&arch.join("archive.end"), self.base_lsn)?;
        self.archive = Some(arch);
        Ok(true)
    }

    /// Re-bases an empty log at `lsn`. Used when a fresh replica joins a
    /// primary whose history starts at a snapshot: the first batch it
    /// receives begins at the snapshot LSN, not 0.
    pub fn reset_base(&mut self, lsn: u64) -> Result<()> {
        if self.next_lsn != self.base_lsn || !self.buf.is_empty() || self.file_len != 0 {
            return Err(StorageError::Replication(format!(
                "cannot re-base a non-empty log (base {}, next {})",
                self.base_lsn, self.next_lsn
            )));
        }
        write_u64_sidecar(&self.dir.join("wal.base"), lsn)?;
        self.base_lsn = lsn;
        self.next_lsn = lsn;
        Ok(())
    }

    /// Iterates `(lsn, record)` pairs at and above `from_lsn`, spanning
    /// archive segments and the live log. Only OS-flushed frames are
    /// visible; callers wanting durable-only records additionally cap at
    /// the engine's synced watermark.
    pub fn read_from(&self, from_lsn: u64) -> Result<WalRangeIter> {
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        let arch = self.dir.join("wal-archive");
        if arch.is_dir() {
            for entry in std::fs::read_dir(&arch)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(hex) = name
                    .strip_prefix("seg-")
                    .and_then(|s| s.strip_suffix(".log"))
                {
                    if let Ok(start) = u64::from_str_radix(hex, 16) {
                        segs.push((start, entry.path()));
                    }
                }
            }
        }
        segs.sort();
        // Skip segments that end at or before the requested start; a
        // segment's end is the next segment's start (modulo crash
        // overlap, which only extends it).
        let keep_from = segs
            .iter()
            .position(|&(start, _)| start > from_lsn)
            .map(|i| i.saturating_sub(1))
            .unwrap_or_else(|| segs.len().saturating_sub(1));
        let mut files: Vec<(u64, PathBuf)> = segs.split_off(keep_from.min(segs.len()));
        let base = read_u64_sidecar(&self.dir.join("wal.base"));
        files.push((base, self.dir.join("wal.log")));
        Ok(WalRangeIter {
            files: files.into_iter(),
            current: Vec::new().into_iter(),
            cursor: from_lsn,
        })
    }

    /// Reads every valid record from the start of the log. Stops cleanly at
    /// the first torn or checksum-failing frame, returning the records
    /// read so far and the byte offset where valid data ended; a frame
    /// that verifies but does not decode is [`StorageError::Corrupt`].
    pub fn replay(dir: &Path) -> Result<(Vec<WalRecord>, u64)> {
        let path = dir.join("wal.log");
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e.into()),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let base = read_u64_sidecar(&dir.join("wal.base"));
        let (records, _, pos) = parse_frames(&buf, base)?;
        Ok((records, pos as u64))
    }

    /// Path of the log file (used by failure-injection tests).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mdm-wal-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::Insert {
                txn: 7,
                table: 2,
                rid: Rid::new(3, 1),
                body: b"hello".to_vec(),
            },
            WalRecord::Update {
                txn: 7,
                table: 2,
                rid: Rid::new(3, 1),
                old: b"hello".to_vec(),
                new: b"world!".to_vec(),
            },
            WalRecord::Delete {
                txn: 7,
                table: 2,
                rid: Rid::new(3, 1),
                old: b"world!".to_vec(),
            },
            WalRecord::LinkPage {
                table: 2,
                from_page: 3,
                new_page: 9,
            },
            WalRecord::CatalogSnapshot {
                bytes: vec![1, 2, 3],
            },
            WalRecord::PageImage {
                page: 3,
                bytes: vec![0xAB; 64],
            },
            WalRecord::Checkpoint,
            WalRecord::Commit { txn: 7 },
            WalRecord::Abort { txn: 8 },
        ]
    }

    #[test]
    fn roundtrip_all_record_types() {
        let dir = tmpdir("rt");
        let recs = sample_records();
        {
            let mut wal = Wal::open(&dir).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (read, _) = Wal::replay(&dir).unwrap();
        assert_eq!(read, recs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_of_missing_log_is_empty() {
        let dir = tmpdir("none");
        std::fs::create_dir_all(&dir).unwrap();
        let (read, off) = Wal::replay(&dir).unwrap();
        assert!(read.is_empty());
        assert_eq!(off, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = tmpdir("torn");
        {
            let mut wal = Wal::open(&dir).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        // Append garbage simulating a torn write.
        let path = dir.join("wal.log");
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[0xFF, 0x13, 0x00]);
        std::fs::write(&path, &torn).unwrap();
        let (read, off) = Wal::replay(&dir).unwrap();
        assert_eq!(read.len(), sample_records().len());
        assert_eq!(off, full.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let dir = tmpdir("crc");
        {
            let mut wal = Wal::open(&dir).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
        }
        let path = dir.join("wal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the *second* frame.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload = 8 + first_len + 8;
        bytes[second_payload] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (read, _) = Wal::replay(&dir).unwrap();
        assert_eq!(read.len(), 1, "only the intact first frame survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every record ever appended is re-readable by LSN, including across
    /// segment/rotation boundaries, and `read_from` starts exactly at the
    /// requested LSN.
    #[test]
    fn read_from_spans_rotation_boundaries() {
        let dir = tmpdir("lsn");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        assert!(wal.enable_archive().unwrap());
        let mk = |i: u64| WalRecord::Insert {
            txn: i,
            table: 1,
            rid: Rid::new(i, 0),
            body: i.to_le_bytes().to_vec(),
        };
        let mut all = Vec::new();
        // Three generations separated by rotations, plus a buffered-but-
        // flushed tail in the live log.
        for generation in 0..3u64 {
            for i in 0..5u64 {
                let rec = mk(generation * 5 + i);
                wal.append(&rec).unwrap();
                all.push(rec);
            }
            wal.sync().unwrap();
            wal.truncate().unwrap();
        }
        for i in 15..18u64 {
            let rec = mk(i);
            wal.append(&rec).unwrap();
            all.push(rec);
        }
        wal.sync().unwrap();
        assert_eq!(wal.next_lsn(), 18);
        assert_eq!(wal.base_lsn(), 15);

        let read: Vec<(u64, WalRecord)> = wal.read_from(0).unwrap().map(Result::unwrap).collect();
        assert_eq!(read.len(), all.len());
        for (i, (lsn, rec)) in read.iter().enumerate() {
            assert_eq!(*lsn, i as u64, "LSNs are dense and ordered");
            assert_eq!(rec, &all[i]);
        }
        // A mid-stream start lands exactly on the requested LSN, even
        // when it falls inside an archived segment.
        for start in [0u64, 3, 5, 7, 12, 15, 17] {
            let tail: Vec<(u64, WalRecord)> =
                wal.read_from(start).unwrap().map(Result::unwrap).collect();
            assert_eq!(tail.first().map(|(l, _)| *l), Some(start));
            assert_eq!(tail.len() as u64, 18 - start);
        }
        assert_eq!(wal.read_from(18).unwrap().count(), 0);

        // LSNs survive reopen: the sidecars re-anchor the live log.
        drop(wal);
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.next_lsn(), 18);
        assert_eq!(wal.base_lsn(), 15);
        assert!(wal.archive_enabled(), "archive mode is sticky across opens");
        assert_eq!(wal.read_from(0).unwrap().count(), 18);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame whose checksum matches but whose payload does not decode
    /// (here the retired index-entry tag 10) is refused by every reader,
    /// naming its sequence number — it is not mistaken for a torn tail.
    #[test]
    fn a_verified_frame_that_does_not_decode_is_corrupt() {
        let dir = tmpdir("undecodable");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        wal.enable_archive().unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let payload = [10u8, 1, 2, 3];
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut bytes = std::fs::read(dir.join("wal.log")).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let corrupt_at_1 = |r: Result<()>| match r {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("lsn 1"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        };
        corrupt_at_1(Wal::replay(&dir).map(drop));
        corrupt_at_1(Wal::open(&dir).map(drop));
        // A handle opened before the bad frame lands reads up to it, and
        // archive rotation reads the frames it copies.
        std::fs::write(dir.join("wal.log"), &bytes[..bytes.len() - frame.len()]).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let mut read = wal.read_from(0).unwrap();
        corrupt_at_1(read.next().unwrap().map(drop));
        assert!(read.next().is_none(), "the error ends the iteration");
        wal.next_lsn += 1;
        corrupt_at_1(wal.truncate());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_base_rebases_only_empty_logs() {
        let dir = tmpdir("rebase");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        wal.reset_base(42).unwrap();
        assert_eq!(wal.next_lsn(), 42);
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.sync().unwrap();
        assert!(wal.reset_base(99).is_err(), "non-empty log refuses re-base");
        drop(wal);
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.base_lsn(), 42);
        assert_eq!(wal.next_lsn(), 43);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_empties_log() {
        let dir = tmpdir("trunc");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.sync().unwrap();
        wal.truncate().unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.sync().unwrap();
        let (read, _) = Wal::replay(&dir).unwrap();
        assert_eq!(read, vec![WalRecord::Begin { txn: 2 }]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
