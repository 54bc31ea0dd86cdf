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
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{FileVfs, StorageBackend, Vfs};
use crate::codec::{self, put_bytes, Reader};
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
    /// Retired: a checkpoint marker older engines appended before each
    /// rotation. Nothing writes it any more; it still decodes, as a no-op
    /// for recovery, so a log that a crash left ending in one opens.
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
    fn encode(&self, out: &mut Vec<u8>) {
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

    /// Decodes one record payload, the counterpart of
    /// [`WalRecord::encode`].
    fn decode(buf: &[u8]) -> codec::Result<WalRecord> {
        fn rid(c: &mut Reader) -> codec::Result<Rid> {
            Ok(Rid::new(c.u64()?, c.u16()?))
        }
        let mut c = Reader::new(buf);
        let rec = match c.u8()? {
            1 => WalRecord::Begin { txn: c.u64()? },
            2 => WalRecord::Commit { txn: c.u64()? },
            3 => WalRecord::Abort { txn: c.u64()? },
            4 => WalRecord::Insert {
                txn: c.u64()?,
                table: c.u32()?,
                rid: rid(&mut c)?,
                body: c.bytes()?,
            },
            5 => WalRecord::Update {
                txn: c.u64()?,
                table: c.u32()?,
                rid: rid(&mut c)?,
                old: c.bytes()?,
                new: c.bytes()?,
            },
            6 => WalRecord::Delete {
                txn: c.u64()?,
                table: c.u32()?,
                rid: rid(&mut c)?,
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
            t => return Err(codec::Error::Invalid("log record tag", t.into())),
        };
        c.finish()?;
        Ok(rec)
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
        let rec = WalRecord::decode(payload).map_err(|e| {
            StorageError::Corrupt(format!(
                "log frame at lsn {} verifies but does not decode: {e}",
                base_lsn + records.len() as u64
            ))
        })?;
        records.push(rec);
        offsets.push(pos);
        pos = end;
    }
    Ok((records, offsets, pos))
}

/// The `wal.base` sidecar: the LSN of the live log's first record, then
/// the commit horizon (see [`Wal::horizon`]). Absent, both are 0. A
/// sidecar that predates the horizon holds the base alone; its horizon
/// is then taken to be the base, which claims no history below it. Any
/// other length, or any other read error, fails: taking it as base 0
/// would renumber records that replicas already hold.
fn read_sidecar(path: &Path) -> Result<(u64, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(e.into()),
    };
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
    match bytes.len() {
        8 => Ok((word(0), word(0))),
        16 => Ok((word(0), word(1))),
        n => Err(StorageError::Corrupt(format!(
            "{} holds {n} bytes, not 8 or 16",
            path.display()
        ))),
    }
}

/// Writes the sidecar by write, fsync, rename and directory fsync, so a
/// reader never observes a half-written value and a power loss cannot
/// keep a later truncation of the log but lose the rename.
fn write_sidecar(path: &Path, base: u64, horizon: u64) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut bytes = base.to_le_bytes().to_vec();
    bytes.extend_from_slice(&horizon.to_le_bytes());
    std::fs::write(&tmp, bytes)?;
    File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
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
    dir: PathBuf,
    /// LSN (global record index for this database) of the first record
    /// in the live log. Persisted in the `wal.base` sidecar so record
    /// numbering survives log rotation.
    base_lsn: u64,
    /// LSN the next appended record will receive.
    next_lsn: u64,
    /// The LSN just past the last `Commit` a truncation removed.
    horizon: u64,
    /// The LSN just past the last noted `Commit` in the live log (0 if
    /// none).
    commit_end: u64,
    /// File offset of each frame since the base, flushed or buffered:
    /// frame `lsn` starts at `offsets[lsn - base_lsn]`.
    offsets: Vec<u64>,
}

/// The LSN just past the last `Commit` among `records`, the first of
/// which has sequence `base` (0 if there is none).
fn commit_end(records: &[WalRecord], base: u64) -> u64 {
    records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Commit { .. }))
        .map_or(0, |i| base + i as u64 + 1)
}

impl Wal {
    /// Opens (creating if absent) the log in `dir`, positioned for append,
    /// with every valid record it holds.
    pub fn open(dir: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        Self::open_with(dir, &FileVfs)
    }

    /// As [`Wal::open`], sourcing the backend from `vfs`. The `wal.base`
    /// sidecar numbers the live log's first record. Reading stops cleanly
    /// at the first torn or checksum-failing frame, and appends start
    /// there, overwriting the torn tail; a frame that verifies but does
    /// not decode is [`StorageError::Corrupt`].
    pub fn open_with(dir: &Path, vfs: &dyn Vfs) -> Result<(Wal, Vec<WalRecord>)> {
        let path = dir.join("wal.log");
        let backend = vfs.open(&path)?;
        let (base_lsn, horizon) = read_sidecar(&dir.join("wal.base"))?;
        let mut bytes = vec![0; backend.len()? as usize];
        backend.read_at(&mut bytes, 0)?;
        let (records, offsets, valid_end) = parse_frames(&bytes, base_lsn)?;
        let wal = Wal {
            backend,
            buf: Vec::new(),
            file_len: valid_end as u64,
            dir: dir.to_path_buf(),
            base_lsn,
            next_lsn: base_lsn + records.len() as u64,
            horizon,
            commit_end: commit_end(&records, base_lsn),
            offsets: offsets.into_iter().map(|o| o as u64).collect(),
        };
        Ok((wal, records))
    }

    /// Appends one record (buffered; call [`Wal::sync`] to make durable).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mut payload = Vec::with_capacity(64);
        rec.encode(&mut payload);
        self.offsets.push(self.bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&checksum(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.next_lsn += 1;
        Ok(())
    }

    /// Notes that the record just appended is a `Commit` the commit
    /// horizon must cover once a truncation removes it. A reopened log
    /// notes every `Commit` it holds.
    pub fn note_commit(&mut self) {
        self.commit_end = self.next_lsn;
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
    /// pages and the catalog). The sidecar is rewritten first, naming the
    /// next LSN as the base and advancing the commit horizon past every
    /// `Commit` this truncation removes. A crash between the two leaves
    /// the old records numbered from the new base: LSNs then skip ahead
    /// (never repeat) and the horizon covers them.
    pub fn truncate(&mut self) -> Result<()> {
        self.rotate(self.next_lsn, self.horizon.max(self.commit_end))
    }

    /// As [`Wal::truncate`], numbering the next record at least `floor`
    /// and moving the commit horizon up to the new base: the log then
    /// claims no history below it.
    pub fn truncate_past(&mut self, floor: u64) -> Result<()> {
        let base = self.next_lsn.max(floor);
        self.rotate(base, base)
    }

    fn rotate(&mut self, base: u64, horizon: u64) -> Result<()> {
        self.flush()?;
        write_sidecar(&self.dir.join("wal.base"), base, horizon)?;
        self.backend.truncate(0)?;
        self.file_len = 0;
        // Not `clear`: the capacity a large transaction grew goes too.
        self.offsets = Vec::new();
        self.backend.sync()?;
        (self.base_lsn, self.next_lsn, self.horizon) = (base, base, horizon);
        Ok(())
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Bytes of log, flushed or buffered.
    pub fn bytes(&self) -> u64 {
        self.file_len + self.buf.len() as u64
    }

    /// LSN of the first record in the live log.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// The commit horizon: the LSN just past the last `Commit` that a
    /// truncation removed. A reader positioned at or past it, even below
    /// [`Wal::base_lsn`], has lost no committed transaction to rotation.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The live log's records at and above `from_lsn` and below `end`,
    /// as `(lsn, record)` pairs, stopping once their frames reach
    /// `max_bytes`. Only OS-flushed frames are visible. One positioned
    /// read of exactly those frames: nothing below `from_lsn` is read.
    pub fn read_from(
        &self,
        from_lsn: u64,
        end: u64,
        max_bytes: usize,
    ) -> Result<Vec<(u64, WalRecord)>> {
        let index = |lsn: u64| lsn.saturating_sub(self.base_lsn) as usize;
        let flushed = self.offsets.partition_point(|&o| o < self.file_len);
        let (first, last) = (index(from_lsn), index(end).min(flushed));
        if first >= last {
            return Ok(Vec::new());
        }
        let start = self.offsets[first];
        let within = self.offsets[first..last].partition_point(|&o| o - start < max_bytes as u64);
        let stop = (self.offsets.get(first + within).copied()).unwrap_or(self.file_len);
        let mut bytes = vec![0; (stop - start) as usize];
        self.backend.read_at(&mut bytes, start)?;
        let first_lsn = self.base_lsn + first as u64;
        let (records, _, _) = parse_frames(&bytes, first_lsn)?;
        Ok((first_lsn..).zip(records).collect())
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
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, read) = Wal::open(&dir).unwrap();
        assert_eq!(read, recs);
        // The log's bytes, every record tag among them, are pinned: a
        // log written by an earlier build must read the same.
        let bytes = std::fs::read(dir.join("wal.log")).unwrap();
        assert_eq!(hex(&bytes), PINNED_LOG);
        assert_eq!(parse_frames(&bytes, 0).unwrap().0, recs);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `sample_records`, framed, as the log holds them.
    const PINNED_LOG: &str = concat!(
        "09000000eb613b4a010700000000000000200000004f8cd33e040700000000000000020000000300",
        "00000000000001000500000068656c6c6f2a000000b3bb3d2e050700000000000000020000000300",
        "00000000000001000500000068656c6c6f06000000776f726c64212100000067d511b40607000000",
        "00000000020000000300000000000000010006000000776f726c6421150000004e8cb0e307020000",
        "0003000000000000000900000000000000080000003c0dced908030000000102034d000000f7857c",
        "8809030000000000000040000000abababababababababababababababababababababababababab",
        "abababababababababababababababababababababababababababababababababababababab0100",
        "00006b630c090c0900000082e652f302070000000000000009000000fa3b39d50308000000000000",
        "00",
    );

    #[test]
    fn a_missing_log_opens_empty() {
        let dir = tmpdir("none");
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, read) = Wal::open(&dir).unwrap();
        assert!(read.is_empty());
        assert_eq!((wal.bytes(), wal.next_lsn()), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn tail ends the read, and the next append overwrites it: a
    /// record appended after the reopen is read back by the next one.
    #[test]
    fn torn_tail_is_ignored_and_overwritten() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
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
        let (mut wal, read) = Wal::open(&dir).unwrap();
        assert_eq!(read, sample_records());
        assert_eq!(wal.bytes(), full.len() as u64);
        wal.append(&WalRecord::Begin { txn: 9 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, read) = Wal::open(&dir).unwrap();
        assert_eq!(read.len(), sample_records().len() + 1);
        assert_eq!(read.last(), Some(&WalRecord::Begin { txn: 9 }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checksum_stops_the_read() {
        let dir = tmpdir("crc");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
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
        let (_, read) = Wal::open(&dir).unwrap();
        assert_eq!(read.len(), 1, "only the intact first frame survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `read_from` reads the live log from the requested LSN, below
    /// `end` and within the byte budget (one record at least); a
    /// truncation moves the commit horizon just past the last noted
    /// `Commit` it removed, only forward, and the sidecar keeps both
    /// across opens. A sidecar without a horizon, or a truncation past a
    /// floor, claims no history below its base.
    #[test]
    fn reads_and_truncations_keep_lsns_and_the_commit_horizon() {
        let dir = tmpdir("horizon");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        let (commit, begin) = (WalRecord::Commit { txn: 1 }, WalRecord::Begin { txn: 2 });
        for rec in [&begin, &commit, &begin, &commit] {
            wal.append(rec).unwrap();
        }
        wal.note_commit(); // the second commit only, as `commit_local` leaves the first
        wal.sync().unwrap();
        wal.truncate().unwrap();
        assert_eq!((wal.base_lsn(), wal.horizon()), (4, 4));
        for rec in [&begin, &commit, &begin] {
            wal.append(rec).unwrap();
        }
        wal.sync().unwrap();
        let lsns = |wal: &Wal, from, end, max| -> Vec<u64> {
            let read = wal.read_from(from, end, max).unwrap();
            read.into_iter().map(|(lsn, _)| lsn).collect()
        };
        assert_eq!(lsns(&wal, 0, 7, usize::MAX), [4, 5, 6]);
        assert_eq!(lsns(&wal, 5, 6, usize::MAX), [5]);
        assert_eq!(lsns(&wal, 4, 7, 1), [4]);
        drop(wal);
        // A reopened log notes every commit it holds.
        let (mut wal, _) = Wal::open(&dir).unwrap();
        assert_eq!((wal.base_lsn(), wal.next_lsn(), wal.horizon()), (4, 7, 4));
        wal.truncate().unwrap();
        wal.truncate().unwrap();
        assert_eq!((wal.base_lsn(), wal.horizon()), (7, 6));
        drop(wal);
        std::fs::write(dir.join("wal.base"), 7u64.to_le_bytes()).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        assert_eq!(wal.horizon(), 7);
        // Truncated past a floor, the log numbers on from it and claims
        // no history below; a floor behind it changes nothing but that.
        wal.truncate_past(20).unwrap();
        wal.append(&begin).unwrap();
        wal.truncate_past(3).unwrap();
        assert_eq!(
            (wal.base_lsn(), wal.next_lsn(), wal.horizon()),
            (21, 21, 21)
        );
        drop(wal);
        let (wal, _) = Wal::open(&dir).unwrap();
        assert_eq!((wal.base_lsn(), wal.horizon()), (21, 21));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame whose checksum matches but whose payload does not decode
    /// (here the retired index-entry tag 10) is refused by every reader,
    /// naming its sequence number — it is not mistaken for a torn tail.
    #[test]
    fn a_verified_frame_that_does_not_decode_is_corrupt() {
        let dir = tmpdir("undecodable");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.sync().unwrap();
        // The second of the two equal-sized frames rewritten in place.
        let mut bytes = std::fs::read(dir.join("wal.log")).unwrap();
        let at = bytes.len() / 2;
        let payload = vec![10u8; at - 8];
        bytes[at + 4..at + 8].copy_from_slice(&checksum(&payload).to_le_bytes());
        bytes[at + 8..].copy_from_slice(&payload);
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let corrupt_at_1 = |r: Result<()>| match r {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("lsn 1"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // The handle that wrote the frame refuses it, and so does an open.
        corrupt_at_1(wal.read_from(1, 2, usize::MAX).map(drop));
        drop(wal);
        corrupt_at_1(Wal::open(&dir).map(drop));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `read_from` reads from its cursor's frame on: a frame below the
    /// cursor, damaged on disk after the open, does not shorten the read.
    #[test]
    fn a_read_starts_at_the_cursor_frame() {
        let dir = tmpdir("cursor");
        std::fs::create_dir_all(&dir).unwrap();
        let records = sample_records();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (wal, _) = Wal::open(&dir).unwrap();
        let mut bytes = std::fs::read(dir.join("wal.log")).unwrap();
        bytes[8] ^= 0xff; // the first frame's payload no longer verifies
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let read = wal.read_from(1, u64::MAX, usize::MAX).unwrap();
        let want: Vec<_> = (0..).zip(records).skip(1).collect();
        assert_eq!(read, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_empties_log() {
        let dir = tmpdir("trunc");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.sync().unwrap();
        wal.truncate().unwrap();
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.sync().unwrap();
        let (_, read) = Wal::open(&dir).unwrap();
        assert_eq!(read, vec![WalRecord::Begin { txn: 2 }]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only a missing sidecar means base 0: one of any length but 8 or
    /// 16 bytes fails the open instead of renumbering the log from 0.
    #[test]
    fn a_sidecar_of_the_wrong_length_fails_the_open() {
        let dir = tmpdir("sidecar");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.base"), [1u8, 2, 3, 4, 5]).unwrap();
        match Wal::open(&dir) {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("5 bytes"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|(_, r)| r)),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
