//! Error type for the storage engine.

use std::fmt;
use std::io;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A page id referred to a page that does not exist.
    PageNotFound(u64),
    /// A record id referred to a record that does not exist.
    RecordNotFound { page: u64, slot: u16 },
    /// A record was too large to fit in a single page.
    RecordTooLarge(usize),
    /// The named table does not exist.
    NoSuchTable(String),
    /// The named index does not exist.
    NoSuchIndex(String),
    /// A table with this name already exists.
    TableExists(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// The calling thread already holds the side of the engine's gate
    /// this call would wait on: `txn` is the transaction it has open
    /// (`None` for a read snapshot). Commit, abort or drop it first.
    GateHeld { txn: Option<u64> },
    /// A transaction handle was passed to an engine other than the one
    /// that began it.
    TxnNotActive(u64),
    /// The write-ahead log was corrupt beyond the given offset.
    WalCorrupt(u64),
    /// A WAL fsync failed earlier in this engine's lifetime. The OS may
    /// have dropped the dirty log bytes the failed fsync covered
    /// (fsyncgate), so no later commit can honestly claim durability;
    /// the engine refuses all further commits until reopened, when
    /// recovery re-establishes a consistent durable prefix.
    WalPoisoned,
    /// The database files were corrupt.
    Corrupt(String),
    /// A replication stream violated its contract (gap, stale batch,
    /// or an apply attempted on a node in the wrong role).
    Replication(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageNotFound(p) => write!(f, "page {p} not found"),
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record not found at page {page} slot {slot}")
            }
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds maximum record size")
            }
            StorageError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            StorageError::NoSuchIndex(n) => write!(f, "no such index: {n}"),
            StorageError::TableExists(n) => write!(f, "table already exists: {n}"),
            StorageError::IndexExists(n) => write!(f, "index already exists: {n}"),
            StorageError::GateHeld { txn: Some(t) } => {
                write!(f, "transaction {t} is still open on this thread")
            }
            StorageError::GateHeld { txn: None } => {
                write!(f, "a read snapshot is still open on this thread")
            }
            StorageError::TxnNotActive(t) => {
                write!(f, "transaction {t} is not active on this engine")
            }
            StorageError::WalCorrupt(off) => write!(f, "write-ahead log corrupt at offset {off}"),
            StorageError::WalPoisoned => write!(
                f,
                "write-ahead log poisoned by an earlier failed fsync; reopen to recover"
            ),
            StorageError::Corrupt(m) => write!(f, "database corrupt: {m}"),
            StorageError::Replication(m) => write!(f, "replication error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
