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
    /// The calling thread already holds the side of the engine's gate
    /// this call would wait on: `txn` is the transaction it has open
    /// (`None` for a read snapshot). Commit, abort or drop it first.
    GateHeld { txn: Option<u64> },
    /// A transaction handle was passed to an engine other than the one
    /// that began it.
    TxnNotActive(u64),
    /// A WAL fsync failed earlier in this engine's lifetime. The OS may
    /// have dropped the dirty log bytes the failed fsync covered
    /// (fsyncgate), so no later commit can honestly claim durability;
    /// the engine refuses all further commits until reopened, when
    /// recovery re-establishes a consistent durable prefix.
    WalPoisoned,
    /// The database files were corrupt.
    Corrupt(String),
    /// A log read from `from`: a truncation removed a commit at or above
    /// it (the commit horizon is `horizon`), so the log can no longer
    /// replay what followed it.
    LogTruncated { from: u64, horizon: u64 },
    /// A log read from `from`, past the durable watermark `durable`: a
    /// position this log's history never reached.
    AheadOfLog { from: u64, durable: u64 },
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
            StorageError::GateHeld { txn: Some(t) } => {
                write!(f, "transaction {t} is still open on this thread")
            }
            StorageError::GateHeld { txn: None } => {
                write!(f, "a read snapshot is still open on this thread")
            }
            StorageError::TxnNotActive(t) => {
                write!(f, "transaction {t} is not active on this engine")
            }
            StorageError::WalPoisoned => write!(
                f,
                "write-ahead log poisoned by an earlier failed fsync; reopen to recover"
            ),
            StorageError::Corrupt(m) => write!(f, "database corrupt: {m}"),
            StorageError::LogTruncated { from, horizon } => write!(
                f,
                "log truncated: lsn {from} lies below the commit horizon {horizon}"
            ),
            StorageError::AheadOfLog { from, durable } => write!(
                f,
                "lsn {from} is past the durable end of the log ({durable})"
            ),
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

impl From<mdm_obs::codec::Error> for StorageError {
    fn from(e: mdm_obs::codec::Error) -> Self {
        StorageError::Corrupt(e.to_string())
    }
}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
