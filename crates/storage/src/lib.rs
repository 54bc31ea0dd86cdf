//! # mdm-storage
//!
//! The storage substrate of the music data manager: a from-scratch,
//! page-based transactional record store standing in for the INGRES
//! back end the original SIGMOD 1987 design assumed.
//!
//! Components, bottom-up:
//!
//! * [`page`] — 8 KiB slotted pages and record ids.
//! * [`disk`] — page-granular file I/O.
//! * [`buffer`] — a CLOCK-eviction buffer pool.
//! * [`heap`] — heap files (linked chains of slotted pages).
//! * [`btree`] — B+tree secondary indexes with duplicate-key support.
//! * [`wal`] — the write-ahead log with torn-write-tolerant replay.
//! * [`recovery`] — repeat-history redo plus loser undo.
//! * [`backend`] / [`fault`] — pluggable file I/O and deterministic
//!   fault injection (scripted failpoints, simulated crashes).
//! * [`torture`] — the crash-point exploration harness built on them.
//! * `gate` — the one concurrency scheme: one writer ([`Txn`]) or many
//!   readers ([`ReadSnapshot`]), engine-wide.
//! * [`catalog`] — the persistent system catalog.
//! * [`engine`] — [`StorageEngine`], the transactional facade.
//!
//! ```
//! use mdm_storage::{StorageEngine};
//!
//! let dir = std::env::temp_dir().join(format!("mdm-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let engine = StorageEngine::open(&dir).unwrap();
//! let table = engine.create_table("notes").unwrap();
//! let mut txn = engine.begin().unwrap();
//! let rid = engine.insert(&mut txn, table, b"middle C").unwrap();
//! engine.commit(txn).unwrap();
//!
//! let mut txn = engine.begin().unwrap();
//! assert_eq!(engine.get(&mut txn, table, rid).unwrap().unwrap(), b"middle C");
//! engine.commit(txn).unwrap();
//! # drop(engine); std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod backend;
pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod disk;
pub mod engine;
pub mod error;
pub mod fault;
mod gate;
pub mod heap;
pub mod page;
pub mod recovery;
pub mod torture;
pub mod wal;

pub use backend::{FileBackend, FileVfs, StorageBackend, Vfs};
pub use btree::{decode_i64, encode_i64, BTree};
pub use buffer::BufferPool;
pub use engine::{ReadSnapshot, StorageEngine, Txn, WalBatch, DEFAULT_POOL_PAGES};
pub use error::{Result, StorageError};
pub use fault::{At, FaultController, FaultKind, FaultPlan, FaultVfs};
pub use heap::HeapFile;
pub use page::{PageId, Rid, PAGE_SIZE};
pub use recovery::RecoveryOutcome;
pub use torture::{
    crash_point_sweep, run_workload_with, verify_reopen, Ledger, TortureConfig, TortureReport,
};
pub use wal::{TableId, TxnId, Wal, WalRangeIter, WalRecord};
