//! # mdm-storage
//!
//! The storage substrate of the music data manager: a from-scratch,
//! page-based transactional record store standing in for the INGRES
//! back end the original SIGMOD 1987 design assumed. The paper asks of
//! it only concurrency control and recovery: the engine is heap files, a
//! write-ahead log and a checkpoint under the memory-resident model. It
//! keeps no secondary index — the model owns every index, and nothing
//! reads the engine by key.
//!
//! Components, bottom-up:
//!
//! * [`page`] — 8 KiB slotted pages and record ids.
//! * [`disk`] — page-granular file I/O.
//! * [`buffer`] — the buffer pool: one frame table under one latch,
//!   evicted by one CLOCK hand.
//! * [`heap`] — heap files (linked chains of slotted pages).
//! * [`wal`] — the write-ahead log with torn-write-tolerant replay, and
//!   the commit horizon that says which reads a truncation cut short.
//!   [`StorageEngine::wal_read_from`] is the engine's one
//!   replication-facing call: `mdm-core` decodes committed transactions
//!   from it, and a replica is an ordinary engine written by them.
//!   [`StorageEngine::checkpoint_past`] lets a promoted replica number
//!   its log on from the primary's.
//! * [`recovery`] — repeat-history redo plus loser undo.
//! * [`backend`] / [`fault`] — pluggable file I/O and deterministic
//!   fault injection (scripted failpoints, simulated crashes).
//! * [`torture`] — the crash-point exploration harness built on them.
//! * `gate` — the one concurrency scheme: one writer ([`Txn`]) or many
//!   readers ([`ReadSnapshot`]), engine-wide. Below it the catalog, the
//!   heap directory, the pool and the log each have one latch (see
//!   [`engine`]).
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
pub use buffer::BufferPool;
pub use engine::{ReadSnapshot, StorageEngine, Txn, DEFAULT_POOL_PAGES};
pub use error::{Result, StorageError};
pub use fault::{At, FaultController, FaultKind, FaultPlan, FaultVfs};
pub use heap::HeapFile;
/// The byte codec of the log, the catalog and every format above them
/// (re-exported so that `mdm-model` reaches it without a new dependency).
pub use mdm_obs::codec;
pub use page::{PageId, Rid, PAGE_SIZE};
pub use recovery::RecoveryOutcome;
pub use torture::{crash_point_sweep, TortureConfig, TortureReport};
pub use wal::{TableId, TxnId, Wal, WalRecord};
