//! The storage engine facade: transactions over tables.
//!
//! [`StorageEngine`] combines the buffer pool, heap files, the write-ahead
//! log, and the catalog into a single transactional record store. It
//! keeps no secondary index: the memory-resident model above it owns
//! every index and reads the engine only at load, by scan.
//!
//! Concurrency control is one engine-wide gate (the private `gate`
//! module): *one writer or many readers*.
//! [`StorageEngine::begin`] takes the exclusive side and the [`Txn`] holds
//! it until commit, abort or drop; a [`ReadSnapshot`] holds the shared
//! side. Durability is undo/redo logical logging with checkpoint
//! truncation.
//!
//! # Latching
//!
//! Below the gate each component has one latch. The latches do not
//! arbitrate between transactions (there is one at a time); they keep the
//! threads that run *outside* the gate (replication's `wal_read_from`,
//! the replica pull thread's `replica_apply`, DDL, eviction on a reader's
//! behalf) safe against the writer and each other:
//!
//! - **catalog** — an `RwLock`: lookups share, DDL excludes.
//! - **heap directory** — one `Mutex<HashMap>` of per-table [`HeapFile`]
//!   handles (each a first/last-page cache).
//! - **buffer pool** — one `Mutex` over the frame table and the CLOCK
//!   hand (see [`crate::buffer`]).
//! - **log** — one `Mutex` over the WAL, its sequence numbers, the
//!   synced watermark and the poison flag. A commit flushes and fsyncs
//!   the log under it.
//!
//! The acquisition order is fixed:
//!
//! > gate → catalog → heap directory → pool → log
//!
//! A latch may only be taken while holding latches that appear *earlier*
//! in this order. The pool sits before the log because dirty eviction
//! (which runs under the pool latch) may need to sync the log (the flush
//! barrier, below); no code path holds the log latch while touching a
//! page. Page closures never re-enter the pool. The gate is only ever
//! waited on with no latch held.
//!
//! # Commit durability
//!
//! A committing transaction appends its `Commit` record (getting back a
//! log sequence number), then takes the log latch and, unless an earlier
//! sync already covered that number, flushes the log buffer and fsyncs
//! it. One fsync covers every record appended before it, so a committer
//! that waited on the latch behind another's sync finds its record
//! already durable. A failed fsync poisons the log (fsyncgate): every
//! later sync fails with [`StorageError::WalPoisoned`] until a reopen.
//!
//! # Page-LSN flush discipline
//!
//! The engine mutates pages before appending the covering WAL record,
//! so a naive pool could write a dirty page to disk ahead of its log
//! record. Logged heap mutations therefore run through
//! [`BufferPool::with_page_mut_logged`], which pins the frame until the
//! engine appends the record and publishes its sequence number as the
//! frame's page-LSN; eviction of a dirty frame first runs a *flush
//! barrier* that syncs the WAL through that LSN (counted by
//! `mdm_wal_eviction_syncs_total`), one call covering the victim and
//! its dirty neighbours. This is the ARIES write-ahead rule
//! specialized to logical logging: no page reaches disk before the log
//! covers its last logged change.
//!
//! # Observability
//!
//! Every engine opens against an `mdm_obs::Registry` (its own, or one
//! shared by the caller via [`StorageEngine::open_with_registry`]) and
//! exports counters and histograms for the buffer pool, WAL, and
//! transaction lifecycle; read them via
//! [`StorageEngine::metrics_snapshot`]. All instrumentation is relaxed
//! atomics — cheap enough for the hot paths it sits on.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::ThreadId;

use mdm_obs::{
    trace, Counter, Gauge, Histogram, Registry, Snapshot, LATENCY_MICROS_BOUNDS, SMALL_COUNT_BOUNDS,
};

use crate::backend::{FileVfs, Vfs};
use crate::buffer::BufferPool;
use crate::catalog::{self, Catalog, TableMeta};
use crate::error::{Result, StorageError};
use crate::gate::{Gate, Held};
use crate::heap::HeapFile;
use crate::page::{PageId, Rid};
use crate::recovery::{self, RecoveryOutcome};
use crate::wal::{TableId, TxnId, Wal, WalRecord};

/// Default buffer pool capacity in pages (16 MiB).
pub const DEFAULT_POOL_PAGES: usize = 2048;

/// A transaction handle: the engine's one writer. It holds the exclusive
/// side of the gate from [`StorageEngine::begin`] until it is consumed by
/// [`StorageEngine::commit`] or [`StorageEngine::abort`], or dropped.
/// Dropping an unfinished transaction aborts it: the drop rolls back its
/// effects before releasing the gate (leaking the handle with
/// `std::mem::forget` simulates a crash instead, leaving rollback to
/// recovery and the gate shut for the rest of the engine's life).
pub struct Txn {
    id: TxnId,
    undo: Vec<UndoOp>,
    finished: bool,
    began: bool,
    inner: Arc<Inner>,
}

impl Txn {
    /// The transaction's id: unique for the life of the data directory.
    pub fn id(&self) -> TxnId {
        self.id
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            // Abort-on-drop. Errors are swallowed: drop has nowhere to
            // report them, and recovery re-establishes consistency from
            // the log on the next open if rollback could not complete.
            let _ = self.inner.rollback(self.id, &mut self.undo, self.began);
        }
        self.inner.metrics.txn_active.add(-1);
        self.inner.gate.unlock_exclusive();
    }
}

enum UndoOp {
    Insert { rid: Rid },
    Update { rid: Rid, old: Vec<u8> },
    Delete { rid: Rid, old: Vec<u8> },
}

/// The WAL behind its latch, plus a monotonic sequence number (one per
/// appended record, never reset — unlike `Wal::appended`, which a
/// truncate restarts) and the highest sequence number known durable.
struct WalInner {
    wal: Wal,
    seq: u64,
    synced: u64,
    /// Set when a WAL fsync fails. Once the kernel reports an fsync
    /// error it may drop the dirty pages it could not write *and mark
    /// them clean* (fsyncgate), so a later "successful" fsync proves
    /// nothing about the bytes the failed one covered. `synced` must
    /// never advance past that point; every commit (and eviction sync)
    /// fails with [`StorageError::WalPoisoned`] until the engine is
    /// reopened and recovery re-reads what actually persisted.
    poisoned: bool,
    appends: Arc<Counter>,
}

impl WalInner {
    fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        self.wal.append(rec)?;
        self.seq += 1;
        self.appends.inc();
        Ok(self.seq)
    }
}

/// The engine's registered metric handles. Counter/histogram updates are
/// relaxed atomics; the registry is only consulted for snapshots.
struct EngineMetrics {
    registry: Registry,
    wal_appends: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    wal_fsync_micros: Arc<Histogram>,
    wal_group_batch: Arc<Histogram>,
    wal_eviction_syncs: Arc<Counter>,
    wal_fsync_failures: Arc<Counter>,
    wal_poisoned: Arc<Gauge>,
    txn_begins: Arc<Counter>,
    txn_commits: Arc<Counter>,
    txn_aborts: Arc<Counter>,
    txn_active: Arc<Gauge>,
}

impl EngineMetrics {
    fn register(registry: &Registry, pool: &BufferPool) -> EngineMetrics {
        pool.register_metrics(registry);
        EngineMetrics {
            registry: registry.clone(),
            wal_appends: registry.counter("mdm_wal_appends_total", "WAL records appended"),
            wal_fsyncs: registry.counter("mdm_wal_fsyncs_total", "WAL fsyncs issued"),
            wal_fsync_micros: registry.histogram(
                "mdm_wal_fsync_micros",
                "WAL fsync latency in microseconds",
                LATENCY_MICROS_BOUNDS,
            ),
            wal_group_batch: registry.histogram(
                "mdm_wal_group_commit_batch",
                "records made durable per WAL fsync",
                SMALL_COUNT_BOUNDS,
            ),
            wal_eviction_syncs: registry.counter(
                "mdm_wal_eviction_syncs_total",
                "WAL syncs forced by dirty-page eviction (page-LSN flush discipline)",
            ),
            wal_fsync_failures: registry.counter(
                "mdm_wal_fsync_failures_total",
                "WAL fsyncs that failed, each poisoning the commit path",
            ),
            wal_poisoned: registry.gauge(
                "mdm_wal_poisoned",
                "1 if a failed WAL fsync has poisoned the commit path (reopen to recover)",
            ),
            txn_begins: registry.counter("mdm_txn_begins_total", "transactions started"),
            txn_commits: registry.counter("mdm_txn_commits_total", "transactions committed"),
            txn_aborts: registry.counter(
                "mdm_txn_aborts_total",
                "transactions rolled back (explicit abort or drop)",
            ),
            txn_active: registry.gauge(
                "mdm_txn_active",
                "1 while a transaction holds the gate's exclusive side",
            ),
        }
    }
}

struct Inner {
    pool: BufferPool,
    wal: Mutex<WalInner>,
    catalog: RwLock<Catalog>,
    heaps: Mutex<HashMap<TableId, HeapFile>>,
    /// One writer or many readers.
    gate: Gate,
    recovery: RecoveryOutcome,
    /// The transaction-id allocator. Ids never repeat for the life of the
    /// data directory (the catalog persists the floor), so concatenated
    /// WAL archive segments cannot confuse one segment's winner with
    /// another's loser.
    next_txn: AtomicU64,
    dir: PathBuf,
    metrics: EngineMetrics,
    /// Replica mode: the log is fed by [`StorageEngine::replica_apply`]
    /// from a primary's stream rather than by local transactions, so the
    /// engine must never append records of its own (they would collide
    /// with the primary's LSN numbering). Eviction writes through
    /// unprotected, the shutdown checkpoint is skipped, and
    /// [`StorageEngine::checkpoint`] folds without logging images.
    replica: AtomicBool,
    /// Highest LSN known durable (flushed and fsynced, or rotated into
    /// the archive). Replication streams records strictly below this.
    durable_lsn: AtomicU64,
}

impl Inner {
    /// Appends one record, returning its sequence number.
    fn log(&self, rec: &WalRecord) -> Result<u64> {
        let _sp = trace::span("storage.wal_append");
        self.wal.lock().unwrap().append(rec)
    }

    /// Appends several records under one latch acquisition (keeps, e.g.,
    /// a `LinkPage` ordered directly before the `Insert` that needs it).
    fn log_all(&self, recs: &[WalRecord]) -> Result<u64> {
        let _sp = trace::span("storage.wal_append");
        trace::annotate("records", recs.len());
        let mut w = self.wal.lock().unwrap();
        let mut seq = w.seq;
        for rec in recs {
            seq = w.append(rec)?;
        }
        Ok(seq)
    }

    /// Appends records covering logged page mutations, then publishes the
    /// resulting sequence number as the page-LSN of every touched page —
    /// exactly once per pin the heap layer took. If the append fails, the
    /// latest appended sequence is published instead, so the frames are
    /// unpinned and eviction still syncs past any record that *did* make
    /// it in.
    fn log_published(&self, recs: &[WalRecord], pages: &[PageId]) -> Result<u64> {
        let res = self.log_all(recs);
        let seq = match &res {
            Ok(seq) => *seq,
            Err(_) => self.wal.lock().unwrap().seq,
        };
        for &page in pages {
            self.pool.publish_lsn(page, seq);
        }
        res
    }

    /// The eviction flush barrier: logs a durable full-page image of the
    /// bytes eviction is about to write in place, for every page of the
    /// batch. Appending the images gives them sequences past the frames'
    /// page-LSNs, so the one sync covers both the write-ahead rule and
    /// torn-write protection.
    fn eviction_barrier(&self, pages: &[(PageId, Vec<u8>)]) -> Result<()> {
        if self.replica.load(Ordering::Acquire) {
            // A replica must not append to its log (the LSNs belong to
            // the primary's stream), so eviction writes through without
            // an image. A torn write here loses only the replica's local
            // copy; re-seeding from the primary's archive repairs it.
            return Ok(());
        }
        self.metrics.wal_eviction_syncs.inc();
        let _sp = trace::span("storage.flush_barrier");
        trace::annotate("pages", pages.len());
        self.log_page_images(pages)
    }

    /// Appends one [`WalRecord::PageImage`] per entry and syncs the log
    /// through the last of them. Checkpoint and eviction call this before
    /// rewriting the imaged pages in place.
    fn log_page_images(&self, batch: &[(PageId, Vec<u8>)]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let seq = {
            let mut w = self.wal.lock().unwrap();
            let mut seq = w.seq;
            for (page, bytes) in batch {
                seq = w.append(&WalRecord::PageImage {
                    page: *page,
                    bytes: bytes.clone(),
                })?;
            }
            seq
        };
        self.sync_to(seq)
    }

    /// Makes the log durable through `seq`: under the log latch, flushes
    /// and fsyncs it unless an earlier sync already covered `seq`.
    fn sync_to(&self, seq: u64) -> Result<()> {
        let _sp = trace::span("storage.group_commit");
        let mut w = self.wal.lock().unwrap();
        if w.poisoned {
            return Err(StorageError::WalPoisoned);
        }
        if w.synced >= seq {
            return Ok(());
        }
        let _fsync_sp = trace::span("storage.fsync");
        let timer = self.metrics.wal_fsync_micros.time();
        if let Err(e) = w.wal.sync() {
            // fsyncgate: a failed fsync may have dropped the dirty log
            // bytes while marking them clean, so no retry can be
            // trusted. Poison the log: the durable seq never advances
            // again, and every later sync fails typed rather than
            // reporting durability the log cannot back.
            w.poisoned = true;
            self.metrics.wal_fsync_failures.inc();
            self.metrics.wal_poisoned.set(1);
            return Err(e);
        }
        timer.stop();
        self.metrics.wal_fsyncs.inc();
        self.durable_lsn
            .fetch_max(w.wal.next_lsn(), Ordering::AcqRel);
        // Records made durable by this one fsync.
        self.metrics.wal_group_batch.observe(w.seq - w.synced);
        w.synced = w.seq;
        Ok(())
    }

    /// Syncs everything appended so far.
    fn sync_all(&self) -> Result<()> {
        let seq = self.wal.lock().unwrap().seq;
        self.sync_to(seq)
    }

    /// Truncates the log (checkpoint). Everything previously appended is
    /// now moot, so it is marked synced.
    fn truncate_wal(&self) -> Result<()> {
        let mut w = self.wal.lock().unwrap();
        w.wal.truncate()?;
        w.synced = w.seq;
        self.durable_lsn
            .fetch_max(w.wal.next_lsn(), Ordering::AcqRel);
        Ok(())
    }

    /// Runs `f` on the table's heap handle under the heap-directory
    /// latch, opening the handle from the catalog on first touch.
    fn with_heap<R>(
        &self,
        table: TableId,
        f: impl FnOnce(&mut HeapFile) -> Result<R>,
    ) -> Result<R> {
        let mut heaps = self.heaps.lock().unwrap();
        if !heaps.contains_key(&table) {
            // The catalog comes before the heap directory in the latch
            // order: let go, look the table up, then take it again.
            drop(heaps);
            let first_page = {
                let cat = self.catalog.read().unwrap();
                let (_, meta) = cat
                    .table_by_id(table)
                    .ok_or_else(|| StorageError::NoSuchTable(format!("#{table}")))?;
                meta.first_page
            };
            heaps = self.heaps.lock().unwrap();
            if let Entry::Vacant(slot) = heaps.entry(table) {
                slot.insert(HeapFile::open(&self.pool, first_page)?);
            }
        }
        f(heaps.get_mut(&table).expect("opened above"))
    }

    fn scan(&self, table: TableId) -> Result<Vec<(Rid, Vec<u8>)>> {
        let h = self.with_heap(table, |h| Ok(h.clone()))?;
        h.scan_all(&self.pool)
    }

    /// Syncs the log, saves the catalog, writes every dirty page back and
    /// truncates the log. The live checkpoint and a clean shutdown both
    /// run it.
    fn checkpoint(&self) -> Result<()> {
        self.sync_all()?;
        {
            let mut cat = self.catalog.read().unwrap().clone();
            cat.txn_floor = self.next_txn.load(Ordering::Acquire);
            catalog::save(&self.pool, &cat)?;
        }
        // Image every dirty page into the log (one batch, one sync)
        // before the in-place writes: a crash that tears one of them is
        // then recoverable from the images.
        self.pool
            .flush_all_with(&|batch| self.log_page_images(batch))?;
        // Mark the rotation boundary so replication readers know the
        // stream up to here is checkpoint-consistent (no open txns).
        let seq = self.log(&WalRecord::Checkpoint)?;
        self.sync_to(seq)?;
        self.truncate_wal()
    }

    /// Persists and logs the catalog after DDL. Callers hold the catalog
    /// write latch, which serializes catalog page writes. The saved copy
    /// carries the current transaction-id floor, so any open that
    /// restores this catalog restarts the allocator above every id
    /// already handed out.
    fn snapshot_catalog(&self, catalog: &Catalog) -> Result<()> {
        let mut floored = catalog.clone();
        floored.txn_floor = self.next_txn.load(Ordering::Acquire);
        catalog::save(&self.pool, &floored)?;
        let seq = self.log(&WalRecord::CatalogSnapshot {
            bytes: floored.to_bytes(),
        })?;
        self.sync_to(seq)
    }

    /// Rolls a transaction's effects back in place and logs the abort.
    /// Shared by [`StorageEngine::abort`] and [`Txn`]'s drop. A
    /// transaction that never logged a `Begin` logs no `Abort` either:
    /// read-only work must leave the WAL untouched.
    fn rollback(&self, id: TxnId, undo: &mut Vec<UndoOp>, began: bool) -> Result<()> {
        for op in undo.drain(..).rev() {
            match op {
                UndoOp::Insert { rid } => {
                    HeapFile::apply_at(&self.pool, rid, None)?;
                }
                UndoOp::Update { rid, ref old } | UndoOp::Delete { rid, ref old } => {
                    HeapFile::apply_at(&self.pool, rid, Some(old))?;
                }
            }
        }
        if began {
            self.log(&WalRecord::Abort { txn: id })?;
        }
        self.metrics.txn_aborts.inc();
        Ok(())
    }
}

/// A batch of encoded WAL records as `(lsn, payload)` pairs — the unit
/// the replication stream ships.
pub type WalBatch = Vec<(u64, Vec<u8>)>;

/// A read-only view of the committed database: the shared side of the
/// gate, held for the snapshot's lifetime. Obtain via
/// [`StorageEngine::snapshot`]. No transaction can be open while a
/// snapshot is, so every read is a plain heap read of committed data;
/// a writer that arrives waits until the snapshot drops.
pub struct ReadSnapshot {
    inner: Arc<Inner>,
    /// The thread that opened the shared side, or the typed refusal every
    /// read returns when that thread already held the exclusive side.
    held: std::result::Result<ThreadId, Held>,
}

impl ReadSnapshot {
    fn check_held(&self) -> Result<()> {
        self.held?;
        Ok(())
    }

    /// Reads a record, or `None` if the rid holds no row.
    pub fn get(&self, _table: TableId, rid: Rid) -> Result<Option<Vec<u8>>> {
        self.check_held()?;
        HeapFile::get(&self.inner.pool, rid)
    }

    /// Scans every record of a table.
    pub fn scan(&self, table: TableId) -> Result<Vec<(Rid, Vec<u8>)>> {
        self.check_held()?;
        self.inner.scan(table)
    }

    /// Answers "no index": the engine keeps none, so every name is
    /// [`StorageError::NoSuchIndex`]. Kept only because
    /// `benchmark/src/probe.rs` calls it; ROADMAP item 2.1 deletes that
    /// call and this function.
    pub fn index_lookup(&self, _table: TableId, index: &str, _key: &[u8]) -> Result<Vec<Rid>> {
        Err(StorageError::NoSuchIndex(index.to_string()))
    }
}

impl Drop for ReadSnapshot {
    fn drop(&mut self) {
        if let Ok(opener) = self.held {
            self.inner.gate.unlock_shared(opener);
        }
    }
}

/// The transactional storage engine. Cloneable handle; clones share state.
#[derive(Clone)]
pub struct StorageEngine {
    inner: Arc<Inner>,
}

impl StorageEngine {
    /// Opens (or creates) a database in `dir`, running crash recovery if
    /// the write-ahead log is non-empty.
    pub fn open(dir: &Path) -> Result<StorageEngine> {
        Self::open_with_capacity(dir, DEFAULT_POOL_PAGES)
    }

    /// As [`StorageEngine::open`] with an explicit buffer-pool capacity.
    pub fn open_with_capacity(dir: &Path, pool_pages: usize) -> Result<StorageEngine> {
        Self::open_with_registry(dir, pool_pages, &Registry::new())
    }

    /// As [`StorageEngine::open_with_capacity`], registering the engine's
    /// metrics into a caller-supplied registry so the embedding layer can
    /// snapshot storage, query, and application metrics together.
    pub fn open_with_registry(
        dir: &Path,
        pool_pages: usize,
        registry: &Registry,
    ) -> Result<StorageEngine> {
        Self::open_with_vfs(dir, pool_pages, registry, &FileVfs)
    }

    /// As [`StorageEngine::open_with_registry`], sourcing every file
    /// backend from `vfs`. Fault-injection harnesses use this to
    /// interpose on each I/O the engine performs; production callers use
    /// the plain-file default.
    pub fn open_with_vfs(
        dir: &Path,
        pool_pages: usize,
        registry: &Registry,
        vfs: &dyn Vfs,
    ) -> Result<StorageEngine> {
        let pool = BufferPool::open_with(dir, pool_pages, vfs)?;
        // A sticky marker makes replica mode survive restarts: a
        // reopened replica must NOT rotate its log (the rotation would
        // append a local checkpoint marker, stealing an LSN the
        // primary's stream has already assigned to a different record).
        let replica_marker = dir.join("replica").exists();
        let (records, _) = Wal::replay(dir)?;
        // A crash can tear an in-place catalog rewrite, leaving the
        // page-0 chain unreadable — but every such rewrite is preceded
        // by a synced page image (and DDL by a snapshot) in the log, so
        // a non-empty log rebuilds it. An empty log cannot: surface the
        // corruption instead of silently starting empty.
        let disk_catalog = match catalog::load(&pool) {
            Ok(c) => Some(c),
            Err(_) if !records.is_empty() => None,
            Err(e) => return Err(e),
        };
        let (outcome, mut recovered) = recovery::recover(&pool, &records, disk_catalog)?;
        // Restart the transaction-id allocator above every id ever
        // handed out: the floor the last catalog save recorded, and
        // anything the replayed log mentions (the catalog on disk may
        // predate the log tail).
        let logged_txns = records.iter().filter_map(WalRecord::txn).max();
        let txn_floor = recovered
            .txn_floor
            .max(logged_txns.map_or(0, |t| t + 1))
            .max(1);
        recovered.txn_floor = txn_floor;
        let mut wal = Wal::open_with(dir, vfs)?;
        if !records.is_empty() && !replica_marker {
            // Make the recovered state the new base and empty the log.
            // The checkpoint marker tells a replication reader that the
            // stream is checkpoint-consistent at the rotation boundary.
            // A replica keeps its log as-is: the fold above was
            // idempotent, the stream resumes at next-LSN, and the log
            // rotates at the next replicated checkpoint marker.
            catalog::save(&pool, &recovered)?;
            pool.flush_all()?;
            wal.append(&WalRecord::Checkpoint)?;
            wal.sync()?;
            wal.truncate()?;
        }
        let durable_lsn = wal.next_lsn();
        let metrics = EngineMetrics::register(registry, &pool);
        let inner = Arc::new(Inner {
            pool,
            wal: Mutex::new(WalInner {
                wal,
                seq: 0,
                synced: 0,
                poisoned: false,
                appends: Arc::clone(&metrics.wal_appends),
            }),
            catalog: RwLock::new(recovered),
            heaps: Mutex::new(HashMap::new()),
            gate: Gate::default(),
            recovery: outcome,
            next_txn: AtomicU64::new(txn_floor),
            dir: dir.to_path_buf(),
            metrics,
            replica: AtomicBool::new(replica_marker),
            durable_lsn: AtomicU64::new(durable_lsn),
        });
        // Eviction flush barrier: a `Weak` breaks the cycle (`Inner` owns
        // the pool, the pool's barrier reaches back into `Inner`). An
        // upgrade failure means the engine is mid-drop, where nothing can
        // log the protective page image any more — refuse the eviction
        // (the frame stays resident); the shutdown path flushes dirty
        // pages itself, with images.
        let weak = Arc::downgrade(&inner);
        inner
            .pool
            .set_flush_barrier(Box::new(move |pages, _lsn| match weak.upgrade() {
                Some(inner) => inner.eviction_barrier(pages),
                None => Err(StorageError::Corrupt(
                    "dirty eviction during engine shutdown".into(),
                )),
            }));
        Ok(StorageEngine { inner })
    }

    /// The outcome of the recovery pass run at [`StorageEngine::open`].
    pub fn last_recovery(&self) -> RecoveryOutcome {
        self.inner.recovery.clone()
    }

    /// Directory holding the database files.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts a transaction: waits for the gate's exclusive side (for
    /// every open snapshot and any other thread's transaction to finish).
    /// A second `begin` from the thread that already has a transaction or
    /// snapshot open fails with [`StorageError::GateHeld`] instead of
    /// waiting on itself. The `Begin` record is logged lazily at the
    /// transaction's first write: read-only transactions must leave the
    /// WAL untouched, both to keep it lean and because a replica's local
    /// LSN must track the primary's stream exactly — a locally logged
    /// record would desynchronise the replication cursor.
    pub fn begin(&self) -> Result<Txn> {
        let id = self.inner.next_txn.fetch_add(1, Ordering::AcqRel);
        self.inner.gate.lock_exclusive(Some(id))?;
        self.inner.metrics.txn_begins.inc();
        self.inner.metrics.txn_active.add(1);
        Ok(Txn {
            id,
            undo: Vec::new(),
            finished: false,
            began: false,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Logs the deferred `Begin` before a transaction's first write
    /// record. Must run under no page latch the logged write also needs.
    fn begin_write(&self, txn: &mut Txn) -> Result<()> {
        if !txn.began {
            self.inner.log(&WalRecord::Begin { txn: txn.id })?;
            txn.began = true;
        }
        Ok(())
    }

    /// Commits: makes the log durable, then releases the gate (the handle
    /// drops). A transaction that never wrote logs nothing and syncs
    /// nothing.
    pub fn commit(&self, mut txn: Txn) -> Result<()> {
        self.check_active(&txn)?;
        // Whatever happens below, the drop must not roll back: after a
        // failed sync the commit record may or may not have persisted, so
        // recovery at the next open is the only authority and the pages
        // are left alone. The gate is released either way.
        txn.finished = true;
        if txn.began {
            let seq = self.inner.log(&WalRecord::Commit { txn: txn.id })?;
            self.inner.sync_to(seq)?;
        }
        self.inner.metrics.txn_commits.inc();
        Ok(())
    }

    /// Aborts: rolls back the transaction's effects, releases the gate.
    pub fn abort(&self, mut txn: Txn) -> Result<()> {
        self.check_active(&txn)?;
        txn.finished = true;
        self.inner.rollback(txn.id, &mut txn.undo, txn.began)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Creates a table, returning its id. Auto-committed structurally.
    pub fn create_table(&self, name: &str) -> Result<TableId> {
        let mut cat = self.inner.catalog.write().unwrap();
        if cat.tables.contains_key(name) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        let hf = HeapFile::create(&self.inner.pool)?;
        let id = cat.next_table_id.max(1); // id 0 is reserved
        cat.next_table_id = id + 1;
        cat.tables.insert(
            name.to_string(),
            TableMeta {
                id,
                first_page: hf.first_page(),
            },
        );
        self.inner.heaps.lock().unwrap().insert(id, hf);
        self.inner.snapshot_catalog(&cat)?;
        Ok(id)
    }

    /// Drops a table. Pages are leaked (no free list); reclaim by
    /// checkpoint-copying into a fresh database.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut cat = self.inner.catalog.write().unwrap();
        let meta = cat
            .tables
            .remove(name)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))?;
        self.inner.heaps.lock().unwrap().remove(&meta.id);
        self.inner.snapshot_catalog(&cat)?;
        Ok(())
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        let cat = self.inner.catalog.read().unwrap();
        cat.tables
            .get(name)
            .map(|m| m.id)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// All table names in the catalog.
    pub fn table_names(&self) -> Vec<String> {
        let cat = self.inner.catalog.read().unwrap();
        cat.tables.keys().cloned().collect()
    }

    /// Answers "no index": an empty list for an existing table,
    /// [`StorageError::NoSuchTable`] otherwise — the engine keeps no
    /// index. Kept only because `benchmark/src/probe.rs` calls it;
    /// ROADMAP item 2.1 deletes that call and this function.
    pub fn index_names(&self, table: TableId) -> Result<Vec<String>> {
        let cat = self.inner.catalog.read().unwrap();
        cat.table_by_id(table)
            .ok_or_else(|| StorageError::NoSuchTable(format!("#{table}")))?;
        Ok(Vec::new())
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Inserts a record, returning its rid.
    pub fn insert(&self, txn: &mut Txn, table: TableId, body: &[u8]) -> Result<Rid> {
        self.check_active(txn)?;
        let rid = self
            .inner
            .with_heap(table, |h| self.insert_logged(h, txn, table, body))?;
        txn.undo.push(UndoOp::Insert { rid });
        Ok(rid)
    }

    /// Inserts `body` into the heap `h` and logs it, preceded by the
    /// `LinkPage` record when the insert chained a new page.
    fn insert_logged(
        &self,
        h: &mut HeapFile,
        txn: &mut Txn,
        table: TableId,
        body: &[u8],
    ) -> Result<Rid> {
        let (rid, link) = h.insert(&self.inner.pool, body)?;
        let mut recs = Vec::with_capacity(2);
        let mut pages = Vec::with_capacity(2);
        if let Some((from_page, new_page)) = link {
            recs.push(WalRecord::LinkPage {
                table,
                from_page,
                new_page,
            });
            pages.push(from_page);
        }
        recs.push(WalRecord::Insert {
            txn: txn.id,
            table,
            rid,
            body: body.to_vec(),
        });
        pages.push(rid.page);
        self.begin_write(txn)?;
        self.inner.log_published(&recs, &pages)?;
        Ok(rid)
    }

    /// Reads a record.
    pub fn get(&self, txn: &mut Txn, _table: TableId, rid: Rid) -> Result<Option<Vec<u8>>> {
        self.check_active(txn)?;
        HeapFile::get(&self.inner.pool, rid)
    }

    /// Updates a record in place. If the new body no longer fits in the
    /// record's page, the update is performed as delete+reinsert and the
    /// *new* rid is returned; otherwise the original rid is returned.
    pub fn update(&self, txn: &mut Txn, table: TableId, rid: Rid, body: &[u8]) -> Result<Rid> {
        self.check_active(txn)?;
        self.inner.with_heap(table, |h| {
            let old =
                HeapFile::get(&self.inner.pool, rid)?.ok_or(StorageError::RecordNotFound {
                    page: rid.page,
                    slot: rid.slot,
                })?;
            if HeapFile::update(&self.inner.pool, rid, body)? {
                self.begin_write(txn)?;
                self.inner.log_published(
                    &[WalRecord::Update {
                        txn: txn.id,
                        table,
                        rid,
                        old: old.clone(),
                        new: body.to_vec(),
                    }],
                    &[rid.page],
                )?;
                txn.undo.push(UndoOp::Update { rid, old });
                return Ok(rid);
            }
            // Did not fit: move the record.
            h.delete(&self.inner.pool, rid)?;
            self.begin_write(txn)?;
            self.inner.log_published(
                &[WalRecord::Delete {
                    txn: txn.id,
                    table,
                    rid,
                    old: old.clone(),
                }],
                &[rid.page],
            )?;
            txn.undo.push(UndoOp::Delete { rid, old });
            let new_rid = self.insert_logged(h, txn, table, body)?;
            txn.undo.push(UndoOp::Insert { rid: new_rid });
            Ok(new_rid)
        })
    }

    /// Deletes a record, returning its old body.
    pub fn delete(&self, txn: &mut Txn, table: TableId, rid: Rid) -> Result<Vec<u8>> {
        self.check_active(txn)?;
        let old = (self.inner).with_heap(table, |h| h.delete(&self.inner.pool, rid))?;
        self.begin_write(txn)?;
        self.inner.log_published(
            &[WalRecord::Delete {
                txn: txn.id,
                table,
                rid,
                old: old.clone(),
            }],
            &[rid.page],
        )?;
        txn.undo.push(UndoOp::Delete {
            rid,
            old: old.clone(),
        });
        Ok(old)
    }

    /// Scans every record of a table.
    pub fn scan(&self, txn: &mut Txn, table: TableId) -> Result<Vec<(Rid, Vec<u8>)>> {
        self.check_active(txn)?;
        self.inner.scan(table)
    }

    // ------------------------------------------------------------------
    // Snapshot reads
    // ------------------------------------------------------------------

    /// Opens a [`ReadSnapshot`]: waits for the gate's shared side (for
    /// any other thread's open transaction to finish), after which the
    /// snapshot sees exactly the committed state until it drops. Opened
    /// from the thread that itself has a transaction open, the snapshot
    /// is refused rather than left waiting on its own thread: every read
    /// through it returns [`StorageError::GateHeld`].
    pub fn snapshot(&self) -> ReadSnapshot {
        ReadSnapshot {
            inner: Arc::clone(&self.inner),
            held: self.inner.gate.lock_shared(),
        }
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Copies the live contents of this database into a fresh database at
    /// `dir`, reclaiming the space of dropped tables and dead records
    /// (heap pages are never shrunk in place). Record ids change. Reads the
    /// source through one [`ReadSnapshot`], so it waits for another
    /// thread's transaction and is refused on the thread that has one
    /// open. Returns the new engine.
    pub fn vacuum_into(&self, dir: &Path) -> Result<StorageEngine> {
        let source = self.snapshot();
        source.check_held()?;
        let new = StorageEngine::open(dir)?;
        for name in self.table_names() {
            let old_table = self.table_id(&name)?;
            let new_table = new.create_table(&name)?;
            let mut new_txn = new.begin()?;
            for (_, body) in source.scan(old_table)? {
                new.insert(&mut new_txn, new_table, &body)?;
            }
            new.commit(new_txn)?;
        }
        new.checkpoint()?;
        Ok(new)
    }

    /// Flushes all state and truncates the write-ahead log, under the
    /// gate's exclusive side: an open transaction's undo information
    /// lives in the log, so the checkpoint waits for another thread's
    /// transaction to finish and is refused
    /// ([`StorageError::GateHeld`]) on the thread that has one open.
    pub fn checkpoint(&self) -> Result<()> {
        let _exclusive = self.inner.gate.maintenance()?;
        self.checkpoint_gated()
    }

    fn checkpoint_gated(&self) -> Result<()> {
        if self.inner.replica.load(Ordering::Acquire) {
            // A replica's log holds the primary's stream; a local
            // checkpoint would append its own records into that LSN
            // space. Replicas fold via `replica_checkpoint` instead.
            return Err(StorageError::Replication(
                "replica engines checkpoint via replica_checkpoint".into(),
            ));
        }
        self.inner.checkpoint()
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// LSN the next locally appended (or replicated) record will get.
    pub fn wal_next_lsn(&self) -> u64 {
        self.inner.wal.lock().unwrap().wal.next_lsn()
    }

    /// Highest LSN known durable: safe to stream to replicas.
    pub fn wal_durable_lsn(&self) -> u64 {
        self.inner.durable_lsn.load(Ordering::Acquire)
    }

    /// Turns on WAL archive mode: log rotation copies outgoing frames
    /// into `<dir>/wal-archive/` segments instead of discarding them, so
    /// the full history stays replayable (replica bootstrap, point-in-
    /// time restore). On first enablement the engine seeds the archive
    /// with a catalog snapshot and a full image of every page — history
    /// rotated away *before* archiving exists only in the data pages —
    /// then checkpoints, rotating the snapshot into the first segment.
    /// Takes the gate as [`StorageEngine::checkpoint`] does. Idempotent;
    /// sticky across opens.
    pub fn enable_wal_archive(&self) -> Result<()> {
        let _exclusive = self.inner.gate.maintenance()?;
        let newly = self.inner.wal.lock().unwrap().wal.enable_archive()?;
        if !newly {
            return Ok(());
        }
        {
            let mut cat = self.inner.catalog.read().unwrap().clone();
            cat.txn_floor = self.inner.next_txn.load(Ordering::Acquire);
            self.inner.log(&WalRecord::CatalogSnapshot {
                bytes: cat.to_bytes(),
            })?;
        }
        for page in 0..self.inner.pool.num_pages() {
            let bytes = self.inner.pool.with_page(page, |b| b.to_vec())?;
            self.inner.log(&WalRecord::PageImage { page, bytes })?;
        }
        self.checkpoint_gated()
    }

    /// Reads encoded records at and above `from_lsn`, up to roughly
    /// `max_bytes`, never past the durable watermark. Returns the batch
    /// (LSN, payload) and the durable watermark itself, which doubles as
    /// the lag reference for the replica. Holds the log latch so a
    /// concurrent rotation cannot swap files mid-read.
    pub fn wal_read_from(&self, from_lsn: u64, max_bytes: usize) -> Result<(WalBatch, u64)> {
        let durable = self.wal_durable_lsn();
        let w = self.inner.wal.lock().unwrap();
        let mut out = Vec::new();
        let mut total = 0usize;
        for item in w.wal.read_from(from_lsn)? {
            let (lsn, rec) = item?;
            if lsn >= durable {
                break;
            }
            let mut payload = Vec::with_capacity(64);
            rec.encode(&mut payload);
            total += payload.len() + 12;
            out.push((lsn, payload));
            if total >= max_bytes {
                break;
            }
        }
        Ok((out, durable))
    }

    /// Switches the engine in or out of replica mode. In replica mode
    /// local transactions must not run; the log is fed exclusively by
    /// [`StorageEngine::replica_apply`]. Promotion flips this back off,
    /// after which the engine appends from where the stream left off —
    /// the LSN space continues seamlessly.
    ///
    /// The role is persisted as a `replica` marker file so a restarted
    /// replica reopens as one: the ordinary open path would otherwise
    /// rotate the log, appending a local checkpoint marker into an LSN
    /// slot the primary's stream has already assigned. (Losing the
    /// *removal* on a crashed promotion errs the safe way — the node
    /// comes back read-only.)
    pub fn set_replica(&self, on: bool) -> Result<()> {
        let marker = self.inner.dir.join("replica");
        if on {
            std::fs::File::create(&marker)?.sync_all()?;
        } else if marker.exists() {
            std::fs::remove_file(&marker)?;
        }
        self.inner.replica.store(on, Ordering::Release);
        Ok(())
    }

    /// True when the engine is in replica mode.
    pub fn is_replica(&self) -> bool {
        self.inner.replica.load(Ordering::Acquire)
    }

    /// Appends a batch of replicated records (LSN, encoded payload) to
    /// the local log verbatim and syncs it. Records below the local
    /// next-LSN are duplicates (crash-window overlap) and are skipped; a
    /// gap is an error except on a virgin log, which re-bases to the
    /// batch start (a primary whose history begins at an archive
    /// snapshot streams from that snapshot's LSN, not 0). Returns the
    /// new next-LSN (= applied watermark).
    pub fn replica_apply(&self, batch: &[(u64, Vec<u8>)]) -> Result<u64> {
        if !self.is_replica() {
            return Err(StorageError::Replication(
                "replica_apply on a non-replica engine".into(),
            ));
        }
        let mut w = self.inner.wal.lock().unwrap();
        for (lsn, payload) in batch {
            let next = w.wal.next_lsn();
            if *lsn < next {
                continue;
            }
            if *lsn > next {
                if next == 0 {
                    w.wal.reset_base(*lsn)?;
                } else {
                    return Err(StorageError::Replication(format!(
                        "gap in replication stream: have {next}, got {lsn}"
                    )));
                }
            }
            let rec = WalRecord::decode(payload).ok_or_else(|| {
                StorageError::Replication(format!("undecodable record at lsn {lsn}"))
            })?;
            // Track the primary's id space: promotion must allocate
            // above every replicated transaction.
            if let Some(t) = rec.txn() {
                self.inner.next_txn.fetch_max(t + 1, Ordering::AcqRel);
            }
            w.append(&rec)?;
        }
        w.wal.sync()?;
        w.synced = w.seq;
        let applied = w.wal.next_lsn();
        self.inner.durable_lsn.fetch_max(applied, Ordering::AcqRel);
        Ok(applied)
    }

    /// Folds the local log into the data pages through the recovery
    /// machinery (idempotent: positional redo, wholesale page images)
    /// and installs the resulting catalog.
    /// Incomplete transactions in the log tail are undone in the pages —
    /// exactly crash semantics — but their records remain in the log, so
    /// a later fold (after their Commit arrives) re-applies them.
    pub fn replica_refresh(&self) -> Result<()> {
        if !self.is_replica() {
            return Err(StorageError::Replication(
                "replica_refresh on a non-replica engine".into(),
            ));
        }
        self.fold_log()
    }

    /// As [`StorageEngine::replica_refresh`], then flushes the pages and
    /// rotates the local log (into the replica's own archive when
    /// enabled), bounding its growth. Only legal when the stream is
    /// positioned exactly at a checkpoint marker: the primary guarantees
    /// no transaction spans a marker, so rotation cannot discard records
    /// a committed transaction still needs.
    pub fn replica_checkpoint(&self) -> Result<()> {
        if !self.is_replica() {
            return Err(StorageError::Replication(
                "replica_checkpoint on a non-replica engine".into(),
            ));
        }
        let (records, _) = Wal::replay(&self.inner.dir)?;
        if records.is_empty() {
            return Ok(());
        }
        if !matches!(records.last(), Some(WalRecord::Checkpoint)) {
            return Err(StorageError::Replication(
                "replica checkpoint requires the stream to sit at a checkpoint marker".into(),
            ));
        }
        self.fold_records(&records)?;
        {
            let mut cat = self.inner.catalog.read().unwrap().clone();
            cat.txn_floor = self.inner.next_txn.load(Ordering::Acquire);
            catalog::save(&self.inner.pool, &cat)?;
        }
        // Plain flush: a replica logs no page images (see
        // `eviction_barrier`); a tear here is repaired by re-seeding.
        self.inner.pool.flush_all()?;
        self.inner.truncate_wal()
    }

    fn fold_log(&self) -> Result<()> {
        let (records, _) = Wal::replay(&self.inner.dir)?;
        if records.is_empty() {
            return Ok(());
        }
        self.fold_records(&records)
    }

    fn fold_records(&self, records: &[WalRecord]) -> Result<()> {
        // The fold rewrites pages through the recovery machinery, whose
        // intermediate states (losers applied, not yet undone) no
        // snapshot may observe: the exclusive side drains open snapshots
        // and holds new ones off.
        let _exclusive = self.inner.gate.maintenance()?;
        let base = self.inner.catalog.read().unwrap().clone();
        let (_, recovered) = recovery::recover(&self.inner.pool, records, Some(base))?;
        *self.inner.catalog.write().unwrap() = recovered;
        self.inner.heaps.lock().unwrap().clear();
        Ok(())
    }

    /// A point-in-time snapshot of every metric registered with this
    /// engine's registry (pool, WAL, transactions — plus whatever
    /// the embedding layer registered when it shared the registry).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.inner.metrics.registry.snapshot()
    }

    /// The metrics registry this engine reports into.
    pub fn metrics_registry(&self) -> Registry {
        self.inner.metrics.registry.clone()
    }

    /// Number of pages in the database file.
    pub fn num_pages(&self) -> u64 {
        self.inner.pool.num_pages()
    }

    /// A live handle holds the gate, so it *is* the active transaction;
    /// the one way to get this wrong is handing it to another engine.
    fn check_active(&self, txn: &Txn) -> Result<()> {
        if !Arc::ptr_eq(&txn.inner, &self.inner) {
            return Err(StorageError::TxnNotActive(txn.id));
        }
        Ok(())
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Best-effort clean shutdown: checkpoint so the next open skips
        // recovery. Every `Txn` and `ReadSnapshot`
        // keeps `Inner` alive, so none is open here and the gate is
        // free. `Inner` is dropping, so these latches have no other
        // holders; one a panicking holder poisoned still guards the data.
        self.wal.clear_poison();
        self.catalog.clear_poison();
        if self.wal.get_mut().unwrap().poisoned {
            // A failed WAL fsync poisoned the engine: nothing since is
            // known durable, so a shutdown checkpoint (flush pages,
            // truncate the log) would *discard* the very log records
            // recovery needs. Leave every file exactly as it is.
            return;
        }
        if self.replica.load(Ordering::Acquire) {
            // A replica's log is the primary's stream: the shutdown
            // checkpoint would fold and discard records the next fold
            // still needs, and would append local records into the
            // stream's LSN space. Sync what arrived and stop.
            let _ = self.wal.get_mut().unwrap().wal.sync();
            return;
        }
        // The barrier's `Weak` is dead by now, so saving the catalog may
        // fail if it needs to evict a dirty page; that just downgrades
        // the clean shutdown to a recovery on next open.
        let _ = self.checkpoint();
    }
}
