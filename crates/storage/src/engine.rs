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
//! DDL, eviction on a reader's behalf) safe against the writer and each
//! other:
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
//! in this order. The pool sits before the log because a heap change
//! appends its WAL record under the pool latch, and dirty eviction
//! (which runs under it too) may need to sync the log (the flush
//! barrier, below). Nothing takes the pool latch while holding the log
//! latch. Page closures never re-enter the pool. The gate is only ever
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
//! Log first, then write the page. Every heap insert, update and delete
//! is one pool visit ([`BufferPool::with_page_mut_logged`]) per page it
//! changes: under the pool latch the heap decides the slot or the fit
//! read-only, the engine appends the covering record(s), the heap
//! changes the page, and the pool stamps the frame's page-LSN with the
//! record's sequence before the latch is released. Eviction of a dirty
//! frame first runs a *flush barrier* that syncs the WAL through that
//! LSN (counted by `mdm_wal_eviction_syncs_total`), one call covering
//! the victim and its dirty neighbours. This is the ARIES write-ahead
//! rule specialized to logical logging: no page reaches disk before the
//! log covers its last logged change.
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
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
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
use crate::heap::{Change, HeapFile};
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
    /// Per change, newest last: the record state to restore at a rid
    /// (`None` = the slot was empty).
    undo: Vec<(Rid, Option<Vec<u8>>)>,
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

/// The WAL behind its latch, plus a monotonic sequence number (one per
/// appended record, never reset by a truncate) and the highest sequence
/// number known durable.
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
    /// `mdm_wal_next_lsn`: the LSN the next appended record gets.
    next_lsn: Arc<Gauge>,
}

impl WalInner {
    fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        self.wal.append(rec)?;
        self.seq += 1;
        self.appends.inc();
        self.next_lsn.set(self.wal.next_lsn() as i64);
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
    /// Highest LSN known durable (flushed and fsynced, or truncated after
    /// a checkpoint): replication reads records strictly below it. Only
    /// ever raised, under the log latch.
    wal_durable_lsn: Arc<Gauge>,
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
            wal_durable_lsn: registry.gauge(
                "mdm_wal_durable_lsn",
                "highest LSN known durable: what replicas may read below",
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
    /// data directory (the catalog persists the floor).
    next_txn: AtomicU64,
    metrics: EngineMetrics,
}

impl Inner {
    /// Appends one record, returning its sequence number.
    fn log(&self, rec: &WalRecord) -> Result<u64> {
        let _sp = trace::span("storage.wal_append");
        self.wal.lock().unwrap().append(rec)
    }

    /// Logs one heap change of `txn`, preceded by the transaction's
    /// deferred `Begin` at its first write, and keeps what undoes it.
    /// Runs inside the pool visit that makes the change, under the pool
    /// latch (the log latch comes after it in the latch order). Returns
    /// the sequence of the change's last record: the page's new LSN.
    fn log_change(&self, txn: &mut Txn, table: TableId, change: Change<'_>) -> Result<u64> {
        let _sp = trace::span("storage.wal_append");
        let mut w = self.wal.lock().unwrap();
        if !txn.began {
            w.append(&WalRecord::Begin { txn: txn.id })?;
            txn.began = true;
        }
        let (rec, undo) = match change {
            Change::Insert { rid, body, link } => {
                if let Some((from_page, new_page)) = link {
                    w.append(&WalRecord::LinkPage {
                        table,
                        from_page,
                        new_page,
                    })?;
                }
                let rec = WalRecord::Insert {
                    txn: txn.id,
                    table,
                    rid,
                    body: body.to_vec(),
                };
                (rec, (rid, None))
            }
            Change::Update { rid, old, body } => {
                let rec = WalRecord::Update {
                    txn: txn.id,
                    table,
                    rid,
                    old: old.to_vec(),
                    new: body.to_vec(),
                };
                (rec, (rid, Some(old.to_vec())))
            }
            Change::Delete { rid, old } => {
                let rec = WalRecord::Delete {
                    txn: txn.id,
                    table,
                    rid,
                    old: old.to_vec(),
                };
                (rec, (rid, Some(old.to_vec())))
            }
        };
        let seq = w.append(&rec)?;
        txn.undo.push(undo);
        Ok(seq)
    }

    /// The eviction flush barrier: logs a durable full-page image of the
    /// bytes eviction is about to write in place, for every page of the
    /// batch. Appending the images gives them sequences past the frames'
    /// page-LSNs, so the one sync covers both the write-ahead rule and
    /// torn-write protection.
    fn eviction_barrier(&self, pages: &[(PageId, Vec<u8>)]) -> Result<()> {
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
        self.raise_durable(&w);
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
    fn truncate_wal(&self, floor: Option<u64>) -> Result<()> {
        let mut w = self.wal.lock().unwrap();
        match floor {
            Some(floor) => w.wal.truncate_past(floor)?,
            None => w.wal.truncate()?,
        }
        w.synced = w.seq;
        w.next_lsn.set(w.wal.next_lsn() as i64);
        self.raise_durable(&w);
        Ok(())
    }

    /// Raises the durable LSN to the log's next LSN; under the log latch.
    fn raise_durable(&self, w: &WalInner) {
        let durable = &self.metrics.wal_durable_lsn;
        durable.set(durable.get().max(w.wal.next_lsn() as i64));
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
    /// truncates the log, numbering it from at least `floor` if given
    /// ([`StorageEngine::checkpoint_past`]). The live checkpoint and a
    /// clean shutdown both run it.
    fn checkpoint(&self, floor: Option<u64>) -> Result<()> {
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
        self.truncate_wal(floor)
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
    fn rollback(
        &self,
        id: TxnId,
        undo: &mut Vec<(Rid, Option<Vec<u8>>)>,
        began: bool,
    ) -> Result<()> {
        for (rid, old) in undo.drain(..).rev() {
            HeapFile::apply_at(&self.pool, rid, old.as_deref())?;
        }
        if began {
            self.log(&WalRecord::Abort { txn: id })?;
        }
        self.metrics.txn_aborts.inc();
        Ok(())
    }
}

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
        let (mut wal, records) = Wal::open_with(dir, vfs)?;
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
        if !records.is_empty() {
            // Make the recovered state the new base and empty the log.
            catalog::save(&pool, &recovered)?;
            pool.flush_all()?;
            wal.truncate()?;
        }
        let metrics = EngineMetrics::register(registry, &pool);
        metrics.wal_durable_lsn.set(wal.next_lsn() as i64);
        let next_lsn = registry.gauge(
            "mdm_wal_next_lsn",
            "LSN the next appended WAL record will get",
        );
        next_lsn.set(wal.next_lsn() as i64);
        let inner = Arc::new(Inner {
            pool,
            wal: Mutex::new(WalInner {
                wal,
                seq: 0,
                synced: 0,
                poisoned: false,
                appends: Arc::clone(&metrics.wal_appends),
                next_lsn,
            }),
            catalog: RwLock::new(recovered),
            heaps: Mutex::new(HashMap::new()),
            gate: Gate::default(),
            recovery: outcome,
            next_txn: AtomicU64::new(txn_floor),
            metrics,
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

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts a transaction: waits for the gate's exclusive side (for
    /// every open snapshot and any other thread's transaction to finish).
    /// A second `begin` from the thread that already has a transaction or
    /// snapshot open fails with [`StorageError::GateHeld`] instead of
    /// waiting on itself. The `Begin` record is logged lazily at the
    /// transaction's first write: read-only transactions leave the WAL
    /// untouched, which keeps it lean.
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

    /// Commits: makes the log durable, then releases the gate (the handle
    /// drops). A transaction that never wrote logs nothing and syncs
    /// nothing.
    pub fn commit(&self, txn: Txn) -> Result<()> {
        self.finish_commit(txn, true)
    }

    /// As [`commit`](Self::commit), for a transaction whose rows no
    /// replica reads: a checkpoint that truncates its `Commit` leaves the
    /// commit horizon where it was, so a replica positioned before it
    /// still resumes from the log. (Recovery cannot tell the two apart:
    /// a log reopened after a crash counts every `Commit` it holds.)
    pub fn commit_local(&self, txn: Txn) -> Result<()> {
        self.finish_commit(txn, false)
    }

    fn finish_commit(&self, mut txn: Txn, streamed: bool) -> Result<()> {
        self.check_active(&txn)?;
        // Whatever happens below, the drop must not roll back: after a
        // failed sync the commit record may or may not have persisted, so
        // recovery at the next open is the only authority and the pages
        // are left alone. The gate is released either way.
        txn.finished = true;
        if txn.began {
            let seq = {
                let _sp = trace::span("storage.wal_append");
                let mut w = self.inner.wal.lock().unwrap();
                let seq = w.append(&WalRecord::Commit { txn: txn.id })?;
                if streamed {
                    w.wal.note_commit();
                }
                seq
            };
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
        self.inner.with_heap(table, |h| {
            h.insert(&self.inner.pool, body, |c| {
                self.inner.log_change(txn, table, c)
            })
        })
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
            h.update(&self.inner.pool, rid, body, |c| {
                self.inner.log_change(txn, table, c)
            })
        })
    }

    /// Deletes a record, returning its old body.
    pub fn delete(&self, txn: &mut Txn, table: TableId, rid: Rid) -> Result<Vec<u8>> {
        self.check_active(txn)?;
        self.inner.with_heap(table, |h| {
            h.delete(&self.inner.pool, rid, |c| {
                self.inner.log_change(txn, table, c)
            })
        })
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
        self.inner.checkpoint(None)
    }

    /// As [`checkpoint`](Self::checkpoint), numbering the log from at
    /// least `floor` and claiming no history below the new base: a
    /// [`wal_read_from`](Self::wal_read_from) below it is
    /// [`StorageError::LogTruncated`]. A replica promoted to primary
    /// continues the LSN space of the primary it followed this way.
    pub fn checkpoint_past(&self, floor: u64) -> Result<()> {
        let _exclusive = self.inner.gate.maintenance()?;
        self.inner.checkpoint(Some(floor))
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// LSN the next appended record will get.
    pub fn wal_next_lsn(&self) -> u64 {
        self.inner.wal.lock().unwrap().wal.next_lsn()
    }

    /// Bytes of write-ahead log since the last checkpoint.
    pub fn wal_bytes(&self) -> u64 {
        self.inner.wal.lock().unwrap().wal.bytes()
    }

    /// Highest LSN known durable: safe to stream to replicas.
    pub fn wal_durable_lsn(&self) -> u64 {
        self.inner.metrics.wal_durable_lsn.get() as u64
    }

    /// Reads the durable records at and above `from_lsn`, up to roughly
    /// `max_bytes` of frames, with the durable watermark (exclusive) the
    /// read stopped at. A `from_lsn` below the live log's base reads from
    /// the base if it is at or past the commit horizon, since rotation
    /// removed no committed transaction there; otherwise the history is
    /// gone ([`StorageError::LogTruncated`]). A `from_lsn` past the
    /// durable watermark names history this log never had
    /// ([`StorageError::AheadOfLog`]). Holds the log latch, so a
    /// concurrent rotation cannot swap the file mid-read.
    pub fn wal_read_from(
        &self,
        from_lsn: u64,
        max_bytes: usize,
    ) -> Result<(Vec<(u64, WalRecord)>, u64)> {
        let w = self.inner.wal.lock().unwrap();
        let durable = self.wal_durable_lsn();
        if from_lsn > durable {
            return Err(StorageError::AheadOfLog {
                from: from_lsn,
                durable,
            });
        }
        let base = w.wal.base_lsn();
        if from_lsn < base && from_lsn < w.wal.horizon() {
            return Err(StorageError::LogTruncated {
                from: from_lsn,
                horizon: w.wal.horizon(),
            });
        }
        let records = w.wal.read_from(from_lsn.max(base), durable, max_bytes)?;
        Ok((records, durable))
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
        // The barrier's `Weak` is dead by now, so saving the catalog may
        // fail if it needs to evict a dirty page; that just downgrades
        // the clean shutdown to a recovery on next open.
        let _ = self.checkpoint(None);
    }
}
