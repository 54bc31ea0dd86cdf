//! The buffer pool: a sharded in-memory page cache with CLOCK eviction.
//!
//! Access is closure-based (`with_page` / `with_page_mut`) rather than
//! guard-based, which keeps lifetimes simple. The pool is internally
//! sharded: each page id maps to one of up to 16 shards (`page_id %
//! num_shards`), and each shard owns its frames, its page map, its own
//! CLOCK hand, and its own hit/miss/eviction counters behind a private
//! mutex. Threads touching different pages therefore fault, hit, and
//! evict independently; the engine no longer needs any external latch
//! around page access.
//!
//! A closure runs while its shard latch is held, so closures must never
//! re-enter the pool (no nested `with_page*` calls) — the storage
//! layer's access patterns are all flat single-page operations.
//!
//! # Page-LSN flush discipline
//!
//! The engine mutates pages first and appends the covering WAL record
//! after, so the record's sequence number is unknown at mutation time.
//! [`BufferPool::with_page_mut_logged`] therefore marks the frame
//! *pending*: it is pinned against eviction until the engine calls
//! [`BufferPool::publish_lsn`] with the appended record's sequence
//! number, which stamps the frame's LSN. When CLOCK later evicts a
//! dirty frame, it first runs the engine-installed *flush barrier*
//! ([`BufferPool::set_flush_barrier`]) to sync the WAL through the
//! frame's LSN — the ARIES write-ahead rule: no page reaches disk
//! before the log records describing its changes. The barrier is the
//! expensive step (a log sync), so one call covers the victim *and* up
//! to `FLUSH_BATCH - 1` further dirty, unpinned frames of the same
//! shard: those are written in place too and stay resident, now clean,
//! so the evictions that follow need no sync of their own. For the same
//! reason the sweep is clean-first under a barrier: a dirty frame is
//! passed over while a clean one can go. Without a
//! barrier installed (standalone pool use, recovery, unlogged B+tree
//! and catalog writes) the logged variants degrade to plain mutable
//! access and eviction writes the victim directly.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use mdm_obs::{trace, Counter};

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};

/// Upper bound on shard count; small pools get fewer shards so each
/// shard still has at least two frames to run CLOCK over.
const MAX_SHARDS: usize = 16;

/// How many lock-release/yield cycles a loader tolerates when every
/// frame of a shard is pending a log publish, before giving up. The
/// pending window is the few microseconds between a page mutation and
/// its WAL append, so exhausting this bound means something is wrong.
const PIN_RETRY_LIMIT: u32 = 100_000;

/// Dirty frames one eviction flushes under a single barrier call: the
/// victim and its dirty shard neighbours. A workload larger than the
/// pool pays one log sync per this many page writes instead of one per
/// page.
const FLUSH_BATCH: usize = 16;

/// Runs before eviction writes dirty pages in place, with each page's id
/// and the bytes about to be written, and the highest page-LSN among
/// them. The engine uses it to (a) sync the WAL through that LSN (the
/// ARIES write-ahead rule) and (b) log durable full-page images first,
/// so a write torn by a crash can be recovered wholesale from the log.
pub type FlushBarrier = Box<dyn Fn(&[(PageId, Vec<u8>)], u64) -> Result<()> + Send + Sync>;

/// Pre-flush hook for [`BufferPool::flush_all_with`]: receives every
/// dirty frame's `(page, bytes)` in one batch before any in-place write.
pub type PreFlush<'a> = dyn Fn(&[(PageId, Vec<u8>)]) -> Result<()> + 'a;

struct Frame {
    page: PageId,
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
    /// Sequence number of the WAL record covering the last logged
    /// mutation (0 = never logged). Eviction syncs the log through this
    /// before writing the frame.
    lsn: u64,
    /// Logged mutations whose WAL record has not been appended yet; the
    /// frame is pinned against eviction while nonzero.
    pending: u32,
}

/// One shard: a fixed set of frames plus the CLOCK state over them.
struct Shard {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    clock_hand: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// Fixed-capacity sharded page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: DiskManager,
    shards: Vec<Mutex<Shard>>,
    barrier: OnceLock<FlushBarrier>,
}

impl BufferPool {
    /// Opens the database file in `dir` with a cache of `capacity` pages.
    pub fn open(dir: &Path, capacity: usize) -> Result<BufferPool> {
        Self::open_with(dir, capacity, &crate::backend::FileVfs)
    }

    /// As [`BufferPool::open`], sourcing the disk backend from `vfs`.
    pub fn open_with(
        dir: &Path,
        capacity: usize,
        vfs: &dyn crate::backend::Vfs,
    ) -> Result<BufferPool> {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        // Every shard needs ≥2 frames for CLOCK to have a choice, so the
        // shard count is bounded by capacity/2 as well as MAX_SHARDS.
        let num_shards = (capacity / 2).clamp(1, MAX_SHARDS);
        let per_shard = capacity.div_ceil(num_shards);
        let shards = (0..num_shards)
            .map(|_| {
                Mutex::new(Shard {
                    frames: (0..per_shard).map(|_| None).collect(),
                    map: HashMap::with_capacity(per_shard),
                    clock_hand: 0,
                    hits: Counter::new(),
                    misses: Counter::new(),
                    evictions: Counter::new(),
                })
            })
            .collect();
        Ok(BufferPool {
            disk: DiskManager::open_with(dir, vfs)?,
            shards,
            barrier: OnceLock::new(),
        })
    }

    /// Installs the eviction flush barrier (at most once, by the engine).
    /// From this point on, logged mutations pin their frames until
    /// [`BufferPool::publish_lsn`], and dirty evictions call the barrier
    /// with the frame's LSN before writing the page.
    pub fn set_flush_barrier(&self, barrier: FlushBarrier) {
        if self.barrier.set(barrier).is_err() {
            panic!("flush barrier installed twice");
        }
    }

    /// Registers this pool's per-shard hit/miss/eviction counters with a
    /// metrics registry.
    pub fn register_metrics(&self, registry: &mdm_obs::Registry) {
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().unwrap();
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &idx)];
            registry.register_counter_handle(
                "mdm_pool_hits_total",
                "buffer-pool page requests served from cache",
                labels,
                Arc::clone(&shard.hits),
            );
            registry.register_counter_handle(
                "mdm_pool_misses_total",
                "buffer-pool page requests that faulted from disk",
                labels,
                Arc::clone(&shard.misses),
            );
            registry.register_counter_handle(
                "mdm_pool_evictions_total",
                "buffer-pool frames evicted to make room",
                labels,
                Arc::clone(&shard.evictions),
            );
        }
    }

    /// Number of pages in the underlying file.
    pub fn num_pages(&self) -> u64 {
        self.disk.num_pages()
    }

    /// Number of shards the cache is split into (diagnostics/tests).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Cache statistics summed over shards: (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        let mut totals = (0, 0, 0);
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            totals.0 += shard.hits.get();
            totals.1 += shard.misses.get();
            totals.2 += shard.evictions.get();
        }
        totals
    }

    /// Allocates a fresh page (zeroed on disk) and returns its id.
    pub fn allocate_page(&self) -> Result<PageId> {
        self.disk.allocate_page()
    }

    /// Ensures pages up to `page` exist (recovery support).
    pub fn ensure_page(&self, page: PageId) -> Result<()> {
        self.disk.ensure_page(page)
    }

    fn shard(&self, page: PageId) -> &Mutex<Shard> {
        &self.shards[page as usize % self.shards.len()]
    }

    /// Locks the page's shard, loads the page, and runs `f` on its frame.
    /// Retries (releasing the latch) while the shard is wholly pinned by
    /// frames awaiting log publishes — that window is microseconds long.
    fn with_frame<R>(&self, page: PageId, f: impl FnOnce(&mut Frame) -> R) -> Result<R> {
        let mut spins = 0;
        loop {
            let mut shard = self.shard(page).lock().unwrap();
            if let Some(idx) = self.load(&mut shard, page)? {
                let frame = shard.frames[idx].as_mut().expect("frame just loaded");
                return Ok(f(frame));
            }
            drop(shard);
            spins += 1;
            if spins > PIN_RETRY_LIMIT {
                return Err(StorageError::Corrupt(
                    "buffer pool shard exhausted: every frame awaits a log publish".into(),
                ));
            }
            std::thread::yield_now();
        }
    }

    /// Runs `f` with read access to the page's bytes. The page's shard
    /// latch is held for the duration of `f`; `f` must not re-enter the
    /// pool.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.with_frame(page, |frame| f(&frame.data))
    }

    /// Runs `f` with write access to the page's bytes; the page is marked
    /// dirty. For *unlogged* mutations (B+tree nodes, catalog pages,
    /// recovery/rollback writes) whose durability does not depend on WAL
    /// ordering. The page's shard latch is held for the duration of `f`;
    /// `f` must not re-enter the pool.
    pub fn with_page_mut<R>(&self, page: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.with_frame(page, |frame| {
            frame.dirty = true;
            f(&mut frame.data)
        })
    }

    /// As [`BufferPool::with_page_mut`] for mutations that a WAL record
    /// will cover. `f` returns `(result, mutated)`; when `mutated` is
    /// true (and a flush barrier is installed) the frame is pinned until
    /// the caller appends the record and calls
    /// [`BufferPool::publish_lsn`]. A `false` report must mean the bytes
    /// are unchanged.
    pub fn with_page_mut_logged<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> (R, bool),
    ) -> Result<R> {
        let wal_mode = self.barrier.get().is_some();
        self.with_frame(page, |frame| {
            let (r, mutated) = f(&mut frame.data);
            if mutated {
                frame.dirty = true;
                if wal_mode {
                    frame.pending += 1;
                }
            }
            r
        })
    }

    /// Reports that the WAL record covering a logged mutation of `page`
    /// has been appended at sequence number `lsn`: unpins one pending
    /// mutation and raises the frame's page-LSN. Callers must publish
    /// exactly once per mutated `true` report from
    /// [`BufferPool::with_page_mut_logged`] (even if the append failed —
    /// publish the latest appended sequence to conservatively cover the
    /// orphaned change).
    pub fn publish_lsn(&self, page: PageId, lsn: u64) {
        let mut shard = self.shard(page).lock().unwrap();
        if let Some(&idx) = shard.map.get(&page) {
            let frame = shard.frames[idx].as_mut().expect("mapped frame");
            frame.pending = frame.pending.saturating_sub(1);
            frame.lsn = frame.lsn.max(lsn);
        }
    }

    /// Loads `page` into a frame, returning its index — or `None` when
    /// every frame of the shard is pinned pending a log publish.
    fn load(&self, shard: &mut Shard, page: PageId) -> Result<Option<usize>> {
        if let Some(&idx) = shard.map.get(&page) {
            shard.hits.inc();
            shard.frames[idx].as_mut().expect("mapped frame").referenced = true;
            return Ok(Some(idx));
        }
        shard.misses.inc();
        if page >= self.disk.num_pages() {
            return Err(StorageError::PageNotFound(page));
        }
        // A miss does real I/O (possibly a dirty eviction first): span it.
        let _sp = trace::span("storage.page_read");
        trace::annotate("page", page);
        let Some(idx) = self.victim(shard)? else {
            return Ok(None);
        };
        let mut data = match shard.frames[idx].take() {
            Some(f) => f.data,
            None => vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        self.disk.read_page(page, &mut data)?;
        shard.frames[idx] = Some(Frame {
            page,
            data,
            dirty: false,
            referenced: true,
            lsn: 0,
            pending: 0,
        });
        shard.map.insert(page, idx);
        Ok(Some(idx))
    }

    /// CLOCK within one shard: sweep for an unreferenced, unpinned frame,
    /// clearing reference bits; an empty frame is taken immediately.
    /// Under a flush barrier the sweep is *clean-first*: evicting a dirty
    /// frame costs a log sync, so it is passed over while a clean frame
    /// can go, and the first dirty candidate is taken only when the
    /// sweep found no clean one — its flush then cleans its dirty
    /// neighbours too (see `flush_evicted`).
    /// Returns `None` if every frame is pinned pending a log publish.
    fn victim(&self, shard: &mut Shard) -> Result<Option<usize>> {
        let n = shard.frames.len();
        if let Some(idx) = shard.frames.iter().position(Option::is_none) {
            return Ok(Some(idx));
        }
        let clean_first = self.barrier.get().is_some();
        let mut dirty_candidate = None;
        for _ in 0..2 * n + 1 {
            let idx = shard.clock_hand;
            shard.clock_hand = (shard.clock_hand + 1) % n;
            let frame = shard.frames[idx].as_mut().expect("no empty frames");
            if frame.pending > 0 {
                // Awaiting its WAL append; unevictable, skip without
                // touching the reference bit.
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
            } else if frame.dirty && clean_first {
                dirty_candidate.get_or_insert(idx);
            } else {
                return self.evict(shard, idx).map(Some);
            }
        }
        // 2n+1 steps clear every reference bit and revisit each frame, so
        // the only way out without a candidate is every frame pinned.
        match dirty_candidate {
            Some(idx) => self.evict(shard, idx).map(Some),
            None => Ok(None),
        }
    }

    /// Empties frame `idx`, writing it back first if dirty, and returns
    /// the index.
    fn evict(&self, shard: &mut Shard, idx: usize) -> Result<usize> {
        let frame = shard.frames[idx].take().expect("victim frame is occupied");
        shard.map.remove(&frame.page);
        if frame.dirty {
            // Write-ahead rule: the log must cover the page's last logged
            // mutation before the page hits disk — and must hold a full
            // image of what is about to be written, so a torn write is
            // recoverable. Unlogged dirty pages (lsn 0: B+tree nodes,
            // catalog chains) need the image for the same reason.
            if let Err(e) = self.flush_evicted(shard, &frame) {
                // A failed barrier or page write must not lose the dirty
                // frame: restore it and surface the error — the page
                // stays resident and unpublished until a later eviction
                // (or flush) succeeds.
                shard.map.insert(frame.page, idx);
                shard.frames[idx] = Some(frame);
                return Err(e);
            }
        }
        shard.evictions.inc();
        Ok(idx)
    }

    /// Writes the dirty `victim` (already taken out of `shard`) in place
    /// behind the flush barrier. The barrier's sync is shared: the next
    /// dirty, unpinned frames in CLOCK order, up to `FLUSH_BATCH` pages
    /// in all, are imaged by the same call, written too and left
    /// resident and clean. A frame counts as clean only once its own
    /// write succeeded.
    fn flush_evicted(&self, shard: &mut Shard, victim: &Frame) -> Result<()> {
        let Some(barrier) = self.barrier.get() else {
            return self.disk.write_page(victim.page, &victim.data);
        };
        let n = shard.frames.len();
        let mut batch = vec![(victim.page, victim.data.to_vec())];
        let mut lsn = victim.lsn;
        let mut neighbours = Vec::new();
        for step in 0..n {
            if batch.len() == FLUSH_BATCH {
                break;
            }
            let idx = (shard.clock_hand + step) % n;
            if let Some(f) = &shard.frames[idx] {
                if f.dirty && f.pending == 0 {
                    batch.push((f.page, f.data.to_vec()));
                    lsn = lsn.max(f.lsn);
                    neighbours.push(idx);
                }
            }
        }
        barrier(&batch, lsn)?;
        self.disk.write_page(victim.page, &victim.data)?;
        for idx in neighbours {
            let f = shard.frames[idx].as_mut().expect("collected above");
            self.disk.write_page(f.page, &f.data)?;
            f.dirty = false;
        }
        Ok(())
    }

    /// Writes all dirty frames back and syncs the file. Callers must
    /// sync the WAL first (checkpoint and clean shutdown both do), since
    /// this path writes pages without consulting the flush barrier.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            for frame in shard.frames.iter_mut().flatten() {
                if frame.dirty {
                    self.disk.write_page(frame.page, &frame.data)?;
                    frame.dirty = false;
                }
            }
        }
        self.disk.sync()
    }

    /// As [`BufferPool::flush_all`], but hands every dirty frame's
    /// `(page, bytes)` to `pre` in one batch *before* any in-place write
    /// happens — the engine logs (and syncs) full-page images there, so
    /// a crash that tears one of the writes is recoverable from the log.
    /// Callers must have quiesced writers (checkpoint holds the
    /// active-transaction latch; shutdown is exclusive): a page dirtied
    /// between the batch and its write would go out unimaged.
    pub fn flush_all_with(&self, pre: &PreFlush) -> Result<()> {
        let mut batch: Vec<(PageId, Vec<u8>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for frame in shard.frames.iter().flatten() {
                if frame.dirty {
                    batch.push((frame.page, frame.data.to_vec()));
                }
            }
        }
        pre(&batch)?;
        for (page, _) in &batch {
            let mut shard = self.shard(*page).lock().unwrap();
            if let Some(&idx) = shard.map.get(page) {
                let frame = shard.frames[idx].as_mut().expect("mapped frame");
                if frame.dirty {
                    self.disk.write_page(frame.page, &frame.data)?;
                    frame.dirty = false;
                }
            }
        }
        self.disk.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mdm-buf-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn cached_read_after_write() {
        let dir = tmpdir("cache");
        let bp = BufferPool::open(&dir, 4).unwrap();
        let pid = bp.allocate_page().unwrap();
        bp.with_page_mut(pid, |d| d[100] = 42).unwrap();
        let v = bp.with_page(pid, |d| d[100]).unwrap();
        assert_eq!(v, 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let dir = tmpdir("evict");
        let bp = BufferPool::open(&dir, 2).unwrap();
        assert_eq!(bp.num_shards(), 1);
        let pids: Vec<_> = (0..10).map(|_| bp.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            bp.with_page_mut(pid, |d| d[0] = i as u8 + 1).unwrap();
        }
        // All pages written; cache only holds 2, so most were evicted.
        for (i, &pid) in pids.iter().enumerate() {
            let v = bp.with_page(pid, |d| d[0]).unwrap();
            assert_eq!(v, i as u8 + 1);
        }
        let (_, _, evictions) = bp.stats();
        assert!(evictions >= 8, "expected evictions, saw {evictions}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_all_then_reopen() {
        let dir = tmpdir("flush");
        let pid;
        {
            let bp = BufferPool::open(&dir, 4).unwrap();
            pid = bp.allocate_page().unwrap();
            bp.with_page_mut(pid, |d| {
                page::format_page(d, page::PageType::Heap);
                page::insert_record(d, b"persisted").unwrap();
            })
            .unwrap();
            bp.flush_all().unwrap();
        }
        let bp = BufferPool::open(&dir, 4).unwrap();
        let body = bp
            .with_page(pid, |d| page::get_record(d, 0).map(<[u8]>::to_vec))
            .unwrap();
        assert_eq!(body.as_deref(), Some(&b"persisted"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hit_ratio_counts() {
        let dir = tmpdir("stats");
        let bp = BufferPool::open(&dir, 4).unwrap();
        let pid = bp.allocate_page().unwrap();
        for _ in 0..10 {
            bp.with_page(pid, |_| ()).unwrap();
        }
        let (hits, misses, _) = bp.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_scale_with_capacity() {
        let dir = tmpdir("shards");
        let bp = BufferPool::open(&dir, 64).unwrap();
        assert_eq!(bp.num_shards(), 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_land_on_distinct_shards() {
        let dir = tmpdir("conc");
        let bp = BufferPool::open(&dir, 32).unwrap();
        let pids: Vec<_> = (0..24).map(|_| bp.allocate_page().unwrap()).collect();
        std::thread::scope(|s| {
            for (i, &pid) in pids.iter().enumerate() {
                let bp = &bp;
                s.spawn(move || {
                    bp.with_page_mut(pid, |d| d[7] = i as u8 + 1).unwrap();
                });
            }
        });
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(bp.with_page(pid, |d| d[7]).unwrap(), i as u8 + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logged_mutation_without_barrier_is_plain() {
        let dir = tmpdir("nolog");
        let bp = BufferPool::open(&dir, 2).unwrap();
        let pids: Vec<_> = (0..8).map(|_| bp.allocate_page().unwrap()).collect();
        // No barrier installed: logged mutations never pin, so heavy
        // eviction traffic with no publish calls must still succeed.
        for (i, &pid) in pids.iter().enumerate() {
            bp.with_page_mut_logged(pid, |d| {
                d[0] = i as u8 + 1;
                ((), true)
            })
            .unwrap();
        }
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(bp.with_page(pid, |d| d[0]).unwrap(), i as u8 + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_runs_barrier_with_page_lsn() {
        let dir = tmpdir("barrier");
        let bp = BufferPool::open(&dir, 2).unwrap();
        static SYNCED_THROUGH: AtomicU64 = AtomicU64::new(0);
        SYNCED_THROUGH.store(0, Ordering::SeqCst);
        bp.set_flush_barrier(Box::new(|_pages, lsn| {
            SYNCED_THROUGH.fetch_max(lsn, Ordering::SeqCst);
            Ok(())
        }));
        let pids: Vec<_> = (0..6).map(|_| bp.allocate_page().unwrap()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            bp.with_page_mut_logged(pid, |d| {
                d[0] = 1;
                ((), true)
            })
            .unwrap();
            // Publish an increasing LSN, as the engine does post-append.
            bp.publish_lsn(pid, i as u64 + 1);
        }
        // Touch fresh pages to force the dirty, published frames out.
        for _ in 0..4 {
            let pid = bp.allocate_page().unwrap();
            bp.with_page(pid, |_| ()).unwrap();
        }
        assert!(
            SYNCED_THROUGH.load(Ordering::SeqCst) >= 1,
            "evicting a dirty page with a page-LSN must call the barrier"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_barrier_covers_the_dirty_neighbours() {
        let dir = tmpdir("batch");
        // Four frames in two shards of two: pages 0 and 2 share a shard.
        let bp = BufferPool::open(&dir, 4).unwrap();
        assert_eq!(bp.num_shards(), 2);
        static CALLS: AtomicU64 = AtomicU64::new(0);
        static PAGES: AtomicU64 = AtomicU64::new(0);
        CALLS.store(0, Ordering::SeqCst);
        PAGES.store(0, Ordering::SeqCst);
        bp.set_flush_barrier(Box::new(|pages, _lsn| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            PAGES.fetch_add(pages.len() as u64, Ordering::SeqCst);
            Ok(())
        }));
        let pids: Vec<_> = (0..8).map(|_| bp.allocate_page().unwrap()).collect();
        for &pid in &[pids[0], pids[2]] {
            bp.with_page_mut(pid, |d| d[0] = pid as u8 + 1).unwrap();
        }
        // The first eviction images both dirty frames under one barrier;
        // the second finds its victim clean and needs none.
        bp.with_page(pids[4], |_| ()).unwrap();
        bp.with_page(pids[6], |_| ()).unwrap();
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(PAGES.load(Ordering::SeqCst), 2);
        for &pid in &[pids[0], pids[2]] {
            assert_eq!(bp.with_page(pid, |d| d[0]).unwrap(), pid as u8 + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_frames_are_not_evicted() {
        let dir = tmpdir("pending");
        let bp = BufferPool::open(&dir, 2).unwrap();
        bp.set_flush_barrier(Box::new(|_, _| Ok(())));
        let pinned = bp.allocate_page().unwrap();
        bp.with_page_mut_logged(pinned, |d| {
            d[0] = 99;
            ((), true)
        })
        .unwrap();
        // One frame pinned, one free: traffic cycles through the free
        // frame while the pinned page stays resident and unwritten.
        for _ in 0..6 {
            let pid = bp.allocate_page().unwrap();
            bp.with_page_mut(pid, |d| d[1] = 1).unwrap();
        }
        let (_, _, evictions) = bp.stats();
        assert!(evictions >= 4, "unpinned frame must keep cycling");
        assert_eq!(bp.with_page(pinned, |d| d[0]).unwrap(), 99);
        bp.publish_lsn(pinned, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
