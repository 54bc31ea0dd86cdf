//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a singly linked chain of slotted pages. Records are
//! addressed by [`Rid`] (page, slot). Inserts fill the holes deletes left
//! first — each heap keeps the pages known to have room as free-page
//! hints, earliest first, dropping a hint once an insert no longer fits
//! there — then the last page, then a new page linked onto the chain. An
//! insert never walks the chain.

use std::collections::BTreeSet;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{self, PageId, PageType, Rid, NO_PAGE};

/// A handle to one heap file. The first page id is the stable identity
/// (recorded in the catalog); the last page id and the free-page hints
/// are cached optimizations.
#[derive(Debug, Clone)]
pub struct HeapFile {
    first_page: PageId,
    last_page: PageId,
    /// Pages other than the last known to have had room: seeded by the
    /// chain walk in [`HeapFile::open`], fed by [`HeapFile::note_free`],
    /// and dropped when an insert no longer fits. Chain pages are
    /// allocated in increasing id order, so the first hint is the
    /// earliest hole.
    free_pages: BTreeSet<PageId>,
}

/// Reclaimable bytes that make a page worth an insert's visit when the
/// chain walk at open seeds the hints.
const HINT_MIN_FREE: usize = page::PAGE_SIZE / 8;

/// A heap change, handed to the caller's logger inside the pool visit
/// that makes it and before the page changes. The logger appends the
/// covering WAL record(s) and returns the last one's sequence, which
/// becomes the page's LSN.
#[derive(Debug)]
pub enum Change<'a> {
    /// `body` goes to `rid`. `link` is `(from_page, new_page)` when the
    /// insert chains a new page onto the heap.
    Insert {
        rid: Rid,
        body: &'a [u8],
        link: Option<(PageId, PageId)>,
    },
    /// The record `old` at `rid` is replaced by `body` in place.
    Update {
        rid: Rid,
        old: &'a [u8],
        body: &'a [u8],
    },
    /// The record `old` at `rid` is removed.
    Delete { rid: Rid, old: &'a [u8] },
}

/// The record at `rid` on its page `d`, or [`StorageError::RecordNotFound`].
fn present(d: &[u8], rid: Rid) -> Result<&[u8]> {
    page::get_record(d, rid.slot).ok_or(StorageError::RecordNotFound {
        page: rid.page,
        slot: rid.slot,
    })
}

/// Places `body` at `rid` on its page `d`, after its record was logged.
/// The read-only slot choice or fit check vouched for the room, so a
/// refusal means the page is not what it claims to be.
fn place(d: &mut [u8], rid: Rid, body: &[u8]) -> Result<()> {
    if page::insert_record_at(d, rid.slot, body) {
        Ok(())
    } else {
        Err(StorageError::Corrupt(format!(
            "page {} refused a record at slot {} it had room for",
            rid.page, rid.slot
        )))
    }
}

impl HeapFile {
    /// Creates a new heap file with one empty page.
    pub fn create(pool: &BufferPool) -> Result<HeapFile> {
        let first = pool.allocate_page()?;
        pool.with_page_mut(first, |d| page::format_page(d, PageType::Heap))?;
        Ok(HeapFile {
            first_page: first,
            last_page: first,
            free_pages: BTreeSet::new(),
        })
    }

    /// Opens an existing heap file rooted at `first_page`, walking the chain
    /// to locate the last page and the pages with room to seed the
    /// free-page hints.
    pub fn open(pool: &BufferPool, first_page: PageId) -> Result<HeapFile> {
        let mut last = first_page;
        let mut free_pages = BTreeSet::new();
        loop {
            let (next, room) = pool.with_page(last, |d| {
                (
                    page::next_page(d),
                    page::free_slot(d, HINT_MIN_FREE).is_some(),
                )
            })?;
            if next == NO_PAGE {
                break;
            }
            if room {
                free_pages.insert(last);
            }
            last = next;
        }
        Ok(HeapFile {
            first_page,
            last_page: last,
            free_pages,
        })
    }

    /// Notes that a delete (or a record moving away) freed room on
    /// `page`: a later insert may go there.
    pub fn note_free(&mut self, page: PageId) {
        if page != self.last_page {
            self.free_pages.insert(page);
        }
    }

    /// The stable identity of this heap file.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Inserts a record, returning its rid. Each candidate page costs one
    /// pool visit: under the pool latch the visit chooses the slot
    /// read-only, hands the change to `log`, places the record and stamps
    /// the page with the sequence `log` returned. A page with no room is
    /// left untouched and nothing is logged for it.
    pub fn insert(
        &mut self,
        pool: &BufferPool,
        body: &[u8],
        mut log: impl FnMut(Change<'_>) -> Result<u64>,
    ) -> Result<Rid> {
        if body.len() > page::MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge(body.len()));
        }
        let mut try_page = |pid: PageId| {
            pool.with_page_mut_logged(pid, |d| {
                let Some(slot) = page::free_slot(d, body.len()) else {
                    return Ok((None, None));
                };
                let rid = Rid::new(pid, slot);
                let lsn = log(Change::Insert {
                    rid,
                    body,
                    link: None,
                })?;
                place(d, rid, body)?;
                Ok((Some(rid), Some(lsn)))
            })
        };
        // Holes first, earliest first.
        while let Some(&pid) = self.free_pages.first() {
            if let Some(rid) = try_page(pid)? {
                return Ok(rid);
            }
            self.free_pages.pop_first();
        }
        if let Some(rid) = try_page(self.last_page)? {
            return Ok(rid);
        }
        // Extend the chain: the fresh page takes the record in its first
        // slot, then the last page links to it. Both are covered by the
        // `LinkPage` + `Insert` records logged in the first visit.
        let new_page = pool.allocate_page()?;
        let from = self.last_page;
        let rid = Rid::new(new_page, 0);
        let lsn = pool.with_page_mut_logged(new_page, |d| {
            page::format_page(d, PageType::Heap);
            let lsn = log(Change::Insert {
                rid,
                body,
                link: Some((from, new_page)),
            })?;
            place(d, rid, body)?;
            Ok((lsn, Some(lsn)))
        })?;
        pool.with_page_mut_logged(from, |d| {
            page::set_next_page(d, new_page);
            Ok(((), Some(lsn)))
        })?;
        self.last_page = new_page;
        Ok(rid)
    }

    /// Re-links `new_page` after `from_page` (recovery redo of a structural
    /// extension). Formats the new page if it is not already a heap page.
    pub fn redo_link(pool: &BufferPool, from_page: PageId, new_page: PageId) -> Result<()> {
        pool.ensure_page(new_page)?;
        pool.ensure_page(from_page)?;
        pool.with_page_mut(new_page, |d| {
            if page::page_type(d) != PageType::Heap {
                page::format_page(d, PageType::Heap);
            }
        })?;
        pool.with_page_mut(from_page, |d| page::set_next_page(d, new_page))?;
        Ok(())
    }

    /// Reads the record at `rid`.
    pub fn get(pool: &BufferPool, rid: Rid) -> Result<Option<Vec<u8>>> {
        pool.with_page(rid.page, |d| {
            page::get_record(d, rid.slot).map(<[u8]>::to_vec)
        })
    }

    /// Replaces the record at `rid`, returning the rid it ends at. One
    /// pool visit reads the old body and checks the fit read-only: a body
    /// that fits is logged as an update and placed at the same slot; one
    /// that does not is logged as a delete and removed, and the record
    /// moves to wherever [`HeapFile::insert`] puts it.
    pub fn update(
        &mut self,
        pool: &BufferPool,
        rid: Rid,
        body: &[u8],
        mut log: impl FnMut(Change<'_>) -> Result<u64>,
    ) -> Result<Rid> {
        if body.len() > page::MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge(body.len()));
        }
        let in_place = pool.with_page_mut_logged(rid.page, |d| {
            let old = present(d, rid)?;
            if page::can_replace(d, rid.slot, body.len()) {
                let lsn = log(Change::Update { rid, old, body })?;
                place(d, rid, body)?;
                Ok((true, Some(lsn)))
            } else {
                let lsn = log(Change::Delete { rid, old })?;
                page::delete_record(d, rid.slot);
                Ok((false, Some(lsn)))
            }
        })?;
        if in_place {
            return Ok(rid);
        }
        self.note_free(rid.page);
        self.insert(pool, body, log)
    }

    /// Deletes the record at `rid` in one pool visit, noting the freed
    /// room for later inserts. Returns the old body.
    pub fn delete(
        &mut self,
        pool: &BufferPool,
        rid: Rid,
        log: impl FnOnce(Change<'_>) -> Result<u64>,
    ) -> Result<Vec<u8>> {
        let old = pool.with_page_mut_logged(rid.page, |d| {
            let old = present(d, rid)?.to_vec();
            let lsn = log(Change::Delete { rid, old: &old })?;
            page::delete_record(d, rid.slot);
            Ok((old, Some(lsn)))
        })?;
        self.note_free(rid.page);
        Ok(old)
    }

    /// Idempotently forces the record state at `rid`: `Some(body)` places the
    /// record (overwriting any occupant), `None` removes it. Used by
    /// recovery redo/undo, which must be re-runnable.
    pub fn apply_at(pool: &BufferPool, rid: Rid, body: Option<&[u8]>) -> Result<()> {
        pool.ensure_page(rid.page)?;
        pool.with_page_mut(rid.page, |d| {
            if page::page_type(d) != PageType::Heap {
                page::format_page(d, PageType::Heap);
            }
            match body {
                Some(b) => {
                    page::insert_record_at(d, rid.slot, b);
                }
                None => {
                    page::delete_record(d, rid.slot);
                }
            }
        })
    }

    /// Visits every record in the file in (page, slot) order.
    pub fn scan(&self, pool: &BufferPool, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        let mut pid = self.first_page;
        while pid != NO_PAGE {
            let next = pool.with_page(pid, |d| {
                for slot in page::occupied_slots(d) {
                    let body = page::get_record(d, slot).expect("occupied slot has record");
                    f(Rid::new(pid, slot), body);
                }
                page::next_page(d)
            })?;
            pid = next;
        }
        Ok(())
    }

    /// Collects every record into a vector (convenience over [`scan`]).
    ///
    /// [`scan`]: HeapFile::scan
    pub fn scan_all(&self, pool: &BufferPool) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan(pool, |rid, body| out.push((rid, body.to_vec())))?;
        Ok(out)
    }

    /// Number of pages in the chain.
    pub fn page_count(&self, pool: &BufferPool) -> Result<usize> {
        let mut n = 0;
        let mut pid = self.first_page;
        while pid != NO_PAGE {
            n += 1;
            pid = pool.with_page(pid, page::next_page)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(name: &str) -> (std::path::PathBuf, BufferPool) {
        let dir = std::env::temp_dir().join(format!("mdm-heap-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        let bp = BufferPool::open(&dir, 16).unwrap();
        (dir, bp)
    }

    /// A logger for a pool with no log behind it.
    fn unlogged(_: Change<'_>) -> Result<u64> {
        Ok(0)
    }

    #[test]
    fn insert_get_many() {
        let (dir, bp) = setup("many");
        let mut hf = HeapFile::create(&bp).unwrap();
        let rids: Vec<Rid> = (0..500)
            .map(|i| {
                hf.insert(&bp, format!("record number {i}").as_bytes(), unlogged)
                    .unwrap()
            })
            .collect();
        for (i, rid) in rids.iter().enumerate() {
            let body = HeapFile::get(&bp, *rid).unwrap().unwrap();
            assert_eq!(body, format!("record number {i}").as_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_grows_and_scan_visits_all() {
        let (dir, bp) = setup("chain");
        let mut hf = HeapFile::create(&bp).unwrap();
        let body = vec![3u8; 2000];
        let mut links = 0;
        for _ in 0..50 {
            hf.insert(&bp, &body, |c| {
                if let Change::Insert { link: Some(_), .. } = c {
                    links += 1;
                }
                Ok(0)
            })
            .unwrap();
        }
        assert!(
            links >= 10,
            "2 kB records, ~4/page: expected many new pages"
        );
        let mut n = 0;
        hf.scan(&bp, |_, b| {
            assert_eq!(b.len(), 2000);
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_and_delete() {
        let (dir, bp) = setup("ud");
        let mut hf = HeapFile::create(&bp).unwrap();
        let rid = hf.insert(&bp, b"original", unlogged).unwrap();
        assert_eq!(hf.update(&bp, rid, b"changed!", unlogged).unwrap(), rid);
        assert_eq!(HeapFile::get(&bp, rid).unwrap().unwrap(), b"changed!");
        let old = hf.delete(&bp, rid, unlogged).unwrap();
        assert_eq!(old, b"changed!");
        assert_eq!(HeapFile::get(&bp, rid).unwrap(), None);
        assert!(matches!(
            hf.delete(&bp, rid, unlogged),
            Err(StorageError::RecordNotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_space_is_reused() {
        let (dir, bp) = setup("reuse");
        let mut hf = HeapFile::create(&bp).unwrap();
        let body = vec![1u8; 1000];
        let rids: Vec<Rid> = (0..40)
            .map(|_| hf.insert(&bp, &body, unlogged).unwrap())
            .collect();
        let pages_before = hf.page_count(&bp).unwrap();
        for rid in &rids {
            hf.delete(&bp, *rid, unlogged).unwrap();
        }
        for _ in 0..40 {
            hf.insert(&bp, &body, unlogged).unwrap();
        }
        let pages_after = hf.page_count(&bp).unwrap();
        assert_eq!(pages_before, pages_after, "space should be reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_finds_last_page() {
        let (dir, bp) = setup("open");
        let mut hf = HeapFile::create(&bp).unwrap();
        let body = vec![9u8; 3000];
        for _ in 0..10 {
            hf.insert(&bp, &body, unlogged).unwrap();
        }
        let first = hf.first_page();
        let reopened = HeapFile::open(&bp, first).unwrap();
        assert_eq!(reopened.last_page, hf.last_page);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_at_is_idempotent() {
        let (dir, bp) = setup("apply");
        let _hf = HeapFile::create(&bp).unwrap();
        let rid = Rid::new(5, 3);
        HeapFile::apply_at(&bp, rid, Some(b"redo me")).unwrap();
        HeapFile::apply_at(&bp, rid, Some(b"redo me")).unwrap();
        assert_eq!(HeapFile::get(&bp, rid).unwrap().unwrap(), b"redo me");
        HeapFile::apply_at(&bp, rid, None).unwrap();
        HeapFile::apply_at(&bp, rid, None).unwrap();
        assert_eq!(HeapFile::get(&bp, rid).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
