//! The system catalog: names and first heap pages of tables.
//!
//! The catalog is serialized into a chain of dedicated pages rooted at
//! page 0, rewritten wholesale on every DDL change (DDL is rare). A full
//! snapshot is also written to the WAL so recovery can restore the latest
//! catalog even if page 0 was not flushed.

use std::collections::BTreeMap;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PageType, NO_PAGE, PAGE_SIZE};
use crate::wal::TableId;

/// Metadata for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Numeric id used in WAL records.
    pub id: TableId,
    /// First page of the table's heap file (stable).
    pub first_page: PageId,
}

/// The whole catalog.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    /// Tables by name.
    pub tables: BTreeMap<String, TableMeta>,
    /// Next table id to assign.
    pub next_table_id: TableId,
    /// Transaction-id floor: every id strictly below this was handed out
    /// before the catalog was saved. Reopening restarts the allocator at
    /// (at least) this value, so an id never names two transactions in
    /// one directory's history — point-in-time restore concatenates WAL
    /// archive segments from every incarnation and must not mistake one
    /// segment's winner for another's loser. Absent in the oldest
    /// catalogs; those decode as floor 0 and the WAL scan at open
    /// supplies the real bound.
    pub txn_floor: u64,
}

impl Catalog {
    /// Finds a table by its numeric id.
    pub fn table_by_id(&self, id: TableId) -> Option<(&String, &TableMeta)> {
        self.tables.iter().find(|(_, m)| m.id == id)
    }

    /// Serializes the catalog to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for (name, t) in &self.tables {
            put_str(&mut out, name);
            out.extend_from_slice(&t.id.to_le_bytes());
            out.extend_from_slice(&t.first_page.to_le_bytes());
            // The table's index count: the engine keeps no index, so it
            // is always 0. The field stays so the layout does not change.
            out.extend_from_slice(&0u32.to_le_bytes());
        }
        out.extend_from_slice(&self.next_table_id.to_le_bytes());
        out.extend_from_slice(&self.txn_floor.to_le_bytes());
        out
    }

    /// Deserializes a catalog from bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<Catalog> {
        struct C<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> C<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8]> {
                let b = self
                    .buf
                    .get(self.pos..self.pos + n)
                    .ok_or_else(|| StorageError::Corrupt("catalog truncated".into()))?;
                self.pos += n;
                Ok(b)
            }
            fn u32(&mut self) -> Result<u32> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn string(&mut self) -> Result<String> {
                let n = self.u32()? as usize;
                String::from_utf8(self.take(n)?.to_vec())
                    .map_err(|_| StorageError::Corrupt("catalog name not utf-8".into()))
            }
        }
        let mut c = C { buf, pos: 0 };
        let ntables = c.u32()?;
        let mut tables = BTreeMap::new();
        for _ in 0..ntables {
            let name = c.string()?;
            let id = c.u32()?;
            let first_page = c.u64()?;
            if c.u32()? != 0 {
                return Err(StorageError::Corrupt(format!(
                    "catalog lists an index on table {name}; the engine keeps none"
                )));
            }
            tables.insert(name, TableMeta { id, first_page });
        }
        let next_table_id = c.u32()?;
        // Older catalogs end here; the floor field is read only when the
        // encoder wrote one (tolerant decode keeps mixed-version
        // replication pairs working).
        let txn_floor = if c.pos + 8 <= c.buf.len() {
            c.u64()?
        } else {
            0
        };
        Ok(Catalog {
            tables,
            next_table_id,
            txn_floor,
        })
    }
}

const CHUNK_CAPACITY: usize = PAGE_SIZE - 11; // type(1) + next(8) + len(2)

/// Writes the catalog across the page-0 chain, allocating extra chain pages
/// as needed (existing chain pages are reused; a shrinking catalog leaves a
/// zero-length tail which `load` ignores).
pub fn save(pool: &BufferPool, catalog: &Catalog) -> Result<()> {
    let bytes = catalog.to_bytes();
    let mut chunks: Vec<&[u8]> = bytes.chunks(CHUNK_CAPACITY).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let mut pid: PageId = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        let is_last = i + 1 == chunks.len();
        let existing_next =
            pool.with_page(pid, |d| u64::from_le_bytes(d[1..9].try_into().unwrap()))?;
        let next = if is_last {
            NO_PAGE
        } else if existing_next != NO_PAGE {
            existing_next
        } else {
            let p = pool.allocate_page()?;
            pool.with_page_mut(p, |d| d[0] = PageType::Catalog as u8)?;
            p
        };
        pool.with_page_mut(pid, |d| {
            d[0] = PageType::Catalog as u8;
            d[1..9].copy_from_slice(&next.to_le_bytes());
            d[9..11].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            d[11..11 + chunk.len()].copy_from_slice(chunk);
        })?;
        pid = next;
        if is_last {
            break;
        }
    }
    Ok(())
}

/// Reads the catalog from the page-0 chain. A brand-new database (all-zero
/// page 0) yields the default empty catalog.
pub fn load(pool: &BufferPool) -> Result<Catalog> {
    let mut bytes = Vec::new();
    let mut pid: PageId = 0;
    let mut hops: u64 = 0;
    loop {
        // A torn chain page can hold a stale `next` that cycles; the
        // chain can never be longer than the file.
        hops += 1;
        if hops > pool.num_pages() {
            return Err(crate::error::StorageError::Corrupt(
                "catalog page chain cycles".into(),
            ));
        }
        let (next, chunk) = pool.with_page(pid, |d| {
            let next = u64::from_le_bytes(d[1..9].try_into().unwrap());
            let len = u16::from_le_bytes(d[9..11].try_into().unwrap()) as usize;
            (next, d[11..11 + len.min(CHUNK_CAPACITY)].to_vec())
        })?;
        bytes.extend_from_slice(&chunk);
        if next == NO_PAGE {
            break;
        }
        pid = next;
    }
    if bytes.is_empty() {
        return Ok(Catalog::default());
    }
    Catalog::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::default();
        for i in 0..5u32 {
            c.tables.insert(
                format!("table_{i}"),
                TableMeta {
                    id: i,
                    first_page: 10 + i as u64,
                },
            );
        }
        c.next_table_id = 5;
        c
    }

    #[test]
    fn bytes_roundtrip() {
        let mut c = sample();
        c.txn_floor = 12345;
        assert_eq!(Catalog::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    /// The layout keeps each table's index count, always 0; a catalog
    /// that names an index is refused rather than silently dropped.
    #[test]
    fn the_index_count_is_written_as_zero_and_a_nonzero_one_is_corrupt() {
        let mut c = Catalog::default();
        c.tables.insert(
            "t".into(),
            TableMeta {
                id: 3,
                first_page: 9,
            },
        );
        c.next_table_id = 4;
        c.txn_floor = 7;
        let mut want = Vec::new();
        want.extend_from_slice(&1u32.to_le_bytes()); // tables
        want.extend_from_slice(&1u32.to_le_bytes()); // name length
        want.extend_from_slice(b"t");
        want.extend_from_slice(&3u32.to_le_bytes()); // id
        want.extend_from_slice(&9u64.to_le_bytes()); // first page
        want.extend_from_slice(&0u32.to_le_bytes()); // index count
        want.extend_from_slice(&4u32.to_le_bytes()); // next table id
        want.extend_from_slice(&7u64.to_le_bytes()); // txn floor
        assert_eq!(c.to_bytes(), want);

        let mut indexed = want[..21].to_vec();
        indexed.extend_from_slice(&1u32.to_le_bytes()); // one index
        indexed.extend_from_slice(&2u32.to_le_bytes());
        indexed.extend_from_slice(b"ix");
        indexed.extend_from_slice(&40u64.to_le_bytes()); // its root
        indexed.extend_from_slice(&want[25..]);
        assert!(matches!(
            Catalog::from_bytes(&indexed),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn legacy_catalog_without_floor_decodes() {
        let c = sample();
        let mut bytes = c.to_bytes();
        bytes.truncate(bytes.len() - 8); // strip the floor field
        let decoded = Catalog::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.tables, c.tables);
        assert_eq!(decoded.txn_floor, 0);
    }

    #[test]
    fn empty_roundtrip() {
        let c = Catalog::default();
        assert_eq!(Catalog::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn save_load_via_pages() {
        let dir = std::env::temp_dir().join(format!("mdm-cat-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bp = BufferPool::open(&dir, 8).unwrap();
        let c = sample();
        save(&bp, &c).unwrap();
        assert_eq!(load(&bp).unwrap(), c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_database_loads_empty() {
        let dir = std::env::temp_dir().join(format!("mdm-cat-fresh-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bp = BufferPool::open(&dir, 8).unwrap();
        assert_eq!(load(&bp).unwrap(), Catalog::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn large_catalog_spans_pages() {
        let dir = std::env::temp_dir().join(format!("mdm-cat-big-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bp = BufferPool::open(&dir, 8).unwrap();
        let mut c = Catalog::default();
        for i in 0..800u32 {
            c.tables.insert(
                format!("a_table_with_a_rather_long_name_{i:05}"),
                TableMeta {
                    id: i,
                    first_page: i as u64,
                },
            );
        }
        c.next_table_id = 800;
        save(&bp, &c).unwrap();
        assert_eq!(load(&bp).unwrap(), c);
        // Shrink back down; the tail chunk must not corrupt the reload.
        let small = sample();
        save(&bp, &small).unwrap();
        assert_eq!(load(&bp).unwrap(), small);
        std::fs::remove_dir_all(&dir).ok();
    }
}
