//! Access statistics: per-entity-type and per-index counters the
//! database maintains incrementally as it is read and mutated.
//!
//! [`AccessStats`] lives inside [`Database`](crate::Database). Its cells
//! are dense: one per entity type, indexed by [`TypeId`], each holding
//! one index cell per attribute position. The vectors grow only under
//! `&mut` (`define_entity`, building a database from parts), so the
//! `&self` paths — index probes at plan time, the executor's
//! end-of-statement [`credit`](AccessStats::credit) — index a slice and
//! bump an atomic, with no lock and no allocation; an id the schema
//! does not have is a bug in the caller and panics. Live tuple counts are
//! maintained incrementally and can be recomputed from the instance
//! store after bulk loads (persistence does this at open).
//!
//! The cumulative counters serialize to a small binary image so the
//! checkpoint can carry them across restarts; live counts are *not*
//! persisted — they are derived data, recomputed from the store.

use std::sync::atomic::{AtomicU64, Ordering};

use mdm_storage::codec::{self, put_len, Reader};

use crate::value::TypeId;

/// A point-in-time copy of one entity type's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableAccess {
    /// Instances currently alive (incremental, recomputable).
    pub live: u64,
    /// Instances ever created.
    pub appends: u64,
    /// Attribute writes to existing instances.
    pub replaces: u64,
    /// Instances deleted.
    pub deletes: u64,
    /// Tuples QUEL statements fetched from the instance heap, credited
    /// by the executor when each statement ends.
    pub heap_fetches: u64,
}

/// A point-in-time copy of one attribute index's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexAccess {
    /// Equality probes answered.
    pub eq_probes: u64,
    /// Range probes answered.
    pub range_probes: u64,
    /// Index entries written (inserts, deletes, and replace re-keys).
    pub maintenance_writes: u64,
}

/// A relaxed atomic counter. Cloning copies the value into a new cell,
/// so a cloned database counts independently.
#[derive(Debug, Default)]
struct Count(AtomicU64);

impl Clone for Count {
    fn clone(&self) -> Count {
        Count(AtomicU64::new(self.get()))
    }
}

impl Count {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

#[derive(Debug, Default, Clone)]
struct TableCell {
    live: Count,
    appends: Count,
    replaces: Count,
    deletes: Count,
    heap_fetches: Count,
    /// One cell per attribute position of the type.
    indexes: Vec<IndexCell>,
}

#[derive(Debug, Default, Clone)]
struct IndexCell {
    eq_probes: Count,
    range_probes: Count,
    maintenance_writes: Count,
}

/// Incrementally-maintained access statistics for one database.
#[derive(Debug, Default, Clone)]
pub struct AccessStats {
    /// One cell per entity type of the schema, indexed by [`TypeId`];
    /// [`Database`](crate::Database) adds a type's cells as it defines
    /// the type.
    tables: Vec<TableCell>,
}

impl AccessStats {
    /// Adds the cells of the next entity type (ids are dense and
    /// sequential), with one index cell per attribute.
    pub(crate) fn add_type(&mut self, attributes: usize) {
        self.tables.push(TableCell {
            indexes: vec![IndexCell::default(); attributes],
            ..TableCell::default()
        });
    }

    fn cell(&self, ty: TypeId) -> &TableCell {
        &self.tables[ty as usize]
    }

    fn attr_cell(&self, ty: TypeId, attr_idx: usize) -> &IndexCell {
        &self.cell(ty).indexes[attr_idx]
    }

    pub(crate) fn note_append(&self, ty: TypeId) {
        self.cell(ty).live.add(1);
        self.cell(ty).appends.add(1);
    }

    pub(crate) fn note_replace(&self, ty: TypeId) {
        self.cell(ty).replaces.add(1);
    }

    pub(crate) fn note_delete(&self, ty: TypeId) {
        let c = self.cell(ty);
        (c.live.0)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            })
            .ok();
        c.deletes.add(1);
    }

    /// Credits `heap_fetches` tuples fetched from the instances of `ty`,
    /// a type of this database's schema. The QUEL executor calls this
    /// once per entity type a statement touched, when the statement
    /// ends — never per tuple.
    pub fn credit(&self, ty: TypeId, heap_fetches: u64) {
        self.cell(ty).heap_fetches.add(heap_fetches);
    }

    pub(crate) fn note_eq_probe(&self, ty: TypeId, attr_idx: usize) {
        self.attr_cell(ty, attr_idx).eq_probes.add(1);
    }

    pub(crate) fn note_range_probe(&self, ty: TypeId, attr_idx: usize) {
        self.attr_cell(ty, attr_idx).range_probes.add(1);
    }

    pub(crate) fn note_index_writes(&self, ty: TypeId, attr_idx: usize, n: u64) {
        self.attr_cell(ty, attr_idx).maintenance_writes.add(n);
    }

    /// Overwrites one type's live count (recomputation after bulk load).
    pub(crate) fn set_live(&self, ty: TypeId, live: u64) {
        self.cell(ty).live.0.store(live, Ordering::Relaxed);
    }

    /// One entity type's counters (zeros for a type without cells).
    pub fn table(&self, ty: TypeId) -> TableAccess {
        let Some(c) = self.tables.get(ty as usize) else {
            return TableAccess::default();
        };
        TableAccess {
            live: c.live.get(),
            appends: c.appends.get(),
            replaces: c.replaces.get(),
            deletes: c.deletes.get(),
            heap_fetches: c.heap_fetches.get(),
        }
    }

    /// One attribute index's counters (zeros if never touched).
    pub fn index(&self, ty: TypeId, attr_idx: usize) -> IndexAccess {
        let cell = self.tables.get(ty as usize);
        let Some(c) = cell.and_then(|t| t.indexes.get(attr_idx)) else {
            return IndexAccess::default();
        };
        IndexAccess {
            eq_probes: c.eq_probes.get(),
            range_probes: c.range_probes.get(),
            maintenance_writes: c.maintenance_writes.get(),
        }
    }

    /// Serializes the cumulative counters (live counts excluded — they
    /// are recomputed from the store at load): every entity type's, and
    /// those of each attribute position an index was ever probed or
    /// maintained on.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![1u8]; // format version
        let mut indexes = Vec::new();
        put_len(&mut out, self.tables.len());
        for (ty, t) in self.tables.iter().enumerate() {
            out.extend_from_slice(&(ty as TypeId).to_le_bytes());
            for v in [&t.appends, &t.replaces, &t.deletes, &t.heap_fetches] {
                out.extend_from_slice(&v.get().to_le_bytes());
            }
            for (attr, i) in t.indexes.iter().enumerate() {
                let counts = [&i.eq_probes, &i.range_probes, &i.maintenance_writes].map(Count::get);
                if counts != [0; 3] {
                    indexes.push((ty as TypeId, attr as u32, counts));
                }
            }
        }
        put_len(&mut out, indexes.len());
        for (ty, attr, counts) in indexes {
            out.extend_from_slice(&ty.to_le_bytes());
            out.extend_from_slice(&attr.to_le_bytes());
            for v in counts {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores cumulative counters from an [`encode`](Self::encode)d
    /// image, adding to the cells that exist. Returns `false` on
    /// malformed input (the stats are best-effort; a bad image must
    /// never fail an open).
    pub fn restore(&self, bytes: &[u8]) -> bool {
        // Decoded image rows: per-table counters and per-(type, attr)
        // index counters, in encode order.
        type TableRow = (TypeId, [u64; 4]);
        type IndexRow = ((TypeId, usize), [u64; 3]);
        let parse = || -> codec::Result<(Vec<TableRow>, Vec<IndexRow>)> {
            let mut r = Reader::new(bytes);
            match r.u8()? {
                1 => {}
                v => return Err(codec::Error::Invalid("statistics format", v.into())),
            }
            let tables = r.list(36, |r| {
                let ty = r.u32()?;
                let mut vals = [0u64; 4];
                for v in &mut vals {
                    *v = r.u64()?;
                }
                Ok((ty, vals))
            })?;
            let indexes = r.list(32, |r| {
                let key = (r.u32()?, r.u32()? as usize);
                let mut vals = [0u64; 3];
                for v in &mut vals {
                    *v = r.u64()?;
                }
                Ok((key, vals))
            })?;
            r.finish()?;
            Ok((tables, indexes))
        };
        let Ok((tables, indexes)) = parse() else {
            return false;
        };
        // The image is outside input: counters of a type or attribute
        // this database has no cells for are dropped.
        for (ty, [appends, replaces, deletes, heap_fetches]) in tables {
            let Some(c) = self.tables.get(ty as usize) else {
                continue;
            };
            c.appends.add(appends);
            c.replaces.add(replaces);
            c.deletes.add(deletes);
            c.heap_fetches.add(heap_fetches);
        }
        for ((ty, attr), [eq, range, writes]) in indexes {
            let cell = self.tables.get(ty as usize);
            let Some(c) = cell.and_then(|t| t.indexes.get(attr)) else {
                continue;
            };
            c.eq_probes.add(eq);
            c.range_probes.add(range);
            c.maintenance_writes.add(writes);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cells for `types` entity types of three attributes each.
    fn stats(types: usize) -> AccessStats {
        let mut s = AccessStats::default();
        for _ in 0..types {
            s.add_type(3);
        }
        s
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = stats(2);
        s.note_append(0);
        s.note_append(0);
        s.note_replace(0);
        s.note_delete(0);
        s.credit(0, 4);
        s.note_eq_probe(0, 1);
        s.note_range_probe(0, 1);
        s.note_index_writes(0, 1, 3);
        let t = s.table(0);
        assert_eq!(
            t,
            TableAccess {
                live: 1,
                appends: 2,
                replaces: 1,
                deletes: 1,
                heap_fetches: 4
            }
        );
        let i = s.index(0, 1);
        assert_eq!(
            i,
            IndexAccess {
                eq_probes: 1,
                range_probes: 1,
                maintenance_writes: 3
            }
        );
        assert_eq!(s.table(1), TableAccess::default(), "untouched type");
        assert_eq!(s.table(9), TableAccess::default(), "no such type");
        assert_eq!(s.index(0, 7), IndexAccess::default(), "no such attribute");
        // The image holds both types and only the index that was used.
        assert_eq!(s.encode().len(), 1 + 4 + 2 * 36 + 4 + 32);
    }

    #[test]
    fn delete_saturates_at_zero_live() {
        let s = stats(1);
        s.note_delete(0);
        assert_eq!(s.table(0).live, 0);
        assert_eq!(s.table(0).deletes, 1);
    }

    #[test]
    fn clone_snapshots_values_into_independent_cells() {
        let s = stats(3);
        s.note_append(2);
        s.note_eq_probe(2, 0);
        let c = s.clone();
        s.note_append(2);
        s.note_eq_probe(2, 0);
        c.credit(2, 5);
        assert_eq!(s.table(2).appends, 2);
        assert_eq!(c.table(2).appends, 1, "clone is independent");
        assert_eq!(c.index(2, 0).eq_probes, 1);
        assert_eq!(s.table(2).heap_fetches, 0, "and so is the original");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The image `encode_restore_roundtrip_excludes_live` writes.
    const PINNED_IMAGE: &str = concat!(
        "01010000000000000001000000000000000000000000000000000000000000000001000000000000",
        "00010000000000000002000000010000000000000000000000000000000000000000000000",
    );

    #[test]
    fn encode_restore_roundtrip_excludes_live() {
        let s = stats(1);
        s.note_append(0);
        s.credit(0, 1);
        s.note_eq_probe(0, 2);
        let image = s.encode();
        assert_eq!(hex(&image), PINNED_IMAGE);
        let back = stats(1);
        assert!(back.restore(&image));
        assert_eq!(back.table(0).appends, 1);
        assert_eq!(back.table(0).heap_fetches, 1);
        assert_eq!(back.table(0).live, 0, "live is derived, not persisted");
        assert_eq!(back.index(0, 2).eq_probes, 1);
        assert_eq!(back.encode(), image);
        // An image naming cells this database does not have is accepted
        // and those rows dropped.
        assert!(AccessStats::default().restore(&image));
        for garbage in [&b""[..], &b"\x07"[..], &b"\x01\xff\xff\xff\xff"[..]] {
            assert!(!stats(1).restore(garbage));
        }
        let mut trailing = image.clone();
        trailing.push(0);
        assert!(!stats(1).restore(&trailing));
    }
}
