//! Ordered-storage baselines for experiment E1.
//!
//! §5.2 of the paper contrasts *modeling* order (hierarchical ordering as
//! a first-class concept) with what relational systems of the day
//! offered: sort keys maintained by the client. These three
//! implementations of one interface make that contrast measurable:
//!
//! * [`ModeledOrderingStore`] — the paper's approach: the MDM's instance
//!   graphs hold the ordering; a middle insert is one entity creation
//!   plus an in-memory splice, durability being amortized at save time.
//! * [`PositionStore`] — a client keeping an integer `position` attribute
//!   in a storage-engine table, with ordered maps on position and child
//!   beside it: a middle insert renumbers every following record through
//!   the transactional stack (the write amplification the paper's design
//!   avoids).
//! * [`FloatKeyStore`] — the classic client trick: float sort keys with
//!   gap bisection. Inserts are cheap until the float gaps are exhausted,
//!   then the whole table is renumbered.
//!
//! The storage engine keeps no index, so each relational baseline keeps
//! its access paths as ordered maps of its own (an index in the client's
//! memory) and reads every record it returns from the engine table.

use std::collections::{BTreeMap, HashMap};

use mdm_model::{Database, Value};
use mdm_storage::{Rid, StorageEngine, TableId};

/// One ordered collection of `u64` children under a single parent.
pub trait OrderedStore {
    /// Implementation name for reports.
    fn name(&self) -> &'static str;
    /// Inserts `child` at `pos`, shifting later children.
    fn insert_at(&mut self, pos: usize, child: u64);
    /// Number of children.
    fn len(&self) -> usize;
    /// True when no children are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The children in order.
    fn children(&mut self) -> Vec<u64>;
    /// §5.6 `before`: does `a` precede `b`?
    fn before(&mut self, a: u64, b: u64) -> bool;
    /// The n-th child.
    fn nth(&mut self, n: usize) -> Option<u64>;

    /// Appends at the end.
    fn append(&mut self, child: u64) {
        let n = self.len();
        self.insert_at(n, child);
    }
}

// ----------------------------------------------------------------------
// Modeled hierarchical ordering (the paper's design)
// ----------------------------------------------------------------------

/// The MDM model: one CHORD parent, NOTE children in a named ordering.
pub struct ModeledOrderingStore {
    db: Database,
    parent: u64,
    /// external child id → entity id
    ids: HashMap<u64, u64>,
    /// entity id → external child id
    rev: HashMap<u64, u64>,
}

impl ModeledOrderingStore {
    /// Creates the store with its two-type schema.
    pub fn new() -> ModeledOrderingStore {
        let mut db = Database::new();
        db.define_entity("CHORD", vec![]).expect("schema");
        db.define_entity(
            "NOTE",
            vec![mdm_model::AttributeDef {
                name: "name".into(),
                ty: mdm_model::DataType::Integer,
            }],
        )
        .expect("schema");
        db.define_ordering(Some("o"), &["NOTE"], Some("CHORD"))
            .expect("schema");
        let parent = db.create_entity("CHORD", &[]).expect("parent");
        ModeledOrderingStore {
            db,
            parent,
            ids: HashMap::new(),
            rev: HashMap::new(),
        }
    }
}

impl Default for ModeledOrderingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for ModeledOrderingStore {
    fn name(&self) -> &'static str {
        "modeled-ordering"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let e = self
            .db
            .create_entity("NOTE", &[("name", Value::Integer(child as i64))])
            .expect("create");
        self.ids.insert(child, e);
        self.rev.insert(e, child);
        self.db
            .ord_insert("o", Some(self.parent), pos, e)
            .expect("insert");
    }

    fn len(&self) -> usize {
        self.db
            .ord_children("o", Some(self.parent))
            .map_or(0, |v| v.len())
    }

    fn children(&mut self) -> Vec<u64> {
        self.db
            .ord_children("o", Some(self.parent))
            .expect("children")
            .into_iter()
            .map(|e| self.rev[&e])
            .collect()
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        self.db
            .before("o", self.ids[&a], self.ids[&b])
            .expect("before")
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        self.db
            .nth_child("o", Some(self.parent), n)
            .expect("nth")
            .map(|e| self.rev[&e])
    }
}

// ----------------------------------------------------------------------
// Integer-position baseline
// ----------------------------------------------------------------------

/// A client-maintained `(child, position)` relation with ordered maps on
/// position and child; middle inserts renumber.
pub struct PositionStore {
    engine: StorageEngine,
    table: TableId,
    /// position → the record holding it
    by_pos: BTreeMap<i64, Rid>,
    /// child → the record holding it
    by_child: BTreeMap<u64, Rid>,
    _dir: tempdir::TempDirGuard,
}

/// Minimal temp-dir RAII (no external crates).
pub mod tempdir {
    /// Removes the directory on drop.
    pub struct TempDirGuard(pub std::path::PathBuf);
    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }
    /// A fresh unique temp directory.
    pub fn fresh(tag: &str) -> TempDirGuard {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "mdm-bench-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&d).ok();
        TempDirGuard(d)
    }
}

fn record(child: u64, pos: i64) -> Vec<u8> {
    let mut r = Vec::with_capacity(16);
    r.extend_from_slice(&child.to_le_bytes());
    r.extend_from_slice(&pos.to_le_bytes());
    r
}

fn decode_record(r: &[u8]) -> (u64, i64) {
    (
        u64::from_le_bytes(r[0..8].try_into().expect("record")),
        i64::from_le_bytes(r[8..16].try_into().expect("record")),
    )
}

impl PositionStore {
    /// Creates the backing table in a fresh temp database.
    pub fn new() -> PositionStore {
        let dir = tempdir::fresh("pos");
        let engine = StorageEngine::open(&dir.0).expect("open engine");
        let table = engine.create_table("items").expect("table");
        PositionStore {
            engine,
            table,
            by_pos: BTreeMap::new(),
            by_child: BTreeMap::new(),
            _dir: dir,
        }
    }

    fn get(&self, txn: &mut mdm_storage::Txn, rid: Rid) -> (u64, i64) {
        let rec = self.engine.get(txn, self.table, rid).expect("get");
        decode_record(&rec.expect("rec"))
    }

    fn pos_of_child(&self, txn: &mut mdm_storage::Txn, child: u64) -> Option<i64> {
        let rid = *self.by_child.get(&child)?;
        Some(self.get(txn, rid).1)
    }
}

impl Default for PositionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for PositionStore {
    fn name(&self) -> &'static str {
        "relational-renumber"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let pos = pos as i64;
        let mut txn = self.engine.begin().expect("begin");
        // Renumber every record at or after `pos`: each is an engine
        // update inside this one logged, fsynced transaction.
        for (old_pos, rid) in self.by_pos.split_off(&pos).into_iter().rev() {
            let (c, _) = self.get(&mut txn, rid);
            let new_rid = self
                .engine
                .update(&mut txn, self.table, rid, &record(c, old_pos + 1))
                .expect("update");
            self.by_pos.insert(old_pos + 1, new_rid);
            self.by_child.insert(c, new_rid);
        }
        let rid = self
            .engine
            .insert(&mut txn, self.table, &record(child, pos))
            .expect("insert");
        self.by_pos.insert(pos, rid);
        self.by_child.insert(child, rid);
        self.engine.commit(txn).expect("commit");
    }

    fn len(&self) -> usize {
        self.by_pos.len()
    }

    fn children(&mut self) -> Vec<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let out = (self.by_pos.values())
            .map(|&rid| self.get(&mut txn, rid).0)
            .collect();
        self.engine.commit(txn).expect("commit");
        out
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        let mut txn = self.engine.begin().expect("begin");
        let pa = self.pos_of_child(&mut txn, a);
        let pb = self.pos_of_child(&mut txn, b);
        self.engine.commit(txn).expect("commit");
        matches!((pa, pb), (Some(x), Some(y)) if x < y)
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let out = (self.by_pos.get(&(n as i64))).map(|&rid| self.get(&mut txn, rid).0);
        self.engine.commit(txn).expect("commit");
        out
    }
}

// ----------------------------------------------------------------------
// Float-gap-key baseline
// ----------------------------------------------------------------------

fn f64_key(x: f64) -> [u8; 8] {
    let bits = x.to_bits();
    let mapped = if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    };
    mapped.to_be_bytes()
}

/// A client keeping float sort keys, bisecting gaps on middle insert and
/// renumbering the whole table when a gap closes.
pub struct FloatKeyStore {
    engine: StorageEngine,
    table: TableId,
    /// In-memory mirror: (sort key, child) in order — the client's cache.
    order: Vec<(f64, u64)>,
    /// Order-preserving key bytes → the record holding that key.
    by_key: BTreeMap<[u8; 8], Rid>,
    /// Number of full renumber passes taken (reported by the benches).
    pub renumbers: usize,
    _dir: tempdir::TempDirGuard,
}

impl FloatKeyStore {
    /// Creates the backing table in a fresh temp database.
    pub fn new() -> FloatKeyStore {
        let dir = tempdir::fresh("float");
        let engine = StorageEngine::open(&dir.0).expect("open engine");
        let table = engine.create_table("items").expect("table");
        FloatKeyStore {
            engine,
            table,
            order: Vec::new(),
            by_key: BTreeMap::new(),
            renumbers: 0,
            _dir: dir,
        }
    }

    fn write(&mut self, txn: &mut mdm_storage::Txn, key: f64, child: u64) {
        let mut rec = Vec::with_capacity(16);
        rec.extend_from_slice(&child.to_le_bytes());
        rec.extend_from_slice(&key.to_le_bytes());
        let rid = self.engine.insert(txn, self.table, &rec).expect("insert");
        self.by_key.insert(f64_key(key), rid);
    }

    fn renumber(&mut self) {
        // Gap exhausted: rewrite every record with keys spaced 1.0 apart.
        self.renumbers += 1;
        self.engine.drop_table("items").expect("drop");
        self.table = self.engine.create_table("items").expect("table");
        self.by_key.clear();
        let mut txn = self.engine.begin().expect("begin");
        for (i, entry) in self.order.iter_mut().enumerate() {
            entry.0 = i as f64;
        }
        for (key, child) in self.order.clone() {
            self.write(&mut txn, key, child);
        }
        self.engine.commit(txn).expect("commit");
    }
}

impl Default for FloatKeyStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedStore for FloatKeyStore {
    fn name(&self) -> &'static str {
        "relational-floatkey"
    }

    fn insert_at(&mut self, pos: usize, child: u64) {
        let key = match (
            pos.checked_sub(1).and_then(|p| self.order.get(p)),
            self.order.get(pos),
        ) {
            (None, None) => 0.0,
            (Some(&(left, _)), None) => left + 1.0,
            (None, Some(&(right, _))) => right - 1.0,
            (Some(&(left, _)), Some(&(right, _))) => {
                let mid = (left + right) / 2.0;
                if mid <= left || mid >= right {
                    // Precision exhausted: full renumber, then retry.
                    self.order.insert(pos, (0.0, child));
                    // Temporarily give it a placeholder; renumber fixes all.
                    self.renumber();
                    return;
                }
                mid
            }
        };
        self.order.insert(pos, (key, child));
        let mut txn = self.engine.begin().expect("begin");
        self.write(&mut txn, key, child);
        self.engine.commit(txn).expect("commit");
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn children(&mut self) -> Vec<u64> {
        let mut txn = self.engine.begin().expect("begin");
        let mut out = Vec::with_capacity(self.by_key.len());
        for &rid in self.by_key.values() {
            let rec = self
                .engine
                .get(&mut txn, self.table, rid)
                .expect("get")
                .expect("rec");
            out.push(u64::from_le_bytes(rec[0..8].try_into().expect("rec")));
        }
        self.engine.commit(txn).expect("commit");
        out
    }

    fn before(&mut self, a: u64, b: u64) -> bool {
        let ka = self.order.iter().find(|&&(_, c)| c == a).map(|&(k, _)| k);
        let kb = self.order.iter().find(|&&(_, c)| c == b).map(|&(k, _)| k);
        matches!((ka, kb), (Some(x), Some(y)) if x < y)
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        // No positional index over float keys: the client scans.
        self.order.get(n).map(|&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn OrderedStore) {
        // Append 0..10, then insert 100 at position 3 and 101 at 0.
        for i in 0..10 {
            store.append(i);
        }
        store.insert_at(3, 100);
        store.insert_at(0, 101);
        let expect = vec![101, 0, 1, 2, 100, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(store.children(), expect, "{}", store.name());
        assert_eq!(store.len(), 12);
        assert_eq!(store.nth(4), Some(100), "{}", store.name());
        assert!(store.before(101, 9), "{}", store.name());
        assert!(store.before(2, 100), "{}", store.name());
        assert!(!store.before(100, 2), "{}", store.name());
        assert!(!store.before(5, 5), "{}", store.name());
    }

    #[test]
    fn modeled_store_semantics() {
        exercise(&mut ModeledOrderingStore::new());
    }

    #[test]
    fn position_store_semantics() {
        exercise(&mut PositionStore::new());
    }

    #[test]
    fn float_store_semantics() {
        exercise(&mut FloatKeyStore::new());
    }

    #[test]
    fn float_store_renumbers_when_gap_closes() {
        let mut s = FloatKeyStore::new();
        s.append(0);
        s.append(1);
        s.insert_at(1, 2);
        // Inserting repeatedly just after child 2 pinches the gap between
        // two converging keys: the mantissa runs out in ~50 bisections.
        for i in 3..80 {
            s.insert_at(2, i);
        }
        assert!(s.renumbers >= 1, "expected at least one renumber");
        // Order still correct: [0, 2, 79, 78, …, 3, 1].
        let kids = s.children();
        assert_eq!(kids[0], 0);
        assert_eq!(kids[1], 2);
        assert_eq!(kids[2], 79);
        assert_eq!(*kids.last().unwrap(), 1);
        assert_eq!(kids.len(), 80);
    }

    #[test]
    fn all_stores_agree_on_random_ops() {
        let mut modeled = ModeledOrderingStore::new();
        let mut position = PositionStore::new();
        let mut float = FloatKeyStore::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for child in 0..60u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pos = (state >> 33) as usize % (reference.len() + 1);
            reference.insert(pos, child);
            modeled.insert_at(pos, child);
            position.insert_at(pos, child);
            float.insert_at(pos, child);
        }
        assert_eq!(modeled.children(), reference);
        assert_eq!(position.children(), reference);
        assert_eq!(float.children(), reference);
    }
}
