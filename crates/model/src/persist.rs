//! Persisting a [`Database`] through the storage engine.
//!
//! The image is the E-R translation of the MDM scheme, one row per thing:
//! a `__schema` table with a single row (the serialized schema), one
//! `__entities_<TYPE>` table per entity type with a row per entity, an
//! `__orderings` table with a row per P-edge `(ordering, parent, seq,
//! child)`, a `__relationships` table with a row per relationship
//! instance (carrying its instance id), and an `__indexes` table with a
//! row per named index definition.
//!
//! Every model change is therefore a row change, and there is one write
//! path. [`commit`] writes the current state of every row key the
//! database marked dirty since the last commit — an insert, an in-place
//! update, or a delete through the locator the model keeps beside each
//! entity, P-edge and relationship — in one engine transaction. [`save`]
//! is the same writer with every key dirty, into an engine whose image it
//! first clears (rows, not tables: the replacement is one transaction).
//! [`load`] is the one decoder; [`apply`] runs the row changes of a
//! replicated transaction through the same row decoders and marks what
//! they change dirty, so a replica commits them through [`commit`] like
//! any other edit. [`commit_with`] and [`save_with`] let a caller add
//! rows of its own to the image transaction.
//!
//! Image tables are created by [`prepare`] (DDL, auto-committed), never
//! by [`commit`]: the first commit point after an entity type is defined
//! creates its table, and everything after that is rows.

use std::collections::BTreeMap;

use mdm_storage::codec::{put_len, Reader};
use mdm_storage::{ReadSnapshot, Rid, StorageEngine, TableId, Txn};

/// Rows a caller adds to an image transaction, written just before it
/// commits.
pub type Extra<'a> = &'a mut dyn FnMut(&mut Txn) -> mdm_storage::Result<()>;

use crate::db::Database;
use crate::encode;
use crate::error::{ModelError, Result};
use crate::instance::{InstanceStore, Loc, RelInstance, RelInstanceId, RowKey};
use crate::schema::{OrderingId, RelTypeId, Schema};
use crate::value::{EntityId, TypeId, Value};

const SCHEMA_TABLE: &str = "__schema";
const ORDERINGS_TABLE: &str = "__orderings";
const RELS_TABLE: &str = "__relationships";
const INDEXES_TABLE: &str = "__indexes";
const ENTITY_PREFIX: &str = "__entities_";

fn entity_table(type_name: &str) -> String {
    format!("{ENTITY_PREFIX}{type_name}")
}

/// Creates the image tables a schema change since the last commit point
/// needs (DDL, auto-committed), so that [`commit`] finds every table it
/// writes. A no-op when the schema did not change. Returns whether it
/// ran.
pub fn prepare(db: &Database, engine: &StorageEngine) -> Result<bool> {
    if !db.store().dirty().schema {
        return Ok(false);
    }
    create_tables(db.schema(), engine)?;
    Ok(true)
}

fn create_tables(schema: &Schema, engine: &StorageEngine) -> Result<()> {
    let types = schema.entity_types().iter().map(|e| entity_table(&e.name));
    for name in [SCHEMA_TABLE, ORDERINGS_TABLE, RELS_TABLE, INDEXES_TABLE]
        .map(String::from)
        .into_iter()
        .chain(types)
    {
        if engine.table_id(&name).is_err() {
            engine.create_table(&name)?;
        }
    }
    Ok(())
}

/// Writes every row the database changed since the last commit point in
/// one engine transaction, then records where each row went and clears
/// the dirty set. Issues no DDL: [`prepare`] first. If the transaction
/// fails, memory is untouched and the changes stay dirty for the next
/// commit point.
pub fn commit(db: &mut Database, engine: &StorageEngine) -> Result<()> {
    if db.store().dirty().is_empty() {
        return Ok(());
    }
    commit_with(db, engine, &mut |_| Ok(()))
}

/// As [`commit`], with `extra`'s rows in the same engine transaction —
/// which then commits even when nothing in `db` is dirty.
pub fn commit_with(db: &mut Database, engine: &StorageEngine, extra: Extra<'_>) -> Result<()> {
    db.store_mut().dirty.merge();
    let dirty = db.store().dirty();
    let mut w = Writer::open(db.schema(), engine)?;
    if dirty.schema {
        w.schema_row()?;
    }
    if dirty.indexes {
        w.index_rows(db)?;
    }
    let mut placed = Vec::with_capacity(dirty.rows().len());
    for &(key, gone) in dirty.rows() {
        let disk = db.store().loc_of(key).and_then(Loc::get).or(gone.get());
        let body = current_row(db.store(), key);
        if let Some(loc) = w.put(key, body.as_deref(), disk)? {
            placed.push((key, loc));
        }
    }
    extra(&mut w.txn)?;
    w.finish()?;
    db.store_mut().settle(placed);
    Ok(())
}

/// Writes the whole database to the engine in one transaction, replacing
/// any previous image: every key dirty, no locator kept (the database
/// stays bound to the engine it came from, if any).
pub fn save(db: &Database, engine: &StorageEngine) -> Result<()> {
    save_with(db, engine, &mut |_| Ok(()))
}

/// As [`save`], with `extra`'s rows in the same engine transaction.
pub fn save_with(db: &Database, engine: &StorageEngine, extra: Extra<'_>) -> Result<()> {
    create_tables(db.schema(), engine)?;
    let mut w = Writer::open(db.schema(), engine)?;
    for name in engine.table_names() {
        if is_image_table(&name) {
            let table = engine.table_id(&name)?;
            for (rid, _) in engine.scan(&mut w.txn, table)? {
                engine.delete(&mut w.txn, table, rid)?;
            }
        }
    }
    w.schema_row()?;
    w.index_rows(db)?;
    let store = db.store();
    for ty in 0..db.schema().entity_types().len() as TypeId {
        for &id in store.instances_of(ty) {
            let key = RowKey::Entity(ty, id);
            w.put(key, current_row(store, key).as_deref(), None)?;
        }
    }
    for oid in 0..db.schema().orderings().len() as OrderingId {
        for (parent, children) in store.ordering_groups(oid) {
            for (seq, &child) in children.iter().enumerate() {
                let body = edge_row(oid, parent, seq, child);
                w.put(RowKey::Edge(oid, child), Some(&body), None)?;
            }
        }
    }
    for rel in 0..db.schema().relationships().len() as RelTypeId {
        for &id in store.relationships_of(rel) {
            let key = RowKey::Rel(id);
            w.put(key, current_row(store, key).as_deref(), None)?;
        }
    }
    extra(&mut w.txn)?;
    w.finish()
}

/// Whether `name` is one of the tables [`save`] and [`commit`] write.
pub fn is_image_table(name: &str) -> bool {
    matches!(
        name,
        SCHEMA_TABLE | ORDERINGS_TABLE | RELS_TABLE | INDEXES_TABLE
    ) || name.starts_with(ENTITY_PREFIX)
}

/// One image transaction: the tables it writes, resolved on first use.
struct Writer<'a> {
    engine: &'a StorageEngine,
    schema: &'a Schema,
    txn: Txn,
    schema_t: TableId,
    ord_t: TableId,
    rel_t: TableId,
    idx_t: TableId,
    entities: Vec<Option<TableId>>,
}

impl<'a> Writer<'a> {
    fn open(schema: &'a Schema, engine: &'a StorageEngine) -> Result<Writer<'a>> {
        Ok(Writer {
            engine,
            schema,
            schema_t: engine.table_id(SCHEMA_TABLE)?,
            ord_t: engine.table_id(ORDERINGS_TABLE)?,
            rel_t: engine.table_id(RELS_TABLE)?,
            idx_t: engine.table_id(INDEXES_TABLE)?,
            txn: engine.begin()?,
            entities: vec![None; schema.entity_types().len()],
        })
    }

    fn table(&mut self, key: RowKey) -> Result<TableId> {
        Ok(match key {
            RowKey::Entity(ty, _) => match self.entities[ty as usize] {
                Some(t) => t,
                None => {
                    let name = entity_table(&self.schema.entity_type(ty)?.name);
                    let t = self.engine.table_id(&name)?;
                    self.entities[ty as usize] = Some(t);
                    t
                }
            },
            RowKey::Edge(..) => self.ord_t,
            RowKey::Rel(_) => self.rel_t,
        })
    }

    /// Brings the row of `key` to `body` (`None` = no row): an insert,
    /// an in-place update of the row at `disk`, or its delete. Returns
    /// where the row now is.
    fn put(&mut self, key: RowKey, body: Option<&[u8]>, disk: Option<u64>) -> Result<Option<Loc>> {
        let table = self.table(key)?;
        let (e, txn) = (self.engine, &mut self.txn);
        Ok(match (body, disk) {
            (Some(b), Some(at)) => Some(e.update(txn, table, Rid::from_u64(at), b)?),
            (Some(b), None) => Some(e.insert(txn, table, b)?),
            (None, Some(at)) => {
                e.delete(txn, table, Rid::from_u64(at))?;
                None
            }
            (None, None) => None,
        }
        .map(|rid| Loc(rid.to_u64())))
    }

    /// The one `__schema` row, updated in place.
    fn schema_row(&mut self) -> Result<()> {
        let table = self.schema_t;
        let body = encode::encode_schema(self.schema);
        let (e, txn) = (self.engine, &mut self.txn);
        let mut rows = e.scan(txn, table)?.into_iter();
        match rows.next() {
            Some((rid, _)) => e.update(txn, table, rid, &body)?,
            None => e.insert(txn, table, &body)?,
        };
        for (rid, _) in rows {
            e.delete(txn, table, rid)?;
        }
        Ok(())
    }

    /// Reconciles the `__indexes` rows with the named index definitions:
    /// one row per name, kept, rewritten, added or removed.
    fn index_rows(&mut self, db: &Database) -> Result<()> {
        let table = self.idx_t;
        let (e, txn) = (self.engine, &mut self.txn);
        let mut wanted: BTreeMap<String, Vec<u8>> = db
            .index_defs()
            .iter()
            .map(|(name, (ty, attr))| (name.clone(), index_row(name, ty, attr)))
            .collect();
        for (rid, body) in e.scan(txn, table)? {
            let (name, ..) = decode_index_row(&body)?;
            match wanted.remove(&name) {
                Some(row) if row == body => {}
                Some(row) => {
                    e.update(txn, table, rid, &row)?;
                }
                None => {
                    e.delete(txn, table, rid)?;
                }
            }
        }
        for row in wanted.values() {
            e.insert(txn, table, row)?;
        }
        Ok(())
    }

    fn finish(self) -> Result<()> {
        Ok(self.engine.commit(self.txn)?)
    }
}

// ----------------------------------------------------------------------
// Row formats
// ----------------------------------------------------------------------

/// The row `key` holds in `store` now, or `None` if it has no row.
fn current_row(store: &InstanceStore, key: RowKey) -> Option<Vec<u8>> {
    match key {
        RowKey::Entity(_, id) => {
            let inst = store.entity(id).ok()?;
            let mut rec = Vec::new();
            rec.extend_from_slice(&id.to_le_bytes());
            put_len(&mut rec, inst.attrs.len());
            for v in inst.attrs {
                encode::encode_value(&mut rec, v);
            }
            Some(rec)
        }
        RowKey::Edge(oid, child) => {
            let (parent, seq) = store.edge(oid, child)?;
            Some(edge_row(oid, parent, seq, child))
        }
        RowKey::Rel(id) => {
            let r = store.relationship(id).ok()?;
            Some(rel_row(id, r))
        }
    }
}

fn edge_row(oid: OrderingId, parent: Option<EntityId>, seq: usize, child: EntityId) -> Vec<u8> {
    let mut rec = Vec::with_capacity(24);
    rec.extend_from_slice(&oid.to_le_bytes());
    rec.extend_from_slice(&parent.unwrap_or(0).to_le_bytes());
    rec.extend_from_slice(&(seq as u32).to_le_bytes());
    rec.extend_from_slice(&child.to_le_bytes());
    rec
}

fn rel_row(id: RelInstanceId, r: &RelInstance) -> Vec<u8> {
    let mut rec = Vec::new();
    rec.extend_from_slice(&r.rel.to_le_bytes());
    rec.extend_from_slice(&id.to_le_bytes());
    put_len(&mut rec, r.entities.len());
    for &e in &r.entities {
        rec.extend_from_slice(&e.to_le_bytes());
    }
    put_len(&mut rec, r.attrs.len());
    for v in &r.attrs {
        encode::encode_value(&mut rec, v);
    }
    rec
}

fn index_row(name: &str, ty: &str, attr: &str) -> Vec<u8> {
    let mut rec = Vec::new();
    for field in [name, ty, attr] {
        encode::encode_value(&mut rec, &Value::String(field.to_string()));
    }
    rec
}

/// An entity row: its id and attribute values, checked against the type.
fn decode_entity_row(rec: &[u8], schema: &Schema, ty: TypeId) -> Result<(EntityId, Vec<Value>)> {
    let def = schema.entity_type(ty)?;
    let mut r = Reader::new(rec);
    let id = r.u64()?;
    let nattrs = r.u32()? as usize;
    if nattrs != def.attributes.len() {
        return Err(ModelError::Corrupt(format!(
            "entity {id} of {} has {nattrs} attrs, schema says {}",
            def.name,
            def.attributes.len()
        )));
    }
    let mut attrs = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        attrs.push(encode::decode_value(&mut r)?);
    }
    Ok((id, attrs))
}

/// A P-edge row: `(ordering, parent, seq, child)`.
fn decode_edge_row(rec: &[u8]) -> Result<(OrderingId, Option<EntityId>, u32, EntityId)> {
    let mut r = Reader::new(rec);
    let (oid, parent, seq, child) = (r.u32()?, r.u64()?, r.u32()?, r.u64()?);
    Ok((oid, (parent != 0).then_some(parent), seq, child))
}

type RelRow = (RelTypeId, RelInstanceId, Vec<EntityId>, Vec<Value>);

fn decode_rel_row(rec: &[u8]) -> Result<RelRow> {
    let mut r = Reader::new(rec);
    let rel = r.u32()?;
    let id = r.u64()?;
    let entities = r.list(8, Reader::u64)?;
    let attrs = r.list(1, encode::decode_value)?;
    Ok((rel, id, entities, attrs))
}

/// An index definition row: `(name, entity type, attribute)`.
fn decode_index_row(rec: &[u8]) -> Result<(String, String, String)> {
    let mut r = Reader::new(rec);
    let mut field = || match encode::decode_value(&mut r) {
        Ok(Value::String(s)) => Ok(s),
        Ok(v) => Err(ModelError::Corrupt(format!(
            "index definition field is {}, not a string",
            v.type_name()
        ))),
        Err(e) => Err(e.into()),
    };
    Ok((field()?, field()?, field()?))
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Reads the committed image. Returns an empty database if none was
/// written. The whole load runs against one
/// [`mdm_storage::ReadSnapshot`]: no transaction can commit underneath
/// it, so it sees a single consistent commit point. Entities and
/// relationship instances are placed in id order (their creation order,
/// whatever slots their rows took), every schema rule and ordering
/// invariant is re-checked on the way in, and every row keeps its
/// locator, so the next [`commit`] updates rows in place.
pub fn load(engine: &StorageEngine) -> Result<Database> {
    let Ok(schema_t) = engine.table_id(SCHEMA_TABLE) else {
        return Ok(Database::new());
    };
    let snap = engine.snapshot();
    let schema_rows = snap.scan(schema_t)?;
    let Some((_, schema_bytes)) = schema_rows.first() else {
        return Ok(Database::new());
    };
    let schema = encode::decode_schema(schema_bytes)?;
    let mut store = InstanceStore::new(&schema);
    let loc = |rid: Rid| Loc(rid.to_u64());

    // Each type's rows go into its table in id order, so a scan of a
    // reopened database reads them in order.
    for (ty, def) in schema.entity_types().iter().enumerate() {
        let table = engine.table_id(&entity_table(&def.name))?;
        let mut rows = snap.scan(table)?;
        // An entity row starts with its id.
        rows.sort_unstable_by_key(|(_, rec)| rec.first_chunk().map(|b| u64::from_le_bytes(*b)));
        for (rid, rec) in rows {
            let (id, attrs) = decode_entity_row(&rec, &schema, ty as TypeId)?;
            store.load_entity(id, ty as TypeId, attrs, loc(rid))?;
        }
    }

    let ord_table = engine.table_id(ORDERINGS_TABLE)?;
    for (rid, rec) in snap.scan(ord_table)? {
        let (oid, parent, seq, child) = decode_edge_row(&rec)?;
        store.load_edge(&schema, oid, parent, seq as usize, child, loc(rid))?;
    }
    store.check_loaded_edges(&schema)?;

    let rel_table = engine.table_id(RELS_TABLE)?;
    for (rid, rec) in snap.scan(rel_table)? {
        let (rel, id, entities, attrs) = decode_rel_row(&rec)?;
        store.load_rel(id, rel, entities, attrs, loc(rid));
    }
    // Rows sit wherever free slots were; ids are the creation order.
    store.sort_by_id();

    let idx_t = engine.table_id(INDEXES_TABLE)?;
    let index_defs = snap
        .scan(idx_t)?
        .iter()
        .map(|(_, rec)| decode_index_row(rec))
        .collect::<Result<Vec<_>>>()?;

    drop(snap);
    let mut db = Database::from_parts(schema, store);
    for (name, ty_name, attr) in index_defs {
        db.define_index(&name, &ty_name, &attr)?;
    }
    db.store_mut().settle(Vec::new());
    Ok(db)
}

/// Every row of the committed image, as the changes that insert it:
/// [`apply`]d onto an empty database they give what [`load`] reads. All
/// rows are read through `snap`, so they are one commit point's.
pub fn image_rows(engine: &StorageEngine, snap: &ReadSnapshot) -> Result<Vec<RowChange>> {
    let mut rows = Vec::new();
    for name in engine.table_names() {
        if is_image_table(&name) {
            for (_, row) in snap.scan(engine.table_id(&name)?)? {
                rows.push(RowChange {
                    table: name.clone(),
                    old: None,
                    new: Some(row),
                });
            }
        }
    }
    Ok(rows)
}

/// One heap change of a committed engine transaction, as its log records
/// carry it: the table's name and the row's image before (`None` for an
/// insert) and after (`None` for a delete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChange {
    /// Name of the table the change touched.
    pub table: String,
    /// The row before the change.
    pub old: Option<Vec<u8>>,
    /// The row after the change.
    pub new: Option<Vec<u8>>,
}

/// Applies the row changes of one committed transaction (in log order)
/// to `db`, so that it holds what [`load`] would read back from the
/// engine the transaction committed into, and marks every row it changes
/// dirty: the next [`commit`] writes them into `db`'s own engine, at its
/// own record ids. Changes to other tables are ignored. Every row names
/// its key (relationship rows carry their instance id), so a delete's old
/// image is enough. Applied onto an empty database, a transaction that
/// inserts every row of an image is a load.
pub fn apply(db: &mut Database, changes: &[RowChange]) -> Result<()> {
    let schema_image = changes
        .iter()
        .rev()
        .find(|c| c.table == SCHEMA_TABLE)
        .and_then(|c| c.new.as_deref());
    if let Some(bytes) = schema_image {
        db.adopt_schema(encode::decode_schema(bytes)?)?;
    }

    // The final state of each row key the transaction touched.
    let mut rows: BTreeMap<RowKey, Option<&[u8]>> = BTreeMap::new();
    let mut indexes: BTreeMap<String, Option<(String, String)>> = BTreeMap::new();
    for c in changes {
        let Some(image) = c.new.as_deref().or(c.old.as_deref()) else {
            continue;
        };
        let key = match c.table.as_str() {
            ORDERINGS_TABLE => {
                let (oid, _, _, child) = decode_edge_row(image)?;
                RowKey::Edge(oid, child)
            }
            RELS_TABLE => RowKey::Rel(decode_rel_row(image)?.1),
            INDEXES_TABLE => {
                let (name, ty, attr) = decode_index_row(image)?;
                indexes.insert(name, c.new.is_some().then_some((ty, attr)));
                continue;
            }
            name => match name.strip_prefix(ENTITY_PREFIX) {
                Some(ty) => {
                    let id = Reader::new(image).u64()?;
                    RowKey::Entity(db.schema().entity_type_id(ty)?, id)
                }
                None => continue,
            },
        };
        rows.insert(key, c.new.as_deref());
    }

    // Entities first (edges and relationships name them), deletes after
    // puts; a delete cascades in memory exactly as it did on the writer.
    for (&key, state) in &rows {
        if let (RowKey::Entity(ty, _), Some(body)) = (key, state) {
            let (id, attrs) = decode_entity_row(body, db.schema(), ty)?;
            db.put_entity(ty, id, attrs)?;
        }
    }
    let victims: Vec<EntityId> = (rows.iter())
        .filter_map(|(&key, state)| match (key, state) {
            (RowKey::Entity(_, id), None) => Some(id),
            _ => None,
        })
        .filter(|&id| db.store().exists(id))
        .collect();
    db.delete_entities(&victims)?;

    // Edges: take every touched child out, then put the surviving ones
    // back in (ordering, parent, seq) order. Committed rows hold dense
    // positions, so each lands exactly at its seq.
    let schema = db.schema().clone();
    let store = db.store_mut();
    let mut edges = Vec::new();
    for (&key, state) in &rows {
        if let RowKey::Edge(oid, child) = key {
            let _ = store.ordering_remove(&schema, oid, child);
            if let Some(body) = state {
                edges.push(decode_edge_row(body)?);
            }
        }
    }
    edges.sort_unstable();
    for (oid, parent, seq, child) in edges {
        store.ordering_insert(&schema, oid, parent, seq as usize, child)?;
    }

    for (&key, state) in &rows {
        if let RowKey::Rel(id) = key {
            match state {
                Some(body) => {
                    let (rel, id, entities, attrs) = decode_rel_row(body)?;
                    store.put_rel(id, rel, entities, attrs);
                }
                None => {
                    let _ = store.remove_relationship(id);
                }
            }
        }
    }

    for (name, def) in indexes {
        let current = db.index_defs().get(&name).cloned();
        if current == def {
            continue;
        }
        if current.is_some() {
            db.destroy_index(&name)?;
        }
        if let Some((ty, attr)) = def {
            db.define_index(&name, &ty, &attr)?;
        }
    }

    db.refresh_live_counts();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, RoleDef};
    use crate::value::DataType;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mdm-persist-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn attr(name: &str, ty: DataType) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            ty,
        }
    }

    fn build_db() -> Database {
        let mut db = Database::new();
        db.define_entity("CHORD", vec![attr("name", DataType::Integer)])
            .unwrap();
        db.define_entity(
            "NOTE",
            vec![
                attr("name", DataType::Integer),
                attr("pitch", DataType::String),
            ],
        )
        .unwrap();
        db.define_entity("PERSON", vec![attr("name", DataType::String)])
            .unwrap();
        db.define_relationship(
            "PLAYS",
            vec![
                RoleDef {
                    name: "player".into(),
                    entity_type: 2,
                },
                RoleDef {
                    name: "chord".into(),
                    entity_type: 0,
                },
            ],
            vec![attr("confidence", DataType::Float)],
        )
        .unwrap();
        db.define_ordering(Some("note_in_chord"), &["NOTE"], Some("CHORD"))
            .unwrap();
        db.define_ordering(Some("all_chords"), &["CHORD"], None)
            .unwrap();
        db.define_index("note_by_pitch", "NOTE", "pitch").unwrap();

        let c1 = db
            .create_entity("CHORD", &[("name", Value::Integer(1))])
            .unwrap();
        let c2 = db
            .create_entity("CHORD", &[("name", Value::Integer(2))])
            .unwrap();
        for (i, pitch) in ["C4", "E4", "G4"].iter().enumerate() {
            let n = db
                .create_entity(
                    "NOTE",
                    &[
                        ("name", Value::Integer(i as i64)),
                        ("pitch", Value::String((*pitch).into())),
                    ],
                )
                .unwrap();
            db.ord_append("note_in_chord", Some(c1), n).unwrap();
        }
        db.ord_append("all_chords", None, c1).unwrap();
        db.ord_append("all_chords", None, c2).unwrap();
        let p = db
            .create_entity("PERSON", &[("name", Value::String("Bach".into()))])
            .unwrap();
        db.relate(
            "PLAYS",
            &[("player", p), ("chord", c1)],
            &[("confidence", Value::Float(0.9))],
        )
        .unwrap();
        db
    }

    fn committed(db: &mut Database, engine: &StorageEngine) {
        prepare(db, engine).unwrap();
        commit(db, engine).unwrap();
        assert!(db.store().dirty().is_empty());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("rt");
        let db = build_db();
        let engine = StorageEngine::open(&dir).unwrap();
        save(&db, &engine).unwrap();
        // The image's rows (the schema, entity, edge, relationship and
        // index rows) are pinned: an image an earlier build wrote loads.
        let snap = engine.snapshot();
        let rows: Vec<(String, String)> = (image_rows(&engine, &snap).unwrap().into_iter())
            .map(|r| (r.table, hex(&r.new.unwrap())))
            .collect();
        drop(snap);
        let pinned = PINNED_ROWS
            .iter()
            .map(|&(t, h)| (t.to_string(), h.to_string()));
        assert_eq!(rows, pinned.collect::<Vec<_>>());
        // The image carries index definitions, not engine B-trees.
        for ty in db.schema().entity_types() {
            let table = engine.table_id(&entity_table(&ty.name)).unwrap();
            assert!(engine.index_names(table).unwrap().is_empty());
        }
        let back = load(&engine).unwrap();
        assert_eq!(back, db);
        let note = back.schema().entity_type_id("NOTE").unwrap();
        assert_eq!(
            back.attr_index_get(note, 1, &Value::String("E4".into()))
                .map(<[EntityId]>::len),
            Some(1),
            "the named index answers after load"
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `build_db()`'s image rows, as `(table, row)`.
    const PINNED_ROWS: &[(&str, &str)] = &[
        (
            "__entities_CHORD",
            "010000000000000001000000010100000000000000",
        ),
        (
            "__entities_CHORD",
            "020000000000000001000000010200000000000000",
        ),
        (
            "__entities_NOTE",
            "03000000000000000200000001000000000000000003020000004334",
        ),
        (
            "__entities_NOTE",
            "04000000000000000200000001010000000000000003020000004534",
        ),
        (
            "__entities_NOTE",
            "05000000000000000200000001020000000000000003020000004734",
        ),
        (
            "__entities_PERSON",
            "060000000000000001000000030400000042616368",
        ),
        (
            "__indexes",
            "030d0000006e6f74655f62795f706974636803040000004e4f544503050000007069746368",
        ),
        (
            "__orderings",
            "000000000100000000000000000000000300000000000000",
        ),
        (
            "__orderings",
            "000000000100000000000000010000000400000000000000",
        ),
        (
            "__orderings",
            "000000000100000000000000020000000500000000000000",
        ),
        (
            "__orderings",
            "010000000000000000000000000000000100000000000000",
        ),
        (
            "__orderings",
            "010000000000000000000000010000000200000000000000",
        ),
        (
            "__relationships",
            concat!(
                "00000000010000000000000002000000060000000000000001000000000000000100000002cdcccc",
                "ccccccec3f",
            ),
        ),
        (
            "__schema",
            concat!(
                "030000000500000043484f524401000000040000006e616d6500040000004e4f5445020000000400",
                "00006e616d65000500000070697463680206000000504552534f4e01000000040000006e616d6502",
                "0100000005000000504c4159530200000006000000706c61796572020000000500000063686f7264",
                "00000000010000000a000000636f6e666964656e63650102000000010d0000006e6f74655f696e5f",
                "63686f726401000000010000000100000000010a000000616c6c5f63686f72647301000000000000",
                "0000",
            ),
        ),
    ];

    #[test]
    fn roundtrip_survives_reopen() {
        let dir = tmpdir("reopen");
        let db = build_db();
        {
            let engine = StorageEngine::open(&dir).unwrap();
            save(&db, &engine).unwrap();
        }
        let engine = StorageEngine::open(&dir).unwrap();
        let back = load(&engine).unwrap();
        assert_eq!(back, db);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resave_replaces_previous_copy() {
        let dir = tmpdir("resave");
        let engine = StorageEngine::open(&dir).unwrap();
        let mut db = build_db();
        save(&db, &engine).unwrap();
        // Mutate and re-save.
        let extra = db
            .create_entity("CHORD", &[("name", Value::Integer(3))])
            .unwrap();
        db.ord_append("all_chords", None, extra).unwrap();
        save(&db, &engine).unwrap();
        let back = load(&engine).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.ord_children("all_chords", None).unwrap().len(), 3);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Commits write only what changed, in place: every kind of change
    /// (create, replace, delete, re-order, relate, unrelate, index DDL)
    /// reads back equal, and rows keep their slots.
    #[test]
    fn commits_apply_each_change_in_place() {
        let dir = tmpdir("commit");
        let engine = StorageEngine::open(&dir).unwrap();
        let mut db = build_db();
        committed(&mut db, &engine);
        assert_eq!(load(&engine).unwrap(), db);

        let chords = db.ord_children("all_chords", None).unwrap();
        let notes = db.ord_children("note_in_chord", Some(chords[0])).unwrap();
        db.set_attr(notes[1], "pitch", Value::String("Eb4".into()))
            .unwrap();
        db.ord_remove("note_in_chord", notes[0]).unwrap();
        db.ord_insert("note_in_chord", Some(chords[0]), 2, notes[0])
            .unwrap();
        db.delete_entity(notes[2]).unwrap();
        let p = db.instances_of("PERSON").unwrap()[0];
        db.relate("PLAYS", &[("player", p), ("chord", chords[1])], &[])
            .unwrap();
        db.destroy_index("note_by_pitch").unwrap();
        db.define_index("note_by_name", "NOTE", "name").unwrap();
        let pages = engine.num_pages();
        committed(&mut db, &engine);
        assert_eq!(engine.num_pages(), pages, "updates land in place");
        let back = load(&engine).unwrap();
        assert_eq!(back, db);
        assert_eq!(
            back.ord_children("note_in_chord", Some(chords[0])).unwrap(),
            vec![notes[1], notes[0]]
        );
        assert!(back.index_defs().contains_key("note_by_name"));

        // A second load binds the same rows: committing through it works.
        let mut again = back;
        again.delete_entity(p).unwrap();
        committed(&mut again, &engine);
        assert_eq!(load(&engine).unwrap(), again);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Freed slots are reused, so heap order is not creation order: load
    /// still rebuilds `instances_of` and relationship ids in creation
    /// order.
    #[test]
    fn load_keeps_creation_order_after_slot_reuse() {
        let dir = tmpdir("slot-reuse");
        let mut db = build_db();
        {
            let engine = StorageEngine::open(&dir).unwrap();
            committed(&mut db, &engine);
            let person = db.instances_of("PERSON").unwrap()[0];
            let chord = db.instances_of("CHORD").unwrap()[0];
            let first = db.instances_of("NOTE").unwrap()[0];
            db.delete_entity(first).unwrap();
            db.delete_entity(person).unwrap();
            committed(&mut db, &engine);
            let n = db
                .create_entity("NOTE", &[("pitch", Value::String("B3".into()))])
                .unwrap();
            db.ord_append("note_in_chord", Some(chord), n).unwrap();
            let p = db.create_entity("PERSON", &[]).unwrap();
            db.relate("PLAYS", &[("player", p), ("chord", chord)], &[])
                .unwrap();
            db.relate("PLAYS", &[("player", p), ("chord", chord)], &[])
                .unwrap();
            committed(&mut db, &engine);
        }
        let engine = StorageEngine::open(&dir).unwrap();
        let back = load(&engine).unwrap();
        assert_eq!(back, db, "order included");
        let note = back.schema().entity_type_id("NOTE").unwrap();
        assert_eq!(
            back.store().instances_of(note),
            db.store().instances_of(note)
        );
        let plays = back.schema().relationship_id("PLAYS").unwrap();
        assert_eq!(
            back.store().relationships_of(plays),
            db.store().relationships_of(plays)
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Commits `writer` and applies the transaction's row changes, as
    /// its log records carry them, to `replica`, which must then hold
    /// what a load of the engine holds — and, once committed into its
    /// own engine at its own record ids, what a load of that holds.
    fn ship(
        engine: &StorageEngine,
        writer: &mut Database,
        replica: &mut Database,
        own: &StorageEngine,
    ) {
        use mdm_storage::WalRecord;
        let from = engine.wal_next_lsn();
        prepare(writer, engine).unwrap();
        commit(writer, engine).unwrap();
        let names: BTreeMap<TableId, String> = (engine.table_names().into_iter())
            .map(|name| (engine.table_id(&name).unwrap(), name))
            .collect();
        let (batch, _) = engine.wal_read_from(from, usize::MAX).unwrap();
        let changes: Vec<RowChange> = batch
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                WalRecord::Insert { table, body, .. } => Some((table, None, Some(body))),
                WalRecord::Update {
                    table, old, new, ..
                } => Some((table, Some(old), Some(new))),
                WalRecord::Delete { table, old, .. } => Some((table, Some(old), None)),
                _ => None,
            })
            .map(|(table, old, new)| RowChange {
                table: names[&table].clone(),
                old,
                new,
            })
            .collect();
        apply(replica, &changes).unwrap();
        assert_eq!(*replica, load(engine).unwrap());
        prepare(replica, own).unwrap();
        commit(replica, own).unwrap();
        assert_eq!(*replica, load(own).unwrap());
    }

    /// A replica applying a writer's committed row changes holds what a
    /// load of the writer's engine holds.
    #[test]
    fn applied_row_changes_equal_a_load() {
        let dir = tmpdir("apply");
        let engine = StorageEngine::open(&dir).unwrap();
        let own = StorageEngine::open(&dir.join("replica")).unwrap();
        let mut writer = build_db();
        let mut replica = Database::new();
        ship(&engine, &mut writer, &mut replica, &own);
        let chords = writer.ord_children("all_chords", None).unwrap();
        let notes = writer
            .ord_children("note_in_chord", Some(chords[0]))
            .unwrap();
        writer.ord_remove("note_in_chord", notes[0]).unwrap();
        writer
            .ord_append("note_in_chord", Some(chords[1]), notes[0])
            .unwrap();
        writer
            .set_attr(notes[2], "pitch", Value::String("G#4".into()))
            .unwrap();
        writer.delete_entity(chords[0]).unwrap();
        writer
            .define_index("chord_by_name", "CHORD", "name")
            .unwrap();
        ship(&engine, &mut writer, &mut replica, &own);
        drop((engine, own));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `instances_of` and `relationships_of` stay ascending by id through
    /// every insertion path: an id below the type's largest, a delete, a
    /// load after slot reuse, and a replica's applied rows.
    #[test]
    fn instance_lists_stay_ascending_by_id() {
        fn assert_ascending(db: &Database, step: &str) {
            let store = db.store();
            let types = db.schema().entity_types().len() as TypeId;
            let rels = db.schema().relationships().len() as RelTypeId;
            let lists = (0..types)
                .map(|ty| store.instances_of(ty))
                .chain((0..rels).map(|rel| store.relationships_of(rel)));
            for ids in lists {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{step}: {ids:?}");
            }
        }
        let dir = tmpdir("ascending");
        let mut writer = build_db();
        let mut replica = Database::new();
        let note = writer.schema().entity_type_id("NOTE").unwrap();
        {
            let engine = StorageEngine::open(&dir).unwrap();
            let own = StorageEngine::open(&dir.join("replica")).unwrap();
            ship(&engine, &mut writer, &mut replica, &own);
            let notes = writer.store().instances_of(note).to_vec();
            let freed = notes[1];
            writer.delete_entity(freed).unwrap();
            assert_ascending(&writer, "delete");
            ship(&engine, &mut writer, &mut replica, &own);

            // The freed id, now below the type's largest, and the freed
            // slot taken by its row.
            writer
                .store_mut()
                .create_entity_with_id(
                    freed,
                    note,
                    vec![Value::Integer(9), Value::String("D4".into())],
                )
                .unwrap();
            writer.rebuild_attr_indexes();
            assert_eq!(writer.store().instances_of(note), notes.as_slice());
            assert_ascending(&writer, "create_entity_with_id");
            let p = writer.instances_of("PERSON").unwrap()[0];
            let c = writer.instances_of("CHORD").unwrap()[1];
            for _ in 0..3 {
                writer
                    .relate("PLAYS", &[("player", p), ("chord", c)], &[])
                    .unwrap();
            }
            let plays = writer.schema().relationship_id("PLAYS").unwrap();
            let middle = writer.store().relationships_of(plays)[1];
            writer.store_mut().remove_relationship(middle).unwrap();
            ship(&engine, &mut writer, &mut replica, &own);
            assert_ascending(&writer, "relate");
            assert_ascending(&replica, "apply");
        }
        let engine = StorageEngine::open(&dir).unwrap();
        let back = load(&engine).unwrap();
        assert_ascending(&back, "load");
        assert_eq!(back, writer);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_from_empty_engine_gives_empty_db() {
        let dir = tmpdir("empty");
        let engine = StorageEngine::open(&dir).unwrap();
        let db = load(&engine).unwrap();
        assert_eq!(db.schema().entity_types().len(), 0);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
