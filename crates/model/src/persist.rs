//! Persisting a [`Database`] through the storage engine.
//!
//! Layout: a `__schema` table with a single record (the serialized schema),
//! one `__entities_<TYPE>` table per entity type, a `__orderings` table of
//! `(ordering, parent, seq, child)` rows, and a `__relationships` table.
//! [`save`] rewrites the database wholesale inside one transaction (plus
//! auto-committed DDL); [`load`] reconstructs the in-memory database,
//! re-validating every schema rule and ordering invariant on the way in.

use std::collections::HashMap;

use mdm_storage::StorageEngine;

use crate::db::Database;
use crate::encode::{self, Reader};
use crate::error::{ModelError, Result};
use crate::instance::InstanceStore;
use crate::schema::OrderingId;
use crate::value::{EntityId, Value};

const SCHEMA_TABLE: &str = "__schema";
const ORDERINGS_TABLE: &str = "__orderings";
const RELS_TABLE: &str = "__relationships";
const INDEXES_TABLE: &str = "__indexes";

fn entity_table(type_name: &str) -> String {
    format!("__entities_{type_name}")
}

fn ensure_table(engine: &StorageEngine, name: &str) -> Result<u32> {
    match engine.table_id(name) {
        Ok(id) => Ok(id),
        Err(_) => Ok(engine.create_table(name)?),
    }
}

/// Writes the whole database to the engine, replacing any previous copy.
pub fn save(db: &Database, engine: &StorageEngine) -> Result<()> {
    // Drop stale model tables, then recreate.
    for t in engine.table_names() {
        if t == SCHEMA_TABLE
            || t == ORDERINGS_TABLE
            || t == RELS_TABLE
            || t == INDEXES_TABLE
            || t.starts_with("__entities_")
        {
            engine.drop_table(&t)?;
        }
    }
    let schema_t = ensure_table(engine, SCHEMA_TABLE)?;
    let ord_t = ensure_table(engine, ORDERINGS_TABLE)?;
    let rel_t = ensure_table(engine, RELS_TABLE)?;
    let idx_t = ensure_table(engine, INDEXES_TABLE)?;
    let mut ent_tables = HashMap::new();
    for e in db.schema().entity_types() {
        ent_tables.insert(
            e.name.clone(),
            ensure_table(engine, &entity_table(&e.name))?,
        );
    }

    let mut txn = engine.begin()?;
    engine.insert(&mut txn, schema_t, &encode::encode_schema(db.schema()))?;

    // Entities.
    for (ty_idx, ty) in db.schema().entity_types().iter().enumerate() {
        let table = ent_tables[&ty.name];
        for &id in db.store().instances_of(ty_idx as u32) {
            let inst = db.store().entity(id)?;
            let mut rec = Vec::new();
            rec.extend_from_slice(&id.to_le_bytes());
            rec.extend_from_slice(&(inst.attrs.len() as u32).to_le_bytes());
            for v in &inst.attrs {
                encode::encode_value(&mut rec, v);
            }
            engine.insert(&mut txn, table, &rec)?;
        }
    }

    // Named index definitions: (name, entity type, attribute). Only the
    // definition is stored; `load` rebuilds the in-memory attribute
    // indexes from the entity rows.
    for (name, (ty_name, attr)) in db.index_defs() {
        let mut rec = Vec::new();
        encode::encode_value(&mut rec, &Value::String(name.clone()));
        encode::encode_value(&mut rec, &Value::String(ty_name.clone()));
        encode::encode_value(&mut rec, &Value::String(attr.clone()));
        engine.insert(&mut txn, idx_t, &rec)?;
    }

    // Orderings: one row per (ordering, parent, seq, child).
    for (oid, _) in db.schema().orderings().iter().enumerate() {
        for (parent, children) in db.store().ordering_groups(oid as OrderingId) {
            for (seq, &child) in children.iter().enumerate() {
                let mut rec = Vec::new();
                rec.extend_from_slice(&(oid as u32).to_le_bytes());
                rec.extend_from_slice(&parent.unwrap_or(0).to_le_bytes());
                rec.extend_from_slice(&(seq as u32).to_le_bytes());
                rec.extend_from_slice(&child.to_le_bytes());
                engine.insert(&mut txn, ord_t, &rec)?;
            }
        }
    }

    // Relationship instances.
    for (rid, _) in db.schema().relationships().iter().enumerate() {
        for &ri in db.store().relationships_of(rid as u32) {
            let r = db.store().relationship(ri)?;
            let mut rec = Vec::new();
            rec.extend_from_slice(&(rid as u32).to_le_bytes());
            rec.extend_from_slice(&(r.entities.len() as u32).to_le_bytes());
            for &e in &r.entities {
                rec.extend_from_slice(&e.to_le_bytes());
            }
            rec.extend_from_slice(&(r.attrs.len() as u32).to_le_bytes());
            for v in &r.attrs {
                encode::encode_value(&mut rec, v);
            }
            engine.insert(&mut txn, rel_t, &rec)?;
        }
    }

    engine.commit(txn)?;
    Ok(())
}

/// Reads a database previously written with [`save`]. Returns an empty
/// database if none was saved. The whole load runs against one
/// [`mdm_storage::ReadSnapshot`]: no transaction can commit underneath
/// it, so it sees a single consistent commit point.
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

    // Entities.
    for (ty_idx, ty) in schema.entity_types().iter().enumerate() {
        let table = engine.table_id(&entity_table(&ty.name))?;
        for (_, rec) in snap.scan(table)? {
            let mut r = Reader::new(&rec);
            let id = r.u64()?;
            let nattrs = r.u32()? as usize;
            if nattrs != ty.attributes.len() {
                return Err(ModelError::Corrupt(format!(
                    "entity {id} of {} has {nattrs} attrs, schema says {}",
                    ty.name,
                    ty.attributes.len()
                )));
            }
            let attrs = (0..nattrs)
                .map(|_| encode::decode_value(&mut r))
                .collect::<Result<Vec<Value>>>()?;
            store.create_entity_with_id(id, ty_idx as u32, attrs);
        }
    }

    // Orderings: gather, sort by (ordering, parent, seq), replay appends.
    let ord_table = engine.table_id(ORDERINGS_TABLE)?;
    let mut rows: Vec<(u32, EntityId, u32, EntityId)> = Vec::new();
    for (_, rec) in snap.scan(ord_table)? {
        let mut r = Reader::new(&rec);
        rows.push((r.u32()?, r.u64()?, r.u32()?, r.u64()?));
    }
    rows.sort_unstable();
    for (oid, parent, _seq, child) in rows {
        let parent = (parent != 0).then_some(parent);
        store.ordering_append(&schema, oid, parent, child)?;
    }

    // Relationships.
    let rel_table = engine.table_id(RELS_TABLE)?;
    for (_, rec) in snap.scan(rel_table)? {
        let mut r = Reader::new(&rec);
        let rid = r.u32()?;
        let n = r.u32()? as usize;
        let entities = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>>>()?;
        let nattrs = r.u32()? as usize;
        let attrs = (0..nattrs)
            .map(|_| encode::decode_value(&mut r))
            .collect::<Result<Vec<_>>>()?;
        store.relate(rid, entities, attrs);
    }

    // Named index definitions (absent in databases saved before they
    // existed). Re-defining rebuilds the in-memory attribute indexes.
    let mut index_defs: Vec<(String, String, String)> = Vec::new();
    if let Ok(idx_t) = engine.table_id(INDEXES_TABLE) {
        for (_, rec) in snap.scan(idx_t)? {
            let mut r = Reader::new(&rec);
            let mut field = || match encode::decode_value(&mut r) {
                Ok(Value::String(s)) => Ok(s),
                Ok(v) => Err(ModelError::Corrupt(format!(
                    "index definition field is {}, not a string",
                    v.type_name()
                ))),
                Err(e) => Err(e),
            };
            index_defs.push((field()?, field()?, field()?));
        }
    }

    drop(snap);
    let mut db = Database::from_parts(schema, store);
    for (name, ty_name, attr) in index_defs {
        db.define_index(&name, &ty_name, &attr)?;
    }
    Ok(db)
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

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("rt");
        let db = build_db();
        let engine = StorageEngine::open(&dir).unwrap();
        save(&db, &engine).unwrap();
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
