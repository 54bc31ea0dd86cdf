//! Property test: deleting a set of instances in one batch leaves exactly
//! what deleting them one at a time leaves — the store, every type's
//! ascending id list, the rows the next commit writes, and the image a
//! save and a reload give back. Then new instances take the freed rows:
//! every type's table still scans to exactly its instances, and the
//! committed database still reloads equal.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use mdm_model::persist::{commit, load, prepare, save};
use mdm_model::schema::{AttributeDef, RoleDef};
use mdm_model::value::DataType;
use mdm_model::{Database, EntityId, Value};
use mdm_storage::{StorageEngine, WalRecord};

const TYPES: [&str; 6] = ["VOICE", "CHORD", "REST", "NOTE", "GROUP", "PERSON"];

/// A small CMN-shaped schema: chords and rests under voices, notes under
/// chords and in one parentless ordering, groups nested in groups and
/// holding chords (so a CHORD has two parents), and a relationship
/// between people and notes. NOTE's key is indexed.
fn schema() -> Database {
    let mut db = Database::new();
    let key = || {
        vec![AttributeDef {
            name: "k".into(),
            ty: DataType::Integer,
        }]
    };
    for name in TYPES {
        db.define_entity(name, key()).unwrap();
    }
    db.define_ordering(Some("voice_content"), &["CHORD", "REST"], Some("VOICE"))
        .unwrap();
    db.define_ordering(Some("note_in_chord"), &["NOTE"], Some("CHORD"))
        .unwrap();
    db.define_ordering(Some("group_content"), &["GROUP", "CHORD"], Some("GROUP"))
        .unwrap();
    db.define_ordering(Some("all_notes"), &["NOTE"], None)
        .unwrap();
    let role = |name: &str, ty: &str| RoleDef {
        name: name.into(),
        entity_type: db.schema().entity_type_id(ty).unwrap(),
    };
    let roles = vec![role("person", "PERSON"), role("note", "NOTE")];
    db.define_relationship("PLAYS", roles, key()).unwrap();
    db.define_index("note_k", "NOTE", "k").unwrap();
    db
}

/// Every type's table scanned: each live row once, holding what a point
/// lookup of its id reads, and the ids, once sorted, the type's list.
fn check_tables(db: &Database) {
    let store = db.store();
    for ty in 0..TYPES.len() as u32 {
        let mut scanned = Vec::new();
        for (id, attrs) in store.rows_of(ty) {
            let inst = store.entity(id).unwrap();
            prop_assert_eq!(inst.ty, ty);
            prop_assert_eq!(inst.attrs, attrs);
            scanned.push(id);
        }
        scanned.sort_unstable();
        prop_assert_eq!(scanned.as_slice(), store.instances_of(ty));
    }
}

fn pick(rng: &mut TestRng, ids: &[EntityId]) -> Option<EntityId> {
    (!ids.is_empty()).then(|| ids[rng.below(ids.len() as u64) as usize])
}

/// A random instance graph; creation order interleaves the types, so
/// every type's ids are scattered.
fn graph(rng: &mut TestRng) -> Database {
    let mut db = schema();
    let mut made: Vec<Vec<EntityId>> = vec![Vec::new(); TYPES.len()];
    for _ in 0..rng.below(60) + 10 {
        let t = rng.below(TYPES.len() as u64) as usize;
        let k = Value::Integer(rng.below(4) as i64);
        let id = db.create_entity(TYPES[t], &[("k", k)]).unwrap();
        let at = |rng: &mut TestRng, db: &Database, o: &str, p: Option<EntityId>| {
            let len = db.ord_children(o, p).unwrap().len() as u64;
            rng.below(len + 1) as usize
        };
        match TYPES[t] {
            "CHORD" | "REST" => {
                if let Some(v) = pick(rng, &made[0]) {
                    let pos = at(rng, &db, "voice_content", Some(v));
                    db.ord_insert("voice_content", Some(v), pos, id).unwrap();
                }
                if TYPES[t] == "CHORD" && rng.below(2) == 0 {
                    if let Some(g) = pick(rng, &made[4]) {
                        let pos = at(rng, &db, "group_content", Some(g));
                        db.ord_insert("group_content", Some(g), pos, id).unwrap();
                    }
                }
            }
            "NOTE" => {
                if let Some(c) = pick(rng, &made[1]) {
                    let pos = at(rng, &db, "note_in_chord", Some(c));
                    db.ord_insert("note_in_chord", Some(c), pos, id).unwrap();
                }
                let pos = at(rng, &db, "all_notes", None);
                db.ord_insert("all_notes", None, pos, id).unwrap();
                if let Some(p) = pick(rng, &made[5]) {
                    let k = Value::Integer(rng.below(4) as i64);
                    db.relate("PLAYS", &[("person", p), ("note", id)], &[("k", k)])
                        .unwrap();
                }
            }
            "GROUP" => {
                // Under an earlier group, so the nesting never cycles.
                if let Some(g) = pick(rng, &made[4]) {
                    let pos = at(rng, &db, "group_content", Some(g));
                    db.ord_insert("group_content", Some(g), pos, id).unwrap();
                }
            }
            _ => {}
        }
        made[t].push(id);
    }
    db
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("mdm-prop-delete-{}-{n}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The database committed into a fresh engine, so its rows carry
/// locators: identical graphs committed the same way get identical ones.
fn committed(db: &Database, tag: &str) -> (Database, StorageEngine, std::path::PathBuf) {
    let dir = tmpdir(tag);
    let engine = StorageEngine::open(&dir).unwrap();
    let mut db = db.clone();
    prepare(&db, &engine).unwrap();
    commit(&mut db, &engine).unwrap();
    (db, engine, dir)
}

/// The log records the next commit writes: the dirty keys, each with
/// the row it names, in key order.
fn commit_records(db: &mut Database, engine: &StorageEngine) -> Vec<WalRecord> {
    let from = engine.wal_next_lsn();
    commit(db, engine).unwrap();
    let (records, _) = engine.wal_read_from(from, usize::MAX).unwrap();
    records.into_iter().map(|(_, rec)| rec).collect()
}

/// A save into a fresh engine, reloaded.
fn saved_and_reloaded(db: &Database, tag: &str) -> Database {
    let dir = tmpdir(tag);
    let engine = StorageEngine::open(&dir).unwrap();
    save(db, &engine).unwrap();
    let back = load(&engine).unwrap();
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_batch_deletes_what_one_at_a_time_deletes(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let db = graph(&mut rng);
        let ids: Vec<EntityId> = TYPES
            .iter()
            .flat_map(|t| db.instances_of(t).unwrap().to_vec())
            .collect();
        let share = rng.below(3) + 1;
        let mut victims: Vec<EntityId> = ids
            .iter()
            .copied()
            .filter(|_| rng.below(4) < share)
            .collect();
        // One at a time, in a random order: a parent before or after its
        // children, a sibling group losing members from anywhere.
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let (mut batch, batch_engine, batch_dir) = committed(&db, "batch");
        let (mut single, single_engine, single_dir) = committed(&db, "single");
        batch.delete_entities(&victims).unwrap();
        for &id in &victims {
            single.delete_entity(id).unwrap();
        }

        prop_assert!(batch.store() == single.store());
        for name in TYPES {
            let of = batch.instances_of(name).unwrap();
            prop_assert!(of.windows(2).all(|w| w[0] < w[1]), "{} not ascending", name);
            prop_assert!(of.iter().all(|id| !victims.contains(id)));
        }
        let rel = batch.schema().relationship_id("PLAYS").unwrap();
        prop_assert!(batch.store().relationships_of(rel).windows(2).all(|w| w[0] < w[1]));
        let note = batch.schema().entity_type_id("NOTE").unwrap();
        for k in 0..4 {
            let probe = |db: &Database| db.attr_index_get(note, 0, &Value::Integer(k)).map(<[_]>::to_vec);
            prop_assert_eq!(probe(&batch), probe(&single));
        }

        // Equal dirty keys and locators: the commits log the same records.
        prop_assert_eq!(
            commit_records(&mut batch, &batch_engine),
            commit_records(&mut single, &single_engine)
        );
        // What each commit left on disk is what a whole save writes.
        let reloaded = saved_and_reloaded(&batch, "batch-save");
        prop_assert!(reloaded == saved_and_reloaded(&single, "single-save"));
        prop_assert!(load(&batch_engine).unwrap() == reloaded);
        prop_assert!(load(&single_engine).unwrap() == reloaded);
        // The live, committed database is what its engine reloads: no
        // emptied sibling group lingers in memory.
        prop_assert!(batch == reloaded);

        // New instances take the freed rows, ids above every live one.
        check_tables(&batch);
        for _ in 0..victims.len() + rng.below(4) as usize {
            let t = TYPES[rng.below(TYPES.len() as u64) as usize];
            let k = Value::Integer(rng.below(4) as i64);
            let id = batch.create_entity(t, &[("k", k)]).unwrap();
            if t == "NOTE" {
                let pos = rng.below(batch.ord_children("all_notes", None).unwrap().len() as u64 + 1);
                batch.ord_insert("all_notes", None, pos as usize, id).unwrap();
            }
        }
        check_tables(&batch);
        for k in 0..4 {
            let mut found = batch.attr_index_get(note, 0, &Value::Integer(k)).unwrap().to_vec();
            found.sort_unstable();
            let mut scanned: Vec<EntityId> = (batch.store().rows_of(note))
                .filter(|(_, attrs)| attrs[0] == Value::Integer(k))
                .map(|(id, _)| id)
                .collect();
            scanned.sort_unstable();
            prop_assert_eq!(found, scanned);
        }
        commit(&mut batch, &batch_engine).unwrap();
        let back = load(&batch_engine).unwrap();
        prop_assert!(back == batch);
        check_tables(&back);
        prop_assert!(saved_and_reloaded(&batch, "reuse-save") == batch);

        drop((batch_engine, single_engine));
        std::fs::remove_dir_all(&batch_dir).ok();
        std::fs::remove_dir_all(&single_dir).ok();
    }
}
