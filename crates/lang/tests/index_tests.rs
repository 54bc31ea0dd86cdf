//! Tests for attribute-index-accelerated qualification (the executor's
//! single optimization: sargable `var.attr = constant` conjuncts probe
//! the model's secondary indexes).

use mdm_lang::{Session, StmtResult, Table};
use mdm_model::{Database, Value};

fn rows(mut results: Vec<StmtResult>) -> Table {
    match results.pop() {
        Some(StmtResult::Rows(t)) => t,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn populated(n: i64) -> (Session, Database) {
    let mut s = Session::new();
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity NOTE (name = integer, pitch = string)",
    )
    .unwrap();
    for i in 0..n {
        db.create_entity(
            "NOTE",
            &[
                ("name", Value::Integer(i)),
                ("pitch", Value::String(format!("p{}", i % 12))),
            ],
        )
        .unwrap();
    }
    (s, db)
}

#[test]
fn indexed_and_unindexed_agree() {
    let (mut s, mut db) = populated(500);
    let q = "range of n is NOTE\nretrieve (n.name) where n.pitch = \"p7\" and n.name < 100";
    let without = rows(s.execute(&mut db, q).unwrap());
    db.define_index("note_pitch", "NOTE", "pitch").unwrap();
    let with = rows(s.execute(&mut db, q).unwrap());
    assert_eq!(with, without);
    assert!(!with.is_empty());
}

#[test]
fn index_stays_correct_under_mutation() {
    let (mut s, mut db) = populated(50);
    db.define_index("note_name", "NOTE", "name").unwrap();
    // Mutate through QUEL: replace then delete.
    s.execute(
        &mut db,
        "range of n is NOTE\nreplace n (name = 999) where n.name = 7",
    )
    .unwrap();
    let t = rows(
        s.execute(&mut db, "retrieve (n.pitch) where n.name = 999")
            .unwrap(),
    );
    assert_eq!(t.len(), 1);
    let t = rows(
        s.execute(&mut db, "retrieve (n.pitch) where n.name = 7")
            .unwrap(),
    );
    assert!(t.is_empty(), "old key must be unindexed after replace");
    s.execute(&mut db, "delete n where n.name = 999").unwrap();
    let t = rows(
        s.execute(&mut db, "retrieve (n.pitch) where n.name = 999")
            .unwrap(),
    );
    assert!(t.is_empty());
    // Append re-populates the index.
    s.execute(&mut db, "append to NOTE (name = 999, pitch = \"new\")")
        .unwrap();
    let t = rows(
        s.execute(&mut db, "retrieve (n.pitch) where n.name = 999")
            .unwrap(),
    );
    assert_eq!(t.rows[0][0], Value::String("new".into()));
}

#[test]
fn two_indexed_conjuncts_intersect() {
    let (mut s, mut db) = populated(200);
    db.define_index("note_name", "NOTE", "name").unwrap();
    db.define_index("note_pitch", "NOTE", "pitch").unwrap();
    let t = rows(
        s.execute(
            &mut db,
            "range of n is NOTE\nretrieve (n.name) where n.name = 19 and n.pitch = \"p7\"",
        )
        .unwrap(),
    );
    assert_eq!(t.len(), 1, "19 % 12 == 7 so both conjuncts hold");
    let t = rows(
        s.execute(
            &mut db,
            "retrieve (n.name) where n.name = 19 and n.pitch = \"p3\"",
        )
        .unwrap(),
    );
    assert!(t.is_empty(), "empty intersection");
}

#[test]
fn or_disjuncts_do_not_restrict() {
    // `a = 1 or b = 2` must NOT use the index to restrict to a = 1 only.
    let (mut s, mut db) = populated(60);
    db.define_index("note_name", "NOTE", "name").unwrap();
    let t = rows(
        s.execute(
            &mut db,
            "range of n is NOTE\nretrieve (n.name) where n.name = 1 or n.name = 2",
        )
        .unwrap(),
    );
    assert_eq!(t.len(), 2);
}

#[test]
fn join_query_uses_index_on_one_side() {
    let mut s = Session::new();
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity CHORD (name = integer)\n\
         define entity NOTE (name = integer)\n\
         define ordering note_in_chord (NOTE) under CHORD",
    )
    .unwrap();
    for c in 0..40i64 {
        let chord = db
            .create_entity("CHORD", &[("name", Value::Integer(c))])
            .unwrap();
        for k in 0..4 {
            let note = db
                .create_entity("NOTE", &[("name", Value::Integer(c * 4 + k))])
                .unwrap();
            db.ord_append("note_in_chord", Some(chord), note).unwrap();
        }
    }
    db.define_index("chord_name", "CHORD", "name").unwrap();
    let t = rows(
        s.execute(
            &mut db,
            "range of n is NOTE\nrange of c is CHORD\n\
             retrieve (n.name) where n under c in note_in_chord and c.name = 13",
        )
        .unwrap(),
    );
    let mut names: Vec<i64> = t.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    names.sort_unstable();
    assert_eq!(names, vec![52, 53, 54, 55]);
}

#[test]
fn rebuild_after_bulk_store_mutation() {
    let (_s, mut db) = populated(10);
    db.define_index("note_name", "NOTE", "name").unwrap();
    // Bypass the typed API (bulk loader style), then rebuild.
    let ty = db.schema().entity_type_id("NOTE").unwrap();
    db.store_mut()
        .create_entity_with_id(
            4242,
            ty,
            vec![Value::Integer(777), Value::String("bulk".into())],
        )
        .unwrap();
    db.rebuild_attr_indexes();
    let mut s = Session::new();
    let t = rows(
        s.execute(&mut db, "retrieve (NOTE.pitch) where NOTE.name = 777")
            .unwrap(),
    );
    assert_eq!(t.rows[0][0], Value::String("bulk".into()));
}
