//! QUEL pipeline observability: phase timers, executor row traffic, and
//! ordering-operator counters must reflect the work actually performed.

use std::sync::Arc;

use mdm_lang::{QuelMetrics, Session};
use mdm_model::{Database, Value};
use mdm_obs::Registry;

/// The §5.6 NOTE/CHORD database: chord 1 with notes 1..=4 in order,
/// chord 2 with notes 5..=6.
fn chord_db(session: &mut Session) -> Database {
    let mut db = Database::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .unwrap();
    let c1 = db
        .create_entity("CHORD", &[("name", Value::Integer(1))])
        .unwrap();
    let c2 = db
        .create_entity("CHORD", &[("name", Value::Integer(2))])
        .unwrap();
    for i in 1..=4 {
        let n = db
            .create_entity("NOTE", &[("name", Value::Integer(i))])
            .unwrap();
        db.ord_append("note_in_chord", Some(c1), n).unwrap();
    }
    for i in 5..=6 {
        let n = db
            .create_entity("NOTE", &[("name", Value::Integer(i))])
            .unwrap();
        db.ord_append("note_in_chord", Some(c2), n).unwrap();
    }
    db
}

#[test]
fn pipeline_metrics_count_exact_work() {
    let registry = Registry::new();
    let metrics = QuelMetrics::register(&registry);
    let mut s = Session::with_metrics(Arc::clone(&metrics));
    let mut db = chord_db(&mut s); // program 1: three define statements

    // Program 2: n1 binds first (both domains are 6, n1 is declared
    // first); n2's candidates are read from the ordering as n1's later
    // siblings: 3 + 2 + 1 + 0 (chord 1) + 1 + 0 (chord 2) = 7 bindings,
    // `before` and `n2.name` evaluated on each, 2 rows out.
    s.execute(
        &mut db,
        "range of n1, n2 is NOTE\n\
         retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3",
    )
    .unwrap();
    // Program 3: same shape with `after`; n2 ranges over n1's earlier
    // siblings: 0 + 1 + 2 + 3 + 0 + 1 = 7 bindings; notes 3 and 4
    // follow note 2.
    s.execute(
        &mut db,
        "range of n1, n2 is NOTE\n\
         retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 2",
    )
    .unwrap();
    // Program 4: c binds first (2 chords against 6 notes); `c.name = 2`
    // prunes chord 1, and n ranges over chord 2's 2 children.
    s.execute(
        &mut db,
        "range of n is NOTE\n\
         range of c is CHORD\n\
         retrieve (n.name) where n under c in note_in_chord and c.name = 2",
    )
    .unwrap();

    let snap = registry.snapshot();
    // Four programs were lexed and parsed; 3+2+2+3 statements executed.
    assert_eq!(snap.histogram("mdm_quel_lex_micros").unwrap().count, 4);
    assert_eq!(snap.histogram("mdm_quel_parse_micros").unwrap().count, 4);
    assert_eq!(snap.histogram("mdm_quel_exec_micros").unwrap().count, 10);
    // A tuple counts once each time its variable is bound, if read:
    // program 2 reads n2.name at its 7 bindings and n1.name for the 2
    // rows, whose n1 bindings differ: 7 + 2 = 9. Program 3 mirrors it:
    // 9. Program 4 reads c.name at both chord bindings and n.name at
    // chord 2's 2 children: 2 + 2 = 4. 9 + 9 + 4 = 22.
    assert_eq!(snap.counter("mdm_quel_rows_scanned_total"), Some(22));
    // Each retrieve returned two rows.
    assert_eq!(snap.counter("mdm_quel_rows_returned_total"), Some(6));
    // An ordering conjunct is evaluated once per binding of its last
    // variable, the derived one: 7 for `before`, 7 for `after`, and 2
    // for `under` (chord 1 was pruned before n was bound).
    let ord = |op| snap.counter_with("mdm_quel_ord_ops_total", &[("op", op)]);
    assert_eq!(ord("before"), Some(7));
    assert_eq!(ord("after"), Some(7));
    assert_eq!(ord("under"), Some(2));
}

#[test]
fn rows_scanned_counts_tuple_fetches_not_bindings() {
    let registry = Registry::new();
    let metrics = QuelMetrics::register(&registry);
    let mut s = Session::with_metrics(Arc::clone(&metrics));
    let mut db = chord_db(&mut s);
    // n2's candidates are n1's later siblings: 7 bindings of n2, each
    // fetching n2, plus n1 for the 2 rows that survive, each under its
    // own binding of n1: 7 + 2 = 9. `before` itself fetches no tuple.
    s.execute(
        &mut db,
        "range of n1, n2 is NOTE\n\
         retrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 3",
    )
    .unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("mdm_quel_rows_scanned_total"), Some(9));

    // An index probe shrinks the domain itself: one binding enumerated,
    // and its single tuple is fetched once even though the qualification
    // and the target both read `n.name`.
    db.define_index("note_by_name", "NOTE", "name").unwrap();
    s.execute(
        &mut db,
        "range of n is NOTE\nretrieve (n.name) where n.name = 3",
    )
    .unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("mdm_quel_rows_scanned_total"), Some(10));
}

#[test]
fn readonly_execution_is_instrumented() {
    let registry = Registry::new();
    let mut plain = Session::new();
    let db = chord_db(&mut plain); // built without metrics

    let mut s = Session::with_metrics(QuelMetrics::register(&registry));
    s.execute_readonly(&db, "range of n is NOTE\nretrieve (n.name)")
        .unwrap();

    let snap = registry.snapshot();
    assert_eq!(snap.histogram("mdm_quel_exec_micros").unwrap().count, 2);
    assert_eq!(snap.counter("mdm_quel_rows_scanned_total"), Some(6));
    assert_eq!(snap.counter("mdm_quel_rows_returned_total"), Some(6));
}

#[test]
fn uninstrumented_session_records_nothing() {
    let registry = Registry::new();
    let _handles = QuelMetrics::register(&registry);
    let mut s = Session::new();
    let mut db = chord_db(&mut s);
    s.execute(&mut db, "retrieve (NOTE.name)").unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("mdm_quel_rows_scanned_total"), Some(0));
    assert_eq!(snap.histogram("mdm_quel_exec_micros").unwrap().count, 0);
}
