//! System entities: `$statements`, `$tables` and `$indexes`, queryable
//! through ordinary QUEL retrieves, plus the statement-store recording
//! path that feeds `$statements`.

use std::sync::Arc;

use mdm_lang::{fingerprint, Session, StmtResult, Table};
use mdm_model::{Database, Value};
use mdm_obs::{Registry, StatementStore};

fn rows(mut results: Vec<StmtResult>) -> Table {
    match results.pop() {
        Some(StmtResult::Rows(t)) => t,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn person_db(s: &mut Session) -> Database {
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity PERSON (name = string, born = integer)",
    )
    .unwrap();
    for (name, born) in [("Bach", 1685), ("Telemann", 1681), ("Handel", 1685)] {
        db.create_entity(
            "PERSON",
            &[
                ("name", Value::String(name.into())),
                ("born", Value::Integer(born)),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn statements_returns_the_sessions_prior_queries() {
    let mut s = Session::new();
    let store = Arc::new(StatementStore::new());
    s.set_statement_store(Arc::clone(&store));
    let mut db = person_db(&mut s);
    // Two literal variants of one query: one fingerprint, two calls.
    for who in ["Bach", "Telemann"] {
        s.execute(
            &mut db,
            &format!("range of p is PERSON\nretrieve (p.name) where p.name = \"{who}\""),
        )
        .unwrap();
    }
    let t = rows(
        s.execute(
            &mut db,
            "range of st is $statements\n\
             retrieve (st.fingerprint, st.calls, st.rows_returned) where st.calls = 2",
        )
        .unwrap(),
    );
    assert_eq!(t.len(), 1, "literal variants collapse to one entry:\n{t}");
    let fp = fingerprint("range of p is PERSON retrieve (p.name) where p.name = \"x\"");
    assert_eq!(t.rows[0][0], Value::String(fp));
    assert_eq!(t.rows[0][2], Value::Integer(2), "one row returned per call");
    // The $statements retrieve itself is recorded only after it runs.
    let again = rows(
        s.execute(
            &mut db,
            "range of st is $statements retrieve (st.fingerprint)",
        )
        .unwrap(),
    );
    assert!(
        again.rows.iter().any(|r| r[0]
            == Value::String(fingerprint(
                "range of st is $statements\n\
                 retrieve (st.fingerprint, st.calls, st.rows_returned) where st.calls = 2"
            ))),
        "earlier $statements query shows up in the later one"
    );
}

#[test]
fn statements_records_scans_and_index_probes() {
    let mut s = Session::new();
    let store = Arc::new(StatementStore::new());
    s.set_statement_store(Arc::clone(&store));
    let mut db = person_db(&mut s);
    s.execute(&mut db, "define index by_name on PERSON (name)")
        .unwrap();
    let probe = "range of p is PERSON retrieve (p.born) where p.name = \"Bach\"";
    s.execute(&mut db, probe).unwrap();
    let stats = store.get(&fingerprint(probe)).unwrap();
    assert_eq!(stats.calls, 1);
    assert_eq!(stats.paths.index_eq, 1, "planner chose the index probe");
    assert_eq!(stats.paths.scan, 0);
    assert_eq!(stats.rows_returned, 1);
}

#[test]
fn tables_reflects_live_counts_and_mutations() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    s.execute(
        &mut db,
        "range of p is PERSON\ndelete p where p.name = \"Handel\"",
    )
    .unwrap();
    // Implicit range variable: a variable named like the system entity.
    let t = rows(
        s.execute(
            &mut db,
            "range of t is $tables\n\
             retrieve (t.name, t.live, t.appends, t.deletes) where t.name = \"PERSON\"",
        )
        .unwrap(),
    );
    assert_eq!(
        t.rows,
        vec![vec![
            Value::String("PERSON".into()),
            Value::Integer(2),
            Value::Integer(3),
            Value::Integer(1),
        ]]
    );
}

#[test]
fn indexes_reports_cardinality_and_probes() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    s.execute(&mut db, "define index by_born on PERSON (born)")
        .unwrap();
    s.execute(
        &mut db,
        "range of p is PERSON retrieve (p.name) where p.born = 1685",
    )
    .unwrap();
    let t = rows(
        s.execute(
            &mut db,
            "range of i is $indexes\n\
             retrieve (i.name, i.entity, i.attribute, i.distinct, i.entries, i.eq_probes)",
        )
        .unwrap(),
    );
    assert_eq!(
        t.rows,
        vec![vec![
            Value::String("by_born".into()),
            Value::String("PERSON".into()),
            Value::String("born".into()),
            Value::Integer(2), // 1681, 1685
            Value::Integer(3),
            Value::Integer(1),
        ]]
    );
}

#[test]
fn virtual_entities_reject_mutation_and_unknown_names() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    let err = s
        .execute(
            &mut db,
            "range of t is $tables delete t where t.name = \"PERSON\"",
        )
        .unwrap_err();
    assert!(err.to_string().contains("entity variable"), "{err}");
    let err = s
        .execute(&mut db, "range of t is $tables replace t (name = \"X\")")
        .unwrap_err();
    assert!(err.to_string().contains("entity variable"), "{err}");
    let err = s
        .execute(&mut db, "range of z is $zebras retrieve (z.name)")
        .unwrap_err();
    assert!(err.to_string().contains("unknown system entity"), "{err}");
    let err = s
        .execute(&mut db, "range of t is $tables retrieve (t.no_such_column)")
        .unwrap_err();
    assert!(err.to_string().contains("has no attribute"), "{err}");
}

#[test]
fn explain_annotates_statistics_informed_estimates() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    s.execute(&mut db, "define index by_born on PERSON (born)")
        .unwrap();
    let (ex, _) = s
        .explain(
            &db,
            "range of p is PERSON retrieve (p.name) where p.born = 1685",
        )
        .unwrap();
    assert_eq!(ex.vars[0].path, "index-eq(born)");
    assert_eq!(
        ex.vars[0].stats, "live=3 distinct=2 est=1",
        "EXPLAIN names the statistics that informed the estimate"
    );
    assert!(ex.to_string().contains("[live=3 distinct=2 est=1]"), "{ex}");
    // Unindexed plans carry no stats annotation.
    let (ex, _) = s
        .explain(&db, "range of p is PERSON retrieve (p.name)")
        .unwrap();
    assert_eq!(ex.vars[0].stats, "");
}

#[test]
fn explain_prefers_the_more_selective_index() {
    let mut s = Session::new();
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity TRACK (disc = integer, pos = integer)",
    )
    .unwrap();
    // 2 distinct discs, 10 distinct positions: pos is 5x more selective.
    for disc in 0..2i64 {
        for pos in 0..10i64 {
            db.create_entity(
                "TRACK",
                &[("disc", Value::Integer(disc)), ("pos", Value::Integer(pos))],
            )
            .unwrap();
        }
    }
    s.execute(
        &mut db,
        "define index by_disc on TRACK (disc)\ndefine index by_pos on TRACK (pos)",
    )
    .unwrap();
    let (ex, _) = s
        .explain(
            &db,
            "range of t is TRACK retrieve (t.disc) where t.disc = 1 and t.pos = 3",
        )
        .unwrap();
    assert_eq!(
        ex.vars[0].path, "index-eq(pos)",
        "the statistics pick the more selective probe first: {ex}"
    );
    assert_eq!(ex.vars[0].stats, "live=20 distinct=10 est=2");
    assert_eq!(ex.vars[0].estimated, 1, "both probes still intersect");
}

#[test]
fn metrics_reads_the_attached_monitor() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    // Without a monitor the entity exists but is empty.
    let t = rows(
        s.execute(&mut db, "range of m is $metrics retrieve (m.name, m.value)")
            .unwrap(),
    );
    assert!(t.is_empty(), "no monitor attached:\n{t}");

    let registry = Registry::new();
    registry.counter("mdm_demo_total", "demo").add(7);
    let monitor = mdm_obs::Monitor::start(registry);
    s.set_monitor(Arc::clone(&monitor));
    let t = rows(
        s.execute(
            &mut db,
            "range of m is $metrics\n\
             retrieve (m.name, m.value, m.rate) where m.name = \"mdm_demo_total\"",
        )
        .unwrap(),
    );
    assert_eq!(t.len(), 1, "{t}");
    assert_eq!(t.rows[0][1], Value::Float(7.0));
}

#[test]
fn alerts_reads_the_monitors_rule_states() {
    let mut s = Session::new();
    let mut db = person_db(&mut s);
    let registry = Registry::new();
    let lag = registry.gauge("mdm_repl_lag_bytes", "lag");
    let monitor = mdm_obs::Monitor::start(registry);
    monitor.add_rule(mdm_obs::Rule::above(
        "lag_high",
        "mdm_repl_lag_bytes",
        100.0,
        1,
    ));
    s.set_monitor(Arc::clone(&monitor));
    lag.set(10);
    monitor.sample_now();
    let t = rows(
        s.execute(
            &mut db,
            "range of a is $alerts retrieve (a.rule, a.state, a.severity)",
        )
        .unwrap(),
    );
    assert_eq!(
        t.rows,
        vec![vec![
            Value::String("lag_high".into()),
            Value::String("ok".into()),
            Value::String("critical".into()),
        ]]
    );
    lag.set(500);
    monitor.sample_now();
    let t = rows(
        s.execute(
            &mut db,
            "range of a is $alerts retrieve (a.rule) where a.state = \"firing\"",
        )
        .unwrap(),
    );
    assert_eq!(t.len(), 1, "{t}");
    // Virtual targets stay read-only.
    assert!(s
        .execute(&mut db, "delete a where a.rule = \"lag_high\"")
        .is_err());
}
