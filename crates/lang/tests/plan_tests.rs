//! The cost-aware planner: index DDL through QUEL, access-path choice,
//! ordering-derived domains, and the EXPLAIN surface.

use mdm_lang::{Session, StmtResult, Table};
use mdm_model::{Database, Value};

fn rows(mut results: Vec<StmtResult>) -> Table {
    match results.pop() {
        Some(StmtResult::Rows(t)) => t,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// 40 chords of 4 notes each, orderings populated.
fn score_db(s: &mut Session) -> Database {
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity CHORD (name = integer)\n\
         define entity NOTE (name = integer, pitch = string)\n\
         define ordering note_in_chord (NOTE) under CHORD",
    )
    .unwrap();
    for c in 0..40i64 {
        let chord = db
            .create_entity("CHORD", &[("name", Value::Integer(c))])
            .unwrap();
        for k in 0..4 {
            let note = db
                .create_entity(
                    "NOTE",
                    &[
                        ("name", Value::Integer(c * 4 + k)),
                        ("pitch", Value::String(format!("p{}", (c * 4 + k) % 12))),
                    ],
                )
                .unwrap();
            db.ord_append("note_in_chord", Some(chord), note).unwrap();
        }
    }
    db
}

#[test]
fn define_and_destroy_index_through_quel() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    let r = s
        .execute(&mut db, "define index chord_by_name on CHORD (name)")
        .unwrap();
    assert_eq!(r, vec![StmtResult::Defined("index chord_by_name".into())]);
    assert!(db.index_defs().contains_key("chord_by_name"));

    // Duplicate name is rejected; unknown destroy target is rejected.
    assert!(s
        .execute(&mut db, "define index chord_by_name on CHORD (name)")
        .is_err());
    assert!(s.execute(&mut db, "destroy index nonesuch").is_err());

    let r = s.execute(&mut db, "destroy index chord_by_name").unwrap();
    assert_eq!(
        r,
        vec![StmtResult::Defined("destroyed index chord_by_name".into())]
    );
    assert!(db.index_defs().is_empty());
}

#[test]
fn explain_reports_index_eq_and_ord_derived_paths() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    s.execute(&mut db, "define index chord_by_name on CHORD (name)")
        .unwrap();
    let q = "range of n is NOTE\nrange of c is CHORD\n\
             retrieve (n.name) where n under c in note_in_chord and c.name = 13";
    let (ex, table) = s.explain(&db, q).unwrap();
    let mut names: Vec<i64> = table
        .rows
        .iter()
        .map(|r| r[0].as_integer().unwrap())
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec![52, 53, 54, 55]);

    let n = ex.vars.iter().find(|v| v.var == "n").unwrap();
    let c = ex.vars.iter().find(|v| v.var == "c").unwrap();
    assert_eq!(c.path, "index-eq(name)");
    assert_eq!(c.estimated, 1);
    assert_eq!(n.path, "ord(under)", "pinned chord derives n's domain");
    assert_eq!(n.estimated, 4);
    assert_eq!(ex.estimated_rows, 4);
    assert_eq!(ex.actual_rows, 4);
    // c binds once (the probe) and is fetched once for `c.name = 13`;
    // n binds to each of its 4 children and is fetched once for the
    // target: 1 + 4 = 5 — not 160 × 40.
    assert_eq!(ex.rows_scanned, 5);

    let text = ex.to_string();
    assert!(text.contains("index-eq(name)"), "{text}");
    assert!(text.contains("ord(under)"), "{text}");
}

#[test]
fn explain_reports_index_range_path() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    s.execute(&mut db, "define index note_by_name on NOTE (name)")
        .unwrap();
    let q = "range of n is NOTE\nretrieve (n.pitch) where n.name >= 20 and n.name < 28";
    let (ex, table) = s.explain(&db, q).unwrap();
    assert_eq!(table.len(), 8);
    assert_eq!(ex.vars[0].path, "index-range(name)");
    assert_eq!(ex.vars[0].estimated, 8);
    assert_eq!(ex.rows_scanned, 8);
    assert!(ex.to_string().contains("index-range(name)"));
}

#[test]
fn explain_without_index_reports_scan() {
    let mut s = Session::new();
    let db = score_db(&mut s);
    let (ex, table) = s
        .explain(
            &db,
            "range of n is NOTE\nretrieve (n.name) where n.name = 5",
        )
        .unwrap();
    assert_eq!(table.len(), 1);
    assert_eq!(ex.vars[0].path, "scan");
    assert_eq!(ex.vars[0].estimated, 160);
    assert_eq!(ex.rows_scanned, 160, "every note fetched once");
}

#[test]
fn selection_pass_reads_a_scanned_level_once() {
    let mut s = Session::new();
    let db = score_db(&mut s);
    // c (40 chords) binds outside n (160 notes). Each pass reads its
    // whole domain once: 40 + 160 = 200 tuples. Binding a survivor reads
    // nothing more, so the 3 × 10 rows add none. Filtered per binding
    // instead, the loop would read 40 chords and then the 160 notes
    // under each of the 3 surviving chords: 40 + 3 × 160 = 520.
    let q = "range of c is CHORD\nrange of n is NOTE\n\
             retrieve (c.name, n.name) where c.name < 3 and n.name >= 150";
    let (ex, table) = s.explain(&db, q).unwrap();
    assert_eq!(table.len(), 30);
    assert_eq!(ex.rows_scanned, 200);
    let plan: Vec<_> = (ex.vars.iter())
        .map(|v| {
            (
                v.var.as_str(),
                v.path.as_str(),
                v.estimated,
                v.stats.as_str(),
            )
        })
        .collect();
    assert_eq!(
        plan,
        [
            ("c", "scan", 40, "matched=3"),
            ("n", "scan", 160, "matched=10")
        ]
    );
    assert_eq!(ex.estimated_rows, 40 * 160);
    assert!(ex.to_string().contains("[matched=10]"), "{ex}");

    // An outer level the pass cannot decide still binds 40 times, and
    // the filtered inner level is still read once: 40 + 160 = 200.
    let q = "range of c is CHORD\nrange of n is NOTE\n\
             retrieve (c.name, n.name) where c.name + 0 < 3 and n.name >= 150";
    let (ex, table) = s.explain(&db, q).unwrap();
    assert_eq!(table.len(), 30);
    assert_eq!(ex.rows_scanned, 200);
    assert_eq!(ex.vars[0].stats, "", "`c.name + 0` is no selection");

    // `not not (…)` is no selection either: 160 notes bound and read.
    let (ex, table) = s
        .explain(
            &db,
            "range of n is NOTE\nretrieve (n.name) where not not (n.name >= 150)",
        )
        .unwrap();
    assert_eq!(table.len(), 10);
    assert_eq!((ex.vars[0].stats.as_str(), ex.rows_scanned), ("", 160));

    // An empty filtered domain short-circuits: the notes are never read.
    let (ex, table) = s
        .explain(
            &db,
            "range of c is CHORD\nrange of n is NOTE\n\
             retrieve (n.name) where c.name > 99 and n.name >= 150",
        )
        .unwrap();
    assert!(table.is_empty());
    assert_eq!(ex.vars[0].stats, "matched=0");
    assert_eq!(ex.rows_scanned, 40);
}

#[test]
fn range_probe_keeps_integers_beyond_two_to_the_53() {
    // 2⁵³ and 2⁵³ + 1 share one index key (both encode as the same f64),
    // but compare as distinct integers.
    let conjuncts = [
        "n.k > 9007199254740992",
        "n.k >= 9007199254740993",
        "n.k < 9007199254740993",
        "n.k <= 9007199254740992",
        "9007199254740992 < n.k",
        "n.k = 9007199254740993",
    ];
    let mut s = Session::new();
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity N (k = integer)\n\
         append to N (k = 9007199254740992)\n\
         append to N (k = 9007199254740993)\n\
         range of n is N",
    )
    .unwrap();
    let run = |s: &mut Session, db: &mut Database, q: &str| rows(s.execute(db, q).unwrap());
    let mut scanned = Vec::new();
    for c in conjuncts {
        let filtered = run(
            &mut s,
            &mut db,
            &format!("retrieve (n.k) where not not ({c})"),
        );
        let scan = run(&mut s, &mut db, &format!("retrieve (n.k) where {c}"));
        assert_eq!(scan, filtered, "{c}");
        assert!(!scan.is_empty(), "{c}");
        scanned.push(scan);
    }
    s.execute(&mut db, "define index n_k on N (k)").unwrap();
    for (c, scan) in conjuncts.iter().zip(&scanned) {
        let q = format!("retrieve (n.k) where {c}");
        assert_eq!(&run(&mut s, &mut db, &q), scan, "{c} [indexed]");
    }
    let (ex, table) = s
        .explain(&db, "retrieve (n.k) where n.k > 9007199254740992")
        .unwrap();
    assert_eq!(ex.vars[0].path, "index-range(k)");
    assert_eq!(table.rows, [[Value::Integer(9007199254740993)]]);
}

#[test]
fn explain_rejects_mutations() {
    let mut s = Session::new();
    let db = score_db(&mut s);
    assert!(s.explain(&db, "delete n where n.name = 1").is_err());
    assert!(s.explain(&db, "range of n is NOTE").is_err(), "no retrieve");
}

#[test]
fn range_probe_agrees_with_scan_in_rows_and_order() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    let q = "range of n is NOTE\n\
             retrieve (n.name, n.pitch) where n.name > 30 and n.name <= 90 and n.pitch != \"p3\"";
    let without = rows(s.execute(&mut db, q).unwrap());
    s.execute(&mut db, "define index note_by_name on NOTE (name)")
        .unwrap();
    let with = rows(s.execute(&mut db, q).unwrap());
    assert_eq!(with, without);
    assert!(!with.is_empty());
}

#[test]
fn a_scan_over_reused_rows_answers_in_id_order() {
    let mut s = Session::new();
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity NOTE (name = integer, midi_key = integer)",
    )
    .unwrap();
    let key = |n: i64| 40 + n * 7 % 48;
    for n in 0..90 {
        let attrs = [
            ("name", Value::Integer(n)),
            ("midi_key", Value::Integer(key(n))),
        ];
        db.create_entity("NOTE", &attrs).unwrap();
    }
    let thirds: Vec<_> = db
        .instances_of("NOTE")
        .unwrap()
        .iter()
        .step_by(3)
        .copied()
        .collect();
    db.delete_entities(&thirds).unwrap();
    // The new notes take the freed rows, between older ones.
    for n in 90..120 {
        let append = format!("append to NOTE (name = {n}, midi_key = {})", key(n));
        s.execute(&mut db, &append).unwrap();
    }
    let q = "range of n is NOTE\nretrieve (n.name, n.midi_key) where n.midi_key >= 60";
    let (ex, scanned) = s.explain(&db, q).unwrap();
    assert_eq!(ex.vars[0].path, "scan");
    s.execute(&mut db, "define index note_by_key on NOTE (midi_key)")
        .unwrap();
    let (ex, probed) = s.explain(&db, q).unwrap();
    assert_eq!(ex.vars[0].path, "index-range(midi_key)");
    assert_eq!(scanned, probed);
    // Names grow with creation order: the rows came back in id order.
    let names: Vec<i64> = (scanned.rows.iter())
        .map(|r| match r[0] {
            Value::Integer(n) => n,
            ref v => panic!("{v:?}"),
        })
        .collect();
    assert!(names.is_sorted(), "{names:?}");
    assert!(names.iter().any(|&n| n >= 90) && names.iter().any(|&n| n < 90));
}

#[test]
fn before_and_after_derive_sibling_slices() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    s.execute(&mut db, "define index note_by_name on NOTE (name)")
        .unwrap();
    // Note 53 is the second of chord 13's four notes [52, 53, 54, 55].
    let q = "range of a, b is NOTE\n\
             retrieve (a.name) where a before b in note_in_chord and b.name = 53";
    let (ex, table) = s.explain(&db, q).unwrap();
    assert_eq!(table.len(), 1);
    assert_eq!(table.rows[0][0], Value::Integer(52));
    let a = ex.vars.iter().find(|v| v.var == "a").unwrap();
    assert_eq!(a.path, "ord(before)");
    assert_eq!(a.estimated, 1);

    let q = "range of a, b is NOTE\n\
             retrieve (a.name) where a after b in note_in_chord and b.name = 53";
    let (ex, table) = s.explain(&db, q).unwrap();
    let mut names: Vec<i64> = table
        .rows
        .iter()
        .map(|r| r[0].as_integer().unwrap())
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec![54, 55]);
    let a = ex.vars.iter().find(|v| v.var == "a").unwrap();
    assert_eq!(a.path, "ord(after)");
    assert_eq!(a.estimated, 2);
}

#[test]
fn ord_derivation_agrees_with_scan() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    // All three operators, with and without the index that pins the peer.
    for q in [
        "range of n is NOTE\nrange of c is CHORD\n\
         retrieve (n.name) where n under c in note_in_chord and c.name = 7",
        "range of a, b is NOTE\n\
         retrieve (a.name) where a before b in note_in_chord and b.name = 30",
        "range of a, b is NOTE\n\
         retrieve (a.name) where a after b in note_in_chord and b.name = 30",
    ] {
        let without = rows(s.execute(&mut db, q).unwrap());
        s.execute(
            &mut db,
            "define index c_idx on CHORD (name)\ndefine index n_idx on NOTE (name)",
        )
        .unwrap();
        let with = rows(s.execute(&mut db, q).unwrap());
        s.execute(&mut db, "destroy index c_idx\ndestroy index n_idx")
            .unwrap();
        assert_eq!(with, without, "query: {q}");
        assert!(!with.is_empty(), "query: {q}");
    }
}

#[test]
fn destroyed_index_falls_back_to_scan() {
    let mut s = Session::new();
    let mut db = score_db(&mut s);
    s.execute(&mut db, "define index note_by_name on NOTE (name)")
        .unwrap();
    let q = "range of n is NOTE\nretrieve (n.pitch) where n.name = 77";
    let (ex, _) = s.explain(&db, q).unwrap();
    assert_eq!(ex.vars[0].path, "index-eq(name)");
    s.execute(&mut db, "destroy index note_by_name").unwrap();
    let (ex, table) = s.explain(&db, q).unwrap();
    assert_eq!(ex.vars[0].path, "scan");
    assert_eq!(table.len(), 1);
}

/// A small CMN-shaped database: 2 scores × 2 movements × 4 measures × 4
/// syncs, and one voice per movement whose content interleaves CHORDs
/// and RESTs — an ordering whose children span two entity types. Only
/// the catalogue is indexed, as in the benchmark's analysis corpus. A
/// score's first movement is named "I"; its second has a null name.
fn cmn_db(s: &mut Session) -> Database {
    let mut db = Database::new();
    s.execute(
        &mut db,
        "define entity SCORE (title = string, catalog_id = string)\n\
         define entity MOVEMENT (name = string)\n\
         define entity MEASURE (number = integer, start_num = integer, start_den = integer)\n\
         define entity SYNC (time_num = integer, time_den = integer)\n\
         define entity VOICE (name = string)\n\
         define entity CHORD (base = string, dots = integer)\n\
         define entity REST (base = string, dots = integer)\n\
         define ordering movement_in_score (MOVEMENT) under SCORE\n\
         define ordering measure_in_movement (MEASURE) under MOVEMENT\n\
         define ordering sync_in_measure (SYNC) under MEASURE\n\
         define ordering voice_in_movement (VOICE) under MOVEMENT\n\
         define ordering voice_content (CHORD, REST) under VOICE\n\
         define index score_by_catalog on SCORE (catalog_id)",
    )
    .unwrap();
    let int = Value::Integer;
    for sc in 0..2i64 {
        let score = db
            .create_entity(
                "SCORE",
                &[("catalog_id", Value::String(format!("BWV {}", 578 + sc)))],
            )
            .unwrap();
        for mv in 0..2i64 {
            // The second movement's name stays null.
            let name: &[(&str, Value)] = match mv {
                0 => &[("name", Value::String("I".into()))],
                _ => &[],
            };
            let movement = db.create_entity("MOVEMENT", name).unwrap();
            db.ord_append("movement_in_score", Some(score), movement)
                .unwrap();
            let voice = db.create_entity("VOICE", &[]).unwrap();
            db.ord_append("voice_in_movement", Some(movement), voice)
                .unwrap();
            for number in 1..=4i64 {
                let measure = db
                    .create_entity(
                        "MEASURE",
                        &[
                            ("number", int(number)),
                            ("start_num", int(3 * (number - 1) + mv)),
                            ("start_den", int(4)),
                        ],
                    )
                    .unwrap();
                db.ord_append("measure_in_movement", Some(movement), measure)
                    .unwrap();
                for q in 0..4i64 {
                    let sync = db
                        .create_entity("SYNC", &[("time_num", int(q)), ("time_den", int(4))])
                        .unwrap();
                    db.ord_append("sync_in_measure", Some(measure), sync)
                        .unwrap();
                    let kind = if (number + q + sc) % 3 == 0 {
                        "REST"
                    } else {
                        "CHORD"
                    };
                    let event = db
                        .create_entity(
                            kind,
                            &[
                                ("base", Value::String(format!("b{number}{q}"))),
                                ("dots", int((q + mv) % 2)),
                            ],
                        )
                        .unwrap();
                    db.ord_append("voice_content", Some(voice), event).unwrap();
                }
            }
        }
    }
    db
}

/// `text` with every top-level conjunct of its `where` clause wrapped in
/// `not not (…)`: a form no planner pass recognises, so it runs as a
/// plain filter over the product of full scans.
fn unplanned(head: &str, conjuncts: &[&str]) -> String {
    let wrapped: Vec<String> = conjuncts.iter().map(|c| format!("not not ({c})")).collect();
    format!("{head} where {}", wrapped.join(" and "))
}

/// The differential check: every query returns exactly the same table —
/// rows and order — planned as written and run as a filter over the
/// product; `replace` and `delete` report the same counts and leave the
/// same database. Each case runs without an index beyond the catalogue's,
/// with one on `MEASURE.number`, and with `SYNC.time_num` indexed too
/// (which lets a child drive its parent).
#[test]
fn planned_rows_equal_the_filtered_product() {
    const CHAIN: &str = "range of s is SCORE\nrange of m is MOVEMENT\n\
                         range of x is MEASURE\nrange of y is SYNC\n\
                         range of a, b is MEASURE\nrange of v is VOICE\n\
                         range of c is CHORD\nrange of r is REST\n";
    let under = "m under s in movement_in_score";
    let score = "s.catalog_id = \"BWV 579\"";
    let cases: &[(&str, &[&str])] = &[
        // The benchmark's `measure`, `syncs` and `measure_pairs`.
        (
            "retrieve (x.number, x.start_num, x.start_den)",
            &[
                score,
                under,
                "x under m in measure_in_movement",
                "x.number = 2",
            ],
        ),
        (
            "retrieve (y.time_num, y.time_den)",
            &[
                score,
                under,
                "x under m in measure_in_movement",
                "x.number = 2",
                "y under x in sync_in_measure",
            ],
        ),
        (
            "retrieve (a.number, b.number)",
            &[
                score,
                under,
                "a under m in measure_in_movement",
                "b under m in measure_in_movement",
                "a before b in measure_in_movement",
            ],
        ),
        // `under`, the driving variable (x) on the right: declared last, then
        // first.
        (
            "retrieve (y.time_num)",
            &["y under x in sync_in_measure", "x.number = 2"],
        ),
        (
            "retrieve (x.start_num, y.time_num)",
            &["y under x in sync_in_measure", "x.number = 2"],
        ),
        // `under`, the driving variable (y) on the left: a child reaching its
        // parent.
        (
            "retrieve (x.start_num)",
            &["y under x in sync_in_measure", "y.time_num = 3"],
        ),
        (
            "retrieve (y.time_num, x.start_num)",
            &["y under x in sync_in_measure", "y.time_num = 3"],
        ),
        // `before` and `after`, the driving variable (b) on either side, declared
        // last and first.
        (
            "retrieve (a.start_num)",
            &["a before b in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (b.start_num, a.start_num)",
            &["a before b in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (a.start_num)",
            &["b before a in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (b.start_num, a.start_num)",
            &["b before a in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (a.start_num)",
            &["a after b in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (b.start_num, a.start_num)",
            &["a after b in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (a.start_num)",
            &["b after a in measure_in_movement", "b.number = 2"],
        ),
        (
            "retrieve (b.start_num, a.start_num)",
            &["b after a in measure_in_movement", "b.number = 2"],
        ),
        // The loop binds a (pinned by the index) outside b, declared
        // first: only the canonical sort restores the product's order.
        (
            "retrieve (b.number, a.number)",
            &["a before b in measure_in_movement", "a.number <= 2"],
        ),
        // Children of two entity types: each variable keeps its own.
        (
            "retrieve (c.base, c.dots)",
            &[
                "c under v in voice_content",
                "v under m in voice_in_movement",
                score,
                under,
            ],
        ),
        (
            "retrieve (r.base)",
            &[
                "r under v in voice_content",
                "v under m in voice_in_movement",
            ],
        ),
        (
            "retrieve (c.base, r.base)",
            &["c before r in voice_content", "r.dots = 1"],
        ),
        (
            "retrieve (r.base, c.base)",
            &["c after r in voice_content", "c.dots = 0"],
        ),
        // An `or` conjunct, `unique`, and aggregates.
        (
            "retrieve (x.number, y.time_num)",
            &[
                "y under x in sync_in_measure",
                "(x.number = 1 or y.time_num = 2)",
            ],
        ),
        (
            "retrieve unique (x.number)",
            &["x under m in measure_in_movement", under],
        ),
        (
            "retrieve (x.number, count(y.time_num), sum(x.start_num))",
            &["y under x in sync_in_measure", "y.time_num > 0"],
        ),
        (
            "retrieve (max(a.start_num), count(b.number))",
            &[
                "a before b in measure_in_movement",
                score,
                under,
                "b under m in measure_in_movement",
            ],
        ),
        // `attr OP literal` on a scanned variable: the selection pass.
        // All six operators in both orientations (start_num runs 0..=10
        // and is never indexed).
        ("retrieve (x.start_num)", &["x.start_num = 4"]),
        ("retrieve (x.start_num)", &["4 = x.start_num"]),
        ("retrieve (x.start_num)", &["x.start_num != 4"]),
        ("retrieve (x.start_num)", &["4 != x.start_num"]),
        ("retrieve (x.start_num)", &["x.start_num < 4"]),
        ("retrieve (x.start_num)", &["4 < x.start_num"]),
        ("retrieve (x.start_num)", &["x.start_num <= 4"]),
        ("retrieve (x.start_num)", &["4 <= x.start_num"]),
        ("retrieve (x.start_num)", &["x.start_num > 4"]),
        ("retrieve (x.start_num)", &["4 > x.start_num"]),
        ("retrieve (x.start_num)", &["x.start_num >= 4"]),
        ("retrieve (x.start_num)", &["4 >= x.start_num"]),
        // Null names order below every string and number.
        ("retrieve (m.name)", &["m.name = \"I\""]),
        ("retrieve (m.name)", &["m.name != \"I\""]),
        ("retrieve (m.name)", &["m.name < \"II\""]),
        ("retrieve (m.name)", &["0 < m.name"]),
        // An integer attribute against a float literal, probed or not.
        ("retrieve (x.number)", &["x.number = 2.0"]),
        ("retrieve (x.start_num)", &["x.start_num < 4.5"]),
        (
            "retrieve (x.number)",
            &["2.5 <= x.number", "x.number < 3.5"],
        ),
        // String attributes, several conjuncts on one variable.
        ("retrieve (c.base)", &["c.base >= \"b3\""]),
        (
            "retrieve (r.base, r.dots)",
            &["r.base < \"b4\"", "r.dots = 1", "\"b1\" < r.base"],
        ),
        // A two-variable product: the inner level is scanned, not
        // derived, and filtered once.
        (
            "retrieve (a.number, b.start_num)",
            &["a.number <= 2", "b.start_num > 8"],
        ),
        (
            "retrieve (y.time_num, x.number)",
            &["x.start_num = 4", "y.time_num = 3"],
        ),
        // Filtered outer level, derived inner level.
        (
            "retrieve (x.number, y.time_num)",
            &["y under x in sync_in_measure", "x.start_num >= 9"],
        ),
    ];
    let mutations: &[(&str, &[&str])] = &[
        // Every measure gets the time of its last sync in canonical order.
        (
            "replace x (start_num = y.time_num)",
            &["y under x in sync_in_measure", "y.time_num < 3"],
        ),
        (
            "replace b (start_den = a.number)",
            &[
                "a before b in measure_in_movement",
                score,
                under,
                "a under m in measure_in_movement",
            ],
        ),
        (
            "delete y",
            &["y under x in sync_in_measure", "x.number = 3"],
        ),
        ("delete r", &["r after c in voice_content", "c.dots = 1"]),
        // Through the selection pass.
        ("replace x (start_den = 8)", &["x.start_num >= 6"]),
        (
            "replace a (start_den = b.number)",
            &["a.start_num = 4", "b.number > 3"],
        ),
        ("delete c", &["c.base < \"b2\""]),
        ("delete m", &["m.name != \"I\""]),
    ];
    for indexes in [
        "",
        "define index measure_by_number on MEASURE (number)",
        "define index measure_by_number on MEASURE (number)\n\
         define index sync_by_time on SYNC (time_num)",
    ] {
        let mut s = Session::new();
        let mut db = cmn_db(&mut s);
        if !indexes.is_empty() {
            s.execute(&mut db, indexes).unwrap();
        }
        s.execute(&mut db, CHAIN).unwrap();
        for (head, conjuncts) in cases {
            let planned = format!("{head} where {}", conjuncts.join(" and "));
            let expected = rows(s.execute(&mut db, &unplanned(head, conjuncts)).unwrap());
            assert!(!expected.is_empty(), "{planned}");
            let got = rows(s.execute(&mut db, &planned).unwrap());
            assert_eq!(got, expected, "{planned}\n[{indexes}]");
        }
        for (head, conjuncts) in mutations {
            let planned = format!("{head} where {}", conjuncts.join(" and "));
            let (mut want_db, mut got_db) = (db.clone(), db.clone());
            let want = s
                .execute(&mut want_db, &unplanned(head, conjuncts))
                .unwrap();
            let got = s.execute(&mut got_db, &planned).unwrap();
            assert!(
                !matches!(want[..], [StmtResult::Replaced(0) | StmtResult::Deleted(0)]),
                "{planned}"
            );
            assert_eq!(got, want, "{planned}\n[{indexes}]");
            assert!(got_db == want_db, "{planned}\n[{indexes}]");
        }
    }
}
