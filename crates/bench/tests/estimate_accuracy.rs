//! Planner estimate accuracy on the 500-chord × 200-note fixture: the
//! statistics-informed estimate (`est=` in the EXPLAIN annotation,
//! live/distinct from the stored table and index cardinalities) must be
//! at least as close to the actual row count as the static estimate a
//! planner without statistics would use — the table population.

use mdm_bench::workload;
use mdm_lang::Session;
use mdm_model::Value;

/// Pulls the `est=N` figure out of a `VarPlan::stats` annotation.
fn stats_estimate(stats: &str) -> Option<u64> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("est=")?.parse().ok())
}

#[test]
fn stats_informed_estimates_beat_static_population_estimates() {
    let mut s = Session::new();
    let mut db = workload::chord_database(500, 200);
    s.execute(
        &mut db,
        "define index note_by_name on NOTE (name)\n\
         define index chord_by_name on CHORD (name)",
    )
    .expect("define indexes");

    // Unique attributes: live/distinct = 1, dead on; the population
    // estimate is off by the whole table.
    let cases = [
        (
            "range of n is NOTE\nretrieve (n.name) where n.name = 50000",
            500u64 * 200,
        ),
        (
            "range of c is CHORD\nretrieve (c.name) where c.name = 250",
            500,
        ),
    ];
    for (q, population) in cases {
        let (ex, table) = s.explain(&db, q).expect("explain");
        let actual = table.rows.len() as u64;
        assert_eq!(actual, 1, "unique-attribute probe: {q}");
        let est = stats_estimate(&ex.vars[0].stats)
            .unwrap_or_else(|| panic!("no stats-informed estimate in {:?}", ex.vars[0]));
        assert!(
            est.abs_diff(actual) <= population.abs_diff(actual),
            "stats estimate {est} must beat static estimate {population} \
             against actual {actual} for {q}"
        );
        assert_eq!(est, 1, "live/distinct is exact on a unique attribute");
    }
}

#[test]
fn stats_informed_estimates_track_skewed_attributes() {
    let mut s = Session::new();
    let mut db = workload::chord_database(10, 4);
    // 1000 rows over 10 distinct genres: every probe matches 100 rows.
    s.execute(&mut db, "define entity TAG (genre = integer)")
        .expect("schema");
    for i in 0..1000i64 {
        db.create_entity("TAG", &[("genre", Value::Integer(i % 10))])
            .expect("create");
    }
    s.execute(&mut db, "define index tag_by_genre on TAG (genre)")
        .expect("index");
    let (ex, table) = s
        .explain(
            &db,
            "range of t is TAG\nretrieve (t.genre) where t.genre = 3",
        )
        .expect("explain");
    let actual = table.rows.len() as u64;
    assert_eq!(actual, 100);
    assert_eq!(ex.vars[0].path, "index-eq(genre)");
    assert_eq!(
        ex.vars[0].stats, "live=1000 distinct=10 est=100 matched=100",
        "EXPLAIN names the statistics behind the estimate, then the match"
    );
    let est = stats_estimate(&ex.vars[0].stats).expect("estimate");
    let population = 1000u64;
    assert_eq!(est.abs_diff(actual), 0, "uniform skew estimated exactly");
    assert!(est.abs_diff(actual) < population.abs_diff(actual));
}
