//! Contract: a statement counts once, and every instrument reads that
//! count.
//!
//! Subsystems this contract needs: the `mdm-lang` executor's
//! per-statement tally and its one epilogue (`Session::{execute,
//! execute_readonly}`), the sinks it feeds — the `mdm-obs` registry
//! (`mdm_quel_rows_scanned_total`, `mdm_quel_ord_ops_total{op}`), the
//! `mdm-obs` statement store behind `$statements` and the `mdm-model`
//! access statistics behind `$tables` — `mdm-lang`'s token-stream
//! fingerprint, and `mdm-core`'s `query` / `query_shared` read paths.
//!
//! Tuples fetched are one number on three surfaces, exact under
//! concurrent readers; a statement that fails half-way still reports
//! what it did; `query` cannot mutate; the fingerprint the request path
//! takes from its tokens is the one `fingerprint(text)` computes.

use std::sync::Barrier;

use musicdb::lang::fingerprint::{fingerprint, of_tokens, of_unlexable};
use musicdb::lang::{lexer, LangError, Table};
use musicdb::mdm::{CoreError, MusicDataManager};
use musicdb::model::Value;
use musicdb::notation::fixtures::bwv578_subject;

/// A scan, an indexed probe, the sibling operators and `under … in`,
/// over the stored BWV 578 subject.
const PROGRAMS: [&str; 5] = [
    "range of n is NOTE retrieve (n.step) where n.octave = 4",
    "range of n is NOTE retrieve (n.step, n.octave) where n.midi_key = 70",
    "range of c, d is CHORD retrieve (c.base) where c before d in voice_content and d.dots = 1",
    "range of c, d is CHORD retrieve (c.base) where c after d in voice_content and d.dots = 1",
    "range of n is NOTE range of c is CHORD \
     retrieve (n.midi_key) where n under c in note_in_chord and c.dots = 1",
];
const ROUNDS: usize = 40;

fn open(tag: &str) -> (std::path::PathBuf, MusicDataManager) {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-instr-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    mdm.store_score(&bwv578_subject()).unwrap();
    mdm.execute("define index note_by_key on NOTE (midi_key)")
        .unwrap();
    (dir, mdm)
}

/// What the instruments say a piece of work cost.
#[derive(Debug, PartialEq)]
struct Cost {
    /// `mdm_quel_rows_scanned_total`.
    registry_scanned: u64,
    /// Σ `$statements.rows_scanned` over the given fingerprints.
    statements_scanned: u64,
    /// Σ `$statements.calls` over the given fingerprints.
    statements_calls: u64,
    /// Σ `$tables.heap_fetches` over every entity type.
    heap_fetches: u64,
    /// `mdm_quel_ord_ops_total{op}` for before, after, under.
    ord: [u64; 3],
}

/// Runs `work` and returns the difference it made to every surface.
/// The registry is read innermost, so the `$` retrieves that read the
/// other two surfaces (and fetch rows themselves) stay outside it; they
/// range over system entities, which credit no table.
fn cost_of(mdm: &MusicDataManager, texts: &[&str], work: impl FnOnce()) -> Cost {
    let fingerprints: Vec<Value> = (texts.iter())
        .map(|t| Value::String(fingerprint(t)))
        .collect();
    let tables_and_statements = || {
        let t = mdm
            .query_shared("range of t is $tables retrieve (t.heap_fetches)")
            .unwrap();
        let s = mdm
            .query_shared(
                "range of s is $statements retrieve (s.fingerprint, s.rows_scanned, s.calls)",
            )
            .unwrap();
        let int = |v: &Value| v.as_integer().expect("an integer column") as u64;
        let ours = || s.rows.iter().filter(|r| fingerprints.contains(&r[0]));
        (
            t.rows.iter().map(|r| int(&r[0])).sum::<u64>(),
            ours().map(|r| int(&r[1])).sum::<u64>(),
            ours().map(|r| int(&r[2])).sum::<u64>(),
        )
    };
    let registry = || {
        let snap = mdm.metrics_snapshot();
        let ord = |op| {
            snap.counter_with("mdm_quel_ord_ops_total", &[("op", op)])
                .unwrap()
        };
        (
            snap.counter("mdm_quel_rows_scanned_total").unwrap(),
            [ord("before"), ord("after"), ord("under")],
        )
    };
    let (heap0, stmts0, calls0) = tables_and_statements();
    let (scanned0, ord0) = registry();
    work();
    let (scanned1, ord1) = registry();
    let (heap1, stmts1, calls1) = tables_and_statements();
    Cost {
        registry_scanned: scanned1 - scanned0,
        statements_scanned: stmts1 - stmts0,
        statements_calls: calls1 - calls0,
        heap_fetches: heap1 - heap0,
        ord: [ord1[0] - ord0[0], ord1[1] - ord0[1], ord1[2] - ord0[2]],
    }
}

fn run_rounds(mdm: &MusicDataManager) {
    for _ in 0..ROUNDS {
        for q in PROGRAMS {
            mdm.query_shared(q).unwrap();
        }
    }
}

#[test]
fn three_surfaces_agree_exactly_under_two_concurrent_readers() {
    let (dir, mdm) = open("agree");
    let mdm = &mdm;

    let one = cost_of(mdm, &PROGRAMS, || run_rounds(mdm));
    assert!(one.registry_scanned > 0, "{one:?}");
    assert!(one.ord.iter().all(|&n| n > 0), "{one:?}");
    assert_eq!(one.statements_calls, (ROUNDS * PROGRAMS.len()) as u64);
    assert_eq!(one.statements_scanned, one.registry_scanned, "{one:?}");
    assert_eq!(one.heap_fetches, one.registry_scanned, "{one:?}");

    let barrier = Barrier::new(2);
    let two = cost_of(mdm, &PROGRAMS, || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    run_rounds(mdm);
                });
            }
        })
    });
    let doubled = Cost {
        registry_scanned: 2 * one.registry_scanned,
        statements_scanned: 2 * one.statements_scanned,
        statements_calls: 2 * one.statements_calls,
        heap_fetches: 2 * one.heap_fetches,
        ord: one.ord.map(|n| 2 * n),
    };
    assert_eq!(two, doubled, "no lost update on any surface");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_statement_that_fails_midway_still_reports_what_it_fetched() {
    let (dir, mdm) = open("fail");
    // Instance order is enumeration order: the division fails at the
    // first B-flat 4, after fetching every note up to and including it.
    let keys = mdm
        .query_shared("range of n is NOTE retrieve (n.midi_key)")
        .unwrap();
    let fetched_before_failing = keys
        .rows
        .iter()
        .position(|r| r[0] == Value::Integer(70))
        .unwrap() as u64
        + 1;
    assert!(fetched_before_failing > 1 && (fetched_before_failing as usize) < keys.len());

    let failing = "range of n is NOTE retrieve (n.midi_key / (n.midi_key - 70))";
    let cost = cost_of(&mdm, &[failing], || match mdm.query_shared(failing) {
        Err(CoreError::Lang(LangError::Eval(msg))) => assert!(msg.contains("zero"), "{msg}"),
        other => panic!("expected a division by zero, got {other:?}"),
    });
    assert_eq!(
        cost,
        Cost {
            registry_scanned: fetched_before_failing,
            statements_scanned: fetched_before_failing,
            statements_calls: 1,
            heap_fetches: fetched_before_failing,
            ord: [0; 3],
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_cannot_mutate_and_keeps_its_range_declarations() {
    let (dir, mut mdm) = open("query");
    let people =
        |mdm: &MusicDataManager| -> Table { mdm.query_shared("retrieve (PERSON.name)").unwrap() };
    let before = people(&mdm);
    for mutation in [
        "append to PERSON (name = \"nobody commits me\")",
        "range of p is PERSON delete p",
        "define entity GHOST (n = integer)",
    ] {
        match mdm.query(mutation) {
            Err(CoreError::Lang(LangError::Analyze(msg))) => {
                assert!(msg.contains("read-only"), "{msg}")
            }
            other => panic!("{mutation}: expected a typed refusal, got {other:?}"),
        }
        match mdm.explain(mutation) {
            Err(CoreError::Lang(LangError::Analyze(_))) => {}
            other => panic!("{mutation}: expected a typed refusal, got {other:?}"),
        }
    }
    assert_eq!(people(&mdm), before, "nothing was appended or deleted");
    assert!(mdm.query("retrieve (GHOST.n)").is_err(), "nor defined");

    // The embedded shell's habit: declare once, query many times.
    assert!(
        mdm.query("range of n is NOTE").is_err(),
        "no table to return"
    );
    let a = mdm
        .query("retrieve (n.midi_key) where n.midi_key = 70")
        .unwrap();
    assert!(!a.is_empty());
    let (plan, b) = mdm
        .explain("retrieve (n.midi_key) where n.midi_key = 70")
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(plan.vars[0].path, "index-eq(midi_key)");
    assert_eq!(plan.rows_scanned, a.len() as u64);

    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_token_stream_fingerprint_is_the_text_fingerprint() {
    // The cases of `fingerprint.rs`'s own tests.
    let monster = format!("retrieve ( {} 7 )", "x , ".repeat(100_000));
    for text in [
        "range of p is PERSON\nretrieve (p.name) where p.name = \"Bach\"",
        "range of p is PERSON retrieve (p.name) where p.name = \"Telemann\"",
        "retrieve (n.x) where n.x = 42",
        "retrieve (n.x) where n.x = 2.5",
        "RETRIEVE (Person.name)",
        "retrieve (PERSON.name)",
        "retrieve (person.name)",
        "retrieve (p.name) -- find them all\n",
        "  retrieve\t(p.name)",
        "",
        monster.as_str(),
    ] {
        let tokens = lexer::lex(text).unwrap();
        assert_eq!(fingerprint(text), of_tokens(&tokens), "{:.60}", text);
    }
    for (text, collapsed) in [
        (
            "retrieve (p.ñame)  🎵\n where",
            "retrieve (p.ñame) 🎵 where",
        ),
        ("\"unterminated", "\"unterminated"),
    ] {
        assert!(lexer::lex(text).is_err());
        assert_eq!(fingerprint(text), collapsed);
        assert_eq!(of_unlexable(text), collapsed);
    }
}
