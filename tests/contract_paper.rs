//! Contract: the §5.6 operators answer as the paper defines them, over a
//! stored score, in one canonical row order.
//!
//! Subsystems this contract needs: the `mdm-core` manager
//! (`MusicDataManager::{store_score, query_shared, explain}`) and its CMN
//! layout (`movement_in_score`, `measure_in_movement`, `sync_in_measure`,
//! `chord_at_sync`, `voice_content`, `note_in_chord`), the `mdm-lang`
//! executor (the nested loop that derives a variable's candidates from a
//! bound peer through `before` / `after` / `under … in`, and its
//! canonical order), and the `mdm-model` ordering navigation
//! (`ordering_children`, `ordering_parent`) it reads them from.
//!
//! Over the BWV 578 subject (three measures of 4, 7 and 10 chords, one
//! note each), `is`, `before`, `after` and `under … in` return golden
//! rows in exact order — ascending by the id tuple of the variables in
//! the order the statement first mentions them — whether the variable
//! that drives the join is mentioned first or last. A three-level
//! `under` chain answers with its middle variable unpinned.

use musicdb::mdm::MusicDataManager;
use musicdb::model::Value;
use musicdb::notation::fixtures::bwv578_subject;

const RANGES: &str = "range of s is SCORE range of m is MOVEMENT range of x is MEASURE \
                      range of y, z is SYNC range of c, d is CHORD range of n is NOTE ";

fn open(tag: &str) -> (std::path::PathBuf, MusicDataManager) {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-paper-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    mdm.store_score(&bwv578_subject()).unwrap();
    (dir, mdm)
}

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    (rows.iter())
        .map(|r| r.iter().map(|&v| Value::Integer(v)).collect())
        .collect()
}

/// Each operator twice: the driving variable (the one the constant
/// conjunct narrows) mentioned last, then first.
#[test]
fn section_5_6_operators_answer_golden_rows_in_order() {
    let (dir, mdm) = open("operators");
    let cases: [(&str, Vec<Vec<Value>>); 8] = [
        // `is`: the notes of the quarter-based chords (the dotted Bb4
        // included), in note order.
        (
            "retrieve (n.midi_key) where n under c in note_in_chord \
             and c is d and d.base = \"quarter\"",
            ints(&[&[67], &[74], &[70], &[62], &[70], &[67]]),
        ),
        (
            "retrieve (d.dots, n.midi_key) where n under c in note_in_chord \
             and c is d and d.base = \"quarter\"",
            ints(&[&[0, 67], &[0, 74], &[1, 70], &[0, 62], &[0, 70], &[0, 67]]),
        ),
        // `before`: the syncs of measure 2 that precede beat 5/2.
        (
            "retrieve (y.time_num, y.time_den) where y before z in sync_in_measure \
             and z.time_num = 13 and z.time_den = 2",
            ints(&[&[4, 1], &[9, 2], &[5, 1], &[11, 2], &[6, 1]]),
        ),
        (
            "retrieve (z.beat_num, z.beat_den, y.time_num, y.time_den) \
             where y before z in sync_in_measure and z.time_num = 13 and z.time_den = 2",
            ints(&[
                &[5, 2, 4, 1],
                &[5, 2, 9, 2],
                &[5, 2, 5, 1],
                &[5, 2, 11, 2],
                &[5, 2, 6, 1],
            ]),
        ),
        // `after`: the notes of the chords after the one at time 9 — the
        // end of measure 3's figuration, Bb4 C5 A4, then Bb4 G4.
        (
            "retrieve (n.midi_key) where n under c in note_in_chord \
             and c after d in voice_content and d under y in chord_at_sync \
             and y.time_num = 9 and y.time_den = 1",
            ints(&[&[70], &[72], &[69], &[70], &[67]]),
        ),
        (
            "retrieve (y.beat_num, n.midi_key) where n under c in note_in_chord \
             and c after d in voice_content and d under y in chord_at_sync \
             and y.time_num = 9 and y.time_den = 1",
            ints(&[&[1, 70], &[1, 72], &[1, 69], &[1, 70], &[1, 67]]),
        ),
        // `under … in`: the syncs of measure 1.
        (
            "retrieve (y.time_num, y.time_den) where y under x in sync_in_measure \
             and x.number = 1",
            ints(&[&[0, 1], &[1, 1], &[2, 1], &[7, 2]]),
        ),
        (
            "retrieve (x.start_num, y.beat_num, y.beat_den) \
             where y under x in sync_in_measure and x.number = 1",
            ints(&[&[0, 0, 1], &[0, 1, 1], &[0, 2, 1], &[0, 7, 2]]),
        ),
    ];
    for (q, golden) in cases {
        let t = mdm.query_shared(&format!("{RANGES}{q}")).unwrap();
        assert_eq!(t.rows, golden, "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Score → movement → measure → sync: the measure in the middle is not
/// pinned, so each of its three bindings derives its own syncs.
#[test]
fn a_three_level_under_chain_with_an_unpinned_middle() {
    let (dir, mut mdm) = open("chain");
    let chain = "where s.catalog_id = \"BWV 578\" and m under s in movement_in_score \
                 and x under m in measure_in_movement and y under x in sync_in_measure \
                 and y.beat_num = 0";
    let downbeats = ints(&[&[1, 0, 1], &[2, 4, 1], &[3, 8, 1]]);
    let last = format!("{RANGES}retrieve (x.number, y.time_num, y.time_den) {chain}");
    let (plan, t) = mdm.explain(&last).unwrap();
    assert_eq!(t.rows, downbeats);
    let paths: Vec<(&str, &str, usize)> = (plan.vars.iter())
        .map(|v| (v.var.as_str(), v.path.as_str(), v.estimated))
        .collect();
    assert_eq!(
        paths,
        [
            ("s", "scan", 1),
            ("m", "ord(under)", 1),
            ("x", "ord(under)", 3),
            ("y", "ord(under)", 7),
        ],
        "bound score first, each level derived from the one above"
    );

    let first = format!("{RANGES}retrieve (s.title, x.number, y.time_num, y.time_den) {chain}");
    let t = mdm.query_shared(&first).unwrap();
    let title = Value::String("Fuge g-moll".into());
    let with_title: Vec<Vec<Value>> = (downbeats.into_iter())
        .map(|r| std::iter::once(title.clone()).chain(r).collect())
        .collect();
    assert_eq!(t.rows, with_title);
    std::fs::remove_dir_all(&dir).ok();
}
