//! End-to-end integration tests spanning the whole stack: storage →
//! model → language → notation → DARMS → sound → bibliography → MDM.

use musicdb::biblio::{Incipit, MatchKind};
use musicdb::lang::StmtResult;
use musicdb::mdm::{Analyst, Composer, Library, MusicDataManager, ScoreEditor};
use musicdb::model::Value;
use musicdb::notation::fixtures::bwv578_subject;
use musicdb::notation::{perform, TimeSignature};
use musicdb::sound::{codec, render_performance, MidiEventList, PianoRoll, Timbre};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("musicdb-e2e-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn darms_to_audio_pipeline() {
    // DARMS text → MDM entities → QUEL → notation → MIDI → PCM → codec.
    let dir = tmpdir("pipeline");
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    let id = mdm
        .import_darms(
            "fragment",
            mdm_darms::fixtures::FIG4_USER_SHORT,
            TimeSignature::common(),
        )
        .unwrap();

    // QUEL sees the imported notes (two sharps: the C is performed C#).
    let t = mdm
        .query("range of n is NOTE retrieve (n.midi_key) where n.step = \"C\" and n.alter = 1")
        .unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows[0][0], Value::Integer(73), "C#5");

    // Back out to notation and down to sound.
    let score = mdm.load_score(id).unwrap();
    let notes = perform(&score.movements[0]);
    assert!(!notes.is_empty());
    let midi = MidiEventList::from_performance(&notes);
    assert_eq!(midi.events.len(), notes.len() * 2);
    let pcm = render_performance(&notes, &Timbre::organ(), 8_000);
    assert!(pcm.rms() > 10.0, "audible audio");
    let enc = codec::redundancy::encode(&pcm);
    assert_eq!(codec::redundancy::decode(&enc).unwrap(), pcm, "lossless");
    let roll = PianoRoll::render(&notes, 0.25, &|_, _| false);
    assert!(roll.to_text().contains('█'));
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn library_survives_crash() {
    // Build a library, save, crash (no clean close), reopen: recovery
    // must restore every score exactly.
    let dir = tmpdir("crash");
    let fugue = bwv578_subject();
    let walk = Composer::random_walk(99, 80, musicdb::notation::KeySignature::new(3), 132.0);
    let (fugue_id, walk_id);
    {
        let mut mdm = MusicDataManager::open(&dir).unwrap();
        fugue_id = mdm.store_score(&fugue).unwrap();
        walk_id = mdm.store_score(&walk).unwrap();
        mdm.save().unwrap();
        // Make one more unsaved change, then crash: it must vanish.
        mdm.store_score(&Composer::random_walk(
            1,
            10,
            musicdb::notation::KeySignature::natural(),
            100.0,
        ))
        .unwrap();
        std::mem::forget(mdm);
    }
    let mdm = MusicDataManager::open(&dir).unwrap();
    assert_eq!(mdm.load_score(fugue_id).unwrap(), fugue);
    assert_eq!(mdm.load_score(walk_id).unwrap(), walk);
    assert_eq!(
        mdm.list_scores().unwrap().len(),
        2,
        "unsaved third score gone"
    );
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn four_clients_share_one_database() {
    // The fig. 1 scenario: composition → analysis → editing → cataloging
    // over the same entities.
    let dir = tmpdir("clients");
    let mut mdm = MusicDataManager::open(&dir).unwrap();

    // Composition.
    let subject = bwv578_subject().movements[0].voices[0].clone();
    let canon = Composer::canon(&subject, 2, 4, 12, TimeSignature::common(), 84.0);
    let id = mdm.store_score(&canon).unwrap();

    // Analysis (reads what composition wrote).
    let loaded = mdm.load_score(id).unwrap();
    let hist = Analyst::interval_histogram(&loaded);
    assert!(
        hist.contains_key(&7),
        "the subject's opening fifth is there"
    );

    // Editing (rewrites the shared entities).
    let mut editor = ScoreEditor::checkout(&mut mdm, id).unwrap();
    editor.transpose_voice(0, 1, -12).unwrap();
    let id2 = editor.commit().unwrap();

    // Library (catalogs the edited result).
    let mut lib = Library::new("GEN");
    lib.catalog(&mdm, id2, 1).unwrap();
    let frag = Incipit::from_keys(vec![67, 74, 70, 69]);
    assert_eq!(
        lib.search(&frag, MatchKind::Exact),
        vec!["GEN 1".to_string()]
    );

    // Analysis again, post-edit: voice 2 now starts an octave lower.
    let edited = mdm.load_score(id2).unwrap();
    let v2 = &edited.movements[0].voices[1];
    let first = v2
        .elements
        .iter()
        .find_map(musicdb::notation::VoiceElement::as_chord)
        .unwrap();
    assert_eq!(first.notes[0].pitch.midi(), 67, "was 79, transposed down");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metaschema_describes_the_cmn_schema() {
    // §6: store the live CMN schema as data, read it back, and compare.
    let dir = tmpdir("meta");
    let mdm = MusicDataManager::open(&dir).unwrap();
    let schema = mdm.database().schema().clone();
    let mut meta_db = musicdb::model::Database::new();
    musicdb::model::meta::store_schema(&mut meta_db, &schema).unwrap();
    let back = musicdb::model::meta::read_schema(&meta_db).unwrap();
    assert_eq!(back, schema, "the CMN schema survives the meta round trip");
    // The meta-database is itself queryable with QUEL: count ATTRIBUTE
    // rows for the NOTE entity.
    let mut session = mdm_lang::Session::new();
    let out = session
        .execute(
            &mut meta_db,
            "range of e is ENTITY\n\
             range of a is ATTRIBUTE\n\
             retrieve (a.attribute_name) where a under e in entity_attributes and e.entity_name = \"NOTE\"",
        )
        .unwrap();
    let mdm_lang::StmtResult::Rows(t) = &out[2] else {
        panic!()
    };
    assert_eq!(t.len(), 7, "NOTE has seven attributes in the CMN schema");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quel_ordering_operators_over_stored_music() {
    // The §5.6 operators running over a real stored score.
    let dir = tmpdir("quel-music");
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    mdm.store_score(&bwv578_subject()).unwrap();

    // Measures are ordered under the movement: measure 2 is before 3.
    let t = mdm
        .query(
            "range of m1, m2 is MEASURE\n\
             retrieve (m1.number) where m1 before m2 in measure_in_movement and m2.number = 3",
        )
        .unwrap();
    let mut nums: Vec<i64> = t.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    nums.sort_unstable();
    assert_eq!(nums, vec![1, 2]);

    // Syncs under measure 1 are ordered by time.
    let t = mdm
        .query(
            "range of s is SYNC\n\
             range of m is MEASURE\n\
             retrieve (s.time_num, s.time_den) where s under m in sync_in_measure and m.number = 1",
        )
        .unwrap();
    assert_eq!(t.len(), 4, "m.1 of the subject has four onsets");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pitch_range_scan_agrees_with_its_index_across_a_reopen() {
    // The analysis client's pitch-range query: filtered by one pass over
    // the notes, then through an index range probe, then after a reopen
    // that rebuilds the index. Same rows, same order.
    let dir = tmpdir("pitch-range");
    let q = "range of n is NOTE\n\
             retrieve (n.midi_key, n.octave) where n.midi_key >= 67";
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    mdm.store_score(&bwv578_subject()).unwrap();
    let notes = mdm
        .query("range of n is NOTE\nretrieve (n.midi_key)")
        .unwrap();
    let (plan, scanned) = mdm.explain(q).unwrap();
    assert_eq!(plan.vars[0].path, "scan");
    assert!(
        !scanned.is_empty() && scanned.len() < notes.len(),
        "{} of {} notes",
        scanned.len(),
        notes.len()
    );
    assert!(scanned.rows.iter().all(|r| r[0].as_integer() >= Some(67)));

    mdm.execute("define index note_by_key on NOTE (midi_key)")
        .unwrap();
    let (plan, indexed) = mdm.explain(q).unwrap();
    assert_eq!(plan.vars[0].path, "index-range(midi_key)");
    assert_eq!(indexed, scanned);
    drop(mdm);

    let mut mdm = MusicDataManager::open(&dir).unwrap();
    let (plan, reopened) = mdm.explain(q).unwrap();
    assert_eq!(plan.vars[0].path, "index-range(midi_key)");
    assert_eq!(reopened, scanned);
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn darms_export_reimports_identically() {
    let dir = tmpdir("darms-rt");
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    let id = mdm.store_score(&bwv578_subject()).unwrap();
    let text = mdm.export_darms(id, 0, 0).unwrap();
    let id2 = mdm
        .import_darms("reimported", &text, TimeSignature::common())
        .unwrap();
    let a = mdm.load_score(id).unwrap();
    let b = mdm.load_score(id2).unwrap();
    let pitches = |s: &musicdb::notation::Score| -> Vec<i32> {
        s.movements[0].voices[0]
            .elements
            .iter()
            .filter_map(musicdb::notation::VoiceElement::as_chord)
            .map(|c| c.notes[0].pitch.midi())
            .collect()
    };
    assert_eq!(pitches(&a), pitches(&b));
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls and applies until `replica` holds everything `primary`
/// acknowledged.
fn catch_up(primary: &MusicDataManager, replica: &mut MusicDataManager) {
    loop {
        let (from, offset) = replica.repl_cursor();
        let (feed, durable) = primary.repl_pull(from, offset, 1 << 16).unwrap();
        replica.repl_apply(feed).unwrap();
        if replica.repl_cursor() == (durable, 0) {
            return;
        }
    }
}

#[test]
fn a_quel_delete_thins_chords_through_a_reopen_and_a_replica() {
    use musicdb::notation::{
        BaseDuration, Chord, Clef, Duration, KeySignature, Movement, Note, Pitch, Score, TempoMap,
        Voice,
    };
    // Chords whose upper notes sit in the middle of their note lists, so
    // deleting every note above middle C takes members out of the middle
    // of each sibling group, in one statement.
    let voicings = [
        ["C3", "E4", "G4", "G2"],
        ["F3", "A4", "C5", "F2"],
        ["G3", "B4", "D5", "G2"],
        ["C3", "G4", "E5", "C2"],
    ];
    let mut voice = Voice::new("organ", "organ", Clef::Bass, KeySignature::natural());
    for pitches in voicings.iter().cycle().take(12) {
        let notes = pitches
            .iter()
            .map(|p| Note::new(Pitch::parse(p).unwrap()))
            .collect();
        voice.push_chord(Chord::new(notes, Duration::new(BaseDuration::Half)));
    }
    let mut movement = Movement::new("chorale", TimeSignature::common(), TempoMap::constant(72.0));
    movement.voices.push(voice);
    let mut score = Score::new("chorale");
    score.movements.push(movement);

    let dir = tmpdir("thin-chords");
    let mut mdm = MusicDataManager::open(&dir.join("primary")).unwrap();
    let mut replica = MusicDataManager::open(&dir.join("replica")).unwrap();
    replica.become_replica().unwrap();
    let id = mdm.store_score(&score).unwrap();
    mdm.store_score(&bwv578_subject()).unwrap();
    catch_up(&mdm, &mut replica);

    // Half-note chords are the chorale's: the subject has none.
    let subject_notes = "range of c is CHORD\nrange of n is NOTE\n\
                         retrieve (n.midi_key) where n under c in note_in_chord and c.base != \"half\"";
    let subject = mdm.query(subject_notes).unwrap();
    let result = mdm
        .execute(
            "range of c is CHORD\nrange of n is NOTE\n\
             delete n where n under c in note_in_chord and c.base = \"half\" and n.midi_key > 60",
        )
        .unwrap();
    assert_eq!(result.last(), Some(&StmtResult::Deleted(24)));
    assert_eq!(
        mdm.query(subject_notes).unwrap(),
        subject,
        "the subject keeps its notes"
    );
    let kept = "range of c is CHORD\nrange of n is NOTE\n\
                retrieve (n.midi_key) where n under c in note_in_chord";
    let answer = mdm.query(kept).unwrap();
    let thinned = mdm.load_score(id).unwrap();
    let chords: Vec<Vec<i32>> = thinned.movements[0].voices[0]
        .elements
        .iter()
        .filter_map(musicdb::notation::VoiceElement::as_chord)
        .map(|c| c.notes.iter().map(|n| n.pitch.midi()).collect())
        .collect();
    let want: Vec<Vec<i32>> = voicings
        .iter()
        .cycle()
        .take(12)
        .map(|v| {
            [v[0], v[3]]
                .map(|p| Pitch::parse(p).unwrap().midi())
                .to_vec()
        })
        .collect();
    assert_eq!(
        chords, want,
        "each chord keeps its outer, low notes in order"
    );

    catch_up(&mdm, &mut replica);
    assert_eq!(replica.query_shared(kept).unwrap(), answer, "replica");
    assert_eq!(replica.load_score(id).unwrap(), thinned, "replica");
    drop((mdm, replica));
    let mut mdm = MusicDataManager::open(&dir.join("primary")).unwrap();
    assert_eq!(mdm.query(kept).unwrap(), answer, "after a reopen");
    assert_eq!(mdm.load_score(id).unwrap(), thinned, "after a reopen");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}
