//! The QUEL programs the workloads issue, each paired with the
//! hand-written model navigation that answers the same question.

use mdm_lang::StmtResult;

use crate::gen::{Corpus, CHORDS_PER_MEASURE};
use crate::ops::{ModelPlan, Op};

/// Editor notes live at `midi_key` ≥ this, far above any real pitch, so
/// the indexed `NOTE.midi_key` doubles as their address: client `c`
/// owns `EDIT_KEY_BASE * (c + 1) ..`.
pub const EDIT_KEY_BASE: i64 = 1_000_000;

const CHAIN: &str = "range of s is SCORE\nrange of m is MOVEMENT\nrange of x is MEASURE\n";

/// Measure `number` of score `index`: catalogue probe, two `under`
/// steps, measure pinned by number. One row.
pub fn measure(corpus: &Corpus, index: usize, number: i64) -> Op {
    let catalog_id = corpus.catalog_id(index);
    Op::Query {
        text: format!(
            "{CHAIN}retrieve (x.number, x.start_num, x.start_den) \
             where s.catalog_id = \"{catalog_id}\" and m under s in movement_in_score \
             and x under m in measure_in_movement and x.number = {number}"
        ),
        plan: ModelPlan::Measure { catalog_id, number },
        rows: 1,
    }
}

/// The syncs of that measure: the three-level chain
/// Score → Movement → Measure → Sync. One row per quarter.
pub fn syncs(corpus: &Corpus, index: usize, number: i64) -> Op {
    let catalog_id = corpus.catalog_id(index);
    Op::Query {
        text: format!(
            "{CHAIN}range of y is SYNC\nretrieve (y.time_num, y.time_den) \
             where s.catalog_id = \"{catalog_id}\" and m under s in movement_in_score \
             and x under m in measure_in_movement and x.number = {number} \
             and y under x in sync_in_measure"
        ),
        plan: ModelPlan::Syncs { catalog_id, number },
        rows: CHORDS_PER_MEASURE,
    }
}

/// Every ordered pair of measures of score `index`: a two-variable
/// `before` join inside one movement.
pub fn measure_pairs(corpus: &Corpus, index: usize) -> Op {
    let catalog_id = corpus.catalog_id(index);
    Op::Query {
        text: format!(
            "range of s is SCORE\nrange of m is MOVEMENT\nrange of a, b is MEASURE\n\
             retrieve (a.number, b.number) \
             where s.catalog_id = \"{catalog_id}\" and m under s in movement_in_score \
             and a under m in measure_in_movement and b under m in measure_in_movement \
             and a before b in measure_in_movement"
        ),
        plan: ModelPlan::MeasurePairs { catalog_id },
        rows: corpus.measures * (corpus.measures - 1) / 2,
    }
}

/// Every note at or above `key`; `rows` comes from the generator's own
/// pitch histogram.
pub fn notes_at_or_above(key: i64, rows: usize) -> Op {
    Op::Query {
        text: format!(
            "range of n is NOTE\nretrieve (n.midi_key, n.octave) where n.midi_key >= {key}"
        ),
        plan: ModelPlan::NotesAtOrAbove { key },
        rows,
    }
}

/// The ledger's read-back of every live editor note.
pub fn edit_notes_text() -> String {
    format!(
        "range of n is NOTE\nretrieve (n.midi_key, n.octave) where n.midi_key >= {EDIT_KEY_BASE}"
    )
}

pub fn append_note(key: i64, octave: i64) -> Op {
    Op::Execute {
        text: format!(
            "append to NOTE (step = \"C\", alter = 0, octave = {octave}, midi_key = {key}, \
             tied = false, syllable = \"\", articulations = \"\")"
        ),
        expect: StmtResult::Appended(1),
    }
}

pub fn replace_note(key: i64, octave: i64) -> Op {
    Op::Execute {
        text: format!("range of n is NOTE\nreplace n (octave = {octave}) where n.midi_key = {key}"),
        expect: StmtResult::Replaced(1),
    }
}

pub fn delete_note(key: i64) -> Op {
    Op::Execute {
        text: format!("range of n is NOTE\ndelete n where n.midi_key = {key}"),
        expect: StmtResult::Deleted(1),
    }
}

/// One program appending a catalogue entry (a PERSON) per name.
pub fn append_persons(names: &[String]) -> Op {
    let text: Vec<String> = names
        .iter()
        .map(|n| format!("append to PERSON (name = \"{n}\")"))
        .collect();
    Op::Execute {
        text: text.join("\n"),
        expect: StmtResult::Appended(1),
    }
}

/// The program that deletes those entries again.
pub fn delete_persons_text(names: &[String]) -> String {
    let mut text = String::from("range of p is PERSON");
    for n in names {
        text.push_str(&format!("\ndelete p where p.name = \"{n}\""));
    }
    text
}
