//! The §5.6 chord/note fixture shared by the repro binary and the
//! planner-estimate tests.

use mdm_lang::Session;
use mdm_model::{Database, Value};

/// A chord/note database in the §5.6 shape: `chords` chords with
/// `notes_per_chord` notes each, ordered under `note_in_chord`.
pub fn chord_database(chords: usize, notes_per_chord: usize) -> Database {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .expect("static schema");
    let mut note_name = 0i64;
    for c in 0..chords {
        let chord = db
            .create_entity("CHORD", &[("name", Value::Integer(c as i64))])
            .expect("create chord");
        for _ in 0..notes_per_chord {
            let note = db
                .create_entity("NOTE", &[("name", Value::Integer(note_name))])
                .expect("create note");
            db.ord_append("note_in_chord", Some(chord), note)
                .expect("append");
            note_name += 1;
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chord_database_shape() {
        let db = chord_database(10, 4);
        assert_eq!(db.instances_of("CHORD").unwrap().len(), 10);
        assert_eq!(db.instances_of("NOTE").unwrap().len(), 40);
        let first = db.instances_of("CHORD").unwrap()[0];
        assert_eq!(
            db.ord_children("note_in_chord", Some(first)).unwrap().len(),
            4
        );
    }
}
