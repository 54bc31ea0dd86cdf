//! Seed-derived inputs: the generated score corpus and DARMS text.
//!
//! Every score is a pure function of `(seed, index)`, so a client can
//! regenerate the score it expects `load_score` to return, and two runs
//! with one seed store byte-identical corpora.

use mdm_notation::{
    BaseDuration, Chord, Clef, Duration, KeySignature, Movement, Note, Pitch, Score, TempoMap,
    TimeSignature, Voice,
};

use crate::rng::SplitMix64;

/// Quarter-note chords per 4/4 measure: every generated voice moves in
/// quarters, so each measure holds exactly this many syncs.
pub const CHORDS_PER_MEASURE: usize = 4;

/// Shape of a generated corpus.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    pub seed: u64,
    pub scores: usize,
    pub voices: usize,
    pub measures: usize,
}

impl Corpus {
    pub fn title(&self, index: usize) -> String {
        format!("Work {index}")
    }

    pub fn catalog_id(&self, index: usize) -> String {
        format!("BM {index}")
    }

    /// The `index`-th score of the corpus.
    pub fn score(&self, index: usize) -> Score {
        let mut rng = SplitMix64::stream(self.seed, index as u64);
        let mut score =
            voices_in_quarters(&mut rng, &self.title(index), self.voices, self.measures);
        score.catalog_id = Some(self.catalog_id(index));
        score.composer = Some(format!("Composer {}", index % 16));
        score
    }
}

/// A one-movement 4/4 score of `voices` voices moving in quarter-note
/// chords of one or two notes. No rests, ties, beams or lyrics, so the
/// entity count `store_score` produces has a closed form
/// ([`expected_entities`]) the ledger can check without asking the
/// system under test.
pub fn voices_in_quarters(
    rng: &mut SplitMix64,
    title: &str,
    voices: usize,
    measures: usize,
) -> Score {
    let mut movement = Movement::new("I", TimeSignature::common(), TempoMap::constant(96.0));
    for v in 0..voices {
        let clef = if v % 2 == 0 { Clef::Treble } else { Clef::Bass };
        let mut voice = Voice::new(
            &format!("voice {}", v + 1),
            "organ",
            clef,
            KeySignature::new(0),
        );
        let floor = if v % 2 == 0 { 60 } else { 40 };
        for _ in 0..measures * CHORDS_PER_MEASURE {
            let root = floor + rng.below(20) as i32;
            let mut notes = vec![Note::new(Pitch::from_midi(root))];
            if rng.below(4) == 0 {
                notes.push(Note::new(Pitch::from_midi(root + 3 + rng.below(5) as i32)));
            }
            voice.push_chord(Chord::new(notes, Duration::new(BaseDuration::Quarter)));
        }
        movement.voices.push(voice);
    }
    let mut score = Score::new(title);
    score.movements.push(movement);
    score
}

/// Notes in a score.
pub fn note_count(score: &Score) -> usize {
    score
        .movements
        .iter()
        .flat_map(|m| &m.voices)
        .flat_map(|v| &v.elements)
        .filter_map(|e| e.as_chord())
        .map(|c| c.notes.len())
        .sum()
}

/// Entities `store_score` creates for a [`voices_in_quarters`] score:
/// SCORE, optional PERSON, MOVEMENT, one MEASURE and four SYNCs per
/// measure, the VOICEs, a CHORD per quarter per voice, and per note one
/// NOTE, one EVENT and two MIDI events.
pub fn expected_entities(score: &Score) -> usize {
    let movement = &score.movements[0];
    let measures = movement.measures().len();
    let chords: usize = movement.voices.iter().map(|v| v.elements.len()).sum();
    2 + usize::from(score.composer.is_some())
        + measures * (1 + CHORDS_PER_MEASURE)
        + movement.voices.len()
        + chords
        + 4 * note_count(score)
}

/// User-DARMS text of `measures` 4/4 measures: quarters and beamed
/// eighth pairs on staff positions 1–9, treble clef, two flats.
pub fn darms(rng: &mut SplitMix64, measures: usize) -> String {
    let mut out = String::from("I1 'G 'K2- ");
    for m in 0..measures {
        if m > 0 {
            out.push_str("/ ");
        }
        for _ in 0..4 {
            if rng.below(5) < 2 {
                let (a, b) = (1 + rng.below(9), 1 + rng.below(9));
                out.push_str(&format!("({a}E {b}) "));
            } else {
                out.push_str(&format!("{}Q ", 1 + rng.below(9)));
            }
        }
    }
    out.push_str("//");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: Corpus = Corpus {
        seed: 11,
        scores: 4,
        voices: 2,
        measures: 3,
    };

    #[test]
    fn scores_depend_on_seed_and_index_only() {
        assert_eq!(CORPUS.score(2), CORPUS.score(2));
        assert_ne!(CORPUS.score(2), CORPUS.score(3));
        let other = Corpus { seed: 12, ..CORPUS };
        assert_ne!(CORPUS.score(2).movements, other.score(2).movements);
    }

    #[test]
    fn entity_count_matches_what_store_score_creates() {
        let mut db = mdm_model::Database::new();
        let score = CORPUS.score(1);
        mdm_core::store_score(&mut db, &score).unwrap();
        assert_eq!(db.store().entity_count(), expected_entities(&score));
        let mut bare = score.clone();
        bare.composer = None;
        let mut db = mdm_model::Database::new();
        mdm_core::store_score(&mut db, &bare).unwrap();
        assert_eq!(db.store().entity_count(), expected_entities(&bare));
    }

    #[test]
    fn generated_darms_imports() {
        let text = darms(&mut SplitMix64::stream(5, 0), 6);
        let voice = mdm_darms::to_voice(&mdm_darms::parse(&text).unwrap()).unwrap();
        assert!(voice.elements.len() >= 6 * 4);
        assert_eq!(text, darms(&mut SplitMix64::stream(5, 0), 6));
    }
}
