//! The structural entities of a CMN score (fig. 11): scores, movements,
//! voices, chords, rests, notes — with the temporal derivations of fig. 13
//! (onsets, measures) built on exact score time.

use crate::clef::Clef;
use crate::duration::Duration;
use crate::key::KeySignature;
use crate::meter::TimeSignature;
use crate::pitch::Pitch;
use crate::rational::{rat, Rational, ZERO};
use crate::temporal::TempoMap;

/// Articulative attributes a note inherits (fig. 12's articulation
/// sub-aspect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Articulation {
    /// Shortened or clipped.
    Staccato,
    /// Marked or stressed.
    Marcato,
    /// Accented.
    Accent,
    /// Held full value.
    Tenuto,
    /// Plucked (strings).
    Pizzicato,
    /// Bowed (strings; cancels pizzicato).
    Arco,
}

impl Articulation {
    /// Conventional English name.
    pub fn name(self) -> &'static str {
        match self {
            Articulation::Staccato => "staccato",
            Articulation::Marcato => "marcato",
            Articulation::Accent => "accent",
            Articulation::Tenuto => "tenuto",
            Articulation::Pizzicato => "pizzicato",
            Articulation::Arco => "arco",
        }
    }

    /// Parses an [`Articulation::name`] back to the articulation.
    pub fn from_name(name: &str) -> Option<Articulation> {
        Some(match name {
            "staccato" => Articulation::Staccato,
            "marcato" => Articulation::Marcato,
            "accent" => Articulation::Accent,
            "tenuto" => Articulation::Tenuto,
            "pizzicato" => Articulation::Pizzicato,
            "arco" => Articulation::Arco,
            _ => return None,
        })
    }
}

/// Dynamic levels (fig. 12's dynamic sub-aspect), with conventional MIDI
/// velocities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dynamic {
    /// ppp
    Pianississimo,
    /// pp
    Pianissimo,
    /// p
    Piano,
    /// mp
    MezzoPiano,
    /// mf
    MezzoForte,
    /// f
    Forte,
    /// ff
    Fortissimo,
    /// fff
    Fortississimo,
}

impl Dynamic {
    /// Conventional MIDI velocity for this dynamic.
    pub fn velocity(self) -> u8 {
        match self {
            Dynamic::Pianississimo => 16,
            Dynamic::Pianissimo => 32,
            Dynamic::Piano => 48,
            Dynamic::MezzoPiano => 62,
            Dynamic::MezzoForte => 76,
            Dynamic::Forte => 92,
            Dynamic::Fortissimo => 108,
            Dynamic::Fortississimo => 124,
        }
    }

    /// Conventional abbreviation (`p`, `mf`, …).
    pub fn abbreviation(self) -> &'static str {
        match self {
            Dynamic::Pianississimo => "ppp",
            Dynamic::Pianissimo => "pp",
            Dynamic::Piano => "p",
            Dynamic::MezzoPiano => "mp",
            Dynamic::MezzoForte => "mf",
            Dynamic::Forte => "f",
            Dynamic::Fortissimo => "ff",
            Dynamic::Fortississimo => "fff",
        }
    }

    /// Parses a [`Dynamic::abbreviation`] back to the dynamic.
    pub fn from_abbreviation(a: &str) -> Option<Dynamic> {
        Some(match a {
            "ppp" => Dynamic::Pianississimo,
            "pp" => Dynamic::Pianissimo,
            "p" => Dynamic::Piano,
            "mp" => Dynamic::MezzoPiano,
            "mf" => Dynamic::MezzoForte,
            "f" => Dynamic::Forte,
            "ff" => Dynamic::Fortissimo,
            "fff" => Dynamic::Fortississimo,
            _ => return None,
        })
    }
}

/// A note: "an atomic unit of music, a pitch in a chord" (fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Note {
    /// The notated (and performed) pitch.
    pub pitch: Pitch,
    /// Tied to the same pitch in the next chord of the voice: the two
    /// notated notes form one performed *event* (§7.2).
    pub tied: bool,
    /// Articulations on this note.
    pub articulations: Vec<Articulation>,
    /// Lyric syllable attached to this note, if any (fig. 11's Syllable).
    pub syllable: Option<String>,
}

impl Note {
    /// A plain note.
    pub fn new(pitch: Pitch) -> Note {
        Note {
            pitch,
            tied: false,
            articulations: Vec::new(),
            syllable: None,
        }
    }

    /// Marks the note tied to its successor.
    pub fn tied(mut self) -> Note {
        self.tied = true;
        self
    }

    /// Attaches a lyric syllable.
    pub fn with_syllable(mut self, s: &str) -> Note {
        self.syllable = Some(s.to_string());
        self
    }
}

/// A chord: "a set of notes in one voice at one sync" (fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Chord {
    /// The notes, conventionally low to high.
    pub notes: Vec<Note>,
    /// The chord's notated duration.
    pub duration: Duration,
}

impl Chord {
    /// A chord of the given pitches.
    pub fn new(notes: Vec<Note>, duration: Duration) -> Chord {
        Chord { notes, duration }
    }

    /// A single-note chord.
    pub fn single(pitch: Pitch, duration: Duration) -> Chord {
        Chord {
            notes: vec![Note::new(pitch)],
            duration,
        }
    }
}

/// A rest: "a 'chord' containing no notes" (fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Rest {
    /// The rest's notated duration.
    pub duration: Duration,
}

/// One element of a voice: chords and rests intermixed (the
/// inhomogeneous ordering of §5.5).
#[derive(Debug, Clone, PartialEq)]
pub enum VoiceElement {
    /// A sounding chord.
    Chord(Chord),
    /// Silence.
    Rest(Rest),
}

impl VoiceElement {
    /// The element's notated duration.
    pub fn duration(&self) -> Duration {
        match self {
            VoiceElement::Chord(c) => c.duration,
            VoiceElement::Rest(r) => r.duration,
        }
    }

    /// The chord inside, if it is one.
    pub fn as_chord(&self) -> Option<&Chord> {
        match self {
            VoiceElement::Chord(c) => Some(c),
            VoiceElement::Rest(_) => None,
        }
    }
}

/// A voice: "the unit of homophony" (fig. 11) — an ordered sequence of
/// chords and rests, with its notational context and contextual dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct Voice {
    /// Voice name ("Soprano", "Tenor", …).
    pub name: String,
    /// Instrument assignment (the timbral aspect).
    pub instrument: String,
    /// Governing clef.
    pub clef: Clef,
    /// Governing key signature.
    pub key: KeySignature,
    /// The ordered chords and rests.
    pub elements: Vec<VoiceElement>,
    /// Dynamic marks: `(element index, dynamic)`, inherited by all
    /// following elements ("not typically assigned directly to a note,
    /// but rather inherited from the context in which it lies", §7.1.1).
    pub dynamics: Vec<(usize, Dynamic)>,
}

impl Voice {
    /// An empty voice.
    pub fn new(name: &str, instrument: &str, clef: Clef, key: KeySignature) -> Voice {
        Voice {
            name: name.to_string(),
            instrument: instrument.to_string(),
            clef,
            key,
            elements: Vec::new(),
            dynamics: Vec::new(),
        }
    }

    /// Appends an element.
    pub fn push(&mut self, e: VoiceElement) {
        self.elements.push(e);
    }

    /// Appends a chord.
    pub fn push_chord(&mut self, c: Chord) {
        self.elements.push(VoiceElement::Chord(c));
    }

    /// Appends a rest.
    pub fn push_rest(&mut self, duration: Duration) {
        self.elements.push(VoiceElement::Rest(Rest { duration }));
    }

    /// Places a dynamic mark at the element index.
    pub fn mark_dynamic(&mut self, at: usize, d: Dynamic) {
        self.dynamics.push((at, d));
        self.dynamics.sort_by_key(|&(i, _)| i);
    }

    /// The dynamic inherited by the element at `index` (the most recent
    /// mark at or before it), if any.
    pub fn dynamic_at(&self, index: usize) -> Option<Dynamic> {
        self.dynamics
            .iter()
            .take_while(|&&(i, _)| i <= index)
            .last()
            .map(|&(_, d)| d)
    }

    /// Onset (score time in beats from the movement start) of each
    /// element.
    pub fn onsets(&self) -> Vec<Rational> {
        let mut t = ZERO;
        self.elements
            .iter()
            .map(|e| {
                let at = t;
                t += e.duration().beats();
                at
            })
            .collect()
    }

    /// Total notated length in beats.
    pub fn total_beats(&self) -> Rational {
        self.elements
            .iter()
            .map(|e| e.duration().beats())
            .fold(ZERO, |a, b| a + b)
    }
}

/// A measure boundary derived from the meter (fig. 13: "measures
/// determine rhythmic divisions of a passage").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measure {
    /// 1-based measure number.
    pub number: usize,
    /// Start in beats.
    pub start: Rational,
    /// Exclusive end in beats.
    pub end: Rational,
}

/// A non-note control action — e.g. "the actuation of a control switch
/// other than a keyboard key (the *sostenuto* pedal of a piano)" (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEvent {
    /// Score-time position in beats (numerator, denominator).
    pub beat: (i64, i64),
    /// MIDI controller number (64 sustain, 66 sostenuto, …).
    pub controller: u8,
    /// Controller value.
    pub value: u8,
    /// The voice (channel) it applies to.
    pub voice: usize,
}

/// A movement: "a temporal subsection of the score" (fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Movement {
    /// Movement name.
    pub name: String,
    /// Governing meter.
    pub meter: TimeSignature,
    /// The tempo map (score time → performance time).
    pub tempo: TempoMap,
    /// The voices.
    pub voices: Vec<Voice>,
    /// Control actuations (pedals etc.), in no particular order.
    pub controls: Vec<ControlEvent>,
}

impl Movement {
    /// An empty movement.
    pub fn new(name: &str, meter: TimeSignature, tempo: TempoMap) -> Movement {
        Movement {
            name: name.to_string(),
            meter,
            tempo,
            voices: Vec::new(),
            controls: Vec::new(),
        }
    }

    /// Total length in beats (the longest voice).
    pub fn total_beats(&self) -> Rational {
        self.voices
            .iter()
            .map(Voice::total_beats)
            .max()
            .unwrap_or(ZERO)
    }

    /// The measures covering the movement ("each measure consists of an
    /// integral number of pulses").
    pub fn measures(&self) -> Vec<Measure> {
        let len = self.meter.measure_beats();
        let total = self.total_beats();
        let mut out = Vec::new();
        let mut start = ZERO;
        let mut number = 1;
        while start < total {
            out.push(Measure {
                number,
                start,
                end: start + len,
            });
            start += len;
            number += 1;
        }
        out
    }

    /// The measure containing a score-time position.
    pub fn measure_of(&self, beat: Rational) -> usize {
        let len = self.meter.measure_beats();
        ((beat / len).to_f64().floor() as usize) + 1
    }

    /// The position of `beat` within its measure, in beats from the
    /// barline ("specified as a number of beats from the start of the
    /// measure", §7.2).
    pub fn beat_in_measure(&self, beat: Rational) -> Rational {
        let len = self.meter.measure_beats();
        let m = (beat / len).to_f64().floor() as i64;
        beat - len * rat(m, 1)
    }

    /// Performance duration in seconds under the movement's tempo map.
    pub fn performance_seconds(&self) -> f64 {
        self.tempo.performance_time(self.total_beats())
    }
}

/// A score: "the unit of musical composition" (fig. 11). "Its temporal
/// attribute is the duration of the composition … the sum of the
/// durations of its constituent movements."
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Title.
    pub title: String,
    /// Bibliographic identifier, e.g. "BWV 578" (§4.2).
    pub catalog_id: Option<String>,
    /// Composer name.
    pub composer: Option<String>,
    /// The movements in order.
    pub movements: Vec<Movement>,
}

impl Score {
    /// An empty score.
    pub fn new(title: &str) -> Score {
        Score {
            title: title.to_string(),
            catalog_id: None,
            composer: None,
            movements: Vec::new(),
        }
    }

    /// Total performance duration in seconds (sum over movements).
    pub fn performance_seconds(&self) -> f64 {
        self.movements
            .iter()
            .map(Movement::performance_seconds)
            .sum()
    }

    /// Total number of notated measures.
    pub fn measure_count(&self) -> usize {
        self.movements.iter().map(|m| m.measures().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::BaseDuration;
    use crate::pitch::Step;

    fn q() -> Duration {
        Duration::new(BaseDuration::Quarter)
    }

    fn simple_voice() -> Voice {
        let mut v = Voice::new("melody", "organ", Clef::Treble, KeySignature::new(-2));
        for oct in [4, 4, 5, 5, 4, 4] {
            v.push_chord(Chord::single(Pitch::natural(Step::G, oct), q()));
        }
        v
    }

    #[test]
    fn onsets_accumulate() {
        let v = simple_voice();
        let onsets = v.onsets();
        assert_eq!(onsets.len(), 6);
        assert_eq!(onsets[0], ZERO);
        assert_eq!(onsets[5], rat(5, 1));
        assert_eq!(v.total_beats(), rat(6, 1));
    }

    #[test]
    fn measures_derive_from_meter() {
        let mut m = Movement::new("I", TimeSignature::new(3, 4), TempoMap::constant(120.0));
        m.voices.push(simple_voice());
        let measures = m.measures();
        assert_eq!(measures.len(), 2);
        assert_eq!(measures[0].start, ZERO);
        assert_eq!(measures[0].end, rat(3, 1));
        assert_eq!(m.measure_of(rat(4, 1)), 2);
        assert_eq!(m.beat_in_measure(rat(4, 1)), rat(1, 1));
    }

    #[test]
    fn dynamics_inherited_from_context() {
        let mut v = simple_voice();
        v.mark_dynamic(0, Dynamic::Piano);
        v.mark_dynamic(3, Dynamic::Forte);
        assert_eq!(v.dynamic_at(0), Some(Dynamic::Piano));
        assert_eq!(v.dynamic_at(2), Some(Dynamic::Piano));
        assert_eq!(v.dynamic_at(3), Some(Dynamic::Forte));
        assert_eq!(v.dynamic_at(5), Some(Dynamic::Forte));
        let fresh = simple_voice();
        assert_eq!(fresh.dynamic_at(0), None);
    }

    #[test]
    fn score_duration_sums_movements() {
        let mut s = Score::new("Test");
        for _ in 0..2 {
            let mut m = Movement::new("mvt", TimeSignature::common(), TempoMap::constant(120.0));
            m.voices.push(simple_voice());
            s.movements.push(m);
        }
        // Each movement: 6 beats at 120 bpm = 3 s.
        assert!((s.performance_seconds() - 6.0).abs() < 1e-12);
        assert_eq!(
            s.measure_count(),
            4,
            "6 beats of 4/4 span 2 notated measures each"
        );
    }

    #[test]
    fn dynamic_velocities_monotone() {
        let dyns = [
            Dynamic::Pianississimo,
            Dynamic::Pianissimo,
            Dynamic::Piano,
            Dynamic::MezzoPiano,
            Dynamic::MezzoForte,
            Dynamic::Forte,
            Dynamic::Fortissimo,
            Dynamic::Fortississimo,
        ];
        for w in dyns.windows(2) {
            assert!(w[0].velocity() < w[1].velocity());
        }
    }
}
