//! Storing notation scores as CMN entities and loading them back.
//!
//! This is the MDM's central service: clients hand it high-level score
//! structures; it decomposes them into the §7 entity schema — the full
//! fig. 13 temporal hierarchy (score → movement → measure → sync, chords
//! at syncs, events and MIDI below), plus voices, notes, ties, and
//! lyrics — so any client can then query the same data through QUEL.

use mdm_model::{Database, EntityId, Value};
use mdm_notation::duration::{BaseDuration, Duration};
use mdm_notation::pitch::Step;
use mdm_notation::rational::Rational;
use mdm_notation::score::{Articulation, Chord, Dynamic, Note, Rest, Voice, VoiceElement};
use mdm_notation::temporal::{TempoMap, TempoMark};
use mdm_notation::{events, Clef, KeySignature, Movement, Score, TimeSignature};

use crate::cmn_schema;
use crate::error::{CoreError, Result};

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn i(v: i64) -> Value {
    Value::Integer(v)
}

fn opt_s(v: &Option<String>) -> Value {
    v.as_ref().map_or(Value::Null, |x| s(x))
}

// ----------------------------------------------------------------------
// Encoding helpers for domain types without direct Value forms
// ----------------------------------------------------------------------

fn base_name(b: BaseDuration) -> &'static str {
    b.name()
}

fn base_from_name(name: &str) -> Result<BaseDuration> {
    BaseDuration::from_name(name)
        .ok_or_else(|| CoreError::BadScoreData(format!("bad duration base {name}")))
}

fn clef_name(c: Clef) -> &'static str {
    c.name()
}

fn clef_from_name(name: &str) -> Result<Clef> {
    Clef::from_name(name).ok_or_else(|| CoreError::BadScoreData(format!("bad clef {name}")))
}

fn articulation_name(a: Articulation) -> &'static str {
    a.name()
}

fn articulation_from_name(n: &str) -> Result<Articulation> {
    Articulation::from_name(n)
        .ok_or_else(|| CoreError::BadScoreData(format!("bad articulation {n}")))
}

fn dynamic_abbrev(d: Dynamic) -> &'static str {
    d.abbreviation()
}

fn dynamic_from_abbrev(a: &str) -> Result<Dynamic> {
    Dynamic::from_abbreviation(a).ok_or_else(|| CoreError::BadScoreData(format!("bad dynamic {a}")))
}

/// Serializes a tempo map as `num/den:bpm:ramp;…` (Rust's shortest-f64
/// display round-trips exactly).
fn tempo_map_to_string(t: &TempoMap) -> String {
    t.marks()
        .iter()
        .map(|m| {
            format!(
                "{}/{}:{}:{}",
                m.beat.numer(),
                m.beat.denom(),
                m.bpm,
                if m.ramp_to_next { 1 } else { 0 }
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn tempo_map_from_string(text: &str) -> Result<TempoMap> {
    let mut marks = Vec::new();
    for part in text.split(';').filter(|p| !p.is_empty()) {
        let fields: Vec<&str> = part.split(':').collect();
        let [beat, bpm, ramp] = fields.as_slice() else {
            return Err(CoreError::BadScoreData(format!("bad tempo mark {part}")));
        };
        let (num, den) = beat
            .split_once('/')
            .ok_or_else(|| CoreError::BadScoreData(format!("bad tempo beat {beat}")))?;
        let parse_i = |x: &str| {
            x.parse::<i64>()
                .map_err(|_| CoreError::BadScoreData(format!("bad number {x}")))
        };
        let den = parse_i(den)?;
        if den == 0 {
            return Err(CoreError::BadScoreData(format!("bad tempo beat {beat}")));
        }
        let bpm: f64 = bpm
            .parse()
            .map_err(|_| CoreError::BadScoreData(format!("bad bpm {bpm}")))?;
        if !bpm.is_finite() || bpm <= 0.0 {
            return Err(CoreError::BadScoreData(format!("bad bpm {bpm}")));
        }
        let beat = Rational::new(parse_i(num)?, den);
        if marks.last().is_some_and(|m: &TempoMark| m.beat >= beat) {
            return Err(CoreError::BadScoreData(
                "tempo marks out of order".to_string(),
            ));
        }
        marks.push(TempoMark {
            beat,
            bpm,
            ramp_to_next: *ramp == "1",
        });
    }
    Ok(TempoMap::from_marks(&marks))
}

fn dynamics_to_string(dynamics: &[(usize, Dynamic)]) -> String {
    dynamics
        .iter()
        .map(|(idx, d)| format!("{idx}:{}", dynamic_abbrev(*d)))
        .collect::<Vec<_>>()
        .join(",")
}

fn dynamics_from_string(text: &str) -> Result<Vec<(usize, Dynamic)>> {
    text.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (idx, a) = p
                .split_once(':')
                .ok_or_else(|| CoreError::BadScoreData(format!("bad dynamic mark {p}")))?;
            Ok((
                idx.parse()
                    .map_err(|_| CoreError::BadScoreData(format!("bad index {idx}")))?,
                dynamic_from_abbrev(a)?,
            ))
        })
        .collect()
}

// ----------------------------------------------------------------------
// Store
// ----------------------------------------------------------------------

/// Stores a score into the database, building the complete fig. 13
/// hierarchy. Returns the SCORE entity id.
pub fn store_score(db: &mut Database, score: &Score) -> Result<EntityId> {
    cmn_schema::install(db)?;
    let score_id = db.create_entity(
        "SCORE",
        &[
            ("title", s(&score.title)),
            ("catalog_id", opt_s(&score.catalog_id)),
            ("composer", opt_s(&score.composer)),
        ],
    )?;
    if let Some(composer) = &score.composer {
        let person = db.create_entity("PERSON", &[("name", s(composer))])?;
        db.relate("COMPOSER", &[("person", person), ("score", score_id)], &[])?;
    }
    for movement in &score.movements {
        store_movement(db, score_id, movement)?;
    }
    Ok(score_id)
}

fn store_movement(db: &mut Database, score_id: EntityId, movement: &Movement) -> Result<EntityId> {
    let m_id = db.create_entity(
        "MOVEMENT",
        &[
            ("name", s(&movement.name)),
            ("meter_num", i(movement.meter.numerator as i64)),
            ("meter_den", i(movement.meter.denominator as i64)),
            ("tempo_bpm", Value::Float(movement.tempo.marks()[0].bpm)),
            ("tempo_map", s(&tempo_map_to_string(&movement.tempo))),
        ],
    )?;
    db.ord_append("movement_in_score", Some(score_id), m_id)?;

    // Measures and syncs (the fig. 13/14 temporal subdivision).
    let measures = movement.measures();
    let mut measure_ids = Vec::with_capacity(measures.len());
    for measure in &measures {
        let id = db.create_entity(
            "MEASURE",
            &[
                ("number", i(measure.number as i64)),
                ("start_num", i(measure.start.numer())),
                ("start_den", i(measure.start.denom())),
            ],
        )?;
        db.ord_append("measure_in_movement", Some(m_id), id)?;
        measure_ids.push(id);
    }
    let mut sync_ids: std::collections::BTreeMap<Rational, EntityId> =
        std::collections::BTreeMap::new();
    for sync in mdm_notation::syncs(movement) {
        let id = db.create_entity(
            "SYNC",
            &[
                ("time_num", i(sync.time.numer())),
                ("time_den", i(sync.time.denom())),
                ("measure_number", i(sync.measure as i64)),
                ("beat_num", i(sync.beat_in_measure.numer())),
                ("beat_den", i(sync.beat_in_measure.denom())),
            ],
        )?;
        if let Some(&measure_id) = measure_ids.get(sync.measure.saturating_sub(1)) {
            db.ord_append("sync_in_measure", Some(measure_id), id)?;
        }
        sync_ids.insert(sync.time, id);
    }

    // Voices, elements, notes.
    let mut chord_ids: Vec<Vec<Option<EntityId>>> = Vec::new();
    let mut note_ids: Vec<Vec<Vec<EntityId>>> = Vec::new();
    for voice in &movement.voices {
        let v_id = db.create_entity(
            "VOICE",
            &[
                ("name", s(&voice.name)),
                ("instrument", s(&voice.instrument)),
                ("clef", s(clef_name(voice.clef))),
                ("key_fifths", i(voice.key.fifths() as i64)),
                ("dynamics", s(&dynamics_to_string(&voice.dynamics))),
            ],
        )?;
        db.ord_append("voice_in_movement", Some(m_id), v_id)?;
        let onsets = voice.onsets();
        let mut v_chords = Vec::with_capacity(voice.elements.len());
        let mut v_notes = Vec::with_capacity(voice.elements.len());
        for (ei, element) in voice.elements.iter().enumerate() {
            match element {
                VoiceElement::Chord(chord) => {
                    let c_id = db.create_entity(
                        "CHORD",
                        &[
                            ("base", s(base_name(chord.duration.base))),
                            ("dots", i(chord.duration.dots as i64)),
                            ("tup_actual", i(chord.duration.tuplet.0 as i64)),
                            ("tup_normal", i(chord.duration.tuplet.1 as i64)),
                        ],
                    )?;
                    db.ord_append("voice_content", Some(v_id), c_id)?;
                    if let Some(&sync_id) = sync_ids.get(&onsets[ei]) {
                        db.ord_append("chord_at_sync", Some(sync_id), c_id)?;
                    }
                    let mut ids = Vec::with_capacity(chord.notes.len());
                    for note in &chord.notes {
                        let arts: Vec<&str> = note
                            .articulations
                            .iter()
                            .map(|a| articulation_name(*a))
                            .collect();
                        let n_id = db.create_entity(
                            "NOTE",
                            &[
                                ("step", s(&note.pitch.step.letter().to_string())),
                                ("alter", i(note.pitch.alter as i64)),
                                ("octave", i(note.pitch.octave as i64)),
                                ("midi_key", i(note.pitch.midi() as i64)),
                                ("tied", Value::Boolean(note.tied)),
                                ("syllable", opt_s(&note.syllable)),
                                ("articulations", s(&arts.join(","))),
                            ],
                        )?;
                        db.ord_append("note_in_chord", Some(c_id), n_id)?;
                        ids.push(n_id);
                    }
                    v_chords.push(Some(c_id));
                    v_notes.push(ids);
                }
                VoiceElement::Rest(rest) => {
                    let r_id = db.create_entity(
                        "REST",
                        &[
                            ("base", s(base_name(rest.duration.base))),
                            ("dots", i(rest.duration.dots as i64)),
                            ("tup_actual", i(rest.duration.tuplet.0 as i64)),
                            ("tup_normal", i(rest.duration.tuplet.1 as i64)),
                        ],
                    )?;
                    db.ord_append("voice_content", Some(v_id), r_id)?;
                    v_chords.push(None);
                    v_notes.push(Vec::new());
                }
            }
        }
        chord_ids.push(v_chords);
        note_ids.push(v_notes);
    }

    // Events (ties merged) with their notes and MIDI events beneath.
    let voice_entities: Vec<EntityId> = db.ord_children("voice_in_movement", Some(m_id))?;
    for event in events(movement) {
        let e_id = db.create_entity(
            "EVENT",
            &[
                ("midi_key", i(event.key as i64)),
                ("start_num", i(event.start.numer())),
                ("start_den", i(event.start.denom())),
                ("end_num", i(event.end.numer())),
                ("end_den", i(event.end.denom())),
                ("velocity", i(event.velocity as i64)),
            ],
        )?;
        db.ord_append("event_in_voice", Some(voice_entities[event.voice]), e_id)?;
        // Tie binding: the notated notes this event performs.
        for &chord_elem in &event.chords {
            for &n_id in &note_ids[event.voice][chord_elem] {
                let key = db.get_attr(n_id, "midi_key")?.as_integer().unwrap_or(-1);
                if key == event.key as i64
                    && db
                        .store()
                        .ordering_parent(
                            db.schema(),
                            db.schema().ordering_id("note_in_event")?,
                            n_id,
                        )
                        .is_err()
                {
                    db.ord_append("note_in_event", Some(e_id), n_id)?;
                }
            }
        }
        // MIDI on/off in performance time.
        let on = db.create_entity(
            "MIDI",
            &[
                ("kind", s("note_on")),
                (
                    "time_seconds",
                    Value::Float(movement.tempo.performance_time(event.start)),
                ),
                ("midi_key", i(event.key as i64)),
                ("velocity", i(event.velocity as i64)),
                ("channel", i(event.voice as i64)),
            ],
        )?;
        let off = db.create_entity(
            "MIDI",
            &[
                ("kind", s("note_off")),
                (
                    "time_seconds",
                    Value::Float(movement.tempo.performance_time(event.end)),
                ),
                ("midi_key", i(event.key as i64)),
                ("velocity", i(0)),
                ("channel", i(event.voice as i64)),
            ],
        )?;
        db.ord_append("midi_in_event", Some(e_id), on)?;
        db.ord_append("midi_in_event", Some(e_id), off)?;
    }

    // Control events (pedals, §7.2) ordered under the movement, in the
    // order given (beat stored verbatim so the round trip is exact).
    for c in &movement.controls {
        let beat = Rational::new(c.beat.0, c.beat.1);
        let id = db.create_entity(
            "MIDI_CONTROL",
            &[
                ("controller", i(c.controller as i64)),
                ("value", i(c.value as i64)),
                (
                    "time_seconds",
                    Value::Float(movement.tempo.performance_time(beat)),
                ),
                ("channel", i(c.voice as i64)),
                ("beat_num", i(c.beat.0)),
                ("beat_den", i(c.beat.1)),
            ],
        )?;
        db.ord_append("control_in_movement", Some(m_id), id)?;
    }

    // Lyrics: per voice, a TEXT line holding SYLLABLE entities, each
    // related to its NOTE (fig. 11's textual sub-aspect).
    for (vi, voice) in movement.voices.iter().enumerate() {
        let line: String = voice
            .elements
            .iter()
            .filter_map(|e| e.as_chord())
            .filter_map(|c| c.notes.iter().find_map(|n| n.syllable.clone()))
            .collect::<Vec<_>>()
            .join(" ");
        if line.is_empty() {
            continue;
        }
        let text_id = db.create_entity("TEXT", &[("content", s(&line))])?;
        db.ord_append("text_in_voice", Some(voice_entities[vi]), text_id)?;
        for (ei, element) in voice.elements.iter().enumerate() {
            let Some(chord) = element.as_chord() else {
                continue;
            };
            for (ni, note) in chord.notes.iter().enumerate() {
                if let Some(syl) = &note.syllable {
                    let syl_id = db.create_entity("SYLLABLE", &[("content", s(syl))])?;
                    db.ord_append("syllable_in_text", Some(text_id), syl_id)?;
                    let note_entity = note_ids[vi][ei][ni];
                    db.relate("LYRIC", &[("syllable", syl_id), ("note", note_entity)], &[])?;
                }
            }
        }
    }

    // Derived beam groups, stored through the *recursive* group_content
    // ordering (fig. 8 live in the CMN schema).
    for (vi, voice) in movement.voices.iter().enumerate() {
        let onsets = voice.onsets();
        let measure_beats = movement.meter.measure_beats();
        let pulse = if movement.meter.is_compound() {
            Rational::new(3, 2)
        } else {
            Rational::new(1, 1)
        };
        for measure in &movement.measures() {
            let beamables: Vec<mdm_notation::beam::Beamable> = voice
                .elements
                .iter()
                .enumerate()
                .filter(|(ei, e)| {
                    e.as_chord().is_some()
                        && onsets[*ei] >= measure.start
                        && onsets[*ei] < measure.end
                })
                .map(|(ei, e)| mdm_notation::beam::Beamable {
                    index: ei,
                    onset: onsets[ei] - measure.start,
                    duration: e.duration(),
                })
                .collect();
            let _ = measure_beats;
            for group in mdm_notation::beam::beam_measure(&beamables, pulse) {
                let gid = store_beam_group(db, &group, vi, &chord_ids)?;
                db.ord_append("group_in_voice", Some(voice_entities[vi]), gid)?;
            }
        }
    }
    Ok(m_id)
}

/// Recursively stores one beam group as GROUP entities whose children
/// (nested GROUPs and the voice's CHORD entities) hang under the
/// recursive `group_content` ordering.
fn store_beam_group(
    db: &mut Database,
    group: &mdm_notation::beam::BeamGroup,
    voice: usize,
    chord_ids: &[Vec<Option<EntityId>>],
) -> Result<EntityId> {
    let gid = db.create_entity("GROUP", &[("kind", s("beam"))])?;
    for item in &group.items {
        match item {
            mdm_notation::beam::BeamItem::Group(sub) => {
                let child = store_beam_group(db, sub, voice, chord_ids)?;
                db.ord_append("group_content", Some(gid), child)?;
            }
            mdm_notation::beam::BeamItem::Chord(ei) => {
                if let Some(Some(chord)) = chord_ids[voice].get(*ei) {
                    db.ord_append("group_content", Some(gid), *chord)?;
                }
            }
        }
    }
    Ok(gid)
}

// ----------------------------------------------------------------------
// Load
// ----------------------------------------------------------------------

fn get_str(db: &Database, id: EntityId, attr: &str) -> Result<String> {
    Ok(db
        .get_attr(id, attr)?
        .as_str()
        .unwrap_or_default()
        .to_string())
}

fn get_int(db: &Database, id: EntityId, attr: &str) -> Result<i64> {
    db.get_attr(id, attr)?
        .as_integer()
        .ok_or_else(|| CoreError::BadScoreData(format!("attribute {attr} of @{id} not integer")))
}

/// Finds a stored score by title.
pub fn find_score(db: &Database, title: &str) -> Result<Option<EntityId>> {
    if db.schema().entity_type_id("SCORE").is_err() {
        return Ok(None);
    }
    for &id in db.instances_of("SCORE")? {
        if db.get_attr(id, "title")?.as_str() == Some(title) {
            return Ok(Some(id));
        }
    }
    Ok(None)
}

/// All stored scores as (entity id, title).
pub fn list_scores(db: &Database) -> Result<Vec<(EntityId, String)>> {
    if db.schema().entity_type_id("SCORE").is_err() {
        return Ok(Vec::new());
    }
    db.instances_of("SCORE")?
        .iter()
        .map(|&id| Ok((id, get_str(db, id, "title")?)))
        .collect()
}

/// Loads a score entity back into notation structures.
///
/// A `score_id` that does not exist — or names an entity that is not a
/// SCORE — fails with [`CoreError::NoSuchScore`], distinct from the
/// storage/decode errors a damaged database produces, so callers (the
/// network server in particular) can map "not found" to its own error
/// class.
pub fn load_score(db: &Database, score_id: EntityId) -> Result<Score> {
    if !db.store().exists(score_id) || db.type_of(score_id)? != "SCORE" {
        return Err(CoreError::NoSuchScore(format!("@{score_id}")));
    }
    let mut score = Score::new(&get_str(db, score_id, "title")?);
    score.catalog_id = db
        .get_attr(score_id, "catalog_id")?
        .as_str()
        .map(str::to_string);
    score.composer = db
        .get_attr(score_id, "composer")?
        .as_str()
        .map(str::to_string);
    for m_id in db.ord_children("movement_in_score", Some(score_id))? {
        score.movements.push(load_movement(db, m_id)?);
    }
    Ok(score)
}

fn load_movement(db: &Database, m_id: EntityId) -> Result<Movement> {
    let meter = TimeSignature::new(
        get_int(db, m_id, "meter_num")? as u8,
        get_int(db, m_id, "meter_den")? as u8,
    );
    let tempo = tempo_map_from_string(&get_str(db, m_id, "tempo_map")?)?;
    let mut movement = Movement::new(&get_str(db, m_id, "name")?, meter, tempo);
    for v_id in db.ord_children("voice_in_movement", Some(m_id))? {
        movement.voices.push(load_voice(db, v_id)?);
    }
    for c_id in db.ord_children("control_in_movement", Some(m_id))? {
        movement.controls.push(mdm_notation::ControlEvent {
            beat: (
                get_int(db, c_id, "beat_num")?,
                get_int(db, c_id, "beat_den")?,
            ),
            controller: get_int(db, c_id, "controller")? as u8,
            value: get_int(db, c_id, "value")? as u8,
            voice: get_int(db, c_id, "channel")? as usize,
        });
    }
    Ok(movement)
}

fn load_voice(db: &Database, v_id: EntityId) -> Result<Voice> {
    let mut voice = Voice::new(
        &get_str(db, v_id, "name")?,
        &get_str(db, v_id, "instrument")?,
        clef_from_name(&get_str(db, v_id, "clef")?)?,
        KeySignature::new(get_int(db, v_id, "key_fifths")? as i8),
    );
    voice.dynamics = dynamics_from_string(&get_str(db, v_id, "dynamics")?)?;
    for el_id in db.ord_children("voice_content", Some(v_id))? {
        match db.type_of(el_id)? {
            "CHORD" => {
                let duration = load_duration(db, el_id)?;
                let mut notes = Vec::new();
                for n_id in db.ord_children("note_in_chord", Some(el_id))? {
                    notes.push(load_note(db, n_id)?);
                }
                voice.push_chord(Chord::new(notes, duration));
            }
            "REST" => {
                let duration = load_duration(db, el_id)?;
                voice.push(VoiceElement::Rest(Rest { duration }));
            }
            other => {
                return Err(CoreError::BadScoreData(format!(
                    "unexpected {other} in voice_content"
                )))
            }
        }
    }
    Ok(voice)
}

fn load_duration(db: &Database, id: EntityId) -> Result<Duration> {
    Ok(Duration {
        base: base_from_name(&get_str(db, id, "base")?)?,
        dots: get_int(db, id, "dots")? as u8,
        tuplet: (
            get_int(db, id, "tup_actual")? as u8,
            get_int(db, id, "tup_normal")? as u8,
        ),
    })
}

fn load_note(db: &Database, n_id: EntityId) -> Result<Note> {
    let step_s = get_str(db, n_id, "step")?;
    let step = step_s
        .chars()
        .next()
        .and_then(Step::from_letter)
        .ok_or_else(|| CoreError::BadScoreData(format!("bad step {step_s}")))?;
    let pitch = mdm_notation::Pitch::new(
        step,
        get_int(db, n_id, "alter")? as i32,
        get_int(db, n_id, "octave")? as i32,
    );
    let mut note = Note::new(pitch);
    note.tied = db.get_attr(n_id, "tied")?.as_boolean().unwrap_or(false);
    note.syllable = db.get_attr(n_id, "syllable")?.as_str().map(str::to_string);
    let arts = get_str(db, n_id, "articulations")?;
    for a in arts.split(',').filter(|x| !x.is_empty()) {
        note.articulations.push(articulation_from_name(a)?);
    }
    Ok(note)
}

/// Deletes a stored score and its entire entity graph (movements,
/// measures, syncs, voices, chords, rests, notes, events, MIDI events).
pub fn delete_score(db: &mut Database, score_id: EntityId) -> Result<()> {
    let mut victims: Vec<EntityId> = Vec::new();
    for m_id in db.ord_children("movement_in_score", Some(score_id))? {
        for measure in db.ord_children("measure_in_movement", Some(m_id))? {
            victims.extend(db.ord_children("sync_in_measure", Some(measure))?);
            victims.push(measure);
        }
        victims.extend(db.ord_children("control_in_movement", Some(m_id))?);
        for v_id in db.ord_children("voice_in_movement", Some(m_id))? {
            for el in db.ord_children("voice_content", Some(v_id))? {
                if db.type_of(el)? == "CHORD" {
                    victims.extend(db.ord_children("note_in_chord", Some(el))?);
                }
                victims.push(el);
            }
            for e_id in db.ord_children("event_in_voice", Some(v_id))? {
                victims.extend(db.ord_children("midi_in_event", Some(e_id))?);
                victims.push(e_id);
            }
            for text_id in db.ord_children("text_in_voice", Some(v_id))? {
                victims.extend(db.ord_children("syllable_in_text", Some(text_id))?);
                victims.push(text_id);
            }
            for g_id in db.ord_children("group_in_voice", Some(v_id))? {
                // Recursive descent collects nested GROUPs; chords are
                // already covered via voice_content.
                let o = db.schema().ordering_id("group_content")?;
                for d in db.store().descendants(o, g_id) {
                    if db.type_of(d)? == "GROUP" {
                        victims.push(d);
                    }
                }
                victims.push(g_id);
            }
            victims.push(v_id);
        }
        victims.push(m_id);
    }
    // Graphical layout hanging off the score, if present.
    for page_id in db.ord_children("page_in_score", Some(score_id))? {
        for sys_id in db.ord_children("system_on_page", Some(page_id))? {
            for staff_id in db.ord_children("staff_in_system", Some(sys_id))? {
                victims.extend(db.ord_children("degree_on_staff", Some(staff_id))?);
                victims.push(staff_id);
            }
            victims.push(sys_id);
        }
        victims.push(page_id);
    }
    victims.push(score_id);
    victims.retain(|&id| db.store().exists(id));
    db.delete_entities(&victims)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_notation::fixtures::{bwv578_subject, two_voice_alignment};
    use mdm_notation::rat;

    #[test]
    fn roundtrip_bwv578() {
        let mut db = Database::new();
        let original = bwv578_subject();
        let id = store_score(&mut db, &original).unwrap();
        let back = load_score(&db, id).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn roundtrip_two_voices_with_rests_dynamics_and_ties() {
        let mut db = Database::new();
        let mut movement = two_voice_alignment();
        movement.voices[0].mark_dynamic(0, Dynamic::Piano);
        movement.voices[0].mark_dynamic(3, Dynamic::Forte);
        movement.voices[1].push_rest(Duration::new(BaseDuration::Quarter));
        // A tie in the lower voice.
        let last = movement.voices[1].elements.len();
        movement.voices[1].push_chord(Chord::new(
            vec![Note::new(mdm_notation::Pitch::parse("C3").unwrap()).tied()],
            Duration::new(BaseDuration::Quarter),
        ));
        movement.voices[1].push_chord(Chord::new(
            vec![Note::new(mdm_notation::Pitch::parse("C3").unwrap())],
            Duration::new(BaseDuration::Quarter),
        ));
        let _ = last;
        let mut score = Score::new("two-voice");
        score.movements.push(movement);
        let id = store_score(&mut db, &score).unwrap();
        let back = load_score(&db, id).unwrap();
        assert_eq!(back, score);
    }

    #[test]
    fn roundtrip_tempo_ramps() {
        let mut db = Database::new();
        let mut score = bwv578_subject();
        score.movements[0].tempo.ramp(rat(4, 1), rat(8, 1), 120.0);
        score.movements[0].tempo.set_tempo(rat(10, 1), 60.0);
        let id = store_score(&mut db, &score).unwrap();
        let back = load_score(&db, id).unwrap();
        assert_eq!(back.movements[0].tempo, score.movements[0].tempo);
    }

    #[test]
    fn fig13_hierarchy_is_complete() {
        let mut db = Database::new();
        let score = bwv578_subject();
        let id = store_score(&mut db, &score).unwrap();
        // SCORE → MOVEMENT → MEASURE → SYNC.
        let movements = db.ord_children("movement_in_score", Some(id)).unwrap();
        assert_eq!(movements.len(), 1);
        let measures = db
            .ord_children("measure_in_movement", Some(movements[0]))
            .unwrap();
        assert_eq!(measures.len(), 3);
        let syncs0 = db
            .ord_children("sync_in_measure", Some(measures[0]))
            .unwrap();
        assert!(!syncs0.is_empty());
        // Chords hang from syncs AND from their voice (multiple parents).
        let voices = db
            .ord_children("voice_in_movement", Some(movements[0]))
            .unwrap();
        let voice_content = db.ord_children("voice_content", Some(voices[0])).unwrap();
        let first_chord = voice_content[0];
        assert!(db.under("chord_at_sync", first_chord, syncs0[0]).unwrap());
        assert!(db.under("voice_content", first_chord, voices[0]).unwrap());
        // Events and MIDI exist below the voice.
        let events = db.ord_children("event_in_voice", Some(voices[0])).unwrap();
        assert_eq!(events.len(), 21, "21 sounding notes, no ties");
        let midis = db.ord_children("midi_in_event", Some(events[0])).unwrap();
        assert_eq!(midis.len(), 2, "note_on + note_off");
    }

    #[test]
    fn composer_relationship_created() {
        let mut db = Database::new();
        let id = store_score(&mut db, &bwv578_subject()).unwrap();
        let composers = db.related("COMPOSER", id, "person").unwrap();
        assert_eq!(composers.len(), 1);
        assert_eq!(
            db.get_attr(composers[0], "name").unwrap().as_str(),
            Some("Johann Sebastian Bach")
        );
    }

    #[test]
    fn missing_score_is_a_typed_not_found_error() {
        let mut db = Database::new();
        let id = store_score(&mut db, &bwv578_subject()).unwrap();
        // A fabricated id fails with NoSuchScore, not a storage/model error.
        assert!(matches!(
            load_score(&db, id + 10_000),
            Err(CoreError::NoSuchScore(_))
        ));
        // An id of the wrong entity type is likewise "no such score".
        let person = db.create_entity("PERSON", &[("name", s("Bach"))]).unwrap();
        assert!(matches!(
            load_score(&db, person),
            Err(CoreError::NoSuchScore(_))
        ));
        // The real id still loads.
        assert!(load_score(&db, id).is_ok());
    }

    #[test]
    fn find_and_list_scores() {
        let mut db = Database::new();
        assert_eq!(find_score(&db, "x").unwrap(), None);
        let id = store_score(&mut db, &bwv578_subject()).unwrap();
        assert_eq!(find_score(&db, "Fuge g-moll").unwrap(), Some(id));
        assert_eq!(find_score(&db, "missing").unwrap(), None);
        let all = list_scores(&db).unwrap();
        assert_eq!(all, vec![(id, "Fuge g-moll".to_string())]);
    }
}
