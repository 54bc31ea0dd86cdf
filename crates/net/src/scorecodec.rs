//! Binary codec for [`Score`] values on the wire.
//!
//! The notation constructors assert their invariants (positive meter
//! numerators, power-of-two denominators, positive finite tempos,
//! ascending tempo marks, non-zero tuplet components …), so this decoder
//! validates every field *before* constructing — hostile bytes surface as
//! [`DecodeError::BadPayload`], never as a panic inside notation code.

use mdm_notation::{
    Accidental, Articulation, BaseDuration, Chord, Clef, ControlEvent, Duration, Dynamic,
    KeySignature, Movement, Note, Pitch, Rest, Score, Step, TempoMap, TempoMark, TimeSignature,
    Voice, VoiceElement,
};

use mdm_obs::codec::{put_len, put_str, Reader};

use crate::error::DecodeError;

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn opt_str(c: &mut Reader<'_>) -> Result<Option<String>, DecodeError> {
    Ok(if c.bool()? { Some(c.string()?) } else { None })
}

fn bad(msg: impl Into<String>) -> DecodeError {
    DecodeError::BadPayload(msg.into())
}

/// Appends a score.
pub fn encode_score(out: &mut Vec<u8>, s: &Score) {
    put_str(out, &s.title);
    put_opt_str(out, &s.catalog_id);
    put_opt_str(out, &s.composer);
    put_len(out, s.movements.len());
    for m in &s.movements {
        encode_movement(out, m);
    }
}

/// Reads a score, validating every notation invariant.
pub fn decode_score(c: &mut Reader<'_>) -> Result<Score, DecodeError> {
    let title = c.string()?;
    let catalog_id = opt_str(c)?;
    let composer = opt_str(c)?;
    let n = c.len(1)?;
    let mut movements = Vec::with_capacity(n);
    for _ in 0..n {
        movements.push(decode_movement(c)?);
    }
    Ok(Score {
        title,
        catalog_id,
        composer,
        movements,
    })
}

fn encode_movement(out: &mut Vec<u8>, m: &Movement) {
    put_str(out, &m.name);
    out.push(m.meter.numerator);
    out.push(m.meter.denominator);
    let marks = m.tempo.marks();
    put_len(out, marks.len());
    for mark in marks {
        out.extend_from_slice(&mark.beat.numer().to_le_bytes());
        out.extend_from_slice(&mark.beat.denom().to_le_bytes());
        out.extend_from_slice(&mark.bpm.to_le_bytes());
        out.push(mark.ramp_to_next as u8);
    }
    put_len(out, m.voices.len());
    for v in &m.voices {
        encode_voice(out, v);
    }
    put_len(out, m.controls.len());
    for ctl in &m.controls {
        out.extend_from_slice(&ctl.beat.0.to_le_bytes());
        out.extend_from_slice(&ctl.beat.1.to_le_bytes());
        out.push(ctl.controller);
        out.push(ctl.value);
        out.extend_from_slice(&(ctl.voice as u64).to_le_bytes());
    }
}

fn decode_movement(c: &mut Reader<'_>) -> Result<Movement, DecodeError> {
    let name = c.string()?;
    let numerator = c.u8()?;
    let denominator = c.u8()?;
    if numerator == 0 {
        return Err(bad("meter numerator must be positive"));
    }
    if !denominator.is_power_of_two() {
        return Err(bad(format!(
            "meter denominator {denominator} is not a power of two"
        )));
    }
    let meter = TimeSignature::new(numerator, denominator);

    let nmarks = c.len(25)?;
    let mut marks = Vec::with_capacity(nmarks);
    for _ in 0..nmarks {
        let num = c.i64()?;
        let den = c.i64()?;
        if den == 0 {
            return Err(bad("tempo mark beat has a zero denominator"));
        }
        let beat = mdm_notation::rat(num, den);
        let bpm = c.f64()?;
        if !bpm.is_finite() || bpm <= 0.0 {
            return Err(bad(format!("tempo {bpm} is not positive and finite")));
        }
        let ramp_to_next = c.bool()?;
        if marks
            .last()
            .is_some_and(|prev: &TempoMark| prev.beat >= beat)
        {
            return Err(bad("tempo marks must be strictly ascending"));
        }
        marks.push(TempoMark {
            beat,
            bpm,
            ramp_to_next,
        });
    }
    let tempo = TempoMap::from_marks(&marks);

    let nvoices = c.len(1)?;
    let mut voices = Vec::with_capacity(nvoices);
    for _ in 0..nvoices {
        voices.push(decode_voice(c)?);
    }

    let ncontrols = c.len(26)?;
    let mut controls = Vec::with_capacity(ncontrols);
    for _ in 0..ncontrols {
        let num = c.i64()?;
        let den = c.i64()?;
        if den == 0 {
            return Err(bad("control event beat has a zero denominator"));
        }
        let controller = c.u8()?;
        let value = c.u8()?;
        let voice = c.u64()? as usize;
        controls.push(ControlEvent {
            beat: (num, den),
            controller,
            value,
            voice,
        });
    }

    Ok(Movement {
        name,
        meter,
        tempo,
        voices,
        controls,
    })
}

fn encode_voice(out: &mut Vec<u8>, v: &Voice) {
    put_str(out, &v.name);
    put_str(out, &v.instrument);
    put_str(out, v.clef.name());
    out.push(v.key.fifths() as u8);
    put_len(out, v.elements.len());
    for e in v.elements.iter() {
        match e {
            VoiceElement::Chord(ch) => {
                out.push(0);
                put_len(out, ch.notes.len());
                for n in &ch.notes {
                    encode_note(out, n);
                }
                encode_duration(out, &ch.duration);
            }
            VoiceElement::Rest(r) => {
                out.push(1);
                encode_duration(out, &r.duration);
            }
        }
    }
    put_len(out, v.dynamics.len());
    for (idx, d) in &v.dynamics {
        out.extend_from_slice(&(*idx as u64).to_le_bytes());
        put_str(out, d.abbreviation());
    }
}

fn decode_voice(c: &mut Reader<'_>) -> Result<Voice, DecodeError> {
    let name = c.string()?;
    let instrument = c.string()?;
    let clef_name = c.string()?;
    let clef =
        Clef::from_name(&clef_name).ok_or_else(|| bad(format!("unknown clef '{clef_name}'")))?;
    let fifths = c.u8()? as i8;
    if !(-7..=7).contains(&fifths) {
        return Err(bad(format!("key signature fifths {fifths} out of range")));
    }
    let key = KeySignature::new(fifths);

    let nelems = c.len(1)?;
    let mut elements = Vec::with_capacity(nelems);
    for _ in 0..nelems {
        elements.push(match c.u8()? {
            0 => {
                let nnotes = c.len(1)?;
                let mut notes = Vec::with_capacity(nnotes);
                for _ in 0..nnotes {
                    notes.push(decode_note(c)?);
                }
                VoiceElement::Chord(Chord {
                    notes,
                    duration: decode_duration(c)?,
                })
            }
            1 => VoiceElement::Rest(Rest {
                duration: decode_duration(c)?,
            }),
            t => return Err(bad(format!("bad voice element tag {t}"))),
        });
    }

    let ndyn = c.len(9)?;
    let mut dynamics = Vec::with_capacity(ndyn);
    for _ in 0..ndyn {
        let idx = c.u64()? as usize;
        let abbrev = c.string()?;
        let d = Dynamic::from_abbreviation(&abbrev)
            .ok_or_else(|| bad(format!("unknown dynamic '{abbrev}'")))?;
        if let Some(&(prev, _)) = dynamics.last() {
            if prev > idx {
                return Err(bad("dynamic marks must be in element order"));
            }
        }
        dynamics.push((idx, d));
    }

    Ok(Voice {
        name,
        instrument,
        clef,
        key,
        elements,
        dynamics,
    })
}

fn encode_note(out: &mut Vec<u8>, n: &Note) {
    out.push(n.pitch.step.letter() as u8);
    out.push(n.pitch.alter as i8 as u8);
    out.push(n.pitch.octave as i8 as u8);
    out.push(n.tied as u8);
    put_len(out, n.articulations.len());
    for a in &n.articulations {
        put_str(out, a.name());
    }
    put_opt_str(out, &n.syllable);
}

fn decode_note(c: &mut Reader<'_>) -> Result<Note, DecodeError> {
    let letter = c.u8()? as char;
    let step = Step::from_letter(letter).ok_or_else(|| bad(format!("bad step '{letter}'")))?;
    let alter = c.u8()? as i8 as i32;
    // CMN alterations are at most double sharps/flats; reuse the
    // accidental table as the validity check.
    if Accidental::from_alter(alter).is_none() {
        return Err(bad(format!("alteration {alter} out of range")));
    }
    let octave = c.u8()? as i8 as i32;
    if !(-2..=10).contains(&octave) {
        return Err(bad(format!("octave {octave} out of range")));
    }
    let tied = c.bool()?;
    let narts = c.len(5)?;
    let mut articulations = Vec::with_capacity(narts);
    for _ in 0..narts {
        let name = c.string()?;
        articulations.push(
            Articulation::from_name(&name)
                .ok_or_else(|| bad(format!("unknown articulation '{name}'")))?,
        );
    }
    let syllable = opt_str(c)?;
    Ok(Note {
        pitch: Pitch::new(step, alter, octave),
        tied,
        articulations,
        syllable,
    })
}

fn encode_duration(out: &mut Vec<u8>, d: &Duration) {
    put_str(out, d.base.name());
    out.push(d.dots);
    out.push(d.tuplet.0);
    out.push(d.tuplet.1);
}

fn decode_duration(c: &mut Reader<'_>) -> Result<Duration, DecodeError> {
    let base_name = c.string()?;
    let base = BaseDuration::from_name(&base_name)
        .ok_or_else(|| bad(format!("unknown duration '{base_name}'")))?;
    let dots = c.u8()?;
    if dots > 4 {
        return Err(bad(format!("{dots} augmentation dots is not notatable")));
    }
    let actual = c.u8()?;
    let normal = c.u8()?;
    if actual == 0 || normal == 0 {
        return Err(bad("tuplet components must be positive"));
    }
    Ok(Duration {
        base,
        dots,
        tuplet: (actual, normal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_notation::fixtures::bwv578_subject;
    use mdm_notation::rat;

    fn encode(s: &Score) -> Vec<u8> {
        let mut out = Vec::new();
        encode_score(&mut out, s);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Score, DecodeError> {
        let mut c = Reader::new(bytes);
        let s = decode_score(&mut c)?;
        c.finish()?;
        Ok(s)
    }

    fn elaborate_score() -> Score {
        let mut s = bwv578_subject();
        s.catalog_id = Some("BWV 578".into());
        s.composer = Some("J. S. Bach".into());
        let m = &mut s.movements[0];
        m.tempo.set_tempo(rat(8, 1), 90.0);
        m.tempo.ramp(rat(10, 1), rat(12, 1), 120.0);
        m.controls.push(ControlEvent {
            beat: (3, 2),
            controller: 64,
            value: 127,
            voice: 0,
        });
        let v = &mut m.voices[0];
        v.mark_dynamic(0, Dynamic::MezzoPiano);
        v.mark_dynamic(4, Dynamic::Forte);
        if let Some(VoiceElement::Chord(ch)) = v.elements.first_mut() {
            ch.notes[0].tied = true;
            ch.notes[0].articulations.push(Articulation::Tenuto);
            ch.notes[0].syllable = Some("la".into());
        }
        s
    }

    #[test]
    fn score_roundtrips() {
        let s = elaborate_score();
        let decoded = decode(&encode(&s)).expect("decode");
        assert_eq!(decoded, s);
    }

    #[test]
    fn zero_meter_numerator_rejected_not_panicked() {
        let s = bwv578_subject();
        let mut bytes = encode(&s);
        // The movement name follows the title/options; find the meter
        // numerator by re-encoding with a sentinel: the numerator is the
        // byte right after the movement-name string.
        let mut probe = Vec::new();
        put_str(&mut probe, &s.title);
        put_opt_str(&mut probe, &s.catalog_id);
        put_opt_str(&mut probe, &s.composer);
        put_len(&mut probe, 1);
        put_str(&mut probe, &s.movements[0].name);
        let at = probe.len();
        bytes[at] = 0;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadPayload(_))));
        bytes[at] = s.movements[0].meter.numerator;
        bytes[at + 1] = 3; // not a power of two
        assert!(matches!(decode(&bytes), Err(DecodeError::BadPayload(_))));
    }

    #[test]
    fn hostile_tempo_marks_rejected_not_panicked() {
        // Hand-build a minimal score whose tempo mark carries bpm = -1:
        // the TempoMap constructors would assert on this.
        let mut bytes = Vec::new();
        put_str(&mut bytes, "t");
        bytes.push(0);
        bytes.push(0);
        put_len(&mut bytes, 1); // one movement
        put_str(&mut bytes, "I");
        bytes.push(4);
        bytes.push(4);
        put_len(&mut bytes, 1); // one tempo mark
        bytes.extend_from_slice(&0i64.to_le_bytes());
        bytes.extend_from_slice(&1i64.to_le_bytes());
        bytes.extend_from_slice(&(-1.0f64).to_le_bytes());
        bytes.push(0);
        put_len(&mut bytes, 0); // voices
        put_len(&mut bytes, 0); // controls
        assert!(matches!(decode(&bytes), Err(DecodeError::BadPayload(_))));
    }

    #[test]
    fn truncated_score_rejected() {
        let bytes = encode(&elaborate_score());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
