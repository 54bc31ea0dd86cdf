//! An additive synthesizer: renders performances into PCM.
//!
//! Stands in for the sound-generation side of the paper's MDM clients
//! (compositional tools produce "sound and graphic representations"). A
//! handful of harmonics with an attack/release envelope is enough to
//! exercise the digitized-sound pipeline and the audio codecs with
//! realistically structured (non-random) signal.

use std::f64::consts::TAU;

use mdm_notation::PerformedNote;

use crate::midi::MidiEventList;
use crate::pcm::PcmBuffer;

/// Relative harmonic amplitudes of a timbre.
#[derive(Debug, Clone, PartialEq)]
pub struct Timbre {
    /// Amplitude per harmonic (index 0 = fundamental).
    pub harmonics: Vec<f64>,
    /// Attack time in seconds.
    pub attack: f64,
    /// Release time in seconds.
    pub release: f64,
}

impl Timbre {
    /// An organ-like timbre (strong odd harmonics, soft envelope).
    pub fn organ() -> Timbre {
        Timbre {
            harmonics: vec![1.0, 0.4, 0.5, 0.15, 0.25],
            attack: 0.01,
            release: 0.05,
        }
    }

    /// A pure sine.
    pub fn sine() -> Timbre {
        Timbre {
            harmonics: vec![1.0],
            attack: 0.01,
            release: 0.01,
        }
    }
}

fn midi_frequency(key: f64) -> f64 {
    440.0 * 2f64.powf((key - 69.0) / 12.0)
}

/// Renders one note into a fresh buffer.
fn render_note(
    key: u8,
    velocity: u8,
    seconds: f64,
    timbre: &Timbre,
    sample_rate: u32,
) -> PcmBuffer {
    let n = ((seconds + timbre.release) * sample_rate as f64).ceil() as usize;
    let mut out = PcmBuffer::new(sample_rate);
    out.samples.reserve(n);
    let f0 = midi_frequency(key as f64);
    let amp = (velocity as f64 / 127.0) * 8000.0;
    let norm: f64 = timbre.harmonics.iter().sum::<f64>().max(1e-9);
    for i in 0..n {
        let t = i as f64 / sample_rate as f64;
        // Envelope: linear attack, sustain, linear release after note end.
        let env = if t < timbre.attack {
            t / timbre.attack
        } else if t < seconds {
            1.0
        } else {
            (1.0 - (t - seconds) / timbre.release).max(0.0)
        };
        let mut s = 0.0;
        for (h, &a) in timbre.harmonics.iter().enumerate() {
            let f = f0 * (h + 1) as f64;
            if f * 2.0 > sample_rate as f64 {
                break; // avoid aliasing above Nyquist
            }
            s += a * (TAU * f * t).sin();
        }
        out.samples.push(((amp * env * s) / norm) as i16);
    }
    out
}

/// Renders a set of performed notes into a single mixed buffer.
pub fn render_performance(notes: &[PerformedNote], timbre: &Timbre, sample_rate: u32) -> PcmBuffer {
    let total = notes.iter().map(|n| n.end_seconds).fold(0.0, f64::max);
    let mut out = PcmBuffer::silence(sample_rate, total + timbre.release);
    for n in notes {
        let dur = (n.end_seconds - n.start_seconds).max(0.0);
        let rendered = render_note(
            n.key.clamp(0, 127) as u8,
            n.velocity,
            dur,
            timbre,
            sample_rate,
        );
        out.mix(&rendered, n.start_seconds);
    }
    out
}

/// Renders a MIDI event list (via its note spans).
pub fn render_midi(list: &MidiEventList, timbre: &Timbre, sample_rate: u32) -> PcmBuffer {
    let notes: Vec<PerformedNote> = list
        .note_spans()
        .into_iter()
        .map(|(start, end, key, channel, velocity)| PerformedNote {
            voice: channel as usize,
            key: key as i32,
            start_seconds: start,
            end_seconds: end,
            velocity,
        })
        .collect();
    render_performance(&notes, timbre, sample_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a440(seconds: f64) -> PerformedNote {
        PerformedNote {
            voice: 0,
            key: 69,
            start_seconds: 0.0,
            end_seconds: seconds,
            velocity: 100,
        }
    }

    #[test]
    fn renders_nonsilent_audio() {
        let pcm = render_performance(&[a440(0.5)], &Timbre::organ(), 8000);
        assert!(pcm.seconds() >= 0.5);
        assert!(pcm.peak() > 1000, "audible signal, peak {}", pcm.peak());
        assert!(pcm.rms() > 100.0);
    }

    #[test]
    fn sine_fundamental_period_is_correct() {
        // A 440 Hz sine at 44100 Hz: zero crossings ≈ 880 per second.
        let pcm = render_performance(&[a440(1.0)], &Timbre::sine(), 44_100);
        let crossings = pcm
            .samples
            .windows(2)
            .filter(|w| (w[0] >= 0) != (w[1] >= 0))
            .count();
        let per_second = crossings as f64 / pcm.seconds();
        assert!((per_second - 880.0).abs() < 20.0, "got {per_second}");
    }

    #[test]
    fn velocity_scales_amplitude() {
        let quiet = render_performance(
            &[PerformedNote {
                velocity: 20,
                ..a440(0.25)
            }],
            &Timbre::organ(),
            8000,
        );
        let loud = render_performance(
            &[PerformedNote {
                velocity: 120,
                ..a440(0.25)
            }],
            &Timbre::organ(),
            8000,
        );
        assert!(loud.rms() > quiet.rms() * 3.0);
    }

    #[test]
    fn simultaneous_notes_mix() {
        let notes = vec![
            a440(0.5),
            PerformedNote {
                key: 64,
                ..a440(0.5)
            },
            PerformedNote {
                key: 60,
                ..a440(0.5)
            },
        ];
        let chord = render_performance(&notes, &Timbre::organ(), 8000);
        let single = render_performance(&[a440(0.5)], &Timbre::organ(), 8000);
        assert!(chord.rms() > single.rms());
    }

    #[test]
    fn high_keys_do_not_alias() {
        // Key 127 ≈ 12.5 kHz. At 44.1 kHz the fundamental renders; at
        // 8 kHz even the fundamental exceeds Nyquist and is dropped
        // rather than aliased.
        let n = PerformedNote {
            key: 127,
            ..a440(0.1)
        };
        let hi = render_performance(std::slice::from_ref(&n), &Timbre::organ(), 44_100);
        assert!(hi.peak() > 0);
        let lo = render_performance(&[n], &Timbre::organ(), 8000);
        assert_eq!(lo.peak(), 0, "no aliased content");
    }
}
