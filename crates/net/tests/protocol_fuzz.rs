//! Fuzz-ish decoder robustness: the frame and message decoders must be
//! total — every mangled input yields a typed error, never a panic and
//! never a runaway allocation. Deterministic (seeded xorshift), so a
//! failure reproduces.

use mdm_net::{wire, Message};
use mdm_notation::fixtures::{bwv578_subject, gloria_fragment};

/// Tiny deterministic PRNG (xorshift64*), no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn sample_frames() -> Vec<Vec<u8>> {
    let messages = [
        Message::Hello {
            client: "fuzz".into(),
            version: wire::PROTOCOL_VERSION,
        },
        Message::TraceControl {
            op: mdm_net::TraceOp::Enable { sample_every: 1 },
        },
        Message::TraceFetch { slow: false, n: 4 },
        Message::Ping,
        Message::Query {
            text: "range of n is NOTE\nretrieve (n.midi_key)".into(),
        },
        Message::StoreScore {
            score: bwv578_subject(),
        },
        Message::ScoreData {
            score: gloria_fragment(),
        },
        Message::ScoreList {
            scores: vec![(1, "a".into()), (2, "b".into())],
        },
        Message::Error {
            code: mdm_net::ErrorCode::Storage,
            message: "disk on fire".into(),
        },
    ];
    let mut frames: Vec<Vec<u8>> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            wire::encode_frame(m.msg_type(), i as u64, &m.encode_payload()).expect("encode")
        })
        .collect();
    // A frame carrying the trace-context extension, so truncation and
    // bit flips also exercise the extension decoding path.
    let traced = Message::Query {
        text: "retrieve (NOTE.midi_key)".into(),
    };
    frames.push(
        wire::encode_frame_traced(
            traced.msg_type(),
            99,
            &traced.encode_payload(),
            Some(mdm_obs::TraceContext {
                trace_id: [7; 16],
                parent_span: 42,
            }),
        )
        .expect("encode traced"),
    );
    frames
}

/// Feeds a mangled frame through the full decode path the server uses:
/// framing first, then message decode. Must return, not panic.
fn try_full_decode(bytes: &[u8]) {
    let mut cursor = bytes;
    if let Ok((header, payload)) = wire::read_frame(&mut cursor) {
        let _ = Message::decode(header.msg_type, &payload);
    }
}

#[test]
fn truncation_at_every_boundary_never_panics() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            try_full_decode(&frame[..cut]);
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    for frame in sample_frames() {
        // Every bit of the header, and a deterministic sample of payload
        // bits (exhaustive payload flipping is O(men seconds) on the
        // score frames).
        let header_bits = (wire::HEADER_LEN.min(frame.len())) * 8;
        for bit in 0..header_bits {
            let mut mangled = frame.clone();
            mangled[bit / 8] ^= 1 << (bit % 8);
            try_full_decode(&mangled);
        }
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2_000 {
            let mut mangled = frame.clone();
            let byte = rng.below(mangled.len());
            mangled[byte] ^= 1 << rng.below(8);
            try_full_decode(&mangled);
        }
    }
}

#[test]
fn random_byte_stretches_never_panic() {
    let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
    for _ in 0..2_000 {
        let len = rng.below(512);
        let mut bytes = vec![0u8; len];
        for b in bytes.iter_mut() {
            *b = rng.next() as u8;
        }
        try_full_decode(&bytes);
    }
}

#[test]
fn valid_header_random_payload_never_panics() {
    let mut rng = Rng(0x0123_4567_89AB_CDEF);
    for msg_type in [1u16, 3, 5, 6, 130, 133, 135, 255, 7777] {
        for _ in 0..500 {
            let len = rng.below(256);
            let mut payload = vec![0u8; len];
            for b in payload.iter_mut() {
                *b = rng.next() as u8;
            }
            // A correctly framed packet whose payload is noise: framing
            // accepts it (checksum is over the noise), message decode
            // must reject or accept without panicking.
            let frame = wire::encode_frame(msg_type, 1, &payload).expect("encode");
            try_full_decode(&frame);
        }
    }
}

#[test]
fn payload_swaps_between_message_types_never_panic() {
    // A StoreScore payload delivered under every other tag, and vice
    // versa: type confusion must not panic the decoder.
    let frames = sample_frames();
    let tags = [
        1u16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 128, 130, 131, 133, 134, 135, 136, 137, 255,
    ];
    for frame in &frames {
        let payload = &frame[wire::HEADER_LEN..];
        for &tag in &tags {
            let reframed = wire::encode_frame(tag, 1, payload).expect("encode");
            try_full_decode(&reframed);
        }
    }
}
