//! Byte-for-byte pins of the `PNT1` wire frames and the `PWL1` WAL
//! image. The hex literals were generated at the commit *before* the
//! collector's codec was collapsed into `frame.rs`; they must never be
//! edited to make a refactor pass — a diff here is a format change.

use pilgrim::net::NetFrame;
use pilgrim::wal::{decode_wal, encode_frame, WalRecord, WalWriter, WAL_MAGIC};
use pilgrim::{
    Component, DegradationEvent, DegradationStage, EncoderConfig, RankCompletion, TraceSegment,
    NET_VERSION,
};
use pilgrim_sequitur::Grammar;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn segment() -> TraceSegment {
    TraceSegment {
        rank: 2,
        seq: 300,
        sealed: true,
        bytes: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F],
    }
}

/// A completion exercising every optional part: one timing grammar
/// present, one absent, and a degradation event.
fn completion() -> RankCompletion {
    let mut g = Grammar::new();
    for t in [1u32, 2, 1, 2, 1, 2, 3] {
        g.push(t);
    }
    RankCompletion {
        rank: 2,
        call_count: 70_000,
        segments: 301,
        duration: Some(g.to_flat()),
        interval: None,
        encoder_cfg: EncoderConfig::default(),
        events: vec![DegradationEvent {
            call_index: 4096,
            stage: DegradationStage::SealSegment,
            component: Component::CallGrammar,
            bytes: 65_536,
        }],
    }
}

fn all_net_frames() -> Vec<NetFrame> {
    let nonce: [u8; pilgrim::NONCE_LEN] = std::array::from_fn(|i| i as u8);
    let mac: [u8; 32] = std::array::from_fn(|i| 0xF0 ^ i as u8);
    vec![
        NetFrame::Hello { version: NET_VERSION, client_id: 0x1234_5678_9ABC },
        NetFrame::HelloAck { version: NET_VERSION },
        NetFrame::JobOpen { job: 0xFEED_F00D, nranks: 513, identity_check: true },
        NetFrame::Segment { job: 0xFEED_F00D, seg: segment() },
        NetFrame::Complete { job: 0xFEED_F00D, done: completion() },
        NetFrame::Finished { job: 0xFEED_F00D },
        NetFrame::Heartbeat,
        NetFrame::Ack { job: 0xFEED_F00D, a: 2, b: 300, of: 4 },
        NetFrame::Challenge { nonce },
        NetFrame::AuthResponse { mac },
        NetFrame::Busy { job: 0xFEED_F00D },
        NetFrame::Reject { code: 3 },
    ]
}

fn all_wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::JobOpen { job: 0xFEED_F00D, nranks: 513, identity_check: true },
        WalRecord::Segment { job: 0xFEED_F00D, seg: segment() },
        WalRecord::Quarantine { job: 0xFEED_F00D, rank: 1, seq: 299 },
        WalRecord::Complete { job: 0xFEED_F00D, done: completion() },
        WalRecord::Finished { job: 0xFEED_F00D },
    ]
}

/// `NetFrame::encode()` of [`all_net_frames`], in order.
const NET_PINS: [&str; 12] = [
    "010801bcb5e2b3c5c6046d939286",
    "020101ab0cd992",
    "03088de0b7f70f810401827cdf2e",
    "04108de0b7f70f02ac020106deadbeef007fb2f0532f",
    "05208de0b7f70f02f0a204ad020501020203030601020201040101802003018080042f04e67d",
    "06058de0b7f70f92cc2b3a",
    "07003884980e",
    "08098de0b7f70f02ac020450bcbe19",
    "0920000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1fef985b7a",
    "0a20f0f1f2f3f4f5f6f7f8f9fafbfcfdfeffe0e1e2e3e4e5e6e7e8e9eaebecedeeefffbb5524",
    "0b058de0b7f70f52adfc5b",
    "0c01038d404976",
];

/// The `PWL1` file `WalWriter` leaves after appending [`all_wal_records`].
const WAL_PIN: &str = concat!(
    "50574c3101088de0b7f70f810401bfac2a2a02108de0b7f70f02ac020106deadbeef007f374c2f2105088de0",
    "b7f70f01ab02d9e6627203208de0b7f70f02f0a204ad02050102020303060102020104010180200301808004",
    "9be2eba604058de0b7f70fbbddb4ad",
);

#[test]
fn frame_bytes_are_pinned() {
    let frames = all_net_frames();
    assert_eq!(frames.len(), NET_PINS.len());
    for (frame, pin) in frames.iter().zip(NET_PINS) {
        assert_eq!(hex(&frame.encode()), pin, "wire bytes changed for {frame:?}");
    }
    let dir = std::env::temp_dir().join(format!("pilgrim-frame-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("pin.wal");
    let mut w = WalWriter::create(&path).expect("create wal");
    for rec in all_wal_records() {
        w.append(&rec).expect("append");
    }
    drop(w);
    let image = std::fs::read(&path).expect("read wal");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&image), WAL_PIN, "WAL bytes changed");
}

/// A CRC-valid Segment frame may declare any payload length: a `len` of
/// `u64::MAX` must come back as an error from the wire decoder and as a
/// reported tear from the WAL reader, not as an overflow panic.
#[test]
fn segment_len_u64_max_is_an_error_not_a_panic() {
    let mut payload = vec![9u8, 1, 0, 1]; // job, rank, seq, sealed
    payload.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    assert!(NetFrame::decode(4, &payload).is_err());

    let mut image = WAL_MAGIC.to_vec();
    image.extend_from_slice(&encode_frame(2, &payload));
    let replay = decode_wal(&image).expect("magic intact");
    assert!(replay.records.is_empty());
    assert!(replay.torn.is_some(), "the hostile frame stops the replay");
}
