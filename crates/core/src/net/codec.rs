//! `PNT1` frames and the handshake frame I/O both peers share.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pilgrim_sequitur::write_varint;

use crate::auth::{MacState, NONCE_LEN};
use crate::error::DecodeError;
use crate::frame::{self, encode_frame, FrameReader, RecordKind};
use crate::merge::{RankCompletion, TraceSegment};
use crate::wal::WalRecord;

/// Leading magic both peers send before their hello frame.
pub const NET_MAGIC: &[u8; 4] = b"PNT1";
/// Protocol version carried in the hello exchange.
pub const NET_VERSION: u32 = 1;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
pub(super) const KIND_JOB_OPEN: u8 = RecordKind::JobOpen.wire();
pub(super) const KIND_SEGMENT: u8 = RecordKind::Segment.wire();
pub(super) const KIND_COMPLETE: u8 = RecordKind::Complete.wire();
pub(super) const KIND_FINISHED: u8 = RecordKind::Finished.wire();
const KIND_HEARTBEAT: u8 = 7;
const KIND_ACK: u8 = 8;
const KIND_CHALLENGE: u8 = 9;
const KIND_AUTH_RESPONSE: u8 = 10;
const KIND_BUSY: u8 = 11;
const KIND_REJECT: u8 = 12;

/// [`NetFrame::Reject`] codes.
/// The peer's protocol version is not this one.
pub const REJECT_VERSION: u8 = 1;
/// The collector requires authentication and the hello offered none.
pub const REJECT_AUTH_REQUIRED: u8 = 2;
/// The challenge response did not verify (wrong key or a replay).
pub const REJECT_BAD_MAC: u8 = 3;
/// A frame declared a resource bound (e.g. `JobOpen.nranks`) beyond
/// the collector's ceiling.
pub const REJECT_LIMITS: u8 = 4;

/// Decode-size cap while a connection is still in its hello exchange:
/// every legitimate handshake frame fits in well under this.
pub(super) const HELLO_MAX_FRAME: usize = 4096;

/// Ceiling on the rank count a `JobOpen` may declare. The merger
/// allocates `nranks`-sized state up front, so an unbounded wire
/// varint would let one small frame force an arbitrary allocation;
/// anything above this is refused with [`REJECT_LIMITS`].
pub const MAX_NRANKS: usize = 1 << 20;

/// One `PNT1` frame. The record-bearing kinds mirror [`WalRecord`]
/// one-for-one so the server can log exactly what it acks.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFrame {
    /// Client's first frame after the magic.
    Hello {
        version: u32,
        client_id: u64,
    },
    /// Server's reply after its own magic.
    HelloAck {
        version: u32,
    },
    JobOpen {
        job: u64,
        nranks: usize,
        identity_check: bool,
    },
    Segment {
        job: u64,
        seg: TraceSegment,
    },
    Complete {
        job: u64,
        done: RankCompletion,
    },
    Finished {
        job: u64,
    },
    /// Keep-alive; never acked, never logged.
    Heartbeat,
    /// Server receipt. `a`/`b` depend on `of`: rank/seq for a segment,
    /// rank/0 for a completion, lossless-flag/0 for a finish, 0/0 for a
    /// job open.
    Ack {
        job: u64,
        a: u64,
        b: u64,
        of: u8,
    },
    /// Server's auth challenge, sent instead of the hello-ack when a
    /// key is configured. The client proves key possession with an
    /// [`NetFrame::AuthResponse`].
    Challenge {
        nonce: [u8; NONCE_LEN],
    },
    /// Client's HMAC over the nonce and its hello coordinates.
    AuthResponse {
        mac: [u8; 32],
    },
    /// Overload shed: the collector refused to open this (new) job.
    /// The client backs off and eventually degrades to local spill.
    Busy {
        job: u64,
    },
    /// Typed handshake rejection (`REJECT_*` codes); the connection
    /// closes right after.
    Reject {
        code: u8,
    },
}

impl NetFrame {
    fn kind(&self) -> u8 {
        match self {
            NetFrame::Hello { .. } => KIND_HELLO,
            NetFrame::HelloAck { .. } => KIND_HELLO_ACK,
            NetFrame::JobOpen { .. } => KIND_JOB_OPEN,
            NetFrame::Segment { .. } => KIND_SEGMENT,
            NetFrame::Complete { .. } => KIND_COMPLETE,
            NetFrame::Finished { .. } => KIND_FINISHED,
            NetFrame::Heartbeat => KIND_HEARTBEAT,
            NetFrame::Ack { .. } => KIND_ACK,
            NetFrame::Challenge { .. } => KIND_CHALLENGE,
            NetFrame::AuthResponse { .. } => KIND_AUTH_RESPONSE,
            NetFrame::Busy { .. } => KIND_BUSY,
            NetFrame::Reject { .. } => KIND_REJECT,
        }
    }

    fn serialize_payload(&self, out: &mut Vec<u8>) {
        match self {
            NetFrame::Hello { version, client_id } => {
                write_varint(out, *version as u64);
                write_varint(out, *client_id);
            }
            NetFrame::HelloAck { version } => write_varint(out, *version as u64),
            NetFrame::JobOpen { job, nranks, identity_check } => {
                frame::put_job_open(out, *job, *nranks, *identity_check);
            }
            NetFrame::Segment { job, seg } => frame::put_segment(out, *job, seg),
            NetFrame::Complete { job, done } => frame::put_complete(out, *job, done),
            NetFrame::Finished { job } => frame::put_finished(out, *job),
            NetFrame::Heartbeat => {}
            NetFrame::Ack { job, a, b, of } => {
                write_varint(out, *job);
                write_varint(out, *a);
                write_varint(out, *b);
                out.push(*of);
            }
            NetFrame::Challenge { nonce } => out.extend_from_slice(nonce),
            NetFrame::AuthResponse { mac } => out.extend_from_slice(mac),
            NetFrame::Busy { job } => write_varint(out, *job),
            NetFrame::Reject { code } => out.push(*code),
        }
    }

    /// Encodes the frame with the shared WAL/wire framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.serialize_payload(&mut payload);
        encode_frame(self.kind(), &payload)
    }

    /// A peer's *first* frame: the `PNT1` magic, then the frame.
    pub fn encode_first(&self) -> Vec<u8> {
        let mut out = NET_MAGIC.to_vec();
        out.extend_from_slice(&self.encode());
        out
    }

    /// Decodes one frame's payload.
    pub fn decode(kind: u8, buf: &[u8]) -> Result<NetFrame, DecodeError> {
        let pos = &mut 0usize;
        let decoded = match kind {
            KIND_HELLO => {
                let version = frame::get_varint(buf, pos, "net hello version")? as u32;
                let client_id = frame::get_varint(buf, pos, "net hello client")?;
                NetFrame::Hello { version, client_id }
            }
            KIND_HELLO_ACK => NetFrame::HelloAck {
                version: frame::get_varint(buf, pos, "net hello-ack version")? as u32,
            },
            KIND_JOB_OPEN => {
                let (job, nranks, identity_check) = frame::get_job_open(buf, pos)?;
                NetFrame::JobOpen { job, nranks, identity_check }
            }
            KIND_SEGMENT => {
                let (job, seg) = frame::get_segment(buf, pos)?;
                NetFrame::Segment { job, seg }
            }
            KIND_COMPLETE => {
                let (job, done) = frame::get_complete(buf, pos)?;
                NetFrame::Complete { job, done }
            }
            KIND_FINISHED => NetFrame::Finished { job: frame::get_finished(buf, pos)? },
            KIND_HEARTBEAT => NetFrame::Heartbeat,
            KIND_ACK => {
                let job = frame::get_varint(buf, pos, "net ack job")?;
                let a = frame::get_varint(buf, pos, "net ack a")?;
                let b = frame::get_varint(buf, pos, "net ack b")?;
                let of = frame::get_byte(buf, pos, "net ack of")?;
                NetFrame::Ack { job, a, b, of }
            }
            KIND_CHALLENGE => {
                let mut nonce = [0u8; NONCE_LEN];
                nonce.copy_from_slice(frame::get_bytes(
                    buf,
                    pos,
                    NONCE_LEN,
                    "net challenge nonce",
                )?);
                NetFrame::Challenge { nonce }
            }
            KIND_AUTH_RESPONSE => {
                let mut mac = [0u8; 32];
                mac.copy_from_slice(frame::get_bytes(buf, pos, 32, "net auth response")?);
                NetFrame::AuthResponse { mac }
            }
            KIND_BUSY => NetFrame::Busy { job: frame::get_varint(buf, pos, "net busy job")? },
            KIND_REJECT => NetFrame::Reject { code: frame::get_byte(buf, pos, "net reject code")? },
            _ => return Err(DecodeError::Corrupt { what: "net frame kind", offset: 0 }),
        };
        frame::expect_end(buf, *pos)?;
        Ok(decoded)
    }

    /// Fault-injection coordinates `(job, rank, seq)` for frames the
    /// plan targets; connection-level frames return `None`.
    pub(super) fn fault_key(&self) -> Option<(u64, u64, u64)> {
        match self {
            NetFrame::JobOpen { job, .. } => Some((*job, u64::MAX, 0)),
            NetFrame::Segment { job, seg } => Some((*job, seg.rank as u64, seg.seq as u64)),
            NetFrame::Complete { job, done } => Some((*job, done.rank as u64, u64::MAX)),
            NetFrame::Finished { job } => Some((*job, u64::MAX, 1)),
            _ => None,
        }
    }

    /// Is this (queued, unacked) frame settled by the given ack?
    pub(super) fn settled_by(&self, job: u64, a: u64, b: u64, of: u8) -> bool {
        match self {
            NetFrame::JobOpen { job: j, .. } => of == KIND_JOB_OPEN && *j == job,
            NetFrame::Segment { job: j, seg } => {
                of == KIND_SEGMENT && *j == job && seg.rank as u64 == a && seg.seq as u64 == b
            }
            NetFrame::Complete { job: j, done } => {
                of == KIND_COMPLETE && *j == job && done.rank as u64 == a
            }
            NetFrame::Finished { job: j } => of == KIND_FINISHED && *j == job,
            _ => false,
        }
    }

    /// The WAL record this frame carries, by value; connection-level
    /// frames carry none.
    pub(super) fn into_wal_record(self) -> Option<WalRecord> {
        match self {
            NetFrame::JobOpen { job, nranks, identity_check } => {
                Some(WalRecord::JobOpen { job, nranks, identity_check })
            }
            NetFrame::Segment { job, seg } => Some(WalRecord::Segment { job, seg }),
            NetFrame::Complete { job, done } => Some(WalRecord::Complete { job, done }),
            NetFrame::Finished { job } => Some(WalRecord::Finished { job }),
            _ => None,
        }
    }
}

/// Poison-tolerant lock: a panicked holder must not wedge the transport.
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A blocking read that reached its deadline (platforms report it as
/// either kind).
pub(super) fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Appends `frame` to `out` as one transmission puts it on the socket:
/// the CRC frame, then its chained tag when the session is
/// authenticated. The one sealing path; `payload` is reused scratch.
pub(super) fn put_framed(
    out: &mut Vec<u8>,
    frame: &NetFrame,
    mac: &mut Option<MacState>,
    payload: &mut Vec<u8>,
) {
    payload.clear();
    frame.serialize_payload(payload);
    let start = out.len();
    frame::put_frame(out, frame.kind(), payload);
    if let Some(m) = mac.as_mut() {
        let tag = m.seal(&out[start..]);
        out.extend_from_slice(&tag);
    }
}

/// Writes one frame as [`put_framed`] lays it out.
pub(super) fn write_framed(
    stream: &mut TcpStream,
    frame: &NetFrame,
    mac: &mut Option<MacState>,
) -> std::io::Result<()> {
    let mut out = Vec::new();
    put_framed(&mut out, frame, mac, &mut Vec::new());
    stream.write_all(&out)
}

/// Reads one handshake frame within `timeout`, first consuming the
/// peer's leading `PNT1` magic when `magic` is set (each peer prefixes
/// only its first frame). The one read loop behind both hello
/// directions and the mid-handshake auth exchange — public so raw-peer
/// harnesses (adversarial sweeps, handshake tests) read frames exactly
/// as the product does.
pub fn read_handshake_frame(
    stream: &mut TcpStream,
    rbuf: &mut FrameReader,
    timeout: Duration,
    mut magic: bool,
) -> Option<NetFrame> {
    let deadline = Instant::now() + timeout;
    stream.set_read_timeout(Some(Duration::from_millis(50))).ok()?;
    let mut tmp = [0u8; 4096];
    loop {
        if magic {
            match rbuf.take_magic(NET_MAGIC) {
                Some(true) => magic = false,
                Some(false) => return None,
                None => {} // the magic itself is still arriving
            }
        }
        if !magic {
            if let Some(res) = rbuf.next_frame(NetFrame::decode) {
                return res.ok();
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => rbuf.extend(&tmp[..n]),
            Err(e) if timed_out(&e) => {}
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::completion;

    fn sample_frames() -> Vec<NetFrame> {
        vec![
            NetFrame::Hello { version: NET_VERSION, client_id: 7 },
            NetFrame::HelloAck { version: NET_VERSION },
            NetFrame::JobOpen { job: 9, nranks: 4, identity_check: true },
            NetFrame::Segment {
                job: 9,
                seg: TraceSegment { rank: 2, seq: 5, sealed: true, bytes: vec![1, 2, 3] },
            },
            NetFrame::Complete { job: 9, done: completion(2, 40, 6) },
            NetFrame::Finished { job: 9 },
            NetFrame::Heartbeat,
            NetFrame::Ack { job: 9, a: 2, b: 5, of: KIND_SEGMENT },
        ]
    }

    #[test]
    fn frames_roundtrip_through_the_shared_codec() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut buf = FrameReader::new(usize::MAX);
            // Feed byte by byte: every prefix must politely wait.
            for (i, b) in bytes.iter().enumerate() {
                if i + 1 < bytes.len() {
                    buf.extend(std::slice::from_ref(b));
                    assert!(
                        buf.next_frame(NetFrame::decode).is_none(),
                        "frame {frame:?} decoded early"
                    );
                } else {
                    buf.extend(std::slice::from_ref(b));
                }
            }
            let back = buf.next_frame(NetFrame::decode).expect("whole frame").expect("clean frame");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn acks_settle_exactly_their_frame() {
        let seg = NetFrame::Segment {
            job: 9,
            seg: TraceSegment { rank: 2, seq: 5, sealed: false, bytes: vec![] },
        };
        assert!(seg.settled_by(9, 2, 5, KIND_SEGMENT));
        assert!(!seg.settled_by(9, 2, 6, KIND_SEGMENT));
        assert!(!seg.settled_by(9, 2, 5, KIND_COMPLETE));
        assert!(!seg.settled_by(8, 2, 5, KIND_SEGMENT));
        let done = NetFrame::Complete { job: 9, done: completion(2, 1, 1) };
        assert!(done.settled_by(9, 2, 0, KIND_COMPLETE));
        assert!(!done.settled_by(9, 3, 0, KIND_COMPLETE));
        let fin = NetFrame::Finished { job: 9 };
        assert!(fin.settled_by(9, 1, 0, KIND_FINISHED));
        assert!(!fin.settled_by(7, 1, 0, KIND_FINISHED));
    }
}
