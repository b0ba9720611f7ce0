//! The one framing layer under the write-ahead log (`PWL1`,
//! [`crate::wal`]) and the wire protocol (`PNT1`, [`crate::net`]):
//!
//! ```text
//! [kind: u8] [payload_len: varint] [payload] [crc32: u32 LE]   (+ [mac8] on an authenticated socket)
//! ```
//!
//! The CRC covers kind + length + payload. Every rule that judges bytes
//! from outside the process lives here, once:
//!
//! - **Header and CRC** — [`split_frame`] is the only parser of a frame
//!   header. A buffer that ends mid-frame is a *torn tail* (`None`, the
//!   position left alone so a stream can retry with more bytes); a whole
//!   frame whose CRC does not match is corrupt (`Some(Err)`).
//! - **Length cap** — a declared payload length over the reader's cap
//!   is refused as soon as the header is readable, *before* the body is
//!   buffered: a peer announcing a multi-gigabyte frame cannot make the
//!   collector hold more than `cap + one read chunk` for it.
//! - **MAC chain** — with a [`MacState`] installed every frame must be
//!   followed by a valid chained tag ([`FrameReader::set_mac`] verifies,
//!   the wire's `put_framed` appends); a bad tag is a corrupt stream.
//! - **Record payloads** — job open, segment, rank completion and job
//!   finished have one serializer and one parser each, shared by
//!   [`WalRecord`](crate::wal::WalRecord) and
//!   [`NetFrame`](crate::net::NetFrame). The payload bytes are the same
//!   on disk and on the socket; only the kind byte differs
//!   (`RecordKind::wal` 1–4, `RecordKind::wire` 3–6).
//!
//! [`FrameReader`] is the one reader on top: the collector's connection
//! workers, the client's ack drain and disk outbox, every handshake
//! read and [`decode_wal`](crate::wal::decode_wal) pull frames through
//! it.

use pilgrim_sequitur::{read_varint, write_varint};

use crate::auth::{MacState, MAC_LEN};
use crate::error::DecodeError;
use crate::merge::{RankCompletion, TraceSegment};

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// IEEE CRC-32 (the zlib/gzip polynomial), table-driven, no dependencies.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Builds one CRC frame around `payload`.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    put_frame(&mut out, kind, payload);
    out
}

/// Appends one CRC frame around `payload` to `out` — the bytes of
/// [`encode_frame`], without a buffer of its own.
pub(crate) fn put_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Pulls one CRC frame starting at `*pos`, advancing past it on success.
/// `None` = the buffer ends mid-frame (torn tail — more bytes may still
/// arrive on a stream; `*pos` is left where it was); `Some(Err)` =
/// framing intact but the CRC does not match. The payload is borrowed,
/// not copied.
pub fn split_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Option<Result<(u8, &'a [u8]), DecodeError>> {
    split_capped(buf, pos, usize::MAX)
}

fn split_capped<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    cap: usize,
) -> Option<Result<(u8, &'a [u8]), DecodeError>> {
    let start = *pos;
    let mut at = start;
    let kind = *buf.get(at)?;
    at += 1;
    let len = read_varint(buf, &mut at)?;
    if len > cap as u64 {
        return Some(Err(DecodeError::Corrupt { what: "frame over length cap", offset: start }));
    }
    // `len <= cap <= usize::MAX`, and the subtraction cannot underflow:
    // `at` never passes the end of `buf`.
    let len = len as usize;
    if len > buf.len() - at {
        return None;
    }
    let payload = &buf[at..at + len];
    at += len;
    let crc_bytes = buf.get(at..at + 4)?;
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(&buf[start..at]) != stored {
        return Some(Err(DecodeError::Corrupt { what: "frame crc", offset: start }));
    }
    *pos = at + 4;
    Some(Ok((kind, payload)))
}

/// Incremental frame reassembly: bytes go in as they arrive, whole
/// frames come out, a torn tail waits for more bytes. Over a `Vec` it
/// is a stream buffer ([`FrameReader::extend`]); over a borrowed slice
/// ([`FrameReader::over`]) it walks an image already in memory.
pub struct FrameReader<B = Vec<u8>> {
    buf: B,
    pos: usize,
    cap: usize,
    mac: Option<MacState>,
}

impl FrameReader {
    /// An empty stream buffer refusing payloads longer than `cap`.
    pub fn new(cap: usize) -> FrameReader {
        FrameReader { buf: Vec::new(), pos: 0, cap, mac: None }
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos > (1 << 16)) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }
}

impl<'a> FrameReader<&'a [u8]> {
    /// A reader over a complete in-memory image (no length cap: the
    /// bytes are already held).
    pub fn over(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0, cap: usize::MAX, mac: None }
    }
}

impl<B: AsRef<[u8]>> FrameReader<B> {
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Installs the receive-direction MAC chain (post-handshake).
    pub fn set_mac(&mut self, mac: MacState) {
        self.mac = Some(mac);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.as_ref().len() - self.pos
    }

    /// Offset of the next unconsumed byte. Stable over a borrowed
    /// image; a stream buffer rebases it as it compacts.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes a leading `magic`. `None` = fewer bytes than the magic
    /// are buffered; `Some(false)` = the stream starts with something
    /// else (nothing consumed).
    pub fn take_magic(&mut self, magic: &[u8]) -> Option<bool> {
        let head = self.buf.as_ref().get(self.pos..self.pos + magic.len())?;
        if head != magic {
            return Some(false);
        }
        self.pos += magic.len();
        Some(true)
    }

    /// Pulls the next frame and decodes its payload with `decode`.
    /// `None` = need more bytes; `Some(Err)` = the stream is corrupt at
    /// the current frame (over the cap, bad CRC, bad MAC, or a payload
    /// `decode` refuses) and must be abandoned.
    pub fn next_frame<T>(
        &mut self,
        decode: impl FnOnce(u8, &[u8]) -> Result<T, DecodeError>,
    ) -> Option<Result<T, DecodeError>> {
        let buf = self.buf.as_ref();
        let start = self.pos;
        let mut pos = start;
        let (kind, payload) = match split_capped(buf, &mut pos, self.cap)? {
            Ok(framed) => framed,
            Err(e) => return Some(Err(e)),
        };
        if let Some(mac) = self.mac.as_mut() {
            // An authenticated frame is `frame || mac8`; wait for the
            // tag before judging the frame.
            let tag = buf.get(pos..pos + MAC_LEN)?;
            if !mac.verify(&buf[start..pos], tag) {
                return Some(Err(DecodeError::Corrupt { what: "frame mac", offset: start }));
            }
            pos += MAC_LEN;
        }
        self.pos = pos;
        Some(decode(kind, payload).map_err(|e| e.offset_by(start)))
    }
}

// ---------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------

/// The four durable records the WAL and the wire both carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    JobOpen,
    Segment,
    Complete,
    Finished,
}

impl RecordKind {
    /// Kind byte in a `PWL1` file: 1–4 (5 is the WAL-only quarantine).
    pub(crate) const fn wal(self) -> u8 {
        self as u8 + 1
    }

    /// Kind byte on a `PNT1` socket: 3–6 (1–2 are the hello exchange).
    pub(crate) const fn wire(self) -> u8 {
        self as u8 + 3
    }
}

pub(crate) fn get_varint(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<u64, DecodeError> {
    let offset = *pos;
    read_varint(buf, pos).ok_or(DecodeError::Truncated { what, offset })
}

/// Takes `len` payload bytes. `len` comes straight from the wire or the
/// disk, so the end offset is computed with `checked_add`: a declared
/// length near `u64::MAX` is a truncated payload, not an overflow.
pub(crate) fn get_bytes<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8], DecodeError> {
    let offset = *pos;
    let bytes = offset
        .checked_add(len)
        .and_then(|end| buf.get(offset..end))
        .ok_or(DecodeError::Truncated { what, offset })?;
    *pos += len;
    Ok(bytes)
}

pub(crate) fn get_byte(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, DecodeError> {
    Ok(get_bytes(buf, pos, 1, what)?[0])
}

/// A payload decoder must consume its payload exactly.
pub(crate) fn expect_end(buf: &[u8], pos: usize) -> Result<(), DecodeError> {
    if pos != buf.len() {
        return Err(DecodeError::Corrupt { what: "frame payload trailing bytes", offset: pos });
    }
    Ok(())
}

pub(crate) fn put_job_open(out: &mut Vec<u8>, job: u64, nranks: usize, identity_check: bool) {
    write_varint(out, job);
    write_varint(out, nranks as u64);
    out.push(u8::from(identity_check));
}

pub(crate) fn get_job_open(buf: &[u8], pos: &mut usize) -> Result<(u64, usize, bool), DecodeError> {
    let job = get_varint(buf, pos, "open job")?;
    let nranks = get_varint(buf, pos, "open nranks")? as usize;
    let identity_check = get_byte(buf, pos, "open flag")? != 0;
    Ok((job, nranks, identity_check))
}

pub(crate) fn put_segment(out: &mut Vec<u8>, job: u64, seg: &TraceSegment) {
    write_varint(out, job);
    write_varint(out, seg.rank as u64);
    write_varint(out, seg.seq as u64);
    out.push(u8::from(seg.sealed));
    write_varint(out, seg.bytes.len() as u64);
    out.extend_from_slice(&seg.bytes);
}

pub(crate) fn get_segment(buf: &[u8], pos: &mut usize) -> Result<(u64, TraceSegment), DecodeError> {
    let job = get_varint(buf, pos, "segment job")?;
    let rank = get_varint(buf, pos, "segment rank")? as usize;
    let seq = get_varint(buf, pos, "segment seq")? as u32;
    let sealed = get_byte(buf, pos, "segment flag")? != 0;
    let len = get_varint(buf, pos, "segment len")?;
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let bytes = get_bytes(buf, pos, len, "segment bytes")?.to_vec();
    Ok((job, TraceSegment { rank, seq, sealed, bytes }))
}

pub(crate) fn put_complete(out: &mut Vec<u8>, job: u64, done: &RankCompletion) {
    write_varint(out, job);
    done.serialize(out);
}

pub(crate) fn get_complete(
    buf: &[u8],
    pos: &mut usize,
) -> Result<(u64, RankCompletion), DecodeError> {
    let job = get_varint(buf, pos, "complete job")?;
    Ok((job, RankCompletion::decode(buf, pos)?))
}

pub(crate) fn put_finished(out: &mut Vec<u8>, job: u64) {
    write_varint(out, job);
}

pub(crate) fn get_finished(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    get_varint(buf, pos, "finished job")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetFrame;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_codec_roundtrips_and_rejects_bit_flips() {
        let frame = encode_frame(7, b"hello frame");
        let mut pos = 0;
        let (kind, payload) = split_frame(&frame, &mut pos).expect("whole").expect("clean");
        assert_eq!((kind, payload), (7u8, &b"hello frame"[..]));
        assert_eq!(pos, frame.len());
        // Every strict prefix is torn, and `pos` is left where it was.
        for cut in 0..frame.len() {
            let mut p = 0;
            assert!(split_frame(&frame[..cut], &mut p).is_none(), "cut at {cut}");
            assert_eq!(p, 0);
        }
        // Any single bit flip fails the CRC closed.
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            let mut p = 0;
            match split_frame(&bad, &mut p) {
                Some(Err(_)) | None => {}
                Some(Ok(_)) => panic!("flip at byte {byte} went undetected"),
            }
        }
    }

    #[test]
    fn over_cap_length_is_refused_before_the_body_arrives() {
        let frame = encode_frame(4, &[0u8; 300]);
        let mut reader = FrameReader::new(100);
        // Kind byte + two-byte length varint: the header alone.
        reader.extend(&frame[..3]);
        assert!(matches!(reader.next_frame(|_, _| Ok(())), Some(Err(_))));
        reader.set_cap(300);
        assert!(reader.next_frame(|_, _| Ok(())).is_none(), "under the cap it is a torn tail");
    }

    /// A CRC-valid Segment frame may declare any payload length; the
    /// reader must hand back an error, not overflow computing its end
    /// (`tests/frame_pinning.rs` pins the same through the public
    /// `NetFrame::decode` and `decode_wal`).
    #[test]
    fn reader_survives_a_segment_declaring_len_u64_max() {
        let mut payload = vec![9u8, 1, 0, 1]; // job, rank, seq, sealed
        write_varint(&mut payload, u64::MAX); // len, with no bytes behind it
        let mut reader = FrameReader::new(usize::MAX);
        reader.extend(&encode_frame(RecordKind::Segment.wire(), &payload));
        assert!(matches!(
            reader.next_frame(NetFrame::decode),
            Some(Err(DecodeError::Truncated { .. }))
        ));
    }
}
