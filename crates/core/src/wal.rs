//! Per-shard write-ahead log for the ingest session.
//!
//! Every stream message a shard accepts — job opens, segments, rank
//! completions, quarantines, job finishes — is appended to
//! `<spill_dir>/wal/shard-<k>.wal` *before* it is folded into the
//! merger, so a crashed collector can replay the log into a fresh
//! [`IncrementalMerger`](crate::merge::IncrementalMerger) and rebuild
//! every in-flight job ([`crate::recover`]).
//!
//! ## Format
//!
//! A 4-byte magic (`PWL1`) followed by CRC frames — the framing, the
//! record payload codec and the reader are [`crate::frame`]'s, shared
//! with the `PNT1` wire. The reader is torn-tail tolerant: it replays
//! the longest clean prefix and reports (never propagates) the damage —
//! exactly the semantics of the spill path's tmp+sync+rename, applied to
//! an append-only file. The writer stages records and makes a batch of
//! them durable with one write and one [`sync_data`](File::sync_data)
//! ([`WalWriter::commit`]; [`WalWriter::append`] is a batch of one). An
//! owner that acks records sends an ack only after the `sync_data` that
//! covers its record has returned. On a failed commit (a real short
//! write or an injected one) the writer truncates back to the last clean
//! frame so one lost batch cannot poison the frames after it
//! ([`WalWriter::append_or_rewind`]).

use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use pilgrim_sequitur::write_varint;

use crate::error::DecodeError;
use crate::frame::{self, FrameReader, RecordKind};
use crate::merge::{RankCompletion, TraceSegment};

pub use crate::frame::{encode_frame, split_frame};

/// Leading magic of a shard WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"PWL1";

const KIND_OPEN: u8 = RecordKind::JobOpen.wal();
const KIND_SEGMENT: u8 = RecordKind::Segment.wal();
const KIND_COMPLETE: u8 = RecordKind::Complete.wal();
const KIND_FINISHED: u8 = RecordKind::Finished.wal();
const KIND_QUARANTINE: u8 = 5;

/// One logged ingest event.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A job was opened on this shard.
    JobOpen { job: u64, nranks: usize, identity_check: bool },
    /// A segment arrived (logged before folding, so a segment that
    /// panics the worker is still replayable).
    Segment { job: u64, seg: TraceSegment },
    /// A rank completed its stream.
    Complete { job: u64, done: RankCompletion },
    /// The job was finalized and its outcome delivered; recovery treats
    /// the job as settled.
    Finished { job: u64 },
    /// A segment was quarantined after exhausting the worker retry
    /// budget; the rank's sequence has a deliberate gap.
    Quarantine { job: u64, rank: usize, seq: u32 },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::JobOpen { .. } => KIND_OPEN,
            WalRecord::Segment { .. } => KIND_SEGMENT,
            WalRecord::Complete { .. } => KIND_COMPLETE,
            WalRecord::Finished { .. } => KIND_FINISHED,
            WalRecord::Quarantine { .. } => KIND_QUARANTINE,
        }
    }

    fn serialize_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::JobOpen { job, nranks, identity_check } => {
                frame::put_job_open(out, *job, *nranks, *identity_check);
            }
            WalRecord::Segment { job, seg } => frame::put_segment(out, *job, seg),
            WalRecord::Complete { job, done } => frame::put_complete(out, *job, done),
            WalRecord::Finished { job } => frame::put_finished(out, *job),
            WalRecord::Quarantine { job, rank, seq } => {
                write_varint(out, *job);
                write_varint(out, *rank as u64);
                write_varint(out, *seq as u64);
            }
        }
    }

    /// Job id the record belongs to.
    pub fn job(&self) -> u64 {
        match self {
            WalRecord::JobOpen { job, .. }
            | WalRecord::Segment { job, .. }
            | WalRecord::Complete { job, .. }
            | WalRecord::Finished { job }
            | WalRecord::Quarantine { job, .. } => *job,
        }
    }

    fn decode_payload(kind: u8, buf: &[u8]) -> Result<WalRecord, DecodeError> {
        let pos = &mut 0usize;
        let rec = match kind {
            KIND_OPEN => {
                let (job, nranks, identity_check) = frame::get_job_open(buf, pos)?;
                WalRecord::JobOpen { job, nranks, identity_check }
            }
            KIND_SEGMENT => {
                let (job, seg) = frame::get_segment(buf, pos)?;
                WalRecord::Segment { job, seg }
            }
            KIND_COMPLETE => {
                let (job, done) = frame::get_complete(buf, pos)?;
                WalRecord::Complete { job, done }
            }
            KIND_FINISHED => WalRecord::Finished { job: frame::get_finished(buf, pos)? },
            KIND_QUARANTINE => {
                let job = frame::get_varint(buf, pos, "wal quarantine job")?;
                let rank = frame::get_varint(buf, pos, "wal quarantine rank")? as usize;
                let seq = frame::get_varint(buf, pos, "wal quarantine seq")? as u32;
                WalRecord::Quarantine { job, rank, seq }
            }
            _ => return Err(DecodeError::Corrupt { what: "wal record kind", offset: 0 }),
        };
        frame::expect_end(buf, *pos)?;
        Ok(rec)
    }
}

/// Appending writer for one WAL. Records are [staged](WalWriter::stage)
/// into a buffer the writer owns and made durable together by
/// [`commit`](WalWriter::commit): one write, one `sync_data`.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// File length up to the last committed frame; moves only after a
    /// successful commit, and a failed one truncates back here.
    clean_len: u64,
    records: u64,
    /// `sync_data` calls that made records durable (one per commit).
    syncs: u64,
    /// Framed records staged since the last commit, and their count.
    staged: Vec<u8>,
    staged_records: u64,
    /// Reused payload scratch for [`stage`](WalWriter::stage).
    payload: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) the WAL at `path` and writes the magic.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<WalWriter> {
        let path = path.into();
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path,
            clean_len: WAL_MAGIC.len() as u64,
            records: 0,
            syncs: 0,
            staged: Vec::new(),
            staged_records: 0,
            payload: Vec::new(),
        })
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames one record into the staging buffer; nothing reaches the
    /// file until [`commit`](WalWriter::commit).
    pub fn stage(&mut self, rec: &WalRecord) {
        self.payload.clear();
        rec.serialize_payload(&mut self.payload);
        frame::put_frame(&mut self.staged, rec.kind(), &self.payload);
        self.staged_records += 1;
    }

    /// Writes every staged frame with one `write_all` and one
    /// `sync_data`. Returns the bytes made durable (0, with no syscall,
    /// when nothing is staged). The staged frames are consumed either
    /// way: on an error none of them counts as durable, and
    /// [`append_or_rewind`](WalWriter::append_or_rewind) truncates the
    /// file back to [`clean_len`](WalWriter::clean_len).
    pub fn commit(&mut self) -> std::io::Result<u64> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        let written = self.file.write_all(&self.staged).and_then(|()| self.file.sync_data());
        let (bytes, records) = (self.staged.len() as u64, self.staged_records);
        self.discard_staged();
        written?;
        self.clean_len += bytes;
        self.records += records;
        self.syncs += 1;
        Ok(bytes)
    }

    /// Frames, appends, and syncs one record: [`stage`](WalWriter::stage)
    /// then [`commit`](WalWriter::commit). Returns the frame size.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        self.stage(rec);
        self.commit()
    }

    /// Fault-injection hook: stages `rec`, then writes only the first
    /// half of the staged bytes (a torn write, as if the process died
    /// mid-commit) and reports it as a short-write error. Until
    /// [`append_or_rewind`](WalWriter::append_or_rewind) rewinds it, the
    /// file carries a torn tail, exactly what a crash leaves.
    pub fn append_torn(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        self.stage(rec);
        let half = self.staged.len() / 2;
        let total = self.staged.len();
        let written =
            self.file.write_all(&self.staged[..half]).and_then(|()| self.file.sync_data());
        self.discard_staged();
        written?;
        Err(std::io::Error::new(
            std::io::ErrorKind::WriteZero,
            format!("injected short write after {half} of {total} bytes"),
        ))
    }

    fn discard_staged(&mut self) {
        self.staged.clear();
        self.staged_records = 0;
    }

    /// Truncates back to the last committed frame after a failed
    /// commit, so later records land on a clean boundary.
    fn truncate_to_clean(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.clean_len)?;
        self.file.seek(SeekFrom::Start(self.clean_len))?;
        self.file.sync_data()
    }

    /// The one durable-append routine every log owner (ingest shard,
    /// collector connection, degraded client) goes through: run `append`
    /// ([`WalWriter::append`], [`WalWriter::commit`], or a fault plan's
    /// stand-in for either) on the writer in `slot`, and on failure
    /// rewind the log to its last clean frame so one lost record cannot
    /// poison the frames after it. If even the rewind fails the writer
    /// is dropped from `slot` — nothing appended behind a torn tail
    /// could ever be replayed. `None` means the slot holds no writer.
    pub fn append_or_rewind(
        slot: &mut Option<WalWriter>,
        append: impl FnOnce(&mut WalWriter) -> std::io::Result<u64>,
    ) -> Option<std::io::Result<u64>> {
        let wal = slot.as_mut()?;
        let result = append(wal);
        if result.is_err() && wal.truncate_to_clean().is_err() {
            *slot = None;
        }
        Some(result)
    }

    /// Records successfully committed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `sync_data` calls that made records durable: one per non-empty
    /// commit, so at most [`records`](WalWriter::records).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes in the file up to the last committed frame.
    pub fn clean_len(&self) -> u64 {
        self.clean_len
    }
}

/// Result of replaying one WAL file: the longest clean prefix of
/// records, plus what (if anything) stopped the scan.
#[derive(Debug, Default)]
pub struct WalReplay {
    pub records: Vec<WalRecord>,
    /// Bytes consumed by clean frames (magic included).
    pub clean_bytes: u64,
    /// Why the scan stopped early (torn tail, CRC mismatch, corrupt
    /// frame); `None` when the file ended on a frame boundary.
    pub torn: Option<String>,
}

/// Decodes a WAL image, replaying the longest clean prefix. Errors only
/// when the magic itself is missing — damage past the magic is reported
/// in [`WalReplay::torn`], never propagated.
pub fn decode_wal(buf: &[u8]) -> Result<WalReplay, DecodeError> {
    let mut reader = FrameReader::over(buf);
    if reader.take_magic(WAL_MAGIC) != Some(true) {
        return Err(DecodeError::Corrupt { what: "wal magic", offset: 0 });
    }
    let mut replay = WalReplay { clean_bytes: WAL_MAGIC.len() as u64, ..Default::default() };
    while reader.pending() > 0 {
        let start = reader.position();
        let clean = replay.records.len();
        match reader.next_frame(WalRecord::decode_payload) {
            Some(Ok(rec)) => {
                replay.records.push(rec);
                replay.clean_bytes = reader.position() as u64;
            }
            None => {
                replay.torn = Some(format!("torn frame at byte {start} ({clean} records clean)"));
                break;
            }
            Some(Err(e)) => {
                replay.torn =
                    Some(format!("corrupt frame at byte {start}: {e} ({clean} records clean)"));
                break;
            }
        }
    }
    Ok(replay)
}

/// Reads and replays one WAL file from disk. A file without the magic
/// is an [`InvalidData`](std::io::ErrorKind::InvalidData) error.
pub fn read_wal(path: &Path) -> std::io::Result<WalReplay> {
    decode_wal(&std::fs::read(path)?)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{completion, temp_dir};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::JobOpen { job: 3, nranks: 4, identity_check: true },
            WalRecord::Segment {
                job: 3,
                seg: TraceSegment { rank: 1, seq: 0, sealed: true, bytes: vec![1, 2, 3, 4, 5] },
            },
            WalRecord::Quarantine { job: 3, rank: 1, seq: 1 },
            WalRecord::Complete { job: 3, done: completion(1, 9, 2) },
            WalRecord::Finished { job: 3 },
        ]
    }

    fn frame(rec: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        rec.serialize_payload(&mut payload);
        encode_frame(rec.kind(), &payload)
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        for r in records {
            out.extend_from_slice(&frame(r));
        }
        out
    }

    #[test]
    fn roundtrips_every_record_kind() {
        let img = image(&sample_records());
        let replay = decode_wal(&img).expect("magic intact");
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.clean_bytes, img.len() as u64);
        assert_eq!(replay.records.len(), 5);
        match &replay.records[1] {
            WalRecord::Segment { job: 3, seg } => {
                assert_eq!((seg.rank, seg.seq, seg.sealed), (1, 0, true));
                assert_eq!(seg.bytes, vec![1, 2, 3, 4, 5]);
            }
            other => panic!("expected segment, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_replays_clean_prefix() {
        let img = image(&sample_records());
        for cut in WAL_MAGIC.len()..img.len() {
            let replay = decode_wal(&img[..cut]).expect("magic intact");
            // Every record reported clean must be bit-exact decodable.
            assert!(replay.records.len() <= 5);
            if cut < img.len() {
                assert!(replay.clean_bytes <= cut as u64);
            }
        }
        // Cut exactly at a frame boundary: no tear reported.
        let one = image(&sample_records()[..1]);
        let replay = decode_wal(&one).expect("magic intact");
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn bit_flip_fails_closed_at_the_flipped_frame() {
        let img = image(&sample_records());
        // Flip a byte inside the second frame's payload.
        let mut bad = img.clone();
        let first_end = WAL_MAGIC.len() + frame(&sample_records()[0]).len();
        bad[first_end + 3] ^= 0x40;
        let replay = decode_wal(&bad).expect("magic intact");
        assert_eq!(replay.records.len(), 1, "only the first frame survives");
        assert!(replay.torn.is_some());
    }

    #[test]
    fn missing_magic_is_an_error() {
        assert!(decode_wal(b"nope").is_err());
        assert!(decode_wal(b"PW").is_err());
    }

    /// The satellite case for truncate-on-failed-append: a short write
    /// must leave the file readable *at the last clean frame* even
    /// before `truncate_to_clean` runs, and `clean_len` must agree with
    /// what an independent reader accepts.
    #[test]
    fn short_write_leaves_log_readable_at_last_clean_frame() {
        let dir = temp_dir("wal-short");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("shard-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        w.append(&recs[0]).expect("append");
        w.append(&recs[1]).expect("append");
        let clean = w.clean_len();
        assert!(w.append_torn(&recs[2]).is_err());
        // The torn tail is on disk, past the clean length...
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert!(on_disk > clean, "torn bytes must be present ({on_disk} <= {clean})");
        // ...and a crash-time reader replays exactly the clean prefix.
        let replay = read_wal(&path).expect("read");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.clean_bytes, clean);
        assert!(replay.torn.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_appends_syncs_and_recovers_from_torn_append() {
        let dir = temp_dir("wal");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("shard-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        w.append(&recs[0]).expect("append");
        w.append(&recs[1]).expect("append");
        // A torn append leaves a damaged tail the reader skips...
        assert!(w.append_torn(&recs[2]).is_err());
        let replay = read_wal(&path).expect("read");
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn.is_some());
        // ...and truncate-to-clean lets the log continue.
        w.truncate_to_clean().expect("truncate");
        w.append(&recs[3]).expect("append after recovery");
        let replay = read_wal(&path).expect("read");
        assert_eq!(replay.records.len(), 3);
        assert!(replay.torn.is_none());
        assert_eq!(w.records(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_records_are_invisible_until_commit() {
        let dir = temp_dir("wal-stage");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("conn-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        for r in &recs {
            w.stage(r);
        }
        assert_eq!(read_wal(&path).expect("read").records.len(), 0, "staged is not on disk");
        assert_eq!((w.records(), w.syncs(), w.clean_len()), (0, 0, WAL_MAGIC.len() as u64));
        // Only the fsync boundaries moved: the image is the one a
        // record-at-a-time writer produces.
        let img = image(&recs);
        assert_eq!(w.commit().expect("commit"), (img.len() - WAL_MAGIC.len()) as u64);
        assert_eq!(w.commit().expect("empty commit"), 0, "nothing staged: no write, no sync");
        assert_eq!((w.records(), w.syncs()), (5, 1), "one sync for the whole batch");
        assert_eq!(std::fs::read(&path).expect("read image"), img);
        assert_eq!(w.clean_len(), img.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_commit_moves_nothing_and_the_next_lands_clean() {
        let dir = temp_dir("wal-failed-commit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("conn-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        w.append(&recs[0]).expect("append");
        let (clean, records, syncs) = (w.clean_len(), w.records(), w.syncs());

        // A commit whose write fails outright: nothing counts as durable
        // and the staged frames are gone.
        w.stage(&recs[1]);
        let writable = std::mem::replace(&mut w.file, File::open(&path).expect("read-only"));
        assert!(w.commit().is_err());
        assert_eq!((w.clean_len(), w.records(), w.syncs()), (clean, records, syncs));
        assert!(w.staged.is_empty(), "a failed commit consumes its batch");
        w.file = writable;

        // A torn commit (the fault stand-in) over a two-record batch:
        // the torn bytes are on disk past the clean length until the
        // rewind, and a reader replays exactly the committed prefix.
        w.stage(&recs[1]);
        let mut slot = Some(w);
        let torn = WalWriter::append_or_rewind(&mut slot, |w| w.append_torn(&recs[2]));
        assert!(matches!(torn, Some(Err(_))));
        let mut w = slot.expect("rewind succeeded");
        assert_eq!((w.clean_len(), w.records(), w.syncs()), (clean, records, syncs));
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), clean, "rewound");

        // The next commit lands on the clean frame boundary.
        w.stage(&recs[3]);
        w.stage(&recs[4]);
        w.commit().expect("commit after rewind");
        let replay = read_wal(&path).expect("read");
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(
            std::fs::read(&path).expect("read image"),
            image(&[recs[0].clone(), recs[3].clone(), recs[4].clone()])
        );
        assert_eq!((w.records(), w.syncs()), (3, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
