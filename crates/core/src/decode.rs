//! Trace decoding, lossless verification, and the checksummed-container
//! readers.
//!
//! The paper validates Pilgrim by decompressing traces and comparing them
//! against the uncompressed record stream ("we can check correctness by
//! comparing uncompressed traces to compressed next decompressed traces",
//! §4). [`decode_rank_calls`] expands a merged trace back into per-call
//! argument lists; [`verify_lossless`] checks a trace against a reference
//! capture taken during tracing.
//!
//! [`GlobalTrace::decode_container`] reads the `PGC1` container written
//! by [`crate::export::write_container`], verifying every section's CRC32
//! before trusting its payload. [`GlobalTrace::decode_salvage`] reads the
//! same format best-effort: any rank or timing grammar whose section
//! fails its checksum is dropped (and recorded in the returned
//! [`SalvageReport`] and the trace's completeness manifest) while every
//! clean section is recovered intact.

use std::collections::{HashMap, HashSet};

use mpi_sim::funcs::Object;
use mpi_sim::hooks::Arg;
use pilgrim_sequitur::{decode_varint, DecodeError, FlatGrammar};

use crate::cst::Cst;
use crate::encode::{decode_signature, EncodedArg, EncodedCall, EncoderConfig};
use crate::export::{
    section_name, CONTAINER_MAGIC, CONTAINER_VERSION, SEC_CST, SEC_DURATION, SEC_GRAMMAR,
    SEC_INTERVAL, SEC_META, SEC_NONDET, SEC_RANK,
};
use crate::frame::crc32;
use crate::governor::DegradationEvent;
use crate::metrics::MetricsRegistry;
use crate::nondet::NondetLog;
use crate::query::{CallIterator, TraceIndex};
use crate::trace::{checked_total, GlobalTrace, RankStatus, TraceCompleteness, RANK_MAP_NONE};
use crate::tracer::CapturedCall;

/// Decodes the call behind one grammar terminal. A terminal beyond the
/// CST or a signature whose bytes do not parse is
/// [`DecodeError::BadSignature`] — a corrupted table surfaces as `Err`,
/// never a panic.
pub fn decode_term_call(trace: &GlobalTrace, term: u32) -> Result<EncodedCall, DecodeError> {
    if term as usize >= trace.cst.len() {
        return Err(DecodeError::BadSignature { term });
    }
    decode_signature(trace.cst.signature(term)).ok_or(DecodeError::BadSignature { term })
}

/// Decodes one rank's full call sequence from a merged trace, walking that
/// rank's span of the grammar alone. O(calls) memory by contract: for input
/// that is not trusted, stream a [`CallIterator`] (or the raw terminals off
/// [`GlobalTrace::rank_terms`]) and bound it with `take`.
pub fn decode_rank_calls(
    trace: &GlobalTrace,
    rank: usize,
) -> Result<Vec<EncodedCall>, DecodeError> {
    if rank >= trace.nranks {
        return Err(DecodeError::NoSuchRank { rank, nranks: trace.nranks });
    }
    trace.decode_rank(rank).into_iter().map(|term| decode_term_call(trace, term)).collect()
}

/// Verification statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerifyReport {
    pub calls_checked: u64,
    pub args_checked: u64,
}

/// Verifies that the merged trace reproduces the reference capture for
/// every rank: same call sequence, same function ids, and every
/// non-opaque argument recoverable exactly (ranks via relative decoding);
/// opaque communicator references must be referentially consistent.
pub fn verify_lossless(
    trace: &GlobalTrace,
    refs: &[Vec<CapturedCall>],
) -> Result<VerifyReport, String> {
    verify_lossless_with(trace, refs, &MetricsRegistry::default())
}

/// [`verify_lossless`] with metrics: verification streams calls through a
/// [`CallIterator`] — one decoded call live at a time instead of the old
/// full `decode_all_ranks` materialization — and records the
/// `verify.peak_materialized_calls` gauge as proof of the memory win.
pub fn verify_lossless_with(
    trace: &GlobalTrace,
    refs: &[Vec<CapturedCall>],
    metrics: &MetricsRegistry,
) -> Result<VerifyReport, String> {
    if refs.len() != trace.nranks {
        return Err(format!("trace has {} ranks, reference has {}", trace.nranks, refs.len()));
    }
    let index = TraceIndex::build_with_metrics(trace, metrics);
    let mut report = VerifyReport::default();
    let mut peak_calls = 0u64;
    for (rank, reference) in refs.iter().enumerate() {
        let decoded_len = trace.rank_lengths.get(rank).copied().unwrap_or(0);
        if decoded_len != reference.len() as u64 {
            return Err(format!(
                "rank {rank}: decoded {decoded_len} calls, reference has {}",
                reference.len()
            ));
        }
        // Referential consistency for communicator symbols, plus the
        // per-request relative bases the tracer used for statuses.
        let mut comm_map: HashMap<u64, u32> = HashMap::new();
        let mut freed_comms: HashSet<u32> = HashSet::new();
        let mut req_base: HashMap<u64, i64> = HashMap::new();
        let calls = CallIterator::new(trace, &index, rank);
        for (i, (decoded, cap)) in calls.zip(reference).enumerate() {
            let call =
                decoded.map_err(|_| format!("rank {rank} call {i}: undecodable signature"))?;
            peak_calls = peak_calls.max(1);
            if call.func != cap.rec.func.id() {
                return Err(format!(
                    "rank {rank} call {i}: func {} != expected {}",
                    call.func,
                    cap.rec.func.id()
                ));
            }
            if call.args.len() != cap.rec.args.len() {
                return Err(format!(
                    "rank {rank} call {i} ({:?}): {} args decoded, {} expected",
                    cap.rec.func,
                    call.args.len(),
                    cap.rec.args.len()
                ));
            }
            // Each returned status is relative to the caller's rank in the
            // communicator its request was created on, as the tracer
            // encoded it.
            let shape = cap.rec.func.shape();
            let completions = shape.completions(&cap.rec.args);
            let status_base = |slot: usize| {
                let done = completions.as_ref().and_then(|c| c.slot(slot));
                done.and_then(|d| req_base.get(&d.request)).copied().unwrap_or(cap.caller_rank)
            };
            for (j, (dec, raw)) in call.args.iter().zip(&cap.rec.args).enumerate() {
                check_arg(
                    dec,
                    raw,
                    cap,
                    rank,
                    i,
                    j,
                    &mut comm_map,
                    &mut freed_comms,
                    &status_base,
                )?;
                report.args_checked += 1;
            }
            if let Some(raw) = shape.created(&cap.rec.args) {
                req_base.insert(raw, cap.caller_rank);
            }
            report.calls_checked += 1;
        }
    }
    // Streaming holds at most one decoded call; the old path's peak was
    // the whole trace (`calls_checked`).
    metrics.set_gauge("verify.peak_materialized_calls", peak_calls);
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn check_arg(
    dec: &EncodedArg,
    raw: &Arg,
    cap: &CapturedCall,
    rank: usize,
    call: usize,
    argi: usize,
    comm_map: &mut HashMap<u64, u32>,
    freed_comms: &mut HashSet<u32>,
    status_base: &dyn Fn(usize) -> i64,
) -> Result<(), String> {
    let func = cap.rec.func;
    let fail = |msg: String| Err(format!("rank {rank} call {call} ({func:?}) arg {argi}: {msg}"));
    match (dec, raw) {
        (EncodedArg::Int(d), Arg::Int(r)) => {
            if d != r {
                return fail(format!("int {d} != {r}"));
            }
        }
        (EncodedArg::Rank(code), Arg::Rank(r)) => {
            let abs = code.absolutize(cap.caller_rank);
            if abs != *r as i64 {
                return fail(format!("rank {abs} != {r}"));
            }
        }
        (EncodedArg::Tag(d), Arg::Tag(r)) => {
            // Relative-aux tags decode back through the caller rank.
            if *d != *r as i64 && *d + cap.caller_rank != *r as i64 {
                return fail(format!("tag {d} != {r}"));
            }
        }
        (EncodedArg::Comm(sym), Arg::Comm(h)) => {
            // Deferred (idup) and undefined markers are exempt.
            if *sym == u64::MAX || *sym == u64::MAX - 2 {
                return Ok(());
            }
            match comm_map.get(sym) {
                Some(&prev) if prev == *h => {}
                Some(&prev) if freed_comms.contains(&prev) => {
                    comm_map.insert(*sym, *h);
                }
                Some(&prev) => {
                    return fail(format!("comm sym {sym} maps to {prev} and {h}"));
                }
                None => {
                    comm_map.insert(*sym, *h);
                }
            }
            if func.shape().object == Some(Object::FreeComm(argi as u8)) {
                freed_comms.insert(*h);
            }
        }
        (EncodedArg::Datatype(_), Arg::Datatype(_)) => {}
        (EncodedArg::Op(d), Arg::Op(r)) => {
            if d != r {
                return fail(format!("op {d} != {r}"));
            }
        }
        (EncodedArg::Group(_), Arg::Group(_)) => {}
        (EncodedArg::Request(_), Arg::Request(_)) => {}
        (EncodedArg::RequestArr(d), Arg::RequestArr(r)) => {
            if d.len() != r.len() {
                return fail(format!("request array {} != {}", d.len(), r.len()));
            }
            for (ds, rs) in d.iter().zip(r) {
                if ds.is_none() != (*rs == u64::MAX) {
                    return fail("request-null pattern mismatch".into());
                }
            }
        }
        (EncodedArg::Ptr { .. }, Arg::Ptr(_)) => {}
        (EncodedArg::Status { source, tag }, Arg::Status { source: rs, tag: rt }) => {
            if source.absolutize(status_base(0)) != *rs as i64 {
                return fail(format!("status source {source:?} != {rs}"));
            }
            if *tag != *rt as i64 {
                return fail(format!("status tag {tag} != {rt}"));
            }
        }
        (EncodedArg::StatusArr(d), Arg::StatusArr(r)) => {
            if d.len() != r.len() {
                return fail(format!("status array {} != {}", d.len(), r.len()));
            }
            for (k, ((src, tag), (rs, rt))) in d.iter().zip(r).enumerate() {
                if src.absolutize(status_base(k)) != *rs as i64 || *tag != *rt as i64 {
                    return fail("status array entry mismatch".into());
                }
            }
        }
        (EncodedArg::IntArr(d), Arg::IntArr(r)) => {
            if d != r {
                return fail(format!("int array {d:?} != {r:?}"));
            }
        }
        (EncodedArg::Color(d), Arg::Color(r)) => {
            if *d != *r as i64 && *d + cap.caller_rank != *r as i64 {
                return fail(format!("color {d} != {r}"));
            }
        }
        (EncodedArg::Key(d), Arg::Key(r)) => {
            if *d != *r as i64 && *d + cap.caller_rank != *r as i64 {
                return fail(format!("key {d} != {r}"));
            }
        }
        (EncodedArg::Str(d), Arg::Str(r)) => {
            if d != r {
                return fail(format!("string {d:?} != {r:?}"));
            }
        }
        (d, r) => return fail(format!("kind mismatch: decoded {d:?}, raw {r:?}")),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// PGC1 container readers (strict and salvage).
// ---------------------------------------------------------------------

/// What [`GlobalTrace::decode_salvage`] had to give up on: indices of
/// timing grammars and ranks whose container sections failed their
/// checksum, plus ranks that kept their call data but lost their timing
/// grammar to a corrupt DURATION/INTERVAL section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Duration grammars replaced by empty placeholders.
    pub skipped_duration_grammars: Vec<usize>,
    /// Interval grammars replaced by empty placeholders.
    pub skipped_interval_grammars: Vec<usize>,
    /// Ranks whose RANK section was corrupt: call span inferred, timing
    /// maps and degradation events lost.
    pub skipped_ranks: Vec<usize>,
    /// Ranks whose own section was clean but whose timing grammar was in
    /// a corrupt section.
    pub timing_stripped_ranks: Vec<usize>,
    /// The trailing `PGND` nondeterminism log was present but corrupt and
    /// had to be dropped: the calls replay, but no longer deterministically.
    pub nondet_dropped: bool,
}

impl SalvageReport {
    /// True when nothing was skipped (the container decoded losslessly).
    pub fn is_clean(&self) -> bool {
        self.skipped_duration_grammars.is_empty()
            && self.skipped_interval_grammars.is_empty()
            && self.skipped_ranks.is_empty()
            && self.timing_stripped_ranks.is_empty()
            && !self.nondet_dropped
    }
}

/// One framed section: `kind`, payload-length varint, payload, CRC32-LE.
struct RawSection<'a> {
    kind: u8,
    kind_off: usize,
    payload_off: usize,
    payload: &'a [u8],
    crc_ok: bool,
}

fn read_section<'a>(buf: &'a [u8], pos: &mut usize) -> Result<RawSection<'a>, DecodeError> {
    let kind_off = *pos;
    let kind =
        *buf.get(*pos).ok_or(DecodeError::Truncated { what: "section kind", offset: kind_off })?;
    *pos += 1;
    let len_off = *pos;
    let len = decode_varint(buf, pos)? as usize;
    // The payload plus its 4 checksum bytes must fit in the buffer; a
    // flipped length bit that claims more is corruption, not a section.
    if len.saturating_add(4) > buf.len().saturating_sub(*pos) {
        return Err(DecodeError::Corrupt { what: "section length", offset: len_off });
    }
    let payload_off = *pos;
    let payload = &buf[*pos..*pos + len];
    *pos += len;
    let stored = u32::from_le_bytes([buf[*pos], buf[*pos + 1], buf[*pos + 2], buf[*pos + 3]]);
    *pos += 4;
    Ok(RawSection { kind, kind_off, payload_off, payload, crc_ok: crc32(payload) == stored })
}

/// Checks a section's kind and checksum, for sections that must be intact
/// even under salvage (META, CST, GRAMMAR) and for every section when
/// decoding strictly.
fn require_clean(s: &RawSection<'_>, want: u8) -> Result<(), DecodeError> {
    if s.kind != want {
        return Err(DecodeError::Corrupt { what: "section kind", offset: s.kind_off });
    }
    if !s.crc_ok {
        return Err(DecodeError::BadChecksum {
            section: section_name(want),
            offset: s.payload_off,
        });
    }
    Ok(())
}

/// A fully parsed RANK section.
struct RankRecord {
    length: u64,
    dur_map: u32,
    int_map: u32,
    status: RankStatus,
    events: Vec<DegradationEvent>,
}

/// Decodes a rank-map entry from its +1 on-disk form, bounds-checking
/// non-sentinel indices against the grammar pool.
fn parse_map_entry(
    payload: &[u8],
    pos: &mut usize,
    pool: usize,
    what: &'static str,
) -> Result<u32, DecodeError> {
    let off = *pos;
    match decode_varint(payload, pos)?.checked_sub(1) {
        None => Ok(RANK_MAP_NONE),
        Some(idx) if idx >= pool as u64 => Err(DecodeError::Corrupt { what, offset: off }),
        Some(idx) => Ok(idx as u32),
    }
}

/// Parses a RANK section payload; offsets in errors are relative to the
/// payload (the caller rebases them with [`DecodeError::offset_by`]).
fn parse_rank_payload(payload: &[u8], nd: usize, ni: usize) -> Result<RankRecord, DecodeError> {
    let mut pos = 0usize;
    let length = decode_varint(payload, &mut pos)?;
    let dur_map = parse_map_entry(payload, &mut pos, nd, "duration rank map")?;
    let int_map = parse_map_entry(payload, &mut pos, ni, "interval rank map")?;
    let tag_off = pos;
    let status = match decode_varint(payload, &mut pos)? {
        0 => RankStatus::Merged,
        1 => RankStatus::Lost { round: decode_varint(payload, &mut pos)? as u32 },
        2 => RankStatus::Checkpoint { calls: decode_varint(payload, &mut pos)? },
        3 => RankStatus::Salvaged { calls: decode_varint(payload, &mut pos)? },
        _ => return Err(DecodeError::Corrupt { what: "rank status", offset: tag_off }),
    };
    let count_off = pos;
    let count = decode_varint(payload, &mut pos)? as usize;
    // Each event costs at least four varint bytes.
    if count > payload.len().saturating_sub(pos) / 4 + 1 {
        return Err(DecodeError::Corrupt { what: "event count", offset: count_off });
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(DegradationEvent::decode(payload, &mut pos)?);
    }
    if pos != payload.len() {
        return Err(DecodeError::TrailingBytes { consumed: pos, len: payload.len() });
    }
    Ok(RankRecord { length, dur_map, int_map, status, events })
}

/// Parses the META payload: encoder config byte and four count varints.
fn parse_meta(payload: &[u8]) -> Result<(EncoderConfig, usize, usize, usize, usize), DecodeError> {
    let cfg = EncoderConfig::from_byte(
        *payload.first().ok_or(DecodeError::Truncated { what: "encoder config", offset: 0 })?,
    );
    let mut pos = 1usize;
    let nranks = decode_varint(payload, &mut pos)? as usize;
    let unique = decode_varint(payload, &mut pos)? as usize;
    let nd = decode_varint(payload, &mut pos)? as usize;
    let ni = decode_varint(payload, &mut pos)? as usize;
    if pos != payload.len() {
        return Err(DecodeError::TrailingBytes { consumed: pos, len: payload.len() });
    }
    Ok((cfg, nranks, unique, nd, ni))
}

fn decode_container_inner(
    buf: &[u8],
    salvage: bool,
) -> Result<(GlobalTrace, SalvageReport), DecodeError> {
    if buf.len() < CONTAINER_MAGIC.len() + 1 {
        return Err(DecodeError::Truncated { what: "container header", offset: 0 });
    }
    if buf[..CONTAINER_MAGIC.len()] != CONTAINER_MAGIC {
        return Err(DecodeError::Corrupt { what: "container magic", offset: 0 });
    }
    if buf[CONTAINER_MAGIC.len()] != CONTAINER_VERSION {
        return Err(DecodeError::Corrupt {
            what: "container version",
            offset: CONTAINER_MAGIC.len(),
        });
    }
    let mut pos = CONTAINER_MAGIC.len() + 1;
    let mut report = SalvageReport::default();

    // The first three sections must be intact even when salvaging: without
    // the meta counts, the CST, or the merged grammar there is no trace.
    let meta = read_section(buf, &mut pos)?;
    require_clean(&meta, SEC_META)?;
    let (encoder_cfg, nranks, unique_grammars, nd, ni) =
        parse_meta(meta.payload).map_err(|e| e.offset_by(meta.payload_off))?;
    // Every declared section costs at least six framing bytes; counts the
    // buffer cannot hold are corruption (and would over-reserve below).
    let budget = buf.len() / 6 + 1;
    if nranks > budget || nd > budget || ni > budget {
        return Err(DecodeError::Corrupt { what: "meta counts", offset: meta.payload_off });
    }

    let sec = read_section(buf, &mut pos)?;
    require_clean(&sec, SEC_CST)?;
    let mut p = 0usize;
    let cst = Cst::decode(sec.payload, &mut p).map_err(|e| e.offset_by(sec.payload_off))?;
    if p != sec.payload.len() {
        return Err(DecodeError::Corrupt { what: "cst section", offset: sec.payload_off });
    }

    let sec = read_section(buf, &mut pos)?;
    require_clean(&sec, SEC_GRAMMAR)?;
    let (grammar, used, expanded) =
        FlatGrammar::decode_measured(sec.payload).map_err(|e| e.offset_by(sec.payload_off))?;
    if used != sec.payload.len() {
        return Err(DecodeError::Corrupt { what: "grammar section", offset: sec.payload_off });
    }

    // Timing grammars: under salvage a corrupt section becomes an empty
    // placeholder (keeping later indices stable); strict mode errors out.
    let mut duration_grammars = Vec::with_capacity(nd);
    let mut interval_grammars = Vec::with_capacity(ni);
    for (kind, pool, out, skipped) in [
        (SEC_DURATION, nd, &mut duration_grammars, &mut report.skipped_duration_grammars),
        (SEC_INTERVAL, ni, &mut interval_grammars, &mut report.skipped_interval_grammars),
    ] {
        for k in 0..pool {
            let sec = read_section(buf, &mut pos)?;
            let parsed = require_clean(&sec, kind).and_then(|()| {
                let (g, used) =
                    FlatGrammar::decode(sec.payload).map_err(|e| e.offset_by(sec.payload_off))?;
                if used != sec.payload.len() {
                    return Err(DecodeError::Corrupt {
                        what: "timing grammar section",
                        offset: sec.payload_off,
                    });
                }
                Ok(g)
            });
            match parsed {
                Ok(g) => out.push(g),
                Err(e) if !salvage => return Err(e),
                Err(_) => {
                    out.push(FlatGrammar::empty());
                    skipped.push(k);
                }
            }
        }
    }

    let ranks_off = pos;
    let mut records: Vec<Option<RankRecord>> = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let sec = read_section(buf, &mut pos)?;
        let parsed = require_clean(&sec, SEC_RANK).and_then(|()| {
            parse_rank_payload(sec.payload, nd, ni).map_err(|e| e.offset_by(sec.payload_off))
        });
        match parsed {
            Ok(rec) => records.push(Some(rec)),
            Err(e) if !salvage => return Err(e),
            Err(_) => {
                records.push(None);
                report.skipped_ranks.push(rank);
            }
        }
    }

    // Optional trailing PGND section: the nondeterminism side-channel of
    // a record/replay recording ([`crate::NondetLog`]). Ordinary traces
    // end at the last RANK section, so pre-existing containers decode
    // unchanged; anything after this point that is not a PGND section is
    // still trailing garbage.
    let mut nondet = None;
    if pos < buf.len() && buf[pos] == SEC_NONDET {
        let parsed = read_section(buf, &mut pos).and_then(|sec| {
            require_clean(&sec, SEC_NONDET)?;
            let log = NondetLog::decode(sec.payload).map_err(|e| e.offset_by(sec.payload_off))?;
            if log.ranks.len() != nranks {
                return Err(DecodeError::Corrupt {
                    what: "nondet rank count",
                    offset: sec.payload_off,
                });
            }
            Ok(log)
        });
        match parsed {
            Ok(log) => nondet = Some(log),
            Err(e) if !salvage => return Err(e),
            Err(_) => {
                // The call data is already recovered; drop the log and
                // record the loss instead of failing the whole salvage.
                report.nondet_dropped = true;
                pos = buf.len();
            }
        }
    }
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes { consumed: pos, len: buf.len() });
    }

    // The rank lengths split the expansion, so they must cover it exactly
    // (everything downstream slices and divides on that): strict mode
    // refuses any other table. Under salvage a corrupt RANK section lost
    // its call-count varint, but the grammar knows the total: whatever the
    // clean ranks do not account for belongs to the skipped ranks
    // (attributed to the first; the split between several is unknowable),
    // and a clean rank claiming more than is left is clamped to it.
    let clean_sum = checked_total(records.iter().flatten().map(|r| r.length));
    if !salvage && clean_sum != Some(expanded) {
        return Err(DecodeError::Corrupt { what: "rank lengths", offset: ranks_off });
    }
    let mut remainder = expanded.saturating_sub(clean_sum.unwrap_or(u64::MAX));
    let mut left = expanded;

    let mut rank_lengths = Vec::with_capacity(nranks);
    let mut statuses = Vec::with_capacity(nranks);
    let mut duration_rank_map = Vec::with_capacity(nranks);
    let mut interval_rank_map = Vec::with_capacity(nranks);
    let mut events: Vec<(u32, DegradationEvent)> = Vec::new();
    for (rank, rec) in records.iter().enumerate() {
        match rec {
            Some(rec) => {
                let length = rec.length.min(left);
                left -= length;
                rank_lengths.push(length);
                let mut status = rec.status;
                if length < rec.length {
                    status = RankStatus::Salvaged { calls: length };
                    report.skipped_ranks.push(rank);
                }
                let mut dur = rec.dur_map;
                let mut int = rec.int_map;
                // A clean rank pointing at a skipped timing grammar loses
                // its timing and is downgraded to Salvaged so the manifest
                // records the loss.
                let dur_gone = dur != RANK_MAP_NONE
                    && report.skipped_duration_grammars.contains(&(dur as usize));
                let int_gone = int != RANK_MAP_NONE
                    && report.skipped_interval_grammars.contains(&(int as usize));
                if dur_gone {
                    dur = RANK_MAP_NONE;
                }
                if int_gone {
                    int = RANK_MAP_NONE;
                }
                if (dur_gone || int_gone) && matches!(status, RankStatus::Merged) {
                    status = RankStatus::Salvaged { calls: length };
                    report.timing_stripped_ranks.push(rank);
                }
                duration_rank_map.push(dur);
                interval_rank_map.push(int);
                statuses.push(status);
                events.extend(rec.events.iter().map(|e| (rank as u32, *e)));
            }
            None => {
                left -= remainder;
                rank_lengths.push(std::mem::take(&mut remainder));
                statuses.push(RankStatus::Salvaged { calls: rank_lengths[rank] });
                duration_rank_map.push(RANK_MAP_NONE);
                interval_rank_map.push(RANK_MAP_NONE);
            }
        }
    }
    report.skipped_ranks.sort_unstable();
    // Aggregate-timing traces have no timing grammars, so they carry no
    // rank maps: every RANK section's 0 entries decode to empty maps.
    if nd == 0 && ni == 0 {
        duration_rank_map.clear();
        interval_rank_map.clear();
    }
    let completeness = TraceCompleteness::canonical(statuses, events);
    Ok((
        GlobalTrace {
            nranks,
            encoder_cfg,
            cst,
            grammar,
            rank_lengths,
            unique_grammars,
            duration_grammars,
            interval_grammars,
            duration_rank_map,
            interval_rank_map,
            completeness,
            nondet,
        },
        report,
    ))
}

impl GlobalTrace {
    /// Strictly decodes a `PGC1` container written by
    /// [`crate::export::write_container`]: every section's CRC32 must
    /// match ([`DecodeError::BadChecksum`] names the first section that
    /// does not) and every payload must parse completely.
    pub fn decode_container(buf: &[u8]) -> Result<GlobalTrace, DecodeError> {
        decode_container_inner(buf, false).map(|(trace, _)| trace)
    }

    /// Best-effort decode of a `PGC1` container: recovers every rank and
    /// timing grammar whose sections checksum clean, replaces corrupt
    /// timing grammars with empty placeholders, marks ranks with corrupt
    /// sections [`RankStatus::Salvaged`] (their call span inferred from
    /// the merged grammar), and reports what was skipped. Fails only when
    /// the framing, META, CST, or merged-grammar sections are themselves
    /// damaged — without those there is no trace to salvage.
    pub fn decode_salvage(buf: &[u8]) -> Result<(GlobalTrace, SalvageReport), DecodeError> {
        decode_container_inner(buf, true)
    }

    /// The same as [`GlobalTrace::decode_container`], kept for the frozen
    /// `benchmarks/pipeline` harness that calls it by this name. `PGC1` is
    /// the only trace format; new code calls `decode_container`.
    pub fn decode_auto(buf: &[u8]) -> Result<GlobalTrace, DecodeError> {
        GlobalTrace::decode_container(buf)
    }
}
