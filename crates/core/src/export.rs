//! Trace export: a human-readable OTF-inspired text format, and the
//! corruption-hardened `PGC1` container.
//!
//! The paper notes that Pilgrim's own format keeps existing post-
//! processing tools from reading its traces, and lists a converter "into
//! some existing trace formats (e.g., OTF)" as future work. This module
//! implements that direction: a line-oriented event format in the spirit
//! of OTF's ASCII representation — a definitions preamble (functions,
//! signatures) followed by per-rank event records — which downstream
//! text tooling can consume directly.
//!
//! [`write_container`] wraps the same trace content in a sectioned
//! container where every section carries a CRC32 of its payload, so a
//! flipped bit on disk is detected at the section that holds it instead
//! of surfacing as a confusing structural decode error — and so
//! [`GlobalTrace::decode_salvage`](crate::decode) can recover every rank
//! whose sections still checksum clean.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

use mpi_sim::FuncId;
use pilgrim_sequitur::{write_varint, DecodeError};

use crate::cst::SigStats;
use crate::decode::decode_term_call;
use crate::encode::{EncodedArg, RankCode};
use crate::frame::crc32;
use crate::layout::tmp_container;
use crate::trace::{GlobalTrace, RankStatus, RANK_MAP_NONE};

fn fmt_rank(code: RankCode) -> String {
    match code {
        RankCode::Relative(d) => format!("rel({d:+})"),
        RankCode::Absolute(r) => format!("{r}"),
        RankCode::AnySource => "ANY_SOURCE".into(),
        RankCode::ProcNull => "PROC_NULL".into(),
    }
}

/// Formats one decoded argument in the export's compact notation
/// (`rel(+1)`, `comm=2`, `buf=seg5+128`, …). Shared with `trace_tool`'s
/// JSON slice output so both surfaces print arguments identically.
pub fn format_arg(arg: &EncodedArg) -> String {
    match arg {
        EncodedArg::Int(v) => format!("{v}"),
        EncodedArg::Rank(c) => fmt_rank(*c),
        EncodedArg::Tag(t) => format!("tag={t}"),
        EncodedArg::Comm(c) => {
            if *c == u64::MAX {
                "comm=UNDEFINED".into()
            } else if *c == u64::MAX - 2 {
                "comm=<deferred>".into()
            } else {
                format!("comm={c}")
            }
        }
        EncodedArg::Datatype(d) => format!("dtype={d}"),
        EncodedArg::Op(o) => format!("op={o}"),
        EncodedArg::Group(g) => format!("group={g}"),
        EncodedArg::Request(r) => {
            if *r == u64::MAX {
                "req=NULL".into()
            } else {
                format!("req={r}")
            }
        }
        EncodedArg::RequestArr(v) => {
            let items: Vec<String> =
                v.iter().map(|r| r.map_or("NULL".into(), |x| x.to_string())).collect();
            format!("reqs=[{}]", items.join(","))
        }
        EncodedArg::Ptr { segment, offset } => format!("buf=seg{segment}+{offset}"),
        EncodedArg::Status { source, tag } => {
            format!("status=({},{})", fmt_rank(*source), tag)
        }
        EncodedArg::StatusArr(v) => {
            let items: Vec<String> =
                v.iter().map(|(s, t)| format!("({},{t})", fmt_rank(*s))).collect();
            format!("statuses=[{}]", items.join(","))
        }
        EncodedArg::IntArr(v) => format!("{v:?}"),
        EncodedArg::Color(c) => format!("color={c}"),
        EncodedArg::Key(k) => format!("key={k}"),
        EncodedArg::Str(s) => format!("{s:?}"),
    }
}

/// One definition-table entry per CST signature: `(terminal, "Name(args)",
/// stats)`. A signature whose bytes do not decode is the same
/// [`DecodeError::BadSignature`] the call decoder reports.
fn definitions(
    trace: &GlobalTrace,
) -> impl Iterator<Item = Result<(u32, String, SigStats), DecodeError>> + '_ {
    trace.cst.iter().map(move |(term, _, stats)| {
        let call = decode_term_call(trace, term)?;
        let name = FuncId::from_id(call.func).map_or("MPI_<unknown>", |f| f.name());
        let args: Vec<String> = call.args.iter().map(format_arg).collect();
        Ok((term, format!("{name}({})", args.join(", ")), stats))
    })
}

/// Streams the whole trace as text into `out`: a `DEF` section mapping
/// signature ids to decoded calls, then one `EVT <rank> <signature-id>`
/// line per call, straight off [`GlobalTrace::rank_terms`] — O(grammar
/// depth) memory however long the trace. Event bodies live in the
/// definition table, so the export stays compact for repetitive traces.
/// An undecodable signature surfaces as an `InvalidData` error wrapping
/// [`DecodeError::BadSignature`]. Hand it a buffered writer.
pub fn write_text(trace: &GlobalTrace, out: &mut impl io::Write) -> io::Result<()> {
    writeln!(out, "# pilgrim trace export (OTF-style text)")?;
    writeln!(out, "# ranks {}", trace.nranks)?;
    writeln!(out, "# calls {}", trace.total_calls())?;
    writeln!(out, "# signatures {}", trace.cst.len())?;
    for def in definitions(trace) {
        let (term, call, stats) = def?;
        writeln!(
            out,
            "DEF {term} {call} count={} avg_ns={:.0}",
            stats.count,
            stats.avg_duration()
        )?;
    }
    for rank in 0..trace.nranks {
        for term in trace.rank_terms(rank) {
            writeln!(out, "EVT {rank} {term}")?;
        }
    }
    Ok(())
}

/// [`write_text`] into a `String`: O(calls) memory by contract.
pub fn to_text(trace: &GlobalTrace) -> io::Result<String> {
    let mut out = Vec::new();
    write_text(trace, &mut out)?;
    String::from_utf8(out).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Exports only the definitions (the per-signature view of the program).
pub fn to_signature_listing(trace: &GlobalTrace) -> Result<String, DecodeError> {
    let mut out = String::new();
    for def in definitions(trace) {
        let (term, call, stats) = def?;
        let _ = writeln!(out, "{term:>6}  {call}  x{}", stats.count);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The PGC1 checksummed container.
// ---------------------------------------------------------------------

/// Magic prefix identifying the checksummed container format.
pub const CONTAINER_MAGIC: [u8; 4] = *b"PGC1";
/// Container format version written after the magic.
pub const CONTAINER_VERSION: u8 = 1;

/// Section kinds, in their mandatory on-disk order: META, CST, GRAMMAR,
/// one DURATION section per duration grammar, one INTERVAL section per
/// interval grammar, then one RANK section per rank.
pub(crate) const SEC_META: u8 = 1;
pub(crate) const SEC_CST: u8 = 2;
pub(crate) const SEC_GRAMMAR: u8 = 3;
pub(crate) const SEC_DURATION: u8 = 4;
pub(crate) const SEC_INTERVAL: u8 = 5;
pub(crate) const SEC_RANK: u8 = 6;
/// Optional trailing section: the `PGND` nondeterminism log of a
/// record/replay recording ([`crate::NondetLog`]). Absent from ordinary
/// traces, so pre-existing containers decode unchanged.
pub(crate) const SEC_NONDET: u8 = 7;

/// Human-readable section name, used in checksum error reports.
pub(crate) fn section_name(kind: u8) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_CST => "cst",
        SEC_GRAMMAR => "grammar",
        SEC_DURATION => "duration",
        SEC_INTERVAL => "interval",
        SEC_RANK => "rank",
        SEC_NONDET => "nondet",
        _ => "unknown",
    }
}

/// True when `buf` starts with the container magic (regardless of
/// version). Lets tools sniff container vs. legacy flat traces.
pub fn is_container(buf: &[u8]) -> bool {
    buf.len() >= CONTAINER_MAGIC.len() && buf[..CONTAINER_MAGIC.len()] == CONTAINER_MAGIC
}

fn push_section(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// A timing rank-map entry in its on-disk +1 form (0 = no grammar, which
/// also covers traces whose maps are empty because timing is aggregated).
fn map_entry(map: &[u32], rank: usize) -> u64 {
    match map.get(rank) {
        Some(&m) if m != RANK_MAP_NONE => m as u64 + 1,
        _ => 0,
    }
}

/// Serializes a trace into the `PGC1` container: magic + version, then a
/// sequence of `(kind, length, payload, CRC32)` sections. Content is
/// identical to [`GlobalTrace::serialize`] but regrouped so each
/// independently recoverable piece — the merged CST, the call grammar,
/// each timing grammar, and each rank's metadata — is checksummed on its
/// own. Decode with [`GlobalTrace::decode_container`] (strict) or
/// [`GlobalTrace::decode_salvage`] (best effort).
pub fn write_container(trace: &GlobalTrace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CONTAINER_MAGIC);
    out.push(CONTAINER_VERSION);

    let mut payload = Vec::new();
    payload.push(trace.encoder_cfg.to_byte());
    write_varint(&mut payload, trace.nranks as u64);
    write_varint(&mut payload, trace.unique_grammars as u64);
    write_varint(&mut payload, trace.duration_grammars.len() as u64);
    write_varint(&mut payload, trace.interval_grammars.len() as u64);
    push_section(&mut out, SEC_META, &payload);

    payload.clear();
    trace.cst.serialize(&mut payload);
    push_section(&mut out, SEC_CST, &payload);

    payload.clear();
    trace.grammar.serialize(&mut payload);
    push_section(&mut out, SEC_GRAMMAR, &payload);

    for (kind, grammars) in
        [(SEC_DURATION, &trace.duration_grammars), (SEC_INTERVAL, &trace.interval_grammars)]
    {
        for g in grammars {
            payload.clear();
            g.serialize(&mut payload);
            push_section(&mut out, kind, &payload);
        }
    }

    for rank in 0..trace.nranks {
        payload.clear();
        write_varint(&mut payload, trace.rank_lengths.get(rank).copied().unwrap_or(0));
        write_varint(&mut payload, map_entry(&trace.duration_rank_map, rank));
        write_varint(&mut payload, map_entry(&trace.interval_rank_map, rank));
        match trace.completeness.status(rank) {
            RankStatus::Merged => write_varint(&mut payload, 0),
            RankStatus::Lost { round } => {
                write_varint(&mut payload, 1);
                write_varint(&mut payload, round as u64);
            }
            RankStatus::Checkpoint { calls } => {
                write_varint(&mut payload, 2);
                write_varint(&mut payload, calls);
            }
            RankStatus::Salvaged { calls } => {
                write_varint(&mut payload, 3);
                write_varint(&mut payload, calls);
            }
        }
        let events: Vec<_> = trace.completeness.events_for(rank).collect();
        write_varint(&mut payload, events.len() as u64);
        for e in events {
            e.serialize(&mut payload);
        }
        push_section(&mut out, SEC_RANK, &payload);
    }

    if let Some(nondet) = &trace.nondet {
        payload.clear();
        nondet.serialize(&mut payload);
        push_section(&mut out, SEC_NONDET, &payload);
    }
    out
}

/// The one crash-safe container write: temporary file, `sync_all`,
/// atomic rename. A crash mid-write leaves either the previous container
/// or a `.tmp` orphan — never a torn file at the final path. With `tear`
/// a fault plan simulates exactly that crash: half the bytes land in the
/// `.tmp`, the rename never happens, and the orphan is left for
/// recovery's salvage path.
pub(crate) fn persist_container(path: &Path, bytes: &[u8], tear: bool) -> std::io::Result<()> {
    let tmp = tmp_container(path);
    {
        let mut f = File::create(&tmp)?;
        if tear {
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected short write mid-spill",
            ));
        }
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::PilgrimTracer;
    use mpi_sim::datatype::BasicType;
    use mpi_sim::{World, WorldConfig};

    fn sample_trace() -> GlobalTrace {
        let mut tracers = World::run(&WorldConfig::new(2), PilgrimTracer::with_defaults, |env| {
            let me = env.world_rank();
            let world = env.comm_world();
            let dt = env.basic(BasicType::LongLong);
            let buf = env.malloc(8);
            for _ in 0..5 {
                if me == 0 {
                    env.send(buf, 1, dt, 1, 9, world);
                } else {
                    env.recv(buf, 1, dt, 0, 9, world);
                }
                env.barrier(world);
            }
        });
        tracers[0].take_output().trace.unwrap()
    }

    #[test]
    fn export_contains_defs_and_events() {
        let trace = sample_trace();
        let text = to_text(&trace).expect("every signature decodes");
        assert!(text.contains("DEF"));
        assert!(text.contains("MPI_Send"));
        assert!(text.contains("MPI_Recv"));
        assert!(text.contains("MPI_Barrier"));
        assert!(text.contains("tag=9"));
        // One EVT line per call.
        let evts = text.lines().filter(|l| l.starts_with("EVT ")).count() as u64;
        assert_eq!(evts, trace.rank_lengths.iter().sum::<u64>());
    }

    #[test]
    fn events_reference_defined_signatures() {
        let trace = sample_trace();
        let text = to_text(&trace).expect("every signature decodes");
        let defs: std::collections::HashSet<&str> = text
            .lines()
            .filter(|l| l.starts_with("DEF "))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        for l in text.lines().filter(|l| l.starts_with("EVT ")) {
            let term = l.split_whitespace().nth(2).unwrap();
            assert!(defs.contains(term), "event references undefined signature {term}");
        }
    }

    #[test]
    fn signature_listing_is_compact() {
        let trace = sample_trace();
        let listing = to_signature_listing(&trace).expect("every signature decodes");
        assert_eq!(listing.lines().count(), trace.cst.len());
        assert!(listing.contains("x5"), "counts are shown");
    }

    #[test]
    fn undecodable_signature_is_an_error_not_a_panic() {
        // A CST holding `ff ff ff` as its first signature: the container
        // decodes and validates — signatures are opaque bytes to both — so
        // every reader that parses them has to report it, not assume it.
        let mut trace = sample_trace();
        let mut cst = crate::cst::Cst::new();
        for (term, sig, stats) in trace.cst.iter() {
            cst.intern(if term == 0 { &[0xff; 3] } else { sig }, stats);
        }
        trace.cst = cst;
        let trace = GlobalTrace::decode_auto(&write_container(&trace)).expect("decodes");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        let bad = DecodeError::BadSignature { term: 0 };
        assert_eq!(crate::decode::decode_rank_calls(&trace, 0), Err(bad));
        assert_eq!(to_signature_listing(&trace), Err(bad));
        let err = to_text(&trace).expect_err("DEF 0 cannot be written");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), bad.to_string());
    }

    #[test]
    fn container_starts_with_magic_and_sniffs() {
        let trace = sample_trace();
        let bytes = write_container(&trace);
        assert!(is_container(&bytes));
        assert_eq!(&bytes[..4], b"PGC1");
        assert_eq!(bytes[4], CONTAINER_VERSION);
        // The legacy flat serialization is not mistaken for a container.
        assert!(!is_container(&trace.serialize()));
        assert!(!is_container(b"PG"));
    }

    #[test]
    fn container_sections_appear_in_order() {
        let trace = sample_trace();
        let bytes = write_container(&trace);
        // Walk the framing by hand: kind, payload-length varint, payload,
        // 4-byte CRC — and collect the kinds.
        let mut pos = 5;
        let mut kinds = Vec::new();
        while pos < bytes.len() {
            kinds.push(bytes[pos]);
            pos += 1;
            let mut len = 0u64;
            let mut shift = 0;
            loop {
                let b = bytes[pos];
                pos += 1;
                len |= u64::from(b & 0x7F) << shift;
                shift += 7;
                if b & 0x80 == 0 {
                    break;
                }
            }
            let payload = &bytes[pos..pos + len as usize];
            pos += len as usize;
            let stored =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            assert_eq!(crc32(payload), stored, "section checksum is valid as written");
            pos += 4;
        }
        let mut expect = vec![SEC_META, SEC_CST, SEC_GRAMMAR];
        expect.extend(std::iter::repeat_n(SEC_DURATION, trace.duration_grammars.len()));
        expect.extend(std::iter::repeat_n(SEC_INTERVAL, trace.interval_grammars.len()));
        expect.extend(std::iter::repeat_n(SEC_RANK, trace.nranks));
        assert_eq!(kinds, expect);
    }
}
