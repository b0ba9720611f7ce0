//! The nondeterminism side-channel behind deterministic record/replay
//! (`PGND`).
//!
//! A compressed trace pins down *what* every rank did, but not the
//! choices the MPI runtime made freely along the way: which sender an
//! `ANY_SOURCE` receive matched, which index a `Waitany` completed,
//! whether an `Iprobe` or `Test` saw its flag raised. [`NondetLog`]
//! records exactly those resolutions — one [`NondetEvent`] per
//! `(rank, call_index)` — so a replay can feed them back through
//! [`mpi_sim::ReplayDirector`] and reproduce the recorded schedule
//! bit-for-bit.
//!
//! The log travels as the `PGND` section of the `PGC1` container
//! (varint/zigzag entries, delta-coded call indices, CRC'd like every
//! other section; see DESIGN.md §9). Because the trace itself stores the
//! *outcome* of every call (statuses, completion indices, flags),
//! [`NondetLog::derive`] can recompute the log from a decoded trace
//! alone — the pure replay oracle that strict replay and the minimizer
//! use to detect divergence without re-executing anything.
//!
//! Match sources are stored as deltas relative to the receive's caller
//! rank in its communicator — the same relative form the signature
//! encoder uses for status ranks — so deriving them from decoded
//! `RankCode::Relative` statuses needs no communicator-membership
//! reconstruction. (Traces encoded with `relative_ranks` disabled fall
//! back to assuming the caller's communicator rank equals its world
//! rank, which holds for `MPI_COMM_WORLD` and its duplicates.)

use std::collections::{BTreeMap, HashMap, VecDeque};

use mpi_sim::funcs::{ArgView, Form, Shape};
use mpi_sim::{Directive, FuncId};
use pilgrim_sequitur::{read_varint, write_varint, DecodeError};

use crate::decode::decode_rank_calls;
use crate::encode::{unzigzag, zigzag, EncodedArg, EncodedCall};
use crate::trace::GlobalTrace;

/// One recorded nondeterministic resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NondetEvent {
    /// A wildcard receive or probe matched `(source, tag)`. `source` is
    /// a delta relative to the receive's caller rank in its
    /// communicator; `tag` is absolute. For a wildcard `Irecv` the event
    /// is keyed at the *irecv's* call index (where replay must pin the
    /// posting), not at the completion call that revealed the match.
    Match { source: i32, tag: i32 },
    /// An `MPI_Iprobe` outcome: `Some((source_delta, tag))` for a hit,
    /// `None` for a miss. Recorded for every iprobe — the flag is
    /// nondeterministic even for concrete `(source, tag)`.
    Iprobe { hit: Option<(i32, i32)> },
    /// Waitany/Testany completion index (`None`: nothing completed).
    AnyOf { index: Option<u32> },
    /// Waitsome/Testsome completion set, in completion order.
    SomeOf { indices: Vec<u32> },
    /// Test/Testall flag outcome.
    Flag { flag: bool },
}

impl NondetEvent {
    /// The replay directive this event pins down.
    pub fn directive(&self) -> Directive {
        match self {
            NondetEvent::Match { source, tag } => {
                Directive::MatchSource { source: *source, tag: *tag }
            }
            NondetEvent::Iprobe { hit: Some((source, tag)) } => {
                Directive::MatchSource { source: *source, tag: *tag }
            }
            NondetEvent::Iprobe { hit: None } => Directive::Flag(false),
            NondetEvent::AnyOf { index } => Directive::CompleteOne { index: *index },
            NondetEvent::SomeOf { indices } => Directive::CompleteSet { indices: indices.clone() },
            NondetEvent::Flag { flag } => Directive::Flag(*flag),
        }
    }
}

// Wire kinds for the PGND entry payloads.
const K_MATCH: u8 = 0;
const K_IPROBE_MISS: u8 = 1;
const K_IPROBE_HIT: u8 = 2;
const K_ANY_NONE: u8 = 3;
const K_ANY_SOME: u8 = 4;
const K_SOME: u8 = 5;
const K_FLAG_FALSE: u8 = 6;
const K_FLAG_TRUE: u8 = 7;

/// Per-rank map of call index → recorded resolution. The side-channel a
/// recording ships alongside the compressed trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NondetLog {
    /// `ranks[r]` holds rank `r`'s events keyed by 0-based call index.
    pub ranks: Vec<BTreeMap<u64, NondetEvent>>,
}

impl NondetLog {
    /// An empty log for `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        NondetLog { ranks: vec![BTreeMap::new(); nranks] }
    }

    /// Total recorded events across all ranks.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(|r| r.len()).sum()
    }

    /// Whether no rank recorded any event.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.is_empty())
    }

    /// Records `event` for `(rank, call_index)`.
    pub fn insert(&mut self, rank: usize, call_index: u64, event: NondetEvent) {
        if let Some(map) = self.ranks.get_mut(rank) {
            map.insert(call_index, event);
        }
    }

    /// One rank's events as replay directives, keyed by call index.
    pub fn directives(&self, rank: usize) -> HashMap<u64, Directive> {
        self.ranks
            .get(rank)
            .map(|m| m.iter().map(|(&i, e)| (i, e.directive())).collect())
            .unwrap_or_default()
    }

    /// Appends the `PGND` payload (excluding the section header/CRC,
    /// which [`crate::export::write_container`] adds).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.ranks.len() as u64);
        for rank in &self.ranks {
            write_varint(out, rank.len() as u64);
            let mut prev = 0u64;
            for (&idx, ev) in rank {
                // BTreeMap iterates ascending, so deltas stay small.
                write_varint(out, idx - prev);
                prev = idx;
                match ev {
                    NondetEvent::Match { source, tag } => {
                        out.push(K_MATCH);
                        write_varint(out, zigzag(*source as i64));
                        write_varint(out, zigzag(*tag as i64));
                    }
                    NondetEvent::Iprobe { hit: None } => out.push(K_IPROBE_MISS),
                    NondetEvent::Iprobe { hit: Some((source, tag)) } => {
                        out.push(K_IPROBE_HIT);
                        write_varint(out, zigzag(*source as i64));
                        write_varint(out, zigzag(*tag as i64));
                    }
                    NondetEvent::AnyOf { index: None } => out.push(K_ANY_NONE),
                    NondetEvent::AnyOf { index: Some(i) } => {
                        out.push(K_ANY_SOME);
                        write_varint(out, *i as u64);
                    }
                    NondetEvent::SomeOf { indices } => {
                        out.push(K_SOME);
                        write_varint(out, indices.len() as u64);
                        for &i in indices {
                            write_varint(out, i as u64);
                        }
                    }
                    NondetEvent::Flag { flag: false } => out.push(K_FLAG_FALSE),
                    NondetEvent::Flag { flag: true } => out.push(K_FLAG_TRUE),
                }
            }
        }
    }

    /// Decodes a `PGND` payload. Corruption surfaces as a typed
    /// [`DecodeError`], never a panic or an unbounded allocation.
    pub fn decode(buf: &[u8]) -> Result<NondetLog, DecodeError> {
        let mut pos = 0usize;
        let uv = |pos: &mut usize| -> Result<u64, DecodeError> {
            let at = *pos;
            read_varint(buf, pos).ok_or(DecodeError::TruncatedVarint { offset: at })
        };
        let nranks = uv(&mut pos)?;
        // Every rank costs at least one byte (its entry count).
        if nranks > (buf.len() - pos) as u64 {
            return Err(DecodeError::Corrupt { what: "nondet rank count", offset: 0 });
        }
        let mut ranks = Vec::with_capacity(nranks as usize);
        for _ in 0..nranks {
            let n = uv(&mut pos)?;
            // Every entry costs at least two bytes (index delta + kind).
            if n > ((buf.len() - pos) / 2) as u64 {
                return Err(DecodeError::Corrupt { what: "nondet entry count", offset: pos });
            }
            let mut map = BTreeMap::new();
            let mut idx = 0u64;
            for k in 0..n {
                let delta = uv(&mut pos)?;
                idx = idx.wrapping_add(delta);
                if k > 0 && delta == 0 {
                    return Err(DecodeError::Corrupt {
                        what: "nondet duplicate call index",
                        offset: pos,
                    });
                }
                let at = pos;
                let kind = *buf
                    .get(pos)
                    .ok_or(DecodeError::Truncated { what: "nondet entry kind", offset: at })?;
                pos += 1;
                let ev = match kind {
                    K_MATCH | K_IPROBE_HIT => {
                        let source = unzigzag(uv(&mut pos)?) as i32;
                        let tag = unzigzag(uv(&mut pos)?) as i32;
                        if kind == K_MATCH {
                            NondetEvent::Match { source, tag }
                        } else {
                            NondetEvent::Iprobe { hit: Some((source, tag)) }
                        }
                    }
                    K_IPROBE_MISS => NondetEvent::Iprobe { hit: None },
                    K_ANY_NONE => NondetEvent::AnyOf { index: None },
                    K_ANY_SOME => NondetEvent::AnyOf { index: Some(uv(&mut pos)? as u32) },
                    K_SOME => {
                        let len = uv(&mut pos)?;
                        if len > (buf.len() - pos) as u64 {
                            return Err(DecodeError::Corrupt {
                                what: "nondet completion-set length",
                                offset: pos,
                            });
                        }
                        let mut indices = Vec::with_capacity(len as usize);
                        for _ in 0..len {
                            indices.push(uv(&mut pos)? as u32);
                        }
                        NondetEvent::SomeOf { indices }
                    }
                    K_FLAG_FALSE => NondetEvent::Flag { flag: false },
                    K_FLAG_TRUE => NondetEvent::Flag { flag: true },
                    _ => {
                        return Err(DecodeError::Corrupt { what: "nondet entry kind", offset: at })
                    }
                };
                map.insert(idx, ev);
            }
            ranks.push(map);
        }
        if pos != buf.len() {
            return Err(DecodeError::TrailingBytes { consumed: pos, len: buf.len() });
        }
        Ok(NondetLog { ranks })
    }

    /// Recomputes the nondeterminism log a recording *should* contain
    /// from the decoded trace alone — the statuses, completion indices
    /// and flags stored in the call signatures pin down every resolution
    /// the runtime made. Comparing the derived log against the recorded
    /// one is a pure divergence oracle: no re-execution, no timeouts.
    pub fn derive(trace: &GlobalTrace) -> Result<NondetLog, DecodeError> {
        let mut ranks = Vec::with_capacity(trace.nranks);
        for rank in 0..trace.nranks {
            let calls = decode_rank_calls(trace, rank)?;
            ranks.push(derive_rank_events(rank as i64, &calls));
        }
        Ok(NondetLog { ranks })
    }
}

/// The event a call records at its own index, read off its arguments: what
/// a wildcard receive or probe matched, what an `Iprobe` saw, which of its
/// requests a `Wait*` / `Test*` picked. `base` is the rank a resolved
/// source is a delta from. One reading for the recorder's raw arguments
/// and the deriver's decoded ones — what each does about the *requests*
/// those calls create and complete is its own.
pub(crate) fn call_event<A: ArgView>(shape: &Shape, args: &[A], base: i64) -> Option<NondetEvent> {
    let matched = || shape.outcome(args).and_then(|status| A::relative_to(status, base));
    if shape.recv.is_some() {
        // An iprobe's flag is nondeterministic even for a concrete
        // `(source, tag)`, so it is recorded every time. An `Irecv` returns
        // no status: its match is reported when its request completes.
        return match shape.flag {
            Some(_) => Some(NondetEvent::Iprobe { hit: matched() }),
            None if shape.is_wildcard(args) => {
                matched().map(|(source, tag)| NondetEvent::Match { source, tag })
            }
            None => None,
        };
    }
    let completion = shape.completes?;
    let index = completion.index.and_then(|at| args.get(at as usize));
    match completion.form {
        Form::Any => {
            let picked = index.and_then(A::int).filter(|&v| v >= 0 && shape.flagged(args));
            Some(NondetEvent::AnyOf { index: picked.map(|v| v as u32) })
        }
        Form::Some => {
            let indices = index.and_then(A::ints).unwrap_or(&[]).iter().map(|&v| v as u32);
            Some(NondetEvent::SomeOf { indices: indices.collect() })
        }
        Form::One | Form::All => {
            shape.flag.map(|_| NondetEvent::Flag { flag: shape.flagged(args) })
        }
    }
}

/// The match a completed wildcard `Irecv` resolved to, from the status its
/// completion returned.
pub(crate) fn resolved_match<A: ArgView>(
    status: Option<A::Status>,
    base: i64,
) -> Option<NondetEvent> {
    let (source, tag) = A::relative_to(status?, base)?;
    Some(NondetEvent::Match { source, tag })
}

/// Derive-side request bookkeeping: one entry per live request symbol
/// use, FIFO per symbol (mirroring [`crate::replay::Replayer`]'s handle
/// pools and the tracer's id pool reuse order).
struct DReq {
    /// `Some(call_index)` when created by a wildcard `Irecv` whose match
    /// resolution is still unreported.
    wildcard: Option<u64>,
    /// Persistent requests survive completion until `MPI_Request_free`.
    persistent: bool,
}

/// Extracts one rank's events from its decoded call sequence — the
/// minimizer's pure oracle evaluates candidate call subsets with it without
/// rebuilding a trace. A resolved `Absolute` source (a trace encoded
/// without relative ranks) is taken against `world_rank`, see the module
/// docs.
pub(crate) fn derive_rank_events(
    world_rank: i64,
    calls: &[EncodedCall],
) -> BTreeMap<u64, NondetEvent> {
    let mut out = BTreeMap::new();
    let mut fifo: HashMap<u64, VecDeque<DReq>> = HashMap::new();
    for (idx, call) in (0u64..).zip(calls) {
        let Some(shape) = FuncId::from_id(call.func).map(FuncId::shape) else { continue };
        if let Some(event) = call_event(shape, &call.args, world_rank) {
            out.insert(idx, event);
        }
        if let Some(sym) = shape.created(&call.args) {
            let wildcard = shape.is_wildcard(&call.args).then_some(idx);
            let persistent = shape.creates.is_some_and(|c| c.persistent);
            fifo.entry(sym).or_default().push_back(DReq { wildcard, persistent });
        }
        // Pop the completed symbol's oldest live entry and, if it was a
        // wildcard irecv, report the match it resolved to at the irecv's
        // index.
        let frees = shape.completes.is_some_and(|c| c.frees);
        for done in shape.completed(&call.args) {
            let Some(queue) = fifo.get_mut(&done.request) else { continue };
            if !frees && queue.front().is_none_or(|entry| entry.persistent) {
                continue;
            }
            let wildcard = queue.pop_front().and_then(|entry| entry.wildcard);
            let resolved = resolved_match::<EncodedArg>(done.status, world_rank);
            if let (Some(irecv_idx), Some(event)) = (wildcard, resolved) {
                out.insert(irecv_idx, event);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> NondetLog {
        let mut log = NondetLog::new(3);
        log.insert(0, 4, NondetEvent::Match { source: 2, tag: 7 });
        log.insert(0, 9, NondetEvent::Iprobe { hit: None });
        log.insert(0, 11, NondetEvent::Iprobe { hit: Some((-3, 0)) });
        log.insert(1, 0, NondetEvent::AnyOf { index: Some(5) });
        log.insert(1, 1, NondetEvent::AnyOf { index: None });
        log.insert(1, 2, NondetEvent::SomeOf { indices: vec![3, 1, 2] });
        log.insert(2, 100, NondetEvent::Flag { flag: true });
        log.insert(2, 101, NondetEvent::Flag { flag: false });
        log
    }

    #[test]
    fn roundtrip() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.serialize(&mut buf);
        let back = NondetLog::decode(&buf).expect("roundtrip decodes");
        assert_eq!(log, back);
    }

    #[test]
    fn empty_roundtrip() {
        let log = NondetLog::new(4);
        let mut buf = Vec::new();
        log.serialize(&mut buf);
        assert_eq!(NondetLog::decode(&buf).expect("empty decodes"), log);
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn truncations_and_flips_never_panic() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.serialize(&mut buf);
        for cut in 0..buf.len() {
            let _ = NondetLog::decode(&buf[..cut]);
        }
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut dam = buf.clone();
                dam[i] ^= 1 << bit;
                let _ = NondetLog::decode(&dam);
            }
        }
    }

    #[test]
    fn directives_map_events() {
        let log = sample_log();
        let d = log.directives(0);
        assert_eq!(d.get(&4), Some(&Directive::MatchSource { source: 2, tag: 7 }));
        assert_eq!(d.get(&9), Some(&Directive::Flag(false)));
        assert_eq!(d.get(&11), Some(&Directive::MatchSource { source: -3, tag: 0 }));
        let d1 = log.directives(1);
        assert_eq!(d1.get(&0), Some(&Directive::CompleteOne { index: Some(5) }));
        assert_eq!(d1.get(&2), Some(&Directive::CompleteSet { indices: vec![3, 1, 2] }));
    }
}
