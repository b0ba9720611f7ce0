//! The streaming merge: the collector folds grammar segments into one
//! merged state *as they arrive* and renumbers canonically at finalize, so
//! the result is byte-identical to what the finalize-time tree computes
//! from the same ranks. Everything past "which terminal is which" is the
//! shared core in [`super`].

use std::collections::HashMap;

use pilgrim_sequitur::{decode_varint, write_varint, DecodeError, FlatGrammar};

use super::{add_grammar, renumber, EventList, GrammarSet, Merged, RankGrammars, RankSegments};
use crate::checkpoint::decode_checkpoint;
use crate::cst::Cst;
use crate::encode::EncoderConfig;
use crate::governor::DegradationEvent;
use crate::trace::{GlobalTrace, RankStatus};

/// One grammar segment streamed out of a rank: either a governor-sealed
/// segment pushed mid-run or the final (live) segment pushed at
/// finalize. `bytes` is the checkpoint codec payload (call count,
/// segment CST, segment grammar — see [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    pub rank: usize,
    /// Per-rank stream sequence number, starting at 0 and gap-free.
    pub seq: u32,
    /// True for governor-sealed segments, false for the final segment.
    pub sealed: bool,
    /// [`crate::checkpoint::encode_checkpoint`] bytes.
    pub bytes: Vec<u8>,
}

/// A rank's end-of-stream marker: everything the batch merge learns from
/// a [`LocalPiece`] besides the grammar segments themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCompletion {
    pub rank: usize,
    /// Total traced calls across every segment.
    pub call_count: u64,
    /// How many segments the rank pushed before completing. The merger
    /// cross-checks this against what actually arrived, so a segment
    /// dropped in flight (or quarantined by the collector) surfaces as a
    /// [`SegmentError::MissingSegments`] instead of a silently short
    /// trace.
    pub segments: u32,
    /// Per-call duration grammar (bin ids, not CST terminals).
    pub duration: Option<FlatGrammar>,
    /// Per-call interval grammar (bin ids, not CST terminals).
    pub interval: Option<FlatGrammar>,
    pub encoder_cfg: EncoderConfig,
    /// Degradation events the rank's governor recorded while tracing.
    pub events: Vec<DegradationEvent>,
}

impl RankCompletion {
    /// Serializes the completion for the ingest write-ahead log.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.rank as u64);
        write_varint(out, self.call_count);
        write_varint(out, self.segments as u64);
        out.push(self.encoder_cfg.to_byte());
        let flags = u8::from(self.duration.is_some()) | (u8::from(self.interval.is_some()) << 1);
        out.push(flags);
        if let Some(d) = &self.duration {
            d.serialize(out);
        }
        if let Some(i) = &self.interval {
            i.serialize(out);
        }
        write_varint(out, self.events.len() as u64);
        for ev in &self.events {
            ev.serialize(out);
        }
    }

    /// Decodes a completion written by [`RankCompletion::serialize`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<RankCompletion, DecodeError> {
        let rank = decode_varint(buf, pos)? as usize;
        let call_count = decode_varint(buf, pos)?;
        let segments = decode_varint(buf, pos)? as u32;
        let cfg_off = *pos;
        let encoder_cfg = EncoderConfig::from_byte(
            *buf.get(*pos)
                .ok_or(DecodeError::Truncated { what: "encoder cfg", offset: cfg_off })?,
        );
        *pos += 1;
        let flags_off = *pos;
        let flags = *buf
            .get(*pos)
            .ok_or(DecodeError::Truncated { what: "completion flags", offset: flags_off })?;
        *pos += 1;
        if flags & !0b11 != 0 {
            return Err(DecodeError::Corrupt { what: "completion flags", offset: flags_off });
        }
        let mut grammar_at = |present: bool| -> Result<Option<FlatGrammar>, DecodeError> {
            if !present {
                return Ok(None);
            }
            let (g, used) = FlatGrammar::decode(&buf[*pos..]).map_err(|e| e.offset_by(*pos))?;
            *pos += used;
            Ok(Some(g))
        };
        let duration = grammar_at(flags & 1 != 0)?;
        let interval = grammar_at(flags & 2 != 0)?;
        let n_off = *pos;
        let n = decode_varint(buf, pos)? as usize;
        if n > buf.len().saturating_sub(*pos) / 4 + 1 {
            return Err(DecodeError::Corrupt { what: "completion event count", offset: n_off });
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(DegradationEvent::decode(buf, pos)?);
        }
        Ok(RankCompletion { rank, call_count, segments, duration, interval, encoder_cfg, events })
    }
}

/// Why the incremental merger rejected a stream message. Rejections are
/// per-message: the collector's merged state is untouched and the job's
/// other ranks are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The segment payload did not decode as a checkpoint.
    Decode(DecodeError),
    /// The rank id is outside the job's world.
    UnknownRank { rank: usize, nranks: usize },
    /// A segment arrived out of sequence for its rank (segments within
    /// one rank must be in order; ranks may interleave freely).
    OutOfOrder { rank: usize, expected: u32, got: u32 },
    /// The rank already completed; no further messages are accepted.
    RankComplete { rank: usize },
    /// The rank's completion declared more segments than arrived — some
    /// were dropped in flight or quarantined. The rank is left open so
    /// the job degrades (the rank reports as lost) instead of merging a
    /// silently short trace.
    MissingSegments { rank: usize, declared: u32, arrived: u32 },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Decode(e) => write!(f, "segment payload did not decode: {e}"),
            SegmentError::UnknownRank { rank, nranks } => {
                write!(f, "rank {rank} outside world of {nranks} ranks")
            }
            SegmentError::OutOfOrder { rank, expected, got } => {
                write!(f, "rank {rank} sent segment {got}, expected {expected}")
            }
            SegmentError::RankComplete { rank } => {
                write!(f, "rank {rank} already completed its stream")
            }
            SegmentError::MissingSegments { rank, declared, arrived } => {
                write!(f, "rank {rank} declared {declared} segments but {arrived} arrived")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Streaming counterpart of the batch binomial merge.
///
/// Segments are folded into one shared CST *as they arrive*, in any
/// interleaving across ranks, so the collector holds a single merged
/// state instead of P full pieces. Arrival order would normally leak
/// into terminal numbering; the merger therefore tags every terminal
/// with the smallest `(rank, seq, index)` that produced it and
/// renumbers canonically at [`IncrementalMerger::finalize`] — the
/// result is byte-identical to what the batch merge computes from the
/// same ranks (the batch gather interns CSTs in ascending-rank scan
/// order, which is exactly the sorted key order).
///
/// Grammar identity checks run in arrival-terminal space; that is sound
/// because the canonical renumbering is a bijection applied uniformly,
/// so two grammars are equal before the renumbering iff they are equal
/// after it. Timing grammars encode bin ids, never CST terminals, and
/// are never remapped — same as the batch path.
#[derive(Debug)]
pub struct IncrementalMerger {
    /// Shared CST in arrival order.
    cst: Cst,
    /// Per arrival-order terminal: the minimum `(rank, seq, index)` key.
    keys: Vec<(u32, u32, u32)>,
    /// Ranks whose streams are still open: their segments so far, in
    /// sequence order and arrival-terminal space.
    open: HashMap<usize, RankSegments>,
    /// Closed ranks, in arrival-terminal space. A rank is open until it
    /// completes (`Merged`) or is salvaged (`Checkpoint`).
    ranks: RankGrammars,
    dur_set: GrammarSet,
    int_set: GrammarSet,
    events: EventList,
    /// Lowest-completed-rank encoder config (the batch merge uses rank
    /// 0's piece; rank 0 is the lowest rank that can complete).
    encoder_cfg: Option<(usize, EncoderConfig)>,
    calls: u64,
    segments: u64,
    ingested_bytes: u64,
}

impl IncrementalMerger {
    pub fn new(nranks: usize) -> Self {
        IncrementalMerger {
            cst: Cst::new(),
            keys: Vec::new(),
            open: HashMap::new(),
            ranks: RankGrammars::new(nranks, true),
            dur_set: Vec::new(),
            int_set: Vec::new(),
            events: Vec::new(),
            encoder_cfg: None,
            calls: 0,
            segments: 0,
            ingested_bytes: 0,
        }
    }

    /// Toggles the grammar identity check applied at rank completion
    /// (§3.5.2 ablation; on by default).
    pub fn identity_check(mut self, on: bool) -> Self {
        self.ranks.identity_check = on;
        self
    }

    /// World size this merger was built for.
    pub fn nranks(&self) -> usize {
        self.ranks.statuses.len()
    }

    /// Total traced calls across completed ranks.
    pub fn call_count(&self) -> u64 {
        self.calls
    }

    /// Segments accepted so far.
    pub fn segment_count(&self) -> u64 {
        self.segments
    }

    /// Raw segment bytes accepted so far.
    pub fn ingested_bytes(&self) -> u64 {
        self.ingested_bytes
    }

    /// True once every rank has completed its stream.
    pub fn is_complete(&self) -> bool {
        self.completed_ranks() == self.nranks()
    }

    /// Ranks that have completed their streams so far.
    pub fn completed_ranks(&self) -> usize {
        self.ranks.statuses.iter().filter(|s| matches!(s, RankStatus::Merged)).count()
    }

    /// A stream message is only acceptable while its rank is in the world
    /// and its stream is still open.
    fn check_open(&self, rank: usize) -> Result<(), SegmentError> {
        match self.ranks.statuses.get(rank) {
            None => Err(SegmentError::UnknownRank { rank, nranks: self.nranks() }),
            Some(RankStatus::Lost { .. }) => Ok(()),
            Some(_) => Err(SegmentError::RankComplete { rank }),
        }
    }

    /// Folds one streamed segment into the shared CST and this rank's
    /// open segment list. Segments from different ranks may interleave
    /// arbitrarily; within a rank they must arrive in sequence order.
    pub fn accept_segment(&mut self, seg: &TraceSegment) -> Result<(), SegmentError> {
        self.check_open(seg.rank)?;
        let expected = self.open.get(&seg.rank).map_or(0, |o| o.len() as u32);
        if seg.seq != expected {
            return Err(SegmentError::OutOfOrder { rank: seg.rank, expected, got: seg.seq });
        }
        let ck = decode_checkpoint(&seg.bytes).map_err(SegmentError::Decode)?;
        let open = self.open.entry(seg.rank).or_default();
        let remap = open.push(&mut self.cst, &ck.cst, ck.grammar, seg.sealed);
        // New terminals were numbered in `index` order, so each one is met
        // here exactly when `keys` has grown up to it.
        for (index, &t) in remap.iter().enumerate() {
            let key = (seg.rank as u32, seg.seq, index as u32);
            if t as usize == self.keys.len() {
                self.keys.push(key);
            } else if key < self.keys[t as usize] {
                self.keys[t as usize] = key;
            }
        }
        self.segments += 1;
        self.ingested_bytes += seg.bytes.len() as u64;
        Ok(())
    }

    /// Closes a rank's stream: assembles its segment grammars into the
    /// rank's full-trace grammar (the tracer's own segment assembly) and
    /// merges it into the collector's grammar set with the identity
    /// check. The rank's per-segment state is dropped here — this is what
    /// keeps the collector's footprint one merged state rather than P
    /// pieces.
    pub fn complete_rank(&mut self, done: RankCompletion) -> Result<(), SegmentError> {
        self.check_open(done.rank)?;
        let arrived = self.open.get(&done.rank).map_or(0, |o| o.len() as u32);
        if done.segments > arrived {
            // Leave the rank open: finalize will record it as lost rather
            // than pass off a silently truncated stream as complete.
            return Err(SegmentError::MissingSegments {
                rank: done.rank,
                declared: done.segments,
                arrived,
            });
        }
        let grammar = self.open.remove(&done.rank).unwrap_or_default().assemble();
        self.ranks.add_rank(done.rank, grammar, done.call_count, RankStatus::Merged);
        // Timing sets always dedup, identity check or not (as the tree's
        // timing gathers do).
        for (set, timing) in
            [(&mut self.dur_set, done.duration), (&mut self.int_set, done.interval)]
        {
            if let Some(g) = timing {
                add_grammar(set, true, g, vec![(done.rank as u64, 0)]);
            }
        }
        self.events.extend(done.events.into_iter().map(|ev| (done.rank as u64, ev)));
        match self.encoder_cfg {
            Some((r, _)) if r <= done.rank => {}
            _ => self.encoder_cfg = Some((done.rank, done.encoder_cfg)),
        }
        self.calls += done.call_count;
        Ok(())
    }

    /// Salvages every still-open rank: assembles whatever in-order
    /// prefix of its stream arrived into a grammar and merges it as a
    /// `Checkpoint { calls }` rank, as the batch merge does with a dead
    /// rank's last checkpoint. This is the recovery path's half-a-stream
    /// answer — a WAL can hold a rank's segments without its completion
    /// record (the collector died first), and the accepted prefix is
    /// crash-consistent by construction. Live ingest never calls this: a
    /// rank that stalls mid-stream stays `Lost` under a plain `finalize`.
    /// Returns the salvaged `(rank, calls)` pairs, ascending by rank.
    pub fn salvage_open_ranks(&mut self) -> Vec<(usize, u64)> {
        let mut open: Vec<(usize, RankSegments)> = self.open.drain().collect();
        open.sort_unstable_by_key(|&(rank, _)| rank);
        let mut salvaged = Vec::new();
        for (rank, segments) in open {
            let grammar = segments.assemble();
            let calls = grammar.expanded_len();
            if calls == 0 {
                continue;
            }
            self.ranks.add_rank(rank, grammar, calls, RankStatus::Checkpoint { calls });
            self.calls += calls;
            salvaged.push((rank, calls));
        }
        salvaged
    }

    /// Canonicalizes and finishes: renumbers terminals into the batch
    /// merge's rank-scan order, sorts rank lists and grammar-set entries
    /// the way the batch gather produces them, and hands the result to the
    /// shared rank-0 finish. Ranks that never completed are recorded as
    /// `Lost { round: 0 }` in the completeness manifest, unless
    /// [`Self::salvage_open_ranks`] rescued their prefix first
    /// (`Checkpoint { calls }`).
    pub fn finalize(mut self) -> GlobalTrace {
        // Canonical terminal order: ascending minimum (rank, seq, index)
        // — first appearance under the batch gather's rank scan.
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_by_key(|&t| self.keys[t as usize]);
        let mut remap = vec![0u32; order.len()];
        let mut cst = Cst::new();
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
            cst.intern(self.cst.signature(old), self.cst.stats(old));
        }
        for (g, _) in &mut self.ranks.set {
            renumber(g, &remap);
        }
        // Timing grammars are bin-id space: sorted but never renumbered.
        for set in [&mut self.ranks.set, &mut self.dur_set, &mut self.int_set] {
            for (_, ranks) in set.iter_mut() {
                ranks.sort_unstable();
            }
            set.sort_by_key(|(_, ranks)| ranks.first().map_or(u64::MAX, |&(r, _)| r));
        }
        Merged {
            ranks: self.ranks,
            dur_set: self.dur_set,
            int_set: self.int_set,
            events: self.events,
            cst,
            encoder_cfg: self.encoder_cfg.map_or_else(EncoderConfig::default, |(_, c)| c),
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tests::grammar_of;
    use pilgrim_sequitur::Grammar;

    fn segment(rank: usize, seq: u32, sealed: bool, sigs: &[&[u8]]) -> TraceSegment {
        let mut cst = Cst::new();
        let mut g = Grammar::new();
        for s in sigs {
            let t = cst.observe(s, 10);
            g.push(t);
        }
        let flat = g.to_flat();
        let bytes = crate::checkpoint::encode_checkpoint(flat.expanded_len(), &cst, &flat);
        TraceSegment { rank, seq, sealed, bytes }
    }

    fn completion(rank: usize, calls: u64, segments: u32) -> RankCompletion {
        RankCompletion {
            rank,
            call_count: calls,
            segments,
            duration: None,
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: Vec::new(),
        }
    }

    #[test]
    fn completion_serialization_roundtrips() {
        use crate::governor::{Component, DegradationStage};
        let done = RankCompletion {
            rank: 3,
            call_count: 99,
            segments: 4,
            duration: Some(grammar_of(&[1, 1, 2])),
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: vec![DegradationEvent {
                call_index: 12,
                stage: DegradationStage::FreezeGrammar,
                component: Component::CallGrammar,
                bytes: 2048,
            }],
        };
        let mut bytes = Vec::new();
        done.serialize(&mut bytes);
        let mut pos = 0;
        let back = RankCompletion::decode(&bytes, &mut pos).expect("roundtrip");
        assert_eq!(pos, bytes.len());
        assert_eq!(back.rank, 3);
        assert_eq!(back.call_count, 99);
        assert_eq!(back.segments, 4);
        assert_eq!(back.duration, done.duration);
        assert_eq!(back.interval, None);
        assert_eq!(back.events, done.events);
        // Every truncation must error, never panic.
        for cut in 0..bytes.len() {
            let mut p = 0;
            let r = RankCompletion::decode(&bytes[..cut], &mut p);
            assert!(r.is_err() || p <= cut, "prefix {cut} decoded past its end");
        }
    }

    #[test]
    fn completion_with_missing_segments_leaves_rank_open() {
        let mut m = IncrementalMerger::new(1);
        m.accept_segment(&segment(0, 0, true, &[b"a"])).unwrap();
        // Declared 3 segments, only 1 arrived (e.g. one was quarantined).
        assert!(matches!(
            m.complete_rank(completion(0, 3, 3)),
            Err(SegmentError::MissingSegments { rank: 0, declared: 3, arrived: 1 })
        ));
        assert!(!m.is_complete());
        let trace = m.finalize();
        assert_eq!(trace.completeness.ranks[0], RankStatus::Lost { round: 0 });
    }

    #[test]
    fn incremental_rejects_bad_streams() {
        let mut m = IncrementalMerger::new(2);
        assert!(matches!(
            m.accept_segment(&segment(7, 0, false, &[b"a"])),
            Err(SegmentError::UnknownRank { rank: 7, nranks: 2 })
        ));
        assert!(matches!(
            m.accept_segment(&segment(0, 3, false, &[b"a"])),
            Err(SegmentError::OutOfOrder { rank: 0, expected: 0, got: 3 })
        ));
        m.accept_segment(&segment(0, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(0, 1, 1)).unwrap();
        assert!(matches!(
            m.accept_segment(&segment(0, 1, false, &[b"a"])),
            Err(SegmentError::RankComplete { rank: 0 })
        ));
        let seg = TraceSegment { rank: 1, seq: 0, sealed: false, bytes: vec![0xFF, 0xFF] };
        assert!(matches!(m.accept_segment(&seg), Err(SegmentError::Decode(_))));
    }

    #[test]
    fn incremental_is_arrival_order_independent() {
        // Overlapping signatures across ranks: terminal numbering must
        // come out in rank-scan order regardless of arrival order.
        let run = |rank_first: usize| {
            let mut m = IncrementalMerger::new(2);
            let order = if rank_first == 0 { [0usize, 1] } else { [1, 0] };
            for &r in &order {
                let sigs: &[&[u8]] = if r == 0 { &[b"x", b"y", b"x"] } else { &[b"z", b"y", b"z"] };
                m.accept_segment(&segment(r, 0, false, sigs)).unwrap();
            }
            for r in 0..2 {
                m.complete_rank(completion(r, 3, 1)).unwrap();
            }
            assert!(m.is_complete());
            crate::export::write_container(&m.finalize())
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn incremental_wraps_sealed_segments() {
        let mut m = IncrementalMerger::new(1);
        m.accept_segment(&segment(0, 0, true, &[b"a", b"b"])).unwrap();
        m.accept_segment(&segment(0, 1, false, &[b"b", b"c"])).unwrap();
        m.complete_rank(completion(0, 4, 2)).unwrap();
        let trace = m.finalize();
        assert_eq!(trace.rank_lengths, vec![4]);
        assert_eq!(trace.cst.len(), 3);
        assert_eq!(trace.grammar.expand(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn incremental_marks_missing_ranks_lost() {
        let mut m = IncrementalMerger::new(3);
        m.accept_segment(&segment(0, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(0, 1, 1)).unwrap();
        m.accept_segment(&segment(2, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(2, 1, 1)).unwrap();
        assert!(!m.is_complete());
        let trace = m.finalize();
        assert_eq!(trace.completeness.ranks[1], RankStatus::Lost { round: 0 });
        assert_eq!(trace.rank_lengths, vec![1, 0, 1]);
    }

    #[test]
    fn segment_naming_a_terminal_outside_its_cst_is_rejected() {
        // A 1-signature CST under a grammar that says Terminal(7): the
        // renumbering would index past the remap. The codec refuses it, so
        // the merger (and WAL replay, which has no panic isolation) never
        // sees it.
        let mut cst = Cst::new();
        cst.observe(b"a", 10);
        let mut g = Grammar::new();
        g.push(7);
        let bytes = crate::checkpoint::encode_checkpoint(1, &cst, &g.to_flat());
        let mut m = IncrementalMerger::new(1);
        let poisoned = TraceSegment { rank: 0, seq: 0, sealed: false, bytes };
        assert!(matches!(
            m.accept_segment(&poisoned),
            Err(SegmentError::Decode(DecodeError::Corrupt { what: "terminal", .. }))
        ));
        // The rejection left the stream where it was.
        m.accept_segment(&segment(0, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(0, 1, 1)).unwrap();
        assert_eq!(m.finalize().rank_lengths, vec![1]);
    }
}
