//! The trace index: the grammar's [`Spans`] plus per-rank call offsets.
//!
//! Annotating every grammar rule with its expanded length (respecting the
//! `A -> B^k` repeat exponents) turns the compressed grammar into a
//! positional data structure: the i-th call of any rank is found by
//! descending from the start rule, binary-searching each rule body's
//! cumulative spans — O(depth · log body) per probe, never expanding
//! anything. The index is built once per trace (O(grammar size)) and can
//! be serialized alongside it, so later analysis sessions skip the
//! length computation entirely.

use std::borrow::Cow;

use pilgrim_sequitur::{decode_varint, varint_len, write_varint, Cursor, DecodeError, Spans};

use crate::encode::EncodedCall;
use crate::metrics::{MetricsRegistry, Stage};
use crate::trace::GlobalTrace;

/// Serialized-index magic bytes (`PGIX`).
const INDEX_MAGIC: [u8; 4] = *b"PGIX";
/// Serialized-index format version.
const INDEX_VERSION: u8 = 1;

/// Positional index over a [`GlobalTrace`]'s grammar: per-rule expanded
/// lengths, per-rule cumulative right-hand-side spans, and per-rank call
/// offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIndex {
    /// Expanded length and cumulative RHS spans of each rule.
    spans: Spans,
    /// Rank `r`'s calls occupy global offsets
    /// `[rank_offsets[r], rank_offsets[r + 1])`.
    rank_offsets: Vec<u64>,
}

impl TraceIndex {
    /// Builds the index for a trace: one bottom-up pass over the grammar
    /// for the rule lengths, one loop for the cumulative spans, one over
    /// the rank lengths for the offsets.
    pub fn build(trace: &GlobalTrace) -> Self {
        Self::build_with_metrics(trace, &MetricsRegistry::default())
    }

    /// [`TraceIndex::build`], timed under [`Stage::IndexBuild`] with
    /// `index.rules` / `index.bytes` gauges recorded.
    pub fn build_with_metrics(trace: &GlobalTrace, metrics: &MetricsRegistry) -> Self {
        let _t = metrics.time_stage(Stage::IndexBuild);
        let spans = Spans::measure(&trace.grammar);
        let mut rank_offsets = Vec::with_capacity(trace.nranks + 1);
        let mut acc = 0u64;
        rank_offsets.push(0);
        for &l in &trace.rank_lengths {
            // Saturating: a hand-built table may overflow (decoded ones
            // cannot), and offsets past the expansion are never selected.
            acc = acc.saturating_add(l);
            rank_offsets.push(acc);
        }
        let index = TraceIndex { spans, rank_offsets };
        metrics.set_gauge("index.rules", index.rule_lens().len() as u64);
        metrics.set_gauge("index.bytes", index.byte_size() as u64);
        index
    }

    /// Total number of calls the grammar generates.
    pub fn total_calls(&self) -> u64 {
        self.spans.total()
    }

    /// Number of ranks covered by the rank offsets.
    pub fn nranks(&self) -> usize {
        self.rank_offsets.len().saturating_sub(1)
    }

    /// Global offset range `[start, end)` of one rank's calls.
    pub fn rank_span(&self, rank: usize) -> (u64, u64) {
        let start = self.rank_offsets.get(rank).copied().unwrap_or(0);
        let next = rank.checked_add(1).and_then(|next| self.rank_offsets.get(next));
        let end = next.copied().unwrap_or(start);
        (start, end)
    }

    /// Number of calls rank `rank` contributes.
    pub fn rank_len(&self, rank: usize) -> u64 {
        let (s, e) = self.rank_span(rank);
        e - s
    }

    /// Expanded length of rule `rule`.
    pub fn rule_len(&self, rule: usize) -> u64 {
        self.rule_lens().get(rule).copied().unwrap_or(0)
    }

    /// Per-rule expanded lengths, indexed by rule id.
    pub fn rule_lens(&self) -> &[u64] {
        self.spans.lens()
    }

    /// A cursor over global offsets `[lo, hi)` of `trace`, seeking through
    /// this index's spans.
    pub(crate) fn cursor<'a>(&'a self, trace: &'a GlobalTrace, lo: u64, hi: u64) -> Cursor<'a> {
        Cursor::new(&trace.grammar, Cow::Borrowed(&self.spans), lo, hi)
    }

    /// The terminal at global offset `off`, in O(depth · log body) with
    /// no expansion and no allocation. `None` when `off` is past the end
    /// of the trace or the index was not built from `trace`.
    pub fn term_at(&self, trace: &GlobalTrace, off: u64) -> Option<u32> {
        self.spans.term_at(&trace.grammar, off)
    }

    /// The terminal of rank `rank`'s `i`-th call; `None` past the rank's
    /// end, however far past.
    pub fn rank_term(&self, trace: &GlobalTrace, rank: usize, i: u64) -> Option<u32> {
        let (start, end) = self.rank_span(rank);
        let off = start.checked_add(i).filter(|&off| off < end)?;
        self.term_at(trace, off)
    }

    /// Indexed random access: decodes rank `rank`'s `i`-th call without
    /// expanding the grammar.
    pub fn call_at(&self, trace: &GlobalTrace, rank: usize, i: u64) -> Option<EncodedCall> {
        self.rank_term(trace, rank, i)
            .and_then(|term| crate::decode::decode_term_call(trace, term).ok())
    }

    /// Serializes the index (magic, version, rule lengths, rank lengths).
    /// The cumulative spans are rebuilt from the grammar on decode, so
    /// the on-disk form stays proportional to the rule count.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&INDEX_MAGIC);
        out.push(INDEX_VERSION);
        write_varint(out, self.rule_lens().len() as u64);
        for &l in self.rule_lens() {
            write_varint(out, l);
        }
        write_varint(out, self.nranks() as u64);
        for w in self.rank_offsets.windows(2) {
            write_varint(out, w[1] - w[0]);
        }
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        let mut n = INDEX_MAGIC.len() + 1 + varint_len(self.rule_lens().len() as u64);
        n += self.rule_lens().iter().map(|&l| varint_len(l)).sum::<usize>();
        n += varint_len(self.nranks() as u64);
        n += self.rank_offsets.windows(2).map(|w| varint_len(w[1] - w[0])).sum::<usize>();
        n
    }

    /// Decodes an index written by [`TraceIndex::serialize`] and verifies
    /// it against `trace`: the rule count must match the grammar, every
    /// stored rule length must agree with the rule's body under the
    /// stored lengths, and the rank offsets must match the trace's rank
    /// lengths. Returns the index and the bytes consumed.
    pub fn decode(buf: &[u8], trace: &GlobalTrace) -> Result<(Self, usize), DecodeError> {
        let mut pos = 0usize;
        if buf.len() < 5 || buf[..4] != INDEX_MAGIC {
            return Err(DecodeError::Corrupt { what: "index magic", offset: 0 });
        }
        pos += 4;
        if buf[pos] != INDEX_VERSION {
            return Err(DecodeError::Corrupt { what: "index version", offset: pos });
        }
        pos += 1;
        let nrules_off = pos;
        let nrules = decode_varint(buf, &mut pos)? as usize;
        if nrules != trace.grammar.num_rules() {
            return Err(DecodeError::Corrupt { what: "index rule count", offset: nrules_off });
        }
        let mut rule_lens = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            rule_lens.push(decode_varint(buf, &mut pos)?);
        }
        // Cross-check: each rule's stored length must be the sum of its
        // body's spans under the stored lengths (one non-recursive pass).
        let spans = Spans::from_lens(&trace.grammar, rule_lens)
            .ok_or(DecodeError::Corrupt { what: "index rule length", offset: nrules_off })?;
        let nranks_off = pos;
        let nranks = decode_varint(buf, &mut pos)? as usize;
        if nranks != trace.nranks {
            return Err(DecodeError::Corrupt { what: "index rank count", offset: nranks_off });
        }
        let mut rank_offsets = Vec::with_capacity(nranks + 1);
        let mut acc = 0u64;
        rank_offsets.push(0);
        for r in 0..nranks {
            let off = pos;
            let len = decode_varint(buf, &mut pos)?;
            if trace.rank_lengths.get(r).copied().unwrap_or(0) != len {
                return Err(DecodeError::Corrupt { what: "index rank length", offset: off });
            }
            acc = acc.saturating_add(len);
            rank_offsets.push(acc);
        }
        Ok((TraceIndex { spans, rank_offsets }, pos))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cst::Cst;
    use crate::encode::{EncoderConfig, SigWriter};
    use crate::trace::TraceCompleteness;
    use pilgrim_sequitur::Grammar;

    /// Two ranks over a repetitive sequence: the grammar carries `B^k`
    /// exponents, which is exactly what the spans must respect. Terminal
    /// `t` maps to a real signature for func id `t + 1`.
    pub(crate) fn repeat_trace() -> GlobalTrace {
        let sig = |func: u16, v: i64| {
            let mut w = SigWriter::new(func);
            w.int(v);
            w.into_bytes()
        };
        // Stats mirror the grammar below: terms 0/1 occur 9 times
        // (6 + 3 loop iterations across the two ranks), term 2 once.
        let mut cst = Cst::new();
        cst.intern(&sig(1, 0), crate::cst::SigStats { count: 9, dur_sum: 90 });
        cst.intern(&sig(2, 1), crate::cst::SigStats { count: 9, dur_sum: 180 });
        cst.intern(&sig(3, 2), crate::cst::SigStats { count: 1, dur_sum: 30 });
        let mut g = Grammar::new();
        // Rank 0: (0 1)^6 2  -> 13 calls. Rank 1: (0 1)^3 -> 6 calls.
        for _ in 0..6 {
            g.push(0);
            g.push(1);
        }
        g.push(2);
        for _ in 0..3 {
            g.push(0);
            g.push(1);
        }
        GlobalTrace {
            nranks: 2,
            encoder_cfg: EncoderConfig::default(),
            cst,
            grammar: g.to_flat(),
            rank_lengths: vec![13, 6],
            unique_grammars: 2,
            duration_grammars: vec![],
            interval_grammars: vec![],
            duration_rank_map: vec![],
            interval_rank_map: vec![],
            completeness: TraceCompleteness::complete(),
            nondet: None,
        }
    }

    #[test]
    fn term_at_agrees_with_expansion_everywhere() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let full = t.grammar.expand();
        assert_eq!(idx.total_calls(), full.len() as u64);
        for (i, &want) in full.iter().enumerate() {
            assert_eq!(idx.term_at(&t, i as u64), Some(want), "offset {i}");
        }
        assert_eq!(idx.term_at(&t, full.len() as u64), None);
    }

    #[test]
    fn rank_spans_partition_the_trace() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        assert_eq!(idx.rank_span(0), (0, 13));
        assert_eq!(idx.rank_span(1), (13, 19));
        assert_eq!(idx.rank_len(1), 6);
        // Rank-local access crosses the repeat boundary correctly.
        let ranks = t.decode_all_ranks();
        for (rank, terms) in ranks.iter().enumerate() {
            for (i, &want) in terms.iter().enumerate() {
                assert_eq!(idx.rank_term(&t, rank, i as u64), Some(want), "rank {rank} call {i}");
            }
            assert_eq!(idx.rank_term(&t, rank, terms.len() as u64), None);
        }
    }

    #[test]
    fn serialize_roundtrip_and_corruption_detection() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let mut buf = Vec::new();
        idx.serialize(&mut buf);
        assert_eq!(buf.len(), idx.byte_size());
        let (back, used) = TraceIndex::decode(&buf, &t).expect("roundtrip");
        assert_eq!(used, buf.len());
        assert_eq!(back, idx);
        // Flip a stored rule length: the body cross-check must reject it.
        let mut bad = buf.clone();
        let p = INDEX_MAGIC.len() + 1 + 1; // first rule length varint
        bad[p] = bad[p].wrapping_add(1);
        assert!(TraceIndex::decode(&bad, &t).is_err());
        assert!(TraceIndex::decode(b"nope", &t).is_err());
    }

    #[test]
    fn build_records_metrics() {
        let t = repeat_trace();
        let m = MetricsRegistry::new(true);
        let idx = TraceIndex::build_with_metrics(&t, &m);
        let snap = m.snapshot();
        assert_eq!(snap.counters["index.rules"], idx.rule_lens().len() as u64);
        assert_eq!(snap.counters["index.bytes"], idx.byte_size() as u64);
    }
}
