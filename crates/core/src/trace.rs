//! The merged trace format: a globally merged CST, one grammar generating
//! the concatenation of all ranks' terminal sequences, and (optionally)
//! deduplicated timing grammars. This is what Pilgrim writes to disk; its
//! serialized size is the "trace file size" of every experiment.

use pilgrim_sequitur::{decode_varint, varint_len, write_varint, Cursor, DecodeError, FlatGrammar};

use crate::cst::Cst;
use crate::encode::EncoderConfig;
use crate::governor::{DegradationEvent, DegradationStage};

/// How one rank's trace entered the merged result (the completeness
/// manifest written by the degraded merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStatus {
    /// Fully merged through the binomial tree.
    Merged,
    /// Neither merged nor checkpointed. `round` is the 1-based merge
    /// round at which its subtree timed out; 0 means it was lost before
    /// the grammar gather (CST phase or broadcast failure).
    Lost { round: u32 },
    /// Recovered from the rank's last crash-consistent checkpoint, which
    /// covered `calls` traced calls.
    Checkpoint { calls: u64 },
    /// Recovered by [`GlobalTrace::decode_salvage`] from a container
    /// whose per-rank section failed its checksum: the rank's span in the
    /// grammar was inferred (`calls`), and its timing maps are gone.
    Salvaged { calls: u64 },
}

/// Per-rank merge completeness, serialized into the trace format. An
/// empty rank list means every rank merged fully (the common case costs
/// one byte on disk); degradation events appear only when a governed run
/// actually degraded, so ungoverned traces are byte-identical to the
/// pre-governor format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCompleteness {
    /// One status per rank, or empty when all ranks merged.
    pub ranks: Vec<RankStatus>,
    /// Governor transitions, as `(rank, event)` sorted by rank then call
    /// index. Empty for ungoverned or never-pressured runs.
    pub events: Vec<(u32, DegradationEvent)>,
}

impl TraceCompleteness {
    /// A manifest recording that every rank merged fully.
    pub fn complete() -> Self {
        TraceCompleteness::default()
    }

    /// The canonical manifest for a full per-rank status list: what
    /// serialization preserves. An all-`Merged` list collapses to the empty
    /// list even when degradation events are present, so every producer
    /// (batch merge, streaming merge, both decoders) compares equal across a
    /// serialize/decode roundtrip.
    pub fn canonical(mut ranks: Vec<RankStatus>, events: Vec<(u32, DegradationEvent)>) -> Self {
        if ranks.iter().all(|s| matches!(s, RankStatus::Merged)) {
            ranks.clear();
        }
        TraceCompleteness { ranks, events }
    }

    /// True when every rank's trace was fully merged.
    pub fn is_complete(&self) -> bool {
        self.ranks.iter().all(|s| matches!(s, RankStatus::Merged))
    }

    /// Status of `rank` (ranks beyond the list are fully merged).
    pub fn status(&self, rank: usize) -> RankStatus {
        self.ranks.get(rank).copied().unwrap_or(RankStatus::Merged)
    }

    /// Ranks whose data was lost entirely, with the losing round.
    pub fn lost_ranks(&self) -> Vec<(usize, u32)> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match s {
                RankStatus::Lost { round } => Some((r, *round)),
                _ => None,
            })
            .collect()
    }

    /// Ranks recovered from checkpoints, with the covered call count.
    pub fn checkpoint_ranks(&self) -> Vec<(usize, u64)> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match s {
                RankStatus::Checkpoint { calls } => Some((r, *calls)),
                _ => None,
            })
            .collect()
    }

    /// Ranks salvaged from a corrupt container, with the inferred span.
    pub fn salvaged_ranks(&self) -> Vec<(usize, u64)> {
        self.ranks
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match s {
                RankStatus::Salvaged { calls } => Some((r, *calls)),
                _ => None,
            })
            .collect()
    }

    /// The degradation events recorded for one rank, in call order.
    pub fn events_for(&self, rank: usize) -> impl Iterator<Item = &DegradationEvent> + '_ {
        self.events.iter().filter(move |(r, _)| *r as usize == rank).map(|(_, e)| e)
    }

    /// True when `rank` reached at least `stage` of the degradation
    /// ladder during tracing. Memory rungs order among themselves;
    /// out-of-band stages ([`DegradationStage::LocalSpill`]) match only
    /// exactly — a net-spilled rank has not, e.g., aggregated its timing.
    pub fn rank_reached(&self, rank: usize, stage: DegradationStage) -> bool {
        if !stage.is_memory_rung() {
            return self.events_for(rank).any(|e| e.stage == stage);
        }
        self.events_for(rank).any(|e| e.stage.is_memory_rung() && e.stage >= stage)
    }

    fn serialize(&self, nranks: usize, out: &mut Vec<u8>) {
        // Flag bits: 1 = per-rank status list present, 2 = degradation
        // events present. Plain complete manifests still cost one 0 byte,
        // keeping ungoverned traces byte-identical to the old format.
        let statuses = !self.is_complete();
        let flag = u8::from(statuses) | (u8::from(!self.events.is_empty()) << 1);
        out.push(flag);
        if statuses {
            for r in 0..nranks {
                match self.status(r) {
                    RankStatus::Merged => write_varint(out, 0),
                    RankStatus::Lost { round } => {
                        write_varint(out, 1);
                        write_varint(out, round as u64);
                    }
                    RankStatus::Checkpoint { calls } => {
                        write_varint(out, 2);
                        write_varint(out, calls);
                    }
                    RankStatus::Salvaged { calls } => {
                        write_varint(out, 3);
                        write_varint(out, calls);
                    }
                }
            }
        }
        if !self.events.is_empty() {
            write_varint(out, self.events.len() as u64);
            for (rank, event) in &self.events {
                write_varint(out, *rank as u64);
                event.serialize(out);
            }
        }
    }

    fn byte_size(&self, nranks: usize) -> usize {
        let mut total = 1;
        if !self.is_complete() {
            total += (0..nranks)
                .map(|r| match self.status(r) {
                    RankStatus::Merged => 1,
                    RankStatus::Lost { round } => 1 + varint_len(round as u64),
                    RankStatus::Checkpoint { calls } | RankStatus::Salvaged { calls } => {
                        1 + varint_len(calls)
                    }
                })
                .sum::<usize>();
        }
        if !self.events.is_empty() {
            total += varint_len(self.events.len() as u64);
            total += self
                .events
                .iter()
                .map(|(rank, e)| varint_len(*rank as u64) + e.byte_size())
                .sum::<usize>();
        }
        total
    }

    fn decode(buf: &[u8], pos: &mut usize, nranks: usize) -> Result<Self, DecodeError> {
        let flag_off = *pos;
        let flag = *buf
            .get(*pos)
            .ok_or(DecodeError::Truncated { what: "completeness flag", offset: flag_off })?;
        *pos += 1;
        if flag > 3 {
            return Err(DecodeError::Corrupt { what: "completeness flag", offset: flag_off });
        }
        let mut ranks = Vec::new();
        if flag & 1 != 0 {
            ranks.reserve(nranks);
            for _ in 0..nranks {
                let off = *pos;
                ranks.push(match decode_varint(buf, pos)? {
                    0 => RankStatus::Merged,
                    1 => RankStatus::Lost { round: decode_varint(buf, pos)? as u32 },
                    2 => RankStatus::Checkpoint { calls: decode_varint(buf, pos)? },
                    3 => RankStatus::Salvaged { calls: decode_varint(buf, pos)? },
                    _ => return Err(DecodeError::Corrupt { what: "rank status", offset: off }),
                });
            }
        }
        let mut events = Vec::new();
        if flag & 2 != 0 {
            let count_off = *pos;
            let count = decode_varint(buf, pos)? as usize;
            // Each event costs at least five varint bytes.
            if count > buf.len().saturating_sub(*pos) / 5 + 1 {
                return Err(DecodeError::Corrupt { what: "event count", offset: count_off });
            }
            events.reserve(count);
            for _ in 0..count {
                let rank_off = *pos;
                let rank = decode_varint(buf, pos)?;
                if rank >= nranks as u64 {
                    return Err(DecodeError::Corrupt { what: "event rank", offset: rank_off });
                }
                events.push((rank as u32, DegradationEvent::decode(buf, pos)?));
            }
        }
        Ok(TraceCompleteness { ranks, events })
    }
}

/// Full per-component byte decomposition of a serialized trace. Every
/// serialized byte is attributed to exactly one field, so the components
/// sum to the serialized length ([`SizeReport::full_total`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeReport {
    /// Globally merged call signature table.
    pub cst_bytes: usize,
    /// The merged call-sequence grammar (CFG).
    pub grammar_bytes: usize,
    /// Deduplicated duration grammars (non-aggregated timing mode).
    pub duration_bytes: usize,
    /// Deduplicated interval grammars (non-aggregated timing mode).
    pub interval_bytes: usize,
    /// Fixed header: encoder config byte plus the rank/grammar counts.
    pub header_bytes: usize,
    /// Per-rank call-count varints (split points for the expansion).
    pub rank_length_bytes: usize,
    /// Rank -> timing-grammar index maps.
    pub rank_map_bytes: usize,
    /// Completeness manifest (one byte when every rank merged fully).
    pub manifest_bytes: usize,
}

impl SizeReport {
    /// Metadata bytes: everything that is neither CST, CFG, nor a timing
    /// grammar body.
    pub fn meta_bytes(&self) -> usize {
        self.header_bytes + self.rank_length_bytes + self.rank_map_bytes + self.manifest_bytes
    }

    /// Total trace size excluding non-aggregated timing (the paper reports
    /// timing grammar sizes separately, Fig 10).
    pub fn core_total(&self) -> usize {
        self.cst_bytes + self.grammar_bytes + self.meta_bytes()
    }

    /// Total including timing grammars; equals the serialized length.
    pub fn full_total(&self) -> usize {
        self.core_total() + self.duration_bytes + self.interval_bytes
    }
}

/// Per-trace fidelity summary: which ranks lost what, and why. Built by
/// [`GlobalTrace::fidelity`] from the completeness manifest; surfaced by
/// the query engine and the `trace_tool fidelity` subcommand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FidelityReport {
    /// Every rank merged fully and no degradation events were recorded.
    pub lossless: bool,
    /// Ranks whose call grammar was frozen (structure fidelity kept; the
    /// compression ratio suffers, the call stream does not).
    pub frozen_ranks: Vec<usize>,
    /// Ranks whose per-call timing collapsed to per-signature aggregates.
    pub timing_degraded_ranks: Vec<usize>,
    /// Ranks whose grammar was sealed into segments at least once.
    pub sealed_ranks: Vec<usize>,
    /// Ranks lost entirely in a degraded merge.
    pub lost_ranks: Vec<usize>,
    /// Ranks truncated at their last checkpoint.
    pub checkpoint_ranks: Vec<usize>,
    /// Ranks salvaged from a corrupt container (span inferred).
    pub salvaged_ranks: Vec<usize>,
    /// Ranks whose networked delivery degraded to a local spill file
    /// (call data intact on the client's disk; the wire path gave up).
    pub net_spilled_ranks: Vec<usize>,
    /// Total degradation events recorded.
    pub events: usize,
}

/// The merged, serializable trace.
#[derive(Debug, Clone)]
pub struct GlobalTrace {
    pub nranks: usize,
    pub encoder_cfg: EncoderConfig,
    /// Globally merged call signature table.
    pub cst: Cst,
    /// Grammar generating rank 0's terminals, then rank 1's, etc.
    pub grammar: FlatGrammar,
    /// Number of calls per rank (to split the expansion).
    pub rank_lengths: Vec<u64>,
    /// How many structurally distinct per-rank grammars were observed
    /// before merging (the paper tracks this as its key scaling metric).
    pub unique_grammars: usize,
    /// Deduplicated non-aggregated timing grammars (empty in aggregate
    /// timing mode), plus the rank -> grammar-index maps.
    pub duration_grammars: Vec<FlatGrammar>,
    pub interval_grammars: Vec<FlatGrammar>,
    pub duration_rank_map: Vec<u32>,
    pub interval_rank_map: Vec<u32>,
    /// Per-rank merge completeness (empty = all ranks fully merged).
    pub completeness: TraceCompleteness,
    /// Recorded nondeterministic resolutions (the record/replay
    /// side-channel; `None` for traces recorded without it). Carried by
    /// the `PGND` container section, not the flat serialization.
    pub nondet: Option<crate::nondet::NondetLog>,
}

/// Sentinel in the timing rank maps for a rank with no timing grammar
/// (lost or checkpoint-recovered ranks in a degraded merge).
pub const RANK_MAP_NONE: u32 = u32::MAX;

/// Sum of a rank-length table; `None` when it overflows `u64`, which only
/// a hostile table can (two ranks declaring 2^63 calls each).
pub(crate) fn checked_total(rank_lengths: impl IntoIterator<Item = u64>) -> Option<u64> {
    rank_lengths.into_iter().try_fold(0u64, u64::checked_add)
}

impl GlobalTrace {
    /// Total calls across all ranks (saturating; both strict decoders
    /// refuse a table whose sum overflows or disagrees with the grammar).
    pub fn total_calls(&self) -> u64 {
        checked_total(self.rank_lengths.iter().copied()).unwrap_or(u64::MAX)
    }

    /// Streams rank `rank`'s terminals — and only that rank's: the cursor
    /// seeks to the rank's span, holds O(grammar depth) memory and costs
    /// what is consumed, so this is the primitive for input that is not
    /// trusted. Clamped: a length table that claims more than the grammar
    /// generates (a hand-built or salvaged trace — the strict decoders
    /// refuse one) yields short or empty tails, and a rank the trace does
    /// not have yields nothing.
    pub fn rank_terms(&self, rank: usize) -> Cursor<'_> {
        let mut lens = self.rank_lengths.iter().take(self.nranks).copied();
        let lo = checked_total(lens.by_ref().take(rank)).unwrap_or(u64::MAX);
        self.grammar.terms(lo, lo.saturating_add(lens.next().unwrap_or(0)))
    }

    /// Expands the merged grammar once and splits it into per-rank terminal
    /// sequences. O(calls) memory by contract, grown as the walk yields; for
    /// input that is not trusted stream [`GlobalTrace::rank_terms`] or a
    /// [`CallIterator`](crate::query::CallIterator) instead.
    pub fn decode_all_ranks(&self) -> Vec<Vec<u32>> {
        let mut all = self.grammar.terms(0, u64::MAX);
        let lens = (0..self.nranks).map(|rank| self.rank_lengths.get(rank).copied().unwrap_or(0));
        lens.map(|calls| all.by_ref().take(usize::try_from(calls).unwrap_or(usize::MAX)).collect())
            .collect()
    }

    /// Expands a single rank's terminal sequence (empty for a rank the
    /// trace does not have) by walking that rank alone. O(calls) memory by
    /// contract, like [`GlobalTrace::decode_all_ranks`].
    pub fn decode_rank(&self, rank: usize) -> Vec<u32> {
        self.rank_terms(rank).collect()
    }

    /// Serializes the trace; the returned buffer's length is the trace
    /// file size.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.encoder_cfg.to_byte());
        write_varint(&mut out, self.nranks as u64);
        write_varint(&mut out, self.unique_grammars as u64);
        for &l in &self.rank_lengths {
            write_varint(&mut out, l);
        }
        self.cst.serialize(&mut out);
        self.grammar.serialize(&mut out);
        write_varint(&mut out, self.duration_grammars.len() as u64);
        for g in &self.duration_grammars {
            g.serialize(&mut out);
        }
        write_varint(&mut out, self.interval_grammars.len() as u64);
        for g in &self.interval_grammars {
            g.serialize(&mut out);
        }
        // Entries are stored +1 so zero encodes the "no grammar" sentinel
        // (a lost rank in a degraded merge has no timing grammar).
        for &m in self.duration_rank_map.iter().chain(&self.interval_rank_map) {
            write_varint(&mut out, if m == RANK_MAP_NONE { 0 } else { m as u64 + 1 });
        }
        self.completeness.serialize(self.nranks, &mut out);
        out
    }

    /// Decodes a trace written by [`GlobalTrace::serialize`], reporting
    /// exactly where a malformed buffer went wrong. The whole buffer must
    /// be consumed; leftover bytes are [`DecodeError::TrailingBytes`].
    pub fn decode(buf: &[u8]) -> Result<GlobalTrace, DecodeError> {
        let mut pos = 0usize;
        let encoder_cfg = EncoderConfig::from_byte(
            *buf.first().ok_or(DecodeError::Truncated { what: "encoder config", offset: 0 })?,
        );
        pos += 1;
        let nranks_off = pos;
        let nranks = decode_varint(buf, &mut pos)? as usize;
        let unique_grammars = decode_varint(buf, &mut pos)? as usize;
        // Each rank contributes at least a one-byte length varint.
        if nranks > buf.len().saturating_sub(pos) + 1 {
            return Err(DecodeError::Corrupt { what: "rank count", offset: nranks_off });
        }
        let lengths_off = pos;
        let mut rank_lengths = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            rank_lengths.push(decode_varint(buf, &mut pos)?);
        }
        let cst = Cst::decode(buf, &mut pos)?;
        let (grammar, used, expanded) =
            FlatGrammar::decode_measured(&buf[pos..]).map_err(|e| e.offset_by(pos))?;
        pos += used;
        // The table splits the expansion, so it must cover it exactly;
        // everything downstream slices and divides on that.
        if checked_total(rank_lengths.iter().copied()) != Some(expanded) {
            return Err(DecodeError::Corrupt { what: "rank lengths", offset: lengths_off });
        }
        let nd_off = pos;
        let nd = decode_varint(buf, &mut pos)? as usize;
        if nd > buf.len().saturating_sub(pos) + 1 {
            return Err(DecodeError::Corrupt { what: "duration grammar count", offset: nd_off });
        }
        let mut duration_grammars = Vec::with_capacity(nd);
        for _ in 0..nd {
            let (g, used) = FlatGrammar::decode(&buf[pos..]).map_err(|e| e.offset_by(pos))?;
            pos += used;
            duration_grammars.push(g);
        }
        let ni_off = pos;
        let ni = decode_varint(buf, &mut pos)? as usize;
        if ni > buf.len().saturating_sub(pos) + 1 {
            return Err(DecodeError::Corrupt { what: "interval grammar count", offset: ni_off });
        }
        let mut interval_grammars = Vec::with_capacity(ni);
        for _ in 0..ni {
            let (g, used) = FlatGrammar::decode(&buf[pos..]).map_err(|e| e.offset_by(pos))?;
            pos += used;
            interval_grammars.push(g);
        }
        let mut duration_rank_map = Vec::with_capacity(nranks);
        let mut interval_rank_map = Vec::with_capacity(nranks);
        if nd > 0 || ni > 0 {
            for (map, pool, what) in [
                (&mut duration_rank_map, nd, "duration rank map"),
                (&mut interval_rank_map, ni, "interval rank map"),
            ] {
                for _ in 0..nranks {
                    let off = pos;
                    // Entries are stored +1; zero is the no-grammar
                    // sentinel (lost ranks in a degraded merge).
                    match decode_varint(buf, &mut pos)?.checked_sub(1) {
                        None => map.push(RANK_MAP_NONE),
                        Some(idx) if idx >= pool as u64 => {
                            return Err(DecodeError::Corrupt { what, offset: off });
                        }
                        Some(idx) => map.push(idx as u32),
                    }
                }
            }
        }
        let completeness = TraceCompleteness::decode(buf, &mut pos, nranks)?;
        if pos != buf.len() {
            return Err(DecodeError::TrailingBytes { consumed: pos, len: buf.len() });
        }
        Ok(GlobalTrace {
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
            nondet: None,
        })
    }

    /// Component size breakdown. Computed analytically from the parts (no
    /// serialization pass), and guaranteed to sum to the serialized length.
    pub fn size_report(&self) -> SizeReport {
        let cst_bytes = self.cst.byte_size();
        let grammar_bytes = self.grammar.byte_size();
        let duration_bytes: usize = self.duration_grammars.iter().map(|g| g.byte_size()).sum();
        let interval_bytes: usize = self.interval_grammars.iter().map(|g| g.byte_size()).sum();
        // Mirrors `serialize` field by field: config byte, three counts...
        let header_bytes = 1
            + varint_len(self.nranks as u64)
            + varint_len(self.unique_grammars as u64)
            + varint_len(self.duration_grammars.len() as u64)
            + varint_len(self.interval_grammars.len() as u64);
        let rank_length_bytes: usize = self.rank_lengths.iter().map(|&l| varint_len(l)).sum();
        let rank_map_bytes: usize = self
            .duration_rank_map
            .iter()
            .chain(&self.interval_rank_map)
            .map(|&m| varint_len(if m == RANK_MAP_NONE { 0 } else { m as u64 + 1 }))
            .sum();
        SizeReport {
            cst_bytes,
            grammar_bytes,
            duration_bytes,
            interval_bytes,
            header_bytes,
            rank_length_bytes,
            rank_map_bytes,
            manifest_bytes: self.completeness.byte_size(self.nranks),
        }
    }

    /// Trace file size in bytes (core trace, timing reported separately).
    pub fn size_bytes(&self) -> usize {
        self.size_report().core_total()
    }

    /// Structural integrity checks beyond what decoding enforces: the
    /// grammar must generate exactly the per-rank lengths, every terminal
    /// must resolve in the CST, the manifest must cover every rank and
    /// agree with the rank lengths, and timing maps must be complete.
    /// Returns a list of human-readable problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.rank_lengths.len() != self.nranks {
            problems.push(format!(
                "rank length table has {} entries for {} ranks",
                self.rank_lengths.len(),
                self.nranks
            ));
        }
        let expanded = self.grammar.expanded_len();
        match checked_total(self.rank_lengths.iter().copied()) {
            Some(total) if total == expanded => {}
            Some(total) => problems.push(format!(
                "grammar generates {expanded} calls but rank lengths sum to {total}"
            )),
            None => problems
                .push(format!("grammar generates {expanded} calls but rank lengths overflow")),
        }
        let nsigs = self.cst.len() as u64;
        let bad_terms = self.grammar.terminals().filter(|&t| t as u64 >= nsigs).count();
        if bad_terms > 0 {
            problems.push(format!(
                "{bad_terms} grammar terminal(s) reference signatures beyond the CST ({nsigs})"
            ));
        }
        if !self.completeness.ranks.is_empty() && self.completeness.ranks.len() != self.nranks {
            problems.push(format!(
                "completeness manifest covers {} of {} ranks",
                self.completeness.ranks.len(),
                self.nranks
            ));
        }
        for (rank, status) in self.completeness.ranks.iter().enumerate() {
            match status {
                RankStatus::Lost { .. } => {
                    if self.rank_lengths.get(rank).copied().unwrap_or(0) != 0 {
                        problems.push(format!(
                            "rank {rank} is marked lost but contributes {} calls",
                            self.rank_lengths[rank]
                        ));
                    }
                }
                RankStatus::Checkpoint { calls } => {
                    if self.rank_lengths.get(rank).copied().unwrap_or(0) != *calls {
                        problems.push(format!(
                            "rank {rank} checkpoint covers {calls} calls but contributes {}",
                            self.rank_lengths.get(rank).copied().unwrap_or(0)
                        ));
                    }
                }
                RankStatus::Salvaged { calls } => {
                    if self.rank_lengths.get(rank).copied().unwrap_or(0) != *calls {
                        problems.push(format!(
                            "rank {rank} salvaged span is {calls} calls but contributes {}",
                            self.rank_lengths.get(rank).copied().unwrap_or(0)
                        ));
                    }
                }
                RankStatus::Merged => {}
            }
        }
        for (rank, event) in &self.completeness.events {
            if *rank as usize >= self.nranks {
                problems.push(format!(
                    "degradation event at call {} names rank {rank} of {}",
                    event.call_index, self.nranks
                ));
            }
        }
        for (map, pool, name) in [
            (&self.duration_rank_map, self.duration_grammars.len(), "duration"),
            (&self.interval_rank_map, self.interval_grammars.len(), "interval"),
        ] {
            if !map.is_empty() && map.len() != self.nranks {
                problems.push(format!(
                    "{name} rank map has {} entries for {} ranks",
                    map.len(),
                    self.nranks
                ));
            }
            for (rank, &idx) in map.iter().enumerate() {
                if idx != RANK_MAP_NONE && idx as usize >= pool {
                    problems.push(format!(
                        "{name} rank map entry for rank {rank} points past {pool} grammars"
                    ));
                }
                // A merged rank without a timing grammar is only
                // consistent if the governor collapsed its timing.
                if idx == RANK_MAP_NONE
                    && matches!(self.completeness.status(rank), RankStatus::Merged)
                    && !self.completeness.rank_reached(rank, DegradationStage::AggregateTiming)
                {
                    problems.push(format!("rank {rank} merged fully but has no {name} grammar"));
                }
            }
        }
        problems
    }

    /// True when any rank's data is less than fully lossless: a degraded
    /// merge, a governor degradation, or a salvage recovery.
    pub fn is_degraded(&self) -> bool {
        !self.completeness.is_complete() || !self.completeness.events.is_empty()
    }

    /// Summarizes per-rank fidelity from the completeness manifest.
    pub fn fidelity(&self) -> FidelityReport {
        let mut report = FidelityReport { lossless: !self.is_degraded(), ..Default::default() };
        report.events = self.completeness.events.len();
        for rank in 0..self.nranks {
            match self.completeness.status(rank) {
                RankStatus::Merged => {}
                RankStatus::Lost { .. } => report.lost_ranks.push(rank),
                RankStatus::Checkpoint { .. } => report.checkpoint_ranks.push(rank),
                RankStatus::Salvaged { .. } => report.salvaged_ranks.push(rank),
            }
            if self.completeness.rank_reached(rank, DegradationStage::FreezeGrammar) {
                report.frozen_ranks.push(rank);
            }
            if self.completeness.rank_reached(rank, DegradationStage::AggregateTiming) {
                report.timing_degraded_ranks.push(rank);
            }
            if self.completeness.rank_reached(rank, DegradationStage::SealSegment) {
                report.sealed_ranks.push(rank);
            }
            if self.completeness.rank_reached(rank, DegradationStage::LocalSpill) {
                report.net_spilled_ranks.push(rank);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_sequitur::Grammar;

    fn tiny_trace() -> GlobalTrace {
        let mut cst = Cst::new();
        cst.observe(b"a", 10);
        cst.observe(b"b", 20);
        let mut g = Grammar::new();
        for _ in 0..3 {
            g.push(0);
            g.push(1);
        }
        GlobalTrace {
            nranks: 2,
            encoder_cfg: EncoderConfig::default(),
            cst,
            grammar: g.to_flat(),
            rank_lengths: vec![4, 2],
            unique_grammars: 1,
            duration_grammars: vec![],
            interval_grammars: vec![],
            duration_rank_map: vec![],
            interval_rank_map: vec![],
            completeness: TraceCompleteness::complete(),
            nondet: None,
        }
    }

    #[test]
    fn decode_splits_by_rank_lengths() {
        let t = tiny_trace();
        let ranks = t.decode_all_ranks();
        assert_eq!(ranks[0], vec![0, 1, 0, 1]);
        assert_eq!(ranks[1], vec![0, 1]);
    }

    #[test]
    fn serialize_roundtrip() {
        let t = tiny_trace();
        let bytes = t.serialize();
        let back = GlobalTrace::decode(&bytes).expect("decodable");
        assert_eq!(back.nranks, 2);
        assert_eq!(back.rank_lengths, vec![4, 2]);
        assert_eq!(back.unique_grammars, 1);
        assert_eq!(back.decode_all_ranks(), t.decode_all_ranks());
        assert_eq!(back.cst.len(), 2);
    }

    #[test]
    fn size_report_components_sum() {
        let t = tiny_trace();
        let r = t.size_report();
        assert_eq!(r.full_total(), t.serialize().len());
        assert!(r.cst_bytes > 0 && r.grammar_bytes > 0);
    }

    #[test]
    fn timing_grammars_roundtrip() {
        let mut t = tiny_trace();
        let mut dg = Grammar::new();
        dg.push_run(5, 10);
        t.duration_grammars = vec![dg.to_flat()];
        t.interval_grammars = vec![dg.to_flat()];
        t.duration_rank_map = vec![0, 0];
        t.interval_rank_map = vec![0, 0];
        let back = GlobalTrace::decode(&t.serialize()).unwrap();
        assert_eq!(back.duration_grammars.len(), 1);
        assert_eq!(back.duration_rank_map, vec![0, 0]);
        assert_eq!(back.duration_grammars[0].expanded_len(), 10);
    }

    #[test]
    fn manifest_roundtrips_and_costs_one_byte_when_complete() {
        let t = tiny_trace();
        assert!(t.completeness.is_complete());
        assert_eq!(t.size_report().manifest_bytes, 1);
        let back = GlobalTrace::decode(&t.serialize()).unwrap();
        assert!(back.completeness.is_complete());

        let mut d = tiny_trace();
        d.rank_lengths = vec![6, 0];
        d.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Lost { round: 1 }],
            ..Default::default()
        };
        let back = GlobalTrace::decode(&d.serialize()).unwrap();
        assert_eq!(back.completeness.status(1), RankStatus::Lost { round: 1 });
        assert_eq!(back.completeness.lost_ranks(), vec![(1, 1)]);
        assert!(!back.completeness.is_complete());
        assert_eq!(d.size_report().full_total(), d.serialize().len());
    }

    #[test]
    fn checkpoint_status_roundtrips() {
        let mut t = tiny_trace();
        t.rank_lengths = vec![4, 2];
        t.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Checkpoint { calls: 2 }],
            ..Default::default()
        };
        let back = GlobalTrace::decode(&t.serialize()).unwrap();
        assert_eq!(back.completeness.checkpoint_ranks(), vec![(1, 2)]);
        assert!(back.validate().is_empty(), "{:?}", back.validate());
    }

    #[test]
    fn rank_map_sentinel_roundtrips() {
        let mut t = tiny_trace();
        let mut dg = Grammar::new();
        dg.push_run(5, 4);
        t.rank_lengths = vec![6, 0];
        t.duration_grammars = vec![dg.to_flat()];
        t.interval_grammars = vec![dg.to_flat()];
        t.duration_rank_map = vec![0, RANK_MAP_NONE];
        t.interval_rank_map = vec![0, RANK_MAP_NONE];
        t.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Lost { round: 2 }],
            ..Default::default()
        };
        let bytes = t.serialize();
        assert_eq!(t.size_report().full_total(), bytes.len());
        let back = GlobalTrace::decode(&bytes).unwrap();
        assert_eq!(back.duration_rank_map, vec![0, RANK_MAP_NONE]);
        assert!(back.validate().is_empty(), "{:?}", back.validate());
    }

    #[test]
    fn validate_flags_inconsistencies() {
        let mut t = tiny_trace();
        assert!(t.validate().is_empty());
        // Lost rank that still claims calls.
        t.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Lost { round: 1 }],
            ..Default::default()
        };
        assert!(!t.validate().is_empty());
        // Rank lengths that disagree with the grammar.
        let mut t2 = tiny_trace();
        t2.rank_lengths = vec![4, 3];
        assert!(!t2.validate().is_empty());
    }

    fn sample_event(call_index: u64, stage: DegradationStage) -> DegradationEvent {
        DegradationEvent {
            call_index,
            stage,
            component: crate::governor::Component::CallGrammar,
            bytes: 4096,
        }
    }

    #[test]
    fn degradation_events_roundtrip_and_cost_nothing_when_absent() {
        // No events: the manifest is the legacy single zero byte.
        let clean = tiny_trace();
        assert_eq!(clean.size_report().manifest_bytes, 1);

        let mut t = tiny_trace();
        t.completeness.events = vec![
            (0, sample_event(10, DegradationStage::FreezeGrammar)),
            (0, sample_event(20, DegradationStage::AggregateTiming)),
            (1, sample_event(15, DegradationStage::SealSegment)),
        ];
        let bytes = t.serialize();
        assert_eq!(t.size_report().full_total(), bytes.len());
        let back = GlobalTrace::decode(&bytes).unwrap();
        assert_eq!(back.completeness.events, t.completeness.events);
        assert!(back.completeness.is_complete(), "events alone keep ranks merged");
        assert!(back.is_degraded());
        assert_eq!(back.completeness.events_for(0).count(), 2);
        assert!(back.completeness.rank_reached(0, DegradationStage::AggregateTiming));
        assert!(!back.completeness.rank_reached(0, DegradationStage::SealSegment));
        assert!(back.validate().is_empty(), "{:?}", back.validate());
    }

    #[test]
    fn salvaged_status_roundtrips_and_validates() {
        let mut t = tiny_trace();
        t.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Salvaged { calls: 2 }],
            ..Default::default()
        };
        let bytes = t.serialize();
        assert_eq!(t.size_report().full_total(), bytes.len());
        let back = GlobalTrace::decode(&bytes).unwrap();
        assert_eq!(back.completeness.status(1), RankStatus::Salvaged { calls: 2 });
        assert_eq!(back.completeness.salvaged_ranks(), vec![(1, 2)]);
        assert!(back.validate().is_empty(), "{:?}", back.validate());
        assert_eq!(back.fidelity().salvaged_ranks, vec![1]);
        assert!(!back.fidelity().lossless);
    }

    #[test]
    fn timing_degraded_rank_passes_validate_with_event() {
        let mut t = tiny_trace();
        let mut dg = Grammar::new();
        dg.push_run(5, 6);
        t.duration_grammars = vec![dg.to_flat()];
        t.interval_grammars = vec![dg.to_flat()];
        // Rank 1 dropped its timing mid-run: map sentinel + an event.
        t.duration_rank_map = vec![0, RANK_MAP_NONE];
        t.interval_rank_map = vec![0, RANK_MAP_NONE];
        t.completeness.events = vec![(1, sample_event(3, DegradationStage::AggregateTiming))];
        let back = GlobalTrace::decode(&t.serialize()).unwrap();
        assert!(back.validate().is_empty(), "{:?}", back.validate());
        assert_eq!(back.fidelity().timing_degraded_ranks, vec![1]);
        // Without the event the same trace is inconsistent.
        let mut bad = back.clone();
        bad.completeness.events.clear();
        assert!(!bad.validate().is_empty());
    }

    #[test]
    fn fidelity_of_clean_trace_is_lossless() {
        let t = tiny_trace();
        let f = t.fidelity();
        assert!(f.lossless);
        assert!(f.frozen_ranks.is_empty() && f.sealed_ranks.is_empty());
        assert_eq!(f.events, 0);
    }
}
