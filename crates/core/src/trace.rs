//! The merged trace: a globally merged CST, one grammar generating the
//! concatenation of all ranks' terminal sequences, and (optionally)
//! deduplicated timing grammars. [`crate::export::write_container`] writes
//! it to disk as a `PGC1` container; [`GlobalTrace::size_report`] is the
//! "trace file size" of every experiment.

use pilgrim_sequitur::{varint_len, Cursor, FlatGrammar};

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

/// Per-rank merge completeness, written into each rank's container
/// section. An empty rank list means every rank merged fully (the common
/// case costs one byte of the trace size); degradation events appear only
/// when a governed run actually degraded, so ungoverned traces are
/// byte-identical to the pre-governor format.
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

    /// The canonical manifest for a full per-rank status list: what a
    /// container roundtrip preserves. An all-`Merged` list collapses to the
    /// empty list even when degradation events are present, so every
    /// producer (batch merge, streaming merge, the container decoder)
    /// compares equal across a write/decode roundtrip.
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

    /// The manifest's share of the trace size: a flag byte, then — only
    /// when some rank did not merge fully — a status varint per rank (plus
    /// its round or call count), then — only when the governor acted — an
    /// event count and each event with its rank varint.
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
}

/// The paper's trace size, by component: the CST, the CFG, the timing
/// grammars and the metadata, each counted at its varint-encoded length
/// ([`GlobalTrace::size_report`]). The `PGC1` container holds the same
/// content plus its own framing (magic, section headers, CRC32s), which is
/// not part of the paper's number.
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

    /// Total including the timing grammars.
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

/// The merged trace.
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
    /// the optional `PGND` container section and not counted in
    /// [`GlobalTrace::size_report`].
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
    /// Total calls across all ranks (saturating; the strict decoder
    /// refuses a table whose sum overflows or disagrees with the grammar).
    pub fn total_calls(&self) -> u64 {
        checked_total(self.rank_lengths.iter().copied()).unwrap_or(u64::MAX)
    }

    /// Streams rank `rank`'s terminals — and only that rank's: the cursor
    /// seeks to the rank's span, holds O(grammar depth) memory and costs
    /// what is consumed, so this is the primitive for input that is not
    /// trusted. Clamped: a length table that claims more than the grammar
    /// generates (a hand-built or salvaged trace — the strict decoder
    /// refuses one) yields short or empty tails, and a rank the trace does
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

    /// The paper's trace size by component ([`SizeReport`]), computed from
    /// the parts: the CST, the grammars and the metadata at their
    /// varint-encoded lengths. Pinned by literal values in this module's
    /// tests and by `results/SIZES.tsv`.
    pub fn size_report(&self) -> SizeReport {
        let cst_bytes = self.cst.byte_size();
        let grammar_bytes = self.grammar.byte_size();
        let duration_bytes: usize = self.duration_grammars.iter().map(|g| g.byte_size()).sum();
        let interval_bytes: usize = self.interval_grammars.iter().map(|g| g.byte_size()).sum();
        // The config byte, then the rank, unique-grammar and two timing
        // grammar counts; the timing maps store entries +1 so that zero is
        // the no-grammar sentinel.
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
    use crate::export::write_container;
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

    /// Writes `t` as a `PGC1` container and strictly decodes it back.
    fn roundtrip(t: &GlobalTrace) -> GlobalTrace {
        GlobalTrace::decode_container(&write_container(t)).expect("decodable")
    }

    #[test]
    fn serialize_roundtrip() {
        let t = tiny_trace();
        let back = roundtrip(&t);
        assert_eq!(back.nranks, 2);
        assert_eq!(back.rank_lengths, vec![4, 2]);
        assert_eq!(back.unique_grammars, 1);
        assert_eq!(back.decode_all_ranks(), t.decode_all_ranks());
        assert_eq!(back.cst.len(), 2);
        assert_eq!(write_container(&back), write_container(&t));
    }

    // The `full_total()` literals below are the lengths of the flat
    // serialization the size formula was proven equal to before that
    // format was removed; they pin the formula now that no writer checks it.

    #[test]
    fn size_report_components_sum() {
        let t = tiny_trace();
        let r = t.size_report();
        assert_eq!(r.full_total(), 26);
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
        assert_eq!(t.size_report().full_total(), 38);
        let back = roundtrip(&t);
        assert_eq!(back.duration_grammars.len(), 1);
        assert_eq!(back.duration_rank_map, vec![0, 0]);
        assert_eq!(back.duration_grammars[0].expanded_len(), 10);
    }

    #[test]
    fn manifest_roundtrips_and_costs_one_byte_when_complete() {
        let t = tiny_trace();
        assert!(t.completeness.is_complete());
        assert_eq!(t.size_report().manifest_bytes, 1);
        assert!(roundtrip(&t).completeness.is_complete());

        let mut d = tiny_trace();
        d.rank_lengths = vec![6, 0];
        d.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Lost { round: 1 }],
            ..Default::default()
        };
        let back = roundtrip(&d);
        assert_eq!(back.completeness.status(1), RankStatus::Lost { round: 1 });
        assert_eq!(back.completeness.lost_ranks(), vec![(1, 1)]);
        assert!(!back.completeness.is_complete());
        assert_eq!(d.size_report().full_total(), 29);
    }

    #[test]
    fn checkpoint_status_roundtrips() {
        let mut t = tiny_trace();
        t.rank_lengths = vec![4, 2];
        t.completeness = TraceCompleteness {
            ranks: vec![RankStatus::Merged, RankStatus::Checkpoint { calls: 2 }],
            ..Default::default()
        };
        assert_eq!(t.size_report().full_total(), 29);
        let back = roundtrip(&t);
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
        let r = t.size_report();
        assert_eq!((r.full_total(), r.rank_map_bytes, r.manifest_bytes), (41, 4, 4));
        let back = roundtrip(&t);
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
        // No events: the manifest is a single zero byte.
        let clean = tiny_trace();
        assert_eq!(clean.size_report().manifest_bytes, 1);

        let mut t = tiny_trace();
        t.completeness.events = vec![
            (0, sample_event(10, DegradationStage::FreezeGrammar)),
            (0, sample_event(20, DegradationStage::AggregateTiming)),
            (1, sample_event(15, DegradationStage::SealSegment)),
        ];
        assert_eq!(t.size_report().full_total(), 45);
        let back = roundtrip(&t);
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
        assert_eq!(t.size_report().full_total(), 29);
        let back = roundtrip(&t);
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
        let back = roundtrip(&t);
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
