//! Inter-process compression (paper §3.5): one merge core, two ways in.
//!
//! Every path to a trace ends in the same five steps — CST merge,
//! terminal renumbering, grammar identity check, hash-consing of shared
//! rules, and a final Sequitur pass over the per-rank top-level sequence —
//! and this module holds each of them once:
//!
//! - **this file** owns what the paths share: the grammar set with its
//!   identity check and per-rank statuses ([`RankGrammars`]), segment
//!   assembly ([`RankSegments`]: absorb a segment's CST, renumber its
//!   grammar, wrap sealed segments under one top rule), terminal
//!   renumbering ([`map_terminals`]), [`combine_grammars`] with its
//!   hash-cons and graft, and the one rank-0 [`Merged::finish`] that
//!   turns merged sets into a [`GlobalTrace`];
//! - `tree` owns the paper's fault-tolerant `log2(P)` binomial
//!   gather/broadcast that feeds the core at `MPI_Finalize`;
//! - `stream` owns the collector's [`IncrementalMerger`]: segments in
//!   arrival order, canonical renumbering at finalize, open ranks.
//!
//! Both feed [`Merged::finish`] the same values in the same order, which
//! is why batch, streamed, governor-sealed and WAL-recovered jobs write
//! byte-identical containers.

mod stream;
mod tree;

use std::collections::HashMap;

use pilgrim_sequitur::{compress_runs, FlatGrammar, FlatRule, Symbol};

use crate::cst::Cst;
use crate::encode::EncoderConfig;
use crate::governor::{DegradationEvent, DegradationStage};
use crate::trace::{checked_total, GlobalTrace, RankStatus, TraceCompleteness, RANK_MAP_NONE};

pub use stream::{IncrementalMerger, RankCompletion, SegmentError, TraceSegment};
pub use tree::{merge, LocalPiece, MergeError, MergeOptions, MergeOutcome, MergePolicy};

/// A set of unique grammars, each tagged with the `(rank, call_count)`
/// pairs that produced it.
type GrammarSet = Vec<(FlatGrammar, Vec<(u64, u64)>)>;

/// Degradation events, each tagged with the rank that produced it.
type EventList = Vec<(u64, DegradationEvent)>;

/// The identity check (§3.5.2), once: adds `grammar` to `set`, folding it
/// into an identical entry's rank list when `identity_check` is on.
/// Returns whether it folded.
fn add_grammar(
    set: &mut GrammarSet,
    identity_check: bool,
    grammar: FlatGrammar,
    ranks: Vec<(u64, u64)>,
) -> bool {
    let twin = if identity_check { set.iter_mut().find(|(g, _)| *g == grammar) } else { None };
    match twin {
        Some((_, existing)) => {
            existing.extend(ranks);
            true
        }
        None => {
            set.push((grammar, ranks));
            false
        }
    }
}

/// [`add_grammar`] over a whole incoming set; returns the identity hits.
fn merge_sets(mine: &mut GrammarSet, incoming: GrammarSet, identity_check: bool) -> u64 {
    incoming.into_iter().map(|(g, ranks)| add_grammar(mine, identity_check, g, ranks) as u64).sum()
}

/// The merged per-rank call grammars: the unique grammars with their rank
/// lists, and how each rank's trace got in. A rank nobody added stays
/// `Lost { round: 0 }`.
#[derive(Debug)]
struct RankGrammars {
    identity_check: bool,
    set: GrammarSet,
    statuses: Vec<RankStatus>,
}

impl RankGrammars {
    fn new(nranks: usize, identity_check: bool) -> Self {
        let statuses = vec![RankStatus::Lost { round: 0 }; nranks];
        RankGrammars { identity_check, set: Vec::new(), statuses }
    }

    /// Adopts a set the tree gathered: every rank it lists is `Merged`.
    /// Ranks added afterwards (recovered checkpoints) always take the
    /// identity check, whatever the gather's own setting was.
    fn gathered(set: GrammarSet, nranks: usize) -> Self {
        let mut ranks = RankGrammars::new(nranks, true);
        for &(r, _) in set.iter().flat_map(|(_, list)| list) {
            if let Some(status) = ranks.statuses.get_mut(r as usize) {
                *status = RankStatus::Merged;
            }
        }
        ranks.set = set;
        ranks
    }

    /// Adds one rank's full-trace grammar with the status it earned.
    fn add_rank(&mut self, rank: usize, grammar: FlatGrammar, calls: u64, status: RankStatus) {
        add_grammar(&mut self.set, self.identity_check, grammar, vec![(rank as u64, calls)]);
        self.statuses[rank] = status;
    }
}

/// Renumbers a grammar's terminals in place: `remap[old] == new`.
fn renumber(g: &mut FlatGrammar, remap: &[u32]) {
    g.map_symbols(|sym| match sym {
        Symbol::Terminal(t) => Symbol::Terminal(remap[t as usize]),
        rule => rule,
    });
}

/// Applies a terminal renumbering to a grammar.
pub fn map_terminals(g: &FlatGrammar, remap: &[u32]) -> FlatGrammar {
    let mut out = g.clone();
    renumber(&mut out, remap);
    out
}

/// One rank's grammar segments in stream order, already renumbered into
/// their owner's CST. The tracer (retained sealed segments), the collector
/// (streamed segments, salvaged prefixes) and the tree (a dead rank's
/// checkpoint) all assemble a rank's full-trace grammar through this.
#[derive(Debug, Default)]
pub(crate) struct RankSegments {
    grammars: Vec<FlatGrammar>,
    /// Any sealed segment forces the wrap rule, even a lone one.
    wrapped: bool,
}

impl RankSegments {
    /// Segments pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.grammars.len()
    }

    /// Folds one segment in: absorbs its signature table into `cst` and
    /// renumbers its grammar to match. `grammar`'s terminals must index
    /// `seg_cst` ([`crate::checkpoint::decode_checkpoint`] guarantees it).
    /// Returns the renumbering, for owners that track first appearances.
    pub(crate) fn push(
        &mut self,
        cst: &mut Cst,
        seg_cst: &Cst,
        mut grammar: FlatGrammar,
        sealed: bool,
    ) -> Vec<u32> {
        let remap = cst.absorb(seg_cst);
        renumber(&mut grammar, &remap);
        self.grammars.push(grammar);
        self.wrapped |= sealed;
        remap
    }

    /// The rank's full-trace grammar: a lone unsealed segment is the
    /// grammar itself; otherwise rule 0 references each segment's top
    /// rule in stream order (the intra-rank analogue of the inter-process
    /// `S -> S1 S2` merge rule), with every segment's rule ids offset into
    /// one space.
    pub(crate) fn assemble(self) -> FlatGrammar {
        if !self.wrapped && self.grammars.len() <= 1 {
            return self.grammars.into_iter().next().unwrap_or_else(FlatGrammar::empty);
        }
        let mut out = FlatGrammar::empty();
        let tops = self.grammars.into_iter().map(|g| (Symbol::Rule(out.append(g)), 1)).collect();
        out.rules[0].symbols = tops;
        out
    }
}

/// Everything a merge holds when it is time to write the trace: what the
/// tree's root has after its gathers, and what the collector has once it
/// renumbered canonically. `ranks` and `cst` share one terminal space;
/// timing grammars are bin-id space.
struct Merged {
    ranks: RankGrammars,
    dur_set: GrammarSet,
    int_set: GrammarSet,
    events: EventList,
    cst: Cst,
    encoder_cfg: EncoderConfig,
}

impl Merged {
    /// The one rank-0 tail: completeness manifest, hash-cons + final
    /// Sequitur pass, timing split.
    fn finish(self) -> GlobalTrace {
        let nranks = self.ranks.statuses.len();
        // Degradation events, sorted by (rank, call order) for determinism
        // regardless of arrival order. Events from ranks beyond the world
        // (corrupt payloads) are dropped.
        let mut events: Vec<(u32, DegradationEvent)> = self
            .events
            .into_iter()
            .filter(|&(r, _)| (r as usize) < nranks)
            .map(|(r, ev)| (r as u32, ev))
            .collect();
        events.sort_by_key(|&(r, ev)| (r, ev.call_index, ev.stage.code()));
        let completeness = TraceCompleteness::canonical(self.ranks.statuses, events);

        let set = self.ranks.set;
        let (grammar, rank_lengths) = combine_grammars(&set, nranks);
        let (duration_grammars, mut duration_rank_map) = split_timing(self.dur_set, nranks);
        let (interval_grammars, mut interval_rank_map) = split_timing(self.int_set, nranks);
        // A rank whose governor collapsed per-call timing contributed an
        // empty placeholder grammar (so the timing gathers stayed symmetric
        // across ranks); point its map entries at the "no grammar" sentinel
        // consumers already understand.
        for &(r, ev) in &completeness.events {
            if ev.stage.is_memory_rung() && ev.stage >= DegradationStage::AggregateTiming {
                for map in [&mut duration_rank_map, &mut interval_rank_map] {
                    if let Some(slot) = map.get_mut(r as usize) {
                        *slot = RANK_MAP_NONE;
                    }
                }
            }
        }
        GlobalTrace {
            nranks,
            encoder_cfg: self.encoder_cfg,
            cst: self.cst,
            grammar,
            rank_lengths,
            unique_grammars: set.len(),
            duration_grammars,
            interval_grammars,
            duration_rank_map,
            interval_rank_map,
            completeness,
            nondet: None,
        }
    }
}

fn split_timing(set: GrammarSet, nranks: usize) -> (Vec<FlatGrammar>, Vec<u32>) {
    if set.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Ranks with no timing grammar (lost in a degraded merge) keep the
    // sentinel, serialized as "no grammar".
    let mut rank_map = vec![RANK_MAP_NONE; nranks];
    let mut grammars = Vec::with_capacity(set.len());
    for (i, (g, ranks)) in set.into_iter().enumerate() {
        for (r, _) in ranks {
            rank_map[r as usize] = i as u32;
        }
        grammars.push(g);
    }
    (grammars, rank_map)
}

/// Rank-0 combination: hash-cons rules across unique grammars, build the
/// per-rank top-level sequence, re-compress it with Sequitur, and graft.
/// Ranks absent from every rank list (lost in a degraded merge)
/// contribute nothing and get a zero rank length.
pub fn combine_grammars(set: &GrammarSet, nranks: usize) -> (FlatGrammar, Vec<u64>) {
    // Collect all rules into one space; remember each grammar's top rule.
    let mut forest = FlatGrammar { rules: Vec::new() };
    let tops: Vec<u32> = set.iter().map(|(g, _)| forest.append(g.clone())).collect();
    // Hash-cons: structurally identical rules collapse (Fig 4's shared X).
    let (consed, root_map) = hash_cons(forest.rules, &tops);
    // Per-rank top-rule sequence in rank order; `None` marks a lost rank.
    let mut rank_root: Vec<Option<u32>> = vec![None; nranks];
    let mut rank_lengths = vec![0u64; nranks];
    for ((g, ranks), &top) in set.iter().zip(&tops) {
        let root = root_map[top as usize];
        let len = g.expanded_len();
        for &(r, _) in ranks {
            rank_root[r as usize] = Some(root);
            rank_lengths[r as usize] = len;
        }
    }
    // Collapse into runs and intern roots as temporary terminals.
    let mut distinct: Vec<u32> = Vec::new();
    let mut index: HashMap<u32, u32> = HashMap::new();
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for root in rank_root.iter().filter_map(|r| *r) {
        let k = *index.entry(root).or_insert_with(|| {
            distinct.push(root);
            (distinct.len() - 1) as u32
        });
        match runs.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => runs.push((k, 1)),
        }
    }
    // Final Sequitur pass over the top-level sequence (§3.5.2).
    let mut combined = compress_runs(&runs);
    // Graft: the pass's rules come first, its temporary terminals become
    // references to the consed roots that follow.
    let base = combined.rules.len() as u32;
    combined.map_symbols(|sym| match sym {
        Symbol::Terminal(k) => Symbol::Rule(base + distinct[k as usize]),
        rule => rule,
    });
    combined.append(FlatGrammar { rules: consed });
    debug_assert_eq!(
        Some(combined.expanded_len()),
        checked_total(rank_lengths.iter().copied()),
        "combined grammar must generate all ranks' calls"
    );
    (combined, rank_lengths)
}

/// Iterative hash-consing of a rule forest: returns the deduplicated rule
/// list and the old-index -> new-index map, total over every rule
/// reachable from `roots`. (Iterative: rank threads run on small stacks.)
fn hash_cons(mut rules: Vec<FlatRule>, roots: &[u32]) -> (Vec<FlatRule>, Vec<u32>) {
    const UNSEEN: u32 = u32::MAX;
    let mut new_id = vec![UNSEEN; rules.len()];
    let mut canon: HashMap<FlatRule, u32> = HashMap::new();
    let mut out: Vec<FlatRule> = Vec::new();
    for &root in roots {
        // Explicit DFS with a visit stack: process children first.
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if new_id[id as usize] != UNSEEN {
                continue;
            }
            if !expanded {
                stack.push((id, true));
                for &(s, _) in &rules[id as usize].symbols {
                    if let Symbol::Rule(q) = s {
                        if new_id[q as usize] == UNSEEN {
                            stack.push((q, false));
                        }
                    }
                }
            } else {
                // Post-order: every rule this one references is consed.
                let mut fr = FlatRule { symbols: std::mem::take(&mut rules[id as usize].symbols) };
                fr.map_symbols(|sym| match sym {
                    Symbol::Rule(q) => Symbol::Rule(new_id[q as usize]),
                    terminal => terminal,
                });
                new_id[id as usize] = *canon.entry(fr.clone()).or_insert_with(|| {
                    out.push(fr);
                    (out.len() - 1) as u32
                });
            }
        }
    }
    (out, new_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_sequitur::Grammar;

    pub(super) fn grammar_of(seq: &[u32]) -> FlatGrammar {
        let mut g = Grammar::new();
        for &t in seq {
            g.push(t);
        }
        g.to_flat()
    }

    #[test]
    fn identical_grammars_dedup_in_sets() {
        let g = grammar_of(&[1, 2, 1, 2]);
        let mut mine: GrammarSet = vec![(g.clone(), vec![(0, 4)])];
        assert_eq!(merge_sets(&mut mine, vec![(g.clone(), vec![(1, 4)])], true), 1);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].1, vec![(0, 4), (1, 4)]);
        assert_eq!(merge_sets(&mut mine, vec![(grammar_of(&[9]), vec![(2, 1)])], true), 0);
        assert_eq!(mine.len(), 2);
        // The ablation keeps even identical grammars apart.
        assert_eq!(merge_sets(&mut mine, vec![(g, vec![(3, 4)])], false), 0);
        assert_eq!(mine.len(), 3);
    }

    #[test]
    fn combine_identical_ranks_is_compact() {
        // 8 ranks, all with the same grammar: top level becomes one
        // counted reference (paper: constant-size inter-process merge).
        let g = grammar_of(&[5, 6, 5, 6, 5, 6]);
        let set: GrammarSet = vec![(g, (0..8).map(|r| (r, 6)).collect())];
        let (combined, lens) = combine_grammars(&set, 8);
        assert_eq!(lens, vec![6; 8]);
        assert_eq!(combined.expanded_len(), 48);
        let expanded = combined.expand();
        assert_eq!(&expanded[..6], &[5, 6, 5, 6, 5, 6]);
        assert_eq!(&expanded[42..], &[5, 6, 5, 6, 5, 6]);
        // Adding ranks must not add rules: the top is a counted run.
        let g2 = grammar_of(&[5, 6, 5, 6, 5, 6]);
        let set2: GrammarSet = vec![(g2, (0..64).map(|r| (r, 6)).collect())];
        let (combined2, _) = combine_grammars(&set2, 64);
        assert_eq!(combined2.num_rules(), combined.num_rules());
    }

    #[test]
    fn combine_skips_lost_ranks() {
        // Rank 1 of 3 is lost: it must contribute nothing — not rank 0's
        // sequence (the old behavior spliced root 0 in for missing ranks).
        let a = grammar_of(&[1, 2, 1, 2]);
        let b = grammar_of(&[7, 8]);
        let set: GrammarSet = vec![(a, vec![(0, 4)]), (b, vec![(2, 2)])];
        let (combined, lens) = combine_grammars(&set, 3);
        assert_eq!(lens, vec![4, 0, 2]);
        assert_eq!(combined.expanded_len(), 6);
        assert_eq!(combined.expand(), vec![1, 2, 1, 2, 7, 8]);
    }

    #[test]
    fn combine_shares_rules_across_grammars() {
        // Figure 4: two grammar shapes sharing sub-structure.
        let a = grammar_of(&[1, 2, 1, 2, 3, 3]);
        let b = grammar_of(&[1, 2, 1, 2, 9, 9]);
        let set: GrammarSet =
            vec![(a.clone(), vec![(0, 6), (1, 6)]), (b.clone(), vec![(2, 6), (3, 6)])];
        let (combined, lens) = combine_grammars(&set, 4);
        assert_eq!(lens, vec![6; 4]);
        let expanded = combined.expand();
        assert_eq!(&expanded[..6], &[1, 2, 1, 2, 3, 3]);
        assert_eq!(&expanded[12..18], &[1, 2, 1, 2, 9, 9]);
    }

    #[test]
    fn interleaved_rank_assignment_preserves_order() {
        // Odd ranks have one grammar, even ranks another.
        let a = grammar_of(&[1]);
        let b = grammar_of(&[2]);
        let set: GrammarSet = vec![(a, vec![(0, 1), (2, 1)]), (b, vec![(1, 1), (3, 1)])];
        let (combined, _) = combine_grammars(&set, 4);
        assert_eq!(combined.expand(), vec![1, 2, 1, 2]);
    }

    #[test]
    fn map_terminals_renumbers() {
        let g = grammar_of(&[0, 1, 0, 1]);
        let m = map_terminals(&g, &[10, 20]);
        assert_eq!(m.expand(), vec![10, 20, 10, 20]);
    }

    #[test]
    fn hash_cons_collapses_identical_rules() {
        // Two copies of the same two-rule grammar.
        let g = grammar_of(&[4, 5, 4, 5, 4, 5, 4, 5]);
        assert!(g.num_rules() >= 2, "test needs a sub-rule");
        let mut forest = FlatGrammar { rules: Vec::new() };
        let roots = [forest.append(g.clone()), forest.append(g.clone())];
        let (consed, map) = hash_cons(forest.rules, &roots);
        assert_eq!(consed.len(), g.num_rules(), "duplicate rules must collapse");
        assert_eq!(map[roots[0] as usize], map[roots[1] as usize]);
    }

    #[test]
    fn segments_assemble_like_the_stream_says() {
        let seg = |sigs: &[&[u8]]| {
            let mut cst = Cst::new();
            let mut g = Grammar::new();
            for s in sigs {
                g.push(cst.observe(s, 1));
            }
            (cst, g.to_flat())
        };
        // A lone unsealed segment is the grammar itself, renumbered.
        let mut cst = Cst::new();
        cst.observe(b"z", 1);
        let (scst, g) = seg(&[b"a", b"z", b"a"]);
        let mut lone = RankSegments::default();
        assert_eq!(lone.push(&mut cst, &scst, g, false), vec![1, 0]);
        assert_eq!(lone.assemble().expand(), vec![1, 0, 1]);
        // A sealed segment wraps, even alone; later segments follow it.
        let mut cst = Cst::new();
        let mut segs = RankSegments::default();
        let (scst, g) = seg(&[b"a", b"b"]);
        segs.push(&mut cst, &scst, g, true);
        let (scst, g) = seg(&[b"b", b"c"]);
        segs.push(&mut cst, &scst, g, false);
        assert_eq!(segs.len(), 2);
        let full = segs.assemble();
        assert_eq!(full.rules[0].symbols.len(), 2);
        assert_eq!(full.expand(), vec![0, 1, 1, 2]);
        assert_eq!(RankSegments::default().assemble(), FlatGrammar::empty());
    }
}
