//! Grammar-aware analytics: answers computed in time proportional to
//! *grammar* size, not trace length.
//!
//! Every query here follows the same scheme: evaluate each rule body
//! exactly once into a sparse per-signature histogram (the walker's
//! bottom-up pass, children first), then combine child histograms through
//! reference sites weighted by the `A -> B^k` repeat exponents. A window is
//! one more rule body — its cover, from the walker's cursor. A rule shared
//! by a million loop iterations is therefore aggregated a single time, and
//! the grammar is never expanded — [`pilgrim_sequitur::expansions`] stays
//! flat across any query, which the tests assert.

use std::collections::HashMap;

use mpi_sim::FuncId;
use pilgrim_sequitur::{bottom_up, read_varint, Symbol, TOP_RULE};

use crate::encode::{decode_signature, EncodedArg, RankCode};
use crate::metrics::{MetricsRegistry, Stage};
use crate::trace::GlobalTrace;

use super::index::TraceIndex;

/// Sparse per-signature call counts (terminal -> occurrences).
pub type SigCounts = HashMap<u32, u64>;

/// Per-signature summary row: occurrence count plus estimated aggregate
/// time, apportioned from the CST's aggregate timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSummary {
    /// Grammar terminal / CST index.
    pub term: u32,
    /// MPI function id of the signature.
    pub func: u16,
    /// Calls with this signature in the queried window.
    pub count: u64,
    /// Estimated time spent in those calls (simulated ns): the CST's
    /// `dur_sum` scaled by `count / total_count` in integer math.
    pub time_ns: u64,
}

/// Point-to-point communication matrix. `sends[src * nranks + dst]`
/// counts messages src sent to dst; `recvs[dst * nranks + src]` counts
/// receives dst posted naming src. Wildcard receives (`MPI_ANY_SOURCE`)
/// are tallied separately since they name no peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    pub nranks: usize,
    pub sends: Vec<u64>,
    pub recvs: Vec<u64>,
    /// Receives posted with `MPI_ANY_SOURCE`, per destination rank.
    pub wildcard_recvs: Vec<u64>,
    /// Send/recv endpoints that named `MPI_PROC_NULL` or a rank outside
    /// the world (e.g. a relative peer of an edge rank in an open-chain
    /// pattern); these transfer nothing and join no matrix cell.
    pub dropped: u64,
}

impl CommMatrix {
    /// Total messages sent (sum of the send matrix).
    pub fn total_sends(&self) -> u64 {
        self.sends.iter().sum()
    }

    /// Total posted receives, wildcards included.
    pub fn total_recvs(&self) -> u64 {
        self.recvs.iter().sum::<u64>() + self.wildcard_recvs.iter().sum::<u64>()
    }
}

/// The analytics engine: per-rule histograms memoized once, ready to
/// answer window and whole-trace queries without expansion.
///
/// Construction evaluates each rule body exactly once (the expensive
/// part); every query after that prunes its descent to the window
/// boundaries and reuses the memoized histograms for fully covered
/// subtrees.
#[derive(Debug)]
pub struct QueryEngine<'a> {
    trace: &'a GlobalTrace,
    index: &'a TraceIndex,
    metrics: Option<&'a MetricsRegistry>,
    /// Per-rule sparse histogram of the signatures the rule generates.
    rule_hists: Vec<SigCounts>,
}

impl<'a> QueryEngine<'a> {
    /// Builds the engine, evaluating every rule body once.
    pub fn new(trace: &'a GlobalTrace, index: &'a TraceIndex) -> Self {
        Self::build(trace, index, None)
    }

    /// [`QueryEngine::new`], with queries timed under [`Stage::Query`].
    pub fn with_metrics(
        trace: &'a GlobalTrace,
        index: &'a TraceIndex,
        metrics: &'a MetricsRegistry,
    ) -> Self {
        Self::build(trace, index, Some(metrics))
    }

    fn build(
        trace: &'a GlobalTrace,
        index: &'a TraceIndex,
        metrics: Option<&'a MetricsRegistry>,
    ) -> Self {
        let _t = metrics.map(|m| m.time_stage(Stage::Query));
        let mut rule_hists = vec![SigCounts::new(); trace.grammar.rules.len()];
        // A grammar the pass refuses (assembled in memory, never decoded)
        // also indexes as empty, so no query reaches its histograms.
        let _ = bottom_up(&trace.grammar, |rid, _| {
            let mut hist = SigCounts::new();
            for &(sym, exp) in &trace.grammar.rules[rid].symbols {
                add_piece(&mut hist, &rule_hists, sym, exp);
            }
            rule_hists[rid] = hist;
        });
        QueryEngine { trace, index, metrics, rule_hists }
    }

    fn timed(&self) -> Option<crate::metrics::StageGuard<'a>> {
        self.metrics.map(|m| m.time_stage(Stage::Query))
    }

    /// Fidelity of the trace behind the answers: a query over a degraded
    /// trace (governed run, degraded merge, or salvage recovery) is
    /// answering from partial or structurally coarsened data, and callers
    /// presenting results should surface that.
    pub fn fidelity(&self) -> crate::trace::FidelityReport {
        self.trace.fidelity()
    }

    /// True when any rank's data is less than fully lossless (see
    /// [`GlobalTrace::is_degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.trace.is_degraded()
    }

    /// Signature counts for the whole trace (the start rule's histogram).
    pub fn signature_counts(&self) -> &SigCounts {
        &self.rule_hists[TOP_RULE as usize]
    }

    /// Signature counts for one rank (a window query over its span).
    pub fn rank_signature_counts(&self, rank: usize) -> SigCounts {
        let (lo, hi) = self.index.rank_span(rank);
        self.window_counts(lo, hi)
    }

    /// Signature counts for the global offset window `[lo, hi)`: the sum
    /// over the window's cover, where every rule instance fully inside the
    /// window contributes its memoized histogram scaled by the instance
    /// count and only the instances the boundaries cut are descended into.
    pub fn window_counts(&self, lo: u64, hi: u64) -> SigCounts {
        let _t = self.timed();
        let mut out = SigCounts::new();
        let mut cover = self.index.cursor(self.trace, lo, hi);
        while let Some((sym, count)) = cover.next_cover() {
            add_piece(&mut out, &self.rule_hists, sym, count);
        }
        if let Some(m) = self.metrics {
            m.incr("query.windows", 1);
        }
        out
    }

    /// Expands a count histogram into per-signature summary rows (sorted
    /// by terminal), apportioning each signature's aggregate CST time by
    /// the fraction of its occurrences inside the window.
    pub fn summarize(&self, counts: &SigCounts) -> Vec<SignatureSummary> {
        let _t = self.timed();
        let mut rows: Vec<SignatureSummary> = counts
            .iter()
            .map(|(&term, &count)| {
                let stats = self.trace.cst.stats(term);
                let time_ns = if stats.count == 0 {
                    0
                } else {
                    (stats.dur_sum as u128 * count as u128 / stats.count as u128) as u64
                };
                SignatureSummary { term, func: sig_func(self.trace, term), count, time_ns }
            })
            .collect();
        rows.sort_by_key(|r| r.term);
        rows
    }

    /// Computes the point-to-point communication matrix. Each distinct
    /// (rank, signature) pair is classified once — the per-rank
    /// histograms supply the multiplicities — so the cost is
    /// O(ranks × distinct signatures), independent of trace length, and
    /// the grammar is never expanded.
    pub fn comm_matrix(&self) -> CommMatrix {
        let _t = self.timed();
        let n = self.trace.nranks;
        let mut m = CommMatrix {
            nranks: n,
            sends: vec![0; n * n],
            recvs: vec![0; n * n],
            wildcard_recvs: vec![0; n],
            dropped: 0,
        };
        // Decode + classify each distinct signature once.
        let mut roles: HashMap<u32, Vec<(PeerRole, RankCode)>> = HashMap::new();
        for rank in 0..n {
            let counts = self.rank_signature_counts(rank);
            for (&term, &count) in &counts {
                let role =
                    roles.entry(term).or_insert_with(|| classify_peers(self.trace, term)).clone();
                for (kind, code) in role {
                    let peer = code.absolutize(rank as i64);
                    match kind {
                        PeerRole::SendDst => {
                            if (0..n as i64).contains(&peer) {
                                m.sends[rank * n + peer as usize] += count;
                            } else {
                                m.dropped += count;
                            }
                        }
                        PeerRole::RecvSrc => {
                            if code == RankCode::AnySource {
                                m.wildcard_recvs[rank] += count;
                            } else if (0..n as i64).contains(&peer) {
                                m.recvs[rank * n + peer as usize] += count;
                            } else {
                                m.dropped += count;
                            }
                        }
                    }
                }
            }
        }
        if let Some(metrics) = self.metrics {
            metrics.incr("query.matrix", 1);
            metrics.set_gauge("query.matrix.sends", m.total_sends());
        }
        m
    }
}

/// Adds `count` instances of `sym` to `out`: a terminal run directly, a
/// rule through its finished histogram.
fn add_piece(out: &mut SigCounts, rule_hists: &[SigCounts], sym: Symbol, count: u64) {
    match sym {
        Symbol::Terminal(t) => *out.entry(t).or_insert(0) += count,
        Symbol::Rule(r) => {
            for (&t, &c) in &rule_hists[r as usize] {
                *out.entry(t).or_insert(0) += c * count;
            }
        }
    }
}

/// Which peer a rank argument names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerRole {
    SendDst,
    RecvSrc,
}

/// The function id of a signature, read without a full decode.
fn sig_func(trace: &GlobalTrace, term: u32) -> u16 {
    let sig = trace.cst.signature(term);
    let mut pos = 0usize;
    read_varint(sig, &mut pos).unwrap_or(0) as u16
}

/// Classifies a signature's rank arguments into message endpoints: the
/// destination of the message it sends and the source of the receive it
/// posts, where its function's shape says they sit. Persistent-request
/// inits and probes are skipped — they move no data at the call site —
/// matching how communication matrices are conventionally attributed.
fn classify_peers(trace: &GlobalTrace, term: u32) -> Vec<(PeerRole, RankCode)> {
    let Some(call) = decode_signature(trace.cst.signature(term)) else {
        return Vec::new();
    };
    let Some(shape) = FuncId::from_id(call.func).map(FuncId::shape) else {
        return Vec::new();
    };
    let peer = |role: PeerRole, at: Option<u8>| match call.args.get(at? as usize)? {
        EncodedArg::Rank(code) => Some((role, *code)),
        _ => None,
    };
    let source = shape.recv.filter(|recv| !recv.probe).map(|recv| recv.source);
    peer(PeerRole::SendDst, shape.dst).into_iter().chain(peer(PeerRole::RecvSrc, source)).collect()
}

#[cfg(test)]
mod tests {
    use super::super::index::tests::repeat_trace;
    use super::*;
    use crate::cst::Cst;
    use crate::encode::{EncoderConfig, SigWriter};
    use crate::trace::TraceCompleteness;
    use pilgrim_sequitur::Grammar;

    /// Three ranks running a ring: send to rank+1, recv from rank-1, one
    /// wildcard recv each, repeated 4 times. Relative encoding collapses
    /// all ranks onto the same three signatures.
    fn ring_trace() -> GlobalTrace {
        let cfg = EncoderConfig::default();
        let mut cst = Cst::new();
        // The head of a send's or receive's record: buffer, count,
        // datatype, then the peer where the function's shape expects it.
        let p2p = |func: FuncId, peer: i32, caller: i64| {
            let mut w = SigWriter::new(func.id());
            w.ptr(0, 0, &cfg);
            w.int(1);
            w.datatype(0);
            w.rank(peer, caller, &cfg);
            w
        };
        let send = p2p(FuncId::Send, 1, 0); // Relative(+1)
        let recv = p2p(FuncId::Recv, 2, 3); // Relative(-1)
        let any = p2p(FuncId::Recv, -1, 0); // ANY_SOURCE

        // Each signature occurs 4 times on each of the 3 ranks.
        let stats = |dur: u64| crate::cst::SigStats { count: 12, dur_sum: 12 * dur };
        let s = cst.intern(send.bytes(), stats(100));
        let r = cst.intern(recv.bytes(), stats(200));
        let w = cst.intern(any.bytes(), stats(50));
        let mut g = Grammar::new();
        for _rank in 0..3 {
            for _ in 0..4 {
                g.push(s);
                g.push(r);
                g.push(w);
            }
        }
        GlobalTrace {
            nranks: 3,
            encoder_cfg: cfg,
            cst,
            grammar: g.to_flat(),
            rank_lengths: vec![12, 12, 12],
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
    fn whole_trace_counts_match_cst_stats() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let q = QueryEngine::new(&t, &idx);
        for (term, _, stats) in t.cst.iter() {
            assert_eq!(
                q.signature_counts().get(&term).copied().unwrap_or(0),
                stats.count,
                "term {term}"
            );
        }
    }

    #[test]
    fn window_counts_match_brute_force() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let q = QueryEngine::new(&t, &idx);
        let full = t.grammar.expand();
        for lo in 0..full.len() {
            for hi in lo..=full.len() {
                let mut want = SigCounts::new();
                for &term in &full[lo..hi] {
                    *want.entry(term).or_insert(0) += 1;
                }
                assert_eq!(q.window_counts(lo as u64, hi as u64), want, "[{lo}, {hi})");
            }
        }
    }

    #[test]
    fn windows_step_over_empty_rules_and_zero_exponents() {
        // R0 -> t0 R1 t0 t1^0, R1 -> (empty): `FlatGrammar::decode` accepts
        // it and `validate()` is clean, so a window query must not divide
        // by R1's zero length.
        let mut t = ring_trace();
        t.grammar = pilgrim_sequitur::FlatGrammar {
            rules: vec![
                pilgrim_sequitur::FlatRule {
                    symbols: vec![
                        (Symbol::Terminal(0), 1),
                        (Symbol::Rule(1), 1),
                        (Symbol::Terminal(0), 1),
                        (Symbol::Terminal(1), 0),
                    ],
                },
                pilgrim_sequitur::FlatRule { symbols: vec![] },
            ],
        };
        t.nranks = 1;
        t.rank_lengths = vec![2];
        assert!(t.validate().is_empty(), "{:?}", t.validate());
        let idx = TraceIndex::build(&t);
        let q = QueryEngine::new(&t, &idx);
        assert_eq!(q.rank_signature_counts(0), SigCounts::from([(0, 2)]));
        assert_eq!(q.window_counts(1, 2), SigCounts::from([(0, 1)]));
    }

    #[test]
    fn comm_matrix_counts_ring_messages_without_expansion() {
        let t = ring_trace();
        let idx = TraceIndex::build(&t);
        let q = QueryEngine::new(&t, &idx);
        let before = pilgrim_sequitur::expansions();
        let m = q.comm_matrix();
        assert_eq!(
            pilgrim_sequitur::expansions(),
            before,
            "matrix query must not expand the grammar"
        );
        assert_eq!(m.nranks, 3);
        // Each rank sends 4 messages to rank+1; rank 2's +1 is out of
        // range and dropped.
        assert_eq!(m.sends[1], 4); // 0 -> 1
        assert_eq!(m.sends[3 + 2], 4); // 1 -> 2
        assert_eq!(m.total_sends(), 8);
        // Each rank posts 4 recvs from rank-1 (rank 0's is dropped) and
        // 4 wildcard recvs.
        assert_eq!(m.recvs[3], 4); // 1 <- 0
        assert_eq!(m.recvs[2 * 3 + 1], 4); // 2 <- 1
        assert_eq!(m.wildcard_recvs, vec![4, 4, 4]);
        assert_eq!(m.dropped, 8);
        assert_eq!(m.total_recvs(), 8 + 12);
    }

    #[test]
    fn summaries_apportion_time_by_count() {
        let t = ring_trace();
        let idx = TraceIndex::build(&t);
        let q = QueryEngine::new(&t, &idx);
        // Rank 0's window holds a third of each signature's occurrences.
        let rows = q.summarize(&q.rank_signature_counts(0));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let stats = t.cst.stats(row.term);
            assert_eq!(row.count, stats.count / 3);
            assert_eq!(row.time_ns, stats.dur_sum / 3);
            assert!(FuncId::from_id(row.func).is_some());
        }
    }

    #[test]
    fn metrics_thread_through_queries() {
        let t = ring_trace();
        let idx = TraceIndex::build(&t);
        let m = MetricsRegistry::new(true);
        let q = QueryEngine::with_metrics(&t, &idx, &m);
        let _ = q.comm_matrix();
        let _ = q.window_counts(0, 5);
        let snap = m.snapshot();
        assert_eq!(snap.counters["query.matrix"], 1);
        // comm_matrix runs one window per rank, plus the explicit window.
        assert_eq!(snap.counters["query.windows"], 4);
        assert!(snap.counters.contains_key("query.matrix.sends"));
    }
}
