//! The paper's finalize-time merge tree (§3.5), fault-tolerant.
//!
//! At `MPI_Finalize`, ranks merge their CSTs pairwise in `log2(P)` phases;
//! rank 0 broadcasts the merged table and every rank renumbers its grammar
//! terminals to the global ids. Grammars are then gathered the same way
//! with an *identity check* first — identical grammars (the common case
//! for SPMD codes) are kept once with a rank list instead of being
//! concatenated — and timing grammars are deduplicated the same way.
//! Rank 0 hands what arrived to the shared core ([`super`]) for the
//! hash-cons, the final Sequitur pass and the trace itself.
//!
//! # Degraded merges
//!
//! Every receive in the merge tree is *bounded*: a partner that died (or
//! stalled past [`MergePolicy::timeout`]) costs its subtree, not the run.
//! The survivor proceeds with what it has, records which ranks were lost
//! at which round, and propagates that list up the tree. Rank 0 then
//! tries to recover every non-merged rank from its last crash-consistent
//! checkpoint (see [`crate::checkpoint`]), and writes a per-rank
//! [`TraceCompleteness`](crate::trace::TraceCompleteness) manifest into
//! the trace. A rank that cannot obtain the merged CST (its broadcast
//! parent vanished) still relays its children's payloads upward so only
//! its own trace is at risk, and reports a [`MergeError`] to its caller.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpi_sim::{PeerFailure, TraceCtx};
use pilgrim_sequitur::{decode_varint, write_varint, DecodeError, FlatGrammar};

use super::{map_terminals, merge_sets, EventList, GrammarSet, Merged, RankGrammars, RankSegments};
use crate::checkpoint::decode_checkpoint;
use crate::cst::Cst;
use crate::encode::EncoderConfig;
use crate::governor::DegradationEvent;
use crate::metrics::{MetricsRegistry, Stage};
use crate::stats::OverheadStats;
use crate::trace::{GlobalTrace, RankStatus};

const TAG_CST_GATHER: i32 = 1_000_001;
const TAG_CST_BCAST: i32 = 1_000_002;
const TAG_CFG_GATHER: i32 = 1_000_003;
const TAG_DUR_GATHER: i32 = 1_000_004;
const TAG_INT_GATHER: i32 = 1_000_005;

/// Bounds on how long a merge step waits for a partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Per-receive wait budget once a failure is known. While the world
    /// is healthy the effective budget is 8x this, so slow-but-alive
    /// partners are never dropped spuriously.
    pub timeout: Duration,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy { timeout: Duration::from_millis(800) }
    }
}

impl MergePolicy {
    pub fn with_timeout_ms(ms: u64) -> Self {
        MergePolicy { timeout: Duration::from_millis(ms) }
    }
}

/// Why a rank's own trace could not enter the merge. The rank still
/// relays its subtree's payloads, so the error is local to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The merged-CST broadcast from `parent` never arrived (the parent
    /// died or abandoned); without the global table this rank cannot
    /// renumber its grammar.
    CstBroadcastLost { parent: usize },
    /// The global CST is missing some of this rank's signatures — its
    /// CST-gather payload was dropped upstream and no other rank shared
    /// the signatures.
    SignaturesNotMerged,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::CstBroadcastLost { parent } => {
                write!(f, "merged-CST broadcast from rank {parent} never arrived")
            }
            MergeError::SignaturesNotMerged => {
                write!(f, "global CST is missing local signatures (gather payload lost)")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One rank's compressed trace, ready for merging.
#[derive(Debug, Clone)]
pub struct LocalPiece {
    pub rank: usize,
    pub cst: Cst,
    pub grammar: FlatGrammar,
    pub call_count: u64,
    pub duration: Option<FlatGrammar>,
    pub interval: Option<FlatGrammar>,
    pub encoder_cfg: EncoderConfig,
    /// Degradation events the rank's resource governor recorded while
    /// tracing (empty for an unbudgeted or never-pressured rank). Carried
    /// to rank 0 with the grammar gather and written into the
    /// [`TraceCompleteness`](crate::trace::TraceCompleteness) manifest.
    pub events: Vec<DegradationEvent>,
}

impl LocalPiece {
    /// Serialized size of this rank's *local* (pre-merge) trace — what the
    /// trace size would be without inter-process compression.
    pub fn local_size_bytes(&self) -> usize {
        let mut buf = Vec::new();
        self.cst.serialize(&mut buf);
        self.grammar.serialize(&mut buf);
        buf.len()
    }
}

fn ser_grammar_set(set: &GrammarSet) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, set.len() as u64);
    for (g, ranks) in set {
        g.serialize(&mut out);
        write_varint(&mut out, ranks.len() as u64);
        for &(r, l) in ranks {
            write_varint(&mut out, r);
            write_varint(&mut out, l);
        }
    }
    out
}

fn deser_grammar_set_at(buf: &[u8], pos: &mut usize) -> Result<GrammarSet, DecodeError> {
    let count_off = *pos;
    let n = decode_varint(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) + 1 {
        return Err(DecodeError::Corrupt { what: "grammar set count", offset: count_off });
    }
    let mut set = Vec::with_capacity(n);
    for _ in 0..n {
        let (g, used) = FlatGrammar::decode(&buf[*pos..]).map_err(|e| e.offset_by(*pos))?;
        *pos += used;
        let m_off = *pos;
        let m = decode_varint(buf, pos)? as usize;
        if m > buf.len().saturating_sub(*pos) / 2 + 1 {
            return Err(DecodeError::Corrupt { what: "rank list count", offset: m_off });
        }
        let mut ranks = Vec::with_capacity(m);
        for _ in 0..m {
            let r = decode_varint(buf, pos)?;
            let l = decode_varint(buf, pos)?;
            ranks.push((r, l));
        }
        set.push((g, ranks));
    }
    Ok(set)
}

fn deser_grammar_set(buf: &[u8]) -> Result<GrammarSet, DecodeError> {
    let mut pos = 0usize;
    deser_grammar_set_at(buf, &mut pos)
}

/// Grammar-gather payload: the grammar set, the `(rank, round)` list of
/// subtrees lost below the sender, and the `(rank, event)` degradation
/// events reported by the sender's subtree.
fn ser_phase2(set: &GrammarSet, lost: &[(u64, u32)], events: &EventList) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, lost.len() as u64);
    for &(r, round) in lost {
        write_varint(&mut out, r);
        write_varint(&mut out, round as u64);
    }
    write_varint(&mut out, events.len() as u64);
    for (r, ev) in events {
        write_varint(&mut out, *r);
        ev.serialize(&mut out);
    }
    out.extend_from_slice(&ser_grammar_set(set));
    out
}

/// Decoded grammar-gather payload: `(set, lost, events)`.
type Phase2Payload = (GrammarSet, Vec<(u64, u32)>, EventList);

fn deser_phase2(buf: &[u8]) -> Result<Phase2Payload, DecodeError> {
    let mut pos = 0usize;
    let n_off = pos;
    let n = decode_varint(buf, &mut pos)? as usize;
    if n > buf.len().saturating_sub(pos) / 2 + 1 {
        return Err(DecodeError::Corrupt { what: "lost list count", offset: n_off });
    }
    let mut lost = Vec::with_capacity(n);
    for _ in 0..n {
        let r = decode_varint(buf, &mut pos)?;
        let round = decode_varint(buf, &mut pos)? as u32;
        lost.push((r, round));
    }
    let e_off = pos;
    let ne = decode_varint(buf, &mut pos)? as usize;
    if ne > buf.len().saturating_sub(pos) / 5 + 1 {
        return Err(DecodeError::Corrupt { what: "event list count", offset: e_off });
    }
    let mut events = Vec::with_capacity(ne);
    for _ in 0..ne {
        let r = decode_varint(buf, &mut pos)?;
        let ev = DegradationEvent::decode(buf, &mut pos)?;
        events.push((r, ev));
    }
    let set = deser_grammar_set_at(buf, &mut pos)?;
    Ok((set, lost, events))
}

/// A world-wide tool barrier that tolerates peer death: returns false if
/// a dead rank interrupted it (the merge then proceeds degraded).
fn try_tool_barrier(ctx: &TraceCtx<'_>) -> bool {
    match catch_unwind(AssertUnwindSafe(|| ctx.tool_barrier())) {
        Ok(()) => true,
        Err(e) if e.is::<PeerFailure>() => false,
        Err(e) => resume_unwind(e),
    }
}

/// Per-receive wait budget: generous while the world is healthy, tight
/// once a failure is known (dead partners never send; waiting is waste).
fn recv_budget(ctx: &TraceCtx<'_>, policy: &MergePolicy) -> Duration {
    if ctx.any_failures() {
        policy.timeout
    } else {
        policy.timeout.saturating_mul(8)
    }
}

fn lsb(r: usize) -> usize {
    r & r.wrapping_neg()
}

/// First *live* ancestor of `rank` in the binomial tree: the natural
/// parent, or — when that rank is dead — the nearest ancestor above it
/// that is still alive. Both tree directions route around casualties with
/// this rule, and because the dead set is stable by merge time every rank
/// computes the same routing.
fn live_ancestor(ctx: &TraceCtx<'_>, rank: usize) -> usize {
    let mut q = rank - lsb(rank);
    while q != 0 && ctx.is_dead(q) {
        q -= lsb(q);
    }
    q
}

/// Receives `partner`'s gather payload, adopting its orphans if it died:
/// a dead partner contributes nothing itself, but its children route
/// their payloads to the partner's live ancestor (this rank), so only the
/// casualty — not its whole subtree — is lost. An *alive* partner that
/// times out does cost its subtree `[partner, partner + step)`: its
/// children already sent their payloads to it.
#[allow(clippy::too_many_arguments)]
fn recv_or_adopt<T>(
    ctx: &TraceCtx<'_>,
    tag: i32,
    partner: usize,
    step: usize,
    state: &mut T,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
    merge_in: &mut impl FnMut(&mut T, Vec<u8>),
    on_lost: &mut impl FnMut(&mut T, u64, u32),
) {
    let p = ctx.world_size;
    let round = step.trailing_zeros() + 1;
    if ctx.is_dead(partner) {
        on_lost(state, partner as u64, round);
        let mut s2 = step / 2;
        while s2 >= 1 {
            let c = partner + s2;
            if c < p {
                recv_or_adopt(ctx, tag, c, s2, state, policy, metrics, merge_in, on_lost);
            }
            s2 /= 2;
        }
        return;
    }
    let (msg, retries) = ctx.tool_recv_timeout(partner, tag, recv_budget(ctx, policy));
    metrics.incr("merge.retries", retries);
    match msg {
        Some(bytes) => merge_in(state, bytes),
        None => {
            metrics.incr("merge.timeouts", 1);
            for r in partner..(partner + step).min(p) {
                on_lost(state, r as u64, round);
            }
        }
    }
}

/// Bounded binomial-tree gather-merge toward rank 0, routing around dead
/// partners ([`recv_or_adopt`]). `merge_in` folds a received partner
/// payload into the local state; `payload` serializes it for the parent
/// (the nearest live ancestor). `on_lost(state, rank, round)` is invoked
/// for every rank whose payload is unrecoverable. Rank 0 never sends: it
/// ends up holding the merged state.
#[allow(clippy::too_many_arguments)]
fn gather_bounded<T>(
    ctx: &TraceCtx<'_>,
    tag: i32,
    state: &mut T,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
    mut merge_in: impl FnMut(&mut T, Vec<u8>),
    mut on_lost: impl FnMut(&mut T, u64, u32),
    payload: impl Fn(&T) -> Vec<u8>,
) {
    let rank = ctx.world_rank;
    let p = ctx.world_size;
    let mut step = 1;
    while step < p {
        if rank % (2 * step) == step {
            ctx.tool_send(live_ancestor(ctx, rank), tag, payload(state));
            return;
        }
        if rank.is_multiple_of(2 * step) {
            let partner = rank + step;
            if partner < p {
                recv_or_adopt(
                    ctx,
                    tag,
                    partner,
                    step,
                    state,
                    policy,
                    metrics,
                    &mut merge_in,
                    &mut on_lost,
                );
            }
        }
        step *= 2;
    }
}

/// Forwards bcast `data` to `child` (subtree size `s`), hopping over a
/// dead child straight to its children so the casualty's subtree still
/// receives the payload.
fn forward_or_hop(ctx: &TraceCtx<'_>, tag: i32, child: usize, s: usize, data: &[u8]) {
    if child >= ctx.world_size {
        return;
    }
    if ctx.is_dead(child) {
        let mut s2 = s / 2;
        while s2 >= 1 {
            forward_or_hop(ctx, tag, child + s2, s2, data);
            s2 /= 2;
        }
        return;
    }
    ctx.tool_send(child, tag, data.to_vec());
}

/// Passes bcast `data` down this rank's subtree of the binomial tree,
/// routing around dead ranks ([`forward_or_hop`]). The root starts the
/// broadcast by calling this with its own payload.
fn bcast_forward(ctx: &TraceCtx<'_>, tag: i32, data: &[u8]) {
    let rank = ctx.world_rank;
    // My subtree spans steps below my lsb (unbounded for rank 0).
    let limit = if rank == 0 { ctx.world_size.next_power_of_two() } else { lsb(rank) };
    let mut s = limit / 2;
    while s >= 1 {
        forward_or_hop(ctx, tag, rank + s, s, data);
        s /= 2;
    }
}

/// A non-root rank's half of the bounded broadcast: waits for the payload
/// from its live ancestor ([`live_ancestor`]) and passes it on. `None`
/// when that source never delivered.
fn bcast_recv(
    ctx: &TraceCtx<'_>,
    tag: i32,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
) -> Option<Vec<u8>> {
    let source = live_ancestor(ctx, ctx.world_rank);
    let (msg, retries) = ctx.tool_recv_timeout(source, tag, recv_budget(ctx, policy));
    metrics.incr("merge.retries", retries);
    if msg.is_none() {
        metrics.incr("merge.timeouts", 1);
    }
    let data = msg?;
    bcast_forward(ctx, tag, &data);
    Some(data)
}

/// Options for the unified [`merge`] entry point: policy knobs plus an
/// optional metrics sink, replacing the former
/// `merge`/`merge_with_options`/`merge_with_metrics`/`merge_degraded`
/// argument-list zoo.
#[derive(Debug, Clone, Copy)]
pub struct MergeOptions<'a> {
    /// Run the grammar identity check before structural merging (§3.5.2).
    /// Disabling it is the paper's ablation: every rank's grammar is then
    /// kept distinct.
    pub identity_check: bool,
    /// Bounded-wait policy for degraded merges.
    pub policy: MergePolicy,
    /// Per-stage timers ([`Stage::CstMerge`], [`Stage::CfgMerge`],
    /// [`Stage::FinalSequitur`]) and payload-byte counters are recorded
    /// here when set. The stage timers decompose [`MergeOutcome::stats`]
    /// exactly: `cst-merge` equals `inter_cst`, and
    /// `cfg-merge + final-sequitur` equals `inter_cfg`.
    pub metrics: Option<&'a MetricsRegistry>,
}

impl Default for MergeOptions<'static> {
    fn default() -> Self {
        MergeOptions { identity_check: true, policy: MergePolicy::default(), metrics: None }
    }
}

impl<'a> MergeOptions<'a> {
    /// Defaults: identity check on, default policy, no metrics sink.
    pub fn new() -> MergeOptions<'static> {
        MergeOptions::default()
    }

    /// Toggles the pre-merge grammar identity check.
    pub fn identity_check(mut self, on: bool) -> Self {
        self.identity_check = on;
        self
    }

    /// Sets the bounded-wait policy for degraded merges.
    pub fn policy(mut self, policy: MergePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a metrics sink.
    pub fn metrics(self, metrics: &MetricsRegistry) -> MergeOptions<'_> {
        MergeOptions {
            identity_check: self.identity_check,
            policy: self.policy,
            metrics: Some(metrics),
        }
    }
}

/// What [`merge`] produced on this rank.
#[derive(Debug, Default)]
pub struct MergeOutcome {
    /// The merged trace; `Some` only on the rank that holds it (rank 0).
    /// When any rank was lost it carries a
    /// [`TraceCompleteness`](crate::trace::TraceCompleteness) manifest
    /// naming each lost or checkpoint-recovered rank.
    pub trace: Option<GlobalTrace>,
    /// Wall-clock overhead of the merge phases on this rank (`inter_cst`
    /// and `inter_cfg`; `intra` is always zero here).
    pub stats: OverheadStats,
    /// Why this rank's *own* trace could not enter the merge, if it
    /// could not (it still relayed its subtree's payloads).
    pub error: Option<MergeError>,
}

impl MergeOutcome {
    /// The lost-subtree report: `(rank, merge round)` for every rank the
    /// manifest records as lost. Empty off the root or on a clean merge.
    pub fn lost_subtrees(&self) -> Vec<(usize, u32)> {
        self.trace.as_ref().map(|t| t.completeness.lost_ranks()).unwrap_or_default()
    }

    /// Whether this rank participated fully and (if root) the trace is
    /// complete.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.trace.as_ref().is_none_or(|t| t.completeness.is_complete())
    }
}

/// Runs the full fault-tolerant inter-process compression. Every rank
/// participates; the returned [`MergeOutcome`] carries the merged
/// [`GlobalTrace`] on rank 0, this rank's merge-phase overhead, and its
/// local error (if its own trace missed the merge).
///
/// This is the single merge entry point. The former `merge_with_options`
/// / `merge_with_metrics` / `merge_degraded` signatures were deprecated
/// for one release and have been removed.
pub fn merge(ctx: &TraceCtx<'_>, piece: LocalPiece, opts: &MergeOptions<'_>) -> MergeOutcome {
    let fallback;
    let metrics = match opts.metrics {
        Some(m) => m,
        None => {
            fallback = MetricsRegistry::default();
            &fallback
        }
    };
    let mut stats = OverheadStats::default();
    match merge_engine(ctx, piece, &mut stats, opts.identity_check, metrics, opts.policy) {
        Ok(trace) => MergeOutcome { trace, stats, error: None },
        Err(e) => MergeOutcome { trace: None, stats, error: Some(e) },
    }
}

/// The fault-tolerant merge engine behind [`merge`].
///
/// `Ok(Some(trace))` on the rank holding the merged trace (rank 0),
/// `Ok(None)` on other ranks that participated fully, and `Err` on a
/// rank whose own trace could not be merged (it still relayed its
/// subtree). When any rank was lost, the trace carries a
/// [`TraceCompleteness`](crate::trace::TraceCompleteness) manifest naming
/// each lost or checkpoint-recovered rank.
fn merge_engine(
    ctx: &TraceCtx<'_>,
    piece: LocalPiece,
    stats: &mut OverheadStats,
    identity_check: bool,
    metrics: &MetricsRegistry,
    policy: MergePolicy,
) -> Result<Option<GlobalTrace>, MergeError> {
    // Synchronize before timing: rank threads reach finalize at skewed
    // times (they timeshare host cores); without a barrier the first
    // merge phase would absorb all the skew as apparent CST time. Once a
    // rank has died the barrier can never complete, so it is skipped (and
    // a failure racing into the middle of it just degrades the timing
    // split, never the merge).
    if !ctx.any_failures() {
        try_tool_barrier(ctx);
    }
    let is_root = ctx.world_rank == 0;
    let me = piece.rank as u64;
    // ---- Phase 1: CST merge + broadcast + terminal renumbering ----
    let t_cst = Instant::now();
    let mut merged_cst = piece.cst.clone();
    gather_bounded(
        ctx,
        TAG_CST_GATHER,
        &mut merged_cst,
        &policy,
        metrics,
        |mine, bytes| {
            if let Ok(incoming) = Cst::decode(&bytes, &mut 0) {
                metrics.incr("merge.cst_payload_bytes", bytes.len() as u64);
                mine.absorb(&incoming);
            }
        },
        // A subtree missing from the CST gather is not recorded here: its
        // ranks detect the gap themselves at renumbering time and
        // self-report (SPMD ranks usually share every signature and lose
        // nothing but their CST stats).
        |_, _, _| {},
        |mine| {
            let mut buf = Vec::new();
            mine.serialize(&mut buf);
            buf
        },
    );
    // The root keeps the table it just merged and broadcasts a copy; every
    // other rank's global table is whatever the broadcast delivers.
    let global_cst: Result<Cst, MergeError> = if is_root {
        let mut buf = Vec::new();
        merged_cst.serialize(&mut buf);
        bcast_forward(ctx, TAG_CST_BCAST, &buf);
        Ok(merged_cst)
    } else {
        bcast_recv(ctx, TAG_CST_BCAST, &policy, metrics)
            .and_then(|bytes| Cst::decode(&bytes, &mut 0).ok())
            .ok_or(MergeError::CstBroadcastLost { parent: ctx.world_rank - lsb(ctx.world_rank) })
    };
    // Renumber this rank's grammar terminals to the global terminal
    // space. A rank that cannot (no broadcast, or its signatures never
    // reached rank 0) forfeits its own trace but keeps relaying.
    let own: Result<FlatGrammar, MergeError> =
        global_cst.as_ref().map_err(|&e| e).and_then(|gcst| {
            let remap: Option<Vec<u32>> =
                piece.cst.iter().map(|(_, sig, _)| gcst.lookup(sig)).collect();
            remap
                .map(|remap| map_terminals(&piece.grammar, &remap))
                .ok_or(MergeError::SignaturesNotMerged)
        });
    let d_cst = t_cst.elapsed();
    stats.inter_cst += d_cst;
    metrics.add_stage(Stage::CstMerge, d_cst);
    if let Ok(gcst) = &global_cst {
        metrics.set_gauge("merge.global_cst_signatures", gcst.len() as u64);
    }

    // ---- Phase 2: CFG gather with identity check ----
    let t_cfg = Instant::now();
    let my_error = own.as_ref().err().copied();
    let events: EventList = piece.events.iter().map(|ev| (me, *ev)).collect();
    let mut state: Phase2Payload = match own {
        Ok(g) => (vec![(g, vec![(me, piece.call_count)])], Vec::new(), events),
        Err(_) => {
            // Round 0: lost before the grammar gather.
            metrics.incr("merge.abandoned", 1);
            (Vec::new(), vec![(me, 0)], events)
        }
    };
    gather_bounded(
        ctx,
        TAG_CFG_GATHER,
        &mut state,
        &policy,
        metrics,
        |(mine, lost_acc, ev_acc), bytes| {
            if let Ok((incoming, inc_lost, inc_events)) = deser_phase2(&bytes) {
                metrics.incr("merge.cfg_payload_bytes", bytes.len() as u64);
                lost_acc.extend(inc_lost);
                ev_acc.extend(inc_events);
                metrics.incr("merge.identity_hits", merge_sets(mine, incoming, identity_check));
            }
        },
        // Timed-out subtrees join the lost list the parent payload carries.
        |(_, lost_acc, _), r, round| lost_acc.push((r, round)),
        |(mine, lost_acc, ev_acc)| ser_phase2(mine, lost_acc, ev_acc),
    );
    let (set, lost, events) = state;

    // ---- Phase 2b: timing grammar gathers (dedup only) ----
    let mut dur_set: GrammarSet = Vec::new();
    let mut int_set: GrammarSet = Vec::new();
    for (tag, own_timing, timing_set) in [
        (TAG_DUR_GATHER, &piece.duration, &mut dur_set),
        (TAG_INT_GATHER, &piece.interval, &mut int_set),
    ] {
        let Some(g) = own_timing else { continue };
        if my_error.is_none() {
            timing_set.push((g.clone(), vec![(me, 0)]));
        }
        gather_bounded(
            ctx,
            tag,
            timing_set,
            &policy,
            metrics,
            |mine, bytes| {
                if let Ok(incoming) = deser_grammar_set(&bytes) {
                    merge_sets(mine, incoming, true);
                }
            },
            // Lost ranks keep the rank-map sentinel; nothing to record.
            |_, _, _| {},
            ser_grammar_set,
        );
    }

    let mut cst = match global_cst {
        Ok(cst) if is_root => cst,
        // Not the root: this rank's part ended with its last send.
        _ => {
            let d_cfg = t_cfg.elapsed();
            stats.inter_cfg += d_cfg;
            metrics.add_stage(Stage::CfgMerge, d_cfg);
            return my_error.map_or(Ok(None), Err);
        }
    };

    // ---- Phase 3 (rank 0): recover what checkpoints allow, then finish ----
    let nranks = ctx.world_size;
    let mut lost_rounds: HashMap<u64, u32> = HashMap::new();
    for (r, round) in lost {
        // Keep the earliest (most specific) round per rank.
        lost_rounds.entry(r).or_insert(round);
    }
    let mut ranks = RankGrammars::gathered(set, nranks);
    for rank in 0..nranks {
        if ranks.statuses[rank] == RankStatus::Merged {
            continue;
        }
        // Not merged: try the rank's last crash-consistent checkpoint, a
        // one-segment stream absorbed into the global CST (append-only:
        // survivors' already-broadcast ids are stable).
        let snapshot =
            ctx.load_checkpoint(rank).and_then(|(_, bytes)| decode_checkpoint(&bytes).ok());
        match snapshot {
            Some(ck) => {
                let mut segments = RankSegments::default();
                segments.push(&mut cst, &ck.cst, ck.grammar, false);
                let grammar = segments.assemble();
                let calls = grammar.expanded_len();
                ranks.add_rank(rank, grammar, calls, RankStatus::Checkpoint { calls });
                metrics.incr("merge.checkpoint_recovered", 1);
            }
            None => {
                let round = lost_rounds.get(&(rank as u64)).copied().unwrap_or(0);
                ranks.statuses[rank] = RankStatus::Lost { round };
                metrics.incr("merge.lost_ranks", 1);
            }
        }
    }

    let t_final = Instant::now();
    let merged = Merged { ranks, dur_set, int_set, events, cst, encoder_cfg: piece.encoder_cfg };
    let trace = merged.finish();
    let d_final = t_final.elapsed();
    let d_cfg = t_cfg.elapsed();
    stats.inter_cfg += d_cfg;
    // Exact decomposition: the gather is whatever wasn't the final pass.
    metrics.add_stage(Stage::FinalSequitur, d_final);
    metrics.add_stage(Stage::CfgMerge, d_cfg.saturating_sub(d_final));
    if !trace.completeness.is_complete() {
        metrics.incr("merge.degraded", 1);
    }
    metrics.set_gauge("merge.unique_grammars", trace.unique_grammars as u64);
    metrics.set_gauge("merge.merged_rules", trace.grammar.num_rules() as u64);
    metrics.set_gauge("merge.global_cst_signatures", trace.cst.len() as u64);
    Ok(Some(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tests::grammar_of;

    #[test]
    fn grammar_set_serialization_roundtrip() {
        let set: GrammarSet =
            vec![(grammar_of(&[1, 2, 3]), vec![(0, 3), (2, 3)]), (grammar_of(&[7]), vec![(1, 1)])];
        let bytes = ser_grammar_set(&set);
        let back = deser_grammar_set(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, set[0].0);
        assert_eq!(back[1].1, vec![(1, 1)]);
    }

    #[test]
    fn phase2_payload_roundtrips_lost_list() {
        let set: GrammarSet = vec![(grammar_of(&[1, 2]), vec![(0, 2)])];
        let lost = vec![(3u64, 2u32), (4, 0)];
        let bytes = ser_phase2(&set, &lost, &Vec::new());
        let (back_set, back_lost, back_events) = deser_phase2(&bytes).unwrap();
        assert_eq!(back_set.len(), 1);
        assert_eq!(back_lost, lost);
        assert!(back_events.is_empty());
    }

    #[test]
    fn phase2_payload_roundtrips_degradation_events() {
        use crate::governor::{Component, DegradationStage};
        let set: GrammarSet = vec![(grammar_of(&[1, 2]), vec![(0, 2)])];
        let events: EventList = vec![
            (
                1,
                DegradationEvent {
                    call_index: 17,
                    stage: DegradationStage::FreezeGrammar,
                    component: Component::CallGrammar,
                    bytes: 4096,
                },
            ),
            (
                1,
                DegradationEvent {
                    call_index: 40,
                    stage: DegradationStage::SealSegment,
                    component: Component::Cst,
                    bytes: 8192,
                },
            ),
        ];
        let bytes = ser_phase2(&set, &[], &events);
        let (_, _, back) = deser_phase2(&bytes).unwrap();
        assert_eq!(back, events);
    }
}
