//! Deterministic record/replay with divergence detection and
//! grammar-aware trace minimization.
//!
//! A Pilgrim trace pins down *what* every rank did; the `PGND`
//! nondeterminism log ([`crate::NondetLog`]) additionally pins down every
//! choice the runtime made freely — which sender a wildcard receive
//! matched, which index a `Waitany` completed, whether a probe or test
//! saw its flag raised. Together they make a recording replayable
//! bit-for-bit:
//!
//! * [`record`] / [`record_faulty`] run a workload under the tracer with
//!   [`crate::PilgrimConfig::record_nondet`] enabled and attach the
//!   collected per-rank events to [`GlobalTrace::nondet`];
//! * [`replay_directed`] re-executes the decoded calls with a
//!   [`ReplayDirector`] installed on every rank, feeding the recorded
//!   resolutions back into the fabric so the replay follows the recorded
//!   schedule exactly — replaying the same recording twice yields
//!   byte-identical retrace containers;
//! * [`replay_strict`] is the checking mode: it first runs the *pure*
//!   oracle (the log the trace's own statuses imply, via
//!   [`NondetLog::derive`], cross-checked against the recorded log —
//!   no execution involved), then the live directed replay, and reports
//!   the first mismatching `(rank, call_index)` as a [`Divergence`];
//! * [`minimize`] shrinks a diverging recording by grammar-aware delta
//!   debugging: candidate cuts come from the per-rank Sequitur grammar
//!   (drop a top-level rule expansion, halve an `A -> B^k` run, drop a
//!   whole rank), and each candidate is accepted only if the pure oracle
//!   still reports the *same* divergence.
//!
//! Degraded traces (lost / checkpoint-truncated / salvaged ranks) do not
//! make promises a replay can check: strict replay classifies them as
//! [`StrictReplay::Degraded`] with the [`PartialReplayReport`] instead
//! of claiming a divergence.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use mpi_sim::{Env, FuncId, World, WorldConfig};
use pilgrim_sequitur::{DecodeError, Grammar, Spans};

use crate::decode::decode_rank_calls;
use crate::encode::EncodedCall;
use crate::export::format_arg;
use crate::nondet::{derive_rank_events, NondetEvent, NondetLog};
use crate::replay::{partial_replay_report, run_world, PartialReplayReport};
use crate::trace::{GlobalTrace, TraceCompleteness};
use crate::tracer::{PilgrimConfig, PilgrimTracer};

// ---------------------------------------------------------------------
// Divergence
// ---------------------------------------------------------------------

/// The first point where a replay (or the pure oracle) disagreed with
/// the recording. Ordered by `(call_index, rank)`: the earliest call
/// position wins, ties broken by rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging rank.
    pub rank: usize,
    /// 0-based call index on that rank.
    pub call_index: u64,
    /// What the recording promised at that point.
    pub expected: String,
    /// What actually happened.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} call {}: expected {}, got {}",
            self.rank, self.call_index, self.expected, self.got
        )
    }
}

/// Keeps the earlier of `best` and `d` by `(call_index, rank)`.
pub(crate) fn keep_earliest(best: &mut Option<Divergence>, d: Divergence) {
    if best.as_ref().is_none_or(|cur| (d.call_index, d.rank) < (cur.call_index, cur.rank)) {
        *best = Some(d);
    }
}

/// A rank whose calls do not decode, as a divergence at its first call.
pub(crate) fn undecodable(rank: usize, e: DecodeError) -> Divergence {
    let (expected, got) = ("a decodable rank".to_string(), format!("decode error: {e}"));
    Divergence { rank, call_index: 0, expected, got }
}

/// Every rank's decoded calls.
fn decode_ranks(trace: &GlobalTrace) -> Result<Vec<Vec<EncodedCall>>, DecodeError> {
    (0..trace.nranks).map(|rank| decode_rank_calls(trace, rank)).collect()
}

/// The verdict of [`replay_strict`] (and of [`replay_directed`], which
/// skips the pure cross-check).
#[derive(Debug)]
pub enum StrictReplay {
    /// The replay followed the recording exactly; the retrace is the
    /// replay's own Pilgrim trace (byte-identical across repeat replays
    /// of the same recording).
    Deterministic(Box<GlobalTrace>),
    /// The replay (or the pure oracle) left the recorded schedule.
    Diverged(Divergence),
    /// The trace is not fully replayable; no divergence claim is made.
    Degraded(Box<PartialReplayReport>),
    /// The trace itself failed to decode.
    Undecodable(DecodeError),
}

// ---------------------------------------------------------------------
// Record
// ---------------------------------------------------------------------

/// Runs `body` on a healthy `nranks`-rank world with nondeterminism
/// recording enabled and returns the trace with its
/// [`GlobalTrace::nondet`] log attached. `None` if rank 0 produced no
/// merged trace (streaming-sink tracers, for example).
pub fn record<B>(nranks: usize, cfg: PilgrimConfig, body: B) -> Option<GlobalTrace>
where
    B: Fn(&mut Env) + Send + Sync + 'static,
{
    record_faulty(&WorldConfig::new(nranks), cfg, body)
}

/// [`record`] over an explicit [`WorldConfig`] — fault plans included.
/// Ranks killed by the plan contribute no events (their side-channel
/// dies with them); the survivors' log still replays the surviving
/// portion deterministically.
pub fn record_faulty<B>(world: &WorldConfig, cfg: PilgrimConfig, body: B) -> Option<GlobalTrace>
where
    B: Fn(&mut Env) + Send + Sync + 'static,
{
    let cfg = cfg.record_nondet(true);
    let mut outcome = World::run_faulty(world, |rank| PilgrimTracer::new(rank, cfg), body);
    let mut log = NondetLog::new(world.n_ranks);
    for (rank, slot) in outcome.tracers.iter_mut().enumerate() {
        if let (Some(tracer), Some(map)) = (slot.as_mut(), log.ranks.get_mut(rank)) {
            *map = tracer.take_nondet();
        }
    }
    let mut trace = outcome.tracers.first_mut()?.as_mut()?.take_output().trace?;
    trace.nondet = Some(log);
    Some(trace)
}

// ---------------------------------------------------------------------
// Directed replay
// ---------------------------------------------------------------------

/// Replays `trace` with every rank's recorded resolutions pinned, and
/// retraces the replay with Pilgrim under `cfg`. The directed schedule
/// makes the retrace a pure function of the recording: replaying twice
/// yields byte-identical containers. A directive the fabric cannot
/// satisfy (the recorded message never arrives, the recorded index
/// never completes), or a call the replay cannot follow, halts the world
/// and surfaces as [`StrictReplay::Diverged`] naming the exact
/// `(rank, call_index)`.
pub fn replay_directed(trace: &GlobalTrace, cfg: PilgrimConfig) -> StrictReplay {
    let report = partial_replay_report(trace);
    if !report.is_fully_replayable() {
        return StrictReplay::Degraded(Box::new(report));
    }
    let per_rank = match decode_ranks(trace) {
        Ok(calls) => calls,
        Err(e) => return StrictReplay::Undecodable(e),
    };
    let log = trace.nondet.clone().unwrap_or_default();
    match run_world(per_rank, cfg, Some(&log)) {
        Ok(t) => StrictReplay::Deterministic(Box::new(t)),
        Err(d) => StrictReplay::Diverged(d),
    }
}

/// Strict replay: proves the recording deterministic or names the first
/// divergence.
///
/// 1. Degraded traces short-circuit to [`StrictReplay::Degraded`] — a
///    truncated rank is missing data, not diverging.
/// 2. The *pure* oracle runs first: [`NondetLog::derive`] recomputes
///    the log the trace's own statuses, completion indices and flags
///    imply, and any mismatch against the recorded log is a divergence
///    found without executing anything (this is what catches a mutated
///    recording in CI).
/// 3. The live directed replay runs, and its retrace is compared
///    call-for-call against the original ([`first_divergence`]).
pub fn replay_strict(trace: &GlobalTrace) -> StrictReplay {
    let report = partial_replay_report(trace);
    // Any degradation voids the bit-determinism promise: truncated and
    // lost ranks cannot replay at all, and governor-degraded (frozen or
    // sealed) ranks legitimately renumber grammar segments on retrace —
    // reporting that as a Divergence would be a false positive.
    if !report.is_fully_replayable() || trace.is_degraded() {
        return StrictReplay::Degraded(Box::new(report));
    }
    if let Some(recorded) = &trace.nondet {
        let derived = match NondetLog::derive(trace) {
            Ok(d) => d,
            Err(e) => return StrictReplay::Undecodable(e),
        };
        if let Some(d) = cross_check(recorded, &derived) {
            return StrictReplay::Diverged(d);
        }
    }
    let retrace = match replay_directed(trace, PilgrimConfig::default()) {
        StrictReplay::Deterministic(t) => t,
        other => return other,
    };
    match first_divergence(trace, &retrace) {
        Some(d) => StrictReplay::Diverged(d),
        None => StrictReplay::Deterministic(retrace),
    }
}

/// Cross-checks the recorded log against the derived one, returning the
/// earliest mismatch by `(call_index, rank)`. `expected` is the
/// recording, `got` is what the trace implies.
fn cross_check(recorded: &NondetLog, derived: &NondetLog) -> Option<Divergence> {
    let empty = BTreeMap::new();
    let mut best: Option<Divergence> = None;
    let nranks = recorded.ranks.len().max(derived.ranks.len());
    for rank in 0..nranks {
        let rec = recorded.ranks.get(rank).unwrap_or(&empty);
        let der = derived.ranks.get(rank).unwrap_or(&empty);
        if let Some(d) = first_event_mismatch(rank, rec, der) {
            keep_earliest(&mut best, d);
        }
    }
    best
}

/// First mismatching call index between two event maps of one rank.
fn first_event_mismatch(
    rank: usize,
    recorded: &BTreeMap<u64, NondetEvent>,
    derived: &BTreeMap<u64, NondetEvent>,
) -> Option<Divergence> {
    let mut keys: Vec<u64> = recorded.keys().chain(derived.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for idx in keys {
        match (recorded.get(&idx), derived.get(&idx)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => {
                return Some(Divergence {
                    rank,
                    call_index: idx,
                    expected: fmt_event(a),
                    got: fmt_event(b),
                });
            }
        }
    }
    None
}

fn fmt_event(e: Option<&NondetEvent>) -> String {
    e.map_or_else(|| "no recorded resolution".to_string(), |ev| format!("{ev:?}"))
}

/// Renders a decoded call for divergence messages.
fn format_call(call: &EncodedCall) -> String {
    let name = FuncId::from_id(call.func).map_or("?", |f| f.name());
    let args: Vec<String> = call.args.iter().map(format_arg).collect();
    format!("{name}({})", args.join(", "))
}

/// Call equivalence modulo buffer identity: pointer arguments name
/// allocator segments, and a replay allocates in its own order, so
/// segments are compared *referentially* — a bijection per rank, the
/// same treatment [`crate::verify_lossless`] gives opaque references.
/// Everything else must match exactly.
fn calls_equivalent(
    x: &EncodedCall,
    y: &EncodedCall,
    seg_ab: &mut HashMap<u64, u64>,
    seg_ba: &mut HashMap<u64, u64>,
) -> bool {
    use crate::encode::EncodedArg as A;
    if x.func != y.func || x.args.len() != y.args.len() {
        return false;
    }
    for (ax, ay) in x.args.iter().zip(&y.args) {
        match (ax, ay) {
            (A::Ptr { segment: sa, offset: oa }, A::Ptr { segment: sb, offset: ob }) => {
                if oa != ob {
                    return false;
                }
                let fwd = *seg_ab.entry(*sa).or_insert(*sb);
                let bwd = *seg_ba.entry(*sb).or_insert(*sa);
                if fwd != *sb || bwd != *sa {
                    return false;
                }
            }
            _ => {
                if ax != ay {
                    return false;
                }
            }
        }
    }
    true
}

/// Compares two traces call-for-call and returns the earliest differing
/// `(call_index, rank)` — the bit-determinism check behind
/// `replay(trace)` twice yielding identical retraces. Buffer segments
/// are compared referentially (see [`calls_equivalent`]); `expected`
/// renders `a`'s call, `got` renders `b`'s.
pub fn first_divergence(a: &GlobalTrace, b: &GlobalTrace) -> Option<Divergence> {
    if a.nranks != b.nranks {
        return Some(Divergence {
            rank: 0,
            call_index: 0,
            expected: format!("{} ranks", a.nranks),
            got: format!("{} ranks", b.nranks),
        });
    }
    let mut best: Option<Divergence> = None;
    for rank in 0..a.nranks {
        let (ca, cb) = match (decode_rank_calls(a, rank), decode_rank_calls(b, rank)) {
            (Ok(ca), Ok(cb)) => (ca, cb),
            (Err(e), _) | (_, Err(e)) => {
                keep_earliest(&mut best, undecodable(rank, e));
                continue;
            }
        };
        let (mut seg_ab, mut seg_ba) = (HashMap::new(), HashMap::new());
        for i in 0..ca.len().max(cb.len()) {
            let d = match (ca.get(i), cb.get(i)) {
                (Some(x), Some(y)) if calls_equivalent(x, y, &mut seg_ab, &mut seg_ba) => continue,
                (x, y) => Divergence {
                    rank,
                    call_index: i as u64,
                    expected: x.map_or_else(|| "end of sequence".to_string(), format_call),
                    got: y.map_or_else(|| "end of sequence".to_string(), format_call),
                },
            };
            keep_earliest(&mut best, d);
            break;
        }
    }
    best
}

// ---------------------------------------------------------------------
// Grammar-aware minimization
// ---------------------------------------------------------------------

/// Why [`minimize`] refused to run.
#[derive(Debug)]
pub enum MinimizeError {
    /// Degraded traces make no replay promise to shrink against.
    Degraded(Box<PartialReplayReport>),
    /// The trace carries no `PGND` log — nothing records the schedule.
    NoNondetLog,
    /// The recording already replays cleanly; there is no divergence to
    /// preserve.
    NoDivergence,
    /// The trace failed to decode.
    Undecodable(DecodeError),
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::Degraded(_) => write!(f, "trace is degraded; nothing to minimize"),
            MinimizeError::NoNondetLog => write!(f, "trace carries no nondeterminism log"),
            MinimizeError::NoDivergence => write!(f, "recording replays cleanly; no divergence"),
            MinimizeError::Undecodable(e) => write!(f, "trace undecodable: {e}"),
        }
    }
}

impl std::error::Error for MinimizeError {}

/// A minimized reproducer and the bookkeeping around it.
#[derive(Debug)]
pub struct MinimizeResult {
    /// The shrunk, self-contained trace: same CST and encoder config,
    /// fresh grammar over the surviving calls, nondet log remapped to
    /// the surviving indices, timing dropped.
    pub trace: GlobalTrace,
    /// The preserved divergence, re-keyed to the minimized call indices.
    pub divergence: Divergence,
    /// Expanded call count of the input trace.
    pub original_calls: u64,
    /// Expanded call count of the minimized trace.
    pub minimized_calls: u64,
    /// Container bytes of the input trace.
    pub original_bytes: usize,
    /// Container bytes of the minimized trace.
    pub minimized_bytes: usize,
    /// Oracle evaluations spent.
    pub candidates_tried: usize,
}

/// Candidate cuts for one rank's current sequence, derived from a fresh
/// Sequitur grammar over it: for every top-level span, try dropping the
/// whole span; for counted runs (`B^k`), also try dropping the tail
/// half. Largest cuts first.
fn grammar_cuts(terms: &[u32]) -> Vec<std::ops::Range<usize>> {
    let mut g = Grammar::new();
    for &t in terms {
        g.push(t);
    }
    let flat = g.to_flat();
    let spans = Spans::measure(&flat);
    let top = flat.rules.first().map_or(&[][..], |rule| &rule.symbols);
    let mut cuts = Vec::new();
    for (&(_, exp), slot) in top.iter().zip(spans.body(0).windows(2)) {
        let (pos, end) = (slot[0] as usize, slot[1] as usize);
        if pos == end {
            continue;
        }
        cuts.push(pos..end);
        if exp > 1 {
            // Halve the run: keep the leading floor(k/2) repetitions.
            let unit = (end - pos) / exp as usize;
            cuts.push(pos + unit * (exp / 2) as usize..end);
        }
    }
    cuts.sort_by_key(|c| std::cmp::Reverse(c.len()));
    cuts
}

/// The pure oracle over a candidate subset: derives each rank's implied
/// events from the kept calls and cross-checks them against the
/// recorded events remapped onto the kept indices.
fn subset_divergence(
    orig_calls: &[Vec<EncodedCall>],
    recorded: &NondetLog,
    kept: &[Vec<u64>],
) -> Option<Divergence> {
    let empty = BTreeMap::new();
    let mut best: Option<Divergence> = None;
    for (rank, kept_idx) in kept.iter().enumerate() {
        let calls: Vec<EncodedCall> =
            kept_idx.iter().filter_map(|&i| orig_calls[rank].get(i as usize).cloned()).collect();
        let derived = derive_rank_events(rank as i64, &calls);
        let rec_map = recorded.ranks.get(rank).unwrap_or(&empty);
        let remapped: BTreeMap<u64, NondetEvent> = kept_idx
            .iter()
            .enumerate()
            .filter_map(|(newi, oldi)| rec_map.get(oldi).map(|e| (newi as u64, e.clone())))
            .collect();
        if let Some(d) = first_event_mismatch(rank, &remapped, &derived) {
            keep_earliest(&mut best, d);
        }
    }
    best
}

/// Does the candidate still reproduce the target divergence? The call
/// index may shift as calls before it are cut; the rank and the
/// expected/got pair must match exactly.
fn preserves(d: &Option<Divergence>, target: &Divergence) -> bool {
    match d {
        Some(d) => d.rank == target.rank && d.expected == target.expected && d.got == target.got,
        None => false,
    }
}

/// Shrinks a diverging recording to a small self-contained reproducer.
///
/// The oracle is the pure derive-vs-recorded cross-check — per-rank and
/// execution-free, so every candidate is evaluated in microseconds. Cuts
/// are grammar-aware: each round re-runs Sequitur on the surviving
/// sequence and proposes top-level spans and run-halvings, so a loop of
/// `k` iterations shrinks geometrically (`k → k/2 → …`) instead of one
/// element at a time; whole non-essential ranks are dropped first. The
/// minimized trace keeps the CST and encoder config, rebuilds the
/// grammar over the surviving calls, remaps the nondet log onto the new
/// indices, and drops timing (a reproducer has no use for it).
pub fn minimize(trace: &GlobalTrace) -> Result<MinimizeResult, MinimizeError> {
    let report = partial_replay_report(trace);
    // Same gate as [`replay_strict`]: a degraded recording cannot make
    // the bit-determinism promise the minimizer's oracle relies on.
    if !report.is_fully_replayable() || trace.is_degraded() {
        return Err(MinimizeError::Degraded(Box::new(report)));
    }
    let Some(recorded) = &trace.nondet else {
        return Err(MinimizeError::NoNondetLog);
    };
    let orig_calls = decode_ranks(trace).map_err(MinimizeError::Undecodable)?;
    let terms = trace.decode_all_ranks();

    // Everything kept, initially; indices are into the original decode.
    let mut kept: Vec<Vec<u64>> =
        orig_calls.iter().map(|c| (0..c.len() as u64).collect()).collect();
    let mut tried = 1usize;
    let target = match subset_divergence(&orig_calls, recorded, &kept) {
        Some(d) => d,
        None => return Err(MinimizeError::NoDivergence),
    };

    loop {
        let mut progress = false;
        // Whole-rank drops first: the oracle is per-rank, so any rank
        // other than the diverging one is a candidate.
        for rank in 0..trace.nranks {
            if rank == target.rank || kept[rank].is_empty() {
                continue;
            }
            let saved = std::mem::take(&mut kept[rank]);
            tried += 1;
            if preserves(&subset_divergence(&orig_calls, recorded, &kept), &target) {
                progress = true;
            } else {
                kept[rank] = saved;
            }
        }
        // Grammar-derived cuts within each surviving rank.
        for rank in 0..trace.nranks {
            loop {
                let cur_terms: Vec<u32> =
                    kept[rank].iter().map(|&i| terms[rank][i as usize]).collect();
                let cuts = grammar_cuts(&cur_terms);
                let mut cut_worked = false;
                for cut in cuts {
                    if cut.end > kept[rank].len() || cut.is_empty() {
                        continue;
                    }
                    if cut.len() == kept[rank].len() && rank == target.rank {
                        continue; // dropping everything cannot keep the divergence
                    }
                    let mut candidate = kept[rank].clone();
                    candidate.drain(cut);
                    let saved = std::mem::replace(&mut kept[rank], candidate);
                    tried += 1;
                    if preserves(&subset_divergence(&orig_calls, recorded, &kept), &target) {
                        cut_worked = true;
                        progress = true;
                        break; // re-run Sequitur on the shrunk sequence
                    }
                    kept[rank] = saved;
                }
                if !cut_worked {
                    break;
                }
            }
        }
        if !progress {
            break;
        }
    }

    // Rebuild: fresh grammar over the surviving terminals (rank by rank,
    // concatenated like the merged trace), remapped nondet log, timing
    // dropped. The CST is carried over unchanged so surviving terminals
    // keep their signatures.
    let mut g = Grammar::new();
    let mut rank_lengths = Vec::with_capacity(trace.nranks);
    let mut log = NondetLog::new(trace.nranks);
    for rank in 0..trace.nranks {
        rank_lengths.push(kept[rank].len() as u64);
        for &i in &kept[rank] {
            g.push(terms[rank][i as usize]);
        }
        if let Some(rec_map) = recorded.ranks.get(rank) {
            for (newi, oldi) in kept[rank].iter().enumerate() {
                if let Some(e) = rec_map.get(oldi) {
                    log.insert(rank, newi as u64, e.clone());
                }
            }
        }
    }
    let minimized = GlobalTrace {
        nranks: trace.nranks,
        encoder_cfg: trace.encoder_cfg,
        cst: trace.cst.clone(),
        grammar: g.to_flat(),
        rank_lengths,
        unique_grammars: trace.unique_grammars,
        duration_grammars: Vec::new(),
        interval_grammars: Vec::new(),
        duration_rank_map: Vec::new(),
        interval_rank_map: Vec::new(),
        completeness: TraceCompleteness::complete(),
        nondet: Some(log),
    };

    // Re-key the divergence to the minimized indices via the oracle on
    // the final trace (same mismatch by construction).
    let divergence = match NondetLog::derive(&minimized) {
        Ok(derived) => minimized
            .nondet
            .as_ref()
            .and_then(|rec| cross_check(rec, &derived))
            .unwrap_or_else(|| target.clone()),
        Err(_) => target.clone(),
    };

    let original_calls: u64 = orig_calls.iter().map(|c| c.len() as u64).sum();
    let minimized_calls = minimized.total_calls();
    Ok(MinimizeResult {
        original_bytes: crate::export::write_container(trace).len(),
        minimized_bytes: crate::export::write_container(&minimized).len(),
        trace: minimized,
        divergence,
        original_calls,
        minimized_calls,
        candidates_tried: tried,
    })
}
