//! Mini-app generation: replaying a Pilgrim trace as a live program.
//!
//! The paper's conclusion sketches this as future work: "a mini-app
//! generator that could automatically generate a proxy MPI program that
//! has the same communication patterns as captured in the traces". This
//! module implements it against the simulator: [`replay`] decodes every
//! rank's call sequence from a merged trace and re-issues the calls,
//! resolving symbolic ids back to live objects:
//!
//! * communicator symbols are rebuilt by re-executing the recorded
//!   creation calls (dup/split/create/idup/intercomm) in order;
//! * datatype symbols are rebuilt from the recorded constructors;
//! * memory segments are materialized as fresh allocations, sized from
//!   the transfers that use them;
//! * request symbols map to live requests; because completion order is
//!   nondeterministic, a replay reproduces the *pattern* (which calls,
//!   which partners, which sizes), not the original completion order —
//!   the wait/test family is re-driven live.
//!
//! Which argument holds a created request or a new communicator, and how
//! a `Wait*` / `Test*` / `MPI_Request_free` picks its requests, is read
//! from the call-shape table ([`FuncId::shape`]); which `Env` method a
//! call becomes stays one arm per function.
//!
//! **Error contract.** A trace that decodes is still not vouched for: a
//! call with an unknown function id, an argument of the wrong kind or a
//! missing one, or a communicator, group or datatype symbol that no
//! earlier call created ends the replay with a [`Divergence`] naming the
//! rank and call index — never a panic, never a hang. The rank halts the
//! whole world ([`Env::halt`] aborts the fabric), so every peer unwinds at
//! its next wait, a wildcard receive included, and the earliest
//! divergence reported by `(call_index, rank)` is the replay's error.
//! Directed replay ([`crate::replay_directed`]) runs through the same
//! world runner and fills the same slot.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use mpi_sim::comm::{CommHandle, GroupHandle};
use mpi_sim::datatype::DatatypeHandle;
use mpi_sim::funcs::{Completion, Form, Object};
use mpi_sim::request::{RequestHandle, REQUEST_NULL};
use mpi_sim::types::ReduceOp;
use mpi_sim::{Directive, Env, FuncId, ReplayDirector, World, WorldConfig};

use crate::decode::decode_rank_calls;
use crate::encode::{EncodedArg, EncodedCall, RankCode};
use crate::governor::DegradationStage;
use crate::nondet::NondetLog;
use crate::rr::{keep_earliest, undecodable, Divergence};
use crate::trace::{GlobalTrace, RankStatus};
use crate::tracer::{PilgrimConfig, PilgrimTracer};

/// What a degraded trace can and cannot replay, per rank.
///
/// A live replay ([`replay_and_retrace`]) re-runs every rank's sequence
/// concurrently; a rank that is truncated (checkpoint-recovered) or lost
/// stops short of its matching sends/receives, so only the fully merged
/// ranks replay as a world. Truncated ranks still *decode* — their calls
/// can be inspected or diffed up to the checkpoint boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialReplayReport {
    /// Fully merged ranks: decodable and live-replayable.
    pub replayable_ranks: Vec<usize>,
    /// Checkpoint-recovered ranks with the call count each covers:
    /// decodable up to that boundary, not live-replayable.
    pub truncated_ranks: Vec<(usize, u64)>,
    /// Ranks with no data at all (and the merge round that lost them).
    pub lost_ranks: Vec<(usize, u32)>,
    /// Ranks recovered section-by-section from a corrupted container with
    /// the call count each spans: decodable, not live-replayable (their
    /// stats and timing may be gone).
    pub salvaged_ranks: Vec<(usize, u64)>,
    /// Ranks whose data reached this trace through a local spill instead
    /// of the network ([`DegradationStage::LocalSpill`]). Their calls are
    /// intact — they replay fine — but the collection path was degraded,
    /// consistent with [`crate::trace::FidelityReport::net_spilled_ranks`].
    pub net_spilled_ranks: Vec<usize>,
}

impl PartialReplayReport {
    /// True when every rank merged fully (a plain [`replay`] is safe).
    pub fn is_fully_replayable(&self) -> bool {
        self.truncated_ranks.is_empty()
            && self.lost_ranks.is_empty()
            && self.salvaged_ranks.is_empty()
    }
}

/// Classifies every rank of a possibly degraded trace by what a replay
/// can do with it (driven by the trace's completeness manifest).
pub fn partial_replay_report(trace: &GlobalTrace) -> PartialReplayReport {
    let mut report = PartialReplayReport::default();
    for rank in 0..trace.nranks {
        match trace.completeness.status(rank) {
            RankStatus::Merged => report.replayable_ranks.push(rank),
            RankStatus::Checkpoint { calls } => report.truncated_ranks.push((rank, calls)),
            RankStatus::Lost { round } => report.lost_ranks.push((rank, round)),
            RankStatus::Salvaged { calls } => report.salvaged_ranks.push((rank, calls)),
        }
        if trace.completeness.rank_reached(rank, DegradationStage::LocalSpill) {
            report.net_spilled_ranks.push(rank);
        }
    }
    report
}

/// Replays `trace` as a fresh world and re-traces it with Pilgrim,
/// returning the trace of the replay. A faithful replay produces a trace
/// with the same shape (signature count, per-rank call counts for
/// deterministic programs). A rank that does not decode, or a call the
/// replay cannot follow, is the earliest [`Divergence`].
pub fn replay_and_retrace(
    trace: &GlobalTrace,
    cfg: PilgrimConfig,
) -> Result<GlobalTrace, Divergence> {
    let per_rank = (0..trace.nranks)
        .map(|rank| decode_rank_calls(trace, rank).map_err(|e| undecodable(rank, e)))
        .collect::<Result<_, _>>()?;
    run_world(per_rank, cfg, None)
}

/// Convenience wrapper: replay with a default Pilgrim re-trace.
pub fn replay(trace: &GlobalTrace) -> Result<GlobalTrace, Divergence> {
    replay_and_retrace(trace, PilgrimConfig::default())
}

/// The earliest divergence any rank reported, shared across the world.
#[derive(Default)]
struct FirstDivergence(Mutex<Option<Divergence>>);

impl FirstDivergence {
    fn report(&self, d: Divergence) {
        keep_earliest(&mut self.0.lock().unwrap_or_else(|p| p.into_inner()), d);
    }

    fn take(&self) -> Option<Divergence> {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).take()
    }
}

/// One rank's recorded resolutions, fed back through the
/// [`mpi_sim::ReplayDirector`] seam.
struct RankDirector {
    map: HashMap<u64, Directive>,
    first: Arc<FirstDivergence>,
}

impl ReplayDirector for RankDirector {
    fn directive(&mut self, call_index: u64, _func: FuncId) -> Option<Directive> {
        self.map.get(&call_index).cloned()
    }

    fn unsatisfied(&mut self, rank: usize, call_index: u64, func: FuncId, detail: String) {
        let expected = match self.map.get(&call_index) {
            Some(d) => format!("{}: {:?}", func.name(), d),
            None => func.name().to_string(),
        };
        self.first.report(Divergence { rank, call_index, expected, got: detail });
    }
}

/// The one world runner, directed or not: every rank re-issues its
/// decoded calls with a director installed and rank 0's Pilgrim trace of
/// the replay is the result. `log` holds the recorded resolutions of a
/// directed replay; `None` replays undirected — empty directive maps, so
/// the fabric chooses freely, and probes re-issued non-blocking so a
/// different interleaving cannot deadlock.
pub(crate) fn run_world(
    per_rank: Vec<Vec<EncodedCall>>,
    cfg: PilgrimConfig,
    log: Option<&NondetLog>,
) -> Result<GlobalTrace, Divergence> {
    let nranks = per_rank.len();
    let directed = log.is_some();
    let directives: Vec<HashMap<u64, Directive>> =
        (0..nranks).map(|r| log.map(|l| l.directives(r)).unwrap_or_default()).collect();
    let (per_rank, directives) = (Arc::new(per_rank), Arc::new(directives));
    let first = Arc::new(FirstDivergence::default());
    let body_first = Arc::clone(&first);
    let world = catch_unwind(AssertUnwindSafe(|| {
        World::run_faulty(
            &WorldConfig::new(nranks),
            |rank| PilgrimTracer::new(rank, cfg),
            move |env| {
                let rank = env.world_rank();
                env.set_replay_director(Box::new(RankDirector {
                    map: directives[rank].clone(),
                    first: Arc::clone(&body_first),
                }));
                let mut rp = Replayer::new(rank, directed);
                for (i, call) in per_rank[rank].iter().enumerate() {
                    if let Err(d) = rp.step(env, i as u64, call) {
                        body_first.report(d);
                        env.halt();
                    }
                }
                rp.drain(env);
            },
        )
    }));
    // A divergence halts the world: its peers' unwinds are the world's
    // panic, and the divergence is the answer. Any other panic is a bug.
    let mut outcome = match (world, first.take()) {
        (_, Some(d)) => return Err(d),
        (Ok(outcome), None) => outcome,
        (Err(panic), None) => resume_unwind(panic),
    };
    // No rank halted, so every tracer finalized; rank 0's holds the trace.
    let retrace = outcome.tracers.first_mut().and_then(Option::as_mut);
    retrace.and_then(|tracer| tracer.take_output().trace).ok_or_else(|| Divergence {
        rank: 0,
        call_index: 0,
        expected: "a replay to finalize".to_string(),
        got: "replay produced no merged trace".to_string(),
    })
}

/// One call's arguments, read by position and kind. Every read is
/// checked: a missing argument or one of another kind is a
/// [`Divergence`] naming the call, never a panic.
struct Args<'a> {
    args: &'a [EncodedArg],
    func: FuncId,
    rank: usize,
    call_index: u64,
}

type Step<T> = Result<T, Divergence>;

/// Readers of the one-value argument kinds: `name(at)` is the value of
/// the `EncodedArg::Kind` at position `at`.
macro_rules! readers {
    ($($name:ident: $kind:ident($v:ident) -> $t:ty = $out:expr;)*) => {$(
        fn $name(&self, at: u8) -> Step<$t> {
            self.read(at, stringify!($kind), |a| match a {
                EncodedArg::$kind($v) => Some($out),
                _ => None,
            })
        }
    )*};
}

impl<'a> Args<'a> {
    fn miss(&self, expected: String, got: String) -> Divergence {
        let expected = format!("{}: {expected}", self.func.name());
        Divergence { rank: self.rank, call_index: self.call_index, expected, got }
    }

    fn read<T>(&self, at: u8, kind: &str, pick: impl Fn(&'a EncodedArg) -> Option<T>) -> Step<T> {
        let arg = self.args.get(usize::from(at));
        arg.and_then(pick).ok_or_else(|| {
            let got = arg.map_or_else(|| "no argument".to_string(), |a| format!("{a:?}"));
            self.miss(format!("{kind} at argument {at}"), got)
        })
    }

    readers! {
        int: Int(v) -> i64 = *v;
        // A count is taken as unsigned, the way the simulator takes it.
        count: Int(v) -> u64 = *v as u64;
        ints: IntArr(v) -> &'a [i64] = v.as_slice();
        comm_sym: Comm(v) -> u64 = *v;
        dtype_sym: Datatype(v) -> u64 = *v;
        group_sym: Group(v) -> u64 = *v;
        request: Request(v) -> u64 = *v;
        requests: RequestArr(v) -> &'a [Option<u64>] = v.as_slice();
        rank_code: Rank(v) -> RankCode = *v;
        // Tags, colors and keys are read raw, as the default encoder
        // config stores them.
        tag: Tag(v) -> i32 = *v as i32;
        color: Color(v) -> i32 = *v as i32;
        key: Key(v) -> i32 = *v as i32;
        op_id: Op(v) -> u32 = *v;
        string: Str(v) -> &'a str = v.as_str();
    }

    /// A count array; its displacements are [`Args::ints`].
    fn counts(&self, at: u8) -> Step<Vec<u64>> {
        self.ints(at).map(|v| v.iter().map(|&x| x as u64).collect())
    }

    fn op(&self, at: u8) -> Step<ReduceOp> {
        let id = self.op_id(at)?;
        ReduceOp::from_id(id).ok_or_else(|| self.miss("a reduction op".into(), format!("op {id}")))
    }

    fn ptr(&self, at: u8) -> Step<(u64, u64)> {
        self.read(at, "Ptr", |a| match a {
            EncodedArg::Ptr { segment, offset } => Some((*segment, *offset)),
            _ => None,
        })
    }
}

/// A buffer's size in bytes: `count` elements of `elem` bytes, `scale`
/// times over (saturating: counts come from the trace).
fn span(count: u64, elem: u64, scale: u64) -> u64 {
    count.saturating_mul(elem).saturating_mul(scale)
}

/// The elements a v-collective's counts add up to, at least one.
fn total(counts: &[u64]) -> u64 {
    counts.iter().fold(0u64, |sum, &c| sum.saturating_add(c)).max(1)
}

/// Per-rank replay state: symbolic id -> live object maps.
struct Replayer {
    rank: usize,
    comms: HashMap<u64, CommHandle>,
    /// Handles of idup'd communicators whose symbolic id is not yet known
    /// (the trace carries a deferred marker at the idup itself).
    pending_idups: Vec<CommHandle>,
    dtypes: HashMap<u64, DatatypeHandle>,
    groups: HashMap<u64, GroupHandle>,
    /// Symbolic request ids are unique only within their (per-signature)
    /// pool, so several live requests can share a symbol: keep a FIFO of
    /// live handles per symbol.
    reqs: HashMap<u64, Vec<RequestHandle>>,
    segs: HashMap<u64, (u64, u64)>, // seg sym -> (addr, size)
    /// Directed replay (`pilgrim::rr`): blocking probes are re-issued
    /// blocking — the director pins their match, and unsatisfiable
    /// directives unwind the rank instead of deadlocking it.
    directed: bool,
}

impl Replayer {
    fn new(rank: usize, directed: bool) -> Self {
        Replayer {
            rank,
            comms: HashMap::from([(0, CommHandle(0))]),
            pending_idups: Vec::new(),
            dtypes: HashMap::new(),
            groups: HashMap::new(),
            reqs: HashMap::new(),
            segs: HashMap::new(),
            directed,
        }
    }

    /// The communicator at `at`. The first use of a symbol no call bound
    /// is the oldest idup whose id was deferred at creation time.
    fn comm(&mut self, a: &Args, at: u8) -> Step<CommHandle> {
        let sym = a.comm_sym(at)?;
        if let Some(&h) = self.comms.get(&sym) {
            return Ok(h);
        }
        if self.pending_idups.is_empty() {
            return Err(
                a.miss("a communicator an earlier call created".into(), format!("comm {sym}"))
            );
        }
        let h = self.pending_idups.remove(0);
        self.comms.insert(sym, h);
        Ok(h)
    }

    /// The datatype at `at`: a basic type (symbols below 16) or one an
    /// earlier constructor made.
    fn dtype(&self, a: &Args, at: u8) -> Step<DatatypeHandle> {
        match a.dtype_sym(at)? {
            sym if sym < 16 => Ok(DatatypeHandle(sym as u32)),
            sym => self.dtypes.get(&sym).copied().ok_or_else(|| {
                a.miss("a datatype an earlier call created".into(), format!("datatype {sym}"))
            }),
        }
    }

    fn group(&self, a: &Args, at: u8) -> Step<GroupHandle> {
        let sym = a.group_sym(at)?;
        let known = self.groups.get(&sym).copied();
        known
            .ok_or_else(|| a.miss("a group an earlier call created".into(), format!("group {sym}")))
    }

    /// The rank at `at`, absolute in `comm`.
    fn rank_at(&self, env: &Env, a: &Args, at: u8, comm: CommHandle) -> Step<i32> {
        Ok(a.rank_code(at)?.absolutize(env.comm_rank_untraced(comm) as i64) as i32)
    }

    /// Materializes the buffer at `at` covering `need` bytes past its
    /// offset, growing the backing segment if required.
    fn buf(&mut self, env: &mut Env, a: &Args, at: u8, need: u64) -> Step<u64> {
        let (seg, offset) = a.ptr(at)?;
        let required = offset.saturating_add(need.max(1));
        Ok(match self.segs.get(&seg) {
            Some(&(addr, size)) if size >= required => addr + offset,
            _ => {
                let size = required.checked_next_power_of_two().unwrap_or(required).max(64);
                let addr = env.malloc(size);
                self.segs.insert(seg, (addr, size));
                addr + offset
            }
        })
    }

    /// The `(buf, count, datatype)` message triple starting at `at`, its
    /// buffer sized for `scale` times the message.
    fn msg(
        &mut self,
        env: &mut Env,
        a: &Args,
        at: u8,
        scale: u64,
    ) -> Step<(u64, u64, DatatypeHandle)> {
        let count = a.count(at + 1)?;
        let dt = self.dtype(a, at + 2)?;
        let buf = self.buf(env, a, at, span(count, env.type_size(dt).max(1), scale))?;
        Ok((buf, count, dt))
    }

    /// Binds the request a call created to the symbol at its row's
    /// [`mpi_sim::funcs::Creates::at`].
    fn bind_request(&mut self, a: &Args, h: RequestHandle) -> Step<()> {
        if let Some(c) = a.func.shape().creates {
            self.push_req(a.request(c.at)?, h);
        }
        Ok(())
    }

    /// Binds the communicator a call created to the symbol at its row's
    /// [`Object::NewComm`]; `None` (and the symbol of `MPI_COMM_NULL`)
    /// binds nothing.
    fn bind_comm(&mut self, a: &Args, new: Option<CommHandle>) -> Step<()> {
        if let Some(Object::NewComm(at)) = a.func.shape().object {
            let sym = a.comm_sym(at)?;
            if let (Some(new), true) = (new, sym != u64::MAX) {
                self.comms.insert(sym, new);
            }
        }
        Ok(())
    }

    fn push_req(&mut self, sym: u64, h: RequestHandle) {
        self.reqs.entry(sym).or_default().push(h);
    }

    /// Takes one live handle for a symbol out of the map (FIFO).
    fn pop_req(&mut self, sym: u64) -> RequestHandle {
        match self.reqs.get_mut(&sym) {
            Some(v) if !v.is_empty() => v.remove(0),
            _ => REQUEST_NULL,
        }
    }

    /// Takes the handles for a request array out of the map.
    fn pop_reqs(&mut self, syms: &[Option<u64>]) -> Vec<RequestHandle> {
        syms.iter().map(|s| s.map_or(REQUEST_NULL, |v| self.pop_req(v))).collect()
    }

    /// Returns still-live handles (not completed by the call) to the map.
    fn sync_reqs(&mut self, handles: &[RequestHandle], syms: &[Option<u64>]) {
        for (&h, s) in handles.iter().zip(syms) {
            if let (true, Some(sym)) = (h != REQUEST_NULL, s) {
                self.push_req(*sym, h);
            }
        }
    }

    /// The wait/test/free family, driven by the row's [`Completion`]: the
    /// form says whether the call takes one request or an array, and
    /// where. Handles the call leaves live (persistent requests, requests
    /// a test or a partial wait did not complete) go back to the map.
    fn complete(&mut self, env: &mut Env, a: &Args, c: Completion) -> Step<()> {
        if c.form == Form::One {
            let sym = a.request(c.requests)?;
            let mut h = self.pop_req(sym);
            match a.func {
                FuncId::Wait => _ = env.wait(&mut h),
                FuncId::Test => _ = env.test(&mut h),
                _ if h != REQUEST_NULL => env.request_free(&mut h),
                _ => {}
            }
            if h != REQUEST_NULL && !c.frees {
                self.push_req(sym, h);
            }
            return Ok(());
        }
        let syms = a.requests(c.requests)?;
        let mut handles = self.pop_reqs(syms);
        match a.func {
            FuncId::Waitall => _ = env.waitall(&mut handles),
            FuncId::Waitany => _ = env.waitany(&mut handles),
            FuncId::Waitsome => _ = env.waitsome(&mut handles),
            FuncId::Testall => _ = env.testall(&mut handles),
            FuncId::Testany => _ = env.testany(&mut handles),
            _ => _ = env.testsome(&mut handles),
        }
        self.sync_reqs(&handles, syms);
        Ok(())
    }

    /// Issues call `call_index` of this rank against the live environment.
    fn step(&mut self, env: &mut Env, call_index: u64, call: &EncodedCall) -> Step<()> {
        let Some(func) = FuncId::from_id(call.func) else {
            let (rank, got) = (self.rank, format!("function id {}", call.func));
            let expected = "a function this simulator traces".to_string();
            return Err(Divergence { rank, call_index, expected, got });
        };
        let a = &Args { args: &call.args, func, rank: self.rank, call_index };
        match func {
            FuncId::Init | FuncId::Finalize => {} // driven by the world
            FuncId::CommRank => _ = env.comm_rank(self.comm(a, 0)?),
            FuncId::CommSize => _ = env.comm_size(self.comm(a, 0)?),
            FuncId::CommSetName => env.comm_set_name(self.comm(a, 0)?, a.string(1)?),
            FuncId::CommDup => {
                let new = env.comm_dup(self.comm(a, 0)?);
                self.bind_comm(a, Some(new))?;
            }
            FuncId::CommIdup => {
                let (new, req) = env.comm_idup(self.comm(a, 0)?);
                self.pending_idups.push(new);
                self.bind_request(a, req)?;
            }
            FuncId::CommSplit => {
                let new = env.comm_split(self.comm(a, 0)?, a.color(1)?, a.key(2)?);
                self.bind_comm(a, new)?;
            }
            FuncId::CommCreate => {
                let c = self.comm(a, 0)?;
                let new = env.comm_create(c, self.group(a, 1)?);
                self.bind_comm(a, new)?;
            }
            FuncId::CommFree => {
                env.comm_free(self.comm(a, 0)?);
                self.comms.remove(&a.comm_sym(0)?);
            }
            FuncId::CommGroup => {
                let g = env.comm_group(self.comm(a, 0)?);
                self.groups.insert(a.group_sym(1)?, g);
            }
            FuncId::GroupIncl => {
                let base = self.group(a, 0)?;
                let ranks: Vec<usize> = a.ints(2)?.iter().map(|&x| x as usize).collect();
                let g = env.group_incl(base, &ranks);
                self.groups.insert(a.group_sym(3)?, g);
            }
            FuncId::GroupFree => {
                env.group_free(self.group(a, 0)?);
                self.groups.remove(&a.group_sym(0)?);
            }
            FuncId::IntercommCreate => {
                let local = self.comm(a, 0)?;
                let local_leader = self.rank_at(env, a, 1, local)? as usize;
                let peer = self.comm(a, 2)?;
                let remote_leader = self.rank_at(env, a, 3, peer)?;
                let new = env.intercomm_create(local, local_leader, peer, remote_leader, a.tag(4)?);
                self.bind_comm(a, Some(new))?;
            }
            FuncId::IntercommMerge => {
                let new = env.intercomm_merge(self.comm(a, 0)?, a.int(1)? != 0);
                self.bind_comm(a, Some(new))?;
            }
            FuncId::TypeContiguous => {
                let new = env.type_contiguous(a.count(0)?, self.dtype(a, 1)?);
                self.dtypes.insert(a.dtype_sym(2)?, new);
            }
            FuncId::TypeVector => {
                let (count, blocklen, stride) = (a.count(0)?, a.count(1)?, a.int(2)?);
                let new = env.type_vector(count, blocklen, stride, self.dtype(a, 3)?);
                self.dtypes.insert(a.dtype_sym(4)?, new);
            }
            FuncId::TypeIndexed => {
                let new = env.type_indexed(&a.counts(1)?, a.ints(2)?, self.dtype(a, 3)?);
                self.dtypes.insert(a.dtype_sym(4)?, new);
            }
            FuncId::TypeCreateStruct => {
                let types: Vec<_> = a.ints(3)?.iter().map(|&x| DatatypeHandle(x as u32)).collect();
                let new = env.type_create_struct(&a.counts(1)?, a.ints(2)?, &types);
                self.dtypes.insert(a.dtype_sym(4)?, new);
            }
            FuncId::TypeCommit => env.type_commit(self.dtype(a, 0)?),
            FuncId::TypeFree => {
                env.type_free(self.dtype(a, 0)?);
                self.dtypes.remove(&a.dtype_sym(0)?);
            }
            FuncId::DimsCreate => _ = env.dims_create(a.count(0)? as usize, a.count(1)? as usize),
            FuncId::CartCreate => {
                let c = self.comm(a, 0)?;
                let dims: Vec<usize> = a.ints(2)?.iter().map(|&d| d as usize).collect();
                let periods: Vec<bool> = a.ints(3)?.iter().map(|&p| p != 0).collect();
                let new = env.cart_create(c, &dims, &periods, false);
                self.bind_comm(a, new)?;
            }
            FuncId::CartRank => {
                let coords: Vec<usize> = a.ints(1)?.iter().map(|&x| x as usize).collect();
                _ = env.cart_rank(self.comm(a, 0)?, &coords);
            }
            FuncId::CartCoords => _ = env.cart_coords(self.comm(a, 0)?, a.count(1)? as usize),
            FuncId::CartShift => {
                _ = env.cart_shift(self.comm(a, 0)?, a.count(1)? as usize, a.int(2)?)
            }
            FuncId::SendInit
            | FuncId::BsendInit
            | FuncId::SsendInit
            | FuncId::RsendInit
            | FuncId::RecvInit
            | FuncId::Isend
            | FuncId::Ibsend
            | FuncId::Issend
            | FuncId::Irsend
            | FuncId::Irecv => {
                let comm = self.comm(a, 5)?;
                let (buf, count, dt) = self.msg(env, a, 0, 2)?;
                let (peer, tag) = (self.rank_at(env, a, 3, comm)?, a.tag(4)?);
                let req = match func {
                    FuncId::SendInit => env.send_init(buf, count, dt, peer, tag, comm),
                    FuncId::BsendInit => env.bsend_init(buf, count, dt, peer, tag, comm),
                    FuncId::SsendInit => env.ssend_init(buf, count, dt, peer, tag, comm),
                    FuncId::RsendInit => env.rsend_init(buf, count, dt, peer, tag, comm),
                    FuncId::RecvInit => env.recv_init(buf, count, dt, peer, tag, comm),
                    FuncId::Isend => env.isend(buf, count, dt, peer, tag, comm),
                    FuncId::Ibsend => env.ibsend(buf, count, dt, peer, tag, comm),
                    FuncId::Issend => env.issend(buf, count, dt, peer, tag, comm),
                    FuncId::Irsend => env.irsend(buf, count, dt, peer, tag, comm),
                    _ => env.irecv(buf, count, dt, peer, tag, comm),
                };
                self.bind_request(a, req)?;
            }
            FuncId::Start => {
                let sym = a.request(0)?;
                let h = self.pop_req(sym);
                if h != REQUEST_NULL {
                    env.start(h);
                    self.push_req(sym, h);
                }
            }
            FuncId::Startall => {
                let syms = a.requests(1)?;
                let handles = self.pop_reqs(syms);
                let live: Vec<_> = handles.iter().copied().filter(|&h| h != REQUEST_NULL).collect();
                env.startall(&live);
                self.sync_reqs(&handles, syms);
            }
            FuncId::Send | FuncId::Bsend | FuncId::Ssend | FuncId::Rsend | FuncId::Recv => {
                let comm = self.comm(a, 5)?;
                let (buf, count, dt) = self.msg(env, a, 0, 2)?;
                let (peer, tag) = (self.rank_at(env, a, 3, comm)?, a.tag(4)?);
                match func {
                    FuncId::Send => env.send(buf, count, dt, peer, tag, comm),
                    FuncId::Bsend => env.bsend(buf, count, dt, peer, tag, comm),
                    FuncId::Ssend => env.ssend(buf, count, dt, peer, tag, comm),
                    FuncId::Rsend => env.rsend(buf, count, dt, peer, tag, comm),
                    _ => _ = env.recv(buf, count, dt, peer, tag, comm),
                }
            }
            FuncId::Sendrecv => {
                let comm = self.comm(a, 10)?;
                let (sbuf, scount, sdt) = self.msg(env, a, 0, 2)?;
                let (dest, stag) = (self.rank_at(env, a, 3, comm)?, a.tag(4)?);
                let (rbuf, rcount, rdt) = self.msg(env, a, 5, 2)?;
                let (src, rtag) = (self.rank_at(env, a, 8, comm)?, a.tag(9)?);
                env.sendrecv(sbuf, scount, sdt, dest, stag, rbuf, rcount, rdt, src, rtag, comm);
            }
            FuncId::SendrecvReplace => {
                let comm = self.comm(a, 7)?;
                let (buf, count, dt) = self.msg(env, a, 0, 2)?;
                let (dest, stag) = (self.rank_at(env, a, 3, comm)?, a.tag(4)?);
                let (src, rtag) = (self.rank_at(env, a, 5, comm)?, a.tag(6)?);
                env.sendrecv_replace(buf, count, dt, dest, stag, src, rtag, comm);
            }
            FuncId::Probe | FuncId::Iprobe => {
                // Probes are timing-sensitive: replay as non-blocking so a
                // different interleaving cannot deadlock. Under a director
                // the recorded resolution pins the match, so a blocking
                // probe is safe (and required for a bit-identical retrace).
                let comm = self.comm(a, 2)?;
                let (src, tag) = (self.rank_at(env, a, 0, comm)?, a.tag(1)?);
                if self.directed && func == FuncId::Probe {
                    env.probe(src, tag, comm);
                } else {
                    env.iprobe(src, tag, comm);
                }
            }
            FuncId::Wait
            | FuncId::Waitall
            | FuncId::Waitany
            | FuncId::Waitsome
            | FuncId::Test
            | FuncId::Testall
            | FuncId::Testany
            | FuncId::Testsome
            | FuncId::RequestFree => {
                if let Some(c) = func.shape().completes {
                    self.complete(env, a, c)?;
                }
            }
            FuncId::Barrier => env.barrier(self.comm(a, 0)?),
            FuncId::Ibarrier => {
                let req = env.ibarrier(self.comm(a, 0)?);
                self.bind_request(a, req)?;
            }
            FuncId::Bcast => {
                let comm = self.comm(a, 4)?;
                let (buf, count, dt) = self.msg(env, a, 0, 2)?;
                env.bcast(buf, count, dt, self.rank_at(env, a, 3, comm)?, comm);
            }
            FuncId::Reduce
            | FuncId::Allreduce
            | FuncId::Iallreduce
            | FuncId::Scan
            | FuncId::Exscan
            | FuncId::ReduceScatterBlock => {
                let comm = self.comm(a, if func == FuncId::Reduce { 6 } else { 5 })?;
                let (count, dt) = (a.count(2)?, self.dtype(a, 3)?);
                let elem = env.type_size(dt).max(8);
                // Reduce-scatter sends a block to every rank.
                let blocks = match func {
                    FuncId::ReduceScatterBlock => env.comm_size_untraced(comm) as u64,
                    _ => 1,
                };
                let sbuf = self.buf(env, a, 0, span(count, elem, blocks.saturating_mul(2)))?;
                let rbuf = self.buf(env, a, 1, span(count, elem, 2))?;
                let op = a.op(4)?;
                match func {
                    FuncId::Reduce => {
                        let root = self.rank_at(env, a, 5, comm)?;
                        env.reduce(sbuf, rbuf, count, dt, op, root, comm);
                    }
                    FuncId::Allreduce => env.allreduce(sbuf, rbuf, count, dt, op, comm),
                    FuncId::Iallreduce => {
                        let req = env.iallreduce(sbuf, rbuf, count, dt, op, comm);
                        self.bind_request(a, req)?;
                    }
                    FuncId::Scan => env.scan(sbuf, rbuf, count, dt, op, comm),
                    FuncId::Exscan => env.exscan(sbuf, rbuf, count, dt, op, comm),
                    _ => env.reduce_scatter_block(sbuf, rbuf, count, dt, op, comm),
                }
            }
            FuncId::Gather | FuncId::Scatter | FuncId::Allgather | FuncId::Alltoall => {
                let rooted = matches!(func, FuncId::Gather | FuncId::Scatter);
                let comm = self.comm(a, if rooted { 7 } else { 6 })?;
                let scale = (env.comm_size_untraced(comm) as u64).saturating_mul(2);
                let (sbuf, scount, sdt) = self.msg(env, a, 0, scale)?;
                let (rbuf, rcount, rdt) = self.msg(env, a, 3, scale)?;
                match func {
                    FuncId::Gather => {
                        let root = self.rank_at(env, a, 6, comm)?;
                        env.gather(sbuf, scount, sdt, rbuf, rcount, rdt, root, comm);
                    }
                    FuncId::Scatter => {
                        let root = self.rank_at(env, a, 6, comm)?;
                        env.scatter(sbuf, scount, sdt, rbuf, rcount, rdt, root, comm);
                    }
                    FuncId::Allgather => env.allgather(sbuf, scount, sdt, rbuf, rcount, rdt, comm),
                    _ => env.alltoall(sbuf, scount, sdt, rbuf, rcount, rdt, comm),
                }
            }
            FuncId::Gatherv | FuncId::Allgatherv => {
                let comm = self.comm(a, if func == FuncId::Gatherv { 8 } else { 7 })?;
                let (sbuf, scount, sdt) = self.msg(env, a, 0, 2)?;
                let (rcounts, displs, rdt) = (a.counts(4)?, a.ints(5)?, self.dtype(a, 6)?);
                let rbytes = span(total(&rcounts), env.type_size(rdt).max(1), 4);
                let rbuf = self.buf(env, a, 3, rbytes)?;
                if func == FuncId::Gatherv {
                    let root = self.rank_at(env, a, 7, comm)?;
                    env.gatherv(sbuf, scount, sdt, rbuf, &rcounts, displs, rdt, root, comm);
                } else {
                    env.allgatherv(sbuf, scount, sdt, rbuf, &rcounts, displs, rdt, comm);
                }
            }
            FuncId::Scatterv => {
                let comm = self.comm(a, 8)?;
                let (scounts, displs, sdt) = (a.counts(1)?, a.ints(2)?, self.dtype(a, 3)?);
                let sbytes = span(total(&scounts), env.type_size(sdt).max(1), 4);
                let sbuf = self.buf(env, a, 0, sbytes)?;
                let (rbuf, rcount, rdt) = self.msg(env, a, 4, 2)?;
                let root = self.rank_at(env, a, 7, comm)?;
                env.scatterv(sbuf, &scounts, displs, sdt, rbuf, rcount, rdt, root, comm);
            }
            FuncId::Alltoallv => {
                let comm = self.comm(a, 8)?;
                let (scounts, sdispls, sdt) = (a.counts(1)?, a.ints(2)?, self.dtype(a, 3)?);
                let (rcounts, rdispls, rdt) = (a.counts(5)?, a.ints(6)?, self.dtype(a, 7)?);
                let sbytes = span(total(&scounts), env.type_size(sdt).max(1), 4);
                let rbytes = span(total(&rcounts), env.type_size(rdt).max(1), 4);
                let sbuf = self.buf(env, a, 0, sbytes)?;
                let rbuf = self.buf(env, a, 4, rbytes)?;
                env.alltoallv(sbuf, &scounts, sdispls, sdt, rbuf, &rcounts, rdispls, rdt, comm);
            }
        }
        Ok(())
    }

    /// Completes any still-pending requests (a replay may leave requests
    /// live when the recorded nondeterministic outcome differed).
    fn drain(&mut self, env: &mut Env) {
        let mut handles: Vec<RequestHandle> = self.reqs.values().flatten().copied().collect();
        if !handles.is_empty() {
            env.waitall(&mut handles);
        }
        self.reqs.clear();
    }
}
