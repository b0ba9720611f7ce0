//! The per-rank MPI API surface.
//!
//! An [`Env`] is handed to each rank's body closure and exposes the MPI
//! operations the simulator implements. Every operation is executed against
//! the shared fabric, advances the rank's simulated clock, and is then
//! reported to the attached tracer as a [`CallRec`] carrying all input and
//! output arguments — the PMPI wrapper contract of the paper (§3.1):
//! prologue (timestamp), `PMPI_*` body, epilogue (record + tracer steps).
//! Every traced operation runs through one wrapper, `Env::call`, which owns
//! that order; an operation only supplies its body and its arguments.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::{ClockModel, SimClock};
use crate::comm::{CommHandle, CommInfo, CommTable, GroupHandle, GroupTable, COMM_WORLD};
use crate::datatype::{BasicType, DatatypeHandle, TypeTable};
use crate::fabric::{Fabric, Message, RecvSlot, WorldRank};
use crate::fault;
use crate::heap::{Addr, SimHeap};
use crate::hooks::{Arg, BoxedTracer, CallRec, Directive, ReplayDirector, TraceCtx};
use crate::request::{NbOp, ReqKind, RequestHandle, RequestTable, REQUEST_NULL};
use crate::types::{Status, ANY_SOURCE, ANY_TAG, PROC_NULL};
use crate::FuncId;

/// The rank-local MPI environment.
pub struct Env {
    rank: WorldRank,
    size: usize,
    fabric: Arc<Fabric>,
    pub(crate) comms: CommTable,
    groups: GroupTable,
    types: TypeTable,
    heap: SimHeap,
    reqs: RequestTable,
    clock: SimClock,
    tracer: Option<BoxedTracer>,
    compute_spin: f64,
    finalized: bool,
    /// Count of MPI calls made (paper plots total call counts in Fig 6).
    calls: u64,
    /// The function the call in progress executes; with `calls` it keys
    /// replay directives and names the call a replay halt reports.
    func: FuncId,
    /// Fault plan: die right after this call number (1-based).
    kill_at: Option<u64>,
    /// Directed-replay seam: when set, recorded nondeterministic
    /// resolutions override the fabric's free choices.
    director: Option<Box<dyn ReplayDirector>>,
}

/// One side of a point-to-point call as its arguments read: `count`
/// elements of `dt` at `buf`, to or from `peer` with `tag` on `comm`.
#[derive(Clone, Copy)]
struct P2p {
    buf: Addr,
    count: u64,
    dt: DatatypeHandle,
    peer: i32,
    tag: i32,
    comm: CommHandle,
}

impl P2p {
    /// The record's `(buf, count, datatype, peer, tag, comm)`, then `tail`.
    fn args(self, tail: Option<Arg>) -> Vec<Arg> {
        let mut args = Vec::with_capacity(7);
        args.extend([
            Arg::Ptr(self.buf),
            Arg::Int(self.count as i64),
            Arg::Datatype(self.dt.0),
            Arg::Rank(self.peer),
            Arg::Tag(self.tag),
            Arg::Comm(self.comm.0),
        ]);
        args.extend(tail);
        args
    }
}

/// The `(source, tag)` a record keeps of a status.
fn status_arg(s: Status) -> Arg {
    Arg::Status { source: s.source, tag: s.tag }
}

fn status_arr(statuses: impl IntoIterator<Item = Status>) -> Arg {
    Arg::StatusArr(statuses.into_iter().map(|s| (s.source, s.tag)).collect())
}

/// The record of a Waitsome/Testsome: the request array, then how many
/// completed, their indices and their statuses.
fn some_args(raws: Vec<u64>, done: &[(usize, Status)]) -> Vec<Arg> {
    vec![
        Arg::Int(raws.len() as i64),
        Arg::RequestArr(raws),
        Arg::Int(done.len() as i64),
        Arg::IntArr(done.iter().map(|&(i, _)| i as i64).collect()),
        status_arr(done.iter().map(|&(_, s)| s)),
    ]
}

/// The index and status a Waitany/Testany records: `-1` and the null
/// status when nothing completed.
fn any_args(done: Option<(usize, Status)>) -> (Arg, Arg) {
    let (i, s) = done.map_or((-1, Status::proc_null()), |(i, s)| (i as i64, s));
    (Arg::Int(i), status_arg(s))
}

impl Env {
    pub(crate) fn new(
        rank: WorldRank,
        fabric: Arc<Fabric>,
        clock_model: ClockModel,
        seed: u64,
        tracer: Option<BoxedTracer>,
    ) -> Self {
        let size = fabric.n_ranks();
        let kill_at = fabric.fault_plan().and_then(|p| p.kill_for(rank));
        Env {
            rank,
            size,
            comms: CommTable::new(size, rank),
            groups: GroupTable::new(),
            types: TypeTable::new(),
            heap: SimHeap::new(),
            reqs: RequestTable::new(),
            clock: SimClock::new(clock_model, seed, rank),
            fabric,
            tracer,
            compute_spin: 0.0,
            finalized: false,
            calls: 0,
            func: FuncId::Init,
            kill_at,
            director: None,
        }
    }

    /// World rank of this process.
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.size
    }

    /// `MPI_COMM_WORLD`.
    pub fn comm_world(&self) -> CommHandle {
        COMM_WORLD
    }

    /// This rank's rank within a communicator, *without* recording an
    /// `MPI_Comm_rank` call (tool-side introspection, used by the trace
    /// replayer).
    pub fn comm_rank_untraced(&self, comm: CommHandle) -> usize {
        self.comms.get(comm).my_rank
    }

    /// A communicator's local size, untraced.
    pub fn comm_size_untraced(&self, comm: CommHandle) -> usize {
        self.comms.get(comm).size()
    }

    /// Handle for a predefined basic datatype.
    pub fn basic(&self, b: BasicType) -> DatatypeHandle {
        b.handle()
    }

    /// Total MPI calls made by this rank so far.
    pub fn call_count(&self) -> u64 {
        self.calls
    }

    /// Current simulated time (ns).
    pub fn sim_time(&self) -> u64 {
        self.clock.now()
    }

    /// Advances the simulated clock past a compute phase. When the world
    /// was configured with a compute-spin factor, also burns proportional
    /// real CPU time so tracing overhead can be measured against a
    /// realistic compute budget.
    pub fn compute(&mut self, ns: u64) {
        self.clock.compute(ns);
        if self.compute_spin > 0.0 {
            let budget = std::time::Duration::from_nanos((ns as f64 * self.compute_spin) as u64);
            let start = std::time::Instant::now();
            while start.elapsed() < budget {
                std::hint::spin_loop();
            }
        }
    }

    pub(crate) fn set_compute_spin(&mut self, factor: f64) {
        self.compute_spin = factor;
    }

    // ------------------------------------------------------------------
    // The PMPI wrapper and tracer dispatch
    // ------------------------------------------------------------------

    /// The one PMPI wrapper every traced operation runs through: entry
    /// timestamp, the call's software overhead, the `PMPI_*` body, exit
    /// timestamp, then the record. `body` returns the call's result and
    /// its full argument list. This order is what every virtual
    /// timestamp of a trace means.
    #[inline]
    fn call<R>(&mut self, func: FuncId, body: impl FnOnce(&mut Env) -> (R, Vec<Arg>)) -> R {
        self.func = func;
        let t0 = self.clock.now();
        self.clock.call_entry();
        let (ret, args) = body(self);
        let t1 = self.clock.now();
        self.emit(CallRec::new(func, args), t0, t1);
        ret
    }

    /// The epilogue: counts the call, reports it, then applies an
    /// injected kill.
    fn emit(&mut self, rec: CallRec, t0: u64, t1: u64) {
        self.calls += 1;
        self.hook(|tr, ctx| tr.on_call(ctx, &rec, t0, t1));
        // Injected kill: the call above completed (sends delivered, tracer
        // updated, checkpoint possibly stored), so peers can prove that
        // anything still missing from this rank will never arrive.
        if self.kill_at == Some(self.calls) {
            self.fabric.mark_dead(self.rank, self.calls);
            fault::raise_killed(self.rank, self.calls);
        }
    }

    /// Runs a tracer callback. The hook may unwind (e.g. a tool collective
    /// hits a dead peer); restore the tracer first so its state — including
    /// any checkpoint it stored — survives the unwind, then re-raise.
    fn hook(&mut self, f: impl FnOnce(&mut BoxedTracer, &TraceCtx<'_>)) {
        if let Some(mut tr) = self.tracer.take() {
            let res = {
                let ctx = TraceCtx {
                    world_rank: self.rank,
                    world_size: self.size,
                    fabric: &self.fabric,
                    comms: &self.comms,
                };
                catch_unwind(AssertUnwindSafe(|| f(&mut tr, &ctx)))
            };
            self.tracer = Some(tr);
            if let Err(e) = res {
                resume_unwind(e);
            }
        }
    }

    pub(crate) fn take_tracer(&mut self) -> Option<BoxedTracer> {
        self.tracer.take()
    }

    pub(crate) fn is_finalized(&self) -> bool {
        self.finalized
    }

    // ------------------------------------------------------------------
    // Memory management (observed by tracers, not MPI calls)
    // ------------------------------------------------------------------

    /// Simulated `malloc`; the tracer observes the allocation.
    pub fn malloc(&mut self, size: u64) -> Addr {
        let addr = self.heap.malloc(size);
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_alloc(addr, size.max(1));
        }
        addr
    }

    /// Simulated `free`; the tracer observes the release.
    pub fn free(&mut self, addr: Addr) {
        self.heap.free(addr);
        if let Some(tr) = self.tracer.as_mut() {
            tr.on_free(addr);
        }
    }

    /// Writes raw bytes into the simulated heap.
    pub fn heap_write(&mut self, addr: Addr, bytes: &[u8]) {
        self.heap.write(addr, bytes);
    }

    /// Reads raw bytes from the simulated heap.
    pub fn heap_read(&self, addr: Addr, len: u64) -> Vec<u8> {
        self.heap.read(addr, len).to_vec()
    }

    /// Writes u64 values into the simulated heap.
    pub fn heap_write_u64s(&mut self, addr: Addr, vals: &[u64]) {
        self.heap.write_u64s(addr, vals);
    }

    /// Reads u64 values from the simulated heap.
    pub fn heap_read_u64s(&self, addr: Addr, count: usize) -> Vec<u64> {
        self.heap.read_u64s(addr, count)
    }

    // ------------------------------------------------------------------
    // Init / finalize
    // ------------------------------------------------------------------

    pub(crate) fn init(&mut self) {
        self.call(FuncId::Init, |_| ((), vec![]));
    }

    /// `MPI_Finalize`: records the call, then runs the tracer's finalize
    /// hook (where Pilgrim performs inter-process compression).
    pub fn finalize(&mut self) {
        assert!(!self.finalized, "MPI_Finalize called twice");
        self.call(FuncId::Finalize, |_| ((), vec![]));
        self.hook(|tr, ctx| tr.on_finalize(ctx));
        self.finalized = true;
    }

    // ------------------------------------------------------------------
    // Communicator queries
    // ------------------------------------------------------------------

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&mut self, comm: CommHandle) -> usize {
        self.call(FuncId::CommRank, |env| {
            let rank = env.comms.get(comm).my_rank;
            (rank, vec![Arg::Comm(comm.0), Arg::Int(rank as i64)])
        })
    }

    /// `MPI_Comm_size` (local group size).
    pub fn comm_size(&mut self, comm: CommHandle) -> usize {
        self.call(FuncId::CommSize, |env| {
            let size = env.comms.get(comm).size();
            (size, vec![Arg::Comm(comm.0), Arg::Int(size as i64)])
        })
    }

    /// `MPI_Comm_set_name`.
    pub fn comm_set_name(&mut self, comm: CommHandle, name: &str) {
        self.call(FuncId::CommSetName, |env| {
            env.comms.get_mut(comm).name = Some(name.to_string());
            ((), vec![Arg::Comm(comm.0), Arg::Str(name.to_string())])
        })
    }

    /// `MPI_Comm_group`.
    pub fn comm_group(&mut self, comm: CommHandle) -> GroupHandle {
        self.call(FuncId::CommGroup, |env| {
            let g = env.groups.insert(env.comms.get(comm).group.clone());
            (g, vec![Arg::Comm(comm.0), Arg::Group(g.0)])
        })
    }

    /// `MPI_Group_incl`: group from the listed ranks of an existing group.
    pub fn group_incl(&mut self, group: GroupHandle, ranks: &[usize]) -> GroupHandle {
        self.call(FuncId::GroupIncl, |env| {
            let base = env.groups.get(group);
            let members: Vec<WorldRank> = ranks.iter().map(|&r| base[r]).collect();
            let g = env.groups.insert(members);
            let args = vec![
                Arg::Group(group.0),
                Arg::Int(ranks.len() as i64),
                Arg::IntArr(ranks.iter().map(|&r| r as i64).collect()),
                Arg::Group(g.0),
            ];
            (g, args)
        })
    }

    /// World ranks of a group (helper, untraced).
    pub fn group_members(&self, group: GroupHandle) -> Vec<WorldRank> {
        self.groups.get(group).to_vec()
    }

    /// `MPI_Group_free`.
    pub fn group_free(&mut self, group: GroupHandle) {
        self.call(FuncId::GroupFree, |env| {
            env.groups.remove(group);
            ((), vec![Arg::Group(group.0)])
        })
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    fn pack_buf(&self, buf: Addr, count: u64, dt: DatatypeHandle) -> Vec<u8> {
        let d = self.types.get(dt);
        self.heap.pack(buf, &d.blocks, d.extent, count)
    }

    fn unpack_buf(&mut self, buf: Addr, count: u64, dt: DatatypeHandle, data: &[u8]) {
        let d = self.types.get(dt).clone();
        self.heap.unpack(buf, &d.blocks, d.extent, count, data);
    }

    /// World rank of a concrete (non-wildcard) source on `info`, used for
    /// dead-sender detection; `None` for `MPI_ANY_SOURCE`.
    fn src_world_of(info: &CommInfo, src: i32) -> Option<WorldRank> {
        (src != ANY_SOURCE).then(|| info.peer_world(src))
    }

    /// Posts a receive for `(src, tag)` on `comm`.
    fn post_recv(&self, src: i32, tag: i32, comm: CommHandle) -> Arc<RecvSlot> {
        let info = self.comms.get(comm);
        self.fabric.post_recv(self.rank, info.ctx, src, tag, Self::src_world_of(info, src))
    }

    fn do_send(&mut self, p: P2p) {
        if p.peer == PROC_NULL {
            return;
        }
        let data = self.pack_buf(p.buf, p.count, p.dt);
        let info = self.comms.get(p.comm);
        let msg = Message {
            ctx: info.ctx,
            src_comm_rank: info.my_rank as i32,
            tag: p.tag,
            data,
            send_time: self.clock.now(),
        };
        self.fabric.send(info.peer_world(p.peer), msg);
    }

    /// Receives one message matching `recv` into its buffer, honoring a
    /// recorded wildcard resolution. `send`, when given, goes out after the
    /// receive is posted and before it completes, so an incoming eager
    /// message matches — `MPI_Sendrecv`'s order, deadlock-free for
    /// exchanges.
    fn receive(&mut self, recv: P2p, send: Option<P2p>) -> Status {
        let directed = self.directed_match(recv.peer, recv.tag, recv.comm);
        let slot = (recv.peer != PROC_NULL).then(|| {
            let (src, tag) = directed.unwrap_or((recv.peer, recv.tag));
            self.post_recv(src, tag, recv.comm)
        });
        if let Some(send) = send {
            self.do_send(send);
        }
        let Some(slot) = slot else { return Status::proc_null() };
        if let Some((src, tag)) = directed {
            if !self.poll_directed(|_| slot.is_ready()) {
                self.replay_halt(format!("recorded match (source {src}, tag {tag}) never arrived"));
            }
        }
        let msg = slot.wait_take(&self.fabric, self.rank);
        let d = self.types.get(recv.dt);
        let (blocks, extent) = (d.blocks.clone(), d.extent);
        self.deliver(msg, recv.buf, recv.count, &blocks, extent)
    }

    /// Delivers a matched message: the clock absorbs its arrival, the
    /// payload is unpacked into `buf`, and its status is returned.
    fn deliver(
        &mut self,
        msg: Message,
        buf: Addr,
        count: u64,
        blocks: &[(i64, u64)],
        extent: u64,
    ) -> Status {
        let bytes = msg.data.len() as u64;
        self.clock.absorb_message(msg.send_time, bytes);
        self.heap.unpack(buf, blocks, extent, count, &msg.data);
        Status { source: msg.src_comm_rank, tag: msg.tag, count: bytes }
    }

    fn send_like(&mut self, func: FuncId, p: P2p) {
        self.call(func, |env| {
            env.do_send(p);
            ((), p.args(None))
        })
    }

    /// `MPI_Send`. (Buffered/synchronous/ready variants share the eager
    /// delivery semantics of the simulator but are traced distinctly.)
    pub fn send(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) {
        self.send_like(FuncId::Send, P2p { buf, count, dt, peer: dest, tag, comm });
    }

    /// `MPI_Bsend`.
    pub fn bsend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) {
        self.send_like(FuncId::Bsend, P2p { buf, count, dt, peer: dest, tag, comm });
    }

    /// `MPI_Ssend`.
    pub fn ssend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) {
        self.send_like(FuncId::Ssend, P2p { buf, count, dt, peer: dest, tag, comm });
    }

    /// `MPI_Rsend`.
    pub fn rsend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) {
        self.send_like(FuncId::Rsend, P2p { buf, count, dt, peer: dest, tag, comm });
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> Status {
        let p = P2p { buf, count, dt, peer: src, tag, comm };
        self.call(FuncId::Recv, |env| {
            let status = env.receive(p, None);
            (status, p.args(Some(status_arg(status))))
        })
    }

    /// `MPI_Sendrecv`.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        dest: i32,
        sendtag: i32,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        src: i32,
        recvtag: i32,
        comm: CommHandle,
    ) -> Status {
        let send =
            P2p { buf: sendbuf, count: sendcount, dt: sendtype, peer: dest, tag: sendtag, comm };
        let recv =
            P2p { buf: recvbuf, count: recvcount, dt: recvtype, peer: src, tag: recvtag, comm };
        self.call(FuncId::Sendrecv, |env| {
            let status = env.receive(recv, Some(send));
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Rank(dest),
                Arg::Tag(sendtag),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Rank(src),
                Arg::Tag(recvtag),
                Arg::Comm(comm.0),
                status_arg(status),
            ];
            (status, args)
        })
    }

    /// `MPI_Sendrecv_replace`: exchange using a single buffer (the outgoing
    /// data is sent before the incoming data replaces it).
    #[allow(clippy::too_many_arguments)] // mirrors the MPI C signature
    pub fn sendrecv_replace(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        sendtag: i32,
        src: i32,
        recvtag: i32,
        comm: CommHandle,
    ) -> Status {
        let send = P2p { buf, count, dt, peer: dest, tag: sendtag, comm };
        self.call(FuncId::SendrecvReplace, |env| {
            let status = env.receive(P2p { peer: src, tag: recvtag, ..send }, Some(send));
            let args = vec![
                Arg::Ptr(buf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Rank(dest),
                Arg::Tag(sendtag),
                Arg::Rank(src),
                Arg::Tag(recvtag),
                Arg::Comm(comm.0),
                status_arg(status),
            ];
            (status, args)
        })
    }

    fn isend_like(&mut self, func: FuncId, p: P2p) -> RequestHandle {
        self.call(func, |env| {
            env.do_send(p);
            let req = env.reqs.insert(ReqKind::Send);
            (req, p.args(Some(Arg::Request(req.0))))
        })
    }

    /// `MPI_Isend`.
    pub fn isend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.isend_like(FuncId::Isend, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Ibsend`.
    pub fn ibsend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.isend_like(FuncId::Ibsend, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Issend`.
    pub fn issend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.isend_like(FuncId::Issend, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Irsend`.
    pub fn irsend(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.isend_like(FuncId::Irsend, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Irecv`.
    pub fn irecv(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        let p = P2p { buf, count, dt, peer: src, tag, comm };
        self.call(FuncId::Irecv, |env| {
            let req = if src == PROC_NULL {
                env.reqs.insert(ReqKind::Send)
            } else {
                // A wildcard Irecv is directed at post time: the resolution
                // was recorded at this call's index when its completion
                // reported the matched (source, tag).
                let (psrc, ptag) = env.directed_match(src, tag, comm).unwrap_or((src, tag));
                let slot = env.post_recv(psrc, ptag, comm);
                let d = env.types.get(dt);
                let (blocks, extent) = (d.blocks.clone(), d.extent);
                env.reqs.insert(ReqKind::Recv { slot, buf, blocks, extent, count })
            };
            (req, p.args(Some(Arg::Request(req.0))))
        })
    }

    /// `MPI_Probe`.
    pub fn probe(&mut self, src: i32, tag: i32, comm: CommHandle) -> Status {
        self.call(FuncId::Probe, |env| {
            let directed = env.directed_match(src, tag, comm);
            let (psrc, ptag) = directed.unwrap_or((src, tag));
            let info = env.comms.get(comm);
            let (ctx, src_world) = (info.ctx, Self::src_world_of(info, psrc));
            if directed.is_some()
                && !env.poll_directed(|me| me.fabric.iprobe(me.rank, ctx, psrc, ptag).is_some())
            {
                env.replay_halt(format!(
                    "recorded probe hit (source {psrc}, tag {ptag}) never arrived"
                ));
            }
            let (source, found_tag, count) = env.fabric.probe(env.rank, ctx, psrc, ptag, src_world);
            let status = Status { source, tag: found_tag, count };
            (status, vec![Arg::Rank(src), Arg::Tag(tag), Arg::Comm(comm.0), status_arg(status)])
        })
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: i32, tag: i32, comm: CommHandle) -> Option<Status> {
        self.call(FuncId::Iprobe, |env| {
            let ctx = env.comms.get(comm).ctx;
            // An Iprobe's flag is nondeterministic even for concrete (src,
            // tag), so directed replay consults the directive on every
            // call: a recorded miss replays as a miss without touching the
            // fabric, a recorded hit waits for exactly the recorded message.
            let found = match env.next_directive() {
                Some(Directive::Flag(false)) => None,
                Some(Directive::MatchSource { source, tag: ptag }) => {
                    let dsrc = env.comms.get(comm).my_rank as i32 + source;
                    if !env.poll_directed(|me| me.fabric.iprobe(me.rank, ctx, dsrc, ptag).is_some())
                    {
                        env.replay_halt(format!(
                            "recorded iprobe hit (source {dsrc}, tag {ptag}) never arrived"
                        ));
                    }
                    env.fabric.iprobe(env.rank, ctx, dsrc, ptag)
                }
                _ => env.fabric.iprobe(env.rank, ctx, src, tag),
            };
            let status = found.map(|(source, tag, count)| Status { source, tag, count });
            let args = vec![
                Arg::Rank(src),
                Arg::Tag(tag),
                Arg::Comm(comm.0),
                Arg::Int(status.is_some() as i64),
                status_arg(status.unwrap_or_else(Status::proc_null)),
            ];
            (status, args)
        })
    }

    // ------------------------------------------------------------------
    // Request completion
    // ------------------------------------------------------------------

    /// Is the request *active* (null and inactive-persistent requests are
    /// ignored by the any/some/all selection rules)?
    fn req_active(&self, h: RequestHandle) -> bool {
        if h == REQUEST_NULL {
            return false;
        }
        match self.reqs.get(h) {
            ReqKind::PersistentSend { active, .. } => *active,
            ReqKind::PersistentRecv { pending, .. } => pending.is_some(),
            _ => true,
        }
    }

    /// Is the request ready to complete without blocking?
    fn req_ready(&self, h: RequestHandle) -> bool {
        match self.reqs.get(h) {
            ReqKind::Send => true,
            ReqKind::Recv { slot, .. } => slot.is_ready(),
            ReqKind::Coll { coll, round, .. } => coll.is_ready(*round),
            // Inactive persistent requests complete immediately; active
            // sends are eager, active receives wait on their slot.
            ReqKind::PersistentSend { .. } => true,
            ReqKind::PersistentRecv { pending, .. } => {
                pending.as_ref().is_none_or(|(slot, _, _)| slot.is_ready())
            }
        }
    }

    /// The completion step every wait/test call shares: completes a ready
    /// (or send-type) request and releases its handle to `REQUEST_NULL`. A
    /// null handle completes at once; a persistent request becomes
    /// inactive instead and keeps its handle.
    fn complete(&mut self, h: &mut RequestHandle) -> Status {
        if *h == REQUEST_NULL {
            return Status::proc_null();
        }
        if self.reqs.is_persistent(*h) {
            let taken = match self.reqs.get_mut(*h) {
                ReqKind::PersistentSend { active, .. } => {
                    *active = false;
                    None
                }
                ReqKind::PersistentRecv { buf, count, pending, .. } => {
                    pending.take().map(|pending| (*buf, *count, pending))
                }
                _ => unreachable!(),
            };
            return match taken {
                None => Status::proc_null(),
                Some((buf, count, (slot, blocks, extent))) => {
                    let msg = slot.wait_take(&self.fabric, self.rank);
                    self.deliver(msg, buf, count, &blocks, extent)
                }
            };
        }
        let status = match self.reqs.remove(*h) {
            ReqKind::PersistentSend { .. } | ReqKind::PersistentRecv { .. } => unreachable!(),
            ReqKind::Send => Status::proc_null(),
            ReqKind::Recv { slot, buf, blocks, extent, count } => {
                let msg = slot.wait_take(&self.fabric, self.rank);
                self.deliver(msg, buf, count, &blocks, extent)
            }
            ReqKind::Coll { coll, round, lane_rank: _, op } => {
                let (contribs, sync) = coll.wait_collect(&self.fabric, round, self.rank);
                let bytes: u64 = contribs.iter().map(|c| c.len() as u64).sum();
                self.clock.absorb_collective(sync, bytes.min(1 << 16));
                match op {
                    NbOp::Barrier => {}
                    NbOp::Allreduce { recv, lanes, op } => {
                        let acc = Self::reduce_contribs(&contribs, op);
                        debug_assert_eq!(acc.len(), lanes);
                        self.heap.write_u64s(recv, &acc);
                    }
                    NbOp::Idup { parent, new_handle } => {
                        let group = self.comms.get(parent).group.clone();
                        self.install_intra(le_u64(&contribs[0]), group, Some(new_handle));
                    }
                }
                Status::proc_null()
            }
        };
        *h = REQUEST_NULL;
        status
    }

    /// Completes every request of `reqs`, in order.
    fn complete_all(&mut self, reqs: &mut [RequestHandle]) -> Vec<Status> {
        reqs.iter_mut().map(|r| self.complete(r)).collect()
    }

    /// Index of the first active request at or after `from` that can
    /// complete without blocking.
    fn next_ready(&self, reqs: &[RequestHandle], from: usize) -> Option<usize> {
        (from..reqs.len()).find(|&i| self.req_active(reqs[i]) && self.req_ready(reqs[i]))
    }

    /// Completes, in index order, every request that is ready.
    fn complete_ready(&mut self, reqs: &mut [RequestHandle]) -> Vec<(usize, Status)> {
        let mut done = Vec::new();
        let mut from = 0;
        while let Some(i) = self.next_ready(reqs, from) {
            done.push((i, self.complete(&mut reqs[i])));
            from = i + 1;
        }
        done
    }

    /// Spins until `pred` holds, yielding, then sleeping and checking for
    /// aborts. Gives up and returns `false` once `deadline` has passed.
    fn poll_until<F: FnMut(&Self) -> bool>(&self, deadline: Option<Instant>, mut pred: F) -> bool {
        let mut spins = 0u32;
        while !pred(self) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            if spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
                self.fabric.check_abort();
            }
            spins += 1;
        }
        true
    }

    // ------------------------------------------------------------------
    // Directed replay
    // ------------------------------------------------------------------

    /// Installs a replay director: recorded nondeterministic resolutions
    /// (wildcard matches, completion orders, test/probe flags) override
    /// the fabric's free choices so a replay reproduces the recorded
    /// schedule bit-for-bit. Install from inside the rank body before the
    /// first MPI call. A directive that cannot be satisfied reports
    /// through [`ReplayDirector::unsatisfied`] and unwinds the rank as
    /// dead, so peers detect it through the usual dead-peer path.
    pub fn set_replay_director(&mut self, director: Box<dyn ReplayDirector>) {
        fault::silence_fault_panics();
        self.director = Some(director);
    }

    /// The directive recorded for the call in progress, if any.
    fn next_directive(&mut self) -> Option<Directive> {
        let (idx, func) = (self.calls, self.func);
        self.director.as_mut().and_then(|d| d.directive(idx, func))
    }

    /// The directed `(source, tag)` for a wildcard receive/probe posting:
    /// `None` for concrete matches, `PROC_NULL` sources, undirected runs,
    /// or calls without a recorded resolution. The directive's source is
    /// a delta relative to the caller's rank in `comm` (the same relative
    /// form the trace encoder uses), absolutized here.
    fn directed_match(&mut self, src: i32, tag: i32, comm: CommHandle) -> Option<(i32, i32)> {
        if self.director.is_none() || src == PROC_NULL || (src != ANY_SOURCE && tag != ANY_TAG) {
            return None;
        }
        match self.next_directive() {
            Some(Directive::MatchSource { source, tag }) => {
                let me = self.comms.get(comm).my_rank as i32;
                Some((me + source, tag))
            }
            _ => None,
        }
    }

    /// Bounded directed wait: a directive that can never be satisfied must
    /// fail fast (the caller raises a replay halt), not hang the world.
    fn poll_directed<F: FnMut(&Self) -> bool>(&self, pred: F) -> bool {
        self.poll_until(Some(Instant::now() + Duration::from_secs(3)), pred)
    }

    /// Divergence during directed replay: the recorded resolution cannot
    /// be reproduced. Reports the detail to the director, then halts.
    #[cold]
    fn replay_halt(&mut self, detail: String) -> ! {
        let (idx, func) = (self.calls, self.func);
        if let Some(d) = self.director.as_mut() {
            d.unsatisfied(self.rank, idx, func, detail);
        }
        self.halt()
    }

    /// Ends the whole world from this rank: aborts the fabric, so every
    /// peer unwinds at its next wait (a wildcard receive included), then
    /// unwinds this rank as killed.
    #[cold]
    pub fn halt(&mut self) -> ! {
        fault::silence_fault_panics();
        self.fabric.abort();
        fault::raise_killed(self.rank, self.calls)
    }

    /// A recorded completion index, checked to name an active request.
    fn recorded_index(&mut self, reqs: &[RequestHandle], i: u32) -> usize {
        let i = i as usize;
        if i >= reqs.len() || !self.req_active(reqs[i]) {
            self.replay_halt(format!("recorded completion index {i} is not an active request"));
        }
        i
    }

    /// Waits for the recorded completion index of a directed
    /// Waitany/Testany to become ready.
    fn await_recorded(&mut self, reqs: &[RequestHandle], i: u32) -> usize {
        let i = self.recorded_index(reqs, i);
        if !self.poll_directed(|me| me.req_ready(reqs[i])) {
            self.replay_halt(format!("recorded completion index {i} never became ready"));
        }
        i
    }

    /// Completes exactly the recorded index set, in recorded order, for a
    /// directed Waitsome/Testsome.
    fn complete_directed_set(
        &mut self,
        reqs: &mut [RequestHandle],
        indices: &[u32],
    ) -> Vec<(usize, Status)> {
        for &i in indices {
            self.recorded_index(reqs, i);
        }
        if !self.poll_directed(|me| indices.iter().all(|&i| me.req_ready(reqs[i as usize]))) {
            self.replay_halt(format!("recorded completion set {indices:?} never became ready"));
        }
        indices.iter().map(|&i| (i as usize, self.complete(&mut reqs[i as usize]))).collect()
    }

    /// Whether request `h` waits on something a failed rank will never
    /// provide.
    fn req_blocked_on_dead(&self, h: RequestHandle) -> Option<WorldRank> {
        match self.reqs.get(h) {
            ReqKind::Recv { slot, .. } => slot.blocked_on_dead(&self.fabric),
            ReqKind::PersistentRecv { pending, .. } => {
                pending.as_ref().and_then(|(slot, _, _)| slot.blocked_on_dead(&self.fabric))
            }
            ReqKind::Coll { coll, round, .. } => coll.blocked_on_dead(&self.fabric, *round),
            _ => None,
        }
    }

    /// Unwinds with a peer failure when *every* active request in `reqs`
    /// is provably stuck on a failed rank — waitany/waitsome could
    /// otherwise spin forever. As long as one request may still complete,
    /// keeps waiting.
    fn check_all_stuck(&self, reqs: &[RequestHandle]) {
        if !self.fabric.has_failures() {
            return;
        }
        let mut dead = None;
        for &r in reqs {
            if !self.req_active(r) {
                continue;
            }
            match self.req_blocked_on_dead(r) {
                Some(w) => dead = Some(w),
                None => return,
            }
        }
        if let Some(w) = dead {
            fault::raise_peer_failure(self.rank, w);
        }
    }

    /// Blocks until some active request of `reqs` is ready (unwinding when
    /// all of them are stuck on failed ranks); returns the first one.
    fn wait_ready(&self, reqs: &[RequestHandle]) -> usize {
        let mut first = 0;
        self.poll_until(None, |me| match me.next_ready(reqs, 0) {
            Some(i) => {
                first = i;
                true
            }
            None => {
                me.check_all_stuck(reqs);
                false
            }
        });
        first
    }

    fn raw_reqs(reqs: &[RequestHandle]) -> Vec<u64> {
        reqs.iter().map(|r| r.0).collect()
    }

    /// `MPI_Wait`. The request is consumed and set to `REQUEST_NULL`.
    pub fn wait(&mut self, req: &mut RequestHandle) -> Status {
        let raw = req.0;
        self.call(FuncId::Wait, |env| {
            let status = env.complete(req);
            (status, vec![Arg::Request(raw), status_arg(status)])
        })
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &mut [RequestHandle]) -> Vec<Status> {
        self.call(FuncId::Waitall, |env| {
            let raws = Self::raw_reqs(reqs);
            let statuses = env.complete_all(reqs);
            let args = vec![
                Arg::Int(raws.len() as i64),
                Arg::RequestArr(raws),
                status_arr(statuses.iter().copied()),
            ];
            (statuses, args)
        })
    }

    /// `MPI_Waitany`: blocks until one live request completes; returns its
    /// index, or `None` if every entry is `REQUEST_NULL`.
    pub fn waitany(&mut self, reqs: &mut [RequestHandle]) -> Option<(usize, Status)> {
        self.call(FuncId::Waitany, |env| {
            let raws = Self::raw_reqs(reqs);
            let done = reqs.iter().any(|&r| env.req_active(r)).then(|| {
                let i = match env.next_directive() {
                    Some(Directive::CompleteOne { index: Some(i) }) => env.await_recorded(reqs, i),
                    Some(d) => env.replay_halt(format!(
                        "directive {d:?} cannot complete a waitany with active requests"
                    )),
                    None => env.wait_ready(reqs),
                };
                (i, env.complete(&mut reqs[i]))
            });
            let (index, status) = any_args(done);
            (done, vec![Arg::Int(raws.len() as i64), Arg::RequestArr(raws), index, status])
        })
    }

    /// `MPI_Waitsome`: blocks until at least one completes; completes all
    /// that are ready. Returns (index, status) pairs.
    pub fn waitsome(&mut self, reqs: &mut [RequestHandle]) -> Vec<(usize, Status)> {
        self.call(FuncId::Waitsome, |env| {
            let raws = Self::raw_reqs(reqs);
            let done = if reqs.iter().any(|&r| env.req_active(r)) {
                match env.next_directive() {
                    Some(Directive::CompleteSet { indices }) if !indices.is_empty() => {
                        env.complete_directed_set(reqs, &indices)
                    }
                    Some(d) => env.replay_halt(format!(
                        "directive {d:?} cannot complete a waitsome with active requests"
                    )),
                    None => {
                        env.wait_ready(reqs);
                        env.complete_ready(reqs)
                    }
                }
            } else {
                Vec::new()
            };
            let args = some_args(raws, &done);
            (done, args)
        })
    }

    /// `MPI_Test`.
    pub fn test(&mut self, req: &mut RequestHandle) -> Option<Status> {
        let raw = req.0;
        self.call(FuncId::Test, |env| {
            let ready = *req == REQUEST_NULL
                || match env.next_directive() {
                    Some(Directive::Flag(true)) => {
                        let h = *req;
                        if !env.poll_directed(|me| me.req_ready(h)) {
                            env.replay_halt("recorded successful test never became ready".into());
                        }
                        true
                    }
                    Some(Directive::Flag(false)) => false,
                    Some(d) => env.replay_halt(format!("directive {d:?} cannot resolve a test")),
                    None => env.req_ready(*req),
                };
            let result = ready.then(|| env.complete(req));
            let args = vec![
                Arg::Request(raw),
                Arg::Int(result.is_some() as i64),
                status_arg(result.unwrap_or_else(Status::proc_null)),
            ];
            (result, args)
        })
    }

    /// `MPI_Testall`: completes all iff all are ready.
    pub fn testall(&mut self, reqs: &mut [RequestHandle]) -> Option<Vec<Status>> {
        self.call(FuncId::Testall, |env| {
            let raws = Self::raw_reqs(reqs);
            let all_ready = |me: &Env| reqs.iter().all(|&r| !me.req_active(r) || me.req_ready(r));
            let ready = match env.next_directive() {
                Some(Directive::Flag(true)) => {
                    if !env.poll_directed(all_ready) {
                        env.replay_halt("recorded successful testall never became ready".into());
                    }
                    true
                }
                Some(Directive::Flag(false)) => false,
                Some(d) => env.replay_halt(format!("directive {d:?} cannot resolve a testall")),
                None => all_ready(env),
            };
            let result = ready.then(|| env.complete_all(reqs));
            let args = vec![
                Arg::Int(raws.len() as i64),
                Arg::RequestArr(raws),
                Arg::Int(result.is_some() as i64),
                status_arr(result.iter().flatten().copied()),
            ];
            (result, args)
        })
    }

    /// `MPI_Testany`.
    pub fn testany(&mut self, reqs: &mut [RequestHandle]) -> Option<(usize, Status)> {
        self.call(FuncId::Testany, |env| {
            let raws = Self::raw_reqs(reqs);
            let index = match env.next_directive() {
                Some(Directive::CompleteOne { index: Some(i) }) => {
                    Some(env.await_recorded(reqs, i))
                }
                Some(Directive::CompleteOne { index: None }) => None,
                Some(d) => env.replay_halt(format!("directive {d:?} cannot resolve a testany")),
                None => env.next_ready(reqs, 0),
            };
            let done = index.map(|i| (i, env.complete(&mut reqs[i])));
            let (index, status) = any_args(done);
            let flag = Arg::Int(done.is_some() as i64);
            (done, vec![Arg::Int(raws.len() as i64), Arg::RequestArr(raws), index, flag, status])
        })
    }

    /// `MPI_Testsome` — the paper's §1 example: completes whatever subset
    /// is ready right now, in nondeterministic order across iterations.
    pub fn testsome(&mut self, reqs: &mut [RequestHandle]) -> Vec<(usize, Status)> {
        self.call(FuncId::Testsome, |env| {
            let raws = Self::raw_reqs(reqs);
            let done = match env.next_directive() {
                Some(Directive::CompleteSet { indices }) => {
                    env.complete_directed_set(reqs, &indices)
                }
                Some(d) => env.replay_halt(format!("directive {d:?} cannot resolve a testsome")),
                None => env.complete_ready(reqs),
            };
            let args = some_args(raws, &done);
            (done, args)
        })
    }

    /// `MPI_Request_free`: releases a request without completing it. (For
    /// pending receives the transfer still happens; the simulator simply
    /// stops tracking it, as MPI permits.)
    pub fn request_free(&mut self, req: &mut RequestHandle) {
        let raw = req.0;
        self.call(FuncId::RequestFree, |env| {
            if *req != REQUEST_NULL {
                env.reqs.remove(*req);
                *req = REQUEST_NULL;
            }
            ((), vec![Arg::Request(raw)])
        })
    }
}

impl Env {
    fn persistent_send_like(&mut self, func: FuncId, p: P2p) -> RequestHandle {
        self.call(func, |env| {
            let req = env.reqs.insert(ReqKind::PersistentSend {
                buf: p.buf,
                count: p.count,
                dtype: p.dt.0,
                dest: p.peer,
                tag: p.tag,
                comm: p.comm,
                active: false,
            });
            (req, p.args(Some(Arg::Request(req.0))))
        })
    }

    /// `MPI_Send_init`: creates an inactive persistent send request.
    pub fn send_init(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.persistent_send_like(FuncId::SendInit, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Bsend_init`.
    pub fn bsend_init(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.persistent_send_like(FuncId::BsendInit, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Ssend_init`.
    pub fn ssend_init(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.persistent_send_like(FuncId::SsendInit, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Rsend_init`.
    pub fn rsend_init(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        dest: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        self.persistent_send_like(FuncId::RsendInit, P2p { buf, count, dt, peer: dest, tag, comm })
    }

    /// `MPI_Recv_init`: creates an inactive persistent receive request.
    pub fn recv_init(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        src: i32,
        tag: i32,
        comm: CommHandle,
    ) -> RequestHandle {
        let p = P2p { buf, count, dt, peer: src, tag, comm };
        self.call(FuncId::RecvInit, |env| {
            let kind =
                ReqKind::PersistentRecv { buf, count, dtype: dt.0, src, tag, comm, pending: None };
            let req = env.reqs.insert(kind);
            (req, p.args(Some(Arg::Request(req.0))))
        })
    }

    /// Activates one persistent request (untraced inner operation).
    fn do_start(&mut self, h: RequestHandle) {
        match *self.reqs.get(h) {
            ReqKind::PersistentSend { buf, count, dtype, dest, tag, comm, active } => {
                assert!(!active, "MPI_Start on an active request");
                self.do_send(P2p { buf, count, dt: DatatypeHandle(dtype), peer: dest, tag, comm });
                if let ReqKind::PersistentSend { active, .. } = self.reqs.get_mut(h) {
                    *active = true;
                }
            }
            ReqKind::PersistentRecv { dtype, src, tag, comm, ref pending, .. } => {
                assert!(pending.is_none(), "MPI_Start on an active request");
                if src == PROC_NULL {
                    return;
                }
                let slot = self.post_recv(src, tag, comm);
                let d = self.types.get(DatatypeHandle(dtype));
                let entry = (slot, d.blocks.clone(), d.extent);
                if let ReqKind::PersistentRecv { pending, .. } = self.reqs.get_mut(h) {
                    *pending = Some(entry);
                }
            }
            _ => panic!("MPI_Start on a non-persistent request"),
        }
    }

    /// `MPI_Start`.
    pub fn start(&mut self, req: RequestHandle) {
        self.call(FuncId::Start, |env| {
            env.do_start(req);
            ((), vec![Arg::Request(req.0)])
        })
    }

    /// `MPI_Startall`.
    pub fn startall(&mut self, reqs: &[RequestHandle]) {
        self.call(FuncId::Startall, |env| {
            for &r in reqs {
                env.do_start(r);
            }
            ((), vec![Arg::Int(reqs.len() as i64), Arg::RequestArr(Self::raw_reqs(reqs))])
        })
    }
}

/// Reads the little-endian u64 at the start of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut lane = [0u8; 8];
    lane.copy_from_slice(&b[..8]);
    u64::from_le_bytes(lane)
}

/// Interprets a byte buffer as little-endian u64 lanes.
pub(crate) fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8).map(le_u64).collect()
}

/// Serializes u64 lanes to bytes.
pub(crate) fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

mod collectives;
pub mod comm_mgmt;
mod type_mgmt;
